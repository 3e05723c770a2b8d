"""The benchmark's workloads: seeded inputs, timed phases and output checks.

Every workload has the same phases, one per model kind (`cnn`, `pso_elm`,
`dv_logistic`), plus windows of single-record CNN predictions, spread over
the pass, that give the latency percentiles. Each phase is timed whole,
with one mark before and one after it: a `cv` command, or a fit and the
batch prediction after it. Times are scaled to nominal machine speed by
the reference samples taken during them (`speed.py`). A run repeats its
phases, and the run's figure for a phase is the median of its repeats
(see `measure.py`).

Each phase is a closed loop with one caller: a call is issued only after
the previous one returned.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
from dataclasses import dataclass

import numpy as np

import uci_gen
from speed import SAMPLER
from cardioseq import baselines, cli, data, model_io, network, training

MODELS = ("cnn", "pso_elm", "dv_logistic")

# Predict calls per latency window: the 99th percentile of a window then
# has 10 samples above it.
CHUNK = 1000

DIALECT = "cleveland"


@dataclass
class Phase:
    """One run of a phase: its time at nominal speed and unscaled, what it
    produced and, for a prediction window, the latency of each call at
    nominal speed."""

    seconds: float
    raw_seconds: float
    output: list
    latencies: list = None


def timed(start, output, latencies=None):
    """A Phase that began at mark `start` and ends now."""
    seconds, raw = SAMPLER.normalised(start, SAMPLER.mark())
    if latencies is not None:
        latencies = [t * seconds / raw for t in latencies] if raw > 0 else latencies
    return Phase(seconds=seconds, raw_seconds=raw, output=output, latencies=latencies)


class Checks:
    """Counts operations and output checks, and which of them failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def _record(self, attempted, failed, what):
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.failures) < 20:
            self.failures.append(f"{what} ({failed} of {attempted} failed)")

    def expect(self, ok, what, count=1):
        """Record `count` operations that all passed or all failed."""
        self._record(count, 0 if ok else count, what)
        return bool(ok)

    def expect_all(self, ok, what):
        """Record one operation per element of a boolean array."""
        ok = np.asarray(ok, dtype=bool)
        self._record(ok.size, ok.size - int(np.count_nonzero(ok)), what)


class Digest:
    """sha256 over named arrays and scalars, in the order they are added."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, name, value):
        a = np.ascontiguousarray(np.asarray(value, dtype="<f8"))
        self._h.update(f"{name}:{a.shape};".encode())
        self._h.update(a.tobytes())

    def hexdigest(self):
        return self._h.hexdigest()


def run_cli(argv):
    """cli.main in-process with its stdout captured: (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = cli.main(argv)
        except Exception as exc:  # an escaping exception is a failed command
            rc = f"{type(exc).__name__}: {exc}"
    return rc, buf.getvalue()


def attempt(fn, *args, **kwargs):
    """fn's result, or the exception it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        return exc


def stream(predict_one, records, n_calls):
    """Predict records cyclically, one call after another."""
    outputs, latencies = [], []
    clock = SAMPLER.clock
    start = SAMPLER.mark()
    for i in range(n_calls):
        record = records[i % len(records)]
        t0 = clock()
        try:
            out = predict_one(record)
        except Exception as exc:
            out = exc
        latencies.append(clock() - t0)
        outputs.append(out)
    return timed(start, outputs, latencies)


def cross_validation(model, data_path, out_dir, k):
    """The `cv` command for one model, timed whole."""
    argv = ["cv", "--data", data_path, "--dialect", DIALECT, "--model", model,
            "--k", str(k), "--seed", "0", "--out", out_dir]
    start = SAMPLER.mark()
    rc, stdout = run_cli(argv)
    phase = timed(start, None)
    csv_path = os.path.join(out_dir, f"cv_{model}.csv")
    csv_text = None
    if rc == 0 and os.path.exists(csv_path):
        with open(csv_path, encoding="ascii") as fh:
            csv_text = fh.read()
    phase.output = [{"rc": rc, "stdout": stdout, "csv": csv_text}]
    return phase


def check_cross_validation(model, outputs, k, n_rows, checks, digest):
    """Checks the `cv` reports of one pass, which must all be the same;
    returns their mean accuracy."""
    checks.expect(
        all(o["csv"] == outputs[0]["csv"] for o in outputs),
        f"cv {model}: repeated runs reported different folds",
    )
    output = outputs[0]
    checks.expect(output["rc"] == 0, f"cv {model} exit status {output['rc']!r}")
    folds = []
    if output["csv"] is not None:
        lines = output["csv"].strip().splitlines()
        for line in lines[1:-1]:
            _, acc, tp, tn, fp, fn = line.split(",")
            folds.append((float(acc), int(tp), int(tn), int(fp), int(fn)))
        mean = float(lines[-1].split(",")[1])
    if len(folds) != k:
        checks.expect(False, f"cv {model}: {len(folds)} folds reported", count=k)
        return 0.0
    acc = np.array([f[0] for f in folds])
    confusion = np.array([f[1:] for f in folds])
    sizes = confusion.sum(axis=1)
    checks.expect_all(
        (acc >= 0) & (acc <= 1) & (sizes > 0)
        & (np.abs(acc - (confusion[:, 0] + confusion[:, 1]) / np.maximum(sizes, 1)) < 1e-12),
        f"cv {model}: fold accuracy out of [0, 1] or inconsistent with its confusion counts",
    )
    checks.expect(
        sizes.max() - sizes.min() <= 1 and sizes.sum() == n_rows,
        f"cv {model}: fold sizes {sizes.tolist()}",
    )
    printed = output["stdout"].split("mean accuracy:")[-1].split()[:1]
    checks.expect(
        abs(mean - acc.mean()) < 1e-12 and printed and abs(float(printed[0]) - mean) < 1e-6,
        f"cv {model}: reported mean accuracy does not match its folds",
    )
    digest.add(f"cv_{model}_accuracy", acc)
    digest.add(f"cv_{model}_confusion", confusion)
    return float(acc.mean())


def check_probabilities(name, probs, pred, checks, digest):
    """Finite, non-negative class probabilities summing to 1, and a predicted
    class that follows them (exact ties go to class 0)."""
    probs = np.atleast_2d(probs)
    finite = np.isfinite(probs).all(axis=1)
    checks.expect_all(
        finite & (probs >= 0).all(axis=1) & (np.abs(probs.sum(axis=1) - 1) < 1e-9)
        & (pred == (probs[:, 1] > probs[:, 0])),
        f"{name}: probabilities not finite, negative, not summing to 1 or not matching the class",
    )
    digest.add(f"{name}_probabilities", probs)


def check_cnn_stream(outputs, labels, checks, digest):
    """Single-record CNN predictions; a call that raised counts as failed
    and leaves a NaN row."""
    ok = np.array([not isinstance(o, Exception) for o in outputs])
    cls = np.array([o[0] if good else -1 for o, good in zip(outputs, ok)])
    probs = np.full((len(outputs), 2), np.nan)
    for i, (o, good) in enumerate(zip(outputs, ok)):
        if good:
            probs[i] = np.reshape(np.asarray(o[1], dtype=float), -1)[:2]
    checks.expect_all(ok, "cnn_predict: calls raised")
    check_probabilities("cnn_predict", probs, cls, checks, digest)
    return float(np.mean(cls == labels))


def digest_cnn_model(name, model, digest):
    for key, tensor in model.params.tensors().items():
        digest.add(f"{name}_{key}", tensor)
    for key in ("mean", "std"):
        digest.add(f"{name}_scaler_{key}", getattr(model.scaler, key))
    digest.add(f"{name}_fill_values", model.fill_values)


def batch_probabilities(model, dataset):
    """CNN class probabilities for every row of a raw dataset, through the
    same public steps `training.predict` takes for one record."""
    imputed = data.impute_with_values(dataset, model.fill_values)
    X = data.scale_values(imputed.feature_array(), model.scaler)
    probs, _ = network.forward_batch(X, model.params, pool_mode=model.hyper.pool_mode)
    return probs


def write_cnn_model(train_path, model_path):
    """Fit the CNN with default hyperparameters on a paper-scale file and save
    it. Part of input generation, not timed."""
    dataset = data.parse_dataset(train_path, DIALECT)
    model_io.save_model(model_path, training.train(dataset, training.Hyperparams(seed=0)))


def stream_labels(labels, n_calls):
    """Labels of n_calls predictions made in windows of CHUNK calls that
    each start at record 0."""
    return labels[np.arange(n_calls) % CHUNK % labels.size]


class Workload:
    """Inputs are written at construction; `setup` is timed and repeatable;
    `phases` lists (name, callable) run in order in every pass, and a name
    listed more than once is one phase repeated; `check` verifies one
    pass's outputs, listed per phase name, and returns the accuracy per
    model."""

    name = None

    def __init__(self, workdir, seed, sizes):
        self.workdir = workdir
        self.seed = seed
        self.sizes = dict(sizes)
        self.inputs = {}

    def _cleveland(self, filename, rows, stream_id):
        path = os.path.join(self.workdir, filename)
        self.inputs[filename] = uci_gen.write_cleveland(path, rows, [self.seed, stream_id])
        return path


class PaperCv(Workload):
    name = "paper_cv"
    SIZES = {"rows": 303, "k": 10}

    def __init__(self, workdir, seed, sizes=None):
        super().__init__(workdir, seed, sizes or self.SIZES)
        self.data_path = self._cleveland("cleveland.data", self.sizes["rows"], 0)
        self.model_path = os.path.join(workdir, "cnn.model.txt")
        write_cnn_model(self.data_path, self.model_path)

    def setup(self):
        self.dataset = data.parse_dataset(self.data_path, DIALECT)
        self.model = model_io.load_model(self.model_path)

    def phases(self):
        # The dv_logistic cv takes about half a second, so it runs once after
        # each of the others and once more: the median of its repeats then
        # comes from more moments of the pass. Prediction windows between
        # them spread the latency samples over the pass too.
        window = ("predict", lambda: stream(
            lambda r: training.predict(self.model, r), self.dataset.records, CHUNK))
        cv = {m: (m, lambda m=m: cross_validation(
            m, self.data_path, os.path.join(self.workdir, "cv"), self.sizes["k"]))
            for m in MODELS}
        return [window, cv["cnn"], cv["dv_logistic"], window,
                cv["pso_elm"], cv["dv_logistic"], window, cv["dv_logistic"], window]

    def check(self, outputs, checks, digest):
        acc = {
            m: check_cross_validation(m, outputs[m], self.sizes["k"],
                                      self.sizes["rows"], checks, digest)
            for m in MODELS
        }
        digest_cnn_model("predict_model", self.model, digest)
        calls = outputs["predict"]
        check_cnn_stream(calls, stream_labels(self.dataset.labels, len(calls)), checks, digest)
        return acc


class ScaledFit(Workload):
    name = "scaled_fit"
    SIZES = {"rows": 10_000, "cnn_epochs": 4, "batch": 256, "pso_iterations": 2,
             "dv_epochs": 800}

    def __init__(self, workdir, seed, sizes=None):
        super().__init__(workdir, seed, sizes or self.SIZES)
        self.data_path = self._cleveland("cleveland_scaled.data", self.sizes["rows"], 0)
        self.model_dir = os.path.join(workdir, "train")

    def setup(self):
        self.dataset = data.parse_dataset(self.data_path, DIALECT)

    def _cnn(self):
        start = SAMPLER.mark()
        rc, _ = run_cli(["train", "--data", self.data_path, "--dialect", DIALECT,
                         "--epochs", str(self.sizes["cnn_epochs"]), "--lr", "0.01",
                         "--batch", str(self.sizes["batch"]), "--seed", "0",
                         "--out", self.model_dir])
        model = attempt(model_io.load_model, os.path.join(self.model_dir, "model.txt"))
        probs = None if isinstance(model, Exception) else attempt(
            batch_probabilities, model, self.dataset)
        phase = timed(start, [{"rc": rc, "model": model, "probs": probs}])
        self.model = model
        return phase

    def _baseline(self, kind):
        start = SAMPLER.mark()
        if kind == "pso_elm":
            model = attempt(baselines.pso_elm_train, self.dataset,
                            iterations=self.sizes["pso_iterations"], seed=0)
        else:
            model = attempt(baselines.dv_logistic_train, self.dataset,
                            epochs=self.sizes["dv_epochs"], seed=0)
        pred = None if isinstance(model, Exception) else attempt(model.predict_batch, self.dataset)
        return timed(start, [{"model": model, "pred": pred}])

    def phases(self):
        # A prediction window with the freshly trained CNN after each fit.
        window = ("predict", lambda: stream(
            lambda r: training.predict(self.model, r), self.dataset.records, CHUNK))
        return [
            ("cnn", self._cnn), window,
            ("pso_elm", lambda: self._baseline("pso_elm")), window,
            ("dv_logistic", lambda: self._baseline("dv_logistic")), window,
        ]

    def check(self, outputs, checks, digest):
        labels = self.dataset.labels
        acc = dict.fromkeys(MODELS, 0.0)  # stays 0 for a model whose fit failed
        cnn = outputs["cnn"][0]
        fitted = cnn["rc"] == 0 and isinstance(cnn["probs"], np.ndarray)
        checks.expect(fitted, f"cnn train/load/predict: {cnn['rc']!r}, {cnn['model']!r}")
        if fitted:
            digest_cnn_model("cnn", cnn["model"], digest)
            pred = (cnn["probs"][:, 1] > cnn["probs"][:, 0]).astype(np.int64)
            check_probabilities("cnn_batch", cnn["probs"], pred, checks, digest)
            acc["cnn"] = float(np.mean(pred == labels))
        check_cnn_stream(outputs["predict"], stream_labels(labels, len(outputs["predict"])),
                         checks, digest)
        for kind in ("pso_elm", "dv_logistic"):
            out = outputs[kind][0]
            model, pred = out["model"], out["pred"]
            fitted = isinstance(pred, np.ndarray)
            checks.expect(fitted, f"{kind} fit/predict: {model!r} {pred!r}")
            if not fitted:
                continue
            checks.expect_all(np.isin(pred, (0, 1)), f"{kind}: predicted classes outside 0/1")
            if kind == "pso_elm":
                for key in ("hidden_weights", "hidden_biases", "output_weights"):
                    digest.add(f"{kind}_{key}", getattr(model, key))
                scores = model.outputs(self.dataset)
                checks.expect_all(
                    np.isfinite(scores).all(axis=1) & (pred == (scores[:, 1] > scores[:, 0])),
                    f"{kind}: outputs not finite or not matching the class",
                )
                digest.add(f"{kind}_outputs", scores)
            else:
                digest.add(f"{kind}_weights", model.weights)
                digest.add(f"{kind}_bias", model.bias)
                p = model.scores(self.dataset)
                check_probabilities(kind, np.column_stack([1 - p, p]), pred, checks, digest)
            acc[kind] = float(np.mean(pred == labels))
        return acc


WORKLOADS = {w.name: w for w in (PaperCv, ScaledFit)}
