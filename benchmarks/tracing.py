"""Spans around cardioseq's public functions, recorded from outside the package.

The tracer replaces each listed function (or method) with a wrapper that
records one span per call: name, start, end and parent span. Spans stay in
memory until the run ends. Nothing under `src/` knows about the tracer, so a
function that a later refactor removes or renames is reported as absent
instead of breaking the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
from collections import Counter, defaultdict
from speed import SAMPLER

PACKAGE = "cardioseq"

# Every traced layer function, the end-to-end metrics a faster version of it
# should move, and the workloads where that shows. A faster layer can save
# at most its own share (its self time) of the phase it runs in.
LAYERS = (
    ("network.forward_batch", "cnn_s predict_p50_us predict_p99_us", "paper_cv scaled_fit"),
    ("network.model_backward", "cnn_s", "paper_cv scaled_fit"),
    ("training.adam_step", "cnn_s", "paper_cv scaled_fit"),
    ("training.loss_and_accuracy", "cnn_s", "paper_cv scaled_fit"),
    ("training.train", "cnn_s", "paper_cv scaled_fit"),
    ("training.predict", "predict_p50_us predict_p99_us", "paper_cv scaled_fit"),
    ("baselines.pso_elm_train", "pso_elm_s", "paper_cv scaled_fit"),
    ("baselines.elm_solve_output", "pso_elm_s", "paper_cv scaled_fit"),
    ("baselines.solve_residual", "pso_elm_s", "paper_cv scaled_fit"),
    ("baselines.dv_logistic_train", "dv_logistic_s", "scaled_fit"),
    ("baselines.dummy_encode", "dv_logistic_s", "scaled_fit"),
    ("baselines.DvLogisticModel.predict_batch", "dv_logistic_s", "scaled_fit"),
    ("data.parse_dataset", "setup_s cnn_s pso_elm_s dv_logistic_s", "scaled_fit"),
    ("data.fill_values", "setup_s cnn_s pso_elm_s dv_logistic_s", "scaled_fit"),
    ("data.impute_with_values", "setup_s cnn_s pso_elm_s dv_logistic_s", "scaled_fit"),
    ("data.fit_scaler", "setup_s cnn_s pso_elm_s dv_logistic_s", "scaled_fit"),
    ("data.scale_values", "setup_s cnn_s pso_elm_s dv_logistic_s", "scaled_fit"),
    ("data.Dataset.feature_array", "setup_s cnn_s pso_elm_s dv_logistic_s", "scaled_fit"),
    ("model_io.load_model", "setup_s cnn_s", "paper_cv scaled_fit"),
    ("model_io.save_model", "cnn_s", "scaled_fit"),
    ("evaluation.kfold_split", "cnn_s pso_elm_s dv_logistic_s", "paper_cv"),
    ("evaluation.cross_validate", "cnn_s pso_elm_s dv_logistic_s", "paper_cv"),
    ("cli.main", "cnn_s pso_elm_s dv_logistic_s", "paper_cv"),
)

LAYER_NAMES = tuple(name for name, _, _ in LAYERS)


def _forward_rows(args, kwargs):
    x = args[0] if args else kwargs["inputs"]
    return x.shape[0] if getattr(x, "ndim", 1) == 2 else 1


# Layers that also count the rows they were given.
ROW_COUNTERS = {
    "network.forward_batch": _forward_rows,
    "training.predict": lambda args, kwargs: 1,
}


def resolve(name):
    """(owner, attribute, function) for a dotted layer name, or None when the
    module, class or function does not exist."""
    module_name, *owner_path, attr = name.split(".")
    try:
        owner = importlib.import_module(f"{PACKAGE}.{module_name}")
    except ImportError:
        return None
    for part in owner_path:
        owner = getattr(owner, part, None)
        if not inspect.isclass(owner):
            return None
    fn = inspect.getattr_static(owner, attr, None)
    if not inspect.isfunction(fn):
        return None
    return owner, attr, fn


@contextlib.contextmanager
def patched(owner, attr, wrapper):
    """Replace owner.attr with wrapper for the duration of the block."""
    original = inspect.getattr_static(owner, attr)
    setattr(owner, attr, wrapper)
    try:
        yield
    finally:
        setattr(owner, attr, original)


class Tracer:
    """Span recorder for one traced pass."""

    def __init__(self, layer_names=LAYER_NAMES):
        self.layer_names = tuple(layer_names)
        self.names, self.starts, self.ends, self.parents = [], [], [], []
        self.rows = Counter()
        self.errors = Counter()
        self._stack = []
        self.absent = []
        self._targets = []
        for name in self.layer_names:
            target = resolve(name)
            if target is None:
                self.absent.append(name)
            else:
                self._targets.append((name, target))

    def _wrap(self, name, fn):
        count_rows = ROW_COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ends.append(None)
            self._stack.append(idx)
            if count_rows is not None:
                self.rows[name] += count_rows(args, kwargs)
            self.starts.append(SAMPLER.clock())
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.errors[name] += 1
                raise
            finally:
                self.ends[idx] = SAMPLER.clock()
                self._stack.pop()

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every present layer function while the block runs."""
        with contextlib.ExitStack() as stack:
            for name, (owner, attr, fn) in self._targets:
                stack.enter_context(patched(owner, attr, self._wrap(name, fn)))
            yield self

    def spans(self):
        return list(zip(self.names, self.starts, self.ends, self.parents))

    def summary(self):
        """Per layer: calls, self seconds, errors and (where counted) rows."""
        calls = Counter(self.names)
        own = self_times(self.starts, self.ends, self.parents)
        self_s = defaultdict(float)
        for name, t in zip(self.names, own):
            self_s[name] += t
        return {
            name: {
                "calls": calls[name],
                "self_s": self_s[name],
                "errors": self.errors[name],
                "rows": self.rows[name],
            }
            for name in self.layer_names
        }


def self_times(starts, ends, parents):
    """Each span's duration minus the part of its interval that its direct
    child spans cover (overlapping children are counted once)."""
    children = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
    out = []
    for i, (s, e) in enumerate(zip(starts, ends)):
        covered = 0.0
        cur_start = cur_end = None
        for c in sorted(children[i], key=starts.__getitem__):
            cs, ce = max(starts[c], s), min(ends[c], e)
            if ce <= cs:
                continue
            if cur_end is None or cs > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = cs, ce
            else:
                cur_end = max(cur_end, ce)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((e - s) - covered)
    return out
