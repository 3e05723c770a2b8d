"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest benchmarks/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import measure  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import uci_gen  # noqa: E402
import workloads  # noqa: E402
from cardioseq import data, training  # noqa: E402
from cardioseq.errors import ArityMismatchError  # noqa: E402

REAL_CATEGORIES = {
    "sex": {0, 1}, "cp": {1, 2, 3, 4}, "fbs": {0, 1}, "restecg": {0, 1, 2},
    "exang": {0, 1}, "slope": {1, 2, 3}, "ca": {0, 1, 2, 3}, "thal": {3, 6, 7},
}


@pytest.mark.parametrize("n", [303, 2000])
def test_cleveland_file_parses_with_intended_counts(tmp_path, n):
    path = tmp_path / "c.data"
    summary = uci_gen.write_cleveland(path, n, seed=[7, 0])
    ds = data.parse_dataset(path, "cleveland")
    raw = ds.feature_array()
    missing = np.isnan(raw)
    assert len(ds) == n == summary["rows"]
    expected = uci_gen.missing_cells(n)
    assert missing.sum() == summary["missing_cells"] == sum(expected.values())
    for col, count in expected.items():
        assert missing[:, data.FEATURE_NAMES.index(col)].sum() == count
    assert missing.any(axis=1).sum() == missing.sum()  # one gap per row
    if n == 303:
        assert expected == {"ca": 4, "thal": 2}
    for col, cats in REAL_CATEGORIES.items():
        values = raw[:, data.FEATURE_NAMES.index(col)]
        observed = set(values[~np.isnan(values)].tolist())
        assert observed <= cats
        if n == 2000:
            assert observed == cats
    assert ds.labels.sum() == summary["presence"]
    with open(path) as fh:
        levels = {line.rsplit(",", 1)[1].strip() for line in fh}
    assert levels == {"0", "1", "2", "3", "4"}


def test_statlog_file_parses_without_gaps(tmp_path):
    path = tmp_path / "s.dat"
    summary = uci_gen.write_statlog(path, 303, seed=7)
    ds = data.parse_dataset(path, "statlog")
    assert len(ds) == 303 and not ds.has_missing
    assert ds.labels.sum() == summary["presence"]
    feats, levels = uci_gen.generate(303, 7)
    np.testing.assert_array_equal(ds.feature_array(), feats)
    np.testing.assert_array_equal(ds.labels, levels > 0)


def test_labels_carry_a_class_signal():
    feats, levels = uci_gen.generate(4000, 3)
    y = levels > 0
    cp = feats[:, uci_gen.COLUMNS.index("cp")]
    thalach = feats[:, uci_gen.COLUMNS.index("thalach")]
    assert np.mean(cp[y] == 4) - np.mean(cp[~y] == 4) > 0.4
    assert thalach[~y].mean() - thalach[y].mean() > 10


def test_self_time_of_hand_built_nested_trace():
    # 0 [0, 10] holds 1 [1, 3] and 2 [4, 8]; 2 holds 3 [5, 6].
    starts = [0.0, 1.0, 4.0, 5.0]
    ends = [10.0, 3.0, 8.0, 6.0]
    parents = [-1, 0, 0, 2]
    assert tracing.self_times(starts, ends, parents) == [4.0, 2.0, 3.0, 1.0]


def test_self_time_counts_overlapping_children_once_and_clips_them():
    starts = [0.0, 1.0, 3.0, 9.0]
    ends = [10.0, 5.0, 6.0, 12.0]
    parents = [-1, 0, 0, 0]
    assert tracing.self_times(starts, ends, parents)[0] == pytest.approx(10 - 5 - 1)


def test_normalised_time_scales_by_the_samples_taken_meanwhile():
    sampler = speed.Sampler()
    # Reference samples at 0.0, 0.1, ..., 1.9 s: at nominal speed up to 1 s,
    # then half as fast.
    sampler.samples = [(0.1 * i, speed.REFERENCE_SECONDS * (1 if i < 10 else 2))
                       for i in range(20)]
    # 1 s of wall time, of which 0.1 s was spent sampling.
    seconds, raw = sampler.normalised(speed.Mark(1.0, 0.2), speed.Mark(2.0, 0.3))
    assert raw == pytest.approx(0.9)
    assert seconds == pytest.approx(0.45)
    # An interval holding fewer than MIN_SAMPLES samples takes the nearest.
    assert sampler.speed(speed.Mark(0.21, 0), speed.Mark(0.22, 0)) == pytest.approx(
        speed.REFERENCE_SECONDS)
    assert speed.Sampler().normalised(speed.Mark(0.0, 0.0), speed.Mark(1.0, 0.0)) == (1.0, 1.0)


def test_sampler_time_is_left_out_of_the_program_clock():
    sampler = speed.Sampler(interval=0.01)
    with sampler.running():
        stolen0 = sampler.stolen
        wall0, clock0 = speed.perf_counter(), sampler.clock()
        while speed.perf_counter() - wall0 < 0.3:
            pass
        wall, clock = speed.perf_counter() - wall0, sampler.clock() - clock0
        stolen = sampler.stolen - stolen0
    assert len(sampler.durations) >= 5
    assert sampler.stolen >= sum(sampler.durations)
    assert 0 < stolen < wall
    assert clock == pytest.approx(wall - stolen, abs=1e-4)


class _ShortRecord:
    features = (1.0,) * 12


def test_tracer_records_nesting_rows_and_errors(tmp_path):
    ds = data.parse_dataset(_cleveland(tmp_path, 120), "cleveland")
    model = training.train(ds, training.Hyperparams(epochs=1, seed=0))
    tracer = tracing.Tracer()
    with tracer.installed():
        training.predict(model, ds.records[0])
        with pytest.raises(ArityMismatchError):
            training.predict(model, _ShortRecord())
    assert not hasattr(training.predict, "__wrapped__")  # original restored
    summary = tracer.summary()
    assert summary["training.predict"]["calls"] == 2
    assert summary["training.predict"]["errors"] == 1
    assert summary["training.predict"]["rows"] == 2
    assert summary["network.forward_batch"]["calls"] == 1
    assert summary["network.forward_batch"]["rows"] == 1
    spans = tracer.spans()
    names = [s[0] for s in spans]
    predict_ix = names.index("training.predict")
    forward = spans[names.index("network.forward_batch")]
    assert forward[3] == predict_ix
    own = tracing.self_times(*zip(*[(s[1], s[2], s[3]) for s in spans]))
    children = sum(s[2] - s[1] for s in spans if s[3] == predict_ix)
    assert own[predict_ix] == pytest.approx(spans[predict_ix][2] - spans[predict_ix][1] - children)


def test_missing_layers_are_reported_absent():
    names = ("network.forward_batch", "network.no_such_function",
             "no_such_module.f", "data.NoSuchClass.method", "data.N_FEATURES")
    tracer = tracing.Tracer(names)
    assert tracer.absent == list(names[1:])
    with tracer.installed():
        pass
    summary = tracer.summary()
    assert summary["network.no_such_function"] == {"calls": 0, "self_s": 0.0, "errors": 0, "rows": 0}


def _cleveland(tmp_path, n, seed=0):
    path = tmp_path / f"c{n}-{seed}.data"
    uci_gen.write_cleveland(path, n, seed)
    return str(path)


TINY = {
    "scaled_fit": {"rows": 400, "cnn_epochs": 1, "batch": 64, "pso_iterations": 1,
                   "dv_epochs": 50},
    "paper_cv": {"rows": 60, "k": 3},
}


def _fingerprint(tmp_path, name, seed, traced=False):
    workdir = tmp_path / f"{name}-{seed}-{traced}"
    workdir.mkdir()
    workload = workloads.WORKLOADS[name](str(workdir), seed, TINY[name])
    bench = measure.Run(workload, traced=traced)
    bench.measure(seconds=0)
    assert bench.checks.failed == 0, bench.checks.failures
    assert len(set(bench.fingerprints)) == 1
    return bench.fingerprints[0]


@pytest.mark.parametrize("name", sorted(TINY))
def test_fingerprint_repeats_for_a_seed_and_differs_across_seeds(tmp_path, name):
    first = _fingerprint(tmp_path, name, 1)
    assert _fingerprint(tmp_path, name, 1, traced=True) == first
    assert _fingerprint(tmp_path, name, 2) != first


def test_failed_output_check_is_counted(tmp_path, monkeypatch):
    workload = workloads.ScaledFit(str(tmp_path), 1, TINY["scaled_fit"])
    monkeypatch.setattr(training, "predict", lambda model, record: (0, np.array([np.nan, 1.0])))
    bench = measure.Run(workload, traced=False)
    bench.measure(seconds=0)
    assert bench.checks.failed >= workloads.CHUNK
    assert bench.end_to_end(False, 0.0)["success_rate"] < 1.0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "paper_cv", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert run.units_of(metric["name"]) == metric["unit"], metric
    layer_names = {m["name"] for m in spec["per_layer"]}
    for name in tracing.LAYER_NAMES:
        assert {f"{name}.calls", f"{name}.self_s", f"{name}.errors"} <= layer_names
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted(run.WORKLOAD_NAMES) == sorted(workloads.WORKLOADS)
