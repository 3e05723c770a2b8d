"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured numbers. Run with `pytest -v -s` to see
the lines. The real-data criteria skip with a visible notice when the
public dataset files are not present (see conftest.DATA_DIR)."""

import time

import numpy as np
import pytest

from cardioseq import baselines as bl
from cardioseq import cli
from cardioseq import data as dp
from cardioseq import evaluation as ev
from cardioseq import network as nn
from cardioseq import synthetic
from cardioseq import training as tr

from conftest import (
    CLEVELAND_PATH,
    STATLOG_PATH,
    require_file,
    write_statlog_file,
)
from test_evaluation import check_plan, random_dataset
from test_network import fd_gradients, naive_conv, rel_err


def report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, detail


def test_criterion_1_gradient_correctness():
    start = time.monotonic()
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        params = nn.init_params(2, rng)
        X = rng.standard_normal((3, 13))
        y = rng.integers(0, 2, size=3)
        _, cache = nn.forward_batch(X, params)
        grads = nn.model_backward(cache, y).tensors()
        expected = fd_gradients(params, X, y, h=1e-5)
        for name in grads:
            worst = max(worst, float(rel_err(grads[name], expected[name]).max()))
    elapsed = time.monotonic() - start
    report(
        "criterion 1 (gradient correctness)",
        worst < 1e-4 and elapsed < 30,
        f"worst relative error {worst:.3e} over 20 seeds in {elapsed:.1f}s",
    )


def test_criterion_2_convolution_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(42)
    # one kernel per width; each case sets its width's kernel and reads that
    # bank's row of the one-row batch's pre-activation maps
    params = nn.init_params(1, np.random.default_rng(0))
    worst = 0.0
    for _ in range(1000):
        width = int(rng.choice([1, 3, 5]))
        x = rng.standard_normal(13)
        weights, bias = rng.standard_normal(width), float(rng.standard_normal())
        params.conv_w[width][0], params.conv_b[width][0] = weights, bias
        _, cache = nn.forward_batch(x[None, :], params)
        got = cache.maps[nn.KERNEL_WIDTHS.index(width), :, 0]
        expected = np.array(naive_conv(x, weights, bias))
        worst = max(worst, float(np.abs(got - expected).max()))
    elapsed = time.monotonic() - start
    report(
        "criterion 2 (convolution oracle)",
        worst < 1e-12 and elapsed < 5,
        f"max abs deviation {worst:.3e} over 1000 cases in {elapsed:.1f}s",
    )


def test_criterion_3_softmax_loss_invariants():
    start = time.monotonic()
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(500):
        z = rng.standard_normal(2) * 10
        q = nn.softmax(z)
        ok &= abs(float(q.sum()) - 1.0) < 1e-12
    # bit-for-bit shift invariance on an exact dyadic grid
    for _ in range(100):
        z = rng.integers(-512, 512, size=2) / 64.0
        for c in (1.0, -32.0, 1024.0):
            ok &= bool(np.array_equal(nn.softmax(z), nn.softmax(z + c)))
    ok &= tr.mean_loss(np.array([[0.0, 1.0]]), np.array([1])) == 0.0
    for _ in range(500):
        alpha = float(rng.random())
        ok &= tr.mean_loss(np.array([[1.0 - alpha, alpha]]), np.array([int(rng.integers(2))])) >= 0.0
    elapsed = time.monotonic() - start
    report(
        "criterion 3 (softmax/loss invariants)",
        ok and elapsed < 1,
        f"sum-to-1, bitwise shift invariance, CE(1,1)=0, losses >= 0 in {elapsed:.2f}s",
    )


def test_criterion_4_training_curve_behavior():
    start = time.monotonic()
    dataset = synthetic.separable_dataset(200, seed=1)
    model = tr.train(dataset, tr.Hyperparams(seed=7))  # all defaults
    acc = model.curve.train_accuracy[-1]
    loss = model.curve.train_loss[-1]
    elapsed = time.monotonic() - start
    report(
        "criterion 4 (training curve at desk scale)",
        acc == 1.0 and loss < 0.2 and elapsed < 30,
        f"final accuracy {acc:.3f}, final loss {loss:.4f} after 50 epochs in {elapsed:.1f}s",
    )


def test_criterion_5_fold_protocol():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    cases = 0
    for _ in range(200):
        k = int(rng.integers(2, 12))
        n = int(rng.integers(k, 1000))
        ds = random_dataset(n, seed=int(rng.integers(1e6)))
        if not all(np.sum(ds.labels == c) >= k / 2 for c in (0, 1)):
            continue
        plan = ev.kfold_split(ds, k=k, seed=int(rng.integers(1e6)))
        check_plan(plan, ds.labels, k)
        cases += 1
    # no-leakage: mutating test-fold rows leaves the training subset alone
    ds = random_dataset(120, seed=5)
    plan = ev.kfold_split(ds, k=10, seed=1)
    X = ds.X.copy()
    X[plan.fold_indices(0)] += 99.0
    mutated = dp.Dataset(X, ds.y)
    train_idx = np.flatnonzero(plan.assignments != 0)
    kept, kept_mutated = ds.subset(train_idx), mutated.subset(train_idx)
    leak_free = (np.array_equal(kept.X, kept_mutated.X, equal_nan=True)
                 and np.array_equal(kept.y, kept_mutated.y))
    elapsed = time.monotonic() - start
    report(
        "criterion 5 (fold protocol properties)",
        cases >= 150 and leak_free and elapsed < 10,
        f"{cases} randomized cases checked, no-leakage holds, in {elapsed:.1f}s",
    )


REFERENCE_NOTE = (
    "published reference accuracies: Dv-Logistic 85.58/85.73, "
    "PSO-ELM 91.99/93.38, 1D-CNN 97.25/98.42 (Statlog / Cleveland)"
)

FLOORS = {
    "statlog": {"cnn": 0.78, "dv_logistic": 0.75, "pso_elm": 0.75},
    "cleveland": {"cnn": 0.75, "dv_logistic": 0.75, "pso_elm": 0.75},
}


@pytest.mark.parametrize("name,path,dialect", [
    ("statlog", STATLOG_PATH, "statlog"),
    ("cleveland", CLEVELAND_PATH, "cleveland"),
])
def test_criterion_6_real_data_floors(name, path, dialect):
    require_file(path, name)
    start = time.monotonic()
    dataset = dp.parse_dataset(path, dialect)
    results = {}
    for kind in ("cnn", "dv_logistic", "pso_elm"):
        rep = ev.cross_validate(dataset, kind, k=10, seed=0)
        results[kind] = rep.mean_accuracy
    elapsed = time.monotonic() - start
    print(REFERENCE_NOTE)
    detail = ", ".join(f"{k} {v:.4f} (floor {FLOORS[name][k]})" for k, v in results.items())
    ok = all(results[k] >= FLOORS[name][k] for k in results) and elapsed < 600
    report(f"criterion 6 ({name} accuracy floors)", ok, f"{detail} in {elapsed:.0f}s")


def test_criterion_7_pso_invariants():
    start = time.monotonic()
    dataset = synthetic.separable_dataset(200, seed=3)
    model = bl.pso_elm_train(dataset, iterations=50, seed=11)
    hist = model.gbest_history
    mono = all(b >= a for a, b in zip(hist, hist[1:]))
    resid_ok = model.max_solve_residual < 1e-8
    elapsed = time.monotonic() - start
    detail = (
        f"synthetic: gbest monotone={mono}, max ridge residual "
        f"{model.max_solve_residual:.2e} in {elapsed:.1f}s"
    )
    report("criterion 7 (PSO/ELM invariants, synthetic)",
           mono and resid_ok and elapsed < 60, detail)


def test_criterion_7_pso_invariants_real_data():
    require_file(STATLOG_PATH, "statlog")
    dataset = dp.parse_dataset(STATLOG_PATH, "statlog")
    model = bl.pso_elm_train(dataset, iterations=50, seed=11)
    hist = model.gbest_history
    mono = all(b >= a for a, b in zip(hist, hist[1:]))
    report(
        "criterion 7 (PSO/ELM invariants, real data)",
        mono and model.max_solve_residual < 1e-8,
        f"gbest monotone={mono}, max ridge residual {model.max_solve_residual:.2e}",
    )


def test_criterion_8_cv_determinism(tmp_path):
    start = time.monotonic()
    data_file = tmp_path / "synthetic.dat"
    write_statlog_file(data_file, synthetic.separable_dataset(100, seed=13))
    outputs = []
    for sub in ("run_a", "run_b"):
        out = tmp_path / sub
        code = cli.main([
            "cv", "--data", str(data_file), "--model", "cnn",
            "--epochs", "5", "--kernels", "4", "--k", "5", "--seed", "3",
            "--out", str(out),
        ])
        assert code == 0
        outputs.append((
            (out / "cv_cnn.txt").read_bytes(),
            (out / "cv_cnn.csv").read_bytes(),
        ))
    elapsed = time.monotonic() - start
    report(
        "criterion 8 (cmd_cv determinism)",
        outputs[0] == outputs[1],
        f"two runs byte-identical in {elapsed:.1f}s",
    )


def test_criterion_9_adam_unit_contract():
    start = time.monotonic()
    hyper = tr.Hyperparams()
    rng = np.random.default_rng(77)
    params = nn.init_params(1, rng)
    start_tensors = {k: v.copy() for k, v in params.tensors().items()}
    grad = params.with_flat(rng.standard_normal(params.flat.shape))
    grads = grad.tensors()

    # first step closed form
    m = v = np.zeros_like(params.flat)
    flat, m, v = tr.adam_step(params.flat, grad.flat, m, v, 1, hyper.learning_rate)
    stepped = params.with_flat(flat)
    worst = 0.0
    for k, theta in start_tensors.items():
        g = grads[k]
        expected = theta - hyper.learning_rate * g / (np.abs(g) + 1e-8)
        worst = max(worst, float(np.abs(stepped.tensors()[k] - expected).max()))

    # two-step scalar recurrence, re-run independently
    flat, m, v = tr.adam_step(flat, grad.flat, m, v, 2, hyper.learning_rate)
    stepped = params.with_flat(flat)
    b1, b2, lr, eps = (
        0.9, 0.999, hyper.learning_rate, 1e-8,
    )
    for k, theta0 in start_tensors.items():
        g = grads[k]
        m = v = 0.0
        theta = theta0.copy()
        for t in (1, 2):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            theta = theta - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        worst = max(worst, float(np.abs(stepped.tensors()[k] - theta).max()))
    elapsed = time.monotonic() - start
    report(
        "criterion 9 (Adam unit contract)",
        worst < 1e-12 and elapsed < 1,
        f"max deviation {worst:.2e} from closed forms in {elapsed:.2f}s",
    )
