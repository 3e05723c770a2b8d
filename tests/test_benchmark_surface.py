"""Every function the benchmark traces exists, so a refactor that drops or
renames one fails here and not only as `absent_layers` in a benchmark run."""

import os
import signal

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks")


def test_every_traced_layer_resolves(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import tracing

    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)  # importing starts no timer
    assert [name for name in tracing.LAYER_NAMES if tracing.resolve(name) is None] == []


def test_training_step_layers_are_called_through_their_modules(monkeypatch):
    """The benchmark's per-layer spans replace these module attributes from
    outside; `train` must keep calling them there, once per mini-batch, or the
    spans go silent. The per-epoch curve runs the value-only forward once."""
    from cardioseq import network, synthetic, training

    counts = {}

    def counting(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(network, "forward_batch")
    counting(network, "infer_probs")
    counting(network, "model_backward")
    counting(training, "adam_step")
    epochs, batches = 2, 3  # 20 rows in batches of 8, 8 and 4
    training.train(synthetic.separable_dataset(20, seed=3),
                   training.Hyperparams(epochs=epochs, batch_size=8, kernels_per_width=2))
    assert counts == {"forward_batch": epochs * batches,
                      "infer_probs": epochs,
                      "model_backward": epochs * batches,
                      "adam_step": epochs * batches}


def test_lockstep_cv_layers_are_called_through_their_modules(monkeypatch):
    """A CNN `cross_validate` trains its folds in lockstep: one backward and
    one Adam step per stacked step group, one forward per group and one more
    per fold to score it, and one value-only forward per fold, after the last
    epoch, to check its final parameters (fold models record no curve)."""
    from cardioseq import evaluation, network, synthetic, training

    counts = {}

    def counting(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(network, "forward_batch")
    counting(network, "infer_probs")
    counting(network, "model_backward")
    counting(training, "adam_step")
    # 22 rows in 3 folds train on 14, 15 and 15 rows; batches of 4 make three
    # steps of all folds, then one of 2 rows for fold 0 and one of 3 for the others
    epochs, k, groups = 2, 3, 3 + 2
    evaluation.cross_validate(synthetic.separable_dataset(22, seed=3), "cnn", k=k,
                              hyper=training.Hyperparams(epochs=epochs, batch_size=4,
                                                         kernels_per_width=2))
    assert counts == {"forward_batch": epochs * groups + k,
                      "infer_probs": k,
                      "model_backward": epochs * groups,
                      "adam_step": epochs * groups}


def test_swarm_solves_are_called_through_their_module(monkeypatch):
    """`pso_elm_train` must call `elm_solve_output` and `solve_residual` on
    `baselines`, once per block of particles per swarm evaluation and once
    for the final refit, or the benchmark's PSO-ELM spans go silent."""
    from cardioseq import baselines, synthetic

    counts = {}

    def counting(name):
        inner = getattr(baselines, name)

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(baselines, name, wrapper)

    counting("elm_solve_output")
    counting("solve_residual")
    rows, hidden, iterations = 30, 4, 2
    # blocks of 3 particles: a swarm of 7 is scored in blocks of 3, 3 and 1
    monkeypatch.setattr(baselines, "SWARM_BLOCK_ELEMENTS", 3 * rows * hidden)
    baselines.pso_elm_train(synthetic.separable_dataset(rows, seed=3), hidden_size=hidden,
                            swarm_size=7, iterations=iterations)
    calls = 3 * (iterations + 1) + 1
    assert counts == {"elm_solve_output": calls, "solve_residual": calls}


@pytest.mark.parametrize("kind", ["cnn", "dv_logistic", "pso_elm"])
def test_preprocessing_is_fit_once_per_fold(monkeypatch, kind):
    """Every kind's `cross_validate` fits its fill values, imputes its
    training set and fits its scaler once per fold, through `data`, where
    the benchmark's spans wrap them; scoring the test folds fits nothing."""
    from cardioseq import data, evaluation, synthetic, training

    counts = {}

    def counting(name):
        inner = getattr(data, name)

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(data, name, wrapper)

    for name in ("fill_values", "impute_with_values", "fit_scaler"):
        counting(name)
    k = 3
    evaluation.cross_validate(synthetic.separable_dataset(24, seed=3), kind, k=k,
                              hyper=training.Hyperparams(epochs=1, kernels_per_width=2))
    assert counts == {"fill_values": k, "impute_with_values": k, "fit_scaler": k}
