"""Seeded CNN and baseline training is pinned bit for bit.

The CNN digests below were recorded from the original per-width
implementation (padded windows rebuilt in forward and backward, per-window
pooling loops, per-tensor Adam); the baseline digests from the original
one-particle-at-a-time PSO-ELM swarm and boolean-mask sigmoid. Any rewrite
must reproduce every trained tensor, the per-epoch curve, the PSO
convergence record and `predict_proba` exactly. Each digest is the first 16
hex digits of the sha256 of the array's float64 bytes. The CNN,
Dv-Logistic and PSO-ELM cross-validation digests (of `report_to_csv` text)
were recorded from the fold-by-fold CV, where each fold's model trained on
its own, with its own preprocessing fit. The digests of the same runs'
out-of-fold probabilities (`CvReport.probs`) were recorded by refitting each
fold (`kfold_split`, `FIT`, `_fold_seed`) and scoring its held-out rows in
one batch, as the per-fold CV scored them.

The bits hold per OpenBLAS kernel family, so each table was recorded on
SkylakeX (AVX-512) kernels, and its `_AVX2` table holds the entries that
differ on Haswell kernels (`OPENBLAS_CORETYPE=Haswell`; `Zen` gives the
same). `conftest.digest_table` picks the run's table, and fails on a kernel
set with none. Regenerate (only for an intended change of results, or to
record a family) with `PYTHONPATH=src python tests/test_bit_identity.py`,
once per family: on AVX-512 kernels it prints each whole table, on any other
kernels only the entries that differ from the stored AVX-512 ones.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from cardioseq import baselines as bl
from cardioseq import data as dp
from cardioseq import evaluation as ev
from cardioseq import network as nn
from cardioseq import synthetic
from cardioseq import training as tr

from conftest import KERNEL_FAMILIES, digest_table, openblas_kernels, same_bits
from test_model_io import EXPECTED_MODEL_FILES, EXPECTED_MODEL_FILES_AVX2

# name -> (rows, data seed, hyperparameters); 64 rows fill batches of 16,
# 50 leave a last batch of 2; the 1,800 rows of "curve-blocks" are scored for
# the curve in several row blocks and a partial last one (see
# test_curve_case_covers_several_and_partial_blocks)
CASES = {
    "global": (64, 21, dict(epochs=3, kernels_per_width=4, seed=5)),
    "windowed-3-2": (64, 22, dict(epochs=3, kernels_per_width=4,
                                  pool_mode=("windowed", 3, 2), seed=6)),
    "windowed-5-1": (64, 23, dict(epochs=3, kernels_per_width=4,
                                  pool_mode=("windowed", 5, 1), seed=7)),
    "partial-last-batch": (50, 24, dict(epochs=3, batch_size=16, seed=8)),
    "batch-size-1": (24, 25, dict(epochs=2, batch_size=1, kernels_per_width=3, seed=9)),
    "curve-blocks": (1800, 26, dict(epochs=1, kernels_per_width=8, seed=10)),
    "windowed-1-1": (64, 27, dict(epochs=3, kernels_per_width=4,
                                  pool_mode=("windowed", 1, 1), seed=11)),
}


def digest(array):
    return hashlib.sha256(np.ascontiguousarray(array, dtype=np.float64).tobytes()).hexdigest()[:16]


def run_digests(name):
    rows, data_seed, hyper = CASES[name]
    dataset = synthetic.separable_dataset(rows, seed=data_seed)
    model = tr.train(dataset, tr.Hyperparams(**hyper))
    out = {k: digest(v) for k, v in model.params.tensors().items()}
    out["curve"] = digest([model.curve.train_loss, model.curve.train_accuracy])
    out["predict_proba"] = digest(model.predict_proba(dataset.X))
    return out


EXPECTED = {
    "batch-size-1": {
        "conv_w1": "8c21f653f7b65e2c", "conv_b1": "1d260f95c0f12641",
        "conv_w3": "db10ee4b24c0baf3", "conv_b3": "8877424b8381fc54",
        "conv_w5": "dc9a822a678147c9", "conv_b5": "ab1a045266fd0b4f",
        "dense_w": "209b79c147458e84", "dense_b": "b1d1b30b8e6257cc",
        "curve": "eb792072adec75d5", "predict_proba": "7e4e0a98b317b1c0",
    },
    "curve-blocks": {
        "conv_w1": "bb6dbbf6b3fc71a7", "conv_b1": "c6fbff062f611acf",
        "conv_w3": "cdb2fb90e2117485", "conv_b3": "2d915885e8b1e097",
        "conv_w5": "1497e25f8a1bca08", "conv_b5": "89c47793ced65a5b",
        "dense_w": "f3dad534893182b5", "dense_b": "b855abb3198be301",
        "curve": "2aa2e31e59ca545e", "predict_proba": "7d32d55422906ad3",
    },
    "global": {
        "conv_w1": "24841d864ba0fe0a", "conv_b1": "13227b8ec50a26ac",
        "conv_w3": "43dde7a255fb5e9a", "conv_b3": "46e2c4d0c4f20e4e",
        "conv_w5": "7104bebc2019c637", "conv_b5": "83a3bd1a02fcf753",
        "dense_w": "475c612812e1dfb9", "dense_b": "e6853bb8bce9a9ad",
        "curve": "2b8a01b262a2c562", "predict_proba": "f60bd86037df3ea5",
    },
    "partial-last-batch": {
        "conv_w1": "bafea94c7c1ffb70", "conv_b1": "9ee93b7f7956a04f",
        "conv_w3": "45e22026c706c38d", "conv_b3": "3bf569472d641046",
        "conv_w5": "ff0adf552cc8c621", "conv_b5": "8afd951eed822b72",
        "dense_w": "0d40e677842a8025", "dense_b": "1ae30554170a0423",
        "curve": "65792238b3dffdf7", "predict_proba": "c06d7b291e74cfb2",
    },
    "windowed-1-1": {
        "conv_w1": "07276f3ebc5928e3", "conv_b1": "ff377caefe9e487c",
        "conv_w3": "b3ccb1fe35d3dda3", "conv_b3": "c643420de1c5e64b",
        "conv_w5": "f18f03ec99ef4778", "conv_b5": "d250010fdc428dfb",
        "dense_w": "7f6eae1453947872", "dense_b": "4d23696447d76aa4",
        "curve": "9b239804d20dd404", "predict_proba": "06097c98d570b225",
    },
    "windowed-3-2": {
        "conv_w1": "2c1ce69e9617f6e9", "conv_b1": "224bcf17231b1f21",
        "conv_w3": "abeb52bff330b026", "conv_b3": "d8fcc7c7a44e3e20",
        "conv_w5": "4c3604dda833a577", "conv_b5": "301c1f4f3449d4ae",
        "dense_w": "f1da284b3001ca7d", "dense_b": "406b01a95b4cfa1b",
        "curve": "c46e6ca25a38891f", "predict_proba": "44a96bb7a39d09c7",
    },
    "windowed-5-1": {
        "conv_w1": "7546896329259aaf", "conv_b1": "1dec7694af73aab2",
        "conv_w3": "9d2454a3d5d87112", "conv_b3": "81687663fbdfdac8",
        "conv_w5": "be60f21b9d7c7d1c", "conv_b5": "13e24b4173978707",
        "dense_w": "2f9d745c5ef38258", "dense_b": "841653847719a14e",
        "curve": "e880306fb1b979f0", "predict_proba": "f773608d06f21747",
    },
}

# the entries of EXPECTED that differ on AVX2 kernels (Haswell, Zen)
EXPECTED_AVX2 = {
    "batch-size-1": {
        "conv_w1": "8c21f653f7b65e2c", "conv_b1": "7abb121461866372",
        "conv_w3": "db10ee4b24c0baf3", "conv_b3": "48dc9011db32c8ea",
        "conv_w5": "5df1c5a90841e101", "conv_b5": "10b39a90157414ce",
        "dense_w": "209b79c147458e84", "dense_b": "b1d1b30b8e6257cc",
        "curve": "eb792072adec75d5", "predict_proba": "debcc96fb25fed5d",
    },
    "windowed-1-1": {
        "conv_w1": "07276f3ebc5928e3", "conv_b1": "ee8eb56631493868",
        "conv_w3": "b3ccb1fe35d3dda3", "conv_b3": "dc0179c0c6a63ed4",
        "conv_w5": "762643da478557f7", "conv_b5": "d8d551e9172e9d56",
        "dense_w": "9774f45d9e15ab77", "dense_b": "4d23696447d76aa4",
        "curve": "74753f546402f417", "predict_proba": "28c79620b0987818",
    },
    "windowed-3-2": {
        "conv_w1": "2c1ce69e9617f6e9", "conv_b1": "f0c26200a4d879c3",
        "conv_w3": "abeb52bff330b026", "conv_b3": "70822bf6d288f54c",
        "conv_w5": "4c3604dda833a577", "conv_b5": "4c5ce46389191614",
        "dense_w": "c9a4a927035aa72c", "dense_b": "086fde94ed6ef1cc",
        "curve": "c46e6ca25a38891f", "predict_proba": "d46c3feef97b2237",
    },
    "windowed-5-1": {
        "conv_w1": "7546896329259aaf", "conv_b1": "1f370ab57e1aa609",
        "conv_w3": "76923feb4a29580a", "conv_b3": "2e80a8c961c54586",
        "conv_w5": "776e7e37c32dd165", "conv_b5": "2ec35ec526aff933",
        "dense_w": "c5f26cc6b676910b", "dense_b": "841653847719a14e",
        "curve": "f5083fe61a388f6c", "predict_proba": "7b172863e521f872",
    },
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_trained_tensors_and_probabilities_pinned(name):
    assert run_digests(name) == digest_table(EXPECTED, EXPECTED_AVX2)[name]


def test_curve_case_covers_several_and_partial_blocks(monkeypatch):
    """"curve-blocks" scores its training set for the curve in at least three
    row blocks, the last one partial, while each training step's batch is one
    block."""
    calls = []
    blocks = nn._map_blocks

    def recording(X, params):
        sizes = []
        calls.append((X.shape[-2], sizes))
        for lo, maps in blocks(X, params):
            sizes.append(maps.shape[-1])
            yield lo, maps

    monkeypatch.setattr(nn, "_map_blocks", recording)
    rows, data_seed, hyper = CASES["curve-blocks"]
    tr.train(synthetic.separable_dataset(rows, seed=data_seed), tr.Hyperparams(**hyper))
    (curve,) = [sizes for n, sizes in calls if n == rows]
    assert sum(curve) == rows and len(curve) >= 3
    assert curve[-1] < curve[0] == max(curve)
    assert all(sizes == [n] for n, sizes in calls if n != rows)


def test_curve_and_probabilities_do_not_depend_on_block_size(monkeypatch):
    train = noisy_dataset(90, 28).subset(np.arange(60))
    hyper = tr.Hyperparams(epochs=2, kernels_per_width=3, pool_mode=("windowed", 3, 2), seed=12)
    X = np.random.default_rng(0).normal(size=(90, dp.N_FEATURES))
    results = []
    for rows in (1, 7, len(X)):
        monkeypatch.setattr(nn, "INFER_BLOCK_ELEMENTS", rows * 3 * hyper.kernels_per_width * 13)
        model = tr.train(train, hyper)
        probs, _ = nn.forward_batch(X, model.params, pool_mode=hyper.pool_mode)
        results.append((model.curve, probs))
    for curve, probs in results[1:]:
        assert curve == results[0][0]
        assert same_bits(probs, results[0][1])


def noisy_dataset(rows, seed):
    """Overlapping classes with integer categorical columns and missing `ca`
    values, so the swarm keeps improving and imputation and dummy coding run."""
    rng = np.random.default_rng(seed)
    y = np.arange(rows) % 2
    X = rng.normal(size=(rows, dp.N_FEATURES)) + 0.6 * y[:, None]
    cat = np.array(dp.DEFAULT_CATEGORICAL_MASK)
    X[:, cat] = rng.integers(0, 3, size=(rows, int(cat.sum())))
    X[::9, 11] = np.nan
    return dp.Dataset(X, y)


# name -> (model kind, rows, data seed, keyword arguments); the PSO-ELM rows and
# hidden sizes of "swarm-7" and "one-particle-blocks" split the swarm into
# several blocks (see test_baseline_cases_cover_partial_and_single_blocks)
BASELINE_CASES = {
    "pso-elm-default": ("pso_elm", 150, 31, dict(seed=3)),
    "pso-elm-swarm-7": ("pso_elm", 1000, 32, dict(hidden_size=64, swarm_size=7,
                                                  iterations=4, seed=5)),
    "pso-elm-hidden-2": ("pso_elm", 150, 33, dict(hidden_size=2, iterations=10, seed=5)),
    "pso-elm-hidden-3": ("pso_elm", 150, 34, dict(hidden_size=3, iterations=10, seed=6)),
    "pso-elm-iterations-0": ("pso_elm", 150, 35, dict(iterations=0, seed=7)),
    "pso-elm-one-particle-blocks": ("pso_elm", 3000, 36, dict(hidden_size=64, swarm_size=5,
                                                              iterations=2, seed=8)),
    "dv-logistic-default": ("dv_logistic", 150, 37, dict(seed=9)),
}


def run_baseline_digests(name):
    kind, rows, data_seed, kwargs = BASELINE_CASES[name]
    dataset = noisy_dataset(rows, data_seed)
    if kind == "pso_elm":
        model = bl.pso_elm_train(dataset, **kwargs)
        out = {k: digest(getattr(model, k))
               for k in ("hidden_weights", "hidden_biases", "output_weights", "gbest_history")}
        out["max_solve_residual"] = digest([model.max_solve_residual])
    else:
        model = bl.dv_logistic_train(dataset, **kwargs)
        out = {"weights": digest(model.weights), "bias": digest([model.bias])}
    out["predict_proba"] = digest(model.predict_proba(dataset.X))
    return out


EXPECTED_BASELINES = {
    "dv-logistic-default": {
        "weights": "bf9a152068848421", "bias": "d41067f298ab632a",
        "predict_proba": "cba114a13492c4b4",
    },
    "pso-elm-default": {
        "hidden_weights": "a2197e98343df194", "hidden_biases": "8907ce9d4f196b62",
        "output_weights": "67753690cd434fb6", "gbest_history": "d62ebf11f548c574",
        "max_solve_residual": "cf7d2d46b72094c2", "predict_proba": "78a7873b7940b632",
    },
    "pso-elm-hidden-2": {
        "hidden_weights": "39347699a47b4eab", "hidden_biases": "8c15c13aec8daebb",
        "output_weights": "0414cf9bccb1c4d0", "gbest_history": "d1dd952503150739",
        "max_solve_residual": "ec15db5744ce8f28", "predict_proba": "fd5e450d1abc1559",
    },
    "pso-elm-hidden-3": {
        "hidden_weights": "5b4cd965e78ff411", "hidden_biases": "3d9141779cea3a7d",
        "output_weights": "fa0f5c8af6fc3a99", "gbest_history": "7724ecdce8b19775",
        "max_solve_residual": "ec15db5744ce8f28", "predict_proba": "d337d49b2de51e1b",
    },
    "pso-elm-iterations-0": {
        "hidden_weights": "384352fc3c98498b", "hidden_biases": "6e83865c2d8dee6f",
        "output_weights": "2eeac738176dc495", "gbest_history": "a0ceeea11ee9bac7",
        "max_solve_residual": "98647fe203ba9404", "predict_proba": "f59f4184b91af7b6",
    },
    "pso-elm-one-particle-blocks": {
        "hidden_weights": "4b23d156fe05b5b9", "hidden_biases": "a2b91056d862423c",
        "output_weights": "9df7534eaf1df9b2", "gbest_history": "60c7bc2a7f5976fd",
        "max_solve_residual": "5722f94f50f56263", "predict_proba": "862cc3484464cf3f",
    },
    "pso-elm-swarm-7": {
        "hidden_weights": "f267912e4df5bb7e", "hidden_biases": "b9385555ff9e60a7",
        "output_weights": "fecc91308f6700a2", "gbest_history": "9452d92f4b56a701",
        "max_solve_residual": "444b1c057cf3b973", "predict_proba": "4f2bcec450c8c897",
    },
}

# the entries of EXPECTED_BASELINES that differ on AVX2 kernels (Haswell, Zen)
EXPECTED_BASELINES_AVX2 = {
    "dv-logistic-default": {
        "weights": "961603bbbe780ef4", "bias": "ff88531b3358ee12",
        "predict_proba": "47fd91a592820719",
    },
    "pso-elm-default": {
        "hidden_weights": "a2197e98343df194", "hidden_biases": "8907ce9d4f196b62",
        "output_weights": "e62274c3471ef449", "gbest_history": "d62ebf11f548c574",
        "max_solve_residual": "331620b7cbfd7c7e", "predict_proba": "4e8b746f6309fcf0",
    },
    "pso-elm-hidden-2": {
        "hidden_weights": "39347699a47b4eab", "hidden_biases": "8c15c13aec8daebb",
        "output_weights": "28ab0cba40809901", "gbest_history": "d1dd952503150739",
        "max_solve_residual": "ec15db5744ce8f28", "predict_proba": "e7983e092568ac1a",
    },
    "pso-elm-hidden-3": {
        "hidden_weights": "5b4cd965e78ff411", "hidden_biases": "3d9141779cea3a7d",
        "output_weights": "b4f5b93120ccd01c", "gbest_history": "7724ecdce8b19775",
        "max_solve_residual": "05d07b24ff1d98bc", "predict_proba": "7743d86028926879",
    },
    "pso-elm-iterations-0": {
        "hidden_weights": "384352fc3c98498b", "hidden_biases": "6e83865c2d8dee6f",
        "output_weights": "0af8e46949d030e4", "gbest_history": "a0ceeea11ee9bac7",
        "max_solve_residual": "cc5ff1a157fc8bb6", "predict_proba": "27c23a7d5cf22665",
    },
    "pso-elm-one-particle-blocks": {
        "hidden_weights": "4b23d156fe05b5b9", "hidden_biases": "a2b91056d862423c",
        "output_weights": "1360c83f64cbd29d", "gbest_history": "60c7bc2a7f5976fd",
        "max_solve_residual": "6615068678cca2f2", "predict_proba": "efc86bcf7751388b",
    },
    "pso-elm-swarm-7": {
        "hidden_weights": "f267912e4df5bb7e", "hidden_biases": "b9385555ff9e60a7",
        "output_weights": "1a5813fbd97b8e80", "gbest_history": "9452d92f4b56a701",
        "max_solve_residual": "84d567b7112e1347", "predict_proba": "ceae8a664271f0ba",
    },
}


@pytest.mark.parametrize("name", sorted(BASELINE_CASES))
def test_baseline_results_pinned(name):
    assert run_baseline_digests(name) == digest_table(EXPECTED_BASELINES,
                                                      EXPECTED_BASELINES_AVX2)[name]


# name -> (rows, data seed, k, CNN hyperparameters) of a seeded CNN cross-validation.
# "ragged-303" has 7 training sets of 273 rows and 3 of 272, so each epoch ends
# in a one-row batch for 7 folds only; with 125 rows the training sets differ
# by one row for every k, and "batch-over-n" trains each fold in one batch.
CV_CASES = {
    "ragged-303": (303, 41, 10, dict(epochs=3, kernels_per_width=4)),
    "batch-over-n": (125, 42, 10, dict(epochs=3, batch_size=512, kernels_per_width=4)),
    "windowed-3-2": (125, 43, 5, dict(epochs=3, kernels_per_width=4,
                                      pool_mode=("windowed", 3, 2))),
    "windowed-5-1": (125, 44, 5, dict(epochs=3, kernels_per_width=4,
                                      pool_mode=("windowed", 5, 1))),
    "dropout-0": (125, 45, 10, dict(epochs=3, dropout_rate=0.0, kernels_per_width=4)),
    "epochs-0": (125, 46, 10, dict(epochs=0, kernels_per_width=4)),
    "k-2": (125, 47, 2, dict(epochs=3, kernels_per_width=4)),
    "k-3": (125, 48, 3, dict(epochs=3, kernels_per_width=4)),
    "k-10": (125, 49, 10, dict(epochs=3, kernels_per_width=4)),
}


def cv_report(kind, name):
    """The seeded cross-validation of `kind`'s case `name`."""
    if kind == "cnn":
        rows, data_seed, k, hyper = CV_CASES[name]
    else:
        rows, data_seed, k = {"dv_logistic": DV_CV_CASES, "pso_elm": PSO_CV_CASES}[kind][name]
        hyper = {}
    return ev.cross_validate(noisy_dataset(rows, data_seed), kind,
                             hyper=tr.Hyperparams(**hyper), k=k, seed=data_seed)


def run_cv_digest(name):
    return hashlib.sha256(ev.report_to_csv(cv_report("cnn", name)).encode()).hexdigest()[:16]


EXPECTED_CV = {
    "batch-over-n": "b4c882b3db5efeec", "dropout-0": "8fd543351b94629b",
    "epochs-0": "dcf699790d7258fe", "k-10": "ef9aaf57ac878ec2",
    "k-2": "6d9b3aee9cf3c8d8", "k-3": "b91352da2097d2c0",
    "ragged-303": "ea6ca6608218695a", "windowed-3-2": "c76d7bfdf5e00d8d",
    "windowed-5-1": "a27de7f3c3c4eb82",
}


@pytest.mark.parametrize("name", sorted(CV_CASES))
def test_cnn_cross_validation_reports_pinned(name):
    assert run_cv_digest(name) == digest_table(EXPECTED_CV)[name]


@pytest.mark.parametrize("name", sorted(CV_CASES))
def test_lockstep_fold_models_equal_per_fold_train(name):
    """Each model of the lockstep trainer is the model `train` fits on the
    same fold subset and seed: every tensor and `predict_proba`. Fold models
    record no curve."""
    rows, data_seed, k, hyper = CV_CASES[name]
    dataset = noisy_dataset(rows, data_seed)
    hyper = tr.Hyperparams(**hyper)
    plan = ev.kfold_split(dataset, k=k, seed=data_seed)
    sets = [dataset.subset(np.flatnonzero(plan.assignments != fold)) for fold in range(k)]
    seeds = [ev._fold_seed(data_seed, fold) for fold in range(k)]
    stacked = tr.train_folds(sets, hyper, seeds)
    for subset, seed, model in zip(sets, seeds, stacked):
        alone = tr.train(subset, replace(hyper, seed=seed))
        assert model.hyper == alone.hyper
        for key, tensor in alone.params.tensors().items():
            assert same_bits(model.params.tensors()[key], tensor), key
        assert model.curve == tr.TrainingCurve()
        assert same_bits(model.predict_proba(dataset.X), alone.predict_proba(dataset.X))


# name -> (rows, data seed, k) of a seeded Dv-Logistic cross-validation (default
# lr and epochs). "ragged-303" has 7 training sets of 273 rows and 3 of 272; in
# "width-split" some training sets lack a category, so the folds encode to
# design matrices of different widths (see test_dv_cases_cover_width_groups).
DV_CV_CASES = {
    "ragged-303": (303, 51, 10),
    "k-2": (125, 52, 2),
    "k-3": (125, 53, 3),
    "width-split": (24, 54, 5),
}


def dv_fold_sets(name):
    rows, data_seed, k = DV_CV_CASES[name]
    dataset = noisy_dataset(rows, data_seed)
    plan = ev.kfold_split(dataset, k=k, seed=data_seed)
    return dataset, [dataset.subset(np.flatnonzero(plan.assignments != fold))
                     for fold in range(k)]


def run_dv_cv_digest(name):
    report = cv_report("dv_logistic", name)
    return hashlib.sha256(ev.report_to_csv(report).encode()).hexdigest()[:16]


EXPECTED_DV_CV = {
    "k-2": "67bdebe9d8199067", "k-3": "abe1ea1e3968dd2b",
    "ragged-303": "7206663e6b56cebb", "width-split": "16cd5c45220681c9",
}


@pytest.mark.parametrize("name", sorted(DV_CV_CASES))
def test_dv_logistic_cross_validation_reports_pinned(name):
    assert run_dv_cv_digest(name) == digest_table(EXPECTED_DV_CV)[name]


# name -> (rows, data seed, k) of a seeded PSO-ELM cross-validation (default
# hidden size, swarm and iterations); in "ragged-127" the training sets hold
# 101 or 102 rows, so the folds' swarms run on different row counts.
PSO_CV_CASES = {
    "k-2": (125, 61, 2),
    "k-3": (125, 62, 3),
    "ragged-127": (127, 63, 5),
}


def run_pso_cv_digest(name):
    return hashlib.sha256(ev.report_to_csv(cv_report("pso_elm", name)).encode()).hexdigest()[:16]


EXPECTED_PSO_CV = {
    "k-2": "f416c505c16df23c", "k-3": "af68d4095f9e81a8", "ragged-127": "24c3c29ae95eeb3b",
}


@pytest.mark.parametrize("name", sorted(PSO_CV_CASES))
def test_pso_elm_cross_validation_reports_pinned(name):
    assert run_pso_cv_digest(name) == digest_table(EXPECTED_PSO_CV)[name]


# (model kind, case name) -> digest of the out-of-fold probabilities of every
# CNN, Dv-Logistic and PSO-ELM cross-validation case above: the report digests
# hash only printed accuracies and counts, which a one-ulp change cannot reach.
EXPECTED_CV_PROBS = {
    ("cnn", "batch-over-n"): "c4c755825c533557", ("cnn", "dropout-0"): "f0399deae9359edf",
    ("cnn", "epochs-0"): "c4fcc28472fbc341", ("cnn", "k-10"): "ae8c5bdbdb3dea81",
    ("cnn", "k-2"): "2a85f3259279cba6", ("cnn", "k-3"): "395add442585b3f6",
    ("cnn", "ragged-303"): "e750a61e9641e473", ("cnn", "windowed-3-2"): "b50a1769b3082bb5",
    ("cnn", "windowed-5-1"): "6f799ab71c8b7b78",
    ("dv_logistic", "k-2"): "f79795b8aa0ec691", ("dv_logistic", "k-3"): "bb71deb5aa2f0f99",
    ("dv_logistic", "ragged-303"): "da99d319872facd4",
    ("dv_logistic", "width-split"): "1e7f404543c1f784",
    ("pso_elm", "k-2"): "54e0eb6babb7ee87", ("pso_elm", "k-3"): "c41929b1d4a6ebc7",
    ("pso_elm", "ragged-127"): "25804ac3cfc37b11",
}

# the entries of EXPECTED_CV_PROBS that differ on AVX2 kernels (Haswell, Zen)
EXPECTED_CV_PROBS_AVX2 = {
    ("cnn", "dropout-0"): "e75faaa127bc054c", ("cnn", "ragged-303"): "bf6bfdf373e32d53",
    ("cnn", "windowed-3-2"): "38903f60f4090339", ("cnn", "windowed-5-1"): "8d3007ec23f10d0f",
    ("dv_logistic", "k-2"): "2b9e9538819eff7e", ("dv_logistic", "k-3"): "a6239ef6c03dbb07",
    ("dv_logistic", "ragged-303"): "2df6dd6a2175acc4",
    ("dv_logistic", "width-split"): "5aaa514eb31d4f7d", ("pso_elm", "k-2"): "4cb8f35fa4cd3825",
    ("pso_elm", "k-3"): "ba691298f0e6e0af", ("pso_elm", "ragged-127"): "3f81ae57e4d5101b",
}


def test_every_cross_validation_case_pins_its_probabilities():
    cases = {"cnn": CV_CASES, "dv_logistic": DV_CV_CASES, "pso_elm": PSO_CV_CASES}
    assert sorted(EXPECTED_CV_PROBS) == sorted((kind, name) for kind, names in cases.items()
                                               for name in names)


@pytest.mark.parametrize("kind, name", sorted(EXPECTED_CV_PROBS))
def test_out_of_fold_probabilities_pinned(kind, name):
    table = digest_table(EXPECTED_CV_PROBS, EXPECTED_CV_PROBS_AVX2)
    assert digest(cv_report(kind, name).probs) == table[(kind, name)]


def test_dv_cases_cover_width_groups():
    """"width-split" fits design matrices of one row count and two widths, and
    "ragged-303" of one width and two row counts."""
    def shapes(name):
        return {bl.dummy_encode(dp.impute_with_values(s, dp.fill_values(s)))[0].shape
                for s in dv_fold_sets(name)[1]}

    split = shapes("width-split")
    assert len(split) >= 2 and len({d for _, d in split}) >= 2
    assert len({n for n, _ in shapes("ragged-303")}) == 2


@pytest.mark.parametrize("name", sorted(DV_CV_CASES))
def test_lockstep_dv_fold_models_equal_per_fold_train(name):
    """Each model of the lockstep Dv-Logistic trainer is the model
    `dv_logistic_train` fits on the same fold subset (weights, bias and
    `predict_proba`), and has the weights and bias of the original loop."""
    dataset, sets = dv_fold_sets(name)
    for subset, model in zip(sets, bl.dv_logistic_train_folds(sets)):
        alone = bl.dv_logistic_train(subset)
        assert same_bits(model.weights, alone.weights)
        assert same_bits(model.bias, alone.bias)
        assert same_bits(model.predict_proba(dataset.X), alone.predict_proba(dataset.X))
        weights, bias = one_fit_gradient_descent(subset)
        assert same_bits(model.weights, weights) and same_bits(model.bias, bias)


def one_fit_gradient_descent(dataset, lr=0.1, epochs=2000):
    """The original Dv-Logistic loop: one design matrix, about a dozen numpy
    calls per epoch."""
    X, _ = bl.dummy_encode(dp.impute_with_values(dataset, dp.fill_values(dataset)))
    y, n = dataset.labels, X.shape[0]
    w, b = np.zeros(X.shape[1]), 0.0
    for _ in range(epochs):
        err = mask_split_sigmoid(X @ w + b) - y
        w -= lr * (X.T @ err) / n
        b -= lr * err.mean()
    return w, b


def mask_split_sigmoid(z):
    """The original sigmoid: a boolean mask splits the two stable forms."""
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_matches_mask_split_bit_for_bit():
    rng = np.random.default_rng(0)
    nan_payloads = np.array([0x7FF8000000000123, 0xFFF8000000000456],
                            dtype=np.uint64).view(np.float64)
    edges = np.array([0.0, -0.0, 745.0, -745.0, 746.0, -746.0, 709.8, -709.8, 36.7, -36.7,
                      5e-324, -5e-324, 1e308, -1e308, np.inf, -np.inf, np.nan, -np.nan])
    z = np.concatenate([rng.normal(scale=s, size=50_000) for s in (1, 10, 100, 1000)]
                       + [edges, nan_payloads])
    with np.errstate(over="ignore", invalid="ignore"):
        for layout in (z, z[::-1], z.reshape(-1, 4, 5)):
            assert same_bits(bl._sigmoid(layout.copy()), mask_split_sigmoid(layout))


@pytest.mark.parametrize("hidden", [2, 3, 32])
def test_block_solve_and_scores_match_one_particle(hidden):
    """A stacked block gives each particle the output weights, validation
    scores and residual of scoring it alone (H >= 2; see CHANGES.md for H = 1)."""
    rng = np.random.default_rng(hidden)
    X_fit, X_val = rng.normal(size=(40, 13)), rng.normal(size=(12, 13))
    Y_fit = np.eye(2)[rng.integers(0, 2, 40)]
    W, b = rng.uniform(-1, 1, (5, 13, hidden)), rng.uniform(-1, 1, (5, hidden))
    A, B = bl.normal_equations(bl._sigmoid(X_fit @ W + b[:, None, :]), Y_fit)
    out_w = bl.elm_solve_output(A, B)
    scores = bl._sigmoid(X_val @ W + b[:, None, :]) @ out_w
    residuals = []
    for i in range(5):
        a, b_i = bl.normal_equations(bl._sigmoid(X_fit @ W[i] + b[i]), Y_fit)
        w = bl.elm_solve_output(a, b_i)
        assert same_bits(out_w[i], w)
        assert same_bits(scores[i], bl._sigmoid(X_val @ W[i] + b[i]) @ w)
        residuals.append(bl.solve_residual(a, b_i, w))
    assert bl.solve_residual(A, B, out_w) == max(residuals)


@pytest.mark.parametrize("hidden", [1, 2, 3, 32, 64])
def test_biases_ride_in_the_product_bit_for_bit(hidden):
    """A position is laid out [W (13·H) | b (H)], so a block's (s, 14, H)
    reshape is [W; b], and `_pre_activations` of the rows [X, 1] gives the
    bits of X @ W + b. This covers the gemv shapes (one row, H = 1) too."""
    n_weights = dp.N_FEATURES * hidden
    for s in (1, 7, 20):
        rng = np.random.default_rng([hidden, s])
        positions = rng.uniform(-1, 1, (s, n_weights + hidden))
        W = positions[:, :n_weights].reshape(s, dp.N_FEATURES, hidden)
        b = positions[:, n_weights:]
        P = positions.reshape(s, dp.N_FEATURES + 1, hidden)
        for rows in (0, 1, 61, 242, 3000):
            X = rng.normal(size=(rows, dp.N_FEATURES))
            out = np.empty((s, rows, hidden))
            got = bl._pre_activations(np.column_stack([X, np.ones(rows)]), P, out)
            assert got is out
            assert same_bits(got, X @ W + b[:, None, :]), (s, rows)


# name -> (rows, data seed, keyword arguments) of PSO-ELM fits whose swarm
# products numpy sends to gemv: H = 1, and one fit row (a 3-row set); digests
# recorded before the biases moved into the swarm's product
GEMV_BASELINE_CASES = {
    "pso-elm-hidden-1": (150, 131, dict(hidden_size=1, iterations=10, seed=31)),
    "pso-elm-one-fit-row": (3, 103, dict(iterations=10, seed=3)),
}

EXPECTED_GEMV_BASELINES = {
    "pso-elm-hidden-1": {
        "hidden_weights": "ceb838cfefdf1194", "hidden_biases": "24f873f4bcfdee29",
        "output_weights": "be75008c1f9b4594", "gbest_history": "a0708b87456b7109",
        "max_solve_residual": "ec15db5744ce8f28", "predict_proba": "7e7e13458aefd687",
    },
    "pso-elm-one-fit-row": {
        "hidden_weights": "bbe95673e4eac8b2", "hidden_biases": "52643bea3572954b",
        "output_weights": "ad786c0631d16e49", "gbest_history": "a0708b87456b7109",
        "max_solve_residual": "99e98c3ca9a6efa9", "predict_proba": "1b4e4910496ac148",
    },
}

# the entries of EXPECTED_GEMV_BASELINES that differ on AVX2 kernels (Haswell, Zen)
EXPECTED_GEMV_BASELINES_AVX2 = {
    "pso-elm-hidden-1": {
        "hidden_weights": "ceb838cfefdf1194", "hidden_biases": "24f873f4bcfdee29",
        "output_weights": "be75008c1f9b4594", "gbest_history": "a0708b87456b7109",
        "max_solve_residual": "05d07b24ff1d98bc", "predict_proba": "7e7e13458aefd687",
    },
    "pso-elm-one-fit-row": {
        "hidden_weights": "bbe95673e4eac8b2", "hidden_biases": "52643bea3572954b",
        "output_weights": "f0ca8720d0dcf6f2", "gbest_history": "a0708b87456b7109",
        "max_solve_residual": "b855dd267faef09c", "predict_proba": "aa72531326c0e3b2",
    },
}


@pytest.mark.parametrize("name", sorted(GEMV_BASELINE_CASES))
def test_gemv_shaped_swarms_keep_their_bits(name, monkeypatch):
    monkeypatch.setitem(BASELINE_CASES, name, ("pso_elm", *GEMV_BASELINE_CASES[name]))
    assert run_baseline_digests(name) == digest_table(EXPECTED_GEMV_BASELINES,
                                                      EXPECTED_GEMV_BASELINES_AVX2)[name]


# name -> (models in a stack, or None for one model, batch rows, pool mode, seed)
# of one backward pass with one kernel per width (K = 1) and several pool
# windows. There each bank's weight-gradient einsum sums in an order that
# follows its operands' layout, which `network.bank_windows` (width 1 is the
# batch itself) and `network.model_backward` (a C-contiguous copy per bank)
# fix. A trained tensor barely shows it: a one-ulp gradient difference is
# mostly lost when Adam's small update is subtracted, so these pin the
# gradients themselves.
K1_GRADIENT_CASES = {
    "one-model-3-2": (None, 16, ("windowed", 3, 2), 1),
    "one-model-2-2": (None, 273, ("windowed", 2, 2), 2),
    "stack-1-5-1": (1, 64, ("windowed", 5, 1), 3),
    "stack-10-5-1": (10, 16, ("windowed", 5, 1), 4),
    "stack-3-1-1": (3, 64, ("windowed", 1, 1), 5),
}


def gradient_digest(kernels, models, rows, pool_mode, seed):
    """Digest of the flat gradient of one backward pass of `kernels` kernels
    per width, for one model (`models` None) or a stack of them."""
    rng = np.random.default_rng(seed)
    lead = () if models is None else (models,)
    X = rng.normal(size=lead + (rows, dp.N_FEATURES))
    y = rng.integers(0, 2, size=lead + (rows,))
    stack = [nn.init_params(kernels, rng, pool_mode) for _ in range(models or 1)]
    params = stack[0] if models is None else nn.ModelParams.stack(stack)
    _, cache = nn.forward_batch(X, params, pool_mode=pool_mode)
    return digest(nn.model_backward(cache, y).flat)


def run_k1_gradient_digest(name):
    return gradient_digest(1, *K1_GRADIENT_CASES[name])


EXPECTED_K1_GRADIENTS = {
    "one-model-2-2": "346e5ae084609c0b", "one-model-3-2": "8512deadb1ba0f81",
    "stack-1-5-1": "ef1e6694fa5d84ed", "stack-10-5-1": "8de3f44e771cdc2d",
    "stack-3-1-1": "76e8debc83c5e9a6",
}

# the entries of EXPECTED_K1_GRADIENTS that differ on AVX2 kernels (Haswell, Zen)
EXPECTED_K1_GRADIENTS_AVX2 = {
    "one-model-2-2": "ee863c5daf2b080b", "stack-3-1-1": "f3ddf5b286a60161",
}


@pytest.mark.parametrize("name", sorted(K1_GRADIENT_CASES))
def test_one_kernel_several_window_gradients_pinned(name):
    assert run_k1_gradient_digest(name) == digest_table(EXPECTED_K1_GRADIENTS,
                                                         EXPECTED_K1_GRADIENTS_AVX2)[name]


# name -> (kernels per width, models in a stack or None, batch rows, pool mode,
# seed) of one backward pass with several kernels per width. The trained-CNN
# digests above miss a one-ulp gradient change, so these pin the gradients of
# K >= 2 directly, for each pool mode, one model and a stack.
GRADIENT_CASES = {
    "k2-one-model-global": (2, None, 50, nn.GLOBAL_POOL, 11),
    "k2-stack-3-global": (2, 3, 16, nn.GLOBAL_POOL, 12),
    "k2-one-model-3-2": (2, None, 50, ("windowed", 3, 2), 13),
    "k2-stack-3-3-2": (2, 3, 16, ("windowed", 3, 2), 14),
    "k2-one-model-5-1": (2, None, 50, ("windowed", 5, 1), 15),
    "k2-stack-3-5-1": (2, 3, 16, ("windowed", 5, 1), 16),
    "k8-one-model-global": (8, None, 50, nn.GLOBAL_POOL, 17),
    "k8-stack-3-global": (8, 3, 16, nn.GLOBAL_POOL, 18),
    "k8-one-model-3-2": (8, None, 50, ("windowed", 3, 2), 19),
    "k8-stack-3-3-2": (8, 3, 16, ("windowed", 3, 2), 20),
    "k8-one-model-5-1": (8, None, 50, ("windowed", 5, 1), 21),
    "k8-stack-3-5-1": (8, 3, 16, ("windowed", 5, 1), 22),
}

EXPECTED_GRADIENTS = {
    "k2-one-model-3-2": "6f77922659119ec6", "k2-one-model-5-1": "91311bfc885d8a1f",
    "k2-one-model-global": "f17751b8b02e4f7b", "k2-stack-3-3-2": "7fcec2bd21ada9a9",
    "k2-stack-3-5-1": "92afa05095f16033", "k2-stack-3-global": "1586d9bef7674005",
    "k8-one-model-3-2": "d1cd1eac838c780d", "k8-one-model-5-1": "30dbb1603aec5012",
    "k8-one-model-global": "806ce57cb9b174f7", "k8-stack-3-3-2": "a3568698d4e2dee3",
    "k8-stack-3-5-1": "8e4ecb24b80c1fbc", "k8-stack-3-global": "4ba74aaea70d4fd2",
}

# the entries of EXPECTED_GRADIENTS that differ on AVX2 kernels (Haswell, Zen)
EXPECTED_GRADIENTS_AVX2 = {
    "k2-one-model-3-2": "0067b2a8cf590816", "k2-one-model-5-1": "36fec83c9afee2a7",
    "k2-stack-3-3-2": "eb693da3bcfc6c14", "k2-stack-3-5-1": "46441d1208033e16",
    "k8-one-model-3-2": "2aedbfb3221987b1", "k8-one-model-5-1": "d89c6b974720eff6",
    "k8-stack-3-3-2": "0c570a1970877a73", "k8-stack-3-5-1": "a430861adb645d0c",
}


@pytest.mark.parametrize("name", sorted(GRADIENT_CASES))
def test_several_kernel_gradients_pinned(name):
    table = digest_table(EXPECTED_GRADIENTS, EXPECTED_GRADIENTS_AVX2)
    assert gradient_digest(*GRADIENT_CASES[name]) == table[name]


def test_swarm_results_do_not_depend_on_block_size(monkeypatch):
    dataset = noisy_dataset(60, 38)
    results = []
    for per_block in (1, 3, 7):
        monkeypatch.setattr(bl, "SWARM_BLOCK_ELEMENTS", per_block * 60 * 4)
        model = bl.pso_elm_train(dataset, hidden_size=4, swarm_size=7, iterations=5, seed=2)
        results.append([model.hidden_weights, model.hidden_biases, model.output_weights,
                        model.gbest_history, [model.max_solve_residual]])
    for other in results[1:]:
        assert all(same_bits(a, b) for a, b in zip(results[0], other))


def test_baseline_cases_cover_partial_and_single_blocks(monkeypatch):
    """"pso-elm-swarm-7" ends each swarm evaluation in a partial block and
    "pso-elm-one-particle-blocks" scores one particle per block."""
    sizes = []
    solve = bl.elm_solve_output

    def recording(A, B):
        if A.ndim == 3:
            sizes.append(A.shape[0])
        return solve(A, B)

    monkeypatch.setattr(bl, "elm_solve_output", recording)

    def block_sizes(name):
        sizes.clear()
        _, rows, data_seed, kwargs = BASELINE_CASES[name]
        bl.pso_elm_train(noisy_dataset(rows, data_seed), **kwargs)
        return sorted(set(sizes))

    partial, full = block_sizes("pso-elm-swarm-7")
    assert 1 <= partial < full < 7
    assert block_sizes("pso-elm-one-particle-blocks") == [1]


# each stored digest table and its entries that differ on AVX2 kernels
FAMILY_TABLES = {
    "EXPECTED": (EXPECTED, EXPECTED_AVX2),
    "EXPECTED_BASELINES": (EXPECTED_BASELINES, EXPECTED_BASELINES_AVX2),
    "EXPECTED_GEMV_BASELINES": (EXPECTED_GEMV_BASELINES, EXPECTED_GEMV_BASELINES_AVX2),
    "EXPECTED_K1_GRADIENTS": (EXPECTED_K1_GRADIENTS, EXPECTED_K1_GRADIENTS_AVX2),
    "EXPECTED_GRADIENTS": (EXPECTED_GRADIENTS, EXPECTED_GRADIENTS_AVX2),
    "EXPECTED_CV_PROBS": (EXPECTED_CV_PROBS, EXPECTED_CV_PROBS_AVX2),
    "EXPECTED_MODEL_FILES": (EXPECTED_MODEL_FILES, EXPECTED_MODEL_FILES_AVX2),
}


@pytest.mark.parametrize("name", FAMILY_TABLES)
def test_avx2_tables_hold_only_what_differs(name):
    avx512, avx2 = FAMILY_TABLES[name]
    assert all(key in avx512 and avx512[key] != value for key, value in avx2.items())


if __name__ == "__main__":
    import pathlib
    import pprint
    import tempfile

    from conftest import mixed_dataset
    from test_model_io import ROUND_TRIP_FITS, model_file_digest

    whole = KERNEL_FAMILIES.get(openblas_kernels()) == "avx512"

    def show(table, stored):
        """Print a regenerated table: whole on AVX-512 kernels, else the entries
        that differ from its stored AVX-512 table."""
        pprint.pprint({key: value for key, value in table.items()
                       if whole or value != stored.get(key)}, sort_dicts=False)

    show({name: run_digests(name) for name in sorted(CASES)}, EXPECTED)
    show({name: run_baseline_digests(name) for name in sorted(BASELINE_CASES)},
         EXPECTED_BASELINES)
    BASELINE_CASES.update({name: ("pso_elm", *case) for name, case in GEMV_BASELINE_CASES.items()})
    show({name: run_baseline_digests(name) for name in sorted(GEMV_BASELINE_CASES)},
         EXPECTED_GEMV_BASELINES)
    show({name: run_k1_gradient_digest(name) for name in sorted(K1_GRADIENT_CASES)},
         EXPECTED_K1_GRADIENTS)
    show({name: gradient_digest(*case) for name, case in sorted(GRADIENT_CASES.items())},
         EXPECTED_GRADIENTS)
    show({name: run_cv_digest(name) for name in sorted(CV_CASES)}, EXPECTED_CV)
    show({name: run_dv_cv_digest(name) for name in sorted(DV_CV_CASES)}, EXPECTED_DV_CV)
    show({name: run_pso_cv_digest(name) for name in sorted(PSO_CV_CASES)}, EXPECTED_PSO_CV)
    show({case: digest(cv_report(*case).probs) for case in sorted(EXPECTED_CV_PROBS)},
         EXPECTED_CV_PROBS)
    with tempfile.TemporaryDirectory() as tmp:
        show({kind: model_file_digest(kind, mixed_dataset(), pathlib.Path(tmp))
              for kind in ROUND_TRIP_FITS}, EXPECTED_MODEL_FILES)
