import os

import numpy as np
import pytest

from cardioseq import data as dp
from cardioseq import synthetic

# Public UCI files are looked up here; tests that need them skip loudly
# when they are absent (they cannot be downloaded in this environment).
DATA_DIR = os.environ.get(
    "CARDIOSEQ_DATA_DIR", os.path.join(os.path.dirname(__file__), "..", "data")
)
STATLOG_PATH = os.path.join(DATA_DIR, "heart.dat")
CLEVELAND_PATH = os.path.join(DATA_DIR, "processed.cleveland.data")


def require_file(path, name):
    if not os.path.exists(path):
        pytest.skip(
            f"NOTICE: public {name} file not found at {path}; "
            "place it there (or set CARDIOSEQ_DATA_DIR) to run real-data checks"
        )
    return path


def write_statlog_file(path, dataset):
    """Serialize a fully observed dataset in the statlog dialect."""
    with open(path, "w") as fh:
        for rec in dataset.records:
            fields = " ".join(f"{v:.10g}" for v in rec.features)
            fh.write(f"{fields} {rec.label + 1}\n")


@pytest.fixture(scope="session")
def separable():
    return synthetic.separable_dataset(200, seed=1)


@pytest.fixture()
def tiny_dataset():
    feats = [
        (63, 1, 1, 145, 233, 1, 2, 150, 0, 2.3, 3, 0, 6),
        (67, 1, 4, 160, 286, 0, 2, 108, 1, 1.5, 2, 3, 3),
        (41, 0, 2, 130, 204, 0, 2, 172, 0, 1.4, 1, 0, 3),
        (56, 1, 2, 120, 236, 0, 0, 178, 0, 0.8, 1, 0, 3),
    ]
    labels = [0, 1, 0, 1]
    records = tuple(
        dp.SampleRecord(tuple(float(v) for v in f), y) for f, y in zip(feats, labels)
    )
    return dp.Dataset.from_records(records)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def mixed():
    """60 rows with integer categorical columns and some missing `ca` values."""
    rng = np.random.default_rng(7)
    y = np.arange(60) % 2
    X = rng.normal(size=(60, dp.N_FEATURES)) + y[:, None]
    cat = np.array(dp.DEFAULT_CATEGORICAL_MASK)
    X[:, cat] = rng.integers(0, 3, size=(60, int(cat.sum())))
    X[::7, 11] = np.nan
    return dp.Dataset(X, y)


@pytest.fixture(scope="session")
def fitted_models(mixed):
    """One small fitted model of each kind; tests must not modify them."""
    from cardioseq import baselines as bl
    from cardioseq import training as tr

    return {
        "cnn": tr.train(mixed, tr.Hyperparams(epochs=2, kernels_per_width=2, seed=1)),
        "dv_logistic": bl.dv_logistic_train(mixed, epochs=50),
        "pso_elm": bl.pso_elm_train(mixed, iterations=2, seed=1),
    }
