"""Seeded CNN training is pinned bit for bit.

The digests below were recorded from the original per-width implementation
(padded windows rebuilt in forward and backward, per-window pooling loops,
per-tensor Adam). Any rewrite of the training step must reproduce every
trained tensor, the per-epoch curve and `predict_proba` exactly. Each digest
is the first 16 hex digits of the sha256 of the array's float64 bytes.

Regenerate (only for an intended change of results) with
`PYTHONPATH=src python tests/test_bit_identity.py`.
"""

import hashlib

import numpy as np
import pytest

from cardioseq import synthetic
from cardioseq import training as tr

# name -> (rows, data seed, hyperparameters); 64 rows fill batches of 16,
# 50 leave a last batch of 2
CASES = {
    "global": (64, 21, dict(epochs=3, kernels_per_width=4, seed=5)),
    "windowed-3-2": (64, 22, dict(epochs=3, kernels_per_width=4,
                                  pool_mode=("windowed", 3, 2), seed=6)),
    "windowed-5-1": (64, 23, dict(epochs=3, kernels_per_width=4,
                                  pool_mode=("windowed", 5, 1), seed=7)),
    "partial-last-batch": (50, 24, dict(epochs=3, batch_size=16, seed=8)),
    "batch-size-1": (24, 25, dict(epochs=2, batch_size=1, kernels_per_width=3, seed=9)),
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


@pytest.mark.parametrize("name", sorted(CASES))
def test_trained_tensors_and_probabilities_pinned(name):
    assert run_digests(name) == EXPECTED[name]


if __name__ == "__main__":
    import pprint

    pprint.pprint({name: run_digests(name) for name in sorted(CASES)}, sort_dicts=False)
