"""Synthetic linearly separable 13-feature data for tests and demos."""

from __future__ import annotations

import numpy as np

from .data import N_FEATURES, Dataset


def separable_dataset(n=200, seed=0, background=0.1, spike=2.0):
    """Two-class data separable by the all-ones direction with a wide margin.

    Class-0 rows are low-amplitude uniform noise; class-1 rows add a large
    spike to one random feature. The feature sum then separates the classes
    (sum <= 13 * background for class 0, >= spike for class 1), and the
    spike also shows up as a per-row magnitude outlier, so both linear
    models and the max-pooled conv network can reach 100% accuracy.
    """
    if spike <= N_FEATURES * background:
        raise ValueError("spike must exceed the worst-case background sum")
    rng = np.random.default_rng(seed)
    X = np.empty((n, N_FEATURES))
    y = np.empty(n, dtype=np.int64)
    for i in range(n):
        X[i] = rng.uniform(0.0, background, N_FEATURES)
        y[i] = rng.integers(2)
        if y[i]:
            X[i, rng.integers(N_FEATURES)] += spike
    return Dataset(X, y, categorical_mask=(False,) * N_FEATURES)
