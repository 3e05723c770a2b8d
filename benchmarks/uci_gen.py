"""Seeded generator of UCI-shaped heart-disease files.

Rows follow the 13-attribute schema of the public UCI heart-disease files,
with the real category sets (cp 1-4, restecg 0-2, slope 1-3, ca 0-3,
thal 3/6/7). Each attribute is drawn from a class-conditional distribution
with roughly the published per-class statistics of the Cleveland file, so
labels carry a class signal of about the real strength.

Two dialects are written, matching `cardioseq.data.parse_dataset`:

* statlog: whitespace-separated, no missing values, labels 1/2;
* cleveland: comma-separated, labels 0-4 (0 = absence), and `?` markers in
  `ca` and `thal` at the Cleveland rate (4 and 2 cells of 303 rows).
"""

from __future__ import annotations

import numpy as np

PRESENCE_RATE = 139 / 303

# Missing cells per column in the real 303-row Cleveland file.
CLEVELAND_MISSING = {"ca": 4, "thal": 2}
CLEVELAND_ROWS = 303

COLUMNS = (
    "age", "sex", "cp", "trestbps", "chol", "fbs", "restecg",
    "thalach", "exang", "oldpeak", "slope", "ca", "thal",
)

# Categorical columns: category values and their probabilities given
# absence (class 0) and presence (class 1).
CATEGORICAL = {
    "sex": ((0, 1), (0.44, 0.56), (0.18, 0.82)),
    "cp": ((1, 2, 3, 4), (0.10, 0.29, 0.41, 0.20), (0.05, 0.06, 0.13, 0.76)),
    "fbs": ((0, 1), (0.86, 0.14), (0.84, 0.16)),
    "restecg": ((0, 1, 2), (0.57, 0.01, 0.42), (0.40, 0.03, 0.57)),
    "exang": ((0, 1), (0.86, 0.14), (0.45, 0.55)),
    "slope": ((1, 2, 3), (0.65, 0.30, 0.05), (0.25, 0.65, 0.10)),
    "ca": ((0, 1, 2, 3), (0.79, 0.13, 0.05, 0.03), (0.32, 0.32, 0.22, 0.14)),
    "thal": ((3, 6, 7), (0.79, 0.04, 0.17), (0.26, 0.09, 0.65)),
}

# Integer-valued numeric columns: (mean | absence, mean | presence, sd, lo, hi).
NUMERIC = {
    "age": (52.5, 56.6, 9.0, 29, 77),
    "trestbps": (129.0, 134.0, 17.5, 94, 200),
    "chol": (242.0, 251.0, 51.0, 126, 564),
    "thalach": (158.4, 139.0, 21.0, 71, 202),
}

# oldpeak: exponential with a per-class mean, one decimal, capped at 6.2.
OLDPEAK_MEAN = (0.6, 1.6)
OLDPEAK_MAX = 6.2

# Disease level 1-4 given presence, as in the Cleveland `num` column.
LEVEL_PROBS = (0.40, 0.26, 0.26, 0.08)


def generate(n, seed):
    """Return (features, levels): an (n, 13) float array in column order and
    the Cleveland disease level 0-4 of each row. No cell is missing.
    `seed` is anything `numpy.random.default_rng` accepts."""
    rng = np.random.default_rng(seed)
    presence = rng.random(n) < PRESENCE_RATE
    feats = np.empty((n, len(COLUMNS)))
    for j, name in enumerate(COLUMNS):
        if name in CATEGORICAL:
            values, p0, p1 = CATEGORICAL[name]
            u = rng.random(n)
            cum = np.where(presence[:, None], np.cumsum(p1), np.cumsum(p0))
            idx = np.minimum((u[:, None] > cum).sum(axis=1), len(values) - 1)
            feats[:, j] = np.asarray(values, dtype=float)[idx]
        elif name == "oldpeak":
            scale = np.where(presence, OLDPEAK_MEAN[1], OLDPEAK_MEAN[0])
            feats[:, j] = np.minimum(np.round(rng.exponential(scale), 1), OLDPEAK_MAX)
        else:
            m0, m1, sd, lo, hi = NUMERIC[name]
            mean = np.where(presence, m1, m0)
            feats[:, j] = np.clip(np.round(rng.normal(mean, sd)), lo, hi)
    levels = np.where(presence, rng.choice(4, size=n, p=LEVEL_PROBS) + 1, 0)
    return feats, levels


def missing_cells(n):
    """Number of `?` cells per column for an n-row Cleveland file."""
    return {
        col: int(round(n * count / CLEVELAND_ROWS))
        for col, count in CLEVELAND_MISSING.items()
    }


def _blank_cells(feats, rng):
    """Set the Cleveland share of `ca`/`thal` cells to NaN, one per row."""
    counts = missing_cells(feats.shape[0])
    rows = rng.choice(feats.shape[0], size=sum(counts.values()), replace=False)
    start = 0
    for col, count in counts.items():
        feats[rows[start : start + count], COLUMNS.index(col)] = np.nan
        start += count
    return feats


def _fmt(v):
    return "?" if np.isnan(v) else f"{v:.1f}"


def write_cleveland(path, n, seed):
    """Write an n-row Cleveland-dialect file; returns a summary dict."""
    rng = np.random.default_rng(seed)
    feats, levels = generate(n, rng)
    feats = _blank_cells(feats, rng)
    with open(path, "w", encoding="ascii") as fh:
        for row, level in zip(feats, levels):
            fh.write(",".join(_fmt(v) for v in row) + f",{level}\n")
    return {
        "rows": n,
        "missing_cells": int(np.isnan(feats).sum()),
        "presence": int((levels > 0).sum()),
    }


def write_statlog(path, n, seed):
    """Write an n-row Statlog-dialect file; returns a summary dict."""
    feats, levels = generate(n, seed)
    with open(path, "w", encoding="ascii") as fh:
        for row, level in zip(feats, levels):
            fh.write(" ".join(_fmt(v) for v in row) + f" {1 + int(level > 0)}\n")
    return {"rows": n, "missing_cells": 0, "presence": int((levels > 0).sum())}
