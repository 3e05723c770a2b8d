"""Comparison baselines: dummy-variable logistic regression and a
particle-swarm-optimized extreme learning machine.

scipy is imported at the first ELM ridge solve (`elm_solve_output`), not
with this module: it is about two thirds of a fresh `import cardioseq.cli`
(0.41 s with it against 0.14 s without, on a 2-core host with one BLAS
thread), which every command but a PSO-ELM fit would otherwise pay for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import data as dp
from . import network as nn
from . import training as tr
from .errors import NonFiniteInputError

# Standard constriction-coefficient PSO settings.
PSO_INERTIA = 0.729
PSO_COGNITIVE = 1.49445
PSO_SOCIAL = 1.49445

ELM_RIDGE = 1e-6


# Most float64 elements each (particles, rows, H) hidden-layer array of one
# block of PSO particles may hold: 2 MB, which takes the whole default swarm
# at paper scale (303 rows) and one particle at a time at 10,000 rows.
SWARM_BLOCK_ELEMENTS = 2**18


def _sigmoid(z):
    """Logistic function of the float64 array `z`, computed in place: `z` is
    overwritten with the result and returned, so callers pass an array they
    own. It is exp(min(z, 0)) / (1 + exp(-|z|)), which is 1 / (1 + exp(-z))
    for z >= 0 and exp(z) / (1 + exp(z)) otherwise, operation for operation,
    so no exp overflows and no mask splits the array."""
    e = np.abs(z)
    np.negative(e, out=e)
    np.exp(e, out=e)
    e += 1.0
    np.minimum(z, 0.0, out=z)
    np.exp(z, out=z)
    z /= e
    return z


# ---------------------------------------------------------------------------
# Dummy-variable logistic regression
# ---------------------------------------------------------------------------

@dataclass
class DummyEncoder:
    """Reference-category dummy coding for categorical columns, Z-score for
    numeric ones (with the training set's scaler). Unseen test categories map
    to all-zero indicators."""

    categories: dict  # column index -> sorted observed category values
    scaler: dp.ScalerStats
    categorical_mask: tuple

    @property
    def width(self):
        return sum(len(self.categories[j]) - 1 if is_cat else 1
                   for j, is_cat in enumerate(self.categorical_mask))

    def transform(self, raw):
        raw = np.atleast_2d(np.asarray(raw, dtype=float))
        scaled = dp.scale_values(raw, self.scaler)
        cols = []
        for j, is_cat in enumerate(self.categorical_mask):
            if is_cat:
                # first observed category is the reference; a single-category
                # column contributes nothing (it carries no information)
                for c in self.categories[j][1:]:
                    cols.append((raw[:, j] == c).astype(float))
            else:
                cols.append(scaled[:, j])
        return np.column_stack(cols)


def fit_dummy_encoder(dataset, scaler):
    """The encoder of an imputed dataset: its observed categories, and the
    scaler fit on it."""
    raw = dataset.feature_array()
    categories = {j: sorted(set(raw[:, j].tolist())) if is_cat else []
                  for j, is_cat in enumerate(dataset.categorical_mask)}
    return DummyEncoder(categories, scaler, dataset.categorical_mask)


def dummy_encode(dataset, encoder=None):
    """Imputed dataset -> (design matrix, encoder). Fits the encoder (and its
    scaler) when not given."""
    if encoder is None:
        encoder = fit_dummy_encoder(dataset, dp.fit_scaler(dataset))
    return encoder.transform(dataset.feature_array()), encoder


@dataclass
class DvLogisticModel(tr.Classifier):
    encoder: DummyEncoder
    weights: np.ndarray
    bias: float
    fill_values: np.ndarray

    def predict_proba(self, X):
        """[1 - p, p] per raw (n, 13) row (NaN = missing), p the logistic output."""
        design = self.encoder.transform(dp.impute_array(X, self.fill_values))
        p = _sigmoid(design @ self.weights + self.bias)
        return np.column_stack([1.0 - p, p])

    def scores(self, dataset):
        """p per row of a dataset; kept for the scaled_fit check in benchmarks/workloads.py."""
        return self.predict_proba(dataset.X)[:, 1]


def dv_logistic_train(dataset, lr=0.1, epochs=2000, seed=0):
    """Full-batch gradient descent on mean binary cross-entropy over the
    dummy-encoded design matrix (`dv_logistic_train_folds` of one dataset).
    Weights start at zero, so the fit is deterministic and ignores the seed,
    which the scaled_fit workload in benchmarks/workloads.py passes."""
    return dv_logistic_train_folds([dataset], lr, epochs)[0]


def dv_logistic_train_folds(datasets, lr=0.1, epochs=2000):
    """Fit one Dv-Logistic model per dataset, all in lockstep, each with the
    same bits as fitting it alone.

    Each dataset gets its own preprocessing fit (`data.fit_preprocessing`)
    and encoder. The design matrices are stacked in groups of equal shape
    (n, D), and each group runs one epoch loop: per epoch one stacked X @ w,
    one sigmoid, one stacked Xᵀ @ err and one row-wise error sum. A matrix is
    never padded to another shape, since a slice of a stacked product has the
    bits of the unstacked product only when its shape is unchanged. Errors
    name the model as `fold f` when there are several.
    """
    if epochs < 0:
        raise ValueError(f"epochs must be at least 0, got {epochs}")
    if not (math.isfinite(lr) and lr > 0):
        raise ValueError(f"lr must be finite and positive, got {lr}")
    groups = {}  # (n, D) -> [(model index, design matrix, fills, encoder)]
    for f, (fills, imputed, scaler) in enumerate(dp.fit_preprocessing(datasets)):
        X, encoder = dummy_encode(imputed, fit_dummy_encoder(imputed, scaler))
        groups.setdefault(X.shape, []).append((f, X, fills, encoder))

    models = [None] * len(datasets)
    for (n, D), members in groups.items():
        G = len(members)
        X = np.stack([m[1] for m in members])  # (G, n, D)
        Xt = np.swapaxes(X, 1, 2)
        y = np.stack([datasets[m[0]].labels for m in members])
        w, b = np.zeros((G, D, 1)), np.zeros(G)
        g = np.empty_like(w)
        z = np.empty((G, n, 1))  # pre-activations, then (in place) the errors
        err = z[..., 0]
        for _ in range(epochs):
            np.matmul(X, w, out=z)
            z += b[:, None, None]
            np.subtract(_sigmoid(z)[..., 0], y, out=err)
            np.matmul(Xt, z, out=g)
            g *= lr
            g /= n
            w -= g
            b -= lr * (np.add.reduce(err, -1) / n)
        for i, (f, _, fills, encoder) in enumerate(members):
            models[f] = DvLogisticModel(encoder=encoder, weights=w[i, :, 0].copy(),
                                        bias=float(b[i]), fill_values=fills)
    return models


# ---------------------------------------------------------------------------
# PSO-optimized extreme learning machine
# ---------------------------------------------------------------------------

@dataclass
class ElmModel(tr.Classifier):
    hidden_weights: np.ndarray  # (13, H), fixed after optimization
    hidden_biases: np.ndarray  # (H,)
    output_weights: np.ndarray  # (H, 2), closed-form least squares
    fill_values: np.ndarray
    scaler: dp.ScalerStats
    gbest_history: list = field(default_factory=list)
    max_solve_residual: float = 0.0

    def _scores(self, X):
        x = dp.scale_values(dp.impute_array(X, self.fill_values), self.scaler)
        return _sigmoid(x @ self.hidden_weights + self.hidden_biases) @ self.output_weights

    def predict_proba(self, X):
        """Softmax of the least-squares output scores per raw (n, 13) row
        (NaN = missing). These are ordered like the scores but not calibrated:
        the output layer is fit to one-hot targets, not to likelihoods."""
        return nn.softmax(self._scores(X))

    def outputs(self, dataset):
        """Output scores per row of a dataset; kept for the scaled_fit check in
        benchmarks/workloads.py."""
        return self._scores(dataset.X)


def normal_equations(hidden_activations, targets, ridge=ELM_RIDGE):
    """The ridge normal equations (HᵀH + λI, HᵀY) of one (n, H) activation
    matrix and its targets, or of each of a stack (..., n, H) of them."""
    H = np.asarray(hidden_activations, dtype=float)
    Y = np.asarray(targets, dtype=float)
    if not (np.all(np.isfinite(H)) and np.all(np.isfinite(Y))):
        raise NonFiniteInputError("hidden activations and targets must be finite")
    Ht = np.swapaxes(H, -1, -2)
    return Ht @ H + ridge * np.eye(H.shape[-1]), Ht @ Y


def elm_solve_output(A, B):
    """Ridge least squares: solve the normal equations A W = B (from
    `normal_equations`) with an SPD solver, for one system or a stack."""
    # Imported here so that importing the package does not load scipy.
    from scipy.linalg import solve

    return solve(A, B, assume_a="pos")


def solve_residual(A, B, output_weights):
    """Max-norm residual of the normal equations A W = B for a given solution
    (over the whole stack for stacked systems)."""
    return float(np.abs(A @ output_weights - B).max())


def _one_hot(y, n_classes=2):
    out = np.zeros((y.shape[0], n_classes))
    out[np.arange(y.shape[0]), y] = 1.0
    return out


def _stratified_holdout(y, frac, rng):
    fit_idx, val_idx = [], []
    for cls in np.unique(y):
        idx = np.flatnonzero(y == cls)
        idx = idx[rng.permutation(idx.size)]
        n_val = max(1, int(round(idx.size * frac)))
        val_idx.extend(idx[:n_val].tolist())
        fit_idx.extend(idx[n_val:].tolist())
    return (np.array(sorted(fit_idx), dtype=np.int64),
            np.array(sorted(val_idx), dtype=np.int64))


def pso_elm_train(dataset, hidden_size=32, swarm_size=20, iterations=50, seed=0):
    """Optimize an ELM's hidden weights/biases with a particle swarm
    (`pso_elm_train_folds` of one dataset); kept for the scaled_fit workload
    in benchmarks/workloads.py, which fits one dataset."""
    return pso_elm_train_folds([dataset], [seed], hidden_size, swarm_size, iterations)[0]


def pso_elm_train_folds(datasets, seeds, hidden_size=32, swarm_size=20, iterations=50):
    """Fit one PSO-ELM per dataset, model f with seed seeds[f].

    Every dataset's preprocessing is fit first (`data.fit_preprocessing`,
    whose errors name the model as `fold f` when there are several), then
    each swarm runs on its own with its own generator, as in a run of its own.
    """
    for name, value, least in (("hidden_size", hidden_size, 1),
                               ("swarm_size", swarm_size, 1),
                               ("iterations", iterations, 0),
                               *(("seed", seed, 0) for seed in seeds)):
        if value < least:
            raise ValueError(f"{name} must be at least {least}, got {value}")
    preprocessing = dp.fit_preprocessing(datasets)
    models = []
    for dataset, seed, (fills, imputed, scaler) in zip(datasets, seeds, preprocessing):
        X = dp.scale_values(imputed.feature_array(), scaler)
        fitted = _swarm_fit(X, dataset.labels, np.random.default_rng(seed),
                            hidden_size, swarm_size, iterations)
        models.append(ElmModel(fill_values=fills, scaler=scaler, **fitted))
    return models


def _swarm_fit(X, y, rng, hidden_size, swarm_size, iterations):
    """The swarm-fit fields of an `ElmModel` of scaled rows X and labels y.

    Fitness is validation accuracy on an internal seeded 80/20 split after
    the closed-form output solve on the fit part; the winning hidden
    parameters are refit on all rows before returning. Each swarm evaluation
    scores the particles in blocks of at most `SWARM_BLOCK_ELEMENTS` per
    hidden-layer array, one stacked solve per block, with the same results as
    scoring them one by one.
    """
    fit_idx, val_idx = _stratified_holdout(y, 0.2, rng)
    X_fit, y_fit = X[fit_idx], y[fit_idx]
    X_val, y_val = X[val_idx], y[val_idx]
    Y_fit = _one_hot(y_fit)

    n_weights = dp.N_FEATURES * hidden_size
    dim = n_weights + hidden_size
    residuals = []
    # a particle's fit and validation arrays hold X.shape[0] rows together
    block = min(swarm_size, max(1, SWARM_BLOCK_ELEMENTS // (X.shape[0] * hidden_size)))
    # pre-activation workspaces, overwritten by each block's sigmoid
    z_fit = np.empty((block, X_fit.shape[0], hidden_size))
    z_val = np.empty((block, X_val.shape[0], hidden_size))

    def unpack(position):
        """(..., dim) positions -> (..., 13, H) hidden weights, (..., H) biases."""
        shape = position.shape[:-1] + (dp.N_FEATURES, hidden_size)
        return position[..., :n_weights].reshape(shape), position[..., n_weights:]

    def hidden(X_part, W, b, z):
        np.matmul(X_part, W, out=z)
        z += b[:, None, :]
        return _sigmoid(z)

    def swarm_fitness(positions):
        fit = np.empty(swarm_size)
        for start in range(0, swarm_size, block):
            W, b = unpack(positions[start : start + block])
            s = W.shape[0]
            A, B = normal_equations(hidden(X_fit, W, b, z_fit[:s]), Y_fit)
            out_w = elm_solve_output(A, B)
            residuals.append(solve_residual(A, B, out_w))
            pred = tr.predicted_class(hidden(X_val, W, b, z_val[:s]) @ out_w)
            fit[start : start + s] = np.mean(pred == y_val, axis=1)
        return fit

    bound = 1.0
    v_max = 0.5 * bound
    positions = rng.uniform(-bound, bound, size=(swarm_size, dim))
    velocities = np.zeros((swarm_size, dim))
    pbest = positions.copy()
    pbest_fit = swarm_fitness(positions)
    g = int(pbest_fit.argmax())
    gbest = pbest[g].copy()
    gbest_fit = float(pbest_fit[g])
    history = [gbest_fit]

    for _ in range(iterations):
        r1 = rng.random((swarm_size, dim))
        r2 = rng.random((swarm_size, dim))
        velocities = (
            PSO_INERTIA * velocities
            + PSO_COGNITIVE * r1 * (pbest - positions)
            + PSO_SOCIAL * r2 * (gbest - positions)
        )
        np.clip(velocities, -v_max, v_max, out=velocities)
        positions = positions + velocities
        # the same bests as updating in canonical particle order: gbest moves
        # to the first particle with the best fitness, if that beats it
        f = swarm_fitness(positions)
        better = f > pbest_fit
        pbest_fit[better] = f[better]
        pbest[better] = positions[better]
        g = int(f.argmax())
        if f[g] > gbest_fit:
            gbest_fit = float(f[g])
            gbest = positions[g].copy()
        history.append(gbest_fit)

    W, b = unpack(gbest)
    A, B = normal_equations(_sigmoid(X @ W + b), _one_hot(y))
    out_w = elm_solve_output(A, B)
    residuals.append(solve_residual(A, B, out_w))
    return dict(hidden_weights=W, hidden_biases=b, output_weights=out_w,
                gbest_history=history, max_solve_residual=max(residuals))
