"""Comparison baselines: dummy-variable logistic regression and a
particle-swarm-optimized extreme learning machine.

scipy is imported at the first ELM ridge solve (`elm_solve_output`), not
with this module: `import scipy.linalg` takes 0.15-0.16 s against 0.08-0.09 s
for a fresh `import cardioseq.cli` without it (2-core host, one BLAS
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
    """Reference-category dummy coding for categorical columns; numeric columns
    pass through Z-scored. Unseen test categories map to all-zero indicators."""

    categories: dict  # column index -> sorted observed category values
    categorical_mask: tuple

    @property
    def width(self):
        return sum(len(self.categories[j]) - 1 if is_cat else 1
                   for j, is_cat in enumerate(self.categorical_mask))

    def transform(self, raw, scaled):
        """The design matrix of imputed (n, 13) rows `raw`, whose Z-scored
        copy `scaled` gives the numeric columns."""
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


def dummy_encode(dataset, scaled=None):
    """Imputed dataset -> (design matrix, encoder of its observed categories).
    The numeric columns come from `scaled`, the dataset's rows Z-scored by
    `data.fit_preprocessing`. When not given, that is fit here on the dataset,
    whose imputed rows then give the categories as well."""
    if scaled is None:
        _, dataset, _, scaled = dp.fit_preprocessing([dataset])[0]
    raw = dataset.feature_array()
    categories = {j: sorted(set(raw[:, j].tolist())) if is_cat else []
                  for j, is_cat in enumerate(dataset.categorical_mask)}
    encoder = DummyEncoder(categories, dataset.categorical_mask)
    return encoder.transform(raw, scaled), encoder


@dataclass
class DvLogisticModel(tr.Classifier):
    encoder: DummyEncoder
    weights: np.ndarray
    bias: float

    def _proba(self, raw, scaled):
        """[1 - p, p] per row, p the logistic output."""
        p = _sigmoid(self.encoder.transform(raw, scaled) @ self.weights + self.bias)
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
    tr.check_at_least(("epochs", epochs, 0))
    if not (math.isfinite(lr) and lr > 0):
        raise ValueError(f"lr must be finite and positive, got {lr}")
    groups = {}  # (n, D) -> [(model index, design matrix, fills, scaler, encoder)]
    for f, (fills, imputed, scaler, scaled) in enumerate(dp.fit_preprocessing(datasets)):
        X, encoder = dummy_encode(imputed, scaled)
        groups.setdefault(X.shape, []).append((f, X, fills, scaler, encoder))

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
        for i, (f, _, fills, scaler, encoder) in enumerate(members):
            models[f] = DvLogisticModel(fill_values=fills, scaler=scaler, encoder=encoder,
                                        weights=w[i, :, 0].copy(), bias=float(b[i]))
    return models


# ---------------------------------------------------------------------------
# PSO-optimized extreme learning machine
# ---------------------------------------------------------------------------

@dataclass
class ElmModel(tr.Classifier):
    hidden_weights: np.ndarray  # (13, H), fixed after optimization
    hidden_biases: np.ndarray  # (H,)
    output_weights: np.ndarray  # (H, 2), closed-form least squares
    gbest_history: list = field(default_factory=list)
    max_solve_residual: float = 0.0

    def _scores(self, scaled):
        return _sigmoid(scaled @ self.hidden_weights + self.hidden_biases) @ self.output_weights

    def _proba(self, raw, scaled):
        """Softmax of the least-squares output scores per row. These are ordered
        like the scores but not calibrated: the output layer is fit to one-hot
        targets, not to likelihoods."""
        return nn.softmax(self._scores(scaled))

    def outputs(self, dataset):
        """Output scores per row of a dataset; kept for the scaled_fit check in
        benchmarks/workloads.py."""
        return self._scores(self._preprocess(dataset.X)[1])


def normal_equations(hidden_activations, targets, ridge=ELM_RIDGE):
    """The ridge normal equations (HᵀH + λI, HᵀY) of one (n, H) activation
    matrix and its targets, or of each of a stack (..., n, H) of them.

    Finiteness is checked on the (H, H) and (H, 2) products, not on the
    larger H and Y: a non-finite entry of H makes a diagonal entry of HᵀH
    non-finite, one of Y makes HᵀY non-finite, and a finite H whose squares
    overflow is caught too. Any of these raises `NonFiniteInputError`."""
    H = np.asarray(hidden_activations, dtype=float)
    Y = np.asarray(targets, dtype=float)
    Ht = np.swapaxes(H, -1, -2)
    with np.errstate(over="ignore", invalid="ignore"):
        A, B = Ht @ H + ridge * np.eye(H.shape[-1]), Ht @ Y
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(B))):
        raise NonFiniteInputError("hidden activations and targets must be finite")
    return A, B


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


def _one_hot(y):
    return np.eye(2)[y]


def _stratified_holdout(y, frac, rng):
    """Fit and validation row numbers, each ascending. Each class sends the
    first round(frac · size) rows of its permutation, at least one, to
    validation."""
    val = np.zeros(y.size, dtype=bool)
    for idx in dp.class_permutations(y, rng):
        val[idx[: max(1, int(round(idx.size * frac)))]] = True
    return np.flatnonzero(~val), np.flatnonzero(val)


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
    tr.check_at_least(("hidden_size", hidden_size, 1), ("swarm_size", swarm_size, 1),
                      ("iterations", iterations, 0), *(("seed", seed, 0) for seed in seeds))
    preprocessing = dp.fit_preprocessing(datasets)
    models = []
    for dataset, seed, (fills, _, scaler, X) in zip(datasets, seeds, preprocessing):
        fitted = _swarm_fit(X, dataset.labels, np.random.default_rng(seed),
                            hidden_size, swarm_size, iterations)
        models.append(ElmModel(fill_values=fills, scaler=scaler, **fitted))
    return models


def _pre_activations(X1, P, out):
    """X @ W + b of rows X1 = [X, 1] and a block P = [W; b] of (s, 14, H)
    positions, written to `out`, with the bits of the product-then-add.

    Where numpy calls gemm, the one product [X, 1] @ [W; b] gives them: the
    k-loop's last step adds 1·b to the 13-term sum, which rounds like the
    add. With one row or H = 1 numpy calls gemv, whose sum order the ones
    column changes, so there b is added after the 13-column product."""
    if X1.shape[0] == 1 or P.shape[-1] == 1:
        np.matmul(X1[:, :-1], P[:, :-1], out=out)
        out += P[:, -1:]
        return out
    return np.matmul(X1, P, out=out)


def _swarm_fit(X, y, rng, hidden_size, swarm_size, iterations):
    """The swarm-fit fields of an `ElmModel` of scaled rows X and labels y.

    Fitness is validation accuracy on an internal seeded 80/20 split after
    the closed-form output solve on the fit part; the winning hidden
    parameters are refit on all rows before returning. Each swarm evaluation
    scores the particles in blocks of at most `SWARM_BLOCK_ELEMENTS` per
    hidden-layer array, one stacked solve per block, with the same results as
    scoring them one by one.

    A position is a (14, H) array [W; b], and the fit and validation rows
    carry a trailing ones column: `_pre_activations` then adds the biases
    inside the product. A separate broadcast add of b, with its inner run of
    only H elements, takes numpy's slow buffered path and cost as much as
    the product. The fit and validation workspaces stay separate: one
    combined workspace, with its larger sigmoid scratch, measured slower and
    lost the gain.
    """
    fit_idx, val_idx = _stratified_holdout(y, 0.2, rng)
    X_fit, X_val = (np.column_stack([X[idx], np.ones(idx.size)]) for idx in (fit_idx, val_idx))
    y_val = y[val_idx]
    Y_fit = _one_hot(y[fit_idx])

    shape = (swarm_size, dp.N_FEATURES + 1, hidden_size)  # positions [W; b]
    residuals = []
    # a particle's fit and validation arrays hold X.shape[0] rows together
    block = min(swarm_size, max(1, SWARM_BLOCK_ELEMENTS // (X.shape[0] * hidden_size)))
    # pre-activation workspaces, overwritten by each block's sigmoid
    z_fit = np.empty((block, X_fit.shape[0], hidden_size))
    z_val = np.empty((block, X_val.shape[0], hidden_size))

    def swarm_fitness(positions):
        fit = np.empty(swarm_size)
        for start in range(0, swarm_size, block):
            P = positions[start : start + block]
            s = P.shape[0]
            A, B = normal_equations(_sigmoid(_pre_activations(X_fit, P, z_fit[:s])), Y_fit)
            out_w = elm_solve_output(A, B)
            residuals.append(solve_residual(A, B, out_w))
            pred = tr.predicted_class(_sigmoid(_pre_activations(X_val, P, z_val[:s])) @ out_w)
            fit[start : start + s] = np.mean(pred == y_val, axis=1)
        return fit

    bound = 1.0
    v_max = 0.5 * bound
    positions = rng.uniform(-bound, bound, size=shape)
    velocities = np.zeros(shape)
    pbest, pbest_fit = positions.copy(), np.full(swarm_size, -np.inf)
    gbest, gbest_fit = None, -np.inf
    history = []
    for step in range(iterations + 1):
        if step:  # the first pass scores the initial swarm
            r1, r2 = rng.random((2, *shape))
            velocities = (PSO_INERTIA * velocities + PSO_COGNITIVE * r1 * (pbest - positions)
                          + PSO_SOCIAL * r2 * (gbest - positions))
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

    W, b = gbest[:-1], gbest[-1]
    A, B = normal_equations(_sigmoid(X @ W + b), _one_hot(y))
    out_w = elm_solve_output(A, B)
    residuals.append(solve_residual(A, B, out_w))
    return dict(hidden_weights=W, hidden_biases=b, output_weights=out_w,
                gbest_history=history, max_solve_residual=max(residuals))
