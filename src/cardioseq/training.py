"""Cross-entropy loss, Adam updates and the mini-batch training loop.

The training loop runs a stack of models in lockstep (`train_folds`), e.g.
the k fold models of a cross-validation: each mini-batch step is one
forward, one backward and one Adam update for every model that has that
step. A single training run (`train`) is a stack of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import data as dp
from . import network as nn
from .errors import EmptyBatchError, NonFiniteLossError, ShapeMismatchError, SingleClassDataError

PROB_CLAMP = 1e-12


def predicted_class(probs):
    """Class of each (..., 2) probability row: 1 only when p1 > p0, so exact
    ties go to class 0."""
    return (probs[..., 1] > probs[..., 0]).astype(np.int64)


class Classifier:
    """The interface all three models share: `predict_proba(X)` maps raw (n, 13)
    rows (NaN = missing) to (n, 2) class probabilities; predictions follow from it."""

    def predict_batch(self, dataset):
        return predicted_class(self.predict_proba(dataset.X))


@dataclass(frozen=True)
class Hyperparams:
    learning_rate: float = 0.001
    dropout_rate: float = 0.5
    epochs: int = 50
    batch_size: int = 16
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8
    kernels_per_width: int = 8
    pool_mode: tuple = nn.GLOBAL_POOL
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and positive, got {self.learning_rate}")
        if not math.isfinite(self.adam_epsilon):
            raise ValueError(f"adam_epsilon must be finite, got {self.adam_epsilon}")
        if not 0 <= self.dropout_rate < 1:
            raise ValueError("dropout_rate must be in [0, 1)")
        if not (0 < self.adam_beta1 < 1 and 0 < self.adam_beta2 < 1):
            raise ValueError("Adam betas must be in (0, 1)")
        if self.epochs < 0 or self.batch_size < 1 or self.kernels_per_width < 1:
            raise ValueError("epochs >= 0, batch_size >= 1, kernels >= 1 required")


@dataclass
class AdamState:
    """First/second moment estimates in two flat buffers laid out like
    `ModelParams.flat`, with its leading model axis for a stack of models;
    `m[name]` and `v[name]` are views shaped like the parameter tensors.
    `t` counts steps: an int, or an int array with one count per model."""

    m_flat: np.ndarray
    v_flat: np.ndarray
    shapes: dict
    t: int = 0

    @classmethod
    def zeros_like(cls, params):
        lead = params.flat.shape[:-1]
        t = np.zeros(lead, dtype=np.int64) if lead else 0
        return cls(np.zeros_like(params.flat), np.zeros_like(params.flat), params.shapes, t)

    @property
    def m(self):
        return nn.tensor_views(self.m_flat, self.shapes)

    @property
    def v(self):
        return nn.tensor_views(self.v_flat, self.shapes)


@dataclass
class TrainingCurve:
    train_accuracy: list = field(default_factory=list)
    train_loss: list = field(default_factory=list)
    val_accuracy: list = field(default_factory=list)
    val_loss: list = field(default_factory=list)

    def __len__(self):
        return len(self.train_loss)


@dataclass
class TrainedModel(Classifier):
    """A trained network plus the preprocessing statistics it was fit with."""

    params: nn.ModelParams
    scaler: dp.ScalerStats
    fill_values: np.ndarray
    hyper: Hyperparams
    curve: TrainingCurve = field(default_factory=TrainingCurve)

    def predict_proba(self, X):
        """(n, 2) softmax class probabilities of raw (n, 13) rows (NaN = missing)."""
        x = dp.scale_values(dp.impute_array(X, self.fill_values), self.scaler)
        return nn.forward_batch(x, self.params, pool_mode=self.hyper.pool_mode)[0]


def mean_loss(probs, labels):
    """Mean clamped cross-entropy of (B, 2) class probabilities against 0/1
    labels; a stack of models, (F, B, 2) against (F, B), gives F means.

    Each log argument is floored at 1e-12 so the loss stays finite at the
    boundaries while perfect predictions still give exactly 0.
    """
    pos = probs[..., 1]
    losses = (
        -labels * np.log(np.maximum(pos, PROB_CLAMP))
        - (1 - labels) * np.log(np.maximum(1.0 - pos, PROB_CLAMP))
    )
    mean = losses.mean(axis=-1)
    return float(mean) if mean.ndim == 0 else mean


def loss_and_accuracy(probs, labels):
    """Mean cross-entropy and accuracy of a batch of class probabilities."""
    probs = np.atleast_2d(probs)
    labels = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    if probs.shape[0] == 0:
        raise EmptyBatchError("empty batch")
    accuracy = float(np.mean(probs.argmax(axis=1) == labels))
    return mean_loss(probs, labels), accuracy


def batch_loss(params, X, y, pool_mode=nn.GLOBAL_POOL):
    """Infer-mode mean loss and accuracy over a batch of standardized rows."""
    probs, _ = nn.forward_batch(X, params, pool_mode=pool_mode)
    return loss_and_accuracy(probs, y)


def _bias_correction(beta, t):
    """1 - beta**t for one step count, or a (F, 1) column of them for a count
    per model. The powers are Python float powers: numpy's array power
    differs from them in the last bit for some t (beta 0.999 at t = 7)."""
    if np.ndim(t) == 0:
        return 1 - beta**t
    return np.array([1 - beta ** int(s) for s in t])[:, None]


def adam_step(params, grads, state, hyper):
    """One Adam update over the flat parameter buffer, or over a stack's
    (F, P) buffer with each model at its own step count; returns fresh params
    and state (inputs untouched)."""
    tensors = params.tensors()
    for k, g in grads.items():
        if k not in tensors or g.shape != tensors[k].shape:
            raise ShapeMismatchError(f"gradient {k!r} does not match parameters")
    lead = params.flat.shape[:-1]
    g = np.concatenate([grads[k].reshape(lead + (-1,)) for k in tensors], axis=-1)
    t = state.t + 1
    b1, b2 = hyper.adam_beta1, hyper.adam_beta2
    m = b1 * state.m_flat + (1 - b1) * g
    v = b2 * state.v_flat + (1 - b2) * g * g
    m_hat = m / _bias_correction(b1, t)
    v_hat = v / _bias_correction(b2, t)
    flat = params.flat - hyper.learning_rate * m_hat / (np.sqrt(v_hat) + hyper.adam_epsilon)
    return params.with_flat(flat), AdamState(m, v, params.shapes, t)


def _preprocess_arrays(dataset, fills, scaler):
    imputed = dp.impute_with_values(dataset, fills)
    return dp.scale_values(imputed.feature_array(), scaler), imputed.labels


def train(dataset, hyper=Hyperparams(), validation=None):
    """Full training run: preprocessing fit, epochs of shuffled mini-batches,
    Adam updates, and per-epoch curve capture (`train_folds` of one dataset).

    Imputation fills and scaler statistics come from the training data only.
    Deterministic: the same (dataset, hyper, seed) gives bit-identical output.
    """
    return train_folds([dataset], hyper, [hyper.seed], [validation])[0]


def epoch_steps(sizes, batch_size):
    """The mini-batch steps of one epoch of models trained on `sizes` rows:
    per step, its (batch rows, model indices) groups, one group per distinct
    batch size among the models that have the step. A batch is never padded
    to another size, since the stacked contractions round differently for
    different batch sizes."""
    sizes = np.asarray(sizes)
    steps = []
    for start in range(0, int(sizes.max()), batch_size):
        rows = np.minimum(sizes - start, batch_size)
        steps.append([(int(b), np.flatnonzero(rows == b))
                      for b in sorted(set(rows[rows > 0].tolist()), reverse=True)])
    return steps


def train_folds(datasets, hyper, seeds, validations=None):
    """Train one CNN per dataset, all in lockstep: model f trains on
    datasets[f] with hyperparameters `hyper` and seed seeds[f], and gives the
    same bits as `train(datasets[f], replace(hyper, seed=seeds[f]))`.

    Each model keeps its own generator, which draws as in a run of its own:
    the initial parameters, then a permutation per epoch and a dropout mask
    per step. A step stacks the models that have it, grouped by batch size
    (`epoch_steps`). Errors name the model as `fold f` when there are several.
    """
    F = len(datasets)
    where = [f"fold {f}: " if F > 1 else "" for f in range(F)]
    for f, dataset in enumerate(datasets):
        if len(set(dataset.labels.tolist())) < 2:
            raise SingleClassDataError(f"{where[f]}training data must contain both classes")

    preprocessing, Xs, ys, val_arrays = [], [], [], []
    for dataset, validation in zip(datasets, validations or [None] * F):
        fills = dp.fill_values(dataset)
        scaler = dp.fit_scaler(dp.impute_with_values(dataset, fills))
        X, y = _preprocess_arrays(dataset, fills, scaler)
        preprocessing.append((fills, scaler))
        Xs.append(X)
        ys.append(y)
        val_arrays.append(_preprocess_arrays(validation, fills, scaler) if validation else None)

    rngs = [np.random.default_rng(seed) for seed in seeds]
    params = nn.ModelParams.stack(
        [nn.init_params(hyper.kernels_per_width, rng, hyper.pool_mode) for rng in rngs])
    state = AdamState.zeros_like(params)
    curves = [TrainingCurve() for _ in range(F)]

    # Every model's rows in one array, and each model's rows a view of it;
    # row f of `order` holds model f's shuffled row numbers into it, so a
    # step gathers its stacked batch at once.
    sizes = np.array([X.shape[0] for X in Xs])
    offsets = np.cumsum(sizes) - sizes
    X_all, y_all = np.concatenate(Xs), np.concatenate(ys)
    Xs, ys = np.split(X_all, offsets[1:]), np.split(y_all, offsets[1:])
    order = np.zeros((F, sizes.max()), dtype=np.int64)
    steps = epoch_steps(sizes, hyper.batch_size)

    # Every result computed here is checked (step losses, then each epoch's
    # curve losses, which cover the final parameters), so numpy's overflow
    # and invalid-value warnings would only run ahead of the located error.
    with np.errstate(all="ignore"):
        for epoch in range(hyper.epochs):
            for f, rng in enumerate(rngs):
                order[f, : sizes[f]] = offsets[f] + rng.permutation(sizes[f])
            for step, groups in enumerate(steps):
                start = step * hyper.batch_size
                for rows, models in groups:
                    # gather the group's models, step them, scatter them back
                    idx = order[models, start : start + rows]
                    sub = params.with_flat(params.flat[models])
                    sub_state = AdamState(state.m_flat[models], state.v_flat[models],
                                          state.shapes, state.t[models])
                    labels = y_all[idx]
                    probs, cache = nn.forward_batch(
                        X_all[idx], sub, hyper.dropout_rate, [rngs[f] for f in models],
                        hyper.pool_mode)
                    bad = np.flatnonzero(~np.isfinite(mean_loss(probs, labels)))
                    if bad.size:
                        raise NonFiniteLossError(f"{where[models[bad[0]]]}non-finite loss "
                                                 f"at epoch {epoch}, batch {step}")
                    grads = nn.model_backward(cache, sub, labels, hyper.pool_mode)
                    sub, sub_state = adam_step(sub, grads, sub_state, hyper)
                    params.flat[models] = sub.flat
                    state.m_flat[models], state.v_flat[models] = sub_state.m_flat, sub_state.v_flat
                    state.t[models] = sub_state.t

            # the curve forward runs per model: a stacked full-set forward would
            # hold every model's training-set maps at once
            for f, curve in enumerate(curves):
                model = params.model(f)
                for split, arrays in (("train", (Xs[f], ys[f])), ("val", val_arrays[f])):
                    loss, acc = (batch_loss(model, *arrays, hyper.pool_mode) if arrays
                                 else (None, None))
                    if loss is not None and not math.isfinite(loss):
                        raise NonFiniteLossError(
                            f"{where[f]}non-finite {split} curve loss at epoch {epoch}")
                    getattr(curve, f"{split}_loss").append(loss)
                    getattr(curve, f"{split}_accuracy").append(acc)

    return [
        TrainedModel(params=params.model(f).copy(), scaler=scaler, fill_values=fills,
                     hyper=replace(hyper, seed=seed), curve=curve)
        for f, ((fills, scaler), seed, curve) in enumerate(zip(preprocessing, seeds, curves))
    ]


def predict(model, record):
    """Classify one record with any model kind (CNN, Dv-Logistic or PSO-ELM):
    (class, probabilities). Missing features are imputed from the model's
    stored training statistics; exact probability ties resolve to class 0."""
    probs = model.predict_proba(np.array([record.features], dtype=float))[0]
    return int(predicted_class(probs)), probs


def confusion_counts(pred, y):
    """tp/tn/fp/fn counts of 0/1 predictions against 0/1 labels."""
    return {
        "tp": int(np.sum((pred == 1) & (y == 1))),
        "tn": int(np.sum((pred == 0) & (y == 0))),
        "fp": int(np.sum((pred == 1) & (y == 0))),
        "fn": int(np.sum((pred == 0) & (y == 1))),
    }
