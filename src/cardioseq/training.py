"""Cross-entropy loss, Adam updates and the mini-batch training loop."""

from __future__ import annotations

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
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0 <= self.dropout_rate < 1:
            raise ValueError("dropout_rate must be in [0, 1)")
        if not (0 < self.adam_beta1 < 1 and 0 < self.adam_beta2 < 1):
            raise ValueError("Adam betas must be in (0, 1)")
        if self.epochs < 0 or self.batch_size < 1 or self.kernels_per_width < 1:
            raise ValueError("epochs >= 0, batch_size >= 1, kernels >= 1 required")


@dataclass
class AdamState:
    """First/second moment estimates in two flat buffers laid out like
    `ModelParams.flat`; `m[name]` and `v[name]` are views shaped like the
    parameter tensors."""

    m_flat: np.ndarray
    v_flat: np.ndarray
    shapes: dict
    t: int = 0

    @classmethod
    def zeros_like(cls, params):
        return cls(np.zeros_like(params.flat), np.zeros_like(params.flat), params.shapes)

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


def cross_entropy(alpha, beta):
    """Binary cross-entropy of a positive-class probability against a 0/1 label.

    Each log argument is floored at 1e-12 so the loss stays finite at the
    boundaries while perfect predictions still give exactly 0.
    """
    a = float(alpha)
    return float(
        -beta * np.log(max(a, PROB_CLAMP))
        - (1 - beta) * np.log(max(1.0 - a, PROB_CLAMP))
    )


def mean_loss(probs, labels):
    """Mean clamped cross-entropy of (B, 2) class probabilities against 0/1 labels."""
    pos = probs[:, 1]
    losses = (
        -labels * np.log(np.maximum(pos, PROB_CLAMP))
        - (1 - labels) * np.log(np.maximum(1.0 - pos, PROB_CLAMP))
    )
    return float(losses.mean())


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


def adam_step(params, grads, state, hyper):
    """One Adam update over the flat parameter buffer; returns fresh params
    and state (inputs untouched)."""
    tensors = params.tensors()
    for k, g in grads.items():
        if k not in tensors or g.shape != tensors[k].shape:
            raise ShapeMismatchError(f"gradient {k!r} does not match parameters")
    g = np.concatenate([grads[k].ravel() for k in tensors])
    t = state.t + 1
    b1, b2 = hyper.adam_beta1, hyper.adam_beta2
    m = b1 * state.m_flat + (1 - b1) * g
    v = b2 * state.v_flat + (1 - b2) * g * g
    m_hat = m / (1 - b1**t)
    v_hat = v / (1 - b2**t)
    flat = params.flat - hyper.learning_rate * m_hat / (np.sqrt(v_hat) + hyper.adam_epsilon)
    return params.with_flat(flat), AdamState(m, v, params.shapes, t)


def _preprocess_arrays(dataset, fills, scaler):
    imputed = dp.impute_with_values(dataset, fills)
    return dp.scale_values(imputed.feature_array(), scaler), imputed.labels


def train(dataset, hyper=Hyperparams(), validation=None):
    """Full training run: preprocessing fit, epochs of shuffled mini-batches,
    Adam updates, and per-epoch curve capture.

    Imputation fills and scaler statistics come from the training data only.
    Deterministic: the same (dataset, hyper, seed) gives bit-identical output.
    """
    labels = dataset.labels
    if len(set(labels.tolist())) < 2:
        raise SingleClassDataError("training data must contain both classes")

    fills = dp.fill_values(dataset)
    scaler = dp.fit_scaler(dp.impute_with_values(dataset, fills))
    X, y = _preprocess_arrays(dataset, fills, scaler)
    val_arrays = _preprocess_arrays(validation, fills, scaler) if validation else None

    rng = np.random.default_rng(hyper.seed)
    params = nn.init_params(hyper.kernels_per_width, rng, hyper.pool_mode)
    state = AdamState.zeros_like(params)
    curve = TrainingCurve()
    n = X.shape[0]

    for epoch in range(hyper.epochs):
        order = rng.permutation(n)
        for start in range(0, n, hyper.batch_size):
            idx = order[start : start + hyper.batch_size]
            labels = y[idx]
            probs, cache = nn.forward_batch(
                X[idx], params, dropout_rate=hyper.dropout_rate,
                rng=rng, train=True, pool_mode=hyper.pool_mode,
            )
            if not np.isfinite(mean_loss(probs, labels)):
                raise NonFiniteLossError(
                    f"non-finite loss at epoch {epoch}, batch {start // hyper.batch_size}"
                )
            grads = nn.model_backward(cache, params, labels, hyper.pool_mode)
            params, state = adam_step(params, grads, state, hyper)

        ep_loss, ep_acc = batch_loss(params, X, y, hyper.pool_mode)
        curve.train_loss.append(ep_loss)
        curve.train_accuracy.append(ep_acc)
        if val_arrays is not None:
            v_loss, v_acc = batch_loss(params, *val_arrays, hyper.pool_mode)
            curve.val_loss.append(v_loss)
            curve.val_accuracy.append(v_acc)
        else:
            curve.val_loss.append(None)
            curve.val_accuracy.append(None)

    return TrainedModel(params=params, scaler=scaler, fill_values=fills,
                        hyper=hyper, curve=curve)


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
