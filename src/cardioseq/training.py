"""Cross-entropy loss, Adam updates and the mini-batch training loop.

The training loop runs a stack of models in lockstep (`train_folds`), e.g.
the k fold models of a k-fold `cv`: each mini-batch step is one
forward, one backward and one Adam update for every model that has that
step. A single training run (`train`) is a stack of one. Adam updates flat
buffers laid out like `network.ModelParams.flat`, moments and gradient alike.

The loop (its steps and its training-set scores) runs with numpy's ufunc
buffer at `TRAIN_BUFSIZE`, 512 elements, not numpy's 8192. It sets the size
inside the loop's `np.errstate` context, which in numpy 2 holds the buffer
size too, so leaving the context restores the previous size on every exit.
A step's broadcasts have short contiguous inner runs, such as the map
build's taps (F, 3K, 1, 1) times rows (F, 1, 13, B), and numpy 2.4.6 sends
them through a buffered path that is about three times slower per element
with the default buffer (README "Library tour" and `BENCH_22.json`,
`BENCH_24.json` hold the timings). Buffering only moves values, so every
result keeps its bits. No other path sets the buffer, since none
measurably gains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from functools import partial

import numpy as np

from . import data as dp
from . import network as nn
from .errors import (ArityMismatchError, EmptyBatchError, NonFiniteLossError,
                     NonFiniteProbabilityError, ShapeMismatchError)

PROB_CLAMP = 1e-12

# numpy's ufunc buffer size, in elements, inside `train_folds`' loop (see the
# module docstring); numpy's default is 8192.
TRAIN_BUFSIZE = 512


def predicted_class(probs):
    """Class of each (..., 2) probability row: 1 only when p1 > p0, so exact
    ties go to class 0."""
    return (probs[..., 1] > probs[..., 0]).astype(np.int64)


@dataclass
class Classifier:
    """The base of all three models: the training set's preprocessing (from
    `data.fit_preprocessing`) and the interface they share. `predict_proba`
    imputes rows with `fill_values`, Z-scores them with `scaler` and hands
    both forms to the kind's own head, `_proba(raw, scaled)`; predictions
    follow from the probabilities."""

    fill_values: np.ndarray
    scaler: dp.ScalerStats

    def _preprocess(self, X):
        """Raw (n, 13) rows imputed with the fill values, and those rows Z-scored."""
        raw = dp.impute_array(X, self.fill_values)
        return raw, dp.scale_values(raw, self.scaler)

    def predict_proba(self, X):
        """(n, 2) class probabilities of raw (n, 13) rows (NaN = missing)."""
        return self._proba(*self._preprocess(X))

    def predict_batch(self, dataset):
        """Classes of a dataset's rows; NonFiniteProbabilityError names the first
        row (as `record N`, from 1) whose probabilities are not finite."""
        with np.errstate(all="ignore"):  # the probabilities are checked below
            probs = self.predict_proba(dataset.X)
        bad = np.flatnonzero(~np.isfinite(probs).all(axis=-1))
        if bad.size:
            raise NonFiniteProbabilityError(f"record {bad[0] + 1}", probs[bad[0]])
        return predicted_class(probs)


# Adam's fixed settings: the paper tunes only the learning and dropout rates.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


# Each Hyperparams field's text form (model-file params, config values, CLI flags),
# by the type of its default; numbers pass through Python scalars, as numpy ones may.
_CODECS = {float: (lambda v: repr(float(v)), partial(dp.parse_number, float)),
           int: (lambda v: repr(int(v)), partial(dp.parse_number, int)),
           tuple: (nn.format_pool_mode, nn.parse_pool_mode)}


def check_at_least(*checks):
    """Raise a ValueError that names the first (name, value, least) whose
    value is below its least: the one wording of every such range check."""
    for name, value, least in checks:
        if value < least:
            raise ValueError(f"{name} must be at least {least}, got {value}")


def check_positive(name, value):
    """Raise a ValueError that names `value` unless it is finite and positive."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value}")


@dataclass(frozen=True)
class Hyperparams:
    """The CNN's settings: the one place that states each default and range."""

    learning_rate: float = 0.001
    dropout_rate: float = 0.5
    epochs: int = 50
    batch_size: int = 16
    kernels_per_width: int = 8
    pool_mode: tuple = nn.GLOBAL_POOL
    seed: int = 0

    def __post_init__(self):
        check_positive("learning_rate", self.learning_rate)
        if not 0 <= self.dropout_rate < 1:
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        check_at_least(("epochs", self.epochs, 0), ("batch_size", self.batch_size, 1),
                       ("kernels_per_width", self.kernels_per_width, 1), ("seed", self.seed, 0))

    def texts(self):
        """Field name -> the field's value as text, which `with_text` reads back."""
        return {f.name: _CODECS[type(f.default)][0](getattr(self, f.name)) for f in fields(self)}

    def with_text(self, name, text):
        """A copy with field `name` parsed from `text` and checked (ValueError)."""
        parse = _CODECS[type(self.__dataclass_fields__[name].default)][1]
        return replace(self, **{name: parse(text)})


@dataclass
class TrainingCurve:
    train_accuracy: list = field(default_factory=list)
    train_loss: list = field(default_factory=list)

    def __len__(self):
        return len(self.train_loss)


@dataclass
class TrainedModel(Classifier):
    """A trained network: its parameters, settings and training curve."""

    params: nn.ModelParams
    hyper: Hyperparams
    curve: TrainingCurve = field(default_factory=TrainingCurve)

    def _proba(self, raw, scaled):
        return nn.forward_batch(scaled, self.params, pool_mode=self.hyper.pool_mode)[0]


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
    return losses.mean(axis=-1)


def loss_and_accuracy(probs, labels):
    """Mean cross-entropy and accuracy (classes by `predicted_class`) of a
    batch of class probabilities."""
    probs = np.atleast_2d(probs)
    labels = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    if probs.shape[0] == 0:
        raise EmptyBatchError("empty batch")
    accuracy = float(np.mean(predicted_class(probs) == labels))
    return mean_loss(probs, labels), accuracy


def batch_loss(params, X, y, pool_mode=nn.GLOBAL_POOL):
    """Infer-mode mean loss and accuracy over a batch of standardized rows."""
    return loss_and_accuracy(nn.forward_batch(X, params, pool_mode=pool_mode)[0], y)


def _bias_correction(beta, t):
    """1 - beta**t with a trailing axis of 1: (1,) for one step count, (F, 1)
    for a count per model. The powers are Python float powers: numpy's array
    power differs from them in the last bit for some t (beta 0.999 at t = 7)."""
    return np.reshape([1 - beta**s for s in np.ravel(t).tolist()], np.shape(t) + (1,))


def adam_step(flat, grad, m, v, t, learning_rate):
    """One Adam update of a flat parameter buffer with gradient `grad` and
    moments `m`, `v` laid out like it, `t` counting this step; for a stack's
    (F, P) buffers `t` holds one count per model. Returns the new
    (flat, m, v), leaving the inputs untouched."""
    if grad.shape != flat.shape:
        raise ShapeMismatchError(f"gradient shape {grad.shape} does not match "
                                 f"parameter shape {flat.shape}")
    m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * grad
    v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * grad * grad
    m_hat = m / _bias_correction(ADAM_BETA1, t)
    v_hat = v / _bias_correction(ADAM_BETA2, t)
    return flat - learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON), m, v


def train(dataset, hyper=Hyperparams()):
    """Full training run (`train_folds` of one dataset): preprocessing fit,
    mini-batch Adam epochs and the per-epoch curve, recorded for one model only.

    Imputation fills and scaler statistics come from the training data only.
    Deterministic: the same (dataset, hyper, seed) gives bit-identical output.
    """
    return train_folds([dataset], hyper, [hyper.seed])[0]


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


def train_folds(datasets, hyper, seeds):
    """Train one CNN per dataset, all in lockstep: model f trains on
    datasets[f] with hyperparameters `hyper` and seed seeds[f], and gets the
    parameters of `train(datasets[f], replace(hyper, seed=seeds[f]))`.

    Each model keeps its own generator, which draws as in a run of its own:
    the initial parameters, then a permutation per epoch and a dropout mask
    per step. A step stacks the models that have it, grouped by batch size
    (`epoch_steps`). A single model records its curve every epoch; a stack
    scores its final models only. Errors name the model as `fold f` if several.
    """
    F = len(datasets)
    where = [f"fold {f}: " if F > 1 else "" for f in range(F)]
    fills, _, scalers, Xs = zip(*dp.fit_preprocessing(datasets))
    ys = [dataset.labels for dataset in datasets]

    rngs = [np.random.default_rng(seed) for seed in seeds]
    params = nn.ModelParams.stack(
        [nn.init_params(hyper.kernels_per_width, rng, hyper.pool_mode) for rng in rngs])
    # Adam's moments, laid out like `params.flat`, and each model's step count
    m, v = np.zeros_like(params.flat), np.zeros_like(params.flat)
    t = np.zeros(F, dtype=np.int64)
    curve = TrainingCurve()

    # Every model's rows in one array, and each model's rows a view of it;
    # row f of `order` holds model f's shuffled row numbers into it, so a
    # step gathers its stacked batch at once.
    sizes = np.array([X.shape[0] for X in Xs])
    offsets = np.cumsum(sizes) - sizes
    X_all, y_all = np.concatenate(Xs), np.concatenate(ys)
    Xs, ys = np.split(X_all, offsets[1:]), np.split(y_all, offsets[1:])
    order = np.zeros((F, sizes.max()), dtype=np.int64)
    steps = epoch_steps(sizes, hyper.batch_size)

    # Every result computed here is checked (step losses, then the training-set
    # scores, which cover the final parameters), so numpy's overflow and
    # invalid-value warnings would only run ahead of the located error.
    with np.errstate(all="ignore"):
        np.setbufsize(TRAIN_BUFSIZE)  # leaving the errstate context restores it
        for epoch in range(hyper.epochs):
            for f, rng in enumerate(rngs):
                order[f, : sizes[f]] = offsets[f] + rng.permutation(sizes[f])
            for step, groups in enumerate(steps):
                start = step * hyper.batch_size
                for rows, models in groups:
                    # gather the group's models, step them, scatter them back
                    idx = order[models, start : start + rows]
                    sub = params.with_flat(params.flat[models])
                    labels = y_all[idx]
                    probs, cache = nn.forward_batch(
                        X_all[idx], sub, hyper.dropout_rate, [rngs[f] for f in models],
                        hyper.pool_mode)
                    bad = np.flatnonzero(~np.isfinite(mean_loss(probs, labels)))
                    if bad.size:
                        raise NonFiniteLossError(f"{where[models[bad[0]]]}non-finite loss "
                                                 f"at epoch {epoch}, batch {step}")
                    grads = nn.model_backward(cache, labels)
                    t[models] += 1
                    params.flat[models], m[models], v[models] = adam_step(
                        sub.flat, grads.flat, m[models], v[models], t[models], hyper.learning_rate)

            # a stack scores after its last epoch only, model by model (the
            # folds' training sets differ in size)
            if F > 1 and epoch < hyper.epochs - 1:
                continue
            for f in range(F):
                loss, acc = batch_loss(params.model(f), Xs[f], ys[f], hyper.pool_mode)
                if not math.isfinite(loss):
                    raise NonFiniteLossError(
                        f"{where[f]}non-finite train curve loss at epoch {epoch}")
            if F == 1:
                curve.train_loss.append(loss)
                curve.train_accuracy.append(acc)

    return [
        TrainedModel(fill_values=fills[f], scaler=scalers[f], params=params.model(f).copy(),
                     hyper=replace(hyper, seed=seed), curve=curve if F == 1 else TrainingCurve())
        for f, seed in enumerate(seeds)
    ]


def predict(model, row):
    """Classify one row of 13 numbers (NaN or None = missing) with any model
    kind (CNN, Dv-Logistic or PSO-ELM): (class, probabilities). Missing
    features are imputed from the model's stored training statistics; exact
    probability ties resolve to class 0. Anything but 13 numbers raises
    ArityMismatchError.

    A row scored alone can differ in the last bits from the same row scored
    inside a batch by `predict_proba`, since BLAS picks another kernel for a
    one-row product; an exact tie can then get another class."""
    try:
        x = np.asarray(row, dtype=float)
    except (TypeError, ValueError):
        raise ArityMismatchError(f"expected a row of {dp.N_FEATURES} numbers, "
                                 f"got {type(row).__name__}") from None
    if x.shape != (dp.N_FEATURES,):
        raise ArityMismatchError(f"expected a row of {dp.N_FEATURES} numbers, got shape {x.shape}")
    probs = model.predict_proba(x.reshape(1, dp.N_FEATURES))[0]
    return int(predicted_class(probs)), probs


def confusion_counts(pred, y):
    """tp/tn/fp/fn counts of 0/1 predictions against 0/1 labels."""
    return {
        "tp": int(np.sum((pred == 1) & (y == 1))),
        "tn": int(np.sum((pred == 0) & (y == 0))),
        "fp": int(np.sum((pred == 1) & (y == 0))),
        "fn": int(np.sum((pred == 0) & (y == 1))),
    }
