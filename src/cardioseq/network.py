"""Forward and backward passes of the multi-width 1D conv network.

Architecture: the 13x1 standardized feature column is convolved with banks
of width-1, width-3 and width-5 kernels (stride 1, zero same-padding, so
every feature map has length 13), passed through ReLU, max-pooled, the
pooled values concatenated in fixed order (width 1 bank, then 3, then 5;
kernel index ascending), optionally dropped out (inverted dropout), and
fed to a dense layer with a 2-class softmax head.

A batched training step is a few whole-array calls. The zero-padded
sliding windows of a batch are built once, as one read-only strided view
for the widest kernel; the width-3 bank reads its centred slice and the
backward pass reuses the view from the forward cache. The three banks'
maps are stacked, so pooling and its backward run once per batch for all
banks; pooling reads the pre-activations and applies ReLU to the pooled
values only. All parameter tensors are views into one flat float64 buffer
(`ModelParams.flat`), so an optimizer step is a handful of elementwise
operations on that buffer. Every step gives the same bits as computing
each bank on its own windows.

The same code runs a stack of F models at once, e.g. the k fold models of
a cross-validation: their parameters share a leading model axis (`flat`
is (F, P), a kernel bank (F, K, w)), and a stacked batch is (F, B, 13),
row f going through model f. A single model has no leading axis. Each
model of a stack gets the same bits as running it alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import N_FEATURES
from .errors import (
    DimensionMismatchError,
    EmptyMapError,
    ShapeMismatchError,
    StaleCacheError,
)

KERNEL_WIDTHS = (1, 3, 5)

GLOBAL_POOL = ("global",)


def parse_pool_mode(text):
    """Parse 'global' or 'windowed:<size>:<stride>' into a pool-mode tuple;
    the window must fit the 13-long map (1 <= size <= 13) and stride >= 1."""
    if text == "global":
        return GLOBAL_POOL
    if text.startswith("windowed:"):
        _, size, stride = text.split(":")
        size, stride = int(size), int(stride)
        if not (1 <= size <= N_FEATURES and stride >= 1):
            raise ValueError(f"need 1 <= size <= {N_FEATURES} and stride >= 1, got {text!r}")
        return ("windowed", size, stride)
    raise ValueError(f"unknown pool mode {text!r}")


def format_pool_mode(mode):
    if mode == GLOBAL_POOL:
        return "global"
    return f"windowed:{mode[1]}:{mode[2]}"


@dataclass(frozen=True)
class ConvKernel:
    """A width-y (y odd), height-1 kernel with a scalar bias."""

    weights: np.ndarray
    bias: float = 0.0

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size < 1 or w.size % 2 == 0:
            raise ShapeMismatchError("kernel width must be odd and >= 1")
        if not np.all(np.isfinite(w)) or not np.isfinite(self.bias):
            raise ShapeMismatchError("kernel parameters must be finite")
        object.__setattr__(self, "weights", w)

    @property
    def width(self):
        return self.weights.size


@dataclass(frozen=True)
class DenseLayer:
    weights: np.ndarray  # (outputs, inputs)
    biases: np.ndarray  # (outputs,)

    def __post_init__(self):
        if self.weights.shape[0] != self.biases.shape[0]:
            raise ShapeMismatchError("dense weight rows must match bias count")
        if not (np.all(np.isfinite(self.weights)) and np.all(np.isfinite(self.biases))):
            raise ShapeMismatchError("dense parameters must be finite")


def tensor_views(flat, shapes):
    """Name -> view of the next slice of `flat`'s last axis, reshaped, in
    `shapes` order; a leading model axis of `flat` is kept."""
    views, offset = {}, 0
    for name, shape in shapes.items():
        size = math.prod(shape)
        views[name] = flat[..., offset : offset + size].reshape(flat.shape[:-1] + shape)
        offset += size
    return views


@dataclass
class ModelParams:
    """Trainable state: one kernel bank per width plus the dense head.

    conv_w[w] is (K, w), conv_b[w] is (K,); dense_w is (2, pooled_dim).
    The constructor copies the tensors into one flat float64 buffer, `flat`,
    laid out in `tensors()` order, and keeps reshaped views of it, so an
    in-place edit of a tensor edits `flat` and the reverse. A stack of
    models (`stack`) has a leading model axis on `flat` and on every tensor;
    `shapes` are always those of one model.
    """

    conv_w: dict
    conv_b: dict
    dense_w: np.ndarray
    dense_b: np.ndarray

    def __post_init__(self):
        tensors = self.tensors()
        flat = np.concatenate([np.ravel(a) for a in tensors.values()], dtype=float)
        self._bind(flat, {k: np.shape(a) for k, a in tensors.items()})

    def _bind(self, flat, shapes):
        self.flat, self.shapes = flat, shapes
        views = tensor_views(flat, shapes)
        self.conv_w = {w: views[f"conv_w{w}"] for w in KERNEL_WIDTHS}
        self.conv_b = {w: views[f"conv_b{w}"] for w in KERNEL_WIDTHS}
        self.dense_w, self.dense_b = views["dense_w"], views["dense_b"]

    def with_flat(self, flat):
        """Parameters shaped like these over another flat buffer (no copy);
        a (F, P) buffer gives a stack of F models."""
        params = object.__new__(ModelParams)
        params._bind(flat, self.shapes)
        return params

    @staticmethod
    def stack(models):
        """One stack of F models from F single models (copies)."""
        return models[0].with_flat(np.stack([m.flat for m in models]))

    def model(self, f):
        """Model f of a stack, over row f of `flat` (no copy)."""
        return self.with_flat(self.flat[f])

    def tensors(self):
        """Named parameter tensors in a fixed canonical order."""
        out = {}
        for w in KERNEL_WIDTHS:
            out[f"conv_w{w}"] = self.conv_w[w]
            out[f"conv_b{w}"] = self.conv_b[w]
        out["dense_w"] = self.dense_w
        out["dense_b"] = self.dense_b
        return out

    @classmethod
    def from_tensors(cls, tensors):
        return cls(
            conv_w={w: tensors[f"conv_w{w}"] for w in KERNEL_WIDTHS},
            conv_b={w: tensors[f"conv_b{w}"] for w in KERNEL_WIDTHS},
            dense_w=tensors["dense_w"],
            dense_b=tensors["dense_b"],
        )

    def copy(self):
        return self.with_flat(self.flat.copy())

    @property
    def kernels_per_width(self):
        return self.conv_w[KERNEL_WIDTHS[0]].shape[-2]


@dataclass
class ForwardCache:
    """Everything the reverse pass needs, produced by a train-mode forward.

    `windows` is the batch's zero-padded sliding-window view for the widest
    kernel, built once per batch and read by forward and backward alike
    (`bank_windows`). The three banks' maps are stacked along the kernel
    axis, width 1 first: bank i is rows i*K to (i+1)*K. For a stack of
    models every array has a leading model axis.
    """

    params: ModelParams
    inputs: np.ndarray  # (B, 13)
    windows: np.ndarray = None  # (B, 13, max width), read-only view
    pre: np.ndarray = None  # (B, 3K, 13) pre-activation maps
    pool_idx: np.ndarray = None  # (B, 3K, W) argmax position of each window
    pooled: np.ndarray = None  # (B, D) pre-dropout concatenation
    dropout_mask: np.ndarray = None  # (B, D) or None
    dropout_rate: float = 0.0
    dropped: np.ndarray = None  # (B, D) dense input
    probs: np.ndarray = None  # (B, 2)


def _glorot_uniform(rng, shape, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def pooled_dim(kernels_per_width, pool_mode):
    return len(KERNEL_WIDTHS) * kernels_per_width * n_pool_windows(pool_mode)


def n_pool_windows(pool_mode, length=N_FEATURES):
    size, stride = _pool_geometry(pool_mode, length)
    return (length - size) // stride + 1


def _pool_geometry(pool_mode, length):
    if pool_mode[0] == "global":
        return length, length
    return pool_mode[1], pool_mode[2]


def init_params(kernels_per_width, rng, pool_mode=GLOBAL_POOL, n_classes=2):
    """Glorot-uniform weights from the given generator, zero biases."""
    conv_w, conv_b = {}, {}
    for w in KERNEL_WIDTHS:
        conv_w[w] = _glorot_uniform(rng, (kernels_per_width, w), w, w)
        conv_b[w] = np.zeros(kernels_per_width)
    d = pooled_dim(kernels_per_width, pool_mode)
    dense_w = _glorot_uniform(rng, (n_classes, d), d, n_classes)
    dense_b = np.zeros(n_classes)
    return ModelParams(conv_w, conv_b, dense_w, dense_b)


def conv_windows(inputs, width):
    """Zero same-padded sliding windows of a (..., B, T) batch for an odd width:
    a read-only (..., B, T, width) view of one zero-padded (..., B, T + width - 1)
    buffer."""
    T = inputs.shape[-1]
    pad = width // 2
    padded = np.zeros(inputs.shape[:-1] + (T + 2 * pad,))
    padded[..., pad : pad + T] = inputs
    return np.lib.stride_tricks.as_strided(
        padded, inputs.shape + (width,), padded.strides + padded.strides[-1:], writeable=False
    )


def bank_windows(inputs, windows, width):
    """Width-`width` windows of a contiguous (..., B, T) batch, given `windows`
    built for a wider odd width: its centred slice, or for width 1 the batch
    itself. (A width-1 slice would have the padded row stride, and with one
    kernel the gradient einsum would then sum in another order.)"""
    if width == 1:
        return inputs[..., None]
    trim = (windows.shape[-1] - width) // 2
    return windows[..., trim : trim + width]


def conv_forward(feature_matrix, kernel):
    """Pre-activation feature map for a single kernel (spec op surface).

    Stride 1, zero same-padding, so the output length equals the input
    length (13 for real samples).
    """
    x = np.asarray(feature_matrix, dtype=float).reshape(1, -1)
    return conv_windows(x, kernel.width)[0] @ kernel.weights + kernel.bias


def relu(pre):
    return np.maximum(0.0, pre)


def max_pool(feature_map, mode=GLOBAL_POOL):
    """Max pooling over a 1D map; returns (pooled values, argmax indices).

    Global mode returns scalars. Ties break toward the lowest index.
    """
    m = np.asarray(feature_map, dtype=float)
    if m.size == 0:
        raise EmptyMapError("cannot pool an empty feature map")
    size, stride = _pool_geometry(mode, m.size)
    starts = range(0, m.size - size + 1, stride)
    pooled = np.array([m[s : s + size].max() for s in starts])
    idx = np.array([s + int(np.argmax(m[s : s + size])) for s in starts])
    if mode[0] == "global":
        return pooled[0], int(idx[0])
    return pooled, idx


def dense_forward(inputs, layer):
    x = np.asarray(inputs, dtype=float)
    if x.shape[-1] != layer.weights.shape[1]:
        raise DimensionMismatchError(
            f"dense expects {layer.weights.shape[1]} inputs, got {x.shape[-1]}"
        )
    return x @ layer.weights.T + layer.biases


def softmax(logits):
    """Numerically stable softmax (max subtraction), rows sum to 1."""
    z = np.asarray(logits, dtype=float)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _relu_pool_batch(pre, pool_mode):
    """Max-pool ReLU(pre) without forming it: contiguous (..., K, T)
    pre-activations -> pooled (..., K, W) and argmax positions (..., K, W).

    ReLU is monotone, so a window's pooled value is the ReLU of its largest
    pre-activation, at the first maximum as in `max_pool`; a window with no
    positive entry is all zeros after ReLU, so its argmax is its start.
    """
    T = pre.shape[-1]
    size, stride = _pool_geometry(pool_mode, T)
    starts = np.arange(0, T - size + 1, stride)
    idx = np.empty(pre.shape[:-1] + (len(starts),), dtype=np.int64)
    for wi, start in enumerate(starts):  # argmax copies a strided window; keep it one wide
        idx[..., wi] = pre[..., start : start + size].argmax(axis=-1) + start
    rows = pre.size // T
    top = pre.reshape(rows, T)[np.arange(rows)[:, None], idx.reshape(rows, -1)]
    top = top.reshape(idx.shape)
    np.copyto(idx, starts, where=top <= 0)
    return relu(top), idx


def _dropout_keep(rng, shape, dropout_rate):
    """Keep-mask of a (B, D) batch from one generator, or of a stacked
    (F, B, D) batch from a sequence of F generators, one per model."""
    if len(shape) == 2:
        return rng.random(shape) >= dropout_rate
    return np.stack([r.random(shape[1:]) for r in rng]) >= dropout_rate


def forward_batch(inputs, params, dropout_rate=0.0, rng=None, train=False,
                  pool_mode=GLOBAL_POOL):
    """Run the full network on a (B, 13) batch, or a stack of models on a
    (F, B, 13) batch; train-mode dropout of a stack draws from `rng`, a
    sequence of one generator per model.

    Returns (probs, cache); the cache is only fully populated in train mode.
    """
    X = np.atleast_2d(np.ascontiguousarray(inputs, dtype=float))
    windows = conv_windows(X, KERNEL_WIDTHS[-1])
    K = params.kernels_per_width
    pre = np.empty(X.shape[:-1] + (len(KERNEL_WIDTHS) * K, X.shape[-1]))
    for i, w in enumerate(KERNEL_WIDTHS):
        pre[..., i * K : (i + 1) * K, :] = np.einsum(
            "...btw,...kw->...bkt", bank_windows(X, windows, w), params.conv_w[w])
    pre += np.concatenate([params.conv_b[w] for w in KERNEL_WIDTHS], -1)[..., None, :, None]
    pooled, idx = _relu_pool_batch(pre, pool_mode)
    z = pooled.reshape(X.shape[:-1] + (-1,))
    cache = ForwardCache(params=params, inputs=X, windows=windows, pre=pre, pool_idx=idx,
                         pooled=z, dropout_rate=dropout_rate)
    if train and dropout_rate > 0.0:
        if rng is None:
            raise ValueError("train-mode dropout requires a generator")
        mask = _dropout_keep(rng, z.shape, dropout_rate)
        z = z * mask / (1.0 - dropout_rate)
        cache.dropout_mask = mask
    cache.dropped = z
    logits = z @ params.dense_w.swapaxes(-1, -2) + params.dense_b[..., None, :]
    probs = softmax(logits)
    cache.probs = probs
    return probs, cache


def model_forward(feature_matrix, params, dropout_rate=0.0, rng=None,
                  mode="infer", pool_mode=GLOBAL_POOL):
    """Single-sample forward pass over a 13x1 feature matrix."""
    x = np.asarray(feature_matrix, dtype=float).reshape(1, N_FEATURES)
    probs, cache = forward_batch(
        x, params, dropout_rate=dropout_rate, rng=rng,
        train=(mode == "train"), pool_mode=pool_mode,
    )
    return probs[0], cache


def model_backward(cache, params, labels, pool_mode=GLOBAL_POOL):
    """Exact mean-cross-entropy gradients for every parameter tensor.

    The incoming cache must come from a forward pass on the same params
    object; anything else means the parameters moved under the cache. For a
    stack of models, labels are (F, B) and every gradient has the leading
    model axis.
    """
    if cache.params is not params:
        raise StaleCacheError("cache was produced for different parameters")
    X = cache.inputs
    B = X.shape[-2]
    y = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    if y.shape != X.shape[:-1]:
        raise ShapeMismatchError("label count does not match batch size")

    # Combined softmax + cross-entropy gradient, averaged over the batch;
    # subtracting 0.0 leaves the other class's probability as it is.
    dlogits = cache.probs - (y[..., None] == np.arange(cache.probs.shape[-1]))
    dlogits /= B

    grads = {
        "dense_w": dlogits.swapaxes(-1, -2) @ cache.dropped,
        "dense_b": dlogits.sum(axis=-2),
    }
    dz = dlogits @ params.dense_w
    if cache.dropout_mask is not None:
        dz = dz * cache.dropout_mask / (1.0 - cache.dropout_rate)

    idx = cache.pool_idx
    if idx.shape[-1] != n_pool_windows(pool_mode):
        raise ShapeMismatchError("cache was pooled with a different pool mode")
    dpool = dz.reshape(idx.shape)
    if idx.shape[-1] == 1:
        dmap = np.where(np.arange(X.shape[-1]) == idx, dpool, 0.0)
    else:
        # ordered accumulation: overlapping windows can share an argmax
        dmap = np.zeros_like(cache.pre)
        lead = np.ix_(*map(np.arange, idx.shape[:-1]))
        for wi in range(idx.shape[-1]):
            dmap[(*lead, idx[..., wi])] += dpool[..., wi]
    K = params.kernels_per_width
    for i, w in enumerate(KERNEL_WIDTHS):
        bank = slice(i * K, (i + 1) * K)
        dpre = dmap[..., bank, :] * (cache.pre[..., bank, :] > 0)
        grads[f"conv_w{w}"] = np.einsum("...bkt,...btw->...kw", dpre,
                                        bank_windows(X, cache.windows, w))
        grads[f"conv_b{w}"] = dpre.sum(axis=(-3, -1))
    return grads
