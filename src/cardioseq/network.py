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
values only. With one pool window per map (global pooling) the backward
forms no gradient maps: it gathers each map's window at its argmax. All
parameter tensors are views into one flat float64 buffer
(`ModelParams.flat`), and so are the gradients (`model_backward`): an
optimizer step is a handful of elementwise operations on whole buffers.
Every step gives the bits of an einsum per bank on its own windows, but
for the one-window backward at K = 1, whose kernel gradients sum row by
row and so differ in the last bits.

The same code runs a stack of F models at once, e.g. the k fold models of
a cross-validation: their parameters share a leading model axis (`flat`
is (F, P), a kernel bank (F, K, w)), and a stacked batch is (F, B, 13),
row f going through model f. A single model has no leading axis. Each
model of a stack gets the same bits as running it alone.

Scoring a whole training set needs only the probabilities: `infer_probs`
gives `forward_batch`'s bits with no cache, argmax or dropout, from long
contiguous multiply-adds over row blocks of bounded size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import N_FEATURES
from .errors import ShapeMismatchError

KERNEL_WIDTHS = (1, 3, 5)

GLOBAL_POOL = ("global",)

# `infer_probs` scores rows in blocks of at most this many pre-activation
# values (3K maps of 13 positions per row), as SWARM_BLOCK_ELEMENTS bounds a
# block of PSO particles.
INFER_BLOCK_ELEMENTS = 2**18


def parse_pool_mode(text):
    """Parse 'global' or 'windowed:SIZE:STRIDE' into a pool-mode tuple;
    the window must fit the 13-long map (1 <= SIZE <= 13) and STRIDE >= 1."""
    if text == "global":
        return GLOBAL_POOL
    kind, *numbers = text.split(":")
    if kind == "windowed" and len(numbers) == 2 and all(n.isdecimal() for n in numbers):
        size, stride = map(int, numbers)
        if 1 <= size <= N_FEATURES and stride >= 1:
            return ("windowed", size, stride)
    raise ValueError(f"expected global or windowed:SIZE:STRIDE with 1 <= SIZE <= {N_FEATURES} "
                     f"and STRIDE >= 1, got {text!r}")


def format_pool_mode(mode):
    if mode == GLOBAL_POOL:
        return "global"
    return f"windowed:{mode[1]}:{mode[2]}"


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
    """Everything the reverse pass needs, produced by `forward_batch`.

    `windows` is the batch's zero-padded sliding-window view for the widest
    kernel, built once per batch and read by forward and backward alike
    (`bank_windows`). The three banks' maps are stacked along the kernel
    axis, width 1 first: bank i is rows i*K to (i+1)*K. For a stack of
    models every array has a leading model axis.

    Besides the dense layer's fields, `model_backward` reads `windows` and
    `pool_idx`, and with one pool window per map `pooled` (its ReLU gate is
    pooled > 0), not `pre`; with more windows it builds gradient maps from
    `pre`.
    """

    params: ModelParams
    inputs: np.ndarray  # (B, 13)
    windows: np.ndarray  # (B, 13, max width), read-only view
    pre: np.ndarray  # (B, 3K, 13) pre-activation maps
    pool_idx: np.ndarray  # (B, 3K, W) argmax position of each window
    pooled: np.ndarray  # (B, D) pre-dropout concatenation
    dropout_mask: np.ndarray  # (B, D), or None without dropout
    dropout_rate: float
    dropped: np.ndarray  # (B, D) dense input
    probs: np.ndarray  # (B, 2)


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


def init_params(kernels_per_width, rng, pool_mode=GLOBAL_POOL):
    """Glorot-uniform weights from the given generator, zero biases; the
    dense head has one row per class (2)."""
    conv_w, conv_b = {}, {}
    for w in KERNEL_WIDTHS:
        conv_w[w] = _glorot_uniform(rng, (kernels_per_width, w), w, w)
        conv_b[w] = np.zeros(kernels_per_width)
    d = pooled_dim(kernels_per_width, pool_mode)
    dense_w = _glorot_uniform(rng, (2, d), d, 2)
    dense_b = np.zeros(2)
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


def _windows_at(windows, idx):
    """The (..., B, M, width) windows of a `conv_windows` view at positions
    idx (..., B, M), as one take from `runs`, whose row n is the contiguous
    padded buffer's values n to n + width - 1 (padded row r's window at t is
    row r * padded_len + t)."""
    *lead, T, width = windows.shape
    padded_len = T + width - 1
    rows = math.prod(lead)
    runs = np.lib.stride_tricks.as_strided(
        windows, (rows * padded_len - width + 1, width), windows.strides[-1:] * 2, writeable=False)
    return np.take(runs, idx + (np.arange(rows) * padded_len).reshape(*lead, 1), axis=0)


def relu(pre):
    return np.maximum(0.0, pre)


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
    pre-activation, at its first maximum; a window with no positive entry is
    all zeros after ReLU, so its argmax is its start.
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


def forward_batch(inputs, params, dropout_rate=0.0, rng=None, pool_mode=GLOBAL_POOL):
    """Run the full network on a (B, 13) batch, or a stack of models on a
    (F, B, 13) batch: (probs, cache). Dropout runs iff dropout_rate > 0, and
    `rng` is then a sequence of one generator per model, each drawing its
    model's (B, D) keep-mask.
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
    z = dropped = pooled.reshape(X.shape[:-1] + (-1,))
    mask = None
    if dropout_rate > 0.0:
        mask = np.stack([r.random(z.shape[-2:]) for r in rng]).reshape(z.shape) >= dropout_rate
        dropped = z * mask / (1.0 - dropout_rate)
    probs = dense_softmax(dropped, params)
    return probs, ForwardCache(params, X, windows, pre, idx, z, mask, dropout_rate, dropped, probs)


def dense_softmax(z, params):
    """Class probabilities of the (..., B, D) dense input."""
    return softmax(z @ params.dense_w.swapaxes(-1, -2) + params.dense_b[..., None, :])


def model_backward(cache, labels):
    """Exact mean-cross-entropy gradients of the forward pass that built
    `cache`, whose parameters and pool windows it reads, as a `ModelParams`
    over a new flat buffer laid out like the parameters' (`grads.flat` is the
    whole gradient, `grads.tensors()` names it). For a stack of models,
    labels are (F, B) and the buffer is (F, P).
    """
    params, X = cache.params, cache.inputs
    B = X.shape[-2]
    y = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    if y.shape != X.shape[:-1]:
        raise ShapeMismatchError("label count does not match batch size")

    # Combined softmax + cross-entropy gradient, averaged over the batch;
    # subtracting 0.0 leaves the other class's probability as it is.
    dlogits = cache.probs - (y[..., None] == np.arange(cache.probs.shape[-1]))
    dlogits /= B

    grads = params.with_flat(np.empty_like(params.flat))
    grads.dense_w[...] = dlogits.swapaxes(-1, -2) @ cache.dropped
    grads.dense_b[...] = dlogits.sum(axis=-2)
    dz = dlogits @ params.dense_w
    if cache.dropout_mask is not None:
        dz = dz * cache.dropout_mask / (1.0 - cache.dropout_rate)

    idx = cache.pool_idx
    K = params.kernels_per_width
    if idx.shape[-1] == 1:
        # A map's gradient is nonzero at its argmax only, so each row adds one
        # product per tap to the einsum below, and einsum adds the rows in turn
        # onto a zeroed output: the same bits for K >= 2 (the + 0.0 is for numpy
        # versions whose sum starts from the first row and keeps a -0.0 total).
        dtop = dz * (cache.pooled > 0)
        dw = (dtop[..., None] * _windows_at(cache.windows, idx[..., 0])).sum(axis=-3) + 0.0
        db = dtop.sum(axis=-2) + 0.0
        for i, w in enumerate(KERNEL_WIDTHS):
            trim = (KERNEL_WIDTHS[-1] - w) // 2
            grads.conv_w[w][...] = dw[..., i * K : (i + 1) * K, trim : trim + w]
            grads.conv_b[w][...] = db[..., i * K : (i + 1) * K]
        return grads
    # ordered accumulation: overlapping windows can share an argmax
    dpool = dz.reshape(idx.shape)
    dmap = np.zeros_like(cache.pre)
    lead = np.ix_(*map(np.arange, idx.shape[:-1]))
    for wi in range(idx.shape[-1]):
        dmap[(*lead, idx[..., wi])] += dpool[..., wi]
    for i, w in enumerate(KERNEL_WIDTHS):
        bank = slice(i * K, (i + 1) * K)
        dpre = dmap[..., bank, :] * (cache.pre[..., bank, :] > 0)
        grads.conv_w[w][...] = np.einsum("...bkt,...btw->...kw", dpre,
                                         bank_windows(X, cache.windows, w))
        grads.conv_b[w][...] = dpre.sum(axis=(-3, -1))
    return grads


def _sum_taps(weights, taps, out, tmp, odd):
    """Write sum_j weights[:, j] * taps[j] into `out` (K, ...), adding the
    products in the order in which `np.einsum` sums a window (numpy 2.x, two
    lanes): the even taps in one running sum, the odd ones in another, then
    the two lanes, so width 3 is (p0 + p2) + p1 and width 5 is
    ((p0 + p2) + p4) + (p1 + p3). `tmp` and `odd` are scratch like `out`."""
    def product(j, buf):
        return np.multiply(weights[:, j, None, None], taps[j], out=buf)

    product(0, out)
    for j in range(2, len(taps), 2):
        out += product(j, tmp)
    if len(taps) > 1:
        product(1, odd)
        for j in range(3, len(taps), 2):
            odd += product(j, tmp)
        out += odd


def conv_maps(X, params):
    """Pre-activation maps of a (B, 13) batch for one model, position-major:
    (3K, 13, B), with the bits of the per-bank einsum of `forward_batch`
    (whose `ForwardCache.pre` is (B, 3K, 13)).

    The batch is zero-padded once, transposed: row p + 2 of a (17, B) buffer
    holds feature p of every row, so a kernel column's taps over all 13
    positions of all rows are 13 consecutive rows of it, one contiguous
    block. The taps are summed in einsum's order (`_sum_taps`). einsum adds
    that sum to a zeroed output (+ 0.0, which turns a -0.0 sum into +0.0)
    and the bias comes after; the 0.0 goes into the bias, since
    (s + 0.0) + b and s + (b + 0.0) are the same bits for every s and b.
    """
    B, T = X.shape
    pad = KERNEL_WIDTHS[-1] // 2
    padded = np.zeros((T + 2 * pad, B))
    padded[pad : pad + T] = X.T
    K = params.kernels_per_width
    maps = np.empty((len(KERNEL_WIDTHS) * K, T, B))
    tmp, odd = np.empty((2, K, T, B))
    for i, w in enumerate(KERNEL_WIDTHS):
        first = pad - w // 2
        taps = [padded[first + j : first + j + T] for j in range(w)]
        bank = maps[i * K : (i + 1) * K]
        _sum_taps(params.conv_w[w], taps, bank, tmp, odd)
        bank += params.conv_b[w][:, None, None] + 0.0
    return maps


def _window_max(maps, pool_mode):
    """Each pool window's running maximum over position-major (M, T, B) maps:
    (M, W, B). It is the value `_relu_pool_batch` gathers at the window's
    first argmax (the maps hold no -0.0, so no two zeros can differ)."""
    T = maps.shape[-2]
    size, stride = _pool_geometry(pool_mode, T)
    reach = T - size + 1  # positions at which a window can start
    top = maps[:, :reach:stride].copy()
    for offset in range(1, size):
        np.maximum(top, maps[:, offset : offset + reach : stride], out=top)
    return top


def infer_probs(inputs, params, pool_mode=GLOBAL_POOL):
    """(B, 2) class probabilities of a (B, 13) batch for one model, without
    dropout: the bits of `forward_batch(inputs, params, pool_mode=pool_mode)[0]`
    with no cache and no argmax, from a few long contiguous multiply-adds per
    block of rows (`conv_maps`). A block holds at most INFER_BLOCK_ELEMENTS
    map values; the dense head runs once on the whole (B, D) input.
    """
    X = np.atleast_2d(np.ascontiguousarray(inputs, dtype=float))
    B, T = X.shape
    maps_k = len(KERNEL_WIDTHS) * params.kernels_per_width
    rows = max(1, INFER_BLOCK_ELEMENTS // (maps_k * T))
    pooled = np.empty((B, maps_k, n_pool_windows(pool_mode, T)))
    for start in range(0, B, rows):
        top = _window_max(conv_maps(X[start : start + rows], params), pool_mode)
        pooled[start : start + rows] = top.transpose(2, 0, 1)
    return dense_softmax(relu(pooled).reshape(B, -1), params)
