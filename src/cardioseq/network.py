"""Forward and backward passes of the multi-width 1D conv network.

Architecture: the 13x1 standardized feature column is convolved with banks
of width-1, width-3 and width-5 kernels (stride 1, zero same-padding, so
every feature map has length 13), passed through ReLU, max-pooled, the
pooled values concatenated in fixed order (width 1 bank, then 3, then 5;
kernel index ascending), optionally dropped out (inverted dropout), and
fed to a dense layer with a 2-class softmax head.

A batch runs through one forward path, `forward_batch`, whether it is a
training step, a training-set score or one record to predict. Its maps are
built position-major, (3K, 13, B), block of rows by block of rows: the
taps at one offset of every window of every row of a block are one
contiguous slice of the block's zero-padded, transposed inputs, so the
three banks are a few long multiply-adds, summed in the order of one
`np.einsum` per bank and so with its bits. They are pooled position-outer,
(13, 3K, B): a stack of models copies each block so (one copy, then every
max over positions runs on 13 contiguous slices), and a single model reads
a transposed view. A window's pooled value is the ReLU of its largest
pre-activation. The forward keeps what it computed
(`ForwardCache`); the backward finds the pool positions, the input windows
and, past one row block, the maps itself, and gates by ReLU on the pooled
values. With one pool window per map (global pooling) it gathers each
map's window at its argmax; with more it scatters into gradient maps and
runs a weight-gradient einsum per bank. All parameter tensors are views
into one flat float64 buffer (`ModelParams.flat`), laid out as
`param_shapes` lists them, and so are the gradients (`model_backward`):
an optimizer step is a handful of elementwise operations on whole buffers. Every step gives the bits of an
einsum per bank on its own windows, but for the one-window backward at
K = 1, whose kernel gradients sum row by row and so differ in the last
bits.

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
from .errors import ShapeMismatchError

KERNEL_WIDTHS = (1, 3, 5)  # `_map_blocks` sums these three widths' taps by hand

GLOBAL_POOL = ("global",)

# `forward_batch` builds maps in row blocks of at most this many values (3K
# maps of 13 positions per row and model), as SWARM_BLOCK_ELEMENTS bounds a
# block of PSO particles.
INFER_BLOCK_ELEMENTS = 2**18


def parse_pool_mode(text):
    """Parse 'global' or 'windowed:SIZE:STRIDE' into a pool-mode tuple;
    the window must fit the 13-long map (1 <= SIZE <= 13) and STRIDE >= 1."""
    if text == "global":
        return GLOBAL_POOL
    kind, *numbers = text.split(":")
    # ASCII digits only: str.isdecimal alone also takes other scripts' digits
    if kind == "windowed" and len(numbers) == 2 and all(
            n.isascii() and n.isdecimal() for n in numbers):
        size, stride = map(int, numbers)
        if 1 <= size <= N_FEATURES and stride >= 1:
            return ("windowed", size, stride)
    raise ValueError(f"expected global or windowed:SIZE:STRIDE with 1 <= SIZE <= {N_FEATURES} "
                     f"and STRIDE >= 1, got {text!r}")


def format_pool_mode(mode):
    if mode == GLOBAL_POOL:
        return "global"
    return f"windowed:{mode[1]}:{mode[2]}"


def pool_windows(pool_mode, length=N_FEATURES):
    """(size, starts) of a pool mode's windows over a `length`-long map: the
    whole map once for global pooling, else every window of SIZE that starts
    at a multiple of STRIDE and fits."""
    size, stride = (length, length) if pool_mode == GLOBAL_POOL else pool_mode[1:]
    return size, range(0, length - size + 1, stride)


def tensor_views(flat, shapes):
    """Name -> view of the next slice of `flat`'s last axis, reshaped, in
    `shapes` order; a leading model axis of `flat` is kept."""
    views, offset = {}, 0
    for name, shape in shapes.items():
        size = math.prod(shape)
        views[name] = flat[..., offset : offset + size].reshape(flat.shape[:-1] + shape)
        offset += size
    return views


def param_shapes(kernels_per_width, pool_mode=GLOBAL_POOL):
    """Name -> shape of one model's parameter tensors, in the order of the flat
    layout: per width (1, 3, 5) its (K, w) kernels and (K,) biases, then the
    dense head's (2, D) weights and (2,) biases, D the pooled values per row."""
    K = kernels_per_width
    shapes = {}
    for w in KERNEL_WIDTHS:
        shapes[f"conv_w{w}"], shapes[f"conv_b{w}"] = (K, w), (K,)
    D = len(KERNEL_WIDTHS) * K * len(pool_windows(pool_mode)[1])
    return {**shapes, "dense_w": (2, D), "dense_b": (2,)}


class ModelParams:
    """Trainable state: one kernel bank per width plus the dense head.

    conv_w[w], conv_b[w], dense_w and dense_b are reshaped views of one flat
    float64 buffer, `flat`, laid out as `shapes` says (`param_shapes`), so
    an in-place edit of a tensor edits `flat` and the reverse. A stack of
    models (`stack`) has a leading model axis on `flat` and on every
    tensor; `shapes` are always those of one model.
    """

    def __init__(self, flat, shapes):
        self.flat, self.shapes = flat, shapes
        self._tensors = tensor_views(flat, shapes)
        self.conv_w = {w: self._tensors[f"conv_w{w}"] for w in KERNEL_WIDTHS}
        self.conv_b = {w: self._tensors[f"conv_b{w}"] for w in KERNEL_WIDTHS}
        self.dense_w, self.dense_b = self._tensors["dense_w"], self._tensors["dense_b"]

    @classmethod
    def from_tensors(cls, tensors):
        """Copies of the named tensors in one new flat buffer, laid out in the
        dict's order."""
        flat = np.concatenate([np.ravel(a) for a in tensors.values()], dtype=float)
        return cls(flat, {name: np.shape(a) for name, a in tensors.items()})

    def with_flat(self, flat):
        """Parameters shaped like these over another flat buffer (no copy);
        a (F, P) buffer gives a stack of F models."""
        return ModelParams(flat, self.shapes)

    @staticmethod
    def stack(models):
        """One stack of F models from F single models (copies)."""
        return models[0].with_flat(np.stack([m.flat for m in models]))

    def model(self, f):
        """Model f of a stack, over row f of `flat` (no copy)."""
        return self.with_flat(self.flat[f])

    def tensors(self):
        """Named parameter tensors (views of `flat`) in layout order."""
        return dict(self._tensors)

    def copy(self):
        return self.with_flat(self.flat.copy())

    @property
    def kernels_per_width(self):
        return self.conv_w[KERNEL_WIDTHS[0]].shape[-2]


@dataclass
class ForwardCache:
    """What `forward_batch` computed, no more: `model_backward` builds the
    rest. The maps are position-outer, (13, 3K, B): one (3K, B) slice per
    position, the banks stacked along its kernel axis, width 1 first (bank
    i is maps i*K to (i+1)*K). A stack of models adds a leading axis and
    owns its copy; a single model's maps are a transposed view."""

    params: ModelParams
    inputs: np.ndarray  # (B, 13)
    pool_mode: tuple
    maps: np.ndarray  # (13, 3K, B) position-outer if one row block held the batch, else None
    pooled: np.ndarray  # (B, D) pre-dropout concatenation
    dropout_mask: np.ndarray  # (B, D), or None without dropout
    dropout_rate: float
    dropped: np.ndarray  # (B, D) dense input
    probs: np.ndarray  # (B, 2)


def _glorot_uniform(rng, shape, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def init_params(kernels_per_width, rng, pool_mode=GLOBAL_POOL):
    """Glorot-uniform weights from the given generator, zero biases; the
    dense head has one row per class (2)."""
    shapes = param_shapes(kernels_per_width, pool_mode)
    params = ModelParams(np.zeros(sum(map(math.prod, shapes.values()))), shapes)
    for w, kernels in params.conv_w.items():
        kernels[...] = _glorot_uniform(rng, kernels.shape, w, w)
    d = params.dense_w.shape[1]
    params.dense_w[...] = _glorot_uniform(rng, params.dense_w.shape, d, 2)
    return params


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


def _map_blocks(X, params):
    """The pre-activation maps of a (..., B, 13) batch, position-outer, one
    block of rows at a time: yields (first row, (..., 13, 3K, rows) maps),
    a block holding at most INFER_BLOCK_ELEMENTS map values, with the bits
    of one einsum per bank ("...btw,...kw->...bkt") plus the bias.

    A block is zero-padded once, transposed: row p + 2 of a (..., 17, rows)
    buffer holds feature p of every row, so the taps at offset o of the
    5-wide windows of all 13 positions of all rows are its 13 rows from row
    o on, one contiguous slice x[o], and one multiply gives the products of
    every bank that reads that offset into position-major (..., 3K, 13,
    rows) maps (the scratch is 4K such maps). numpy 2.x's einsum sums a
    window in two lanes, the even taps in one running sum, the odd ones in
    another, then the lanes: width 3 is (p0 + p2) + p1 and width 5 is
    ((p0 + p2) + p4) + (p1 + p3). The centre offset 2 is p0 of width 1, p1
    of width 3 and p2 of width 5; offsets 1 and 3 add up width 3's even
    lane and width 5's odd lane in one sum; offsets 0 and 4 complete width
    5's even lane. (Addition commutes, so p1 + (p0 + p2) has the bits of
    (p0 + p2) + p1.) einsum adds the sum to a zeroed output (+ 0.0, which
    turns a -0.0 sum into +0.0) and the bias comes after; the 0.0 goes into
    the bias, since (s + 0.0) + b and s + (b + 0.0) are the same bits for
    every s and b. So the maps hold no -0.0.

    A stack's block is then copied position-outer, so that a reduction over
    positions is one pass over 13 contiguous (3K, rows) slices, not 13-long
    strided loops of `rows` values per map. The copy's array is allocated
    first and holds the taps' products until the copy; the maps and the
    side sums share one allocation after it. So the copy, which the
    forward's cache keeps, sits below all that the step frees, and the
    block freed after the forward can hold the rest of the step. Other
    arrangements let glibc trim the heap and fault it back every step: up
    to 400 minor faults per step, 17,000-22,000 per default CNN `cv`
    against about 460. A single model's block is a view of the
    position-major maps, with no copy: its rows are many (scoring) or one
    (`predict`), where a copy gains nothing.
    """
    *lead, B, T = X.shape
    K = params.kernels_per_width
    w1, w3, w5 = (params.conv_w[w] for w in KERNEL_WIDTHS)
    centre, left, right = (np.concatenate(taps, -1)[..., None, None] for taps in (
        (w1[..., 0], w3[..., 1], w5[..., 2]), (w3[..., 0], w5[..., 1]), (w3[..., 2], w5[..., 3])))
    bias = (np.concatenate([params.conv_b[w] for w in KERNEL_WIDTHS], -1) + 0.0)[..., None, None]
    rows = max(1, INFER_BLOCK_ELEMENTS // (math.prod(lead) * len(KERNEL_WIDTHS) * K * T))
    for lo in range(0, B, rows):
        n = min(rows, B - lo)
        padded = np.zeros((*lead, 1, T + 4, n))
        padded[..., 0, 2 : 2 + T, :] = X[..., lo : lo + n, :].swapaxes(-1, -2)
        x = [padded[..., o : o + T, :] for o in range(5)]
        if lead:  # the copy's array first, scratch until the copy; maps and sides after it
            outer = np.empty((*lead, T, 3 * K, n))
            work = np.empty(5 * K * math.prod(lead) * T * n)
            maps = np.multiply(centre, x[2], out=work[: 3 * work.size // 5].reshape(
                *lead, 3 * K, T, n))
            sides = work[maps.size :].reshape(*lead, 2 * K, T, n)
            scratch = outer.reshape(-1)[: sides.size].reshape(sides.shape)
        else:
            maps = np.multiply(centre, x[2])
            sides, scratch = np.empty((2, 2 * K, T, n))
        np.multiply(left, x[1], out=sides)
        sides += np.multiply(right, x[3], out=scratch)
        even5 = maps[..., 2 * K :, :, :]
        even5 += np.multiply(w5[..., 0, None, None], x[0], out=scratch[..., :K, :, :])
        even5 += np.multiply(w5[..., 4, None, None], x[4], out=scratch[..., :K, :, :])
        maps[..., K:, :, :] += sides
        maps += bias
        if lead:
            outer[...] = maps.swapaxes(-3, -2)
            yield lo, outer
        else:
            yield lo, maps.swapaxes(-3, -2)


def forward_maps(X, params):
    """(..., 13, 3K, B) pre-activation maps of a whole batch, position-outer."""
    return np.concatenate([maps for _, maps in _map_blocks(X, params)], -1)


def pool_positions(maps, pooled, pool_mode):
    """(..., B, 3K, W) position of each pool window's maximum in (..., 13, 3K, B)
    maps pooled to (..., B, 3K * W): the first position that reaches it, or
    the window's start when it is <= 0 (all zeros after ReLU)."""
    T, M, _ = maps.shape[-3:]
    size, starts = pool_windows(pool_mode, T)
    pooled = pooled.reshape(pooled.shape[:-1] + (M, -1))
    idx = np.empty(pooled.shape, dtype=np.int64)
    # a hit at offset j scores size - j, so the highest score is the first hit
    score = np.arange(size, 0, -1, dtype=np.uint8)[:, None, None]
    for wi, start in enumerate(starts):
        top = pooled[..., wi].swapaxes(-1, -2)
        hit = np.equal(maps[..., start : start + size, :, :], top[..., None, :, :])
        first = (start + size) - (hit.view(np.uint8) * score).max(axis=-3)
        idx[..., wi] = np.where(top > 0, first, start).swapaxes(-1, -2)
    return idx


def forward_batch(inputs, params, dropout_rate=0.0, rng=None, pool_mode=GLOBAL_POOL):
    """Run the full network on a (B, 13) batch, or a stack of models on a
    (F, B, 13) batch: (probs, cache). Dropout runs iff dropout_rate > 0, and
    `rng` is then a sequence of one generator per model, each drawing its
    model's (B, D) keep-mask.

    The maps are built and pooled one row block at a time (`_map_blocks`),
    so scratch stays small however many rows are scored.
    """
    X = np.atleast_2d(np.ascontiguousarray(inputs, dtype=float))
    *lead, B, T = X.shape
    size, starts = pool_windows(pool_mode, T)
    pooled = np.empty((*lead, B, len(KERNEL_WIDTHS) * params.kernels_per_width, len(starts)))
    kept = None
    for lo, maps in _map_blocks(X, params):
        for wi, start in enumerate(starts):
            top = maps[..., start : start + size, :, :].max(axis=-3)
            pooled[..., lo : lo + maps.shape[-1], :, wi] = top.swapaxes(-1, -2)
        if maps.shape[-1] == B:  # one block holds the batch: keep it for the backward
            kept = maps
    z = dropped = relu(pooled).reshape(*lead, B, -1)
    mask = None
    if dropout_rate > 0.0:
        mask = np.stack([r.random(z.shape[-2:]) for r in rng]).reshape(z.shape) >= dropout_rate
        dropped = z * mask / (1.0 - dropout_rate)
    probs = dense_softmax(dropped, params)
    return probs, ForwardCache(params, X, pool_mode, kept, z, mask, dropout_rate, dropped, probs)


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
    B, T = X.shape[-2:]
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

    maps = forward_maps(X, params) if cache.maps is None else cache.maps
    idx = pool_positions(maps, cache.pooled, cache.pool_mode)
    windows = conv_windows(X, KERNEL_WIDTHS[-1])
    K = params.kernels_per_width
    dtop = dz * (cache.pooled > 0)
    if idx.shape[-1] == 1:
        # A map's gradient is nonzero at its argmax only, so each row adds one
        # product per tap to the einsum below, and einsum adds the rows in turn
        # onto a zeroed output: the same bits for K >= 2 (the + 0.0 is for numpy
        # versions whose sum starts from the first row and keeps a -0.0 total).
        dw = (dtop[..., None] * _windows_at(windows, idx[..., 0])).sum(axis=-3) + 0.0
        db = dtop.sum(axis=-2) + 0.0
        for i, w in enumerate(KERNEL_WIDTHS):
            trim = (KERNEL_WIDTHS[-1] - w) // 2
            grads.conv_w[w][...] = dw[..., i * K : (i + 1) * K, trim : trim + w]
            grads.conv_b[w][...] = db[..., i * K : (i + 1) * K]
        return grads
    # Ordered accumulation: overlapping windows can share an argmax. This is
    # the dense ReLU gate's scatter: a live window's argmax has a map value
    # > 0; a dead window points at its start, where the map is <= its max
    # <= 0, so no live one does. Only zeros' signs differ, which sums drop.
    dtop = dtop.reshape(idx.shape)
    dmap = np.zeros(idx.shape[:-1] + (T,))
    lead = np.ix_(*map(np.arange, idx.shape[:-1]))
    for wi in range(idx.shape[-1]):
        dmap[(*lead, idx[..., wi])] += dtop[..., wi]
    for i, w in enumerate(KERNEL_WIDTHS):
        # a C-contiguous copy per bank: the einsum's summation order follows layout
        dpre = np.ascontiguousarray(dmap[..., i * K : (i + 1) * K, :])
        grads.conv_w[w][...] = np.einsum("...bkt,...btw->...kw", dpre, bank_windows(X, windows, w))
        grads.conv_b[w][...] = dpre.sum(axis=(-3, -1))
    return grads
