"""Reference ops: one kernel, one map, one dense layer, one row, and the
per-bank einsums.

They are test oracles for the batched network in `cardioseq.network`, which
is the only path the package runs: readable one-at-a-time versions of the
convolution, pooling and dense steps that the batched tests compare against,
the einsum contraction whose bits `network.forward_batch`'s maps reproduce,
an argmax pool over those maps, and the dense backward (gradient maps and
weight-gradient einsums) whose bits `network.model_backward` reproduces.
"""

from dataclasses import dataclass

import numpy as np

from cardioseq import network as nn
from cardioseq.data import N_FEATURES
from cardioseq.errors import ShapeMismatchError


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


def conv_forward(feature_matrix, kernel):
    """Pre-activation feature map for a single kernel: stride 1, zero
    same-padding, so the output length equals the input length."""
    x = np.asarray(feature_matrix, dtype=float).reshape(1, -1)
    return nn.conv_windows(x, kernel.width)[0] @ kernel.weights + kernel.bias


def max_pool(feature_map, mode=nn.GLOBAL_POOL):
    """Max pooling over a 1D map; returns (pooled values, argmax indices).

    Global mode returns scalars. Ties break toward the lowest index.
    """
    m = np.asarray(feature_map, dtype=float)
    if m.size == 0:
        raise ValueError("cannot pool an empty feature map")
    size, stride = (m.size, m.size) if mode[0] == "global" else mode[1:]
    starts = range(0, m.size - size + 1, stride)
    pooled = np.array([m[s : s + size].max() for s in starts])
    idx = np.array([s + int(np.argmax(m[s : s + size])) for s in starts])
    if mode[0] == "global":
        return pooled[0], int(idx[0])
    return pooled, idx


def dense_forward(inputs, layer):
    x = np.asarray(inputs, dtype=float)
    if x.shape[-1] != layer.weights.shape[1]:
        raise ValueError(f"dense expects {layer.weights.shape[1]} inputs, got {x.shape[-1]}")
    return x @ layer.weights.T + layer.biases


def model_forward(feature_matrix, params, dropout_rate=0.0, rng=None,
                  mode="infer", pool_mode=nn.GLOBAL_POOL):
    """Forward pass of one 13x1 feature matrix: (probs, cache); train mode
    drops out with the one generator `rng`."""
    x = np.asarray(feature_matrix, dtype=float).reshape(1, N_FEATURES)
    if mode != "train":
        dropout_rate = 0.0
    probs, cache = nn.forward_batch(x, params, dropout_rate, [rng], pool_mode)
    return probs[0], cache


def einsum_maps(X, params):
    """(..., B, 3K, 13) pre-activation maps of a (..., B, 13) batch for one
    model or a stack: one einsum per bank over its zero-padded windows, plus
    the bias."""
    windows = nn.conv_windows(X, nn.KERNEL_WIDTHS[-1])
    return np.concatenate([
        np.einsum("...btw,...kw->...bkt", nn.bank_windows(X, windows, w), params.conv_w[w])
        + params.conv_b[w][..., None, :, None]
        for w in nn.KERNEL_WIDTHS], axis=-2)


def relu_pool(pre, pool_mode):
    """Max-pool ReLU(pre) of (..., M, 13) maps by argmax: pooled values and
    positions, both (..., M, W). A window's position is its first argmax, or
    its start when its maximum is <= 0 (all zeros after ReLU)."""
    T = pre.shape[-1]
    size, stride = (T, T) if pool_mode[0] == "global" else pool_mode[1:]
    starts = np.arange(0, T - size + 1, stride)
    idx = np.stack([pre[..., s : s + size].argmax(axis=-1) + s for s in starts], axis=-1)
    top = np.take_along_axis(pre, idx, axis=-1)
    return nn.relu(top), np.where(top > 0, idx, starts)


def einsum_backward(cache, labels):
    """(gradients, dpre) of `network.model_backward`'s contract, computed
    densely from the cache's inputs and parameters alone: the per-bank
    einsum maps (`einsum_maps`) and an argmax pool over them (`relu_pool`),
    every map's gradient spread over all 13 positions (ordered accumulation
    for overlapping windows), gated by ReLU into dpre (..., B, 3K, 13), then
    one weight-gradient einsum and one bias sum per bank over dpre and the
    bank's windows."""
    params, X = cache.params, cache.inputs
    y = np.asarray(labels)
    dlogits = cache.probs - (y[..., None] == np.arange(cache.probs.shape[-1]))
    dlogits /= X.shape[-2]
    grads = {"dense_w": dlogits.swapaxes(-1, -2) @ cache.dropped,
             "dense_b": dlogits.sum(axis=-2)}
    dz = dlogits @ params.dense_w
    if cache.dropout_mask is not None:
        dz = dz * cache.dropout_mask / (1.0 - cache.dropout_rate)
    pre = einsum_maps(X, params)
    _, idx = relu_pool(pre, cache.pool_mode)
    windows = nn.conv_windows(X, nn.KERNEL_WIDTHS[-1])
    dpool = dz.reshape(idx.shape)
    if idx.shape[-1] == 1:
        dmap = np.where(np.arange(X.shape[-1]) == idx, dpool, 0.0)
    else:
        dmap = np.zeros_like(pre)
        lead = np.ix_(*map(np.arange, idx.shape[:-1]))
        for wi in range(idx.shape[-1]):
            dmap[(*lead, idx[..., wi])] += dpool[..., wi]
    K = params.kernels_per_width
    dpre = []
    for i, w in enumerate(nn.KERNEL_WIDTHS):
        maps = slice(i * K, (i + 1) * K)  # a contiguous product: einsum's order follows layout
        bank = dmap[..., maps, :] * (pre[..., maps, :] > 0)
        dpre.append(bank)
        grads[f"conv_w{w}"] = np.einsum("...bkt,...btw->...kw", bank,
                                        nn.bank_windows(X, windows, w))
        grads[f"conv_b{w}"] = bank.sum(axis=(-3, -1))
    return grads, np.concatenate(dpre, axis=-2)
