"""Single-sample reference ops: one kernel, one map, one dense layer, one row.

They are test oracles for the batched network in `cardioseq.network`, which
is the only path the package runs: readable one-at-a-time versions of the
convolution, pooling and dense steps that the batched tests compare against.
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
