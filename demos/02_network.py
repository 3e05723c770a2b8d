"""Inspect the network on one row: the three kernel banks' pre-activation
maps (zero same-padding keeps every map 13 long), ReLU and max pooling, the
dense head and softmax, and confirm the analytic gradients against finite
differences.

Run: python3 demos/02_network.py
"""

import numpy as np

from cardioseq import network as nn
from cardioseq import training as tr

rng = np.random.default_rng(0)
np.set_printoptions(precision=3, suppress=True, linewidth=100)

# A network with 2 kernels per width. Kernel 0 of the width-3 bank is set to
# ones with zero bias, so its map is a sliding 3-sum of the zero-padded row.
params = nn.init_params(2, rng)
params.conv_w[3][0], params.conv_b[3][0] = 1.0, 0.0
x = np.array([[1.0, 0.0, 2.0, 0.0, 1.0, 0, 0, 0, -1.0, 0, 0, 0, 0.5]])

# One row through the batched forward pass; the cache keeps what it computed.
# The banks' maps are stacked along the kernel axis, width 1 first, and are
# position-major: (map, position, row).
probs, cache = nn.forward_batch(x, params)
K = params.kernels_per_width
print(f"input row: {x[0]}")
for i, w in enumerate(nn.KERNEL_WIDTHS):
    print(f"\nwidth-{w} bank pre-activations (one map per kernel):")
    print(cache.maps[i * K : (i + 1) * K, :, 0])

# Global max pooling of ReLU(map): one value per kernel, and where it sat
# (the positions the backward derives from the maps and pooled values).
print(f"\npooled values (dense input): {cache.pooled[0]}")
idx = nn.pool_positions(cache.maps, cache.pooled, cache.pool_mode)
print(f"argmax positions:            {idx[0, :, 0]}")
print(f"class probabilities: {probs[0, 0]:.6f} {probs[0, 1]:.6f} (sum {probs[0].sum()})")

print(f"\nrelu([-1, 0, 2]) = {nn.relu(np.array([-1.0, 0.0, 2.0]))}")
print(f"softmax([ln1, ln3]) = {nn.softmax([np.log(1.0), np.log(3.0)])}")

# Gradient check: every analytic gradient vs central finite differences.
small = nn.init_params(2, rng)
X = rng.standard_normal((4, 13))
y = rng.integers(0, 2, size=4)
_, cache = nn.forward_batch(X, small)
grads = nn.model_backward(cache, y).tensors()

h = 1e-5
worst = 0.0
for name, a in small.tensors().items():
    it = np.nditer(a, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        orig = a[i]
        a[i] = orig + h
        lp = tr.batch_loss(small, X, y)[0]
        a[i] = orig - h
        lm = tr.batch_loss(small, X, y)[0]
        a[i] = orig
        fd = (lp - lm) / (2 * h)
        denom = max(abs(fd), abs(grads[name][i]), 1e-8)
        worst = max(worst, abs(fd - grads[name][i]) / denom)
print(f"\nworst relative gradient error vs finite differences: {worst:.2e}")
