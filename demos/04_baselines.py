"""Fit the two comparison baselines on the synthetic set: logistic
regression over dummy-encoded features, and an extreme learning machine
whose hidden layer is tuned by a particle swarm.

Run: python3 demos/04_baselines.py
"""

import numpy as np

from cardioseq import baselines as bl
from cardioseq import synthetic

dataset = synthetic.separable_dataset(200, seed=1)

logit = bl.dv_logistic_train(dataset)
acc = float(np.mean(logit.predict_batch(dataset) == dataset.labels))
print(f"Dv-Logistic training accuracy: {acc:.3f}")
print(f"  design-matrix width: {logit.encoder.width} "
      "(all features numeric here, so no indicator columns)")

elm = bl.pso_elm_train(dataset, hidden_size=32, swarm_size=20, iterations=30, seed=2)
acc = float(np.mean(elm.predict_batch(dataset) == dataset.labels))
print(f"\nPSO-ELM training accuracy: {acc:.3f}")
print(f"  swarm best validation accuracy per iteration (every 5th): "
      f"{[round(v, 3) for v in elm.gbest_history[::5]]}")
print(f"  global best is non-decreasing: "
      f"{all(b >= a for a, b in zip(elm.gbest_history, elm.gbest_history[1:]))}")
print(f"  worst ridge-solve residual: {elm.max_solve_residual:.2e}")

# Both baselines share the CNN's interface: predict_proba maps raw rows to
# (n, 2) class probabilities. PSO-ELM's are the softmax of its least-squares
# scores: ordered like the scores, but not calibrated.
print("\npredict_proba of the first three rows:")
print(f"  Dv-Logistic: {logit.predict_proba(dataset.X[:3]).round(3).tolist()}")
print(f"  PSO-ELM:     {elm.predict_proba(dataset.X[:3]).round(3).tolist()}")
