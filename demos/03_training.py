"""Train the network on the separable synthetic set and watch the curve
reach 100% accuracy with final loss below 0.2, then save and reload the
model file.

Run: python3 demos/03_training.py
"""

import os
import tempfile

from cardioseq import model_io, synthetic
from cardioseq import training as tr

dataset = synthetic.separable_dataset(200, seed=1)
model = tr.train(dataset, tr.Hyperparams(seed=7))

print("epoch  train_acc  train_loss")
for i in range(0, len(model.curve), 10):
    print(f"{i + 1:5d}  {model.curve.train_accuracy[i]:9.3f}  "
          f"{model.curve.train_loss[i]:10.4f}")
print(f"{len(model.curve):5d}  {model.curve.train_accuracy[-1]:9.3f}  "
      f"{model.curve.train_loss[-1]:10.4f}")

cls, probs = tr.predict(model, dataset.records[0])
print(f"\nfirst training sample: true {dataset.records[0].label}, "
      f"predicted {cls}, probabilities {probs}")

with tempfile.NamedTemporaryFile(suffix=".txt", delete=False) as fh:
    path = fh.name
model_io.save_model(path, model)
reloaded = model_io.load_model(path)
os.unlink(path)
cls2, probs2 = tr.predict(reloaded, dataset.records[0])
print(f"after save/load roundtrip: predicted {cls2}, probabilities {probs2}")
