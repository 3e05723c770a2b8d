"""Walk through the data pipeline: parsing, imputation, Z-scoring and the
per-sample feature matrix.

Run: python3 demos/01_data_pipeline.py
"""

import os
import tempfile

import numpy as np

from cardioseq import data as dp

# A few rows in the cleveland dialect; note the `?` missing markers.
CLEVELAND_ROWS = """\
63.0,1.0,1.0,145.0,233.0,1.0,2.0,150.0,0.0,2.3,3.0,0.0,6.0,0
67.0,1.0,4.0,160.0,286.0,0.0,2.0,108.0,1.0,1.5,2.0,3.0,3.0,2
41.0,0.0,2.0,130.0,204.0,0.0,2.0,172.0,0.0,1.4,1.0,?,3.0,1
56.0,1.0,2.0,120.0,236.0,0.0,0.0,178.0,0.0,0.8,1.0,0.0,?,0
"""

with tempfile.NamedTemporaryFile("w", suffix=".data", delete=False) as fh:
    fh.write(CLEVELAND_ROWS)
    path = fh.name

dataset = dp.parse_dataset(path, "cleveland")
os.unlink(path)
print(f"parsed {len(dataset)} records; labels {dataset.labels.tolist()}")
print(f"missing anywhere: {dataset.has_missing}")

# Imputation: numeric columns get the column mean, categorical the mode.
# The fill values are fit on one dataset and can be applied to another.
fills = dp.fill_values(dataset)
imputed = dp.impute_with_values(dataset, fills)
print(f"\nfill values: ca={fills[11]}, thal={fills[12]}")
print("after imputation:")
for i, row in enumerate(imputed.X):
    print(f"  record {i}: ca={row[11]}, thal={row[12]}")

# Z-score with population statistics; constant columns map to zero.
scaler = dp.fit_scaler(imputed)
arr = dp.scale_values(imputed.feature_array(), scaler)
print(f"\ncolumn means after scaling (should be ~0): {np.round(arr.mean(axis=0), 12)}")

# Each sample becomes a 13x1 single-channel column matrix for the network.
matrix = arr[0].reshape(dp.N_FEATURES, 1)
print(f"\nfeature matrix shape: {matrix.shape}")
print(matrix.ravel())
