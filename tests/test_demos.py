"""Smoke test: the narrative demos run to completion, with runtime and user
warnings as errors, as pytest's `filterwarnings` makes them for the tests.

`05_cross_validation.py` is the slowest, at about 3 s on a 2-core host: one
Dv-Logistic cross-validation and a three-model comparison table on 200 rows.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


@pytest.mark.parametrize("demo", [
    "01_data_pipeline.py",
    "02_network.py",
    "03_training.py",
    "04_baselines.py",
    "05_cross_validation.py",
])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-W", "error::UserWarning",
         os.path.join(ROOT, "demos", demo)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
