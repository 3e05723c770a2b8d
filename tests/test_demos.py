"""Smoke test: the narrative demos run to completion.

`05_cross_validation.py` takes about 12 s and is left out to keep this
suite fast; the cross-validation code it walks through is covered by
test_evaluation.py.
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
])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", demo)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
