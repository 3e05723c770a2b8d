"""Cold start: scipy is imported at the first PSO-ELM ridge solve, so importing
the package and running any command that fits no PSO-ELM loads numpy only.

Importing it also leaves numpy's ufunc buffer size at numpy's default: only
the training loop sets its own, and restores it.

Each check runs in a fresh interpreter, since this test process has long
since loaded scipy.
"""

import json
import os
import subprocess
import sys

from cardioseq import model_io, synthetic

from conftest import write_statlog_file

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

PRELUDE = """
import contextlib, io, json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
"""

# Imports the CLI, then runs each command of argv[1] ({name: argv}) through
# cli.main, printing the scipy modules loaded after each step as JSON.
RUN_COMMANDS = PRELUDE + """
import cardioseq, cardioseq.cli
loaded = {"import": scipy_modules()}
for name, argv in json.loads(sys.argv[1]).items():
    with contextlib.redirect_stdout(io.StringIO()):
        code = cardioseq.cli.main(argv)
    loaded[name] = [code, scipy_modules()]
print(json.dumps(loaded))
"""

FIT_PSO_ELM = PRELUDE + """
from cardioseq import baselines, synthetic
before = scipy_modules()
baselines.pso_elm_train(synthetic.separable_dataset(30, seed=1), swarm_size=2, iterations=1)
print(json.dumps([before, "scipy.linalg" in sys.modules]))
"""


def run_fresh(code, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_commands_that_fit_no_pso_elm_load_no_scipy(fitted_models, tmp_path):
    data = tmp_path / "h.dat"
    write_statlog_file(data, synthetic.separable_dataset(40, seed=3))
    out = str(tmp_path / "out")
    commands = {
        "validate": ["validate", "--data", str(data)],
        "cv cnn": ["cv", "--data", str(data), "--model", "cnn", "--epochs", "1",
                   "--kernels", "2", "--k", "3", "--out", out],
        "cv dv_logistic": ["cv", "--data", str(data), "--model", "dv_logistic", "--k", "3",
                           "--out", out],
    }
    record = ",".join(["1"] * 13)
    for kind, model in fitted_models.items():
        path = tmp_path / f"{kind}.txt"
        model_io.save_model(path, model)
        commands[f"predict {kind}"] = ["predict", str(path), record]
    loaded = run_fresh(RUN_COMMANDS, json.dumps(commands))
    assert loaded == {"import": [], **{name: [0, []] for name in commands}}


def test_pso_elm_fit_loads_scipy_linalg():
    """The guard above is not vacuous: the first ridge solve does import it."""
    assert run_fresh(FIT_PSO_ELM) == [[], True]


def test_import_leaves_numpy_buffer_size_at_its_default():
    code = ("import json, numpy; default = numpy.getbufsize(); import cardioseq.cli; "
            "print(json.dumps([default, numpy.getbufsize()]))")
    default, after = run_fresh(code)
    assert after == default
