"""cardioseq benchmark: run one workload and print its metrics as JSON.

    python3 benchmarks/run.py --workload paper_cv --seed 1 --seconds 55 --trace 0

Inputs are generated from --seed inside `.bench_runs/` of the checkout and
removed afterwards. Passes over the workload repeat until --seconds would be
exceeded (at least one; two with --trace 1). Every pass's outputs are
checked and fingerprinted.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 passes alternate untraced and traced, and it carries the
per-layer metrics and the tracing overhead. The line before it records the
environment, input sizes, fingerprint and any failed checks; the same record
and the spans of one traced pass go to `.bench_runs/results/`. The exit code
is 1 when a check failed.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"

WORKLOAD_NAMES = ("paper_cv", "scaled_fit")

# One BLAS thread (at most nproc): the matrices are small, and extra
# threads add scheduling noise, not speed.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

IMPORT_REPEATS = 9


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def import_program():
    """Import cardioseq from this checkout's src/, and check where it came from."""
    package = SRC / "cardioseq"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no cardioseq package at {package}")
    sys.path.insert(0, str(SRC))
    importlib.import_module("cardioseq.cli")
    loaded = Path(sys.modules["cardioseq"].__file__).resolve().parent
    if loaded != package.resolve():
        raise SystemExit(f"error: imported cardioseq from {loaded}, not {package}")


def import_samples():
    """Seconds `import cardioseq.cli` takes in fresh interpreters, and the
    mean reference time (speed.py) this process sampled meanwhile. Most of
    the import is loading numpy and scipy, whose time follows the reference
    kernel from one minute to the next but not from one import to the next,
    so the imports are scaled together by the speed over all of them."""
    from speed import SAMPLER

    code = ("import time; t = time.perf_counter(); import cardioseq.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    samples = []
    with SAMPLER.running():
        start = SAMPLER.mark()
        for _ in range(IMPORT_REPEATS):
            proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                                  capture_output=True, text=True, timeout=60)
            samples.append(float(proc.stdout))
        speed = SAMPLER.speed(start, SAMPLER.mark())
    return samples, speed


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def environment(args, workload):
    import numpy
    import scipy
    from cardioseq import training

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads_env": BLAS_THREADS,
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "seed": args.seed,
        "seconds": args.seconds,
        "sizes": workload.sizes,
        "cnn_default_batch": training.Hyperparams().batch_size,
        "inputs": workload.inputs,
    }


def units_of(name):
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith((".calls", ".errors", ".rows", ".absent_layers")):
        return "count"
    return "ratio"


def write_results(run, args, record):
    results = RUNS / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = results / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if run.first_tracer is not None:
        with open(f"{stem}.spans.csv", "w", encoding="ascii") as fh:
            fh.write("index,name,start,end,parent\n")
            for i, (name, start, end, parent) in enumerate(run.first_tracer.spans()):
                fh.write(f"{i},{name},{start:.9f},{end:.9f},{parent}\n")
    return str(stem.relative_to(ROOT)) + ".json"


def main(argv=None):
    args = parse_args(argv)
    # On SIGTERM, unwind normally so the generated inputs are removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    import_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import measure
    import workloads
    from speed import REFERENCE_SECONDS, SAMPLER

    import_seconds, import_speed = import_samples()
    import_s = median(import_seconds) * REFERENCE_SECONDS / import_speed

    RUNS.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS)
    try:
        workload = workloads.WORKLOADS[args.workload](workdir, args.seed)
        run = measure.Run(workload, traced=bool(args.trace))
        run.measure(args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = run.end_to_end(False, import_s)
    if args.trace:
        metrics = run.per_layer(import_s)
    else:
        metrics = {k: v for k, v in plain.items() if k not in measure.UNGATED}
    latency_calls = sum(len(w.latencies) for p in run.passes[False] for w in p["predict"])
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "fingerprint": run.fingerprints[0],
        "passes": {"untraced": len(run.passes[False]), "traced": len(run.passes[True])},
        "latency_samples": latency_calls,
        "absent_layers": run.first_tracer.absent if run.first_tracer else [],
        "failures": run.checks.failures,
        "ungated": {k: plain[k] for k in measure.UNGATED},
        "phase_seconds": [
            {name: [[phase.seconds, phase.raw_seconds] for phase in phases]
             for name, phases in results.items() if name != "predict"}
            for results in run.passes[False]
        ],
        "import_seconds": import_seconds,
        "import_reference_ms": 1e3 * import_speed,
        "reference_samples": {
            "count": len(SAMPLER.durations),
            "ms_quartiles": [1e3 * q for q in quantiles(SAMPLER.durations, n=4)],
            "nominal_ms": 1e3 * REFERENCE_SECONDS,
        },
        "environment": environment(args, workload),
        "metrics": metrics,
    }
    record["results_file"] = write_results(run, args, record)
    print(json.dumps({k: v for k, v in record.items() if k not in ("metrics", "phase_seconds")},
                     sort_keys=True))
    correct = run.checks.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.checks.attempted,
        "failed": run.checks.failed,
        "metrics": {k: {"value": v, "unit": units_of(k)} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
