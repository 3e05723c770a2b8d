"""Passes over one workload: timing, output checks, fingerprints and spans."""

from __future__ import annotations

import contextlib
import resource
from statistics import median
from time import perf_counter

import numpy as np

import tracing
import workloads
from speed import SAMPLER

# Passes a run makes even past --seconds: one, or one untraced and one traced.
MIN_PASSES = {False: 1, True: 2}
SETUP_REPEATS = 9

E2E_TIMES = ("setup_s", "cnn_s", "pso_elm_s", "dv_logistic_s", "predict_p50_us", "predict_p99_us")

# Measured in every run but printed only as a per-layer metric: a tail
# latency moves with machine noise by more than a regression bound could
# allow, even scaled to nominal speed.
UNGATED = ("predict_p99_us",)


class Run:
    """Passes over one workload, with their timings, checks and spans."""

    def __init__(self, workload, traced):
        self.workload = workload
        self.traced = traced
        self.checks = workloads.Checks()
        self.setups = {False: [], True: []}
        self.passes = {False: [], True: []}
        self.setup_summaries, self.pass_summaries = [], []  # traced ones only
        self.fingerprints = []
        self.accuracy = None
        self.first_tracer = None

    def _tracer(self, traced):
        if not traced:
            return None, contextlib.nullcontext()
        tracer = tracing.Tracer()
        return tracer, tracer.installed()

    def time_setups(self):
        """Repeat setup; with tracing on, alternate untraced and traced."""
        for i in range(2 * SETUP_REPEATS if self.traced else SETUP_REPEATS):
            traced = self.traced and i % 2 == 1
            tracer, ctx = self._tracer(traced)
            with ctx:
                start = SAMPLER.mark()
                self.workload.setup()
                self.setups[traced].append(SAMPLER.normalised(start, SAMPLER.mark())[0])
            if tracer:
                self.setup_summaries.append(tracer.summary())

    def one_pass(self, traced):
        tracer, ctx = self._tracer(traced)
        results = {}
        with ctx:
            for name, fn in self.workload.phases():
                results.setdefault(name, []).append(fn())
        digest = workloads.Digest()
        outputs = {name: [o for p in phases for o in p.output] for name, phases in results.items()}
        accuracy = self.workload.check(outputs, self.checks, digest)
        for phases in results.values():
            for phase in phases:
                phase.output = None
        self.passes[traced].append(results)
        self.fingerprints.append(digest.hexdigest())
        if self.accuracy is None:
            self.accuracy = accuracy
        if tracer:
            self.pass_summaries.append(tracer.summary())
            if self.first_tracer is None:
                self.first_tracer = tracer

    def measure(self, seconds):
        with SAMPLER.running():
            self._measure(seconds)

    def _measure(self, seconds):
        self.time_setups()
        start = perf_counter()
        durations = []
        while True:
            t0 = perf_counter()
            self.one_pass(self.traced and len(durations) % 2 == 1)
            durations.append(perf_counter() - t0)
            if len(durations) >= MIN_PASSES[self.traced] and (
                perf_counter() - start + max(durations[-2:]) > seconds
            ):
                break
        self.checks.expect(
            len(set(self.fingerprints)) == 1,
            f"fingerprints differ between passes: {sorted(set(self.fingerprints))}",
        )
        if self.traced:
            calls = {
                tuple(s[name]["calls"] for name in tracing.LAYER_NAMES)
                for s in self.pass_summaries
            }
            self.checks.expect(len(calls) == 1, "traced call counts differ between passes")

    def end_to_end(self, traced, import_s):
        """End-to-end metrics from the untraced (or traced) setups and passes.

        Every time is at nominal machine speed (see speed.py). A model's
        time is the median over the run's whole runs of its phase; set-up
        is the median of its repeats plus the import time; latencies are
        percentiles over every prediction call of the run."""
        passes = self.passes[traced]
        latencies = [t for p in passes for w in p["predict"] for t in w.latencies]
        p50, p99 = np.percentile(latencies, [50, 99])
        metrics = {
            "setup_s": import_s + median(self.setups[traced]),
            **{f"{m}_s": median(phase.seconds for p in passes for phase in p[m])
               for m in workloads.MODELS},
            **{f"accuracy_{m}": self.accuracy[m] for m in workloads.MODELS},
            "predict_p50_us": p50 * 1e6,
            "predict_p99_us": p99 * 1e6,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "success_rate": 1.0 - self.checks.failed / self.checks.attempted,
        }
        return metrics

    def per_layer(self, import_s):
        plain = self.end_to_end(False, import_s)
        traced = self.end_to_end(True, import_s)
        out = {}
        setups, passes = self.setup_summaries, self.pass_summaries
        for name in tracing.LAYER_NAMES:
            first = {k: setups[0][name][k] + passes[0][name][k] for k in ("calls", "errors", "rows")}
            out[f"{name}.calls"] = first["calls"]
            out[f"{name}.self_s"] = (
                median(s[name]["self_s"] for s in setups)
                + median(p[name]["self_s"] for p in passes)
            )
            out[f"{name}.errors"] = first["errors"]
            if name in tracing.ROW_COUNTERS:
                out[f"{name}.rows"] = first["rows"]
        for name in UNGATED:
            out[name] = plain[name]
        out["trace.absent_layers"] = len(self.first_tracer.absent)
        for name in E2E_TIMES:
            out[f"trace_overhead.{name}"] = traced[name] - plain[name]
        return out

