"""Every function the benchmark traces exists, so a refactor that drops or
renames one fails here and not only as `absent_layers` in a benchmark run."""

import os
import signal

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks")


def test_every_traced_layer_resolves(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import tracing

    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)  # importing starts no timer
    assert [name for name in tracing.LAYER_NAMES if tracing.resolve(name) is None] == []
