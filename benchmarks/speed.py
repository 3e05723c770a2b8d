"""The machine's speed, sampled while the benchmark runs, and times scaled by it.

On a shared host the same code runs at different speeds from one second to
the next: other tenants share the cores' caches and execution units, and a
slow stretch makes every operation about 1.7 times slower for seconds to
minutes. Wall times then move by more than any regression bound, even
though the program did the same work.

While `Sampler.running()` is active, a timer signal runs a fixed reference
kernel (numpy and Python only, nothing of cardioseq) every INTERVAL seconds
between the program's bytecodes and records how long it took. Two things
follow:

- `clock()` is wall time minus the time spent in the reference kernel, so
  the samples add nothing to the measured program time;
- `normalised(start, end)` scales the program time between two `mark()`s by
  REFERENCE_SECONDS over the mean reference time sampled during it: the
  seconds the interval would have taken at the speed where the reference
  kernel takes REFERENCE_SECONDS. A change to the program's own speed moves
  this figure as much as it moves wall time; a change of machine speed that
  slows the reference kernel as much as the program does not.
"""

from __future__ import annotations

import contextlib
import signal
from dataclasses import dataclass
from time import perf_counter

import numpy as np

# Seconds between samples; a sample takes about 1 ms, so sampling costs the
# program about 2% of its time, which clock() takes out again.
INTERVAL = 0.05
# Fewest samples a normalisation averages; shorter intervals take the samples
# nearest to them.
MIN_SAMPLES = 6
# Reference kernel time at nominal speed.
REFERENCE_SECONDS = 1e-3

_SMALL = np.linspace(-1.0, 1.0, 256).reshape(16, 16)
_SMALL_VECTOR = np.linspace(0.0, 1.0, 64)
_TALL = np.linspace(-1.0, 1.0, 2000 * 25).reshape(2000, 25)
_TALL_VECTOR = np.linspace(0.0, 1.0, 25)


def reference():
    """Fixed work of the three kinds the program does, about a third of a
    millisecond each on the host the benchmark was built on: small numpy
    calls driven from a Python loop (the CNN, single-record predict), plain
    Python (parsing, the training loops) and numpy passes over a few
    thousand rows (the baselines' fits, batch prediction). Each kind alone
    tracked some of the program's phases well and others badly; their sum
    tracked all of them about as well as the best single kind did."""
    total = 0.0
    for i in range(50):
        total += float((_SMALL @ _SMALL[i % 16]).sum()) + float(np.exp(_SMALL_VECTOR).max())
    seen = {}
    count = 0
    for i in range(2500):
        seen[i % 97] = count
        count += (i * 7) % 13
    for _ in range(6):
        p = 1.0 / (1.0 + np.exp(-(_TALL @ _TALL_VECTOR)))
        total += float(_TALL.T @ (p - 0.5) @ _TALL_VECTOR)
    return total + count


@dataclass(frozen=True)
class Mark:
    wall: float
    stolen: float


class Sampler:
    """Reference-kernel samples taken on a timer signal (main thread only)."""

    def __init__(self, interval=INTERVAL):
        self.interval = interval
        # (wall time the sample started, its duration), appended in one step
        # so that code the signal interrupts never sees half a sample.
        self.samples = []
        self.stolen = 0.0  # seconds spent in the signal handler

    @property
    def durations(self):
        return [d for _, d in self.samples[:]]

    def _sample(self, signum, frame):
        entered = perf_counter()
        reference()
        self.samples.append((entered, perf_counter() - entered))
        self.stolen += perf_counter() - entered

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def mark(self):
        """Wall time and sampling time so far, read with no sample between."""
        while True:
            stolen = self.stolen
            wall = perf_counter()
            if stolen == self.stolen:
                return Mark(wall, stolen)

    def clock(self):
        """Wall time without the time spent sampling."""
        mark = self.mark()
        return mark.wall - mark.stolen

    def speed(self, start, end):
        """Mean reference time over the samples taken between two marks, or
        over the MIN_SAMPLES samples nearest to the interval if it holds
        fewer; None when there are no samples at all."""
        samples = self.samples[:]
        if not samples:
            return None
        times, durations = np.array(samples).T
        inside = (times >= start.wall) & (times <= end.wall)
        if inside.sum() >= MIN_SAMPLES:
            return float(durations[inside].mean())
        distance = np.maximum(start.wall - times, times - end.wall)
        nearest = np.argsort(distance, kind="stable")[:MIN_SAMPLES]
        return float(durations[nearest].mean())

    def normalised(self, start, end):
        """(program seconds between two marks scaled to nominal speed,
        unscaled program seconds)."""
        seconds = (end.wall - start.wall) - (end.stolen - start.stolen)
        speed = self.speed(start, end)
        if speed is None:
            return seconds, seconds
        return seconds * REFERENCE_SECONDS / speed, seconds


# One sampler per process, because the timer signal and its handler are per
# process; it samples only inside running().
SAMPLER = Sampler()
