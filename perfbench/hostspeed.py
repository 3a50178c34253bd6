"""Host speed: a fixed piece of work, timed between the benchmark's operations.

On a small shared host the CPU a run gets is two to three times slower
while other tenants load the same physical core, and the share of time it
is slow drifts over minutes.  Runs of the same code a few minutes apart then
differ by more than any bound a regression check can use, however long each
run is.  So the benchmark times a fixed piece of work every ``INTERVAL_S``
between operations (outside every timed interval) and divides each latency
sample by the host factor around the time it was taken: the mean time of
the work within ``WINDOW_S`` of it, over the time the work takes on an
unshared CPU of the reference host (``REFERENCE_S``).  Rates are multiplied
by the mean factor over the run.

The work is a depth-first search over a dict of sets, the kind of
pure-Python hashing and tuple work the engines and the oracle do.  It
shares no code with the program, so a change to the program never moves
the factor; the factor itself is reported with the per-layer metrics
(``host.factor``).
"""

from __future__ import annotations

import array
import bisect
import itertools
import random
import statistics
import time

#: Seconds one sample of the work takes on an unshared CPU of the reference
#: host (2.1 GHz x86-64 vCPU, CPython 3.11): the fast phase.
REFERENCE_S = 0.0040
#: Wall time between samples.
INTERVAL_S = 0.25
#: A latency sample is divided by the mean factor of the work samples taken
#: within this many seconds of it: slow phases last seconds to minutes.
WINDOW_S = 1.5

perf = time.perf_counter


class HostSpeed:
    """Samples the fixed work every ``INTERVAL_S``; :meth:`factor` is the mean
    over :data:`REFERENCE_S`."""

    def __init__(self):
        rng = random.Random("hostspeed")
        self._adjacency = {}
        for _ in range(40000):
            self._adjacency.setdefault(rng.randrange(10000), set()).add(rng.randrange(10000))
        self.samples = []
        self.at = []
        self._last = perf()

    def _work(self):
        seen = set()
        frontier = [0]
        while frontier:
            for node in self._adjacency.get(frontier.pop(), ()):
                if node not in seen:
                    seen.add(node)
                    frontier.append(node)
        return len(seen)

    def sample(self):
        """Time the work once; returns its wall time."""
        began = perf()
        self._work()
        self._last = perf()
        self.samples.append(self._last - began)
        self.at.append(began)
        return self._last - began

    def tick(self):
        """Sample if ``INTERVAL_S`` has passed since the last sample."""
        if perf() - self._last >= INTERVAL_S:
            self.sample()

    def factor(self):
        """The mean host factor over the run."""
        return statistics.fmean(self.samples) / REFERENCE_S

    def normalize(self, samples):
        """Each of ``samples`` (a :class:`Samples`) divided by the host factor
        within ``WINDOW_S`` of the time it was taken (the nearest sample's
        when none is that close)."""
        prefix = list(itertools.accumulate(self.samples, initial=0.0))
        normalized = []
        for value, at in zip(samples.values, samples.at):
            low = bisect.bisect_left(self.at, at - WINDOW_S)
            high = bisect.bisect_right(self.at, at + WINDOW_S)
            if low == high:
                nearest = min(
                    (i for i in (low - 1, low) if 0 <= i < len(self.at)),
                    key=lambda i: abs(self.at[i] - at),
                )
                low, high = nearest, nearest + 1
            factor = (prefix[high] - prefix[low]) / (high - low) / REFERENCE_S
            normalized.append(value / factor)
        return normalized


class Samples:
    """Samples in compact doubles, each with the time it was recorded, so
    :meth:`HostSpeed.normalize` can use the host factor of that moment."""

    def __init__(self):
        self.values = array.array("d")
        self.at = array.array("d")

    def append(self, value):
        self.values.append(value)
        self.at.append(perf())

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(self.values)
