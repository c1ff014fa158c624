"""Host-speed calibration for the end-to-end times.

On a shared virtual machine the speed of each vCPU drifts with what other
tenants run next to it: one operation can take 1.5 times as long as the same
operation a few seconds later, and the vCPUs drift independently.  Medians over
a 30-s run do not hide drifts that last longer than the run.

So ``run.py`` pins itself and every worker it starts to one vCPU, and a
``Calibrator`` thread in ``run.py`` wakes every ``INTERVAL_S`` on that vCPU and
times ``probe``: a fixed piece of interpreter work that allocates a dict of
tuples and strings, sorts it, and reads a large table at random, the kinds of
work gpdkit does.  ``Timeline.scaled(a, b)`` integrates
``REF_PROBE_S / probe time`` over the interval: the seconds the interval would
have taken had the vCPU run the probe in ``REF_PROBE_S`` throughout.  The probe
shares the vCPU with the worker, so it costs the worker about four percent of
its time, the same in every run.
"""

from __future__ import annotations

import bisect
import random
import statistics
import threading
import time

# The probe's median time on the machine described in OBSERVED.md.  Scaled
# times read as seconds on that machine at that speed; the constant only sets
# the level, and a comparison of two commits on one machine does not depend on it.
REF_PROBE_S = 0.0014
INTERVAL_S = 0.03
TABLE_SIZE = 1 << 20
READS = 1500
PROBE_SEED = 20120101


class Probe:
    """A fixed amount of allocation, hashing, sorting and random reads."""

    def __init__(self):
        rng = random.Random(PROBE_SEED)
        self.table = [rng.random() for _ in range(TABLE_SIZE)]
        self.reads = [rng.randrange(TABLE_SIZE) for _ in range(READS)]

    def __call__(self) -> float:
        t0 = time.perf_counter()
        d = {(i * 7919) % 10007: (i, str(i)) for i in range(800)}
        sorted(d.items())
        table, s = self.table, 0.0
        for j in self.reads:
            s += table[j]
        return time.perf_counter() - t0


class Timeline:
    """Probe samples ``(end time, probe seconds)`` in time order.

    The speed factor of the stretch that ends at a sample is
    ``REF_PROBE_S`` over the median probe time of that sample and its two
    neighbours, so one probe that the worker preempted does not count alone.
    Before the first sample the first factor holds, after the last the last.
    With no samples, scaled time is wall time.
    """

    def __init__(self, samples, ref: float = REF_PROBE_S):
        self.times = [t for t, _ in samples]
        costs = [c for _, c in samples]
        n = len(costs)
        self.factors = [ref / statistics.median(costs[max(0, i - 1) : i + 2]) for i in range(n)]

    def scaled(self, a: float, b: float) -> float:
        if not self.times:
            return b - a
        times, factors = self.times, self.factors
        i = bisect.bisect_left(times, a)
        total, lo = 0.0, a
        while lo < b:
            if i < len(times):
                hi, f = min(times[i], b), factors[i]
            else:
                hi, f = b, factors[-1]
            total += (hi - lo) * f
            lo = hi
            i += 1
        return total

    def median_factor(self, a: float, b: float) -> float:
        """The median speed factor of the samples within ``[a, b]``."""
        lo, hi = bisect.bisect_left(self.times, a), bisect.bisect_right(self.times, b)
        return statistics.median(self.factors[lo:hi]) if hi > lo else 1.0


class Calibrator:
    """A thread that times ``probe`` every ``interval`` seconds until stopped."""

    def __init__(self, probe=None, interval: float = INTERVAL_S):
        self.probe = probe or Probe()
        self.interval = interval
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="calibrator", daemon=True)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            cost = self.probe()
            self.samples.append((time.monotonic(), cost))

    def start(self) -> "Calibrator":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join()

    def timeline(self) -> Timeline:
        return Timeline(list(self.samples))
