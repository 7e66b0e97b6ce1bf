"""Machine-speed sampling that puts job times on a steady scale.

On a shared machine one core's speed drifts within seconds: the same
pure-Python loop took 0.205 to 0.316 s from one second to the next on
the 2-core machine this benchmark was tuned on, and whole passes varied
by 30% between runs.  That is more than a regression bound can absorb.
So while jobs run, a timer signal runs a small fixed probe every
``PERIOD_S`` seconds, and each job's time is scaled by ``NOMINAL_S``
over the mean probe time during the job and ``WINDOW_S`` around it.
The probe's own time is taken out of the job's.  Across runs the scaled
times still vary by 5-10%, against 15-30% raw.  The probe is pure
Python with no pitchcut code, and
mixes the kinds of work pitchcut does: Fraction arithmetic as in the
exact LP, integer list sweeps as in the DP kernels, and dict updates.
Raw times stay in the facts line of each result.
"""

from __future__ import annotations

import signal
import statistics
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

PERIOD_S = 0.05
WINDOW_S = 0.25         # probes this close to a job count for its speed
NOMINAL_S = 0.0005


def _work():
    acc = Fraction(0)
    for k in range(1, 40):
        acc += Fraction(k, k + 1) * Fraction(k + 2, 3 * k + 1)
    row = [0] * 200
    for i in range(1, 8):
        row = [a + (i if a < 7 * i else 1) for a in row]
    counts = {}
    for k in range(500):
        counts[k % 97] = counts.get(k % 97, 0) + k
    return acc, row[-1], counts[0]


class Sampler:
    """Probe times sampled from SIGALRM while the sampler is running.

    ``nominal(t0, t1)`` converts the time between two perf_counter
    readings to nominal seconds, once the sampler has stopped.
    """

    def __init__(self):
        self.ends = []
        self.probes = []
        self._previous = None

    def __enter__(self):
        self.tick()
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.tick()

    def _handler(self, signum, frame):
        self.tick()

    def tick(self):
        start = perf_counter()
        _work()
        end = perf_counter()
        self.ends.append(end)
        self.probes.append(end - start)

    def nominal(self, t0, t1):
        """Seconds from t0 to t1 without the probes run in between,
        scaled by NOMINAL_S over the mean probe that ended within
        WINDOW_S of [t0, t1] (the nearest probe when none did).  A probe
        runs between bytecodes, never inside a perf_counter call, so it
        lies wholly inside or wholly outside the interval."""
        inside = sum(self.probes[bisect_right(self.ends, t0):
                                 bisect_right(self.ends, t1)])
        lo = bisect_left(self.ends, t0 - WINDOW_S)
        hi = bisect_right(self.ends, t1 + WINDOW_S)
        window = self.probes[lo:hi]
        if not window:
            window = [self.probes[min(lo, len(self.probes) - 1)]]
        return (t1 - t0 - inside) * NOMINAL_S / statistics.fmean(window)
