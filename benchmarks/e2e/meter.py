"""Wall-clock intervals, corrected for what the host was doing meanwhile.

The container this benchmark is built for shares its cores.  A fixed
pure-Python loop there takes 1.0x, 1.4x or 3x its best time depending on
the moment, in phases that last from a tenth of a second to whole minutes,
so the same statement list timed twice differs by 15-30% in every raw
statistic (see README.md, "Host noise").  No bound under 25% survives
that, so the meter keeps a *sensor* beside the clock: between timed
intervals, at most once per ``MIN_GAP_S`` of statement time, it times the
same short spin.  The fastest spins of a run (the mean of its lowest 3%)
show the host undisturbed; an interval that ran while the spin took ``f``
times that long is divided by ``f ** SENSITIVITY``.  Every time-valued
end-to-end metric is computed from these *deflated* seconds: milliseconds
on the undisturbed host.  Raw seconds are kept beside them and printed in
the run's detail line.

``SENSITIVITY`` is measured, not assumed.  The spin lives in the
first-level cache; real statements chase pointers and stream arrays, and a
busy neighbour costs them more than it costs the spin.  Over 60 ten-second
runs of the five workloads, taken in host phases from calm to badly
disturbed, the inter-quartile spread of ``stmt_per_s`` / ``shape_geomean_ms``
across runs was, as a share of the median:

    exponent   olap_mix     olap_engines   oltp_mix     predict_batch
    0 (raw)    0.28 / 0.30  0.15 / 0.22    0.16 / 0.13  0.32 / 0.33
    1.0        0.15 / 0.16  0.12 / 0.12    0.09 / 0.07  0.13 / 0.14
    1.6        0.06 / 0.06  0.08 / 0.09    0.04 / 0.04  0.11 / 0.06
    2.2        0.05 / 0.05  0.04 / 0.04    0.03 / 0.06  0.09 / 0.11

1.6 is where every workload is near its best; higher exponents start to
blow up the runs whose reference is wrong.  A pointer-chasing or a numpy
sensor tracked the statements no better and had a noisier reference.

What is left: a run that never sees the host undisturbed has no reference
and cannot be corrected; that is left to the medians over several runs.
On a quiet host every reading is near the reference and deflation does
nothing.
"""

from __future__ import annotations

import math
from time import perf_counter

SPIN_ITERATIONS = 5000
MIN_GAP_S = 0.004
REFERENCE_SHARE = 0.03
SENSITIVITY = 1.6


def _spin() -> float:
    t0 = perf_counter()
    total = 0
    for i in range(SPIN_ITERATIONS):
        total += i * i
    return perf_counter() - t0


class Meter:
    def __init__(self) -> None:
        self.readings: list[float] = []
        self._read_at = -math.inf

    def mark(self) -> int:
        """Index of a sensor reading no older than ``MIN_GAP_S``, taking a
        new one if need be.  Call it outside timed intervals only."""
        if perf_counter() - self._read_at >= MIN_GAP_S:
            self.readings.append(_spin())
            self._read_at = perf_counter()
        return len(self.readings) - 1

    def reference(self) -> float:
        """The spin time of the undisturbed host, as far as this run saw
        it: the mean of its fastest 3% of readings."""
        ordered = sorted(self.readings)
        count = max(1, math.ceil(REFERENCE_SHARE * len(ordered)))
        return sum(ordered[:count]) / count

    def slowdowns(self) -> list[float]:
        """Per reading, how much slower than the reference the spin ran."""
        reference = self.reference()
        return [max(1.0, reading / reference) for reading in self.readings]

    def deflator(self):
        """``deflate(seconds, mark)`` for an interval that began at
        ``mark``: divides by the mean slowdown of the readings on either
        side, raised to ``SENSITIVITY``."""
        slow = self.slowdowns()
        last = len(slow) - 1

        def deflate(seconds: float, mark: int) -> float:
            factor = (slow[mark] + slow[min(mark + 1, last)]) / 2.0
            return seconds / factor ** SENSITIVITY

        return deflate
