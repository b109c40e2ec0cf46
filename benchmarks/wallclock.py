"""Wall clock beside the model, for the benchmarks whose own metric is
virtual time.  ``perf_counter`` lives here, in the benchmark tree, never
in ``src/``."""

from __future__ import annotations

import time


def timed(executor, plan, repeats: int):
    """``(result, wall_seconds)``: the first of ``repeats`` runs of
    ``plan`` — callers check that every modeled figure repeats exactly —
    and the best wall clock among them, the rows consumed inside the
    timed interval."""
    first, best = None, float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = executor.run(plan)
        len(result.rows)
        best = min(best, time.perf_counter() - start)
        first = first or result
    return first, round(best, 6)
