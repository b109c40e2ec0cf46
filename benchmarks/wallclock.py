"""Wall clock beside the model, for the benchmarks whose own metric is
virtual time.  ``perf_counter`` lives here, in the benchmark tree, never
in ``src/``."""

from __future__ import annotations

import time


def timed_once(execute, statement):
    """``(result, wall_seconds)`` of one ``execute(statement)``, the rows
    consumed inside the timed interval.  For statements that write and
    so cannot be repeated: callers take the best over like statements."""
    start = time.perf_counter()
    result = execute(statement)
    len(result.rows)
    return result, time.perf_counter() - start


def timed(executor, plan, repeats: int):
    """``(result, wall_seconds)``: the first of ``repeats`` runs of
    ``plan`` — callers check that every modeled figure repeats exactly —
    and the best wall clock among them."""
    first, best = None, float("inf")
    for _ in range(repeats):
        result, wall = timed_once(executor.run, plan)
        best = min(best, wall)
        first = first or result
    return first, round(best, 6)
