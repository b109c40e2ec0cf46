"""Capped plan-latency measurement.

Ground truth for the learned-optimizer experiments is the *measured*
virtual latency of each candidate plan.  Pathological candidates (the
nested-loop joins a sane optimizer exists to avoid) would take minutes of
host wall-clock to grind through, so measurement runs under a virtual-time
budget: a plan that blows the cap is recorded as ``cap`` (right-censored).
Censoring is harmless for both plan ranking and the Fig. 8 log-scale plot —
"at least N times worse than the best plan" is all anyone needs to know.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.simtime import BudgetExceeded, SimClock
from repro.exec.executor import Executor
from repro.plan.logical import PlanNode


@dataclass
class MeasuredPlan:
    latency: float         # virtual seconds (== cap when censored)
    rows_produced: int     # 0 when censored
    censored: bool


def measure_plan_latency(executor: Executor, clock: SimClock,
                         node: PlanNode,
                         cap_virtual: float | None = None) -> MeasuredPlan:
    """Execute a plan under an optional virtual-time budget."""
    start = clock.now
    if cap_virtual is not None:
        clock.set_limit(start + cap_virtual)
    rows = 0
    censored = False
    try:
        rows = len(executor.run(node).rows)
    except BudgetExceeded:
        censored = True
    finally:
        clock.set_limit(None)
    latency = clock.now - start
    if censored and cap_virtual is not None:
        latency = cap_virtual
    return MeasuredPlan(latency=max(latency, 1e-9), rows_produced=rows,
                        censored=censored)
