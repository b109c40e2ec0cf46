"""Static invariant analysis for the reproduction's three hand-enforced
guarantees.

Everything this repo claims rests on invariants no type checker sees:

* **Determinism** — results and charged virtual time are bit-identical
  across engines, worker counts, and fault schedules.  One unseeded
  RNG call or wall-clock read in a charged path breaks it silently.
* **Charge-category integrity** — per-category virtual-time breakdowns
  are asserted by the parity suite and the benchmarks.  A typo'd
  category literal opens a fresh bucket and quietly drains the one the
  tests watch.
* **Parallel-hook statelessness** — a placed task's operator hooks are
  re-executed when a morsel is retried, and the makespan model claims
  the tasks of a phase could overlap; the contract is "stateless after
  construction".  A shared-attribute write in a task-executed hook
  breaks both, silently.

This package checks all three statically (AST passes over ``src/repro``,
run by ``tools/analyze.py`` and blocking in CI).  See
``docs/analysis.md`` for the rule catalogue and pragma syntax.
"""

from repro.analysis.charges import ChargeCategoryPass
from repro.analysis.core import (
    AnalysisPass,
    Finding,
    ModuleSource,
    Severity,
    load_module,
    load_tree,
    render_findings,
    render_json,
    run_passes,
    unsuppressed,
)
from repro.analysis.determinism import DeterminismPass
from repro.analysis.races import RaceAnalysisPass

#: The default pass lineup, in report order.
ALL_PASSES = (DeterminismPass, ChargeCategoryPass, RaceAnalysisPass)

__all__ = [
    "ALL_PASSES",
    "AnalysisPass",
    "ChargeCategoryPass",
    "DeterminismPass",
    "Finding",
    "ModuleSource",
    "RaceAnalysisPass",
    "Severity",
    "load_module",
    "load_tree",
    "render_findings",
    "render_json",
    "run_passes",
    "unsuppressed",
]
