"""Shared configuration for the figure benchmarks.

Every benchmark runs its experiment at a scale that finishes in
CI-friendly wall-clock time, prints the paper-style table, and asserts the
*shape* of the paper's result (who wins, where the crossovers are).

Which clock a figure reads:

* wall clock — Figs. 6(a) and 6(b), NeurDB against PostgreSQL+P
  (``postgres_plus_p.py``), and the ``wall_seconds`` / ``BENCH_exec.json``
  gates (``wallclock.py``); ``e2e/`` is the wall-clock harness every
  performance claim is judged with;
* virtual time from the simulator's cost model — Figs. 7(a), 7(b) and 8,
  the two ablations, and the modeled figures of ``BENCH_parallel`` /
  ``BENCH_distributed`` / ``BENCH_faults`` / ``BENCH_serve``;
* neither — Fig. 6(c) plots real training losses, and Table 1 checks
  what its PREDICT statements return.
"""

from __future__ import annotations

import os

import pytest

from repro.workloads.stats import StatsScale

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def pytest_collection_modifyitems(config, items):
    """Mark everything under benchmarks/ as ``bench`` and deselect it
    unless the run opted in (``--bench`` or a markexpr naming bench), so
    tier-1 ``pytest -x -q`` stays fast."""
    for item in items:
        if str(item.fspath).startswith(_BENCH_DIR):
            item.add_marker(pytest.mark.bench)
    if config.getoption("--bench"):
        return
    if "bench" in (getattr(config.option, "markexpr", "") or ""):
        return
    kept, dropped = [], []
    for item in items:
        (dropped if item.get_closest_marker("bench") else kept).append(item)
    if dropped:
        config.hook.pytest_deselected(items=dropped)
        items[:] = kept

# scaled-down STATS database used by the Fig. 8 benchmarks
FIG8_SCALE = StatsScale(users=300, posts=900, comments=1500, votes=2200,
                        badges=600, posthistory=1100, postlinks=250,
                        tags=60)


@pytest.fixture(scope="session")
def fig8_scale() -> StatsScale:
    return FIG8_SCALE
