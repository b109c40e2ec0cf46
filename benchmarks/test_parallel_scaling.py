"""Parallel-engine scaling: scan/filter/aggregate, ORDER BY, wide GROUP BY.

The morsel-driven acceptance gates: at 4 workers the parallel engine must
clear >= 2x the serial batch engine's modeled throughput on each of the
three workload shapes — the scan→filter→aggregate pipeline PR 1
benchmarked, an ORDER BY-heavy plan (per-morsel sorted runs + serial
k-way merge, so Amdahl bites on the merge remainder), and a
wide-aggregation plan (per-morsel partials, one array merge on the
serial lane) — with bit-identical results.  Throughput is measured in
*virtual time* —
wall-clock cannot show multi-thread scalability in single-process Python
(the whole reason `src/repro/common/simtime.py` exists): the serial
engines' elapsed time is their charged virtual time, and the parallel
engine's elapsed time is its modeled makespan (serial lane + per-phase
max virtual-worker load, see ``LaneSchedule``).  The worker sweep is
written to ``benchmarks/BENCH_parallel.json`` so future PRs have a
scaling trajectory to compare against.  Beside every modeled figure the
file records ``wall_seconds`` — the best of ``WALL_REPEATS`` real runs,
rows consumed, timed by ``benchmarks/wallclock.py``, never in ``src/`` —
so the model can be read against what this interpreter actually does
with the same plan (``docs/parallel.md`` has the verdict).

CI smoke mode (``BENCH_SMOKE=1``): a tiny-scale pass — fewer rows, 2-ish
workers' worth of morsels, JSON written to a scratch path so the
committed trajectory isn't clobbered — that exercises every workload and
the JSON generator without asserting the full-scale speedup floors.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

import repro
from repro.bench.reporting import write_bench_json
from repro.exec.executor import Executor
from repro.sql import parse
from wallclock import timed

SMOKE = os.environ.get("BENCH_SMOKE") == "1"
ROWS = 8_000 if SMOKE else 100_000
MORSEL_ROWS = 256 if SMOKE else None  # None = engine default (4096)
WORKER_SWEEP = (1, 2, 4) if SMOKE else (1, 2, 4, 8)
SPEEDUP_FLOOR_AT_4 = 1.05 if SMOKE else 2.0
WALL_REPEATS = 2 if SMOKE else 5

WORKLOADS = [
    {
        "name": "scan_filter_aggregate",
        "sql": ("SELECT grp, count(*), sum(v), avg(w) FROM t "
                "WHERE v > 0.25 AND w < 0.9 GROUP BY grp"),
    },
    {
        "name": "order_by",
        "sql": "SELECT id, v FROM t WHERE v > 0.05 ORDER BY v DESC",
    },
    {
        "name": "wide_aggregate",
        "sql": "SELECT k, count(*), sum(v), avg(w) FROM t GROUP BY k",
    },
]

RESULT_PATH = (os.path.join(tempfile.gettempdir(), "BENCH_parallel.json")
               if SMOKE else
               os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "BENCH_parallel.json"))


def _build_db(rows: int):
    db = repro.connect()
    db.execute("CREATE TABLE t (id INT UNIQUE, grp TEXT, k INT, "
               "v FLOAT, w FLOAT)")
    heap = db.catalog.table("t")
    rng = np.random.default_rng(7)
    groups = ["alpha", "beta", "gamma", "delta"]
    # k: high-cardinality group key (rows/20 distinct values) to push the
    # wide-aggregation plan far past PARTITION_MIN_KEYS groups a morsel
    wide = max(64, rows // 20)
    v = rng.random(rows)
    w = rng.random(rows)
    for i in range(rows):
        heap.insert((i, groups[i & 3], (i * 37) % wide,
                     float(v[i]), float(w[i])))
    db.execute("ANALYZE")
    return db


def test_parallel_engine_scaling():
    db = _build_db(ROWS)
    report_workloads = []
    for workload in WORKLOADS:
        plan = db.planner.plan_select(parse(workload["sql"]))
        batch = Executor(db.catalog, db.clock, engine="batch")
        batch.run(plan)  # warm buffer pool and compiled-expression caches
        base, base_wall = timed(batch, plan, WALL_REPEATS)
        base_rate = ROWS / base.virtual_seconds

        curve = []
        for workers in WORKER_SWEEP:
            kwargs = {} if MORSEL_ROWS is None else {
                "morsel_rows": MORSEL_ROWS}
            executor = Executor(db.catalog, db.clock, engine="parallel",
                                workers=workers, **kwargs)
            result, wall = timed(executor, plan, WALL_REPEATS)
            assert result.rows == base.rows, (
                f"{workload['name']}: parallel result diverged")
            stats = result.extra["parallel"]
            makespan = stats["virtual_makespan"]
            curve.append({
                "workers": workers,
                "virtual_seconds": round(makespan, 6),
                "wall_seconds": wall,
                "rows_per_virtual_sec": round(ROWS / makespan),
                "speedup_vs_batch": round(
                    base.virtual_seconds / makespan, 2),
                # scan-pipeline morsels + per-operator partial tasks
                "tasks": stats["tasks"],
            })

        report_workloads.append({
            "name": workload["name"],
            "sql": workload["sql"],
            "batch_engine": {
                "virtual_seconds": round(base.virtual_seconds, 6),
                "wall_seconds": base_wall,
                "rows_per_virtual_sec": round(base_rate)},
            "parallel_engine": curve,
        })

        print(f"\n{workload['name']} over {ROWS} rows "
              f"(batch: {base.virtual_seconds * 1e3:.2f} virtual ms, "
              f"{base_wall * 1e3:.2f} wall ms):")
        for point in curve:
            print(f"  {point['workers']} workers: "
                  f"{point['virtual_seconds'] * 1e3:.2f} virtual ms "
                  f"({point['rows_per_virtual_sec']:,} rows/s, "
                  f"{point['speedup_vs_batch']:.2f}x), "
                  f"{point['wall_seconds'] * 1e3:.2f} wall ms")

        at_four = next((p for p in curve if p["workers"] == 4), None)
        if at_four is not None:
            assert at_four["speedup_vs_batch"] >= SPEEDUP_FLOOR_AT_4, (
                f"{workload['name']}: parallel engine only "
                f"{at_four['speedup_vs_batch']:.2f}x over batch at 4 "
                f"workers (floor is {SPEEDUP_FLOOR_AT_4}x)")
        # 1 worker must not regress the batch engine (same work, same
        # charges; the sort merge remainder stays on the serial lane
        # either way)
        assert curve[0]["speedup_vs_batch"] >= 0.99

    report = {
        "rows": ROWS,
        "metric": ("rows per virtual second; parallel elapsed = modeled "
                   "makespan (serial lane + per-phase max worker load), "
                   "serial elapsed = charged virtual time"),
        "wall_clock": ("wall_seconds = best of wall_repeats real runs of "
                       "the same plan, rows consumed: a measurement beside "
                       "the model, never an input to it"),
        "workloads": report_workloads,
    }
    write_bench_json(
        RESULT_PATH, report, smoke=SMOKE, seeds={"numpy_rng": 7},
        workload={"rows": ROWS, "morsel_rows": MORSEL_ROWS,
                  "worker_sweep": WORKER_SWEEP,
                  "speedup_floor_at_4": SPEEDUP_FLOOR_AT_4,
                  "wall_repeats": WALL_REPEATS})
