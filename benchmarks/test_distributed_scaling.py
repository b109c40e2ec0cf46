"""Distributed-engine scale-out: exchange pipelines over the modeled network.

The sharded acceptance gate: at 4 nodes the distributed engine must clear
>= 2.5x the single-node modeled makespan on a shuffle-heavy GROUP BY —
with bit-identical rows *and* bit-identical per-category charged compute
totals at every node count (scale-out may only change the makespan and
the network categories).  The workload runs in the cold-cache regime
(the table is several times the buffer pool, so LRU sequential flooding
makes every scan pay page reads): that is where sharded scan IO
parallelizes, which is the scale-out the paper's disaggregated setting
models.  All elapsed times are virtual — single-node elapsed is the
distributed scheduler's own makespan at ``nodes=1``, so the comparison
holds the engine constant and varies only the topology.

Also swept here: a broadcast join and a narrow aggregate (exchange-light
shapes, reported but not floor-gated), per-shape shuffle-byte
accounting, and a targeted ``slow_node`` skew run reporting per-node
busy seconds and NIC queue depths.

Beside every modeled figure the file records ``wall_seconds`` — the best
of ``WALL_REPEATS`` real runs of the same plan, rows consumed, timed by
``benchmarks/wallclock.py``, never in ``src/``.  The scheduler is serial, so wall time does not
fall with the node count; it is there so the model is never read alone.

CI smoke mode (``BENCH_SMOKE=1``): tiny scale, relaxed floor, JSON to a
scratch path so the committed trajectory isn't clobbered.
"""

from __future__ import annotations

import os
import tempfile

import repro
from repro.bench.reporting import write_bench_json
from repro.common import categories as cat
from repro.common.faults import FaultPlan
from repro.exec.executor import Executor
from repro.sql import parse
from wallclock import timed

SMOKE = os.environ.get("BENCH_SMOKE") == "1"
ROWS = 24_000 if SMOKE else 200_000
SHARDS = 8
BUFFER_PAGES = 256 if SMOKE else 512   # a fraction of the table: cold scans
NODE_SWEEP = (1, 2, 4) if SMOKE else (1, 2, 4, 8)
WORKERS = 2
SPEEDUP_FLOOR_AT_4 = 1.2 if SMOKE else 2.5
WALL_REPEATS = 2 if SMOKE else 3

#: categories that may differ across node counts; everything else is
#: compute and must stay bit-identical
NET_CATEGORIES = {cat.SHUFFLE, cat.BROADCAST, cat.GATHER, cat.EXCHANGE_MSG}

WORKLOADS = [
    {
        "name": "shuffle_heavy_group_by",     # the floor-gated shape
        "sql": ("SELECT k, count(*), sum(v), avg(w) FROM t GROUP BY k"),
        "gate": True,
    },
    {
        "name": "scan_filter_aggregate",
        "sql": ("SELECT grp, count(*), sum(v) FROM t "
                "WHERE v > 0.25 GROUP BY grp"),
        "gate": False,
    },
    {
        "name": "broadcast_join",
        "sql": ("SELECT d.label, count(*), sum(t.v) FROM t "
                "JOIN d ON t.grp = d.label GROUP BY d.label"),
        "gate": False,
    },
]

RESULT_PATH = (os.path.join(tempfile.gettempdir(), "BENCH_distributed.json")
               if SMOKE else
               os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "BENCH_distributed.json"))


def _build_db(rows: int):
    db = repro.connect(shards=SHARDS, buffer_pages=BUFFER_PAGES)
    db.execute("CREATE TABLE t (id INT, grp TEXT, k INT, v FLOAT, w FLOAT)")
    db.execute("CREATE TABLE d (label TEXT, weight FLOAT)")
    heap = db.catalog.table("t")
    groups = ["alpha", "beta", "gamma", "delta"]
    # k: high-cardinality shuffle key (rows/40 distinct values) so the
    # grouped partials repartition across nodes instead of gathering
    wide = max(64, rows // 40)
    for i in range(rows):
        # deterministic pseudo-values: no RNG in the virtual-time path
        v = ((i * 2654435761) % 1000) / 1000.0
        w = ((i * 40503) % 1000) / 1000.0
        heap.insert((i, groups[i & 3], (i * 37) % wide, v, w))
    dim = db.catalog.table("d")
    for j, label in enumerate(groups):
        dim.insert((label, float(j)))
    db.execute("ANALYZE")
    return db


def _compute(stats):
    return {k: v for k, v in stats["charged_by_category"].items()
            if k not in NET_CATEGORIES}


def test_distributed_engine_scaling():
    db = _build_db(ROWS)
    report_workloads = []
    for workload in WORKLOADS:
        plan = db.planner.plan_select(parse(workload["sql"]))
        base, base_wall = timed(
            Executor(db.catalog, db.clock, engine="batch"), plan, WALL_REPEATS)

        curve = []
        spans = {}
        ref_compute = None
        for nodes in NODE_SWEEP:
            executor = Executor(db.catalog, db.clock, engine="distributed",
                                nodes=nodes, workers=WORKERS)
            result, wall = timed(executor, plan, WALL_REPEATS)
            assert result.rows == base.rows, (
                f"{workload['name']}: distributed result diverged "
                f"at {nodes} nodes")
            stats = result.extra["distributed"]
            # the standing invariant: compute charges are topology-free
            compute = _compute(stats)
            if ref_compute is None:
                ref_compute = compute
            else:
                assert compute == ref_compute, (
                    f"{workload['name']}: charged compute drifted "
                    f"at {nodes} nodes")
            if nodes == 1:
                assert stats["bytes_on_wire"] == 0, (
                    f"{workload['name']}: network traffic at one node")
            makespan = stats["virtual_makespan"]
            spans[nodes] = makespan
            curve.append({
                "nodes": nodes,
                "workers": WORKERS,
                "virtual_seconds": round(makespan, 6),
                "wall_seconds": wall,
                "rows_per_virtual_sec": round(ROWS / makespan),
                "speedup_vs_1_node": round(spans[NODE_SWEEP[0]] / makespan,
                                           2),
                "rows_shuffled": stats["rows_shuffled"],
                "bytes_on_wire": stats["bytes_on_wire"],
                "exchange_seconds": round(stats["exchange_seconds"], 6),
                "tasks": stats["tasks"],
            })

        report_workloads.append({
            "name": workload["name"],
            "sql": workload["sql"],
            "floor_gated": workload["gate"],
            "batch_engine": {
                "virtual_seconds": round(base.virtual_seconds, 6),
                "wall_seconds": base_wall},
            "distributed_engine": curve,
        })

        print(f"\n{workload['name']} over {ROWS} rows x {SHARDS} shards "
              f"(batch: {base.virtual_seconds * 1e3:.2f} virtual ms, "
              f"{base_wall * 1e3:.2f} wall ms):")
        for point in curve:
            print(f"  {point['nodes']} nodes: "
                  f"{point['virtual_seconds'] * 1e3:.2f} virtual ms "
                  f"({point['speedup_vs_1_node']:.2f}x, "
                  f"{point['rows_shuffled']} rows shuffled, "
                  f"{point['bytes_on_wire']} bytes on wire), "
                  f"{point['wall_seconds'] * 1e3:.2f} wall ms")

        if workload["gate"]:
            speedup = spans[NODE_SWEEP[0]] / spans[4]
            assert speedup >= SPEEDUP_FLOOR_AT_4, (
                f"{workload['name']}: only {speedup:.2f}x at 4 nodes "
                f"(floor is {SPEEDUP_FLOOR_AT_4}x)")
    # -- slow-node skew: one straggler, per-node visibility ----------------
    skew_sql = WORKLOADS[0]["sql"]
    plan = db.planner.plan_select(parse(skew_sql))
    clean = Executor(db.catalog, db.clock, engine="distributed", nodes=4,
                     workers=WORKERS).run(plan)
    slow = FaultPlan(0).arm("slow_node", rate=1.0, target="node1",
                            latency=2e-3)
    skewed = Executor(db.catalog, db.clock, engine="distributed", nodes=4,
                      workers=WORKERS, faults=slow).run(plan)
    assert skewed.rows == clean.rows, "slow_node changed results"
    cs, ss = clean.extra["distributed"], skewed.extra["distributed"]
    assert ss["virtual_makespan"] > cs["virtual_makespan"]
    skew_report = {
        "sql": skew_sql,
        "fault": {"kind": "slow_node", "target": "node1", "rate": 1.0,
                  "latency": 2e-3},
        "clean_makespan": round(cs["virtual_makespan"], 6),
        "skewed_makespan": round(ss["virtual_makespan"], 6),
        "inflation": round(ss["virtual_makespan"] / cs["virtual_makespan"],
                           2),
        "per_node": [
            {"node": entry["node"],
             "busy_seconds": round(entry["busy_seconds"], 6),
             "nic_queued": entry["nic_queued"]}
            for entry in ss["per_node"]],
    }
    print(f"\nslow_node skew: {skew_report['clean_makespan'] * 1e3:.2f} -> "
          f"{skew_report['skewed_makespan'] * 1e3:.2f} virtual ms "
          f"({skew_report['inflation']:.2f}x)")

    report = {
        "rows": ROWS,
        "shards": SHARDS,
        "buffer_pages": BUFFER_PAGES,
        "metric": ("rows per virtual second; distributed elapsed = modeled "
                   "makespan (per-node serial IO + worker lanes + exchange "
                   "placement on per-node NICs); compute charges are "
                   "asserted bit-identical across the node sweep"),
        "wall_clock": ("wall_seconds = best of wall_repeats real runs of "
                       "the same plan, rows consumed: a measurement beside "
                       "the model, never an input to it"),
        "workloads": report_workloads,
        "slow_node_skew": skew_report,
    }
    write_bench_json(
        RESULT_PATH, report, smoke=SMOKE, seeds={"fault_seed": 0},
        workload={"rows": ROWS, "shards": SHARDS, "workers": WORKERS,
                  "node_sweep": NODE_SWEEP, "buffer_pages": BUFFER_PAGES,
                  "speedup_floor_at_4": SPEEDUP_FLOOR_AT_4,
                  "wall_repeats": WALL_REPEATS})
