"""Fault-recovery benchmarks: what chaos costs, in virtual time.

Three experiments, one per recovery layer, written to
``benchmarks/BENCH_faults.json``:

* ``recovery_makespan`` — the parallel engine under seeded chaos
  (transient task errors + worker crashes + slow workers) at 2 and 4
  workers.  Crashed attempts keep their charges and survivors re-execute
  the lost morsels, so the interesting number is *makespan inflation*:
  chaotic modeled makespan over the fault-free run's, with results
  asserted bit-identical the whole way.
* ``failover`` — a replicated table through repeated primary outages:
  the per-failover latency (the ``failover`` clock category over the
  failover count), the per-write replication overhead, and the catch-up
  resync cost per missed write.
* ``degraded_serving`` — the PREDICT server under a serve-error rate,
  retrying on backoff lanes.  Requests that needed retries pay their
  re-execution; the p95 inflation over the fault-free run is the price
  of surviving the fault rate with zero failed requests.

CI smoke mode (``BENCH_SMOKE=1``): smaller scales, JSON to a scratch
path, same assertions on invariants (parity, zero failures) but relaxed
inflation ceilings.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

import repro
from repro.bench.reporting import write_bench_json
from repro.common.faults import FaultPlan
from repro.common.simtime import SimClock
from repro.exec.executor import Executor
from repro.serve import PredictServer, uniform_arrivals
from repro.sql import parse
from repro.storage import Column, DataType, PRIMARY, ReplicatedTable, TableSchema

SMOKE = os.environ.get("BENCH_SMOKE") == "1"
SEED = int(os.environ.get("FAULT_SEED", "0"))

EXEC_ROWS = 6_000 if SMOKE else 60_000
CHAOS_RATE = 0.05
WORKER_SWEEP = (2, 4)
INFLATION_CEILING = 6.0 if SMOKE else 3.0

REPLICA_WRITES = 400 if SMOKE else 4_000
OUTAGE_RATE = 0.01
OUTAGE_OPS = 25

SERVE_REQUESTS = 32 if SMOKE else 200
SERVE_RATE = 50_000.0
SERVE_FAULT_RATE = 0.15
TRAIN_ROWS = 300 if SMOKE else 1_500
WARM_GAP = 1.0

RESULT_PATH = (os.path.join(tempfile.gettempdir(), "BENCH_faults.json")
               if SMOKE else
               os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "BENCH_faults.json"))

_report: dict = {"seed": SEED, "smoke": SMOKE}


def _typed(rows):
    return [tuple((type(v), v) for v in row) for row in rows]


def _percentile(values, q):
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


# -- 1. recovery makespan inflation ------------------------------------------


def test_recovery_makespan_inflation():
    db = repro.connect()
    db.execute("CREATE TABLE t (id INT UNIQUE, grp TEXT, v FLOAT)")
    heap = db.catalog.table("t")
    rng = np.random.default_rng(SEED)
    v = rng.random(EXEC_ROWS)
    for i in range(EXEC_ROWS):
        heap.insert((i, f"g{i % 13}", float(v[i])))
    db.execute("ANALYZE")

    sql = ("SELECT grp, count(*), sum(v), avg(v) FROM t "
           "WHERE v > 0.2 GROUP BY grp")
    plan_node = db.planner.plan_select(parse(sql))
    points = []
    for workers in WORKER_SWEEP:
        clean = Executor(db.catalog, db.clock, engine="parallel",
                         workers=workers).run(plan_node)
        chaos = FaultPlan.chaos(SEED, rate=CHAOS_RATE, latency=1e-4)
        faulty = Executor(db.catalog, db.clock, engine="parallel",
                          workers=workers, faults=chaos,
                          retry_limit=8).run(plan_node)
        assert _typed(faulty.rows) == _typed(clean.rows), (
            f"{workers} workers: recovered result diverged")
        stats = faulty.extra["parallel"]
        clean_span = clean.extra["parallel"]["virtual_makespan"]
        chaos_span = stats["virtual_makespan"]
        inflation = chaos_span / clean_span
        injected = chaos.counts()
        recovered = stats["task_retries"] + stats["crashes_recovered"]
        assert recovered == (injected.get("task_error", 0)
                             + injected.get("worker_crash", 0))
        assert 1.0 <= inflation <= INFLATION_CEILING, (
            f"{workers} workers: makespan inflation {inflation:.2f}x "
            f"outside [1.0, {INFLATION_CEILING}]")
        points.append({
            "workers": workers,
            "clean_makespan": round(clean_span, 6),
            "chaos_makespan": round(chaos_span, 6),
            "makespan_inflation": round(inflation, 3),
            "faults_injected": injected,
            "task_retries": stats["task_retries"],
            "crashes_recovered": stats["crashes_recovered"],
        })
        print(f"\n{workers} workers: chaos rate {CHAOS_RATE} -> "
              f"{inflation:.2f}x makespan "
              f"({sum(injected.values())} faults, {recovered} recovered)")

    _report["recovery_makespan"] = {
        "rows": EXEC_ROWS, "chaos_rate": CHAOS_RATE, "sweep": points}


# -- 2. failover latency ------------------------------------------------------


def test_failover_and_resync_latency():
    clock = SimClock()
    plan = FaultPlan(SEED).arm("replica_down", rate=OUTAGE_RATE,
                               duration=OUTAGE_OPS)
    schema = TableSchema("orders", [Column("id", DataType.INT),
                                    Column("qty", DataType.INT)])
    table = ReplicatedTable(schema, clock=clock, faults=plan)
    for i in range(REPLICA_WRITES):
        table.insert((i, i * 3))
    table.recover(PRIMARY)

    status = table.status()
    assert status["failovers"] >= 1, "outage rate injected no failovers"
    assert status["missed"][PRIMARY] == 0
    assert (_typed([r for _, r in table.primary.scan()])
            == _typed([r for _, r in table.backup.scan()]))

    breakdown = clock.breakdown()
    failover_latency = breakdown["failover"] / status["failovers"]
    replicate_per_write = breakdown["replicate"] / REPLICA_WRITES
    resync_per_write = (breakdown["resync"] / status["resynced_writes"]
                        if status["resynced_writes"] else 0.0)
    _report["failover"] = {
        "writes": REPLICA_WRITES,
        "outage_rate": OUTAGE_RATE,
        "outage_ops": OUTAGE_OPS,
        "failovers": status["failovers"],
        "resyncs": status["resyncs"],
        "resynced_writes": status["resynced_writes"],
        "failover_latency_virtual_sec": round(failover_latency, 9),
        "replicate_per_write_virtual_sec": round(replicate_per_write, 9),
        "resync_per_missed_write_virtual_sec": round(resync_per_write, 9),
        "final_lsn": status["lsn"],
    }
    print(f"\n{status['failovers']} failovers over {REPLICA_WRITES} writes: "
          f"{failover_latency * 1e6:.2f} virtual us each; resync replayed "
          f"{status['resynced_writes']} writes in {status['resyncs']} passes")


# -- 3. degraded-serving p95 --------------------------------------------------


def _serving_db(rows: int):
    db = repro.connect()
    db.execute("CREATE TABLE clicks (cid INT UNIQUE, a FLOAT, b FLOAT, "
               "y FLOAT)")
    rng = np.random.default_rng(SEED)
    for i in range(rows):
        a, b = float(rng.random()), float(rng.random())
        db.execute(f"INSERT INTO clicks VALUES ({i}, {a:.4f}, {b:.4f}, "
                   f"{3 * a - 2 * b + 1:.4f})")
    db.execute("ANALYZE")
    return db, rng


def _serve_workload(faults=None):
    db, rng = _serving_db(TRAIN_ROWS)
    sqls = []
    for _ in range(SERVE_REQUESTS):
        a, b = float(rng.random()), float(rng.random())
        sqls.append(f"PREDICT VALUE OF y FROM clicks TRAIN ON a, b "
                    f"VALUES ({a:.4f}, {b:.4f})")
    server = PredictServer(db, faults=faults,
                           retry_policy=repro.RetryPolicy(max_retries=4))
    server.submit(sqls[0], at=0.0)   # warm-up: cold train outside window
    arrivals = uniform_arrivals(SERVE_REQUESTS, SERVE_RATE)
    requests = [server.submit(sql, at=WARM_GAP + t)
                for sql, t in zip(sqls, arrivals)]
    server.drain()
    return server, requests


def test_degraded_serving_p95():
    _, clean_requests = _serve_workload()
    assert all(r.error is None for r in clean_requests)
    clean_p95 = _percentile([r.latency for r in clean_requests], 95)

    plan = FaultPlan(SEED).arm("serve_error", rate=SERVE_FAULT_RATE)
    server, requests = _serve_workload(faults=plan)
    assert all(r.error is None for r in requests), (
        "bounded retries failed to absorb the serve-error rate")
    retried = sum(1 for r in requests if r.retries)
    assert server.stats()["batch_retries"] >= 1
    degraded_p95 = _percentile([r.latency for r in requests], 95)
    inflation = degraded_p95 / clean_p95
    assert inflation >= 1.0

    _report["degraded_serving"] = {
        "requests": SERVE_REQUESTS,
        "serve_fault_rate": SERVE_FAULT_RATE,
        "requests_retried": retried,
        "batch_retries": server.stats()["batch_retries"],
        "clean_p95_virtual_sec": round(clean_p95, 9),
        "degraded_p95_virtual_sec": round(degraded_p95, 9),
        "p95_inflation": round(inflation, 3),
    }
    print(f"\nserve-error rate {SERVE_FAULT_RATE}: {retried} requests "
          f"retried, p95 {clean_p95 * 1e6:.1f} -> {degraded_p95 * 1e6:.1f} "
          f"virtual us ({inflation:.2f}x), zero failures")


def test_zzz_write_report():
    """Runs last (name-ordered within the module): persist the report."""
    assert {"recovery_makespan", "failover",
            "degraded_serving"} <= set(_report)
    write_bench_json(
        RESULT_PATH, _report, smoke=SMOKE, seeds={"fault_seed": SEED},
        workload={"exec_rows": EXEC_ROWS, "chaos_rate": CHAOS_RATE,
                  "worker_sweep": WORKER_SWEEP,
                  "replica_writes": REPLICA_WRITES,
                  "outage_rate": OUTAGE_RATE,
                  "serve_requests": SERVE_REQUESTS,
                  "serve_fault_rate": SERVE_FAULT_RATE,
                  "train_rows": TRAIN_ROWS})
