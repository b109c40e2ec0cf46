"""Execution-engine throughput gates, written to ``BENCH_exec.json``.

Six groups of workload families keep a wall-clock trajectory (host
rows/sec, not virtual time) for future PRs to compare against:

* ``scan_filter_aggregate`` — the PR 1 vectorization gate: the batch
  engine must clear >= 5x the row engine's rows/sec on a 100k-row
  scan/filter/aggregate pipeline, with identical results.
* ``fused_aggregate`` — the PR 7 typed-storage gate: with columns typed
  at rest (typed scan blocks sliced from the merged page views,
  dictionary-coded group keys, the selection mask deferred all the way
  into the aggregate sink), the fused scan→filter→aggregate block
  stream must clear FUSED_AGG_FLOOR x the row engine on an 8-column
  table at the largest of three scales, with identical rows and charged
  virtual time.  Measured at the engine's stream level — blocks for the
  batch engine, tuples for the row engine — so the gate isolates the
  execution pipeline rather than result materialization.  (The gate's
  baseline was the unfused per-operator pull until that path was
  deleted; the floor keeps the old 0.75 x measured margin.)
* ``sort`` / ``int_groupby`` / ``hash_join`` — the array-kernel gates:
  a 95k-row ORDER BY, a 1000-key integer GROUP BY and a 100k x 50k
  equi-join on the batch engine against the row engine, whole
  ``Executor.run`` calls with rows out as tuples, identical rows (order
  included), floor 8x at 100k rows (the ROADMAP asked for >= 5x).
* ``placed_engine_ratio`` — the placed engines' wall-clock floor: the
  same plans on ``parallel(workers=1)`` and on ``distributed(nodes=2)``
  over 4 shards, each divided by the batch engine over the same table —
  integer GROUP BY at 1,000 and ``rows/20`` keys, a filtered aggregate
  and the equi-join at 100k rows.  A placement may cost its per-morsel
  bookkeeping, not a multiple: ceiling 2.5x per shape (the dict-partial
  engines stood at 12x on the integer GROUP BY).
* ``dml_by_key`` — the planned victim scan's floor: ``UPDATE`` and
  ``DELETE ... WHERE id = k`` through ``db.execute`` at 20k and 100k
  rows, with the B+-tree on ``id`` and with it dropped (the SeqScan
  fallback every unindexed UPDATE still takes): best wall clock over a
  run of keys, charged virtual time and rows examined per victim beside
  it.  Floor: the indexed statement >= 20x the unindexed one at 20k rows.
  Its ``range_by_key`` case is the folded two-sided range: a 20-id
  ``SELECT`` / ``UPDATE`` / ``DELETE ... WHERE id >= k AND id < k + 20``
  on the same two tables, identical rows, one row examined per row
  returned through the index; the writes hold the same 20x floor, the
  read is held to its work (the batch engine's SeqScan of a warm typed
  view is within 3x of twenty index probes at 20k rows).
* ``tracing_overhead`` — the observability gate on the same workload:
  no tracer attached stays within 5% of the pre-tracing charge path,
  an attached tracer costs at most 2x.

CI smoke mode (``BENCH_SMOKE=1``): tiny scales, relaxed floors, JSON to
a scratch path so the committed trajectory isn't clobbered (see
``.github/workflows/ci.yml``).
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from contextlib import contextmanager

import numpy as np
import pytest

import repro
from repro.bench.reporting import write_bench_json
from repro.common import categories as cat
from repro.common.simtime import CostModel
from repro.exec.executor import Executor
from repro.exec.pipeline import compile_pipelines, run_program
from repro.sql import parse
from wallclock import timed_once

SMOKE = os.environ.get("BENCH_SMOKE") == "1"
RESULT_PATH = (os.path.join(tempfile.gettempdir(), "BENCH_exec.json")
               if SMOKE else
               os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "BENCH_exec.json"))

AGG_ROWS = 8_000 if SMOKE else 100_000
AGG_FLOOR = 1.5 if SMOKE else 5.0
AGG_QUERY = ("SELECT grp, count(*), sum(v), avg(w) FROM t "
             "WHERE v > 0.25 AND w < 0.9 GROUP BY grp")

FUSED_AGG_SCALES = [6_000] if SMOKE else [20_000, 50_000, 100_000]
FUSED_AGG_FLOOR = 5.0 if SMOKE else 28.0
FUSED_AGG_QUERY = ("SELECT grp, count(*), sum(v) FROM wide "
                   "WHERE v > 0.25 AND w2 < 0.9 GROUP BY grp")


KERNEL_ROWS = 8_000 if SMOKE else 100_000
# family -> (query, speedup floor).  The ROADMAP target is >= 5x on sort
# and integer GROUP BY at 100k rows; measured 15-22x on every family, so
# the full-scale floor is about half of that.  At smoke scale the 1000
# groups' per-group constants weigh against 8k rows (measured 3.8-4.2x).
KERNEL_FAMILIES = {
    "sort": ("SELECT id, v FROM t WHERE w < 0.95 ORDER BY v",
             5.0 if SMOKE else 8.0),
    "int_groupby": ("SELECT k, count(*), sum(v) FROM t GROUP BY k",
                    2.0 if SMOKE else 8.0),
    "hash_join": ("SELECT a.grp, count(*), sum(b.v) FROM t a JOIN t b "
                  "ON a.id = b.k WHERE b.w < 0.5 GROUP BY a.grp",
                  5.0 if SMOKE else 8.0),
}

# measured ~80x (update) / ~120x (delete) at 20k rows, 12-22x at 4k
DML_SCALES = [4_000] if SMOKE else [20_000, 100_000]
DML_FLOOR = 5.0 if SMOKE else 20.0
DML_KEYS = 5 if SMOKE else 15
DML_SHAPES = {"update": "UPDATE acct SET bal = bal + 1.5 WHERE id = {}",
              "delete": "DELETE FROM acct WHERE id = {}"}
# measured 27-35x (update) / 40-51x (delete) at 20k rows over four runs,
# 7-10x at 4k; the SELECT reads 2.7-3.1x at 20k and is gated on rows
# examined, not wall
RANGE_SPAN = 20
RANGE_SHAPES = {
    "select": "SELECT id, bal FROM acct WHERE id >= {} AND id < {}",
    "update": "UPDATE acct SET bal = bal + 1.5 WHERE id >= {} AND id < {}",
    "delete": "DELETE FROM acct WHERE id >= {} AND id < {}"}
RANGE_FLOOR = 3.0 if SMOKE else 20.0


def _update_report(family: str, payload: dict) -> None:
    """Read-modify-write one workload family's entry in the JSON."""
    data: dict = {}
    if os.path.exists(RESULT_PATH):
        try:
            with open(RESULT_PATH) as fh:
                data = json.load(fh)
        except (json.JSONDecodeError, OSError):
            data = {}
    if not isinstance(data, dict) or "workload" in data:
        data = {}  # pre-PR-5 flat layout: start fresh
    data.pop("meta", None)
    data[family] = payload
    write_bench_json(
        RESULT_PATH, data, smoke=SMOKE,
        seeds={"numpy_rng": 7},
        workload={"agg_rows": AGG_ROWS,
                  "fused_agg_scales": FUSED_AGG_SCALES,
                  "agg_floor": AGG_FLOOR,
                  "fused_agg_floor": FUSED_AGG_FLOOR,
                  "kernel_rows": KERNEL_ROWS,
                  "dml_scales": DML_SCALES,
                  "dml_floor": DML_FLOOR})


# -- scan -> filter -> aggregate (batch vs row) -------------------------------


def _build_agg_db(rows: int):
    db = repro.connect()
    db.execute("CREATE TABLE t (id INT UNIQUE, grp TEXT, v FLOAT, w FLOAT)")
    heap = db.catalog.table("t")
    rng = np.random.default_rng(7)
    groups = ["alpha", "beta", "gamma", "delta"]
    v = rng.random(rows)
    w = rng.random(rows)
    for i in range(rows):
        heap.insert((i, groups[i & 3], float(v[i]), float(w[i])))
    db.execute("ANALYZE")
    return db


def _run(db, engine: str):
    plan = db.planner.plan_select(parse(AGG_QUERY))
    executor = Executor(db.catalog, db.clock, engine=engine)
    executor.run(plan)  # warm caches (compiled expressions, buffers)
    start = time.perf_counter()
    result = executor.run(plan)
    elapsed = time.perf_counter() - start
    return result, elapsed


def test_batch_engine_throughput():
    db = _build_agg_db(AGG_ROWS)
    row_result, row_seconds = _run(db, "row")
    batch_result, batch_seconds = _run(db, "batch")

    assert sorted(batch_result.rows) == sorted(row_result.rows)

    row_rate = AGG_ROWS / row_seconds
    batch_rate = AGG_ROWS / batch_seconds
    speedup = batch_rate / row_rate
    _update_report("scan_filter_aggregate", {
        "workload": AGG_QUERY,
        "rows": AGG_ROWS,
        "row_engine": {"seconds": round(row_seconds, 4),
                       "rows_per_sec": round(row_rate)},
        "batch_engine": {"seconds": round(batch_seconds, 4),
                         "rows_per_sec": round(batch_rate)},
        "speedup": round(speedup, 2),
    })
    print(f"\nscan->filter->aggregate over {AGG_ROWS} rows:")
    print(f"  row engine:   {row_seconds:.3f}s ({row_rate:,.0f} rows/s)")
    print(f"  batch engine: {batch_seconds:.3f}s ({batch_rate:,.0f} rows/s)")
    print(f"  speedup:      {speedup:.1f}x")
    assert speedup >= AGG_FLOOR, (
        f"batch engine only {speedup:.1f}x over row engine "
        f"(acceptance floor is {AGG_FLOOR}x)")


# -- fused scan -> filter -> aggregate (typed storage gate) -------------------


def _build_wide_db(rows: int):
    """An 8-column table: fusion's copy-avoidance grows with the gap
    between table width and the columns the query touches."""
    db = repro.connect()
    db.execute("CREATE TABLE wide (id INT UNIQUE, grp TEXT, v FLOAT, "
               "w2 FLOAT, a FLOAT, b FLOAT, c TEXT, d FLOAT)")
    heap = db.catalog.table("wide")
    rng = np.random.default_rng(7)
    groups = ["alpha", "beta", "gamma", "delta"]
    v = rng.random(rows)
    w2 = rng.random(rows)
    for i in range(rows):
        heap.insert((i, groups[i & 3], float(v[i]), float(w2[i]),
                     float(v[i] * 2), float(w2[i] * 3), f"s{i % 100}",
                     float(i)))
    db.execute("ANALYZE")
    return db


def _stream_seconds(db, plan, engine: str = "batch",
                    repeats: int = 5) -> float:
    """Best-of-N wall-clock to drain the engine's own output stream:
    blocks for the batch engine, tuples for the row engine."""
    executor = Executor(db.catalog, db.clock, engine=engine)
    best = float("inf")
    for _ in range(repeats + 1):  # first lap warms caches
        operator = executor.build(plan)
        stream = (run_program(compile_pipelines(operator), db.clock)
                  if engine == "batch" else iter(operator))
        start = time.perf_counter()
        for _item in stream:
            pass
        best = min(best, time.perf_counter() - start)
    return best


def test_fused_aggregate_throughput():
    """Typed columns end to end: the aggregate sink consumes deferred
    (block, mask) carriers over dictionary-coded group keys, so the
    filtered block the row engine walks tuple by tuple is never even
    materialized."""
    scales = []
    speedup = 0.0
    for rows in FUSED_AGG_SCALES:
        db = _build_wide_db(rows)
        plan = db.planner.plan_select(parse(FUSED_AGG_QUERY))

        # parity first: identical rows and charged virtual time
        expected = Executor(db.catalog, db.clock, engine="row").run(plan)
        got = Executor(db.catalog, db.clock, engine="batch").run(plan)
        assert got.rows == expected.rows
        assert abs(got.virtual_seconds - expected.virtual_seconds) \
            <= 1e-6 * expected.virtual_seconds

        row_s = _stream_seconds(db, plan, "row", repeats=2)
        fused_s = _stream_seconds(db, plan)
        speedup = row_s / fused_s
        scales.append({
            "rows": rows,
            "row": {"seconds": round(row_s, 4),
                    "rows_per_sec": round(rows / row_s)},
            "fused": {"seconds": round(fused_s, 4),
                      "rows_per_sec": round(rows / fused_s)},
            "speedup": round(speedup, 2),
        })
        print(f"\nfused aggregate over {rows} rows:")
        print(f"  row:     {row_s:.4f}s ({rows / row_s:,.0f} rows/s)")
        print(f"  fused:   {fused_s:.4f}s ({rows / fused_s:,.0f} rows/s)")
        print(f"  speedup: {speedup:.2f}x")

    _update_report("fused_aggregate", {
        "workload": FUSED_AGG_QUERY,
        "measure": "engine output stream (blocks vs tuples), drained",
        "scales": scales,
        "floor": FUSED_AGG_FLOOR,
    })
    # the gate applies at the largest scale, where per-query constants
    # have washed out
    assert speedup >= FUSED_AGG_FLOOR, (
        f"fused aggregate only {speedup:.2f}x over the row engine "
        f"(acceptance floor is {FUSED_AGG_FLOOR}x)")


# -- array kernels: sort, integer GROUP BY, hash join (batch vs row) -----------


def _build_kernel_db(rows: int, wide_key: bool = False, **options):
    """``wide_key`` adds ``k2``, an integer key with ``rows/20`` values;
    ``options`` go to ``connect`` (``shards=``)."""
    db = repro.connect(**options)
    db.execute("CREATE TABLE t (id INT UNIQUE, grp TEXT, k INT, "
               "v FLOAT, w FLOAT" + (", k2 INT)" if wide_key else ")"))
    heap = db.catalog.table("t")
    rng = np.random.default_rng(7)
    groups = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta"]
    grp = rng.integers(0, len(groups), rows)
    k = rng.integers(0, 1000, rows)
    v = rng.random(rows)
    w = rng.random(rows)
    for i in range(rows):
        heap.insert((i, groups[grp[i]], int(k[i]), float(v[i]), float(w[i]))
                    + ((i * 37 % max(64, rows // 20),) if wide_key else ()))
    db.execute("ANALYZE")
    return db


def _best_run(db, plan, engine: str, repeats: int, **options):
    """(result, best-of-N wall seconds) of whole ``Executor.run`` calls —
    rows out as tuples on every engine; the first lap warms caches."""
    executor = Executor(db.catalog, db.clock, engine=engine, **options)
    best = float("inf")
    for _ in range(repeats + 1):
        start = time.perf_counter()
        result = executor.run(plan)
        best = min(best, time.perf_counter() - start)
    return result, best


@pytest.mark.parametrize("family", list(KERNEL_FAMILIES))
def test_array_kernel_throughput(family):
    """Each breaker keeps its data in arrays on the batch engine (stable
    argsort over typed keys, factorised GROUP BY partition, searchsorted
    hash-join probe) where the row engine compares, hashes and
    concatenates Python objects row by row: identical rows — order
    included — and at least the family's floor in wall-clock speed."""
    sql, floor = KERNEL_FAMILIES[family]
    db = _build_kernel_db(KERNEL_ROWS)
    plan = db.planner.plan_select(parse(sql))
    row_result, row_s = _best_run(db, plan, "row", repeats=1)
    batch_result, batch_s = _best_run(db, plan, "batch", repeats=4)
    assert batch_result.rows == row_result.rows
    speedup = row_s / batch_s
    _update_report(family, {
        "workload": sql,
        "measure": "Executor.run, best of N, rows out as tuples",
        "rows": KERNEL_ROWS,
        "rows_out": len(batch_result.rows),
        "row_engine": {"seconds": round(row_s, 4)},
        "batch_engine": {"seconds": round(batch_s, 4)},
        "speedup": round(speedup, 2),
        "floor": floor,
    })
    print(f"\n{family} over {KERNEL_ROWS} rows: row {row_s:.4f}s, "
          f"batch {batch_s:.4f}s, speedup {speedup:.1f}x")
    assert speedup >= floor, (
        f"{family}: batch engine only {speedup:.1f}x over the row engine "
        f"(acceptance floor is {floor}x)")


# -- placed engines over batch (the placements' wall-clock floor) --------------

PLACED_CEILING = 6.0 if SMOKE else 2.5
PLACED_SHAPES = {
    "int_groupby": KERNEL_FAMILIES["int_groupby"][0],
    "int_groupby_wide": "SELECT k2, count(*), sum(v) FROM t GROUP BY k2",
    "filter_agg": AGG_QUERY,
    "hash_join": KERNEL_FAMILIES["hash_join"][0],
}
# (engine, its options, connect options of the table it and its batch
# baseline both read)
PLACEMENTS = [("parallel", {"workers": 1}, {}),
              ("distributed", {"nodes": 2}, {"shards": 4})]


def test_placed_engine_ratio():
    """What a placement costs in real time: the phased walk, per-morsel
    partials and the one array merge against the streaming batch engine
    on the same plan and table — identical rows, and no shape more than
    ``PLACED_CEILING`` times slower.  One worker and a serial node model:
    this floor is about the data path, not about threads."""
    repeats = 2 if SMOKE else 5
    shapes: dict[str, dict] = {name: {"workload": sql}
                               for name, sql in PLACED_SHAPES.items()}
    for engine, options, connect in PLACEMENTS:
        db = _build_kernel_db(KERNEL_ROWS, wide_key=True, **connect)
        for name, sql in PLACED_SHAPES.items():
            plan = db.planner.plan_select(parse(sql))
            batch, batch_s = _best_run(db, plan, "batch", repeats)
            placed, placed_s = _best_run(db, plan, engine, repeats,
                                         **options)
            assert placed.rows == batch.rows, f"{name} on {engine}"
            shapes[name][engine] = {
                "options": {**options, **connect},
                "batch_seconds": round(batch_s, 4),
                "placed_seconds": round(placed_s, 4),
                "ratio": round(placed_s / batch_s, 2)}
            print(f"\n{name} over {KERNEL_ROWS} rows: batch "
                  f"{batch_s * 1e3:.1f} ms, {engine} {options} "
                  f"{placed_s * 1e3:.1f} ms "
                  f"({placed_s / batch_s:.2f}x)")
    _update_report("placed_engine_ratio", {
        "measure": "Executor.run, best of N, rows out as tuples; "
                   "ratio = placed engine / batch engine, same table",
        "rows": KERNEL_ROWS,
        "shapes": shapes,
        "ceiling": PLACED_CEILING,
    })
    worst = {f"{name} on {engine}": shapes[name][engine]["ratio"]
             for name in shapes for engine, _, _ in PLACEMENTS}
    assert max(worst.values()) <= PLACED_CEILING, (
        f"placed engines above {PLACED_CEILING}x of batch: "
        f"{ {k: v for k, v in worst.items() if v > PLACED_CEILING} }")


# -- UPDATE / DELETE by key (the planned victim scan) --------------------------


def _dml_figures(db, template: str, keys, span: int = 1) -> dict:
    """One statement per key (a write cannot be repeated): best wall
    clock, and — from the clock's scan / index charges, as
    ``benchmarks/e2e`` counts them — charged time and rows examined.
    ``span`` > 1: the statement names ``[key, key + span)``."""
    clock = db.clock
    start = clock.now
    examined = -(clock.category_total(cat.SCAN)
                 + clock.category_total(cat.INDEX))
    best, victims = float("inf"), 0
    for key in keys:
        result, wall = timed_once(db.execute,
                                  template.format(int(key), int(key) + span))
        best = min(best, wall)
        victims += result.extra.get("rowcount", len(result.rows))
    assert victims == span * len(keys)
    examined += (clock.category_total(cat.SCAN)
                 + clock.category_total(cat.INDEX))
    if db.catalog.indexes_on("acct"):
        examined -= len(keys) * CostModel.INDEX_DESCENT
    return {"wall_ms": round(best * 1e3, 4),
            "virtual_ms": round((clock.now - start) / len(keys) * 1e3, 6),
            "rows_examined_per_victim": round(
                examined / CostModel.TUPLE_CPU / victims, 1)}


def _indexed_then_dropped(db):
    """The two tables every shape is timed on: ``acct`` with the B+-tree
    on ``id``, then with it dropped."""
    db.execute("CREATE INDEX acct_id ON acct (id)")
    yield "indexed"
    db.catalog.drop_index("acct_id")
    yield "unindexed"


def _speedups(figures: dict, title: str, rows: int) -> None:
    for shape, entry in figures.items():
        indexed, unindexed = entry["indexed"], entry["unindexed"]
        entry["speedup"] = round(unindexed["wall_ms"] / indexed["wall_ms"], 1)
        print(f"\n{shape} {title} over {rows} rows: btree "
              f"{indexed['wall_ms']:.3f} ms, no index "
              f"{unindexed['wall_ms']:.3f} ms ({entry['speedup']:.0f}x);"
              f" virtual {indexed['virtual_ms']:.4f} / "
              f"{unindexed['virtual_ms']:.4f} ms")


def test_dml_by_key():
    """UPDATE / DELETE by key read one row through the index the table
    has, where the full scan they used to run reads the table — and a
    two-sided range reads its twenty."""
    scales: dict[str, dict] = {}
    range_scales: dict[str, dict] = {}
    for rows in DML_SCALES:
        db = repro.connect()
        db.execute("CREATE TABLE acct (id INT UNIQUE, owner TEXT, "
                   "region INT, bal FLOAT)")
        heap = db.catalog.table("acct")
        rng = np.random.default_rng(7)
        for i, bal in enumerate(rng.uniform(0, 1000, rows).round(2)):
            heap.insert((i, f"owner{i % 997}", i % 50, float(bal)))
        db.execute("ANALYZE")
        point_keys = rng.permutation(rows)[:4 * DML_KEYS]
        keys = iter(point_keys.reshape(4, DML_KEYS))
        # range starts: 20-id blocks no point statement touches; the
        # SELECT and the UPDATE take the same ones with and without the
        # index, a DELETE cannot
        taken = set(point_keys // RANGE_SPAN)
        blocks = [block for block in rng.permutation(rows // RANGE_SPAN)
                  if block not in taken][:4 * DML_KEYS]
        starts = (np.array(blocks) * RANGE_SPAN).reshape(4, DML_KEYS)
        figures: dict[str, dict] = {shape: {} for shape in DML_SHAPES}
        ranges: dict[str, dict] = {shape: {} for shape in RANGE_SHAPES}
        returned = {}
        for access in _indexed_then_dropped(db):
            for shape, template in DML_SHAPES.items():
                figures[shape][access] = _dml_figures(db, template,
                                                      next(keys))
        for at, access in enumerate(_indexed_then_dropped(db)):
            for shape, picks in (("select", starts[0]), ("update", starts[1]),
                                 ("delete", starts[2 + at])):
                ranges[shape][access] = _dml_figures(
                    db, RANGE_SHAPES[shape], picks, RANGE_SPAN)
            returned[access] = [
                sorted(db.execute(RANGE_SHAPES["select"].format(
                    int(k), int(k) + RANGE_SPAN)).rows)
                for k in starts[0]]
        assert returned["indexed"] == returned["unindexed"]
        _speedups(figures, "by key", rows)
        _speedups(ranges, f"of a {RANGE_SPAN}-id range", rows)
        scales[str(rows)] = figures
        range_scales[str(rows)] = ranges
    _update_report("dml_by_key", {
        "measure": "db.execute(sql text), one statement per key, best "
                   "wall clock of DML_KEYS; virtual = mean charged time; "
                   "speedup = unindexed / indexed wall",
        "workloads": DML_SHAPES,
        "keys": DML_KEYS,
        "scales": scales,
        "floor": DML_FLOOR,
        "floor_at_rows": DML_SCALES[0],
        "range_by_key": {
            "workloads": RANGE_SHAPES,
            "span": RANGE_SPAN,
            "scales": range_scales,
            "floor": RANGE_FLOOR,
            "floor_on": ["update", "delete"],
        },
    })
    gated = scales[str(DML_SCALES[0])]
    for shape, entry in gated.items():
        assert entry["indexed"]["rows_examined_per_victim"] == 1.0
        assert entry["speedup"] >= DML_FLOOR, (
            f"{shape} by key through the B+-tree is only "
            f"{entry['speedup']}x the unindexed statement at "
            f"{DML_SCALES[0]} rows (floor {DML_FLOOR}x)")
    for shape, entry in range_scales[str(DML_SCALES[0])].items():
        assert entry["indexed"]["rows_examined_per_victim"] == 1.0, shape
        assert shape == "select" or entry["speedup"] >= RANGE_FLOOR, (
            f"{shape} of a {RANGE_SPAN}-id range through the B+-tree is "
            f"only {entry['speedup']}x the unindexed statement at "
            f"{DML_SCALES[0]} rows (floor {RANGE_FLOOR}x)")


# -- tracing overhead (observability gate) ------------------------------------


def _pre_pr_advance(self, seconds: float, category: str = "misc") -> float:
    """Verbatim pre-tracing SimClock.advance — the A side of the
    same-process A/B (no tracer hook on the accumulation path)."""
    if seconds < 0:
        raise ValueError(f"cannot advance clock by negative time {seconds!r}")
    self._now += seconds
    self._by_category[category] += seconds
    if self._limit is not None and self._now > self._limit:
        from repro.common.simtime import BudgetExceeded
        raise BudgetExceeded(f"virtual-time budget {self._limit} exceeded")
    return self._now


def _pre_pr_advance_batch(self, per_item: float, count: int,
                          category: str = "misc") -> float:
    """Verbatim pre-tracing SimClock.advance_batch."""
    if count < 0:
        raise ValueError(f"cannot charge a negative count {count!r}")
    if count == 0:
        return self._now
    return self.advance(per_item * count, category)


@contextmanager
def _pre_pr_charge_path():
    """Swap every SimClock's charge methods to the pre-PR bodies for the
    duration — the engine code stays post-PR in both runs, so the A/B
    isolates exactly what the tracer hook costs on the charge path."""
    from repro.common.simtime import SimClock
    saved = (SimClock.advance, SimClock.advance_batch)
    SimClock.advance = _pre_pr_advance
    SimClock.advance_batch = _pre_pr_advance_batch
    try:
        yield
    finally:
        SimClock.advance, SimClock.advance_batch = saved


TRACING_DISABLED_CEILING = 1.05   # vs the pre-PR charge path
TRACING_ENABLED_CEILING = 2.0     # traced vs untraced block stream


def test_tracing_overhead():
    """The observability bar: with no tracer attached, fused_aggregate
    wall time stays within 5% of the same workload on the pre-tracing
    charge path, and attaching a tracer costs at most 2x — while changing
    neither the result rows nor the charged virtual totals."""
    from repro.obs.trace import Tracer

    rows = FUSED_AGG_SCALES[-1]
    db = _build_wide_db(rows)
    plan = db.planner.plan_select(parse(FUSED_AGG_QUERY))

    with _pre_pr_charge_path():
        pre_s = _stream_seconds(db, plan)
    untraced_s = _stream_seconds(db, plan)
    disabled_ratio = untraced_s / pre_s
    print(f"\nfused aggregate over {rows} rows: pre-PR charge path "
          f"{pre_s:.4f}s, instrumented untraced {untraced_s:.4f}s "
          f"({disabled_ratio:.3f}x)")
    before_rows = Executor(db.catalog, db.clock, engine="batch").run(plan)
    untraced_breakdown = dict(db.clock.breakdown())

    tracer = Tracer()
    tracer.attach(db.clock)
    try:
        traced_s = _stream_seconds(db, plan)
        traced_rows = Executor(db.catalog, db.clock,
                               engine="batch").run(plan)
    finally:
        Tracer.detach(db.clock)
    enabled_ratio = traced_s / untraced_s
    print(f"fused aggregate over {rows} rows: untraced {untraced_s:.4f}s, "
          f"traced {traced_s:.4f}s ({enabled_ratio:.2f}x)")

    # observation-only: same rows, same per-category charge keys, and the
    # tracer's float mirror reconciles with the clock exactly
    assert traced_rows.rows == before_rows.rows
    assert tracer.float_totals() == dict(db.clock.breakdown())
    assert set(db.clock.breakdown()) == set(untraced_breakdown)

    _update_report("tracing_overhead", {
        "measure": ("same-process A/B on the fused_aggregate block "
                    "stream: instrumented clock vs pre-PR charge path, "
                    "then traced vs untraced"),
        "rows": rows,
        "disabled_ratio": round(disabled_ratio, 4),
        "disabled_ceiling": TRACING_DISABLED_CEILING,
        "enabled_ratio": round(enabled_ratio, 4),
        "enabled_ceiling": TRACING_ENABLED_CEILING,
    })
    assert disabled_ratio <= TRACING_DISABLED_CEILING, (
        f"disabled tracer costs {disabled_ratio:.3f}x on the charge loop "
        f"(ceiling {TRACING_DISABLED_CEILING}x)")
    assert enabled_ratio <= TRACING_ENABLED_CEILING, (
        f"enabled tracer costs {enabled_ratio:.2f}x on fused_aggregate "
        f"(ceiling {TRACING_ENABLED_CEILING}x)")
