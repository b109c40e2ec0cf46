"""Parallel sort and partitioned aggregation: the retired serial-lane
holdouts.

Covers the total-order sort key (NaN bucketed deterministically between
numbers and strings), three-way engine parity for ORDER BY over
NaN/NULL/mixed-type keys and multi-key DESC sorts, wide GROUP BY past the
mask-partition cutoff with NaN group keys at several worker counts, the
sort-cost charge fix for empty/single-row inputs, the mid-flight
virtual-time budget enforcement at parallel phase boundaries, and the
columnar aggregate partial: its format against the retired row-order
partition, its one array merge against the row engine over a morsel x
worker x node grid, and the closed-form modeled bytes against a walk of
the nested form (``tests/partial_oracle.py``).
"""

from __future__ import annotations

import random

import numpy as np
import pytest

import repro
from repro.common import categories as cat
from repro.common.errors import BindError
from repro.common.simtime import BudgetExceeded, CostModel, SimClock
from repro.exec import operators as ops
from repro.exec.distributed import DistributedScheduler
from repro.exec.executor import Executor
from repro.exec.measure import measure_plan_latency
from repro.exec.operators import _Descending, _sort_key
from repro.sql import parse
from repro.storage import Column, DataType, TableSchema
from partial_oracle import (expand_partial, merge_partition, payload_bytes,
                            payload_units, split_partial)

WORKER_SWEEP = (1, 2, 4, 8)


def _typed(rows):
    return [tuple((type(v), v) for v in row) for row in rows]


def _nan_safe(rows):
    """Type+repr comparison key: NaN == NaN under repr, 1 != 1.0 by type."""
    return [tuple((type(v), repr(v)) for v in row) for row in rows]


def _run(db, sql, **kwargs):
    plan = db.planner.plan_select(parse(sql))
    return Executor(db.catalog, db.clock, **kwargs).run(plan)


def _three_way(db, sql, workers=4, morsel_rows=16):
    """Run sql through row/batch/parallel; assert rows, types, order, and
    charged virtual time agree; return the row-engine result."""
    plan = db.planner.plan_select(parse(sql))
    # warm the buffer pool so the reference run doesn't pay cold page
    # misses the later engines get as hits (fixtures skip ANALYZE because
    # histogram stats reject NaN)
    Executor(db.catalog, db.clock, engine="batch").run(plan)
    row = Executor(db.catalog, db.clock, engine="row").run(plan)
    for engine in (Executor(db.catalog, db.clock, engine="batch"),
                   Executor(db.catalog, db.clock, engine="parallel",
                            workers=workers, morsel_rows=morsel_rows)):
        got = engine.run(plan)
        assert _nan_safe(got.rows) == _nan_safe(row.rows)
        assert got.virtual_seconds == pytest.approx(
            row.virtual_seconds, rel=1e-6, abs=1e-9)
    return row


# -- total-order sort key ----------------------------------------------------

def test_sort_key_is_total_order():
    """NaN gets the (0.5, '') bucket between numbers and strings, so any
    permutation of a mixed value set sorts to the same sequence."""
    nan = float("nan")
    values = [3, None, nan, "b", 1.5, None, nan, "a", -2, True]
    keys = [_sort_key(v) for v in values]
    # every pair of keys is comparable without error
    for a in keys:
        for b in keys:
            assert (a < b) or (b < a) or (a == b)
    ranks = [_sort_key(v)[0] for v in [-2, nan, "a", None]]
    assert ranks == sorted(ranks)  # numbers < NaN < strings < NULL


def test_sort_key_permutation_invariant():
    import itertools
    nan = float("nan")
    base = [2.0, nan, None, "x", 1]
    reference = sorted(base, key=_sort_key)
    for perm in itertools.permutations(base):
        got = sorted(perm, key=_sort_key)
        assert [repr(v) for v in got] == [repr(v) for v in reference]


def test_descending_wrapper_inverts():
    a, b = _Descending((0, 1)), _Descending((0, 2))
    assert b < a and not (a < b)
    assert _Descending((1, "x")) == _Descending((1, "x"))


# -- ORDER BY parity: NaN / NULL / mixed-type keys ---------------------------

@pytest.fixture()
def messy_db():
    """FLOAT sort column containing NaN (via the heap API), NULLs, and
    duplicates; a TEXT column with NULLs for multi-key/mixed tests."""
    db = repro.connect()
    db.execute("CREATE TABLE m (id INT, k FLOAT, s TEXT)")
    heap = db.catalog.table("m")
    nan = float("nan")
    for i in range(80):
        k = nan if i % 7 == 0 else (None if i % 11 == 0 else (i % 13) * 0.5)
        s = None if i % 5 == 0 else f"s{i % 9}"
        heap.insert((i, k, s))
    return db


@pytest.mark.parametrize("workers", WORKER_SWEEP)
def test_order_by_nan_null_parity(messy_db, workers):
    _three_way(messy_db, "SELECT id, k FROM m ORDER BY k",
               workers=workers)
    _three_way(messy_db, "SELECT id, k FROM m ORDER BY k DESC",
               workers=workers)


@pytest.mark.parametrize("workers", WORKER_SWEEP)
def test_order_by_multi_key_desc_parity(messy_db, workers):
    _three_way(messy_db, "SELECT id, k, s FROM m ORDER BY s DESC, k DESC",
               workers=workers)
    _three_way(messy_db,
               "SELECT id, k, s FROM m ORDER BY k DESC, s, id DESC",
               workers=workers)


@pytest.mark.parametrize("workers", WORKER_SWEEP)
def test_order_by_mixed_type_key_parity(messy_db, workers):
    """A computed key is no typed column, so the sort compares exact
    objects: coalesce(k, id) mixes floats, NaN and ints, k * 2 adds NULLs
    — the rank ladder numbers < NaN < NULL — and coalesce(s, 'zz') is
    text.  A key mixing TEXT and numbers has no order: it is rejected at
    plan time."""
    _three_way(messy_db,
               "SELECT id, coalesce(k, id) AS mk FROM m ORDER BY mk, id",
               workers=workers)
    _three_way(messy_db,
               "SELECT id, k * 2 AS mk FROM m ORDER BY mk DESC, id",
               workers=workers)
    _three_way(messy_db, "SELECT id, coalesce(s, 'zz') AS mk FROM m "
               "ORDER BY mk DESC, id", workers=workers)
    with pytest.raises(BindError):
        messy_db.planner.plan_select(parse(
            "SELECT id, coalesce(s, id) AS mk FROM m ORDER BY mk, id"))


def test_order_by_nan_deterministic_across_worker_counts(messy_db):
    """The k-way merge must yield one canonical order for every worker
    count and morsel size, even with all-NaN key ties."""
    reference = None
    for workers in WORKER_SWEEP:
        for morsel_rows in (4, 16, 64):
            got = _run(messy_db, "SELECT id, k FROM m ORDER BY k",
                       engine="parallel", workers=workers,
                       morsel_rows=morsel_rows)
            if reference is None:
                reference = _nan_safe(got.rows)
            assert _nan_safe(got.rows) == reference


# -- sort runs morsel-parallel now -------------------------------------------

def test_sort_heavy_plan_gets_modeled_speedup():
    """ORDER BY-heavy plans no longer ride the serial lane: the run sorts
    parallelize and only the k-way merge remainder stays serial."""
    db = repro.connect()
    db.execute("CREATE TABLE t (id INT, v FLOAT)")
    heap = db.catalog.table("t")
    for i in range(20_000):
        heap.insert((i, float((i * 37) % 9973)))
    db.execute("ANALYZE")
    stats = _run(db, "SELECT id, v FROM t ORDER BY v", engine="parallel",
                 workers=4).extra["parallel"]
    assert stats["modeled_speedup"] >= 2.0
    assert stats["phases"] >= 2  # scan pipeline + run sorts


def test_sort_charge_split_matches_serial_total(messy_db):
    """Run charges + merge remainder must equal the serial engines' single
    n*log2(n) charge (the parity invariant), asserted on the 'sort'
    category specifically."""
    sql = "SELECT id, k FROM m ORDER BY k"
    plan = messy_db.planner.plan_select(parse(sql))
    before = messy_db.clock.category_total("sort")
    Executor(messy_db.catalog, messy_db.clock, engine="batch").run(plan)
    serial_sort = messy_db.clock.category_total("sort") - before
    before = messy_db.clock.category_total("sort")
    Executor(messy_db.catalog, messy_db.clock, engine="parallel",
             workers=4, morsel_rows=8).run(plan)
    parallel_sort = messy_db.clock.category_total("sort") - before
    assert parallel_sort == pytest.approx(serial_sort, rel=1e-9)


@pytest.mark.parametrize("rows", [0, 1])
@pytest.mark.parametrize("engine", ["row", "batch", "parallel"])
def test_trivial_sort_charges_zero(rows, engine):
    """len(rows) <= 1 sorts charge no virtual time on any path."""
    db = repro.connect()
    db.execute("CREATE TABLE s (id INT, v FLOAT)")
    heap = db.catalog.table("s")
    for i in range(rows):
        heap.insert((i, float(i)))
    result = _run(db, "SELECT id, v FROM s ORDER BY v", engine=engine)
    assert len(result.rows) == rows
    assert db.clock.category_total("sort") == 0.0


# -- partitioned aggregation -------------------------------------------------

@pytest.fixture()
def wide_db():
    """Near-unique float group keys (well past _MASK_PARTITION_MAX_KEYS per
    morsel) with NaN keys sprinkled in via the heap API."""
    db = repro.connect()
    db.execute("CREATE TABLE w (k FLOAT, v FLOAT)")
    heap = db.catalog.table("w")
    nan = float("nan")
    for i in range(600):
        key = nan if i % 97 == 0 else float(i % 150) * 1.5
        heap.insert((key, float(i) * 0.25))
    return db


@pytest.mark.parametrize("workers", WORKER_SWEEP)
def test_wide_group_by_nan_keys_parity(wide_db, workers):
    """GROUP BY past the mask-partition cutoff with NaN keys: rows, group
    order, float sums, and charged time identical three ways."""
    sql = "SELECT k, count(*), sum(v), avg(v) FROM w GROUP BY k"
    plan = wide_db.planner.plan_select(parse(sql))
    Executor(wide_db.catalog, wide_db.clock, engine="batch").run(plan)
    row = Executor(wide_db.catalog, wide_db.clock, engine="row").run(plan)
    assert len(row.rows) > ops.AggregateOp.PARTITION_MIN_KEYS
    for engine in (Executor(wide_db.catalog, wide_db.clock, engine="batch"),
                   Executor(wide_db.catalog, wide_db.clock,
                            engine="parallel", workers=workers,
                            morsel_rows=64)):
        got = engine.run(plan)
        assert _nan_safe(got.rows) == _nan_safe(row.rows)
        assert got.virtual_seconds == pytest.approx(
            row.virtual_seconds, rel=1e-6, abs=1e-9)


def _narrow_rows():
    return [(["a", "b", "c"][i % 3], i) for i in range(200)]


def test_wide_group_by_merges_on_the_lane(wide_db):
    """The merge is one array pass on the serial lane at every width:
    ``parallel`` dispatches scan + partial tasks only, at every worker
    count; only the distributed placement *models* a repartition —
    one SHUFFLE + one GATHER past PARTITION_MIN_KEYS, one GATHER under."""
    morsels = -(-600 // 64)
    for workers in WORKER_SWEEP:
        stats = _run(wide_db, "SELECT k, count(*) FROM w GROUP BY k",
                     engine="parallel", workers=workers,
                     morsel_rows=64).extra["parallel"]
        assert (stats["tasks"], stats["phases"]) == (2 * morsels, 2)
    db = repro.connect(shards=3)
    db.execute("CREATE TABLE w (k FLOAT, v FLOAT)")
    db.execute("CREATE TABLE n (g TEXT, v INT)")
    for i in range(600):
        db.catalog.table("w").insert((float(i % 150) * 1.5, float(i) * 0.25))
    for row in _narrow_rows():
        db.catalog.table("n").insert(row)
    for sql, kinds in (("SELECT k, count(*) FROM w GROUP BY k",
                        [cat.SHUFFLE, cat.GATHER]),
                       ("SELECT g, sum(v) FROM n GROUP BY g", [cat.GATHER])):
        stats = _run(db, sql, engine="distributed", nodes=2,
                     morsel_rows=64).extra["distributed"]
        assert [e["kind"] for e in stats["exchanges"]] == kinds, sql


def test_partitioned_merge_deterministic_across_workers(wide_db):
    sql = "SELECT k, sum(v), count(*) FROM w GROUP BY k"
    reference = None
    for workers in WORKER_SWEEP:
        got = _run(wide_db, sql, engine="parallel", workers=workers,
                   morsel_rows=32)
        snapshot = [(repr(k), s, c) for k, s, c in got.rows]
        if reference is None:
            reference = snapshot
        assert snapshot == reference


def test_wide_group_by_multi_column_keys_partition():
    """Tuple group keys hash-partition consistently too."""
    db = repro.connect()
    db.execute("CREATE TABLE mc (a INT, b TEXT, v FLOAT)")
    heap = db.catalog.table("mc")
    for i in range(400):
        heap.insert((i % 50, f"g{i % 40}", float(i)))
    db.execute("ANALYZE")
    sql = "SELECT a, b, sum(v) FROM mc GROUP BY a, b"
    plan = db.planner.plan_select(parse(sql))
    # warm the buffer pool so the reference run doesn't pay cold page
    # misses the later engines get as hits (fixtures skip ANALYZE because
    # histogram stats reject NaN)
    Executor(db.catalog, db.clock, engine="batch").run(plan)
    row = Executor(db.catalog, db.clock, engine="row").run(plan)
    parallel = Executor(db.catalog, db.clock, engine="parallel", workers=4,
                        morsel_rows=64).run(plan)
    assert _typed(parallel.rows) == _typed(row.rows)


# -- mid-flight budget enforcement -------------------------------------------

def _budget_db():
    db = repro.connect()
    db.execute("CREATE TABLE b (id INT, g TEXT, v FLOAT)")
    heap = db.catalog.table("b")
    for i in range(20_000):
        heap.insert((i, f"g{i % 500}", float(i)))
    db.execute("ANALYZE")
    return db


def test_parallel_budget_fires_mid_flight():
    """A cap below the query's total must interrupt a parallel run at a
    phase boundary: BudgetExceeded raised, all charges accumulated so far
    merged onto the shared clock, later phases never run."""
    db = _budget_db()
    sql = "SELECT id, v FROM b ORDER BY v DESC"
    plan = db.planner.plan_select(parse(sql))
    executor = Executor(db.catalog, db.clock, engine="parallel", workers=4)
    full = executor.run(plan)
    total = full.virtual_seconds
    start = db.clock.now
    cap = total * 0.3
    db.clock.set_limit(start + cap)
    try:
        with pytest.raises(BudgetExceeded):
            Executor(db.catalog, db.clock, engine="parallel",
                     workers=4).run(plan)
    finally:
        db.clock.set_limit(None)
    charged = db.clock.now - start
    # the cap was crossed (charges merged despite the raise) but the run
    # stopped before doing all the serial engines' work
    assert charged > cap
    assert charged < total * 0.999


def test_parallel_budget_clean_run_unaffected():
    db = _budget_db()
    sql = "SELECT g, sum(v) FROM b GROUP BY g"
    plan = db.planner.plan_select(parse(sql))
    executor = Executor(db.catalog, db.clock, engine="parallel", workers=4)
    baseline = executor.run(plan)
    db.clock.set_limit(db.clock.now + baseline.virtual_seconds * 10)
    try:
        capped = Executor(db.catalog, db.clock, engine="parallel",
                          workers=4).run(plan)
    finally:
        db.clock.set_limit(None)
    assert _typed(capped.rows) == _typed(baseline.rows)


def test_measure_downgrades_parallel_under_cap():
    """Capped measurement must not use the parallel engine: the downgraded
    run keeps serial per-charge budget enforcement and still censors."""
    db = _budget_db()
    plan = db.planner.plan_select(parse("SELECT id, v FROM b ORDER BY v"))
    parallel = Executor(db.catalog, db.clock, engine="parallel", workers=4)
    cap = 1e-6
    measured = measure_plan_latency(parallel, db.clock, plan,
                                    cap_virtual=cap)
    assert measured.censored
    assert measured.latency == cap
    # uncapped measurement is allowed to stay parallel
    uncapped = measure_plan_latency(parallel, db.clock, plan)
    assert not uncapped.censored
    assert uncapped.rows_produced == 20_000


# -- partial_block: one partitioner for every engine --------------------------
#
# AggregateOp.partial_block used to carry its own row-order partition and
# answer with a nested dict; it now keeps the serial sink's partition as
# arrays.  The old implementation is kept here, verbatim, as the
# reference the new one is differentially tested against over the
# typed-storage schema generator: the columnar partial, expanded by
# partial_oracle.expand_partial, must be that dict — key order,
# representative rows, entry lists, and the (type, repr) of every value.


def _reference_partial(op, block, clock):
    clock.advance_batch(CostModel.HASH_BUILD_ROW, len(block), cat.AGG)
    call_arrays = op._call_arrays(block)
    partial = {}
    if not op._node.group_by:
        entries = [("count", len(block)) if entry is None
                   else ("values", entry[0].tolist(), entry[1])
                   for entry in call_arrays]
        partial[()] = [tuple(c[0] for c in block.columns), entries]
        return partial
    key_columns = [ops._source_values(source, block)
                   for source in op._group_sources]
    keys = (key_columns[0] if len(key_columns) == 1
            else list(zip(*key_columns)))
    partition = {}
    for i, key in enumerate(keys):
        bucket = partition.get(key)
        if bucket is None:
            partition[key] = [i]
        else:
            bucket.append(i)
    for key, indices in partition.items():
        entries = []
        for entry in call_arrays:
            if entry is None:
                entries.append(("count", len(indices)))
            else:
                values, clean = entry
                entries.append(("values", [values[i] for i in indices],
                                clean))
        partial[key] = [tuple(c[indices[0]] for c in block.columns),
                        entries]
    return partial


def _bits(value):
    """(type, repr) all the way down: NaN == NaN, 1 != 1.0 != True."""
    if isinstance(value, (list, tuple)):
        return (type(value), [_bits(v) for v in value])
    return (type(value), repr(value))


def _partial_bits(partial, clean=True):
    """``clean=False`` drops the NULL-free flags from the comparison."""
    if not clean:
        partial = {key: [representative, [entry[:2] for entry in entries]]
                   for key, (representative, entries) in partial.items()}
    return [(_bits(key), _bits(representative), _bits(entries))
            for key, (representative, entries) in partial.items()]


def _aggregate_queries(shape):
    cols = [f"c{i}" for i in range(len(shape))]
    aggs = ", ".join(f"count({c}), min({c}), max({c})" for c in cols)
    queries = [f"SELECT count(*), {aggs} FROM t"]
    for key in cols:
        queries.append(f"SELECT {key}, count(*), {aggs} FROM t "
                       f"GROUP BY {key}")
        queries.append(f"SELECT {key}, count(DISTINCT {cols[-1]}) FROM t "
                       f"GROUP BY {key}")
    if len(cols) > 1:
        queries.append(f"SELECT {cols[0]}, {cols[1]}, count(*), "
                       f"count({cols[-1]}) FROM t "
                       f"GROUP BY {cols[0]}, {cols[1]}")
    return queries


def _find(op, cls):
    while not isinstance(op, cls):
        op = op._child
    return op


def _entry_rows(entries):
    """The row count behind one group's nested entries (0 without any
    aggregate call: then no term of the closed form counts rows)."""
    if not entries:
        return 0
    first = entries[0]
    return first[1] if first[0] == "count" else len(first[1])


def _check_units(agg, partials):
    """The closed-form modeled sizes against the recursive walk of the
    nested forms they stand for: each partial, every shuffle slice, every
    owner's merged partition."""
    nested = [expand_partial(agg, partial) for partial in partials]
    for partial, form in zip(partials, nested):
        assert agg.entry_units(len(partial), partial.rows) \
            == payload_units(form)
    splits = [split_partial(form, 3) for form in nested]
    for piece in (piece for split in splits for piece in split if piece):
        rows = sum(_entry_rows(entries) for _, (_, entries) in piece.values())
        assert agg.entry_units(len(piece), rows, stamped=True) \
            == payload_units(piece)
    for owner in range(3):
        merged = merge_partition(agg, [split[owner] for split in splits])
        if merged:
            assert agg.merged_units(len(merged)) == payload_units(merged)


@pytest.mark.parametrize("shape_idx", range(9))
@pytest.mark.parametrize("density", [0.0, 0.1, 1.0])
def test_partial_block_matches_row_partition_reference(shape_idx, density):
    from test_storage_typed import SHAPES, STORAGE_SEED, _build
    shape = SHAPES[shape_idx]
    _, data = _build(shape, density, 500,
                     STORAGE_SEED * 100_000 + 7 * shape_idx)
    db = repro.connect()
    heap = db.catalog.create_table(_build(shape, density, 0, 0)[0].schema)
    for row in data:
        heap.insert(row)
    rng = random.Random(STORAGE_SEED)
    for sql in _aggregate_queries(shape):
        root = Executor(db.catalog, db.clock).build(
            db.planner.plan_select(parse(sql)))
        agg = _find(root, ops.AggregateOp)
        scan = _find(agg, ops.SeqScanOp)
        # 24-row morsels stay under the mask-partition cutoff, 400-row
        # ones cross it (wide keys fall back to the row partition)
        for morsel_rows in (24, 400):
            partials = []
            for index, (columns, n) in enumerate(
                    heap.scan_morsels(morsel_rows)):
                block = scan.make_block(columns, n)
                got_clock, ref_clock = SimClock(), SimClock()
                got = agg.partial_block(block, None, n, got_clock)
                ref = _reference_partial(agg, block, ref_clock)
                assert _partial_bits(expand_partial(agg, got)) \
                    == _partial_bits(ref), f"{sql} @ {morsel_rows}"
                assert got_clock.breakdown() == ref_clock.breakdown()
                partials.append(got)
                # every other morsel again behind a deferred selection:
                # what a filtered scan task hands over
                mask = np.array([rng.random() < 0.6 for _ in range(n)])
                if index % 2 or not mask.any():
                    continue
                got_clock, ref_clock = SimClock(), SimClock()
                got = agg.partial_block(block, mask, int(mask.sum()),
                                        got_clock)
                ref = _reference_partial(agg, block.select(mask), ref_clock)
                # the deferred flag is read off the whole block: it may
                # only err towards "not provably NULL-free"
                nested = expand_partial(agg, got)
                assert _partial_bits(nested, clean=False) \
                    == _partial_bits(ref, clean=False), f"{sql} @ masked"
                for (_, got_entries), (_, ref_entries) in zip(
                        nested.values(), ref.values()):
                    assert all(r[2] for g, r in zip(got_entries, ref_entries)
                               if g[0] == "values" and g[2])
                assert got_clock.breakdown() == ref_clock.breakdown()
            _check_units(agg, partials)


# -- the one merge: grouped partials against the row engine ------------------
#
# Every aggregate below runs on the row engine — the oracle — and on the
# placed engines over a morsel x worker x node grid; rows (by type and
# repr), charged seconds and the per-category breakdown must agree.  The
# distributed runs also hold the exchange log to what the retired nested
# forms would have put on the wire (partial_oracle): narrow partials
# gathered whole, wide ones sliced per owner by ``stable_hash`` of each
# morsel's own key, merged per owner and gathered.

MORSEL_SWEEP = (1, 24, 400)
# what the operators do not charge: the network (zero on one node) and the
# buffer pool (it charges the database's own clock on the serial engines)
NOT_COMPUTE = {cat.SHUFFLE, cat.BROADCAST, cat.GATHER, cat.EXCHANGE_MSG,
               cat.BUFFER_HIT, cat.BUFFER_MISS}


def _oracle_exchanges(agg, placed, nodes):
    """``[kind, rows, bytes]`` per exchange the nested forms imply."""
    nested = [(node, expand_partial(agg, partial))
              for node, partial in placed]
    wide = (nodes > 1 and agg._node.group_by and nested
            and max(len(form) for _, form in nested)
            > agg.PARTITION_MIN_KEYS)
    if not wide:
        transfers = [[(len(form), payload_bytes(form))
                      for node, form in nested if node and form]]
        kinds = [cat.GATHER]
    else:
        splits = [split_partial(form, nodes) for _, form in nested]
        merged = [merge_partition(agg, [split[owner] for split in splits])
                  for owner in range(nodes)]
        transfers = [
            [(len(piece), payload_bytes(piece))
             for (node, _), split in zip(nested, splits)
             for owner, piece in enumerate(split) if piece and node != owner],
            [(len(part), payload_bytes(part))
             for owner, part in enumerate(merged) if owner and part]]
        kinds = [cat.SHUFFLE, cat.GATHER]
    return [[kind, sum(t[0] for t in moved), sum(t[1] for t in moved)]
            for kind, moved in zip(kinds, transfers) if moved]


@pytest.fixture()
def placed_partials(monkeypatch):
    """``(op, placed partials)`` of every aggregation the distributed
    engine accounts while the test runs."""
    seen = []
    orig = DistributedScheduler.exchange_partials

    def spy(self, op, partials, groups):
        seen.append((op, list(partials)))
        return orig(self, op, partials, groups)

    monkeypatch.setattr(DistributedScheduler, "exchange_partials", spy)
    return seen


def _check_against_row_engine(plain, sharded, sql, seen):
    for db, engine, knob in ((plain, "parallel", "workers"),
                             (sharded, "distributed", "nodes")):
        node = db.planner.plan_select(parse(sql))
        # warm the buffer pool: every later run sees page hits
        Executor(db.catalog, SimClock(), engine="batch").run(node)
        clock = SimClock()
        oracle = Executor(db.catalog, clock, engine="row").run(node)
        charged = clock.breakdown()
        for morsel_rows in MORSEL_SWEEP:
            for count in (1, 2, 4) if knob == "workers" else (1, 2, 3):
                where = f"{sql} | {engine} {knob}={count} @ {morsel_rows}"
                clock = SimClock()
                del seen[:]
                got = Executor(db.catalog, clock, engine=engine,
                               morsel_rows=morsel_rows,
                               **{knob: count}).run(node)
                assert _nan_safe(got.rows) == _nan_safe(oracle.rows), where
                breakdown = {category: seconds for category, seconds
                             in clock.breakdown().items()
                             if category not in NOT_COMPUTE}
                assert breakdown == pytest.approx(charged, rel=1e-9), where
                assert sum(breakdown.values()) == pytest.approx(
                    oracle.virtual_seconds, rel=1e-9), where
                if engine == "parallel":
                    continue
                log = [[e["kind"], e["rows"], e["bytes"]]
                       for e in got.extra["distributed"]["exchanges"]
                       if e["op"] == "AggregateOp"
                       and e["label"] != "result gather"]
                assert log == [exchange for op, placed in seen for exchange
                               in _oracle_exchanges(op, placed, count)], where


@pytest.mark.parametrize("shape_idx", range(9))
def test_grouped_partials_match_row_engine(shape_idx, placed_partials):
    from test_storage_typed import SHAPES, STORAGE_SEED, _REGIME_DTYPE, _draw
    shape = SHAPES[shape_idx]
    # one table per NULL density would triple the sweep: draw the density
    # per row block instead, so morsels of every density meet in one merge
    rng = random.Random(STORAGE_SEED * 100_000 + 11 * shape_idx)
    densities = (0.0, 0.1, 0.0, 1.0)
    data = [(i,) + tuple(_draw(rng, regime, densities[i // 15 % 4])
                         for regime in shape) for i in range(150)]
    schema = [Column("id", DataType.INT)] + [
        Column(f"c{i}", _REGIME_DTYPE[r]) for i, r in enumerate(shape)]
    plain, sharded = repro.connect(), repro.connect(shards=3)
    for db in (plain, sharded):
        heap = db.catalog.create_table(TableSchema("t", schema))
        for row in data:
            heap.insert(row)
    for sql in _aggregate_queries(shape):
        _check_against_row_engine(plain, sharded, sql, placed_partials)


def _regime_databases():
    """Hand-made rows whose interesting values are placed by shard, so a
    key column is typed in one shard's morsels and ``"obj"`` in the
    next's: ints past int64 and NaN floats (one shared NaN object and
    fresh ones — NaN keys group by identity) live on shard 1 only;
    ``b`` / ``k`` / ``f`` take turns being the first non-NULL, so
    ``coalesce(b, k, f)`` meets ``True``, ``1`` and ``1.0`` across
    morsels; ``wide`` is near-unique (past PARTITION_MIN_KEYS)."""
    plain, sharded = repro.connect(), repro.connect(shards=3)
    schema = TableSchema("m", [
        Column("id", DataType.INT), Column("k", DataType.INT),
        Column("f", DataType.FLOAT), Column("s", DataType.TEXT),
        Column("b", DataType.BOOL), Column("v", DataType.FLOAT),
        Column("wide", DataType.INT)])
    tables = [db.catalog.create_table(schema) for db in (plain, sharded)]
    nan = float("nan")
    for i in range(180):
        shard = tables[1].shard_of_key(i)
        k = None if i % 9 == 0 else i % 5
        f = None if i % 7 == 0 else float(i % 4)
        b = None if i % 3 else i % 2 == 0
        if shard == 1:
            k = 2 ** 63 + i % 3 if i % 4 == 0 else k
            f = (nan if i % 10 == 0 else float("nan")) if i % 5 == 0 else f
        row = (i, k, f, None if i % 11 == 0 else f"s{i % 6}", b,
               [1e16, 1.0, -1e16][i % 3], i * 7919 % 170)
        for table in tables:
            table.insert(row)
    return plain, sharded


REGIME_QUERIES = [
    "SELECT k, count(*), sum(v), min(s) FROM m GROUP BY k",
    "SELECT f, count(*), sum(v), count(k) FROM m GROUP BY f",
    "SELECT coalesce(b, k, f), count(*), sum(v) FROM m "
    "GROUP BY coalesce(b, k, f)",
    "SELECT s, b, count(*), max(k) FROM m GROUP BY s, b",
    "SELECT k, f, count(*) FROM m GROUP BY k, f",
    "SELECT id % 4, s, count(DISTINCT k), count(DISTINCT s), avg(v) FROM m "
    "GROUP BY id % 4, s",
    "SELECT s, sum(v * 2), min(k + 1), count(DISTINCT id % 3) FROM m "
    "GROUP BY s",
    "SELECT wide, count(*), sum(v), min(f) FROM m GROUP BY wide",
    "SELECT wide, s, sum(v) FROM m WHERE f >= 0 GROUP BY wide, s",
    "SELECT k FROM m GROUP BY k",
    "SELECT wide FROM m WHERE v > 0 GROUP BY wide",
    "SELECT count(*), sum(v), avg(v), min(k), max(f) FROM m",
    # zero surviving rows in some morsels, in all, and a global
    # aggregate over zero morsels
    "SELECT s, count(*), sum(v) FROM m WHERE id >= 100 GROUP BY s",
    "SELECT s, count(*), sum(v) FROM m WHERE id < 0 GROUP BY s",
    "SELECT count(*), sum(v), min(s) FROM m WHERE id < 0",
]


@pytest.mark.parametrize("sql", REGIME_QUERIES)
def test_grouped_partials_hand_made_regimes(sql, placed_partials):
    _check_against_row_engine(*_regime_databases(), sql, placed_partials)


def test_float_sums_bit_identical_at_every_cut():
    """``1e16, 1.0, -1e16`` runs: every association but the row engine's
    left-to-right one rounds differently, so a merge that added morsel
    subtotals would show at some cut.  ``repr`` must match for every
    morsel size — every boundary position — on both placed engines."""
    values = [1e16, 1.0, -1e16, 1.0, 1.0, 1e16, -1e16, 3.0, 1e-3, -1e16,
              1e16, 1.0, 0.1]
    plain, sharded = repro.connect(), repro.connect(shards=2)
    for db in (plain, sharded):
        db.execute("CREATE TABLE a (id INT, g INT, v FLOAT)")
        heap = db.catalog.table("a")
        for i, v in enumerate(values * 2):
            heap.insert((i, i % 2, v))
    for sql in ("SELECT sum(v), avg(v) FROM a",
                "SELECT g, sum(v), avg(v) FROM a GROUP BY g"):
        for db, engine, knob in ((plain, "parallel", "workers"),
                                 (sharded, "distributed", "nodes")):
            oracle = _run(db, sql, engine="row")
            for morsel_rows in range(1, 2 * len(values) + 1):
                for count in (1, 2):
                    got = _run(db, sql, engine=engine,
                               morsel_rows=morsel_rows, **{knob: count})
                    assert _nan_safe(got.rows) == _nan_safe(oracle.rows), \
                        f"{sql} | {engine} {knob}={count} @ {morsel_rows}"


def test_wide_distributed_group_by_equal_keys_of_different_repr():
    """``0.0`` / ``-0.0`` are one group under Python equality but two
    ``repr`` strings.  Owners are named by ``stable_hash`` of each
    *merged* group's key, so the group cannot be split between owners
    (it was, when every morsel hashed its own copy of the key)."""
    db = repro.connect(shards=3)
    db.execute("CREATE TABLE z (id INT, k FLOAT, v INT)")
    heap = db.catalog.table("z")
    for i in range(400):
        heap.insert((i, [0.0, -0.0][i % 2] if i % 50 == 0
                     else float(i % 90), i))
    sql = "SELECT k, count(*), sum(v) FROM z GROUP BY k"
    oracle = _run(db, sql, engine="row")
    for nodes in (2, 3):
        got = _run(db, sql, engine="distributed", nodes=nodes,
                   morsel_rows=200)
        assert [e["kind"] for e in got.extra["distributed"]["exchanges"]] \
            == [cat.SHUFFLE, cat.GATHER]
        assert _nan_safe(got.rows) == _nan_safe(oracle.rows)
