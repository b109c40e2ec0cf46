"""Array kernels vs a plain-Python oracle: a seeded differential sweep.

ORDER BY / top-k (stable argsort over typed key arrays), GROUP BY (the
factorised partition) and the hash-join probe (``searchsorted`` over the
sorted build keys) each keep the data in arrays wherever a key is a
typed column and fall back to exact Python objects wherever it is not.
Every query below is answered by ``tests/plan_oracle.py`` — the plan
walked one tuple at a time in plain Python, the oracle — and run on
every block-engine configuration of the parity sweep (batch, parallel
with 1/2/4 workers, distributed on 1/2 nodes over 3 shards); rows must
be identical, values, Python types and order included.

The tables are drawn with the ``tests/test_storage_typed.py`` generator
(``STORAGE_SEED`` shifts every value stream) plus a few small-domain key
regimes that make the interesting collisions common: NULL and duplicate
keys, ``0.0``/``-0.0``, ``1``/``1.0``/``True``, ints at and past 2^53
against floats, ints past int64 and NaN floats (object-fallback pages).

Charges are part of the contract: per-category charged seconds and the
distributed engine's exchange log (kind, rows, modeled bytes, messages)
must equal what ``tests/exec_kernels_golden.json`` holds a digest of,
recorded at the commit *before* the kernels landed (``KERNELS_RECORD=1``
rewrites it; only ``STORAGE_SEED=0`` is recorded).  A digest says *that*
a record moved, not what: ``KERNELS_DUMP=<file>`` also writes the
undigested records (``{case: {sql: {plan | engine: record}}}``), so a
re-record is preceded by a dump at the parent commit, one at the change,
and a diff of the two (``docs/parallel.md``, "Re-recording the golden").
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.common.errors import BindError
from repro.common.simtime import SimClock
from repro.exec import operators as ops
from repro.exec.batch import RowBlock
from repro.exec.executor import Executor
from repro.exec.expr import RowLayout
from repro.plan import logical as plan
from repro.sql import parse
from repro.storage import Column, DataType, TableSchema, TypedColumn
from plan_oracle import reference
from test_storage_typed import (
    _REGIME_DTYPE,
    BOOL,
    FLOAT_CLEAN,
    FLOAT_NAN,
    INT_HUGE,
    INT_SMALL,
    STORAGE_SEED,
    TEXT_SMALL,
    _draw,
)

GOLDEN = Path(__file__).with_name("exec_kernels_golden.json")
RECORD = os.environ.get("KERNELS_RECORD") == "1"
DUMP = os.environ.get("KERNELS_DUMP")

# key regimes on top of the storage generator's
INT_KEY, FLOAT_KEY, INT_2_53, FLOAT_2_53 = "ik", "fk", "i53", "f53"
_DOMAINS = {
    INT_KEY: list(range(10)),
    FLOAT_KEY: [0.0, -0.0, 1.0, 2.0, 2.5, -3.5, 7.0],
    INT_2_53: [2 ** 53, 2 ** 53 + 1, 2 ** 53 + 2, 5, 1],
    FLOAT_2_53: [float(2 ** 53), float(2 ** 53 + 2), 5.0, 1.0],
}
_DTYPES = {INT_KEY: DataType.INT, INT_2_53: DataType.INT,
           INT_HUGE: DataType.INT, FLOAT_KEY: DataType.FLOAT,
           FLOAT_2_53: DataType.FLOAT, FLOAT_CLEAN: DataType.FLOAT,
           FLOAT_NAN: DataType.FLOAT, TEXT_SMALL: DataType.TEXT,
           BOOL: DataType.BOOL}

T_COLUMNS = [("ik", INT_KEY), ("fk", FLOAT_KEY), ("s", TEXT_SMALL),
             ("b", BOOL), ("f", FLOAT_CLEAN), ("big", INT_2_53),
             ("h", INT_HUGE), ("n", FLOAT_NAN)]
U_COLUMNS = [("ik", INT_KEY), ("fk", FLOAT_KEY), ("s", TEXT_SMALL),
             ("b", BOOL), ("big", INT_2_53), ("bigf", FLOAT_2_53),
             ("h", INT_HUGE), ("n", FLOAT_NAN), ("v", FLOAT_CLEAN)]

DENSITIES = [0.0, 0.1, 1.0]
SIZES = {"t": 300, "u": 120}

ENGINES = (
    [("batch", {})]
    + [("parallel", {"workers": w, "morsel_rows": 16}) for w in (1, 2, 4)])
SHARDED_ENGINES = [("distributed", {"nodes": n, "workers": 2,
                                    "morsel_rows": 16}) for n in (1, 2)]


def _value(rng: random.Random, regime: str, density: float):
    if regime in _DOMAINS:
        if density >= 1.0 or rng.random() < density:
            return None
        return rng.choice(_DOMAINS[regime])
    return _draw(rng, regime, density)


def _rows(columns, count: int, density: float, seed: int) -> list[tuple]:
    rng = random.Random(seed)
    return [(i,) + tuple(_value(rng, regime, density) for _, regime in columns)
            for i in range(count)]


def _load(db, name: str, key: str, columns, rows) -> None:
    schema = TableSchema(name, [Column(key, DataType.INT)] + [
        Column(col, _DTYPES[regime]) for col, regime in columns])
    table = db.catalog.create_table(schema)
    for row in rows:
        table.insert(row)


def _databases(density: float, empty: bool = False):
    """(plain, sharded): the same rows in an unsharded database and one
    hash-partitioned over 3 shards."""
    seed = STORAGE_SEED * 100_000 + int(density * 10)
    t_rows = [] if empty else _rows(T_COLUMNS, SIZES["t"], density, seed)
    u_rows = [] if empty else _rows(U_COLUMNS, SIZES["u"], density, seed + 1)
    out = []
    for options in ({}, {"shards": 3}):
        db = repro.connect(**options)
        _load(db, "t", "id", T_COLUMNS, t_rows)
        _load(db, "u", "uid", U_COLUMNS, u_rows)
        out.append(db)
    return out


SORT_QUERIES = [
    "SELECT id, f FROM t ORDER BY f",
    "SELECT id, f FROM t ORDER BY f DESC",                # DESC over NULLs
    "SELECT id, fk FROM t ORDER BY fk",                   # ties, +-0.0
    "SELECT id, s, ik FROM t ORDER BY s DESC, ik, id DESC",
    "SELECT id, b, fk FROM t ORDER BY b, fk DESC",
    "SELECT id, big FROM t ORDER BY big DESC, id",        # ints >= 2^53
    "SELECT id, h FROM t ORDER BY h DESC",                # past int64: obj
    "SELECT id, n, s FROM t ORDER BY n, s",               # NaN: obj
    "SELECT id, fk FROM t WHERE f > 0 ORDER BY fk DESC, id LIMIT 7 OFFSET 3",
    "SELECT id, s FROM t ORDER BY s LIMIT 5",             # ties under top-k
    "SELECT id, fk FROM t ORDER BY fk DESC LIMIT 4 OFFSET 400",
    "SELECT id, f FROM t WHERE id < 0 ORDER BY f",        # empty input
]

# no longer run: its sort key mixes TEXT and numbers, which is a
# BindError at plan time
RETIRED = "SELECT id, coalesce(s, ik) AS mk FROM t ORDER BY mk DESC, id"

GROUP_QUERIES = [
    "SELECT ik, count(*), sum(f), min(s) FROM t GROUP BY ik",
    "SELECT fk, count(*), sum(f), avg(f) FROM t GROUP BY fk",
    "SELECT s, count(*), max(f), count(DISTINCT ik) FROM t GROUP BY s",
    "SELECT b, count(f), sum(ik) FROM t GROUP BY b",
    "SELECT big, count(*) FROM t GROUP BY big",
    "SELECT h, count(*), sum(f) FROM t GROUP BY h",       # obj keys
    "SELECT n, count(*), sum(f) FROM t GROUP BY n",       # NaN keys
    "SELECT ik, s, count(*), sum(f) FROM t GROUP BY ik, s",
    "SELECT b, fk, s, count(*) FROM t GROUP BY b, fk, s",
    "SELECT ik, n, count(*) FROM t GROUP BY ik, n",       # typed x obj
    "SELECT ik, count(*), sum(f) FROM t WHERE f > 0 AND fk < 5 GROUP BY ik",
    "SELECT ik + 1, count(*) FROM t GROUP BY ik + 1",     # computed key
    "SELECT ik, count(*) FROM t WHERE id < 0 GROUP BY ik",
    "SELECT fk, count(*) FROM t GROUP BY fk ORDER BY fk DESC LIMIT 3",
]

JOIN_QUERIES = [
    "SELECT t.id, u.uid FROM t JOIN u ON t.ik = u.ik",    # dup + NULL keys
    "SELECT t.id, u.uid FROM t JOIN u ON t.ik = u.fk",    # 1 = 1.0
    "SELECT t.id, u.uid FROM t JOIN u ON t.fk = u.fk",    # 0.0 = -0.0
    "SELECT t.id, u.uid FROM t JOIN u ON t.b = u.ik",     # True = 1
    "SELECT t.id, u.uid FROM t JOIN u ON t.s = u.s",
    "SELECT t.id, u.uid FROM t JOIN u ON t.s = u.ik",     # never equal
    "SELECT t.id, u.uid FROM t JOIN u ON t.big = u.big",
    "SELECT t.id, u.uid FROM t JOIN u ON t.big = u.bigf",  # 2^53 vs floats
    "SELECT t.id, u.uid FROM t JOIN u ON t.h = u.h",
    "SELECT t.id, u.uid FROM t JOIN u ON t.h = u.ik",     # obj x typed
    "SELECT t.id, u.uid FROM t JOIN u ON t.n = u.fk",
    "SELECT a.id, c.id FROM t a JOIN t c ON a.n = c.n",   # NaN identity
    "SELECT t.id, u.uid, u.v FROM t JOIN u ON t.ik = u.ik AND t.s = u.s",
    "SELECT t.id, u.uid FROM t JOIN u ON t.ik = u.ik AND t.fk = u.fk "
    "WHERE t.f > 0 AND u.v < 0",
    "SELECT t.s, count(*), sum(u.v) FROM t JOIN u ON t.ik = u.ik "
    "GROUP BY t.s",
    "SELECT t.id, u.uid FROM t JOIN u ON t.ik = u.ik WHERE t.id < 0",
    "SELECT t.id, u.uid FROM t JOIN u ON t.ik = u.ik "
    "ORDER BY uid DESC, id LIMIT 9",
]

QUERIES = SORT_QUERIES + GROUP_QUERIES + JOIN_QUERIES


def _typed(rows):
    """(type, repr) per value: NaN == NaN, 1 != 1.0 != True."""
    return [tuple((type(v), repr(v)) for v in row) for row in rows]


def _has_hash_join(node: plan.PlanNode) -> bool:
    return isinstance(node, plan.HashJoin) or any(
        _has_hash_join(child) for child in node.children)


def _plans(db, sql: str) -> list[plan.PlanNode]:
    """The chosen plan, plus — for joins — every hash-join candidate, so
    each side of the ON clause gets to be the build side."""
    select = parse(sql)
    chosen = db.planner.plan_select(select)
    if " JOIN " not in sql:
        return [chosen]
    seen = {plan.plan_signature(chosen)}
    out = [chosen]
    for candidate in db.planner.candidate_plans(select):
        signature = plan.plan_signature(candidate)
        if _has_hash_join(candidate) and signature not in seen:
            seen.add(signature)
            out.append(candidate)
    return out


def _run(db, node, engine: str, kwargs: dict):
    """(rows, record): the record holds what must not move — charged
    seconds per category as a pure function of the charge sequence (a
    fresh clock on the batch engine, the scheduler's own fold on the
    placed ones; buffer-pool charges included on both) and, for the
    distributed engine, the exchange log.  A placed engine that
    dispatched nothing (a LIMIT plan runs the streaming driver) records
    the clock's breakdown and an empty log."""
    clock = SimClock()
    result = Executor(db.catalog, clock, engine=engine, **kwargs).run(node)
    stats = result.extra.get(engine)
    record = {"charged": dict(clock.breakdown()) if stats is None
              else stats["charged_by_category"]}
    if engine == "distributed":
        record["exchanges"] = [
            [e["kind"], e["label"], e["rows"], e["bytes"], e["messages"]]
            for e in (stats["exchanges"] if stats is not None else [])]
    return result.rows, record


def _sweep(case: str, density: float, empty: bool = False) -> dict:
    """Run every query on every engine against the plan oracle; returns
    ``{sql: digest}`` — an exact fingerprint (floats by ``repr``) of the
    query's records on every plan and engine configuration."""
    plain, sharded = _databases(density, empty)
    with pytest.raises(BindError):
        plain.planner.plan_select(parse(RETIRED))
    digests, dump = {}, {}
    for sql in QUERIES:
        records = {}
        for db, engines in ((plain, ENGINES), (sharded, SHARDED_ENGINES)):
            for number, node in enumerate(_plans(db, sql)):
                oracle = _typed(reference(db, node))
                for engine, kwargs in engines:
                    where = f"plan {number} | {engine} {kwargs}"
                    rows, records[where] = _run(db, node, engine, kwargs)
                    assert _typed(rows) == oracle, \
                        f"{sql} | {where}"
        text = json.dumps(records, sort_keys=True)
        digests[sql] = hashlib.sha256(text.encode()).hexdigest()[:16]
        dump[sql] = records
    if DUMP:
        path = Path(DUMP)
        cases = json.loads(path.read_text()) if path.exists() else {}
        cases[case] = dump
        path.write_text(json.dumps(cases, indent=1, sort_keys=True) + "\n")
    return digests


def _check_golden(case: str, digests: dict) -> None:
    if STORAGE_SEED != 0:
        return
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    if RECORD:
        golden[case] = digests
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        return
    assert digests == golden[case]


@pytest.mark.parametrize("density", DENSITIES)
def test_kernels_match_the_oracle_and_recorded_charges(density):
    case = f"density={density}"
    _check_golden(case, _sweep(case, density))


def test_kernels_on_empty_tables():
    _check_golden("empty", _sweep("empty", 0.0, empty=True))


# -- selections: a mask's survivors as row indices, gathered per column ------
#
# A deferred selection is the ascending row indices of a predicate mask's
# survivors (``batch.selection``); ``RowBlock.select`` gathers every
# column by them.  A gather by ascending indices must return exactly what
# boolean indexing returns.  Object payloads are compared by ``tobytes()``
# too: an object array's bytes are its element pointers, so equal bytes
# mean the very same Python objects.

# (slot, storage regime, NULL density, the kind the storage layer picks —
# None for an ``"obj"`` column of the raw values, what computed columns are)
SELECTION_COLUMNS = [
    ("i", INT_SMALL, 0.0, "i8"),
    ("in", INT_SMALL, 0.3, "i8"),
    ("f", FLOAT_CLEAN, 0.0, "f8"),
    ("fn", FLOAT_CLEAN, 0.3, "f8"),
    ("b", BOOL, 0.0, "bool"),
    ("bn", BOOL, 0.3, "bool"),
    ("s", TEXT_SMALL, 0.3, "dict"),
    ("h", INT_HUGE, 0.3, "obj"),              # past int64, NULLs
    ("n", FLOAT_NAN, 0.0, "obj"),             # NaN payloads
    ("o", INT_SMALL, 0.3, None),
]
SELECTION_ROWS = 64


def _selection_block() -> RowBlock:
    rng = random.Random(STORAGE_SEED * 100_000 + 31)
    columns = []
    for _, regime, density, kind in SELECTION_COLUMNS:
        values = [_draw(rng, regime, density)
                  for _ in range(SELECTION_ROWS)]
        if density:
            values[1] = None
        if regime == INT_HUGE:
            values[2] = 2 ** 63 + 3
        if regime == FLOAT_NAN:
            values[3] = float("nan")
        if kind is None:
            columns.append(TypedColumn.from_objects(values))
            continue
        column = TypedColumn.from_values(values, _REGIME_DTYPE[regime])
        assert column.kind == kind
        columns.append(column)
    layout = RowLayout([("t", name) for name, *_ in SELECTION_COLUMNS],
                       [_REGIME_DTYPE[regime]
                        for _, regime, *_ in SELECTION_COLUMNS])
    return RowBlock(layout, columns, SELECTION_ROWS)


def _selection_masks() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(STORAGE_SEED + 5)
    n = SELECTION_ROWS
    one = np.zeros(n, dtype=bool)
    one[rng.integers(1, n)] = True
    sparse = rng.random(n) < 0.08
    sparse[[0, n - 1]] = False, True
    all_but_one = np.ones(n, dtype=bool)
    all_but_one[rng.integers(0, n)] = False
    return {"one row": one, "sparse": sparse, "half": rng.random(n) < 0.5,
            "all but one": all_but_one, "all": np.ones(n, dtype=bool)}


def _column_bytes(column: TypedColumn) -> tuple:
    """A block column's representation, byte for byte."""
    return (column.kind, column.data.dtype.str, column.data.tobytes(),
            None if column.valid is None else column.valid.tobytes(),
            column.dictionary)


def _uncached(column: TypedColumn) -> TypedColumn:
    """The same column without any derived-view cache."""
    return TypedColumn(column.kind, column.data, column.valid,
                       column.dictionary)


@pytest.mark.parametrize("density", list(_selection_masks()))
def test_select_gathers_what_boolean_indexing_returns(density):
    block = _selection_block()
    width = len(block.columns)
    for idx in range(width):          # derived views the gather must carry
        block.numeric(idx)
        block.null_mask(idx)
    mask = _selection_masks()[density]
    got = block.select(mask)
    if mask.all():
        assert got is block
        return
    assert len(got) == int(mask.sum())
    assert [_column_bytes(c) for c in got.columns] \
        == [_column_bytes(c[mask]) for c in block.columns]
    assert _typed(list(got.iter_rows())) == _typed(
        [row for row, keep in zip(list(block.iter_rows()), mask) if keep])
    fresh = RowBlock(block.layout, [_uncached(c) for c in got.columns],
                     len(got))
    for idx, column in enumerate(got.columns):
        name = SELECTION_COLUMNS[idx][0]
        # the gather carried both views: reading them derives nothing
        assert column._null is not None, name
        assert column.null_mask().tobytes() \
            == fresh.null_mask(idx).tobytes(), name
        if block.layout.types[idx] is DataType.TEXT:
            assert got.numeric(idx) is None, name
            continue
        assert column._f64 is not None, name
        carried, derived = got.numeric(idx), fresh.numeric(idx)
        if carried is None:
            # a decline (a magnitude past 2^53 anywhere in the block) is
            # carried as is: the exact object path stays right for the
            # subset even where the subset alone has a view
            assert block.numeric(idx) is None, name
        else:
            assert derived is not None, name
            assert carried.tobytes() == derived.tobytes(), name


def test_global_aggregate_reads_the_first_survivor():
    """Bare columns of a global aggregate read its representative row,
    the first survivor of the selection — here row 21, the sixth row of
    the second 16-row morsel, and never row 0."""
    rng = random.Random(STORAGE_SEED * 100_000 + 41)
    db = repro.connect()
    db.execute("CREATE TABLE g (id INT, s TEXT, v FLOAT)")
    table = db.catalog.table("g")
    rows = [(i, _draw(rng, TEXT_SMALL, 0.1),
             -1.0 if i <= 20 else _draw(rng, FLOAT_CLEAN, 0.1))
            for i in range(200)]
    rows[21] = (21, "first", 7.5)
    for row in rows:
        table.insert(row)
    sql = "SELECT id, s, count(*), sum(v) FROM g WHERE v > 0"
    node = db.planner.plan_select(parse(sql))
    oracle = reference(db, node)
    assert oracle[0][:2] == (21, "first")
    for engine, kwargs in ENGINES:
        got = Executor(db.catalog, SimClock(), engine=engine,
                       **kwargs).run(node)
        assert _typed(got.rows) == _typed(oracle), engine
    root = Executor(db.catalog, SimClock()).build(node)
    agg = root if isinstance(root, ops.AggregateOp) else root._child
    scan = agg._child
    (columns, n), = table.scan_column_batches(len(rows))
    block = scan.make_block(columns, n)
    _, survivors = scan.scan_block(block, SimClock())
    assert survivors[0] == 21
    partial = agg.partial_block(block, survivors, len(survivors), SimClock())
    assert partial.firsts.tolist() == [21]


_BUILD_KEYS = {
    "narrow": (DataType.INT, lambda rng: rng.randrange(1000)),
    "span 2^16 - 1": (DataType.INT, lambda rng: rng.choice(
        [-7, 65_528, rng.randrange(-7, 65_529)])),
    "span 2^16": (DataType.INT, lambda rng: rng.choice(
        [-7, 65_529, rng.randrange(-7, 65_530)])),
    "wide": (DataType.INT, lambda rng: rng.randrange(-2 ** 40, 2 ** 40)),
    "negative": (DataType.INT, lambda rng: rng.randrange(-70_000, -69_000)),
    "bool": (DataType.BOOL, lambda rng: rng.random() < 0.5),
    "text": (DataType.TEXT, lambda rng: f"k{rng.randrange(40)}"),
    "float": (DataType.FLOAT, lambda rng: rng.choice([0.0, -0.0, 2.5, -1.0])),
}


@pytest.mark.parametrize("regime", list(_BUILD_KEYS))
def test_build_order_is_the_stable_argsort(regime):
    """``BuildTable`` sorts its keys through ``_stable_order`` (16-bit key
    ranges take numpy's radix sort); a stable order is unique, so the
    permutation must be the stable argsort's, byte for byte."""
    dtype, draw = _BUILD_KEYS[regime]
    rng = random.Random(STORAGE_SEED * 100_000 + 53)
    column = TypedColumn.from_values([draw(rng) for _ in range(3000)], dtype)
    block = RowBlock(RowLayout([("b", "k")], [dtype]), [column], len(column))
    table = ops.BuildTable(block, column, len(column), 1.0)
    data = column.key_arrays()[-1]
    if data.dtype == bool:
        data = data.astype(np.int64)
    order = np.argsort(data, kind="stable")
    assert table.order.tobytes() == order.tobytes()
    assert table.keys.tobytes() == data[order].tobytes()


# -- result rows: one zip over per-column lists -------------------------------

_PYTHON_TYPES = (int, float, str, bool, type(None))


def test_iter_rows_yields_the_object_views_python_values():
    """``iter_rows`` zips each column's ``tolist()``; the rows must
    equal — value and Python type, never a numpy scalar — the zip of the
    columns' object views."""
    block = _selection_block()
    extra = [
        ("z", TypedColumn.from_values([-0.0, 0.0, None, 1.5], DataType.FLOAT)),
        ("z0", TypedColumn.from_values([-0.0, 0.0, 2.0, 1.5],
                                       DataType.FLOAT)),
        ("big", TypedColumn.from_values(
            [2 ** 53 + 1, -(2 ** 53) - 3, 2 ** 62, 5], DataType.INT)),
        ("nan", TypedColumn.from_objects([float("nan"), None, 1.0,
                                          float("nan")])),
    ]
    cached = TypedColumn.from_values([7, None, 2 ** 53 + 1, 0], DataType.INT)
    cached.objects()                  # the cache built before the zip
    extra.append(("cached", cached))
    layout = RowLayout([("x", name) for name, _ in extra],
                       [DataType.FLOAT, DataType.FLOAT, DataType.INT,
                        DataType.FLOAT, DataType.INT])
    for sample in (block, RowBlock(layout, [c for _, c in extra], 4)):
        rows = list(sample.iter_rows())
        reference = list(zip(*(sample.column(i)
                               for i in range(len(sample.columns)))))
        assert rows == reference
        assert _typed(rows) == _typed(reference)
        assert all(type(v) in _PYTHON_TYPES for row in rows for v in row)
    first = next(RowBlock(layout, [c for _, c in extra], 4).iter_rows())
    assert [repr(v) for v in first[:3]] == ["-0.0", "-0.0", "9007199254740993"]
    assert list(RowBlock(RowLayout([], []), [], 3).iter_rows()) \
        == [(), (), ()]
