"""Array kernels vs the row oracle: a seeded differential sweep.

ORDER BY / top-k (stable argsort over typed key arrays), GROUP BY (the
factorised partition) and the hash-join probe (``searchsorted`` over the
sorted build keys) each keep the data in arrays wherever a key is a
typed column and fall back to exact Python objects wherever it is not.
Every query below runs on the row engine — the oracle — and on every
block-engine configuration of the parity sweep (batch, parallel with
1/2/4 workers, distributed on 1/2 nodes over 3 shards); rows must be
identical, values, Python types and order included.

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

import pytest

import repro
from repro.common.errors import BindError
from repro.common.simtime import SimClock
from repro.exec.executor import Executor
from repro.plan import logical as plan
from repro.sql import parse
from repro.storage import Column, DataType, TableSchema
from test_storage_typed import (
    BOOL,
    FLOAT_CLEAN,
    FLOAT_NAN,
    INT_HUGE,
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

# recorded in the golden, but no longer run: its sort key mixes TEXT and
# numbers, which is a BindError at plan time (the entry stays until the
# next re-record)
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
    placed ones: the executor's clock is private here, so the buffer
    pool's charges reach it only through the placed engines' page
    clocks) and, for the distributed engine, the exchange log."""
    clock = SimClock()
    result = Executor(db.catalog, clock, engine=engine, **kwargs).run(node)
    record = {"charged": dict(clock.breakdown())}
    if engine != "batch":
        stats = result.extra[engine]
        record["charged"] = stats["charged_by_category"]
    if engine == "distributed":
        record["exchanges"] = [
            [e["kind"], e["label"], e["rows"], e["bytes"], e["messages"]]
            for e in stats["exchanges"]]
    return result.rows, record


def _sweep(case: str, density: float, empty: bool = False) -> dict:
    """Run every query on every engine against the row oracle; returns
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
                oracle = Executor(db.catalog, SimClock(),
                                  engine="row").run(node)
                for engine, kwargs in engines:
                    where = f"plan {number} | {engine} {kwargs}"
                    rows, records[where] = _run(db, node, engine, kwargs)
                    assert _typed(rows) == _typed(oracle.rows), \
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
    assert digests == {sql: digest for sql, digest in golden[case].items()
                       if sql != RETIRED}


@pytest.mark.parametrize("density", DENSITIES)
def test_kernels_match_row_oracle_and_recorded_charges(density):
    case = f"density={density}"
    _check_golden(case, _sweep(case, density))


def test_kernels_on_empty_tables():
    _check_golden("empty", _sweep("empty", 0.0, empty=True))
