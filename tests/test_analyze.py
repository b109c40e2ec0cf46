"""ANALYZE held to the definition it replaced.

``compute_column_stats`` counts in C (``collections.Counter``, or no
count at all for a numeric column whose float64 view shows every value
distinct), and ``Catalog.analyze`` reads each page's live rows instead
of draining a per-row ``scan()``.  The oracles below are the earlier
definitions, kept verbatim: a dict count sorted by ``-count``, and a
``heap.scan()`` generator.  Statistics must match field by field (values
by ``repr``, arrays by bytes), and an ANALYZE must leave the clock, the
buffer pool's LRU order and its hit / miss / view counters exactly as
the scan left them, on plain, sharded and replicated tables.
``STORAGE_SEED`` re-rolls the draws.
"""

from __future__ import annotations

import random
import types
from typing import Any, Iterable

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import repro
from repro.common.rng import stable_hash
from repro.storage.schema import TableSchema
from repro.storage.stats import (HISTOGRAM_BINS, ColumnStats, TableStats,
                                 compute_column_stats)
from repro.storage.types import DataType, is_numeric

from test_storage_typed import STORAGE_SEED


def oracle_column_stats(name: str, dtype: DataType,
                        values: Iterable[Any]) -> ColumnStats:
    """The earlier ``compute_column_stats``, with one mend: a FLOAT
    column whose finite values are too close for sixteen edges (one
    large number, ``1e16``) gets bins over its own ``[min, max]``, where
    numpy's own choice raised."""
    values = list(values)
    stats = ColumnStats(name=name.lower(), dtype=dtype, row_count=len(values))
    non_null = [v for v in values if v is not None]
    stats.null_count = len(values) - len(non_null)
    stats.distinct_count = len(set(non_null))

    counts: dict[Any, int] = {}
    for v in non_null:
        counts[v] = counts.get(v, 0) + 1
    stats.most_common = sorted(counts.items(), key=lambda kv: -kv[1])[:8]

    if non_null and is_numeric(dtype):
        arr = np.asarray(non_null, dtype=np.float64)
        stats.min_value = float(arr.min())
        stats.max_value = float(arr.max())
        finite = arr[np.isfinite(arr)]
        if finite.size:
            try:
                hist, edges = np.histogram(finite, bins=HISTOGRAM_BINS)
            except ValueError:
                hist, edges = np.histogram(finite, bins=np.linspace(
                    finite.min(), finite.max(), HISTOGRAM_BINS + 1))
            stats.histogram = hist.astype(np.float64)
            stats.bin_edges = edges
    elif non_null:
        buckets = np.zeros(HISTOGRAM_BINS)
        for v, count in counts.items():
            buckets[stable_hash(v, HISTOGRAM_BINS)] += count
        stats.histogram = buckets
    return stats


def oracle_table_stats(schema: TableSchema, rows: Iterable[tuple],
                       page_count: int = 0, version: int = 0) -> TableStats:
    """The earlier ``compute_table_stats``."""
    rows = list(rows)
    stats = TableStats(table_name=schema.table_name, row_count=len(rows),
                       page_count=page_count, version=version)
    for idx, col in enumerate(schema.columns):
        stats.columns[col.name] = oracle_column_stats(
            col.name, col.dtype, (row[idx] for row in rows))
    return stats


def oracle_analyze(catalog, table_name: str | None = None) -> None:
    """The earlier ``Catalog.analyze``: rows through ``heap.scan()``."""
    names = [table_name.lower()] if table_name else list(catalog._tables)
    catalog._stats_version += 1
    for name in names:
        heap = catalog.table(name)
        rows = (row for _, row in heap.scan())
        catalog._stats[name] = oracle_table_stats(
            heap.schema, rows, page_count=heap.page_count,
            version=catalog._stats_version)


def _fields(stats: ColumnStats) -> dict:
    """Every field, comparable bit for bit: arrays by dtype, shape and
    bytes, everything else by ``repr`` (``-0.0`` is not ``0.0``, ``1``
    is not ``True``)."""
    out = {}
    for key, value in vars(stats).items():
        if isinstance(value, np.ndarray):
            out[key] = (value.dtype.str, value.shape, value.tobytes())
        else:
            out[key] = repr(value)
    return out


def _outcome(compute, dtype: DataType, values) -> tuple:
    """The fields ``compute`` filled, or the error it raised."""
    try:
        return ("stats", _fields(compute("c", dtype, values)))
    except Exception as exc:       # noqa: BLE001 - compared by type + text
        return ("raised", type(exc), str(exc))


def _table_fields(stats: TableStats) -> dict:
    return {"table": (stats.table_name, stats.row_count, stats.page_count,
                      stats.version),
            **{name: _fields(col) for name, col in stats.columns.items()}}


# -- compute_column_stats ------------------------------------------------------

NAN = float("nan")      # one object: a dict counts it by identity
INTS = st.one_of(st.integers(-5, 5), st.integers(-2 ** 70, 2 ** 70),
                 st.sampled_from([2 ** 53, 2 ** 53 + 1, -2 ** 53 - 1,
                                  2 ** 63, 2 ** 64 + 3]))
FLOATS = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, NAN,
                                                 float("inf"),
                                                 float("-inf"), 0.5]))
KINDS = {DataType.INT: INTS, DataType.FLOAT: FLOATS,
         DataType.TEXT: st.one_of(st.text(max_size=4),
                                  st.sampled_from(["a", "b", "é"])),
         DataType.BOOL: st.booleans()}


@st.composite
def _columns(draw):
    dtype = draw(st.sampled_from(list(DataType)))
    values = st.one_of(st.none(), KINDS[dtype]) if draw(st.booleans()) \
        else KINDS[dtype]
    shape = draw(st.sampled_from(["any", "distinct", "heavy"]))
    if shape == "distinct":
        column = draw(st.lists(KINDS[dtype], unique=True, max_size=60))
    elif shape == "heavy":
        pool = draw(st.lists(values, min_size=1, max_size=4))
        column = draw(st.lists(st.sampled_from(pool), max_size=80))
    else:
        column = draw(st.lists(values, max_size=60))
    return dtype, column


@seed(STORAGE_SEED)
@settings(max_examples=400, deadline=None)
@given(_columns())
def test_column_stats_match_the_dict_count(case):
    dtype, values = case
    want = _outcome(oracle_column_stats, dtype, values)
    for given_as in (list, tuple, iter):
        got = _outcome(compute_column_stats, dtype, given_as(values))
        assert got == want


@pytest.mark.parametrize("dtype,values", [
    (DataType.FLOAT, [NAN, NAN, 1.0]),                   # one NaN, twice
    (DataType.FLOAT, [float("nan"), float("nan"), 1.0]),  # two NaNs
    (DataType.FLOAT, [0.0, -0.0, -0.0, 1.5]),            # first-seen key
    (DataType.FLOAT, [-0.0, 0.0]),
    (DataType.FLOAT, [float("inf"), 1.0, float("-inf")]),
    (DataType.INT, [2 ** 53, 2 ** 53 + 1, 7]),          # equal as float64
    (DataType.INT, [2 ** 64, 2 ** 64 + 1, -2 ** 63 - 1]),
    (DataType.INT, list(range(40)) + [None] * 3),        # all distinct
    (DataType.INT, [3] * 9 + [1, 2] * 5 + [None]),      # ties past eight
    (DataType.TEXT, ["b", "a", "b", None, "a", "c"]),
    (DataType.BOOL, [True, False, True, None]),
    (DataType.INT, []),
    (DataType.FLOAT, [None, None]),
    (DataType.FLOAT, [NAN]),
    (DataType.FLOAT, [1e16, 1e16]),                      # range too narrow
    (DataType.FLOAT, [1e16, 1e16 + 2, None, 1e16 + 2]),
])
def test_column_stats_edges(dtype, values):
    got = _outcome(compute_column_stats, dtype, values)
    assert got[0] == "stats"
    assert got == _outcome(oracle_column_stats, dtype, values)


def test_analyze_a_column_of_one_large_number():
    """Sixteen bins cannot split ``1e16 +- 0.5``: ANALYZE still succeeds,
    and the range estimate reads the degenerate bins right."""
    db = repro.connect()
    db.execute("CREATE TABLE t (v FLOAT)")
    db.execute("INSERT INTO t VALUES (1e16), (1e16)")
    db.execute("ANALYZE")
    stats = db.catalog.stats("t").column_stats("v")
    assert stats.histogram.sum() == 2
    assert stats.selectivity_range(1e16, 1e16) == 1.0
    assert stats.selectivity_range(None, None) == 1.0
    assert stats.selectivity_range(0.0, 1e15) == 0.0
    assert stats.selectivity_range(2e16, None) == 0.0
    assert db.execute("SELECT count(*) FROM t WHERE v >= 1e16").rows == [(2,)]


# -- ANALYZE's page touches ------------------------------------------------------


def _database(options: dict, rng: random.Random):
    """Two tables over a small buffer pool, warmed, updated and thinned
    by the same statements whatever the seed draws."""
    db = repro.connect(buffer_pages=12, **options)
    db.execute("CREATE TABLE t (id INT UNIQUE, g TEXT, v FLOAT, b BOOL)")
    db.execute("CREATE TABLE u (k INT, w FLOAT)")
    t, u = db.catalog.table("t"), db.catalog.table("u")
    for i in range(1500):
        t.insert((i, rng.choice(["x", "yy", "zzz", None]),
                  rng.choice([rng.random(), None, float(i % 7)]),
                  rng.random() < 0.3))
    for i in range(700):
        u.insert((rng.randint(0, 40), rng.random()))
    db.execute("SELECT g, count(*) FROM t GROUP BY g")   # build views
    db.execute("DELETE FROM t WHERE id % 9 = 0")         # tombstones
    db.execute("DELETE FROM t WHERE id < 1000")          # empty pages
    db.execute("UPDATE t SET v = 1.5 WHERE id % 11 = 0")
    db.execute("SELECT count(*) FROM u WHERE w > 0.5")
    return db


def _state(db) -> dict:
    pool = db.catalog.buffer_pool
    return {
        "now": db.clock.now,
        "breakdown": db.clock.breakdown(),
        "lru": list(pool._lru),
        "counters": (pool._hits, pool._misses, pool._view_hits,
                     pool._view_rebuilds, dict(pool._table_view_rebuilds)),
        "stats": {name: _table_fields(db.catalog.stats(name))
                  for name in ("t", "u")},
    }


LAYOUTS = {
    "plain": {},
    "replicated": {"replication": True},
    "sharded": {"shards": 3},
    "sharded-replicated": {"shards": 3, "replication": True},
}


@pytest.mark.parametrize("layout,outage", [
    (layout, outage) for layout in LAYOUTS for outage in (False, True)
    if not outage or "replication" in LAYOUTS[layout]])
def test_analyze_leaves_the_scan_paths_state(layout, outage):
    states = []
    for analyze in (None, oracle_analyze):
        db = _database(LAYOUTS[layout], random.Random(STORAGE_SEED))
        if analyze is not None:
            db.catalog.analyze = types.MethodType(analyze, db.catalog)
        if outage:
            # ANALYZE's own replica operation ends the outage and resyncs
            db.catalog.table("t").mark_down("primary", ops=1)
            db.catalog.table("t").insert((10_000, "w", 2.0, True))
        db.execute("ANALYZE")
        db.execute("ANALYZE u")
        states.append(_state(db))
    assert states[0] == states[1]
