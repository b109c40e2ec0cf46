"""Feature hashing: the column path against a cell-by-cell reference.

``FeatureHasher.transform_columns`` hashes the *distinct* values of a
column (dictionary entries, int64 data, 2-decimal-quantized float bit
patterns) and gathers ids back by code.  Whatever the route — typed
column, boxed object array, ``transform(rows)``, short or long — the ids
must equal what hashing every cell on its own gives:

* any non-numeric column in the set -> ``_hash_value(field, value)`` for
  every cell (the FNV family);
* every column numeric-kind -> ``_mix_numeric`` for the cells that hold a
  number, ``_hash_value`` for the NULL and NaN ones (the numeric family).

The tables come from the ``tests/test_storage_typed.py`` generator
(``STORAGE_SEED`` shifts every value stream) plus hand-made regimes where
a vectorised ``round`` could go wrong.  ``feature_hashing_golden.json``
holds what training, fine-tuning and inference produced at the commit
*before* the column path, on one BLAS thread — what ``repro.nn`` now pins;
that commit's last bits followed the host's core count
(``HASHING_RECORD=1`` rewrites it): the column path, the hash-once id
matrix and the init-free model load must not move a loss, a version, a
charge or a prediction.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.ai import armnet
from repro.ai.armnet import (INFER_ROWS, SHORT_COLUMN, ARMNet, FeatureHasher,
                             _round2)
from repro.ai.model_manager import ModelManager
from repro.common import categories as cat
from repro.common.errors import ModelNotFound
from repro.nn import pack_state, unpack_state
from repro.serve import PredictServer
from repro.storage import DataType, TypedColumn
from test_storage_typed import (
    _REGIME_DTYPE,
    CASES,
    SHAPES,
    STORAGE_SEED,
    _build,
)

GOLDEN = Path(__file__).with_name("feature_hashing_golden.json")
RECORD = os.environ.get("HASHING_RECORD") == "1"

_NUMERIC_DTYPES = (DataType.INT, DataType.FLOAT, DataType.BOOL)


def _is_number(value) -> bool:
    return isinstance(value, (int, float, np.number, np.bool_))


def _reference(hasher: FeatureHasher, columns, numeric: bool) -> np.ndarray:
    """Cell-by-cell ids of ``columns`` (lists of Python values)."""
    shape = (len(columns[0]) if columns else 0, len(columns))
    rows = list(zip(*columns))
    out = np.array([[hasher._hash_value(j, v) for j, v in enumerate(row)]
                    for row in rows], dtype=np.int64).reshape(shape)
    if numeric:
        number = np.array([[v is not None and v == v for v in row]
                           for row in rows], dtype=bool).reshape(shape)
        matrix = np.array([[float(v) if v is not None else 0.0 for v in row]
                           for row in rows]).reshape(shape)
        out[number] = hasher._mix_numeric(matrix)[number]
    return out


def _untyped_numeric(columns) -> bool:
    """The family of a set of untyped columns: numeric when every non-NULL
    value is a number."""
    return all(_is_number(v) for col in columns for v in col
               if v is not None)


def _check_all_routes(typed, dtypes):
    """Typed columns, their boxed views and the row transform against the
    reference, whole and as a short slice."""
    hasher = FeatureHasher(len(typed))
    values = [col.tolist() for col in typed]
    by_schema = all(d in _NUMERIC_DTYPES for d in dtypes)
    for stop in (len(typed[0]), min(len(typed[0]), SHORT_COLUMN - 1)):
        part = [col[:stop] for col in typed]
        lists = [v[:stop] for v in values]
        expected = _reference(hasher, lists, by_schema)
        assert np.array_equal(hasher.transform_columns(part), expected)
        # untyped input has only its values to go by: the family is the
        # schema's unless a non-numeric column is NULL throughout
        if _untyped_numeric(lists) != by_schema:
            expected = _reference(hasher, lists, not by_schema)
        boxed = [col.objects() for col in part]
        assert np.array_equal(hasher.transform_columns(boxed), expected)
        assert np.array_equal(hasher.transform(list(zip(*lists))), expected)


# -- (a) the storage generator ------------------------------------------------

@pytest.mark.parametrize("case", range(len(CASES)))
def test_generated_tables(case):
    shape_idx, density, rows = CASES[case]
    shape = SHAPES[shape_idx]
    table, _ = _build(shape, density, rows,
                      STORAGE_SEED * 100_000 + case)
    dtypes = [_REGIME_DTYPE[r] for r in shape]
    if not rows:
        empty = [TypedColumn.from_values([], d) for d in dtypes]
        assert FeatureHasher(len(shape)).transform_columns(empty).shape \
            == (0, len(shape))
        return
    for columns, _ in table.scan_column_batches(4096):
        _check_all_routes(columns, dtypes)


# -- (a) hand-made regimes ----------------------------------------------------

def _ulps(x: float, k: int) -> float:
    for _ in range(abs(k)):
        x = math.nextafter(x, math.inf if k > 0 else -math.inf)
    return x


_TIES = [k / 1000 for k in range(-60, 61, 5)] + [0.125, 0.375, 2.675, 1.005,
                                                 -0.125, 1e12 + 0.125]
FLOAT_REGIMES = {
    "ties": [_ulps(t, k) for t in _TIES for k in (-1, 0, 1)],
    "zeros": [0.0, -0.0, 0.001, -0.001, 0.004, -0.004, 0.005, -0.005],
    "denormals": [5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e-310],
    "huge": [1e13, -1e13, _ulps(1e13, -1), 1e13 + 0.005, 1.5e15, 2.0 ** 52,
             2.0 ** 53, 1e16, 1e22, 1e100, 1e300, -1e300, 1.79e308],
    "inf": [math.inf, -math.inf, 1.0, 2.0],
}


@pytest.mark.parametrize("regime", sorted(FLOAT_REGIMES))
@pytest.mark.parametrize("with_null", [False, True])
def test_float_regimes(regime, with_null):
    rng = random.Random(STORAGE_SEED * 1000 + len(regime))
    values = [rng.choice(FLOAT_REGIMES[regime]) for _ in range(200)]
    if with_null:
        values = [None if rng.random() < 0.2 else v for v in values]
    texts = [rng.choice(["x", "y", None]) for _ in values]
    floats = TypedColumn.from_values(values, DataType.FLOAT)
    assert floats.kind == "f8"
    # beside a text column: the FNV family, quantiser and factorisation
    _check_all_routes([floats, TypedColumn.from_values(texts, DataType.TEXT)],
                      [DataType.FLOAT, DataType.TEXT])
    # on its own the numeric family (inf overflows the int64 cast there
    # exactly as it did cell by cell)
    _check_all_routes([floats], [DataType.FLOAT])


def test_nan_floats_and_huge_ints_are_obj_columns():
    nan = float("nan")
    floats = [nan, 1.234, None, -0.0, 0.0, 2.675] * 20
    ints = [2 ** 63 + 5, -(2 ** 70), 3, None, 2 ** 53 + 1, 7] * 20
    texts = ["a", "b"] * 60
    f = TypedColumn.from_values(floats, DataType.FLOAT)
    i = TypedColumn.from_values(ints, DataType.INT)
    t = TypedColumn.from_values(texts, DataType.TEXT)
    assert f.kind == "obj" and i.kind == "obj"
    _check_all_routes([f, i, t],
                      [DataType.FLOAT, DataType.INT, DataType.TEXT])
    _check_all_routes([f, i], [DataType.FLOAT, DataType.INT])
    # an int no float64 can hold fails value by value, as it always did
    with pytest.raises(OverflowError):
        FeatureHasher(2).transform_columns([[10 ** 400] * 120, texts])


def test_true_one_and_one_point_zero_in_one_column():
    mixed = [True, 1, 1.0, False, 0, 0.0, -0.0, None, "1", "1.0", "True",
             np.float64(1.0), np.int64(1), np.bool_(True)] * 5
    other = list(range(len(mixed)))
    hasher = FeatureHasher(2)
    lists = [mixed, other]
    assert not _untyped_numeric(lists)
    expected = _reference(hasher, lists, False)
    assert np.array_equal(hasher.transform_columns(lists), expected)
    assert np.array_equal(hasher.transform(list(zip(*lists))), expected)
    assert np.array_equal(
        hasher.transform_columns([TypedColumn.from_objects(mixed),
                                  np.array(other)]), expected)
    ids = expected[:, 0]
    assert ids[0] != ids[1] and ids[1] == ids[2]       # True | 1 == 1.0
    # numbers only -> the numeric family, numpy scalars included
    numbers = [v for v in mixed if _is_number(v)] * 2
    lists = [numbers, list(range(len(numbers)))]
    assert np.array_equal(hasher.transform_columns(lists),
                          _reference(hasher, lists, True))


def test_numeric_looking_strings_hash_as_strings():
    texts = [str(k % 7) for k in range(100)]
    hasher = FeatureHasher(2)
    for second in (texts, list(range(100))):
        lists = [texts, second]
        expected = _reference(hasher, lists, False)
        assert np.array_equal(hasher.transform_columns(lists), expected)
        typed = [TypedColumn.from_values(texts, DataType.TEXT),
                 np.array(second, dtype=object)]
        assert np.array_equal(hasher.transform_columns(typed), expected)


def test_dictionary_slices_hash_only_what_they_use():
    entries = [f"e{k}" for k in range(120)]
    col = TypedColumn.from_values(entries + [None] + entries[:40],
                                  DataType.TEXT)
    hasher = FeatureHasher(1)
    seen = []
    real = hasher._memo_id
    hasher._memo_id = lambda j, v: (seen.append(v), real(j, v))[1]
    part = col[100:161]
    ids = hasher.transform_columns([part])
    assert len(seen) <= 62 and set(seen) == set(part.tolist())
    hasher._memo_id = real
    assert np.array_equal(ids, _reference(hasher, [part.tolist()], False))


# -- the memo: equal values with different reprs never share an id ----------

_TWINS = [True, 1, 1.0, False, 0, 0.0, -0.0, "1", "1.0", "True", "0", None,
          math.nan, math.inf, -math.inf, 2, 2.0, 2.004]
_TYPED_TWINS = {DataType.FLOAT: [0.0, -0.0, 1.0, 1.004, math.nan, math.inf,
                                 None],
                DataType.INT: [0, 1, 2, None],
                DataType.BOOL: [True, False, None]}


@st.composite
def _twin_calls(draw):
    """Two to four feature sets for one hasher: an untyped column of
    values that ``==`` each other but differ in ``repr``, a typed column
    whose kind changes from call to call, and a text column that keeps the
    set in the FNV family; short and long lengths both."""
    calls = []
    for _ in range(draw(st.integers(2, 4))):
        n = draw(st.sampled_from([1, 7, SHORT_COLUMN - 1, SHORT_COLUMN, 40]))
        mixed = draw(st.lists(st.sampled_from(_TWINS), min_size=n,
                              max_size=n))
        dtype = draw(st.sampled_from(list(_TYPED_TWINS)))
        typed = draw(st.lists(st.sampled_from(_TYPED_TWINS[dtype]),
                              min_size=n, max_size=n))
        calls.append((mixed, TypedColumn.from_values(typed, dtype),
                      [f"t{v!r}" for v in mixed]))
    return calls


@given(_twin_calls())
@settings(max_examples=80, deadline=None)
def test_a_warm_memo_never_confuses_equal_values(calls):
    warm = FeatureHasher(3)
    for columns in calls:
        ids = warm.transform_columns(list(columns))
        assert np.array_equal(
            ids, FeatureHasher(3).transform_columns(list(columns)))
        cells = zip(columns[0], columns[1].tolist(), columns[2])
        assert ids.tolist() == [[warm._hash_value(j, v)
                                 for j, v in enumerate(row)]
                                for row in cells]


def test_the_memo_is_bounded(monkeypatch):
    monkeypatch.setattr(armnet, "MEMO_ENTRIES", 8)
    hasher = FeatureHasher(2)
    columns = [list(range(100)), [f"s{k % 30}" for k in range(100)]]
    for _ in range(2):
        assert np.array_equal(hasher.transform_columns(columns),
                              _reference(hasher, columns, False))
        assert len(hasher._memo) <= 8


def test_shapes_and_errors():
    hasher = FeatureHasher(2)
    assert hasher.transform([]).shape == (0, 2)
    assert hasher.transform_columns([[], []]).shape == (0, 2)
    with pytest.raises(ValueError):
        hasher.transform_columns([[1.0]])
    with pytest.raises(ValueError):
        hasher.transform_columns([[1.0, 2.0], [1.0]])
    with pytest.raises(ValueError):
        hasher.transform([[1.0, 2.0], [1.0]])
    ids = hasher.transform_columns([np.arange(50.0), ["t"] * 50])
    assert ids.shape == (50, 2) and ids.dtype == np.int64
    assert ids.flags["C_CONTIGUOUS"]
    assert ids.min() >= 0 and ids.max() < hasher.buckets


# -- (b) the quantiser --------------------------------------------------------

def test_quantiser_equals_round_bit_for_bit():
    rng = np.random.default_rng([STORAGE_SEED, 16])
    thousandths = rng.integers(-5_000_000, 5_000_000, 250_000) / 1000.0
    halves = (rng.integers(-10**6, 10**6, 150_000) * 10 + 5) / 1000.0
    spread = np.concatenate([
        rng.random(150_000), rng.normal(size=100_000) * 1e3,
        thousandths, np.nextafter(thousandths, np.inf),
        np.nextafter(thousandths, -np.inf),
        halves, np.nextafter(halves, np.inf), np.nextafter(halves, -np.inf),
        rng.normal(size=50_000) * 1e13, rng.normal(size=50_000) * 1e15,
        10.0 ** rng.uniform(-320, 308, 50_000),
        rng.integers(0, 2**63, 50_000).view(np.float64),     # raw patterns
        [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1e13, -1e13],
    ])
    assert spread.size >= 1_000_000
    expected = np.array([round(v, 2) for v in spread.tolist()])
    assert np.array_equal(_round2(spread).view(np.int64),
                          expected.view(np.int64))


# -- (c) nothing downstream moves ---------------------------------------------

def _digest(payload) -> str:
    return hashlib.sha256(repr(payload).encode()).hexdigest()[:16]


def _load(db, kind: str, rows: int) -> None:
    rng = random.Random(16)
    if kind == "mixed":
        db.execute("CREATE TABLE t (id INT UNIQUE, site TEXT, dev INT, "
                   "a FLOAT, flag BOOL, y FLOAT)")
    else:
        db.execute("CREATE TABLE t (id INT UNIQUE, dev INT, a FLOAT, "
                   "b FLOAT, y FLOAT)")
    for low in range(0, rows, 100):
        tuples = []
        for i in range(low, min(low + 100, rows)):
            dev, a, b = rng.randrange(5), round(rng.random(), 4), \
                round(rng.uniform(-3, 3), 3)
            y = round(dev * 0.5 + 2 * a - 0.3 * b + rng.gauss(0, 0.1), 6)
            if kind == "mixed":
                site = rng.randrange(9)
                # NULLs only here: in an all-numeric set a NULL changes
                # its batch's ids on purpose (see TestNullIsolation)
                cells = [i, "NULL" if rng.random() < 0.05 else f"'s{site}'",
                         "NULL" if rng.random() < 0.05 else dev,
                         "NULL" if rng.random() < 0.05 else a,
                         "TRUE" if b > 0 else "FALSE", y + 0.2 * site]
            else:
                cells = [i, dev, a, b, y]
            tuples.append("(" + ", ".join(map(str, cells)) + ")")
        db.execute("INSERT INTO t VALUES " + ", ".join(tuples))


def _stored_bytes(manager, name: str) -> int:
    """Bytes of every persisted layer row, from what the manager hands
    out: a version's own rows are the layers ``resolve_layers`` stamps
    with that version."""
    total = 0
    for version in manager.versions(name):
        model = manager.load_model(name, version)
        names = model.layer_names()
        total += sum(len(pack_state(model.layer_state(names[lid])))
                     for lid, stamp in manager.resolve_layers(name, version)
                     if stamp == version)
    return total


def _scenario(kind: str) -> dict:
    rows = 700 if kind == "mixed" else 4500        # 4500: two scan blocks
    db = repro.connect()
    _load(db, kind, rows)
    inline = ("('s3', 2, 0.1234, TRUE), (NULL, 4, 0.875, FALSE), "
              "('s1', NULL, 0.5, TRUE)" if kind == "mixed"
              else "(2, 0.1234, -1.5), (4, 0.875, 2.25)")
    results = [
        db.execute("PREDICT VALUE OF y FROM t WHERE id < 40 TRAIN ON *"),
        db.fine_tune_model("t", "y", window_rows=300),
        db.execute(f"PREDICT VALUE OF y FROM t TRAIN ON * VALUES {inline}"),
        db.execute("PREDICT VALUE OF y FROM t WHERE id >= 100 AND id < 400 "
                   "TRAIN ON *"),
        db.fine_tune_model("t", "y"),
        db.execute("PREDICT VALUE OF y FROM t WHERE id >= 650 TRAIN ON *"),
    ]
    tasks = [{"kind": t.kind, "version": t.model_version,
              "virtual_seconds": repr(t.virtual_seconds),
              "samples": t.samples_processed,
              "losses": _digest([repr(x) for x in t.losses]),
              "predictions": None if t.predictions is None
              else _digest(t.predictions.tolist())}
             for t in db.ai_engine.completed_tasks]
    name = db.catalog.bound_model("t", "y")
    out = {"tasks": tasks, "clock": repr(db.clock.now),
           "charges": {k: repr(v)
                       for k, v in sorted(db.clock.breakdown().items())},
           "rows": _digest([r.rows for r in results if r is not None]),
           "versions": db.models.versions(name),
           "layer_rows": db.models.layer_rows(name)}
    # last: re-deriving the bytes loads every version, which charges
    out["storage_bytes"] = _stored_bytes(db.models, name)
    return out


@pytest.mark.parametrize("kind", ["mixed", "numeric"])
def test_training_and_inference_match_the_recorded_parent(kind):
    # "-w1": recorded on the streaming feed, the one path there is now
    key = f"{kind}-w1"
    got = _scenario(kind)
    if RECORD:
        golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
        golden[key] = got
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        return
    golden = json.loads(GOLDEN.read_text())[key]
    assert got["tasks"] == golden["tasks"]
    assert got == golden


def test_training_set_is_hashed_once():
    db = repro.connect()
    _load(db, "mixed", 300)
    calls = []
    real = FeatureHasher.transform_columns

    def counting(self, columns):
        calls.append(len(columns[0]) if columns else 0)
        return real(self, columns)
    FeatureHasher.transform_columns = counting
    try:
        db.execute("PREDICT VALUE OF y FROM t WHERE id < 5 TRAIN ON *")
    finally:
        FeatureHasher.transform_columns = real
    train = db.ai_engine.completed_tasks[0]
    assert train.details["batches"] > 2
    assert calls == [300, 5]           # the training set, then the 5 inputs


@pytest.mark.parametrize("task_type", ["classification", "regression"])
def test_chunked_inference_equals_one_forward(task_type, monkeypatch):
    """``predict_ids`` runs at most ``INFER_ROWS`` rows per forward (a
    one-row tail joins the chunk before it); each prediction must be the
    one a single forward over every row gives, bit for bit."""
    model = ARMNet(field_count=4, task_type=task_type, seed=3)
    rng = np.random.default_rng(0)
    ids = model.hasher.transform(
        [(int(a), float(b), f"s{c}", None if c % 7 == 0 else int(c))
         for a, b, c in zip(rng.integers(0, 50, 3 * INFER_ROWS + 2),
                            rng.normal(size=3 * INFER_ROWS + 2),
                            rng.integers(0, 30, 3 * INFER_ROWS + 2))])
    sizes = (1, 2, INFER_ROWS + 1, INFER_ROWS + 2, 2 * INFER_ROWS,
             2 * INFER_ROWS + 1, 3 * INFER_ROWS + 2)
    forward, seen = model.forward, []
    model.forward = lambda part: (seen.append(len(part)), forward(part))[1]
    chunked = [model.predict_ids(ids[:n]).tobytes() for n in sizes]
    assert max(seen) <= INFER_ROWS + 1 and seen.count(1) == 1  # n = 1
    monkeypatch.setattr(armnet, "INFER_ROWS", 10 * INFER_ROWS)
    seen.clear()
    whole = [model.predict_ids(ids[:n]).tobytes() for n in sizes]
    assert seen == list(sizes)
    assert chunked == whole


# -- (d) init-free model load -------------------------------------------------

class TestModelLoad:
    def _trained(self):
        manager = ModelManager()
        model = ARMNet(field_count=3, task_type="regression", seed=5)
        manager.register_model("m", model)
        for step in range(3):
            model.head1.weight.data += 0.25 * (step + 1)
            manager.incremental_update("m", model, ["head1"])
        return manager, model

    def test_loaded_weights_equal_init_then_load(self):
        manager, trained = self._trained()
        for timestamp in (None, 1, 3):
            loaded = manager.load_model("m", timestamp)
            built = manager.build_model("m", timestamp)   # fine-tune's copy
            classic = ARMNet.from_spec(trained.spec(), seed=0)
            names = trained.layer_names()
            for lid, stamp in manager.resolve_layers("m", timestamp):
                classic.load_layer(names[lid], unpack_state(
                    manager._blobs[(1, lid, stamp)]))
            for (name, a), (_, b), (_, c) in zip(loaded.named_parameters(),
                                                 built.named_parameters(),
                                                 classic.named_parameters()):
                assert np.array_equal(a.data, c.data), name
                assert np.array_equal(b.data, c.data), name
                assert a.requires_grad and b.requires_grad
                # readers share the loaded instance; only the build trains
                assert not a.data.flags.writeable
                assert b.data.flags.writeable
        newest = manager.load_model("m")
        assert np.array_equal(newest.head1.weight.data,
                              trained.head1.weight.data)
        assert not np.array_equal(manager.load_model("m", 1).head1.weight.data,
                                  trained.head1.weight.data)

    def test_charges_one_load_per_layer(self):
        manager, _ = self._trained()
        before = manager.clock.now
        manager.load_model("m")
        assert manager.clock.breakdown()[cat.MODEL_LOAD] == pytest.approx(
            manager.clock.now - before)
        assert manager.clock.now > before

    def test_spec_blob_mismatch_still_raises(self):
        manager, _ = self._trained()
        manager._specs[1] = {**manager._specs[1], "embed_dim": 8}
        with pytest.raises(ValueError, match="shape mismatch"):
            manager.load_model("m")
        manager, _ = self._trained()
        manager._blobs[(1, 0, 1)] = manager._blobs[(1, 2, 1)]
        with pytest.raises(KeyError, match="state mismatch"):
            manager.load_model("m")

    def test_readers_come_from_the_index(self):
        manager, model = self._trained()
        assert manager.versions("m") == [1, 2, 3, 4]
        assert manager.layer_rows("m") == 4 + 3
        assert _stored_bytes(manager, "m") == sum(
            len(b) for b in manager._blobs.values())
        assert manager.resolve_layers("m", 2) == [(0, 1), (1, 1), (2, 1),
                                                  (3, 2)]
        manager.replace_model("m", ARMNet(field_count=2, seed=1))
        assert manager.versions("m") == [5]
        assert manager.layer_rows("m") == 4
        with pytest.raises(ModelNotFound):
            manager.resolve_layers("m", 4)
        with pytest.raises(ValueError):
            manager.register_model("M", model)


# -- satellite: one NULL must not move anyone else's ids ----------------------

class TestNullIsolation:
    def _db(self):
        db = repro.connect()
        _load(db, "numeric", 400)
        db.execute("PREDICT VALUE OF y FROM t WHERE id < 2 TRAIN ON *")
        return db

    def test_ids_of_other_cells_do_not_move(self):
        hasher = FeatureHasher(2)
        clean = hasher.transform_columns([[3, 4, 5], [0.5, 0.25, 0.75]])
        for null_at in ([None, 4, 5], [3, None, 5]):
            ids = hasher.transform_columns([null_at, [0.5, 0.25, 0.75]])
            keep = np.array([v is not None for v in null_at])
            assert np.array_equal(ids[keep], clean[keep])
            assert np.array_equal(ids[:, 1], clean[:, 1])
            assert ids[~keep, 0] == hasher._hash_value(0, None)
        typed = [TypedColumn.from_values([None] * 40, DataType.INT),
                 TypedColumn.from_values([0.5] * 40, DataType.FLOAT)]
        assert (hasher.transform_columns(typed)[:, 1] == clean[0, 1]).all()

    def test_through_execute(self):
        db = self._db()
        text = "PREDICT VALUE OF y FROM t TRAIN ON * VALUES "
        alone = db.execute(text + "(3, 0.5, 1.25)").rows[0]
        beside = db.execute(text + "(3, 0.5, 1.25), (NULL, 0.5, 1.25), "
                                   "(3, NULL, NULL)").rows
        assert beside[0] == pytest.approx(alone, abs=1e-9)
        assert abs(beside[1][-1] - alone[-1]) > 1e-3
        # an all-NULL inline column keeps the schema's kind
        only = db.execute(text + "(NULL, 0.5, 1.25)").rows[0]
        assert only[-1] == pytest.approx(beside[1][-1], abs=1e-9)

    def test_all_null_inline_column_of_a_mixed_table(self):
        db = repro.connect()
        _load(db, "mixed", 300)
        text = "PREDICT VALUE OF y FROM t TRAIN ON * VALUES "
        pair = db.execute(text + "('s1', 2, 0.5, TRUE), (NULL, 2, 0.5, TRUE)")
        alone = db.execute(text + "(NULL, 2, 0.5, TRUE)")
        assert alone.rows[0][-1] == pytest.approx(pair.rows[1][-1], abs=1e-9)

    def test_through_a_serving_micro_batch(self):
        db = self._db()
        text = "PREDICT VALUE OF y FROM t TRAIN ON * VALUES ({}, 0.{}, 1.5)"
        requests = [text.format(k % 5, 10 + k) for k in range(16)]
        expected = [db.execute(r).rows[0][-1] for r in requests]

        def served(texts):
            server = PredictServer(db, lanes=1, max_batch_requests=16,
                                   refresh="manual")
            for request in texts:
                server.submit(request, at=0.0)
            done = sorted(server.drain(), key=lambda r: r.request_id)
            assert {r.batched_with for r in done} == {16}
            return [r.result.rows[0][-1] for r in done]

        assert served(requests) == pytest.approx(expected, abs=1e-9)
        poisoned = list(requests)
        poisoned[5] = text.format("NULL", 15)
        got = served(poisoned)
        del got[5], expected[5]
        assert got == pytest.approx(expected, abs=1e-9)
