"""PREDICT data-preparation gates, written to ``BENCH_predict.json``.

Wall-clock (host time, not virtual time) for the two pieces of the PREDICT
path that are not gradient steps:

* ``feature_hash`` — ``FeatureHasher.transform_columns`` on typed columns
  against the cell-by-cell loop it replaced (the failed float conversion,
  then ``_hash_value`` per cell over the boxed values), 6,400 rows.  The
  *mixed* set — a dictionary text column, a low-cardinality int and a
  4-decimal float, the columns whose cells share values — must clear
  ``HASH_FLOOR`` x.  A unique-int column, where factorising finds nothing
  to share and every value still costs one ``_hash_value``, is measured on
  its own and must not lose (>= 1x); it is left out of the mixed set
  because it alone would cap the set's ratio near 5x.  Ids are asserted
  equal.  The small end rides along: 1- and 16-row batches go through the
  same per-value function as the reference and must stay within
  ``SHORT_CEIL`` of it.  Each timed lap of the column path runs on a
  fresh ``FeatureHasher``, so its memo of distinct-value ids starts cold
  and the floors measure factorisation; the same call on one warm hasher
  (every distinct value a memo hit) is reported beside it, ungated.
* ``model_load`` — ``ModelManager.build_model`` per call with 1 and with
  50 stored versions: flat within ``LOAD_FLAT`` x (it used to scan the
  whole Layers table per call).  It times the assembly a ``load_model``
  memo miss does; a hit, the steady state, only resolves and charges.

CI smoke mode (``BENCH_SMOKE=1``): fewer rows and versions, relaxed
floors, JSON to a scratch path.
"""

from __future__ import annotations

import os
import tempfile
import time

import numpy as np

from repro.ai.armnet import ARMNet, FeatureHasher
from repro.ai.model_manager import ModelManager
from repro.bench.reporting import write_bench_json
from repro.storage import DataType, TypedColumn

SMOKE = os.environ.get("BENCH_SMOKE") == "1"
RESULT_PATH = (os.path.join(tempfile.gettempdir(), "BENCH_predict.json")
               if SMOKE else
               os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "BENCH_predict.json"))

HASH_ROWS = 1_000 if SMOKE else 6_400
HASH_FLOOR = 3.0 if SMOKE else 8.0
UNIQUE_FLOOR = 0.8 if SMOKE else 1.0
SHORT_CEIL = 1.5            # 20-150 us measurements on a shared host
LOAD_VERSIONS = 10 if SMOKE else 50
LOAD_FLAT = 1.5

REPORT: dict = {}


def _best(call, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats + 1):           # the first lap warms caches
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


def _columns(rows: int) -> dict[str, TypedColumn]:
    rng = np.random.default_rng(16)
    return {
        "dict_text": TypedColumn.from_values(
            [f"s{v}" for v in rng.integers(0, 12, rows)], DataType.TEXT),
        "low_card_int": TypedColumn.from_values(
            rng.integers(0, 5, rows).tolist(), DataType.INT),
        "float_4dp": TypedColumn.from_values(
            rng.random(rows).round(4).tolist(), DataType.FLOAT),
        "unique_int": TypedColumn.from_values(
            rng.permutation(rows).tolist(), DataType.INT),
    }


def _cell_by_cell(hasher: FeatureHasher, boxed) -> np.ndarray:
    """What ``transform_columns`` did for a mixed set before the column
    path: try the whole set as floats, then one ``_hash_value`` and one
    scalar store per cell."""
    try:
        np.column_stack([np.asarray(col, dtype=np.float64) for col in boxed])
    except (TypeError, ValueError):
        pass
    out = np.empty((len(boxed[0]), len(boxed)), dtype=np.int64)
    for j, col in enumerate(boxed):
        for i, value in enumerate(col):
            out[i, j] = hasher._hash_value(j, value)
    return out


def _compare(columns, repeats: int) -> dict:
    hasher = FeatureHasher(len(columns))
    boxed = [col.objects() for col in columns]
    assert np.array_equal(hasher.transform_columns(columns),
                          _cell_by_cell(hasher, boxed))
    reference = _best(lambda: _cell_by_cell(hasher, boxed), repeats)
    column_path = _best(
        lambda: FeatureHasher(len(columns)).transform_columns(columns),
        repeats)
    warm = _best(lambda: hasher.transform_columns(columns), repeats)
    return {"rows": len(boxed[0]), "fields": len(boxed),
            "cell_by_cell_us": round(reference * 1e6, 1),
            "column_path_us": round(column_path * 1e6, 1),
            "speedup": round(reference / column_path, 2),
            "warm_memo_us": round(warm * 1e6, 1),
            "warm_speedup": round(reference / warm, 2)}


def test_feature_hash_column_path():
    columns = _columns(HASH_ROWS)
    text = TypedColumn.from_values(["t"] * HASH_ROWS, DataType.TEXT)
    shared = [col for name, col in columns.items() if name != "unique_int"]
    report = {"mixed": _compare(shared, 5)}
    # one column at a time, beside a constant text column so the set
    # stays in the FNV family
    for name, col in columns.items():
        report[name] = _compare([col, text], 5)
    for rows in (1, 16):
        report[f"short_{rows}"] = _compare(
            [col[:rows] for col in columns.values()], 2_000 // rows)
    REPORT["feature_hash"] = report
    print("\nfeature_hash (cell-by-cell us -> column path us, cold memo | "
          "warm memo):")
    for name, entry in report.items():
        print(f"  {name:>13}: {entry['cell_by_cell_us']:>10.1f} -> "
              f"{entry['column_path_us']:>8.1f}  ({entry['speedup']}x) | "
              f"{entry['warm_memo_us']:>8.1f}  ({entry['warm_speedup']}x)")
    assert report["mixed"]["speedup"] >= HASH_FLOOR
    assert report["unique_int"]["speedup"] >= UNIQUE_FLOOR
    for rows in (1, 16):
        assert report[f"short_{rows}"]["speedup"] >= 1 / SHORT_CEIL


def test_model_load_is_flat_in_stored_versions():
    manager = ModelManager()
    model = ARMNet(field_count=4, task_type="regression")
    manager.register_model("m", model)
    one = _best(lambda: manager.build_model("m"), 30)
    charged = manager.clock.now
    manager.load_model("m")
    per_load = manager.clock.now - charged
    for _ in range(LOAD_VERSIONS - 1):
        manager.incremental_update("m", model, ["head0", "head1"])
    many = _best(lambda: manager.build_model("m"), 30)
    charged = manager.clock.now
    manager.load_model("m")
    assert round(manager.clock.now - charged, 9) == round(per_load, 9)
    assert len(manager.versions("m")) == LOAD_VERSIONS
    REPORT["model_load"] = {
        "ms_per_load_at_1_version": round(one * 1e3, 3),
        f"ms_per_load_at_{LOAD_VERSIONS}_versions": round(many * 1e3, 3),
        "ratio": round(many / one, 2),
        "virtual_seconds_per_load": per_load}
    print(f"\nbuild_model: {one * 1e3:.3f} ms at 1 version, "
          f"{many * 1e3:.3f} ms at {LOAD_VERSIONS} ({many / one:.2f}x)")
    assert many / one <= LOAD_FLAT


def test_write_report():
    assert set(REPORT) == {"feature_hash", "model_load"}
    write_bench_json(RESULT_PATH, REPORT, smoke=SMOKE,
                     seeds={"numpy_rng": 16},
                     workload={"hash_rows": HASH_ROWS,
                               "hash_floor": HASH_FLOOR,
                               "unique_floor": UNIQUE_FLOOR,
                               "load_versions": LOAD_VERSIONS,
                               "load_flat": LOAD_FLAT})
