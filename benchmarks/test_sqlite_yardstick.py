"""stdlib ``sqlite3`` as the yardstick, per SQL shape of the e2e workloads.

For every SQL shape of ``olap_mix``, ``olap_engines`` and ``oltp_mix``
(``benchmarks/e2e/workloads.py``), the same statement texts run through
``db.execute`` on the workload's own set-up and through the workload's
``sqlite3`` mirror (``benchmarks/e2e/oracle.py::SqlOracle``: the same
rows, its UNIQUE column indexed), one statement on each side in turn, so
both see the same table as it grows and shrinks.  Wall time is SQL text
in, rows out; Python's ``sqlite3`` caches statements by exact text and
these texts never repeat, so it prepares every one.  The report gives,
per shape, the mean microseconds on each side and ``ratio`` = ours /
sqlite's (below 1: faster than ``sqlite3``).  PREDICT has no ``sqlite3``
counterpart: the ``predict_batch`` and ``predict_serve`` shapes are
listed as not comparable.

``benchmarks/BENCH_yardstick.json`` holds the figures of the tree the
file runs on, nothing else; to see a change against ``sqlite3``, run it
on both sides of the change.  Nothing is gated: the ratios are read, not
asserted.

CI smoke mode (``BENCH_SMOKE=1``): the e2e smoke sizes and one round,
JSON to a scratch path.
"""

from __future__ import annotations

import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.bench.reporting import write_bench_json

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE / "e2e"))

import workloads  # noqa: E402

SMOKE = os.environ.get("BENCH_SMOKE") == "1"
RESULT_PATH = (Path(tempfile.gettempdir()) / "BENCH_yardstick.json"
               if SMOKE else HERE / "BENCH_yardstick.json")

SEED = 1
# rounds of each workload's statement mix, after one warm-up of every shape
ROUNDS = {"olap_mix": 4, "olap_engines": 4, "oltp_mix": 40}
COMPARED = tuple(ROUNDS)
NOT_COMPARABLE = ("predict_batch", "predict_serve")


def _side_by_side(name: str) -> dict:
    """Per shape of workload ``name``: statements run, mean microseconds
    through ``db.execute`` and through ``sqlite3``, and their ratio."""
    cls = workloads.WORKLOADS[name]
    sizes = (workloads.SMOKE_SIZES if SMOKE else workloads.SIZES)[name]
    workload = cls(SEED, sizes)
    state = workload.setup(lambda: None)
    mirror = workload.oracle().conn
    spent = {shape: [0, 0.0, 0.0] for shape in cls.shapes}

    def run(shape: str, text: str) -> None:
        start = time.perf_counter()
        workload.execute(state, shape, text)
        middle = time.perf_counter()
        len(mirror.execute(text).fetchall())
        end = time.perf_counter()
        tally = spent[shape]
        tally[0] += 1
        tally[1] += middle - start
        tally[2] += end - middle

    for shape, text in workload.warmup():
        workload.execute(state, shape, text)
        mirror.execute(text).fetchall()
    for i in range(1 if SMOKE else ROUNDS[name]):
        for shape, text in workload.round(i):
            run(shape, text)
    report = {}
    for shape, (count, ours, theirs) in spent.items():
        report[shape] = {
            "statements": count,
            "ours_us": round(ours / count * 1e6, 1),
            "sqlite_us": round(theirs / count * 1e6, 1),
            "ratio": round(ours / theirs, 2)}
    total = np.array([tally for tally in spent.values()])
    report["all"] = {
        "statements": int(total[:, 0].sum()),
        "ours_us": round(total[:, 1].sum() / total[:, 0].sum() * 1e6, 1),
        "sqlite_us": round(total[:, 2].sum() / total[:, 0].sum() * 1e6, 1),
        "ratio": round(total[:, 1].sum() / total[:, 2].sum(), 2)}
    return report


def test_yardstick():
    report = {name: _side_by_side(name) for name in COMPARED}
    for name in NOT_COMPARABLE:
        report[name] = {shape: "not comparable: sqlite3 has no PREDICT"
                        for shape in workloads.WORKLOADS[name].shapes}
    for name in COMPARED:
        for shape, row in report[name].items():
            print(f"{name:>12} {shape:<18} ours {row['ours_us']:>9.1f} us "
                  f"sqlite3 {row['sqlite_us']:>8.1f} us  {row['ratio']:.2f}x")
            assert row["statements"] > 0
    write_bench_json(str(RESULT_PATH), report, smoke=SMOKE,
                     seeds={"workload_seed": SEED},
                     workload={"rounds": ROUNDS, "smoke": SMOKE})
