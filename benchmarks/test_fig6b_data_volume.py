"""Fig. 6(b): effect of data volume (number of batches) on latency, in
wall-clock time.

Paper: Workload E with 20..640 data batches; "NeurDB consistently
outperforms PostgreSQL+P, indicating that NeurDB can scale well with
increased data volume."

Each point loads ``batches`` x 512 Avazu rows and runs Workload E's
statement in NeurDB and in PostgreSQL+P (``benchmarks/postgres_plus_p.py``).
Asserted at every point: the two loss lists are ``==``, and NeurDB's
median end-to-end latency is no higher than the baseline's.

Latency does not double with the rows: ``ensure_predict_model`` aims at
80 training steps (at least two epochs), so 20 and 40 batches both train
for 80 steps.  The table prints the steps beside the rows.

The full sweep is the paper's, 20 to 640 batches (327,680 rows); at 640
a run peaks at about 0.8 GB resident.  CI smoke mode (``BENCH_SMOKE=1``):
2, 4 and 8 batches, JSON to a scratch path.
"""

from __future__ import annotations

import os
import tempfile

import repro
from postgres_plus_p import compare, write_report
from repro.bench.reporting import format_table
from repro.workloads.avazu import AvazuGenerator
from repro.workloads.avazu import load_into_db as load_avazu

SMOKE = os.environ.get("BENCH_SMOKE") == "1"
RESULT_PATH = (os.path.join(tempfile.gettempdir(), "BENCH_fig6_wall.json")
               if SMOKE else
               os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "BENCH_fig6_wall.json"))

BATCH_ROWS = 512
BATCH_COUNTS = (2, 4, 8) if SMOKE else (20, 40, 80, 160, 320, 640)
REPEATS = 2 if SMOKE else 3
SQL = "PREDICT VALUE OF click_rate FROM avazu TRAIN ON *"


def test_fig6b_data_volume():
    report = {}
    for batches in BATCH_COUNTS:
        db = repro.connect()
        load_avazu(db, AvazuGenerator(seed=0), cluster=0,
                   count=batches * BATCH_ROWS)
        report[str(batches)] = compare(db, "avazu", SQL, REPEATS)

    print(f"\nFig. 6(b) — Workload E, wall clock, median of {REPEATS}")
    print(format_table(
        ["batches", "rows", "steps", "NeurDB s", "PostgreSQL+P s", "ratio"],
        [[batches, entry["rows"], entry["steps"],
          entry["neurdb"]["end_to_end_s"],
          entry["postgresql_p"]["end_to_end_s"],
          entry["postgresql_p"]["end_to_end_s"]
          / entry["neurdb"]["end_to_end_s"]]
         for batches, entry in report.items()]))
    write_report(RESULT_PATH, "fig6b", report, SMOKE)

    for batches, entry in report.items():
        assert entry["losses_equal"], batches
        assert (entry["neurdb"]["end_to_end_s"]
                <= entry["postgresql_p"]["end_to_end_s"]), batches
