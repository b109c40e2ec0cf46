"""Fig. 6(a): overall AI-analytics performance, NeurDB vs PostgreSQL+P, in
wall-clock time.

Paper: "NeurDB achieves up to 41.3% and 48.6% lower end-to-end latency, and
1.96x and 2.92x higher training throughput than PostgreSQL+P for Workload E
and Workload H, respectively."

Each workload's Table 1 statement runs as ``db.execute(..., force_retrain=
True)`` (train, then infer over every row) against PostgreSQL+P
(``benchmarks/postgres_plus_p.py``) on the same rows.  Asserted, per
workload:

* the two loss lists are ``==`` — same model, same batches, same math, so
  only the systems cost differs;
* NeurDB's median end-to-end latency is no higher than the baseline's.

The latency reduction and training-throughput gain are printed beside the
paper's and written to ``BENCH_fig6_wall.json``, not asserted.

CI smoke mode (``BENCH_SMOKE=1``): 2,048 rows, JSON to a scratch path.
"""

from __future__ import annotations

import os
import tempfile

import repro
from postgres_plus_p import PHASES, compare, write_report
from repro.bench.reporting import format_table
from repro.workloads.avazu import AvazuGenerator
from repro.workloads.avazu import load_into_db as load_avazu
from repro.workloads.diabetes import DiabetesGenerator
from repro.workloads.diabetes import load_into_db as load_diabetes

SMOKE = os.environ.get("BENCH_SMOKE") == "1"
RESULT_PATH = (os.path.join(tempfile.gettempdir(), "BENCH_fig6_wall.json")
               if SMOKE else
               os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "BENCH_fig6_wall.json"))

ROWS = 2_048 if SMOKE else 16_384
REPEATS = 2 if SMOKE else 3

WORKLOADS = {
    "E": ("avazu", "PREDICT VALUE OF click_rate FROM avazu TRAIN ON *",
          lambda db: load_avazu(db, AvazuGenerator(seed=0), cluster=0,
                                count=ROWS)),
    "H": ("diabetes", "PREDICT CLASS OF outcome FROM diabetes TRAIN ON *",
          lambda db: load_diabetes(db, DiabetesGenerator(seed=0),
                                   count=ROWS)),
}
PAPER = {"E": (0.413, 1.96), "H": (0.486, 2.92)}


def test_fig6a_overall_performance():
    report = {}
    for workload, (table, sql, load) in WORKLOADS.items():
        db = repro.connect()
        load(db)
        report[workload] = compare(db, table, sql, REPEATS)

    print(f"\nFig. 6(a) — wall clock, {ROWS:,} rows, median of {REPEATS}")
    print(format_table(
        ["workload", "system", "end-to-end s", "trained s",
         "train samples/s", *(f"{name} s" for name in PHASES)],
        [[workload, system, entry[system]["end_to_end_s"],
          entry[system]["trained_s"], entry[system]["train_samples_per_s"],
          *(entry[system][f"{name}_s"] for name in PHASES)]
         for workload, entry in report.items()
         for system in ("neurdb", "postgresql_p")]))
    print(format_table(
        ["workload", "steps", "latency reduction", "paper",
         "throughput gain", "paper"],
        [[workload, entry["steps"], f"{entry['latency_reduction']:.1%}",
          f"{PAPER[workload][0]:.1%}", f"{entry['throughput_gain']:.2f}x",
          f"{PAPER[workload][1]:.2f}x"]
         for workload, entry in report.items()]))
    write_report(RESULT_PATH, "fig6a", report, SMOKE)

    for workload, entry in report.items():
        assert entry["losses_equal"], workload
        assert (entry["neurdb"]["end_to_end_s"]
                <= entry["postgresql_p"]["end_to_end_s"]), workload
