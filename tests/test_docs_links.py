"""Docs must not reference files that do not exist.

Runs the same checker CI runs (`tools/check_links.py`) so a module rename
that breaks a docs pointer fails tier-1 locally, not just in the workflow.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_docs_have_no_dead_links():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "check_links.py")],
        capture_output=True, text=True)
    assert proc.returncode == 0, (
        f"dead documentation references:\n{proc.stderr}")


def test_deleted_members_are_reported(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    from check_links import member_errors
    text = ("`PartialGroups.of_entries` is gone, `AggregateOp.group_partials()`"
            " too; `AggregateOp.fold_partial`, `AggPartial.keys`, "
            "`AggState.index`, `NeurDB.execute()`, `DataType.INT`, "
            "`SortSink.absorb_carrier()` (its base's) and "
            "`ROADMAP.md` / `BENCH_parallel.json` are fine, `Db.execute` not")
    assert member_errors(text) == ["`PartialGroups.of_entries`",
                                   "`AggregateOp.group_partials()`",
                                   "`Db.execute`"]


def test_unknown_snake_case_names_are_reported(monkeypatch):
    """A backticked snake_case name must be one some code defines or
    uses; a name that only sits inside a longer string (a SQL text, a
    dotted path) does not count."""
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    from check_links import name_errors
    text = ("`no_such_helper` and `retired_view()` are gone, `t_name` is an"
            " index a test's SQL creates; `scan_column_batches`, "
            "`check_at_least()`, `_mix_numeric`, `predict_batch` (a "
            "workload), `stmt_per_s` (a metric key), `take`, "
            "`ROADMAP.md` and `time.process_time` are fine")
    assert name_errors(text) == ["`no_such_helper`", "`retired_view()`",
                                 "`t_name`"]
