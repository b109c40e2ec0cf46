"""Recorded answers: the operator-semantics oracle of the parity suites.

``tests/answers_golden.json`` holds, per fixture query, the answer of the
retired row-at-a-time engine — one tuple at a time, one charge per row,
with no block, morsel or fused stage in it — recorded in the same run
that still held every block engine to it:

* ``columns`` — the result's column names;
* ``rows`` — one ``type:repr | ...`` line per row, in order, so ``1``
  vs ``1.0``, ``-0.0`` and NaN all count (past ``DIGEST_ROWS`` rows,
  ``row_count`` and ``rows_sha256`` of those lines instead);
* ``rows_out`` — ``[plan label, rows]`` per operator, pre-order;
* ``charged`` — seconds per charge category, a tracer's exact sums.

A block engine's run is held to its record: columns, rows and
``rows_out`` exactly, each category's charge to ``CHARGE_REL`` relative
(a block charges ``per_row * n`` once, the row engine added ``per_row``
``n`` times, so the two agree to rounding, not to the bit).  The block
engines share their charge hooks, so comparing them with each other
cannot see a charge that every engine gets wrong; this file can.

The ``fused_aggregate@<rows>`` records hold only ``charged``: the
charges of ``benchmarks/test_exec_throughput.py``'s fused aggregate at
each of its scales, which that benchmark reads (and rewrites under
``ANSWERS_RECORD=1``).

``ANSWERS_RECORD=1`` rewrites the records the run visits from the batch
engine (merged into the file, so a partial run keeps the rest); run the
whole of ``test_batch_parity.py`` and ``test_pipeline.py`` to rewrite it
all, and diff the file before committing: a record should only move for
a change that means to move an answer or a charge.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.common import categories as cat
from repro.exec.executor import Executor
from repro.obs.trace import Tracer

GOLDEN = Path(__file__).with_name("answers_golden.json")
RECORD = os.environ.get("ANSWERS_RECORD") == "1"
CHARGE_REL = 1e-9
DIGEST_ROWS = 256
NETWORK = frozenset((cat.SHUFFLE, cat.BROADCAST, cat.GATHER, cat.EXCHANGE_MSG))


def typed_rows(rows) -> list[str]:
    """The records' row form: one ``type:repr | ...`` string per row."""
    return [" | ".join(f"{type(v).__name__}:{v!r}" for v in row)
            for row in rows]


def _rows_field(rows) -> dict:
    """Up to ``DIGEST_ROWS`` rows in full, a longer answer as its length
    and a digest (the diff of such a record names the query, not the
    row)."""
    typed = typed_rows(rows)
    if len(typed) <= DIGEST_ROWS:
        return {"rows": typed}
    text = "\n".join(typed).encode()
    return {"row_count": len(typed),
            "rows_sha256": hashlib.sha256(text).hexdigest()}


def tree_rows_out(op) -> list:
    """``[plan label, rows_out]`` of every operator under ``op``, pre-order
    (the synthetic EmptyRow has no plan node and is skipped)."""
    out = [] if op.plan_node is None else [[op.plan_node.label, op.rows_out]]
    for attr in ("_child", "_left", "_right"):
        child = getattr(op, attr, None)
        if child is not None:
            out += tree_rows_out(child)
    return out


def run_charged(db, engine: str, kwargs: dict, plan):
    """``(result, rows_out, charged)`` of ``plan`` on ``engine``: the
    per-operator ``rows_out`` and a tracer's exact per-category charges,
    which two runs of one charge sequence share wherever the clock
    stood."""
    executor = Executor(db.catalog, db.clock, engine=engine, **kwargs)
    tracer = Tracer()
    tracer.attach(db.clock)
    try:
        result = executor.run(plan)
    finally:
        Tracer.detach(db.clock)
    return (result, tree_rows_out(executor.last_run[1]),
            tracer.category_totals())


class Answers:
    """The golden, loaded once per session; :meth:`check` holds a run to
    its record (or records it under ``ANSWERS_RECORD=1``)."""

    def __init__(self) -> None:
        self.records = json.loads(GOLDEN.read_text()) if GOLDEN.exists() \
            else {}
        self.recorded: dict = {}

    def expected(self, key: str) -> dict:
        if key not in self.records:
            pytest.fail(f"no recorded answer for {key!r} "
                        "(ANSWERS_RECORD=1 records it)")
        return self.records[key]

    def check(self, key: str, result, rows_out=None, charged=None) -> None:
        """Hold ``result`` (and, when given, its ``rows_out`` and charges)
        to record ``key``."""
        record = {"columns": list(result.columns), **_rows_field(result.rows)}
        if rows_out is not None:
            record["rows_out"] = rows_out
        if charged is not None:
            record["charged"] = {category: repr(seconds) for category, seconds
                                 in sorted(charged.items())}
        if RECORD:
            earlier = self.recorded.setdefault(key, {})
            for field, value in record.items():
                assert earlier.setdefault(field, value) == value, \
                    f"{key}: two runs, two {field}"
            return
        want = self.expected(key)
        for field in ("columns", "rows", "row_count", "rows_sha256"):
            assert record.get(field) == want.get(field), (key, field)
        if rows_out is not None:
            assert rows_out == want["rows_out"], key
        if charged is not None:
            self.check_charges(key, charged)

    def check_charges(self, key: str, charged: dict) -> None:
        """Per-category charges against the record, the network's aside:
        only a placed engine on several nodes ships anything."""
        want = {category: float(seconds) for category, seconds
                in self.expected(key)["charged"].items()}
        got = {category: seconds for category, seconds in charged.items()
               if category not in NETWORK}
        assert set(got) == set(want), (key, sorted(got), sorted(want))
        for category, seconds in want.items():
            assert got[category] == pytest.approx(seconds, rel=CHARGE_REL), \
                (key, category)

    def total(self, key: str) -> float:
        """The record's charged seconds, summed."""
        return sum(float(s) for s in self.expected(key)["charged"].values())

    def write(self) -> None:
        if self.recorded:
            merged = {**self.records, **self.recorded}
            GOLDEN.write_text(json.dumps(merged, indent=1, sort_keys=True)
                              + "\n")
