"""Independent answers for every workload, and the failure count.

SQL workloads mirror their table into stdlib ``sqlite3`` and replay every
mutating statement there; PREDICT answers are checked against numpy counts
of the WHERE range and for finite predictions; served requests are checked
against ``db.execute`` of the same text (``docs/serving.md`` promises
bit-identity).  Every check runs between timed statements or after the
last one, never inside a timed interval.

A statement fails when it raised, took longer than ``STATEMENT_TIMEOUT_S``
or disagreed with its oracle.  Each failure is kept with workload, shape,
statement text and the first differing row.
"""

from __future__ import annotations

import math
import re
import sqlite3
from collections import defaultdict

STATEMENT_TIMEOUT_S = 30.0
FLOAT_REL_TOL = 1e-9
SERVE_RECHECK_EVERY = 50
MAX_KEPT_MISMATCHES = 20


def _value_matches(got, want) -> bool:
    if isinstance(got, float) or isinstance(want, float):
        if got is None or want is None:
            return got is want
        return math.isclose(got, want, rel_tol=FLOAT_REL_TOL, abs_tol=1e-12)
    return got == want


def _row_matches(got, want) -> bool:
    return (len(got) == len(want)
            and all(_value_matches(g, w) for g, w in zip(got, want)))


def _sortable(row) -> tuple:
    return tuple((value is not None, value) for value in row)


def first_difference(got: list, want: list, ordered_by: int | None = None):
    """None when the two row lists agree, else a description of the first
    difference.  Rows are compared as sorted multisets with floats at
    ``FLOAT_REL_TOL`` relative; with ``ordered_by`` the sequence of that
    column must also agree position by position (ORDER BY shapes)."""
    if len(got) != len(want):
        return f"{len(got)} rows, oracle has {len(want)}"
    if ordered_by is not None:
        for position, (g, w) in enumerate(zip(got, want)):
            if not _value_matches(g[ordered_by], w[ordered_by]):
                return (f"order differs at position {position}: "
                        f"{g!r} vs oracle {w!r}")
    for g, w in zip(sorted(got, key=_sortable), sorted(want, key=_sortable)):
        if not _row_matches(g, w):
            return f"row {g!r} vs oracle {w!r}"
    return None


class Oracle:
    """Counts attempted and failed statements per shape; subclasses say
    what a right answer is."""

    def __init__(self, workload: str, units: int = 1):
        self.workload = workload
        self.units = units
        self.attempted: dict[str, int] = defaultdict(int)
        self.failed: dict[str, int] = defaultdict(int)
        self.mismatches: list[dict] = []
        self.model_err = 0.0       # no model on the SQL-only workloads

    def fail(self, shape: str, text: str, detail: str, count: int = 1) -> None:
        self.failed[shape] += count
        if len(self.mismatches) < MAX_KEPT_MISMATCHES:
            self.mismatches.append({"workload": self.workload, "shape": shape,
                                    "statement": text[:400], "detail": detail})

    def observe(self, shape: str, text: str, out, error, seconds: float,
                sampled: bool) -> None:
        """Called once per executed statement, outside its timed interval."""
        self.attempted[shape] += self.units
        if error is not None:
            self.fail(shape, text, f"raised {type(error).__name__}: {error}",
                      self.units)
        elif seconds > STATEMENT_TIMEOUT_S:
            self.fail(shape, text, f"took {seconds:.1f} s", self.units)
        else:
            self.check(shape, text, out, sampled)

    def check(self, shape: str, text: str, out, sampled: bool) -> None:
        raise NotImplementedError

    def finish(self, workload, state) -> None:
        """Checks made once, after the last timed statement."""

    def totals(self) -> tuple[int, int]:
        return sum(self.attempted.values()), sum(self.failed.values())


class SqlOracle(Oracle):
    """A ``sqlite3`` mirror of one table.  SELECTs are compared when
    sampled; every mutating statement is replayed and its row count
    compared; ``finish`` diffs the whole table if anything mutated it."""

    def __init__(self, workload: str, ddl: str, table: str, key: str,
                 rows: list[tuple], ordered_by: dict[str, int] | None = None):
        super().__init__(workload)
        self.table = table
        self.key = key                  # first column, unique
        self.ordered_by = ordered_by or {}
        self.mutated = False
        self.conn = sqlite3.connect(":memory:")
        self.conn.execute(ddl)
        marks = ", ".join("?" * len(rows[0]))
        self.conn.executemany(f"INSERT INTO {table} VALUES ({marks})", rows)
        self.conn.commit()

    def check(self, shape, text, out, sampled):
        if text.lstrip()[:6].upper() == "SELECT":
            if sampled:
                want = self.conn.execute(text).fetchall()
                problem = first_difference(out, want,
                                           self.ordered_by.get(shape))
                if problem:
                    self.fail(shape, text, problem)
            return
        self.mutated = True
        want_count = self.conn.execute(text).rowcount
        got_count = int(out[0][0].split()[-1])   # status row "UPDATE 1"
        if got_count != want_count:
            self.fail(shape, text, f"changed {got_count} rows, oracle "
                                   f"changed {want_count}")

    def finish(self, workload, state):
        if not self.mutated:
            return
        text = f"SELECT * FROM {self.table} ORDER BY {self.key}"
        self.attempted["table_diff"] += 1
        got = workload.execute(state, "table_diff", text)
        problem = first_difference(got, self.conn.execute(text).fetchall(),
                                   ordered_by=0)
        if problem:
            self.fail("table_diff", text, problem)


_RANGE = re.compile(r"WHERE cid >= (\d+) AND cid < (\d+)")
MODEL_ERR_CEILING = 0.5


class PredictOracle(Oracle):
    """PREDICT answers: as many rows as the WHERE range holds (ids are
    dense, so the numpy count is ``clip(hi) - clip(lo)``), one row per
    inline VALUES row, every prediction finite; at the end the hold-out
    error of the model the schedule left behind is below
    ``MODEL_ERR_CEILING``."""

    def __init__(self, workload: str, table_rows: int, units: int = 1):
        super().__init__(workload, units)
        self.table_rows = table_rows

    def expected_rows(self, text: str) -> int:
        match = _RANGE.search(text)
        if match is None:          # inline VALUES rows, one "(" each
            return text[text.index("VALUES"):].count("(")
        lo, hi = (min(int(g), self.table_rows) for g in match.groups())
        return max(0, hi - lo)

    def check_rows(self, shape, text, rows) -> None:
        want = self.expected_rows(text)
        if len(rows) != want:
            self.fail(shape, text, f"{len(rows)} rows, range holds {want}")
            return
        for row in rows:
            if not math.isfinite(row[-1]):
                self.fail(shape, text, f"prediction not finite in {row!r}")
                return

    def check(self, shape, text, out, sampled):
        if out is not None:            # fine_tune returns nothing
            self.check_rows(shape, text, out)

    def finish(self, workload, state):
        self.attempted["model_err"] += 1
        self.model_err = workload.model_err(state)
        if not self.model_err < MODEL_ERR_CEILING:
            self.fail("model_err", "hold-out MSE / var(y)",
                      f"{self.model_err} is not below {MODEL_ERR_CEILING}")


class ServeOracle(PredictOracle):
    """Served slices: ``out`` is one ``(text, error, rows)`` per request.
    No request may carry an error, row counts are checked as for PREDICT,
    and one request in ``SERVE_RECHECK_EVERY`` is re-run through
    ``db.execute`` after the clock stops and must give the same rows.
    ``docs/serving.md`` promises bit-identity, but a prediction served in a
    16-request batch differs from the one-request answer in the last ulp
    (the batched matrix product sums in another order), so predictions are
    compared at ``FLOAT_REL_TOL`` like every other float."""

    def __init__(self, workload: str, table_rows: int, units: int):
        super().__init__(workload, table_rows, units)
        self.seen = 0
        self.kept: list[tuple[str, list]] = []

    def check(self, shape, text, out, sampled):
        if len(out) != self.units:
            self.fail(shape, text, f"{len(out)} requests completed, "
                                   f"{self.units} submitted",
                      abs(self.units - len(out)))
        for request_text, error, rows in out:
            if error is not None:
                self.fail(shape, request_text, f"request error: {error}")
            else:
                self.check_rows(shape, request_text, rows)
                if self.seen % SERVE_RECHECK_EVERY == 0:
                    self.kept.append((request_text, rows))
            self.seen += 1

    def finish(self, workload, state):
        for request_text, rows in self.kept:
            again = state.db.execute(request_text).rows
            problem = first_difference(rows, again)
            if problem:
                self.fail("serve_slice", request_text,
                          f"served vs db.execute: {problem}")
        super().finish(workload, state)
