"""Cardinality estimation from catalog statistics.

Implements the classical System-R style independence assumptions.  These are
exactly the assumptions that break under correlated data and drift, which is
what Figure 8's "PostgreSQL" baseline suffers from and the learned query
optimizer avoids by conditioning on live statistics.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.sql import ast
from repro.storage.catalog import Catalog
from repro.storage.stats import ColumnStats

DEFAULT_EQ_SELECTIVITY = 0.005
DEFAULT_RANGE_SELECTIVITY = 0.33
DEFAULT_JOIN_SELECTIVITY = 0.01


class CardinalityEstimator:
    """Estimates selectivities and join cardinalities from the catalog."""

    def __init__(self, catalog: Catalog):
        self._catalog = catalog

    # -- base tables ------------------------------------------------------------

    def table_rows(self, table: str) -> float:
        stats = self._catalog.stats(table)
        if stats is not None and stats.row_count > 0:
            return float(stats.row_count)
        if self._catalog.has_table(table):
            return float(max(1, len(self._catalog.table(table))))
        return 1000.0

    def table_pages(self, table: str) -> float:
        stats = self._catalog.stats(table)
        if stats is not None and stats.page_count > 0:
            return float(stats.page_count)
        if self._catalog.has_table(table):
            return float(max(1, self._catalog.table(table).page_count))
        return 10.0

    # -- predicates --------------------------------------------------------------

    def selectivity(self, predicate: Optional[ast.Expr],
                    bindings: dict[str, str]) -> float:
        """Fraction of rows satisfying ``predicate``.

        ``bindings`` maps table aliases in scope to real table names so
        column statistics can be found.
        """
        if predicate is None:
            return 1.0
        return max(1e-6, min(1.0, self._sel(predicate, bindings)))

    def _sel(self, expr: ast.Expr, bindings: dict[str, str]) -> float:
        if isinstance(expr, ast.BinaryOp):
            if expr.op == "AND":
                return (self._sel(expr.left, bindings)
                        * self._sel(expr.right, bindings))
            if expr.op == "OR":
                a = self._sel(expr.left, bindings)
                b = self._sel(expr.right, bindings)
                return a + b - a * b
            return self._sel_comparison(expr, bindings)
        if isinstance(expr, ast.UnaryOp) and expr.op == "NOT":
            return 1.0 - self._sel(expr.operand, bindings)
        if isinstance(expr, ast.IsNull):
            stats = self._column_stats_of(expr.operand, bindings)
            if stats is None:
                return 0.05
            frac = stats.null_fraction()
            return (1.0 - frac) if expr.negated else frac
        if isinstance(expr, ast.Between):
            stats = self._column_stats_of(expr.operand, bindings)
            low = _literal_value(expr.low)
            high = _literal_value(expr.high)
            if stats is not None and all(isinstance(v, (int, float))
                                         for v in (low, high)):
                sel = stats.selectivity_range(float(low), float(high))
            else:
                sel = DEFAULT_RANGE_SELECTIVITY
            return (1.0 - sel) if expr.negated else sel
        if isinstance(expr, ast.InList):
            stats = self._column_stats_of(expr.operand, bindings)
            total = 0.0
            for item in expr.items:
                value = _literal_value(item)
                if stats is not None and value is not None:
                    total += stats.selectivity_eq(value)
                else:
                    total += DEFAULT_EQ_SELECTIVITY
            total = min(1.0, total)
            return (1.0 - total) if expr.negated else total
        if isinstance(expr, ast.CONSTANTS):
            return 1.0 if expr.value else 0.0
        return 0.5

    def _sel_comparison(self, expr: ast.BinaryOp,
                        bindings: dict[str, str]) -> float:
        column, op, literal = column_literal(expr)
        if column is None:
            # col-to-col comparison within one row, or something opaque
            return 0.1 if expr.op != "=" else DEFAULT_JOIN_SELECTIVITY
        stats = self._column_stats(column, bindings)
        if op == "=":
            if stats is not None and literal is not None:
                return stats.selectivity_eq(literal)
            return DEFAULT_EQ_SELECTIVITY
        if op == "<>":
            if stats is not None and literal is not None:
                return 1.0 - stats.selectivity_eq(literal)
            return 1.0 - DEFAULT_EQ_SELECTIVITY
        if op in _MIRROR:
            if stats is not None and literal is not None and isinstance(
                    literal, (int, float)):
                value = float(literal)
                if op in ("<", "<="):
                    return stats.selectivity_range(None, value)
                return stats.selectivity_range(value, None)
            return DEFAULT_RANGE_SELECTIVITY
        if op == "LIKE":
            return 0.1
        return 0.5

    # -- joins ---------------------------------------------------------------------

    def join_selectivity(self, left_key: ast.ColumnRef,
                         right_key: ast.ColumnRef,
                         bindings: dict[str, str]) -> float:
        """Equi-join selectivity: 1 / max(ndv(left), ndv(right))."""
        left_stats = self._column_stats(left_key, bindings)
        right_stats = self._column_stats(right_key, bindings)
        ndv = 1.0
        if left_stats is not None:
            ndv = max(ndv, float(left_stats.distinct_count))
        if right_stats is not None:
            ndv = max(ndv, float(right_stats.distinct_count))
        if ndv <= 1.0:
            return DEFAULT_JOIN_SELECTIVITY
        return 1.0 / ndv

    # -- internals -------------------------------------------------------------------

    def _column_stats(self, ref: ast.ColumnRef,
                      bindings: dict[str, str]) -> ColumnStats | None:
        candidates = ([bindings[ref.table]] if ref.table in bindings
                      else list(bindings.values()))
        for table in candidates:
            stats = self._catalog.stats(table)
            if stats is None:
                continue
            col = stats.column_stats(ref.name)
            if col is not None:
                return col
        return None

    def _column_stats_of(self, expr: ast.Expr,
                         bindings: dict[str, str]) -> ColumnStats | None:
        if isinstance(expr, ast.ColumnRef):
            return self._column_stats(expr, bindings)
        return None


def _literal_value(expr: ast.Expr) -> Any:
    return expr.value if isinstance(expr, ast.CONSTANTS) else None


_MIRROR = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def column_literal(expr: ast.Expr):
    """Normalize ``col OP lit`` / ``lit OP col`` to (col, OP, lit) with an
    order comparison mirrored onto the column side (``10 <= id`` is
    ``id >= 10``; every other operator keeps its spelling); (None, None,
    None) for anything that is not a column against a literal.  A Param's
    ``lit`` is the running statement's value."""
    if isinstance(expr, ast.BinaryOp):
        if isinstance(expr.left, ast.ColumnRef) and isinstance(
                expr.right, ast.CONSTANTS):
            return expr.left, expr.op, expr.right.value
        if isinstance(expr.right, ast.ColumnRef) and isinstance(
                expr.left, ast.CONSTANTS):
            return expr.right, _MIRROR.get(expr.op, expr.op), expr.left.value
    return None, None, None


def is_equi_join_condition(expr: ast.Expr):
    """If ``expr`` is ``a.x = b.y`` over two column refs, return the pair."""
    if (isinstance(expr, ast.BinaryOp) and expr.op == "="
            and isinstance(expr.left, ast.ColumnRef)
            and isinstance(expr.right, ast.ColumnRef)):
        return expr.left, expr.right
    return None
