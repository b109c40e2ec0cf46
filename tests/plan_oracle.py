"""A plain-Python reference for plan trees: the seeded sweeps' oracle.

``reference(db, node)`` walks a logical plan one tuple at a time over the
tables' rows (``table.scan()``), with Python's own values, hashing,
equality and comparison — what the engines' array kernels must agree
with, value, Python type and order included:

* scans in scan order; filters and projections keep it;
* a hash join's output probe-row-major, each probe row's matches in
  build insertion order, keys matched by dict lookup (so ``1 == 1.0 ==
  True`` and a NaN object matches itself), NULL keys never; a nested
  loop left-row-major;
* groups in first-seen order, each keeping its first row; ``count``,
  ``sum`` as a left fold in row order (one BOOL sums to an int), ``avg``
  as that sum over the count, ``min`` / ``max`` by ``<`` / ``>`` from the
  first value, DISTINCT keeping each value's first occurrence; a global
  aggregate over no rows one group of NULLs;
* a stable sort in the total order numbers (``False < True`` among
  them), NaN, strings, NULL — reversed as a whole by DESC.

Scalar expressions — predicates, projections, keys, aggregate arguments
and results — are evaluated by the row compiler
(:func:`~repro.exec.expr.compile_expr`), the evaluator the vector
compiler falls back to per block; this module owns only what the block
kernels compute in arrays.  IndexScan plans are not covered.
"""

from __future__ import annotations

import functools

from repro.exec.expr import (
    RowLayout,
    compile_expr,
    output_layout,
    split_aggregates,
    to_bool,
)
from repro.plan import logical as plan
from repro.sql import ast


def reference(db, node: plan.PlanNode) -> list[tuple]:
    """The rows of ``node`` over ``db``'s tables."""
    return _rows(db, node)[1]


def _rows(db, node) -> tuple[RowLayout, list[tuple]]:
    if isinstance(node, plan.SeqScan):
        table = db.catalog.table(node.table)
        layout = RowLayout.of_table(node.binding, table.schema)
        rows = [row for _, row in table.scan()]
        return layout, _where(node.predicate, layout, rows)
    if isinstance(node, plan.EmptyRow):
        return RowLayout((), ()), [()]
    if isinstance(node, (plan.HashJoin, plan.NestedLoopJoin)):
        (left_layout, left), (right_layout, right) = (
            _rows(db, node.left), _rows(db, node.right))
        layout = left_layout.concat(right_layout)
        if isinstance(node, plan.NestedLoopJoin):
            pairs = [lrow + rrow for lrow in left for rrow in right]
            return layout, _where(node.condition, layout, pairs)
        lkey = left_layout.resolve(node.left_key.name, node.left_key.table)
        rkey = right_layout.resolve(node.right_key.name,
                                    node.right_key.table)
        buckets: dict = {}
        for lrow in left:
            if lrow[lkey] is not None:
                buckets.setdefault(lrow[lkey], []).append(lrow)
        pairs = [lrow + rrow for rrow in right if rrow[rkey] is not None
                 for lrow in buckets.get(rrow[rkey], ())]
        return layout, _where(node.residual, layout, pairs)
    layout, rows = _rows(db, node.child)
    if isinstance(node, plan.Filter):
        return layout, _where(node.predicate, layout, rows)
    if isinstance(node, plan.Project):
        return _project(node.items, layout, rows)
    if isinstance(node, plan.Aggregate):
        return _aggregate(node, layout, rows)
    if isinstance(node, plan.Sort):
        keys = [(compile_expr(k.expr, layout), k.descending)
                for k in node.keys]

        def compare(a: tuple, b: tuple) -> int:
            for evaluate, descending in keys:
                x, y = _order_key(evaluate(a)), _order_key(evaluate(b))
                if x != y:
                    return (1 if x > y else -1) * (-1 if descending else 1)
            return 0
        return layout, sorted(rows, key=functools.cmp_to_key(compare))
    if isinstance(node, plan.Limit):
        end = None if node.limit is None else node.offset + node.limit
        return layout, rows[node.offset:end]
    if isinstance(node, plan.Distinct):
        return layout, list(dict.fromkeys(rows))
    raise NotImplementedError(node.label)


def _order_key(value) -> tuple:
    """ORDER BY's total order: numbers, NaN, strings, NULL."""
    if value is None:
        return (3, 0)
    if isinstance(value, str):
        return (2, value)
    if value != value:
        return (1, 0)
    return (0, value)


def _where(predicate, layout: RowLayout, rows: list) -> list:
    if predicate is None:
        return rows
    test = compile_expr(predicate, layout)
    return [row for row in rows if to_bool(test(row))]


def _project(items, layout: RowLayout, rows: list):
    evaluators = []
    for item in items:
        if isinstance(item.expr, ast.Star):
            table = item.expr.table
            evaluators += [
                (lambda row, j=j: row[j])
                for j, (binding, _) in enumerate(layout.slots)
                if table is None or binding == table.lower()]
        else:
            evaluators.append(compile_expr(item.expr, layout))
    return (output_layout(items, layout),
            [tuple(e(row) for e in evaluators) for row in rows])


def _aggregate(node: plan.Aggregate, layout: RowLayout, rows: list):
    calls, items, results = split_aggregates(node.items, layout)
    keys = [compile_expr(e, layout) for e in node.group_by]
    args = [None if not c.args or isinstance(c.args[0], ast.Star)
            else compile_expr(c.args[0], layout) for c in calls]
    groups: dict = {}
    for row in rows:
        groups.setdefault(tuple(k(row) for k in keys), []).append(row)
    if not groups and not node.group_by:
        groups[()] = []
    out = []
    for members in groups.values():
        first = members[0] if members else (None,) * len(layout)
        values = [_fold(call, arg, members) for call, arg in zip(calls, args)]
        out.append(first + tuple(values))
    evaluators = [compile_expr(e, results) for e in items]
    return (output_layout(node.items, layout),
            [tuple(e(row) for e in evaluators) for row in out])


def _fold(call: ast.FuncCall, arg, members: list):
    if arg is None:                                  # COUNT(*)
        return len(members)
    values = [v for v in map(arg, members) if v is not None]
    if call.distinct:
        values = list(dict.fromkeys(values))
    if call.name == "count":
        return len(values)
    if not values:
        return None
    if call.name in ("sum", "avg"):
        total = functools.reduce(lambda a, b: a + b, values)
        if call.name == "avg":
            return total / len(values)
        return int(total) if type(total) is bool else total
    best = values[0]
    for value in values[1:]:
        if (value < best) if call.name == "min" else (value > best):
            best = value
    return best
