"""Abstract syntax tree for the SQL dialect, including PREDICT.

Expressions and statements are plain dataclasses; the planner consumes these
directly.  The PREDICT statement follows the paper's Listings 1 and 2:

    PREDICT VALUE OF score FROM review WHERE ... TRAIN ON * WITH ...
    PREDICT CLASS OF outcome FROM diabetes TRAIN ON f1, f2 VALUES (...), ...
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.storage.types import DataType


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------

class Expr:
    """Base class for expressions."""


@dataclass(frozen=True)
class Literal(Expr):
    value: Any  # int | float | str | bool | None


@dataclass(frozen=True)
class ColumnRef(Expr):
    name: str
    table: Optional[str] = None  # optional qualifier

    def display(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass(frozen=True)
class Star(Expr):
    """``*`` in a select list or TRAIN ON clause."""
    table: Optional[str] = None


@dataclass(frozen=True)
class BinaryOp(Expr):
    op: str  # '=', '<>', '<', '<=', '>', '>=', '+', '-', '*', '/', '%', 'AND', 'OR', 'LIKE'
    left: Expr
    right: Expr


@dataclass(frozen=True)
class UnaryOp(Expr):
    op: str  # 'NOT', '-'
    operand: Expr


@dataclass(frozen=True)
class IsNull(Expr):
    operand: Expr
    negated: bool = False


@dataclass(frozen=True)
class InList(Expr):
    operand: Expr
    items: tuple[Expr, ...]
    negated: bool = False


@dataclass(frozen=True)
class Between(Expr):
    operand: Expr
    low: Expr
    high: Expr
    negated: bool = False


@dataclass(frozen=True)
class FuncCall(Expr):
    """Aggregate or scalar function call, e.g. COUNT(*), SUM(x), ABS(x)."""
    name: str
    args: tuple[Expr, ...]
    distinct: bool = False


AGGREGATE_FUNCTIONS = frozenset({"count", "sum", "avg", "min", "max"})


def is_aggregate(expr: Expr) -> bool:
    """True if the expression contains an aggregate call anywhere."""
    if isinstance(expr, FuncCall):
        if expr.name in AGGREGATE_FUNCTIONS:
            return True
        return any(is_aggregate(a) for a in expr.args)
    if isinstance(expr, BinaryOp):
        return is_aggregate(expr.left) or is_aggregate(expr.right)
    if isinstance(expr, UnaryOp):
        return is_aggregate(expr.operand)
    if isinstance(expr, (IsNull, Between)):
        return is_aggregate(expr.operand)
    if isinstance(expr, InList):
        return is_aggregate(expr.operand)
    return False


def referenced_columns(expr: Expr) -> list[ColumnRef]:
    """All ColumnRefs in an expression tree, in encounter order."""
    out: list[ColumnRef] = []

    def walk(node: Expr) -> None:
        if isinstance(node, ColumnRef):
            out.append(node)
        elif isinstance(node, BinaryOp):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, UnaryOp):
            walk(node.operand)
        elif isinstance(node, IsNull):
            walk(node.operand)
        elif isinstance(node, Between):
            walk(node.operand)
            walk(node.low)
            walk(node.high)
        elif isinstance(node, InList):
            walk(node.operand)
            for item in node.items:
                walk(item)
        elif isinstance(node, FuncCall):
            for arg in node.args:
                walk(arg)

    walk(expr)
    return out


# ---------------------------------------------------------------------------
# statements
# ---------------------------------------------------------------------------

class Statement:
    """Base class for statements."""


@dataclass(frozen=True)
class ColumnDef:
    name: str
    dtype: DataType
    unique: bool = False
    nullable: bool = True


@dataclass(frozen=True)
class CreateTable(Statement):
    """``CREATE TABLE t (...) [WITH (key = value, ...)]``.

    ``options`` carries the storage knobs from the WITH clause —
    ``shards`` (int) and ``partition`` (column name) drive hash
    sharding — as (key, value) pairs in source order.
    """

    table: str
    columns: tuple[ColumnDef, ...]
    options: tuple[tuple[str, object], ...] = ()


@dataclass(frozen=True)
class DropTable(Statement):
    table: str
    if_exists: bool = False


@dataclass(frozen=True)
class CreateIndex(Statement):
    name: str
    table: str
    column: str
    kind: str = "btree"  # "btree" | "hash"


@dataclass(frozen=True)
class Insert(Statement):
    table: str
    columns: tuple[str, ...]  # empty = schema order
    rows: tuple[tuple[Expr, ...], ...]


@dataclass(frozen=True)
class Update(Statement):
    table: str
    assignments: tuple[tuple[str, Expr], ...]
    where: Optional[Expr] = None


@dataclass(frozen=True)
class Delete(Statement):
    table: str
    where: Optional[Expr] = None


@dataclass(frozen=True)
class TableRef:
    name: str
    alias: Optional[str] = None

    @property
    def binding(self) -> str:
        return self.alias or self.name


@dataclass(frozen=True)
class Join:
    kind: str  # "inner" | "cross"
    table: TableRef
    condition: Optional[Expr] = None


@dataclass(frozen=True)
class SelectItem:
    expr: Expr
    alias: Optional[str] = None


def output_name(item: SelectItem, position: int) -> str:
    """The result-column name of the select item at ``position``."""
    if item.alias:
        return item.alias
    if isinstance(item.expr, ColumnRef):
        return item.expr.name
    if isinstance(item.expr, FuncCall):
        return item.expr.name
    return f"col{position}"


@dataclass(frozen=True)
class OrderItem:
    expr: Expr
    descending: bool = False


@dataclass(frozen=True)
class Select(Statement):
    items: tuple[SelectItem, ...]
    from_table: Optional[TableRef] = None
    joins: tuple[Join, ...] = ()
    where: Optional[Expr] = None
    group_by: tuple[Expr, ...] = ()
    order_by: tuple[OrderItem, ...] = ()
    limit: Optional[int] = None
    offset: Optional[int] = None
    distinct: bool = False


@dataclass(frozen=True)
class Analyze(Statement):
    table: Optional[str] = None


@dataclass(frozen=True)
class Explain(Statement):
    """``EXPLAIN [ANALYZE] <statement>`` — render the plan, optionally
    executing it for per-operator charged-time annotations."""

    statement: Statement
    analyze: bool = False


@dataclass(frozen=True)
class Predict(Statement):
    """The paper's PREDICT extension (Listings 1 & 2).

    Attributes:
        task: ``"regression"`` (VALUE OF) or ``"classification"`` (CLASS OF).
        target: column to predict.
        table: source table.
        where: filter selecting the rows whose target is to be predicted.
        train_on: feature column names, or ``("*",)`` for all non-unique
            columns excluding the target.
        train_filter: the WITH clause restricting training rows.
        inline_rows: VALUES rows of features to predict directly.
        refresh: the ``WITH (refresh=auto|manual)`` serving knob, or None
            when unspecified (the serving subsystem's policy decides).
            Not part of the model identity and never affects charges on
            the plain ``Db.execute`` path.
    """

    task: str
    target: str
    table: str
    where: Optional[Expr] = None
    train_on: tuple[str, ...] = ("*",)
    train_filter: Optional[Expr] = None
    inline_rows: tuple[tuple[Expr, ...], ...] = ()
    refresh: Optional[str] = None  # "auto" | "manual" | None
