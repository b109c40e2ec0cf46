"""Expression typing and evaluation over rows, and the vectorized twin.

A row's columns are described by a :class:`RowLayout` — an ordered list of
(binding, column) pairs, where *binding* is the table alias in scope, and
the type of each slot.  The evaluator resolves column references against
the layout once (compile step) and then evaluates per row, so hot loops
avoid repeated name resolution.

Types are decided before any row is read, by one function:
:func:`expr_type`.  The planner calls it on every expression of a
statement, so an ill-typed one is a :class:`BindError` at plan time, and
the vector compiler calls it to pick each lowering.

Contract between the two compilers: :func:`compile_expr` (row) is the
semantic reference; :func:`compile_expr_vector` (batch) must agree with it
bit-for-bit or decline.  It declines once at *compile time*, returning
None for the forms it does not lower — 2-argument ``round``, literals
float64 cannot hold, a LIKE operand computed as a number (``str()`` of its
float64 view could disagree) — and the batch predicate wrapper
(:func:`compile_predicate_batch`) then evaluates those blocks row by row
with the reference evaluator.  At *runtime* it declines per block, for two
reasons that depend on values, never on types: a number column holding a
magnitude float64 cannot represent exactly, and a reachable zero divisor.
Either raises :class:`VectorFallback` and that one block is evaluated by
the row path, so precision and error / short-circuit semantics are decided
in row order exactly as the row engine would.  LIKE lowers for constant
patterns (compiled matcher at plan-compile time; wildcard-free patterns
shortcut to string equality) *and* non-constant patterns / computed text
operands (per-plan matcher cache keyed by runtime pattern value — see
:func:`_compile_like_vector`).
"""

from __future__ import annotations

import operator
import re
from typing import Any, Callable, Sequence

import numpy as np

from repro.common.errors import BindError, ExecutionError
from repro.sql import ast
from repro.storage.types import DataType


class RowLayout:
    """Maps (binding, column) pairs to positions in a row tuple, and each
    position to the type of its values: a :class:`DataType`, or None for
    a slot that only ever holds NULL (the type of a NULL literal, which
    fits anything)."""

    def __init__(self, slots: Sequence[tuple[str, str]],
                 types: Sequence[DataType | None]):
        self.slots: tuple[tuple[str, str], ...] = tuple(
            (b.lower(), c.lower()) for b, c in slots)
        self.types: tuple[DataType | None, ...] = tuple(types)
        if len(self.types) != len(self.slots):
            raise ValueError(f"{len(self.slots)} slots but "
                             f"{len(self.types)} types")
        # compiled expressions are cached per layout (types included), so
        # the hash is taken once here instead of on every lookup
        self._hash = hash((self.slots, self.types))
        self._by_pair = {pair: i for i, pair in enumerate(self.slots)}
        self._by_name: dict[str, list[int]] = {}
        for i, (_, col) in enumerate(self.slots):
            self._by_name.setdefault(col, []).append(i)

    @classmethod
    def of_table(cls, binding: str, schema) -> "RowLayout":
        """The rows a scan of a table with ``schema`` yields under the
        alias ``binding``; built once per schema object (a schema never
        changes — a re-created table gets a new one)."""
        return _memo(("table", binding, id(schema)), schema, lambda: cls(
            [(binding, c.name) for c in schema.columns], schema.dtypes()))

    def __len__(self) -> int:
        return len(self.slots)

    def __eq__(self, other: object) -> bool:
        return self is other or (isinstance(other, RowLayout)
                                 and self.slots == other.slots
                                 and self.types == other.types)

    def __hash__(self) -> int:
        return self._hash

    def resolve(self, column: str, binding: str | None = None) -> int:
        """Index of a column reference, raising on unknown/ambiguous names."""
        column = column.lower()
        if binding is not None:
            idx = self._by_pair.get((binding.lower(), column))
            if idx is None:
                raise BindError(f"column {binding}.{column} not in scope")
            return idx
        hits = self._by_name.get(column, ())
        if len(hits) == 1:
            return hits[0]
        if hits:
            raise BindError(f"column reference {column!r} is ambiguous")
        raise BindError(f"column {column!r} not in scope")

    def concat(self, other: "RowLayout") -> "RowLayout":
        if not self.slots:
            return other
        return RowLayout(self.slots + other.slots, self.types + other.types)

    def column_names(self) -> list[str]:
        return [c for _, c in self.slots]


#: the layout of a row with no columns (table-less SELECT, INSERT VALUES)
NO_COLUMNS = RowLayout([], [])


# -- typing ---------------------------------------------------------------------

_TEXT, _FLOAT = DataType.TEXT, DataType.FLOAT
_LITERAL_TYPES = {bool: DataType.BOOL, int: DataType.INT, float: _FLOAT,
                  str: _TEXT}
_ORDERED_CMP = frozenset(("<", "<=", ">", ">="))
_ARITHMETIC = frozenset(("+", "-", "*", "/", "%"))
_BOOLEAN = frozenset(("AND", "OR", "LIKE", "=", "<>"))
# fewest and most arguments per function
_ARGUMENTS = {"abs": (1, 1), "round": (1, 2), "floor": (1, 1),
              "ceil": (1, 1), "lower": (1, 1), "upper": (1, 1),
              "length": (1, 1), "coalesce": (1, float("inf")),
              "count": (0, 1), "sum": (1, 1), "avg": (1, 1), "min": (1, 1),
              "max": (1, 1)}


def expr_type(expr: ast.Expr, layout: RowLayout) -> DataType | None:
    """The type of ``expr``'s values over rows of ``layout``.

    INT, FLOAT and BOOL are numbers and mix as Python mixes them, TEXT is
    text, and None is the type of NULL, which fits anything.  Raises
    :class:`BindError` where no row could be evaluated: arithmetic or a
    numeric function over TEXT, a string function over a number, an
    ordering or COALESCE mixing TEXT and numbers, an unknown name, a wrong
    argument count.  ``=``, ``<>`` and ``IN`` across kinds never match,
    and ``LIKE`` reads any operand through ``str()``: both well typed.
    Aggregates are typed wherever they appear; whether one is allowed
    there is the compiler's question."""
    if type(expr) is ast.ColumnRef:
        return layout.types[layout.resolve(expr.name, expr.table)]
    if type(expr) is ast.Literal:
        return _LITERAL_TYPES.get(type(expr.value))
    if type(expr) is ast.BinaryOp:
        left = expr_type(expr.left, layout)
        right = expr_type(expr.right, layout)
        op = expr.op
        if op in _BOOLEAN:
            return DataType.BOOL
        if op in _ORDERED_CMP:
            _one_kind(op, left, right)
            return DataType.BOOL
        if op in _ARITHMETIC:
            number = _number(op, left, right)
            return _FLOAT if op == "/" and number else number
        raise BindError(f"unknown binary operator {op!r}")
    if isinstance(expr, ast.UnaryOp):
        operand = expr_type(expr.operand, layout)
        if expr.op == "NOT":
            return DataType.BOOL
        if expr.op == "-":
            return _number("-", operand)
        raise BindError(f"unknown unary operator {expr.op!r}")
    if isinstance(expr, ast.IsNull):
        expr_type(expr.operand, layout)
        return DataType.BOOL
    if isinstance(expr, ast.InList):
        for item in (expr.operand, *expr.items):
            expr_type(item, layout)
        return DataType.BOOL
    if isinstance(expr, ast.Between):
        _one_kind("BETWEEN", *(expr_type(e, layout)
                               for e in (expr.operand, expr.low, expr.high)))
        return DataType.BOOL
    if isinstance(expr, ast.FuncCall):
        return _call_type(expr, layout)
    if isinstance(expr, ast.Star):
        raise BindError("'*' is only valid in a select list or COUNT(*)")
    raise BindError(f"cannot compile expression {expr!r}")


def _number(what: str, *types: DataType | None) -> DataType | None:
    """The type of ``what`` over operands of ``types``: FLOAT if one is
    FLOAT, INT if one is any other number, None if all are NULL."""
    if _TEXT in types:
        raise BindError(f"{what!r} needs numbers, not TEXT")
    if _FLOAT in types:
        return _FLOAT
    return None if types.count(None) == len(types) else DataType.INT


def _one_kind(what: str, *types: DataType | None) -> None:
    """Ordering and COALESCE stay among TEXT values or among numbers."""
    if _TEXT in types and any(t not in (_TEXT, None) for t in types):
        raise BindError(f"{what!r} mixes TEXT and numbers")


def _call_type(call: ast.FuncCall, layout: RowLayout) -> DataType | None:
    name, args = call.name.lower(), call.args
    if name not in _ARGUMENTS:
        raise BindError(f"unknown function {call.name!r}")
    if name == "count" and args and isinstance(args[0], ast.Star):
        args = ()
    low, high = _ARGUMENTS[name]
    if not low <= len(args) <= high:
        raise BindError(f"{name}() does not take {len(args)} argument(s)")
    types = [expr_type(arg, layout) for arg in args]    # sum(*) raises
    if name == "count":
        return DataType.INT
    if name in ("min", "max"):
        return types[0]
    if name in ("lower", "upper", "length"):
        if types[0] not in (_TEXT, None):
            raise BindError(f"{name}() needs TEXT, not {types[0].value}")
        return DataType.INT if name == "length" else _TEXT
    if name == "coalesce":
        _one_kind("COALESCE", *types)
        known = {t for t in types if t is not None}
        return (known.pop() if len(known) == 1
                else _number("COALESCE", *known) if known else None)
    number = _number(name, *types)          # sum, avg and the numeric
    return _FLOAT if name == "avg" and number else number


def output_layout(items: Sequence[ast.SelectItem],
                  layout: RowLayout) -> RowLayout:
    """The rows a select list computes from rows of ``layout``: ``*`` and
    ``t.*`` pass the slots they name through, any other item is one slot
    named by :func:`~repro.sql.ast.output_name` and typed by
    :func:`expr_type`.  Memoized: the parser's template cache hands every
    statement of one template the same items."""
    return _memo(("output", id(items), layout), items,
                 lambda: _output_layout(items, layout))


def _output_layout(items: Sequence[ast.SelectItem],
                   layout: RowLayout) -> RowLayout:
    slots, types = [], []
    for position, item in enumerate(items):
        if not isinstance(item.expr, ast.Star):
            slots.append(("", ast.output_name(item, position)))
            types.append(expr_type(item.expr, layout))
            continue
        table = item.expr.table
        for slot, dtype in zip(layout.slots, layout.types):
            if table is None or slot[0] == table.lower():
                slots.append(slot)
                types.append(dtype)
    return RowLayout(slots, types)


Evaluator = Callable[[tuple], Any]


def compile_expr(expr: ast.Expr, layout: RowLayout) -> Evaluator:
    """Compile an expression into a row -> value callable.

    SQL three-valued logic is folded to Python: comparisons with NULL yield
    None, AND/OR propagate None per Kleene logic, and WHERE treats None as
    false (the caller applies ``bool(value)`` via :func:`to_bool`).
    """
    if isinstance(expr, ast.Literal):
        value = expr.value
        return lambda row: value

    if isinstance(expr, ast.ColumnRef):
        idx = layout.resolve(expr.name, expr.table)
        return lambda row: row[idx]

    if isinstance(expr, ast.BinaryOp):
        return _compile_binary(expr, layout)

    if isinstance(expr, ast.UnaryOp):
        inner = compile_expr(expr.operand, layout)
        if expr.op == "NOT":
            def eval_not(row: tuple) -> Any:
                v = inner(row)
                return None if v is None else (not bool(v))
            return eval_not

        def eval_neg(row: tuple) -> Any:
            v = inner(row)
            return None if v is None else -v
        return eval_neg

    if isinstance(expr, ast.IsNull):
        inner = compile_expr(expr.operand, layout)
        if expr.negated:
            return lambda row: inner(row) is not None
        return lambda row: inner(row) is None

    if isinstance(expr, ast.InList):
        inner = compile_expr(expr.operand, layout)
        items = [compile_expr(item, layout) for item in expr.items]
        negated = expr.negated

        def eval_in(row: tuple) -> Any:
            v = inner(row)
            if v is None:
                return None
            found = any(item(row) == v for item in items)
            return (not found) if negated else found
        return eval_in

    if isinstance(expr, ast.Between):
        inner = compile_expr(expr.operand, layout)
        low = compile_expr(expr.low, layout)
        high = compile_expr(expr.high, layout)
        negated = expr.negated

        def eval_between(row: tuple) -> Any:
            v = inner(row)
            lo, hi = low(row), high(row)
            if v is None or lo is None or hi is None:
                return None
            result = lo <= v <= hi
            return (not result) if negated else result
        return eval_between

    if isinstance(expr, ast.FuncCall):
        return _compile_scalar_func(expr, layout)

    if isinstance(expr, ast.Star):
        raise BindError("'*' is only valid in a select list or COUNT(*)")

    raise BindError(f"cannot compile expression {expr!r}")


def to_bool(value: Any) -> bool:
    """WHERE-clause truthiness: NULL and false are both false."""
    return bool(value) if value is not None else False


# -- compiled-expression cache ----------------------------------------------
#
# Operators are rebuilt from plan nodes on every execution, so streaming
# re-train loops and benchmark iterations would recompile the same
# predicates over and over.  The cache is keyed by AST-node identity plus
# the layout, slot types included: the parser's template cache shares
# literal-free subtrees across statements, and the same node must lower
# anew over a table re-created with other types.  Values pin the object
# whose id() is in the key, so the id cannot be recycled.

_COMPILE_CACHE_MAX = 4096
_compile_cache: dict[tuple, tuple[Any, Any]] = {}


def _memo(key: tuple, pin: Any, build: Callable[[], Any]) -> Any:
    hit = _compile_cache.get(key)
    if hit is not None and hit[0] is pin:
        return hit[1]
    value = build()
    if len(_compile_cache) >= _COMPILE_CACHE_MAX:
        _compile_cache.clear()
    _compile_cache[key] = (pin, value)
    return value


def _cached(kind: str, expr: ast.Expr, layout: RowLayout, compile_fn):
    return _memo((kind, id(expr), layout), expr,
                 lambda: compile_fn(expr, layout))


def compile_expr_cached(expr: ast.Expr, layout: RowLayout) -> Evaluator:
    """Memoized :func:`compile_expr` for per-operator hot paths."""
    return _cached("row", expr, layout, compile_expr)


# comparisons and + - *: one definition for Python values and for arrays
_CMP = {
    "=": operator.eq, "<>": operator.ne, "<": operator.lt, "<=": operator.le,
    ">": operator.gt, ">=": operator.ge,
}
_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def _compile_binary(expr: ast.BinaryOp, layout: RowLayout) -> Evaluator:
    op = expr.op
    left = compile_expr(expr.left, layout)
    right = compile_expr(expr.right, layout)

    if op == "AND":
        def eval_and(row: tuple) -> Any:
            a = left(row)
            if a is not None and not a:
                return False
            b = right(row)
            if b is not None and not b:
                return False
            if a is None or b is None:
                return None
            return True
        return eval_and

    if op == "OR":
        def eval_or(row: tuple) -> Any:
            a = left(row)
            if a is not None and a:
                return True
            b = right(row)
            if b is not None and b:
                return True
            if a is None or b is None:
                return None
            return False
        return eval_or

    fn = _CMP.get(op) or _ARITH.get(op)
    if fn is not None:
        def eval_binary(row: tuple) -> Any:
            a, b = left(row), right(row)
            if a is None or b is None:
                return None
            return fn(a, b)
        return eval_binary

    if op in ("/", "%"):
        divide, what = ((operator.truediv, "division") if op == "/"
                        else (operator.mod, "modulo"))

        def eval_div(row: tuple) -> Any:
            a, b = left(row), right(row)
            if a is None or b is None:
                return None
            if b == 0:
                raise ExecutionError(f"{what} by zero")
            return divide(a, b)
        return eval_div

    if op == "LIKE":
        def eval_like(row: tuple) -> Any:
            a, b = left(row), right(row)
            if a is None or b is None:
                return None
            pattern = re.escape(str(b)).replace("%", ".*").replace("_", ".")
            return re.fullmatch(pattern, str(a)) is not None
        return eval_like

    raise BindError(f"unknown binary operator {op!r}")


def _like_matcher(pattern: str) -> Callable[[str], bool]:
    """Compile a LIKE pattern into a ``str -> bool`` matcher.

    Mirrors the row evaluator's translation exactly (``re.escape``, then
    ``% -> .*`` and ``_ -> .``) so both paths agree on every corner,
    including ``.`` not matching newlines.  Wildcard-free patterns shortcut
    to plain string equality — a fullmatch against an escaped literal *is*
    equality — which is the constant-pattern fast path's fast path.
    """
    if "%" not in pattern and "_" not in pattern:
        return lambda s: s == pattern
    regex = re.compile(re.escape(pattern).replace("%", ".*").replace("_", "."))
    fullmatch = regex.fullmatch
    return lambda s: fullmatch(s) is not None


_SCALAR_FUNCS: dict[str, Callable[..., Any]] = {
    "abs": abs,
    "lower": lambda s: s.lower(),
    "upper": lambda s: s.upper(),
    "length": len,
    "round": round,
    "floor": lambda x: float(int(x // 1)),
    "ceil": lambda x: float(-int(-x // 1)),
    "coalesce": None,  # special-cased below
}


def _compile_scalar_func(expr: ast.FuncCall, layout: RowLayout) -> Evaluator:
    name = expr.name.lower()
    if name in ast.AGGREGATE_FUNCTIONS:
        raise BindError(
            f"aggregate {name!r} is not allowed in this context")
    if name == "coalesce":
        args = [compile_expr(a, layout) for a in expr.args]

        def eval_coalesce(row: tuple) -> Any:
            for arg in args:
                v = arg(row)
                if v is not None:
                    return v
            return None
        return eval_coalesce
    fn = _SCALAR_FUNCS.get(name)
    if fn is None:
        raise BindError(f"unknown function {expr.name!r}")
    args = [compile_expr(a, layout) for a in expr.args]

    def eval_func(row: tuple) -> Any:
        values = [a(row) for a in args]
        if any(v is None for v in values):
            return None
        return fn(*values)
    return eval_func


# -- vectorized compilation ---------------------------------------------------
#
# The batch engine lowers expressions to numpy column operations.  A vector
# evaluator maps a RowBlock to ``(values, null)`` where ``values`` is a
# float64 / bool array for a number, an object array of the raw Python
# values for TEXT, and ``null`` is a boolean NULL mask (SQL three-valued
# logic rides in the mask, not in the values; whatever sits in ``values``
# at a NULL position is never read).  Which of the two a node produces is
# decided at compile time by :func:`expr_type`, so no evaluator inspects a
# dtype to find out what it was given.


class VectorFallback(Exception):
    """Raised by a vector evaluator when the values of one block defeat
    it — a number float64 cannot hold exactly, a reachable zero divisor;
    the caller evaluates that block row by row."""


VectorEvaluator = Callable[[Any], tuple[np.ndarray, np.ndarray]]

# per-literal bound on cached broadcast arrays (keyed by block length);
# past it the cache resets, like the compile and LIKE-matcher caches
_LITERAL_CACHE_MAX = 32

def _truthy(values: np.ndarray, null: np.ndarray) -> np.ndarray:
    """Definitely-true mask (WHERE semantics: NULL counts as false)."""
    if values.dtype == np.bool_:
        true = values
    elif values.dtype == object:
        n = len(values)
        true = np.fromiter((v is not None and bool(v) for v in values),
                           dtype=bool, count=n)
    else:
        true = values != 0.0
    return true & ~null


def _where_valid(fn, null: np.ndarray, *arrays: np.ndarray) -> np.ndarray:
    """``fn(*arrays)`` over the non-NULL rows only, False elsewhere: TEXT
    ordering, so None never reaches a Python ``<``."""
    out = np.zeros(len(null), dtype=bool)
    valid = ~null
    out[valid] = fn(*(a[valid] for a in arrays))
    return out


def compile_expr_vector(expr: ast.Expr,
                        layout: RowLayout) -> VectorEvaluator | None:
    """Lower a well-typed expression (one :func:`expr_type` accepts over
    ``layout``) to a block evaluator, or None for a form kept on the row
    path."""
    if isinstance(expr, ast.Literal):
        # literal columns are length-keyed and cached: scan block sizes
        # repeat (one or two distinct lengths per scan), so each literal
        # builds its broadcast arrays once per length instead of once per
        # block.  Bounded (_LITERAL_CACHE_MAX) because join/aggregate
        # outputs produce data-dependent block lengths; evaluators are
        # pinned process-wide by the compile cache, so an unbounded dict
        # would leak one array pair per distinct length seen.  The cached
        # arrays are read-only by the evaluator contract (consumers copy
        # before mutating).
        value = expr.value
        cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

        def _cached_lit(n: int, build):
            hit = cache.get(n)
            if hit is None:
                if len(cache) >= _LITERAL_CACHE_MAX:
                    cache.clear()
                hit = cache[n] = build(n)
            return hit

        if value is None:
            def eval_null_lit(block):
                return _cached_lit(len(block), lambda n: (
                    np.zeros(n, dtype=bool), np.ones(n, dtype=bool)))
            return eval_null_lit
        if isinstance(value, (bool, int, float)):
            scalar = float(value)
            if scalar != value:
                # integer literal beyond float64 exactness: vectorized
                # comparison would be lossy, let the row path handle it
                return None

            def eval_num_lit(block):
                return _cached_lit(len(block), lambda n: (
                    np.full(n, scalar, dtype=np.float64),
                    np.zeros(n, dtype=bool)))
            return eval_num_lit

        def eval_obj_lit(block):
            return _cached_lit(len(block), lambda n: (
                np.full(n, value, dtype=object), np.zeros(n, dtype=bool)))
        return eval_obj_lit

    if isinstance(expr, ast.ColumnRef):
        idx = layout.resolve(expr.name, expr.table)
        if layout.types[idx] is _TEXT:
            return lambda block: (block.column(idx), block.null_mask(idx))

        def eval_number_column(block):
            values = block.numeric(idx)
            if values is None:
                # value-decided: this block holds a magnitude float64
                # cannot represent exactly (|int| >= 2^53 arrives as
                # objects), which the row path compares exactly
                raise VectorFallback
            return values, block.null_mask(idx)
        return eval_number_column

    if isinstance(expr, ast.BinaryOp):
        return _compile_binary_vector(expr, layout)

    if isinstance(expr, ast.UnaryOp):
        inner = compile_expr_vector(expr.operand, layout)
        if inner is None:
            return None
        if expr.op == "NOT":
            def eval_not(block):
                values, null = inner(block)
                true = _truthy(values, null)
                false = ~true & ~null
                return false, null
            return eval_not

        def eval_neg(block):
            values, null = inner(block)
            return -values.astype(np.float64), null
        return eval_neg

    if isinstance(expr, ast.IsNull):
        inner = compile_expr_vector(expr.operand, layout)
        if inner is None:
            return None
        negated = expr.negated

        def eval_is_null(block):
            _, null = inner(block)
            out = ~null if negated else null
            return out, np.zeros(len(out), dtype=bool)
        return eval_is_null

    if isinstance(expr, ast.Between):
        bounds = (expr.operand, expr.low, expr.high)
        parts = [compile_expr_vector(e, layout) for e in bounds]
        if any(p is None for p in parts):
            return None
        operand, low, high = parts
        negated = expr.negated
        text = any(expr_type(e, layout) is _TEXT for e in bounds)

        def eval_between(block):
            v, vn = operand(block)
            lo, ln = low(block)
            hi, hn = high(block)
            null = vn | ln | hn
            if text:
                out = _where_valid(lambda v, lo, hi: (lo <= v) & (v <= hi),
                                   null, v, lo, hi)
            else:
                out = (lo <= v) & (v <= hi)
            if negated:
                out = ~out
            return out, null
        return eval_between

    if isinstance(expr, ast.InList):
        operand = compile_expr_vector(expr.operand, layout)
        items = [compile_expr_vector(item, layout) for item in expr.items]
        if operand is None or any(item is None for item in items):
            return None
        negated = expr.negated
        dict_probe = _dict_in_probe(expr, layout)

        def eval_in(block):
            if dict_probe is not None:
                fast = dict_probe(block)
                if fast is not None:
                    return fast
            v, null = operand(block)
            found = np.zeros(len(v), dtype=bool)
            for item in items:
                iv, inull = item(block)
                # row semantics: a NULL list item never matches (x == NULL
                # inside any() is plain Python False, not SQL NULL)
                found |= np.asarray(v == iv, dtype=bool) & ~inull
            out = ~found if negated else found
            return out, null
        return eval_in

    if isinstance(expr, ast.FuncCall):
        return _compile_func_vector(expr, layout)

    return None  # Star and anything unknown: the row compiler raises


def _compile_binary_vector(expr: ast.BinaryOp,
                           layout: RowLayout) -> VectorEvaluator | None:
    op = expr.op
    if op == "LIKE":
        # handled before the operand compilers run: LIKE needs the raw
        # object column (str() of the original values), not a numeric view
        return _compile_like_vector(expr, layout)
    left = compile_expr_vector(expr.left, layout)
    right = compile_expr_vector(expr.right, layout)
    if left is None or right is None:
        return None

    if op in ("AND", "OR"):
        conjunction = op == "AND"

        def eval_logic(block):
            av, an = left(block)
            bv, bn = right(block)
            a_true = _truthy(av, an)
            b_true = _truthy(bv, bn)
            if conjunction:
                a_false = ~a_true & ~an
                b_false = ~b_true & ~bn
                out = a_true & b_true
                null = (an | bn) & ~a_false & ~b_false
            else:
                out = a_true | b_true
                null = (an | bn) & ~out
            return out, null
        return eval_logic

    if op in _CMP:
        cmp = _CMP[op]
        text_order = op in _ORDERED_CMP and _TEXT in (
            expr_type(expr.left, layout), expr_type(expr.right, layout))
        dict_probe = (_dict_cmp_probe(expr, layout)
                      if op in ("=", "<>") else None)

        def eval_cmp(block):
            if dict_probe is not None:
                fast = dict_probe(block)
                if fast is not None:
                    return fast
            av, an = left(block)
            bv, bn = right(block)
            null = an | bn
            if text_order:
                return _where_valid(cmp, null, av, bv), null
            # equality across kinds compares elementwise to "no match";
            # garbage at NULL positions is hidden by the mask
            return np.asarray(cmp(av, bv), dtype=bool), null
        return eval_cmp

    if op in _ARITH:
        fn = _ARITH[op]

        def eval_arith(block):
            av, an = left(block)
            bv, bn = right(block)
            return fn(av.astype(np.float64), bv.astype(np.float64)), an | bn
        return eval_arith

    if op in ("/", "%"):
        modulo = op == "%"

        def eval_div(block):
            av, an = left(block)
            bv, bn = right(block)
            null = an | bn
            bv = bv.astype(np.float64)
            if ((bv == 0.0) & ~null).any():
                # value-decided: a zero divisor exists, but short-circuit
                # row semantics decide whether it is ever evaluated — the
                # row path raises exactly when a row reaches it
                raise VectorFallback
            safe = np.where(bv == 0.0, 1.0, bv)  # NULL slots hold 0.0
            av = av.astype(np.float64)
            out = np.mod(av, safe) if modulo else av / safe
            return out, null
        return eval_div

    return None  # anything else: row fallback


# scalar functions the vectorizer lowers: numeric ones map to one numpy
# ufunc over the float64 view; string ones run one pass over the non-NULL
# values of the raw object column (no row tuples, no whole-block
# fallback).  round is vectorized only in its 1-argument form: numpy's
# 2-argument decimal rounding scales/unscales through float64 and can
# disagree with Python's exact round-half-even on ties.
_NUMERIC_FUNC_VECTOR = {
    "abs": np.abs,
    "round": np.rint,
    "floor": np.floor,
    "ceil": np.ceil,
}
_STRING_FUNC_VECTOR = {"lower": str.lower, "upper": str.upper, "length": len}


def _compile_func_vector(expr: ast.FuncCall,
                         layout: RowLayout) -> VectorEvaluator | None:
    """Lower a scalar function call, or None for the row fallback (an
    aggregate here is the row compiler's BindError to raise)."""
    name = expr.name.lower()
    args = [compile_expr_vector(a, layout) for a in expr.args]
    if any(a is None for a in args):
        return None

    if name == "coalesce":
        dtype = object if expr_type(expr, layout) is _TEXT else np.float64

        def eval_coalesce(block):
            values, null = args[0](block)
            values = values.astype(dtype)
            for arg in args[1:]:
                if not null.any():
                    break
                fill_values, fill_null = arg(block)
                values[null] = fill_values[null]
                null = null & fill_null
            return values, null
        return eval_coalesce

    if name in _NUMERIC_FUNC_VECTOR:
        if len(args) != 1:
            return None  # round's 2-argument form: row path
        inner, fn = args[0], _NUMERIC_FUNC_VECTOR[name]

        def eval_numeric_func(block):
            values, null = inner(block)
            return fn(values.astype(np.float64)), null
        return eval_numeric_func

    if name in _STRING_FUNC_VECTOR:
        inner, fn = args[0], _STRING_FUNC_VECTOR[name]
        length = name == "length"

        def eval_string_func(block):
            values, null = inner(block)
            n = len(values)
            out = np.zeros(n) if length else np.empty(n, dtype=object)
            live = np.flatnonzero(~null)
            out[live] = [fn(v) for v in values[live].tolist()]
            return out, null
        return eval_string_func

    return None


# -- dictionary-code fast paths ----------------------------------------------
#
# Typed storage v2 delivers TEXT columns dictionary-encoded (int32 codes
# over first-seen string dictionaries, NULL rows at code -1).  String
# predicates of the shapes below then run one C comparison / lookup over
# the code array instead of touching Python string objects at all.  Each
# probe decides at *runtime* per block: non-dict blocks (computed columns,
# dictionary-overflow fallbacks, row-engine adaptors) return None and the
# generic object-array evaluator takes over, so semantics never depend on
# which layout a block happens to arrive in.


def _dict_cmp_probe(expr: ast.BinaryOp, layout: RowLayout):
    """``col = 'lit'`` / ``col <> 'lit'`` (literal on either side) as a
    code comparison, or None when the shape doesn't apply."""
    if (isinstance(expr.left, ast.ColumnRef)
            and isinstance(expr.right, ast.Literal)):
        colref, lit = expr.left, expr.right.value
    elif (isinstance(expr.right, ast.ColumnRef)
            and isinstance(expr.left, ast.Literal)):
        colref, lit = expr.right, expr.left.value
    else:
        return None
    if not isinstance(lit, str):
        return None
    idx = layout.resolve(colref.name, colref.table)
    negate = expr.op == "<>"

    def probe(block):
        tc = block.dict_column(idx)
        if tc is None:
            return None
        code = tc.code_of(lit)
        if code is None:
            out = np.zeros(len(tc.data), dtype=bool)
        else:
            out = tc.data == code
        if negate:
            out = ~out  # garbage at NULL rows (code -1) hidden by the mask
        return out, block.null_mask(idx)
    return probe


def _dict_in_probe(expr: ast.InList, layout: RowLayout):
    """``col IN ('a', 'b', ...)`` as one boolean LUT over the code array,
    or None when the operand isn't a bare column / items aren't string
    literals."""
    if not isinstance(expr.operand, ast.ColumnRef):
        return None
    values: list[str] = []
    for item in expr.items:
        if not (isinstance(item, ast.Literal)
                and isinstance(item.value, str)):
            return None
        values.append(item.value)
    idx = layout.resolve(expr.operand.name, expr.operand.table)
    negated = expr.negated

    def probe(block):
        tc = block.dict_column(idx)
        if tc is None:
            return None
        # one slot per dictionary entry plus a trailing False that NULL
        # rows (code -1) index via numpy's negative indexing
        lut = np.zeros(len(tc.dictionary) + 1, dtype=bool)
        for v in values:
            code = tc.code_of(v)
            if code is not None:
                lut[code] = True
        found = lut[tc.data]
        out = ~found if negated else found
        return out, block.null_mask(idx)
    return probe


def _compile_raw_vector(expr: ast.Expr,
                        layout: RowLayout) -> VectorEvaluator | None:
    """Compile an expression for LIKE operands: the *raw* Python values,
    never a numeric float64 view — the row engine applies ``str()`` to the
    original value, and ``str(5)`` ≠ ``str(5.0)``.

    Column references read the object column directly, whatever their
    type.  Any other TEXT (or NULL) expression compiles through the
    vectorizer, which hands TEXT out as raw objects; a computed number is
    declined here, at compile time, so its ``str()`` stays the row path's.
    """
    if isinstance(expr, ast.ColumnRef):
        idx = layout.resolve(expr.name, expr.table)
        return lambda block: (block.column(idx), block.null_mask(idx))
    if expr_type(expr, layout) not in (_TEXT, None):
        return None
    return compile_expr_vector(expr, layout)


# per-plan bound on cached compiled matchers for non-constant LIKE
# patterns; past it the cache resets (same policy as the compile cache)
_LIKE_CACHE_MAX = 256


def _compile_like_vector(expr: ast.BinaryOp,
                         layout: RowLayout) -> VectorEvaluator | None:
    """Vectorized LIKE for constant *and* non-constant patterns.

    Constant patterns (the PR 2 fast path, untouched): the pattern is
    translated to a compiled matcher once at plan-compile time and applied
    across the raw object column in a single pass — no per-row pattern
    re-translation, no row-tuple materialization; wildcard-free patterns
    shortcut to string equality.

    Non-constant patterns (``a.name LIKE b.pattern``) and computed text
    operands (``lower(name) LIKE 'u%'``) lower too: operands compile via
    :func:`_compile_raw_vector` (raw values only), and each *distinct
    runtime pattern value* compiles its matcher once into a per-plan
    cache keyed by the pattern string — the row path re-escapes and
    re-compiles the regex for every row.  The cache only ever gains
    matchers that are pure functions of their key, so evaluating a block
    again, or in another order, finds the same verdicts.
    """
    left = _compile_raw_vector(expr.left, layout)
    if left is None:
        return None
    if isinstance(expr.right, ast.Literal) and expr.right.value is not None:
        match = _like_matcher(str(expr.right.value))
        dict_idx = (layout.resolve(expr.left.name, expr.left.table)
                    if isinstance(expr.left, ast.ColumnRef) else None)

        def eval_like(block):
            if dict_idx is not None:
                tc = block.dict_column(dict_idx)
                if tc is not None:
                    # match each distinct dictionary string once, then
                    # fan the verdicts out over the code array; the
                    # trailing False serves NULL rows (code -1)
                    lut = np.empty(len(tc.dictionary) + 1, dtype=bool)
                    lut[-1] = False
                    for i, s in enumerate(tc.dictionary):
                        lut[i] = match(s)
                    return lut[tc.data], block.null_mask(dict_idx)
            values, null = left(block)
            out = np.fromiter(
                (v is not None and match(str(v)) for v in values),
                dtype=bool, count=len(values))
            return out, null
        return eval_like

    right = _compile_raw_vector(expr.right, layout)
    if right is None:
        return None
    matchers: dict[str, Callable[[str], bool]] = {}

    def eval_like_dynamic(block):
        lv, ln = left(block)
        rv, rn = right(block)
        null = ln | rn
        n = len(lv)
        out = np.zeros(n, dtype=bool)
        for i in range(n):
            if null[i]:
                continue
            key = str(rv[i])
            match = matchers.get(key)
            if match is None:
                if len(matchers) >= _LIKE_CACHE_MAX:
                    matchers.clear()
                match = matchers[key] = _like_matcher(key)
            out[i] = match(str(lv[i]))
        return out, null
    return eval_like_dynamic


def compile_predicate_batch(expr: ast.Expr, layout: RowLayout):
    """Compile a WHERE/ON predicate for the block engines: ``block -> bool
    mask`` of the rows that pass (NULL = fail).

    The predicate is typed first (:class:`BindError` when ill-typed), then
    lowered by :func:`compile_expr_vector`.  A form the vector compiler
    declines evaluates every block row by row with the reference
    evaluator; a lowered plan does so only for a block whose values raise
    :class:`VectorFallback`.  The compiled function holds no state that
    evaluating a block changes."""
    return _cached("pred", expr, layout, _compile_predicate_batch)


def _compile_predicate_batch(expr: ast.Expr, layout: RowLayout):
    expr_type(expr, layout)
    vector = compile_expr_vector(expr, layout)
    row_eval = compile_expr_cached(expr, layout)

    def eval_rows(block) -> np.ndarray:
        return np.fromiter((to_bool(row_eval(row))
                            for row in block.iter_rows()),
                           dtype=bool, count=len(block))

    if vector is None:
        return eval_rows

    def eval_block(block) -> np.ndarray:
        try:
            values, null = vector(block)
        except VectorFallback:
            return eval_rows(block)
        return _truthy(values, null)
    return eval_block
