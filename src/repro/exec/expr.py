"""Expression evaluation over rows, and its vectorized (columnar) twin.

A row's columns are described by a :class:`RowLayout` — an ordered list of
(binding, column) pairs, where *binding* is the table alias in scope.  The
evaluator resolves column references against the layout once (compile step)
and then evaluates per row, so hot loops avoid repeated name resolution.

Contract between the two compilers: :func:`compile_expr` (row) is the
semantic reference; :func:`compile_expr_vector` (batch) must agree with it
bit-for-bit or decline.  It declines in two ways.  At *compile time* it
returns None for forms it cannot lower — 2-argument ``round``, literals
float64 cannot hold, LIKE operands outside the raw-value forms
:func:`_compile_raw_vector` accepts — and the batch predicate wrapper
(:func:`compile_predicate_batch`) then evaluates the block row-by-row with
the reference evaluator.  At *runtime* a lowered plan defeated by actual
column contents (arithmetic or ``abs``/``round`` over strings,
``lower``/``upper``/``length`` over non-strings, mixed-type ordering or
COALESCE branches, a reachable zero divisor, a computed LIKE operand that
evaluates numerically) raises :class:`VectorFallback`, and the predicate
permanently degrades to the row evaluator for that plan, so
error/short-circuit semantics are decided by row order exactly as the row
engine would.  LIKE lowers for constant patterns (compiled matcher at
plan-compile time; wildcard-free patterns shortcut to string equality)
*and* non-constant patterns / computed left operands (per-plan matcher
cache keyed by runtime pattern value — see :func:`_compile_like_vector`).
"""

from __future__ import annotations

import re
from typing import Any, Callable, Sequence

import numpy as np

from repro.common.errors import BindError, ExecutionError
from repro.sql import ast


class RowLayout:
    """Maps (binding, column) pairs to positions in a row tuple."""

    def __init__(self, slots: Sequence[tuple[str, str]]):
        self.slots: tuple[tuple[str, str], ...] = tuple(
            (b.lower(), c.lower()) for b, c in slots)
        self._by_pair = {pair: i for i, pair in enumerate(self.slots)}
        self._by_name: dict[str, list[int]] = {}
        for i, (_, col) in enumerate(self.slots):
            self._by_name.setdefault(col, []).append(i)

    def __len__(self) -> int:
        return len(self.slots)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RowLayout) and self.slots == other.slots

    def try_resolve(self, column: str,
                    binding: str | None = None) -> int | None:
        """Index of a column reference, or None when the reference does not
        resolve (unknown or ambiguous).  Never raises — safe for hot paths
        and speculative binder probes."""
        column = column.lower()
        if binding is not None:
            return self._by_pair.get((binding.lower(), column))
        hits = self._by_name.get(column)
        if hits is None or len(hits) != 1:
            return None
        return hits[0]

    def resolve(self, column: str, binding: str | None = None) -> int:
        """Index of a column reference, raising on unknown/ambiguous names."""
        idx = self.try_resolve(column, binding)
        if idx is not None:
            return idx
        column = column.lower()
        if binding is not None:
            raise BindError(f"column {binding}.{column} not in scope")
        if len(self._by_name.get(column, [])) > 1:
            raise BindError(f"column reference {column!r} is ambiguous")
        raise BindError(f"column {column!r} not in scope")

    def concat(self, other: "RowLayout") -> "RowLayout":
        return RowLayout(self.slots + other.slots)

    def column_names(self) -> list[str]:
        return [c for _, c in self.slots]


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
        if expr.op == "-":
            def eval_neg(row: tuple) -> Any:
                v = inner(row)
                return None if v is None else -v
            return eval_neg
        raise BindError(f"unknown unary operator {expr.op!r}")

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
            try:
                result = lo <= v <= hi
            except TypeError:
                raise ExecutionError(f"cannot compare {v!r} with "
                                     f"{lo!r} and {hi!r}") from None
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
# layout shape; values pin the AST node so its id() cannot be recycled.

_COMPILE_CACHE_MAX = 4096
_compile_cache: dict[tuple, tuple[ast.Expr, Any]] = {}


def _cached(kind: str, expr: ast.Expr, layout: RowLayout, compile_fn):
    key = (kind, id(expr), layout.slots)
    hit = _compile_cache.get(key)
    if hit is not None and hit[0] is expr:
        return hit[1]
    compiled = compile_fn(expr, layout)
    if len(_compile_cache) >= _COMPILE_CACHE_MAX:
        _compile_cache.clear()
    _compile_cache[key] = (expr, compiled)
    return compiled


def compile_expr_cached(expr: ast.Expr, layout: RowLayout) -> Evaluator:
    """Memoized :func:`compile_expr` for per-operator hot paths."""
    return _cached("row", expr, layout, compile_expr)


_CMP = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

_ARITH = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
}


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

    if op in _CMP:
        cmp = _CMP[op]

        def eval_cmp(row: tuple) -> Any:
            a, b = left(row), right(row)
            if a is None or b is None:
                return None
            try:
                return cmp(a, b)
            except TypeError:
                raise ExecutionError(
                    f"cannot compare {a!r} with {b!r}") from None
        return eval_cmp

    if op in _ARITH:
        fn = _ARITH[op]

        def eval_arith(row: tuple) -> Any:
            a, b = left(row), right(row)
            if a is None or b is None:
                return None
            return fn(a, b)
        return eval_arith

    if op == "/":
        def eval_div(row: tuple) -> Any:
            a, b = left(row), right(row)
            if a is None or b is None:
                return None
            if b == 0:
                raise ExecutionError("division by zero")
            return a / b
        return eval_div

    if op == "%":
        def eval_mod(row: tuple) -> Any:
            a, b = left(row), right(row)
            if a is None or b is None:
                return None
            if b == 0:
                raise ExecutionError("modulo by zero")
            return a % b
        return eval_mod

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
# float64 / bool / object array and ``null`` is a boolean NULL mask (SQL
# three-valued logic rides in the mask, not in the values).  Expressions the
# vectorizer cannot lower — scalar functions, LIKE with a non-constant
# pattern, non-numeric arithmetic — fall back to the row evaluator per
# block, so the batch path is always semantically complete.
#
# Errors defer to the row engine: when eager vector evaluation *would*
# raise (zero divisor, mismatched ordering types), the evaluator raises
# VectorFallback instead, and the row path decides which rows actually
# error — preserving AND/OR short-circuit semantics exactly.


class VectorFallback(Exception):
    """Raised by a vector evaluator when runtime column types defeat the
    vectorized plan (e.g. arithmetic over string columns); the caller
    re-evaluates the block row-wise."""


VectorEvaluator = Callable[[Any], tuple[np.ndarray, np.ndarray]]

# per-literal bound on cached broadcast arrays (keyed by block length);
# past it the cache resets, like the compile and LIKE-matcher caches
_LITERAL_CACHE_MAX = 32

_NP_CMP = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

_ORDERED_CMP = ("<", "<=", ">", ">=")


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


def compile_expr_vector(expr: ast.Expr,
                        layout: RowLayout) -> VectorEvaluator | None:
    """Lower an expression to a block evaluator, or None if unsupported."""
    if isinstance(expr, ast.Literal):
        # literal columns are length-keyed and cached: scan block sizes
        # repeat (one or two distinct lengths per scan), so each literal
        # builds its broadcast arrays once per length instead of once per
        # block.  Bounded (_LITERAL_CACHE_MAX) because join/aggregate
        # outputs produce data-dependent block lengths; evaluators are
        # pinned process-wide by the compile cache, so an unbounded dict
        # would leak one array pair per distinct length seen.  The cached
        # arrays are read-only by the evaluator contract (consumers copy
        # before mutating), and concurrent cache writes under the
        # parallel engine are benign rebuilds.
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

        def eval_column(block):
            numeric = block.numeric(idx)
            if numeric is not None:
                return numeric, block.null_mask(idx)
            return block.column(idx), block.null_mask(idx)
        return eval_column

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
        if expr.op == "-":
            def eval_neg(block):
                values, null = inner(block)
                if values.dtype == object:
                    raise VectorFallback
                return -values.astype(np.float64), null
            return eval_neg
        return None

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
        parts = [compile_expr_vector(e, layout)
                 for e in (expr.operand, expr.low, expr.high)]
        if any(p is None for p in parts):
            return None
        operand, low, high = parts
        negated = expr.negated

        def eval_between(block):
            v, vn = operand(block)
            lo, ln = low(block)
            hi, hn = high(block)
            if (v.dtype == object or lo.dtype == object
                    or hi.dtype == object):
                raise VectorFallback
            null = vn | ln | hn
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

    # LIKE arms of BinaryOp are handled in _compile_binary_vector;
    # Star and anything unknown use the row fallback.
    return None


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

    if op in _NP_CMP:
        cmp = _NP_CMP[op]
        ordered = op in _ORDERED_CMP
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
            objects = av.dtype == object or bv.dtype == object
            if not objects:
                return cmp(av, bv), null
            if not ordered:
                # object equality is None-safe elementwise; garbage at
                # NULL positions is hidden by the mask
                return np.asarray(cmp(av, bv), dtype=bool), null
            # ordering over object columns: only compare non-NULL rows so
            # None never reaches a Python "<"
            out = np.zeros(len(av), dtype=bool)
            valid = ~null
            try:
                out[valid] = cmp(av[valid], bv[valid])
            except TypeError:
                # mismatched types somewhere in the column: let the row
                # evaluator decide which rows actually error (an AND
                # short-circuit may never reach them)
                raise VectorFallback from None
            return out, null
        return eval_cmp

    if op in _ARITH:
        fn = {"+": np.add, "-": np.subtract, "*": np.multiply}[op]

        def eval_arith(block):
            av, an = left(block)
            bv, bn = right(block)
            if av.dtype == object or bv.dtype == object:
                raise VectorFallback
            return fn(av.astype(np.float64), bv.astype(np.float64)), an | bn
        return eval_arith

    if op in ("/", "%"):
        modulo = op == "%"

        def eval_div(block):
            av, an = left(block)
            bv, bn = right(block)
            if av.dtype == object or bv.dtype == object:
                raise VectorFallback
            null = an | bn
            bv = bv.astype(np.float64)
            zero = (bv == 0.0) & ~null
            if zero.any():
                # a zero divisor exists, but short-circuit row semantics
                # decide whether it is ever evaluated — degrade to the row
                # path, which raises exactly when a row reaches it
                raise VectorFallback
            safe = np.where(bv == 0.0, 1.0, bv)  # NULL slots hold 0.0
            av = av.astype(np.float64)
            out = np.mod(av, safe) if modulo else av / safe
            return out, null
        return eval_div

    return None  # anything else: row fallback


# scalar functions the vectorizer lowers: numeric ones map to one numpy
# ufunc over the float64 view; string ones run a single fromiter pass over
# the raw object column (no row tuples, no whole-block fallback).  Each
# matches the row evaluator exactly where it applies and raises
# VectorFallback where runtime values could diverge (non-string input to a
# string function, object-dtype numerics), so error and result semantics
# stay row-decided.  round is vectorized only in its 1-argument form:
# numpy's 2-argument decimal rounding scales/unscales through float64 and
# can disagree with Python's exact round-half-even on ties.
_NUMERIC_FUNC_VECTOR = {
    "abs": np.abs,
    "round": np.rint,
    "floor": np.floor,
    "ceil": np.ceil,
}


def _compile_func_vector(expr: ast.FuncCall,
                         layout: RowLayout) -> VectorEvaluator | None:
    """Lower a scalar function call, or None for the row fallback."""
    name = expr.name.lower()
    if name in ast.AGGREGATE_FUNCTIONS:
        return None  # let the row compiler raise its BindError

    if name == "coalesce":
        args = [compile_expr_vector(a, layout) for a in expr.args]
        if not args or any(a is None for a in args):
            return None

        def eval_coalesce(block):
            values, null = args[0](block)
            values = values.copy()
            for arg in args[1:]:
                if not null.any():
                    break
                fill_values, fill_null = arg(block)
                if (values.dtype == object) != (fill_values.dtype == object):
                    # mixing a numeric view with raw objects could change
                    # comparison semantics downstream: row path decides
                    raise VectorFallback
                if values.dtype != object and \
                        fill_values.dtype != values.dtype:
                    fill_values = fill_values.astype(values.dtype)
                values[null] = fill_values[null]
                null = null & fill_null
            return values, null
        return eval_coalesce

    if name in _NUMERIC_FUNC_VECTOR:
        if len(expr.args) != 1:
            return None  # wrong arity (or round's 2-arg form): row path
        inner = compile_expr_vector(expr.args[0], layout)
        if inner is None:
            return None
        fn = _NUMERIC_FUNC_VECTOR[name]

        def eval_numeric_func(block):
            values, null = inner(block)
            if values.dtype == object:
                raise VectorFallback
            return fn(values.astype(np.float64)), null
        return eval_numeric_func

    if name in ("lower", "upper", "length"):
        if len(expr.args) != 1:
            return None
        inner = compile_expr_vector(expr.args[0], layout)
        if inner is None:
            return None

        def eval_string_func(block):
            values, null = inner(block)
            if values.dtype != object:
                # a numeric view means no strings anywhere: the row
                # evaluator raises on every non-NULL row; let it
                raise VectorFallback
            n = len(values)
            out = np.empty(n, dtype=object) if name != "length" else \
                np.zeros(n, dtype=np.float64)
            for i, v in enumerate(values):
                if null[i]:
                    continue
                if not isinstance(v, str):
                    raise VectorFallback
                if name == "lower":
                    out[i] = v.lower()
                elif name == "upper":
                    out[i] = v.upper()
                else:
                    out[i] = float(len(v))
            return out, null
        return eval_string_func

    return None  # unknown function: the row compiler raises BindError


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

    Column references read the object column directly.  Anything else
    compiles through the vectorizer and is accepted only if it evaluates
    to an object array at runtime (string functions, COALESCE in object
    mode, string literals); a numeric result raises
    :class:`VectorFallback` so the row path decides, keeping ``str()``
    semantics row-identical.
    """
    if isinstance(expr, ast.ColumnRef):
        idx = layout.resolve(expr.name, expr.table)

        def eval_raw_column(block):
            return block.column(idx), block.null_mask(idx)
        return eval_raw_column
    inner = compile_expr_vector(expr, layout)
    if inner is None:
        return None

    def eval_raw(block):
        values, null = inner(block)
        if values.dtype != object:
            raise VectorFallback  # numeric view: str() may disagree
        return values, null
    return eval_raw


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

    Non-constant patterns (``a.name LIKE b.pattern``) and computed left
    operands (``lower(name) LIKE 'u%'``) lower too: operands compile via
    :func:`_compile_raw_vector` (raw values only), and each *distinct
    runtime pattern value* compiles its matcher once into a per-plan
    cache keyed by the pattern string — the row path re-escapes and
    re-compiles the regex for every row.  The cache is shared compiled
    state under the parallel engine: reads and inserts are benign under
    the GIL (worst case a matcher is compiled twice), the same sanctioned
    exception class as the predicate wrapper's fallback latch.
    """
    left = _compile_raw_vector(expr.left, layout)
    if left is None:
        return None
    if isinstance(expr.right, ast.Literal):
        pattern = expr.right.value
        if pattern is None:
            # x LIKE NULL is NULL for every row
            def eval_like_null(block):
                n = len(block)
                return np.zeros(n, dtype=bool), np.ones(n, dtype=bool)
            return eval_like_null
        match = _like_matcher(str(pattern))
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
    """Compile a WHERE/ON predicate for the batch engine.

    Returns ``block -> bool mask`` of rows that pass (NULL = fail).  Uses
    the vectorized path when possible and transparently degrades to
    row-at-a-time evaluation inside the block otherwise — including when a
    vector plan is defeated at runtime by unexpected column types.

    Thread-safety note for the parallel engine: the runtime degrade is a
    one-way latch on shared state (``state["vector"] = None``).  The write
    is idempotent and order-independent — concurrent workers at worst both
    evaluate their block row-wise before the latch sticks — so it is the
    single sanctioned exception to the "compiled state is read-only"
    contract in ``repro/exec/operators.py``.
    """
    return _cached("pred", expr, layout, _compile_predicate_batch)


def _compile_predicate_batch(expr: ast.Expr, layout: RowLayout):
    vector = compile_expr_vector(expr, layout)
    row_eval = compile_expr(expr, layout)
    state = {"vector": vector}

    def eval_block(block) -> np.ndarray:
        vec = state["vector"]
        if vec is not None:
            try:
                values, null = vec(block)
                return _truthy(values, null)
            except VectorFallback:
                state["vector"] = None  # this plan's types won't change
        return np.fromiter((to_bool(row_eval(row))
                            for row in block.iter_rows()),
                           dtype=bool, count=len(block))
    return eval_block
