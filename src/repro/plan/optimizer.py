"""The classical cost-based query planner.

Responsibilities:

1. bind a parsed ``Select`` against the catalog (:meth:`Planner.bind`);
2. normalize the WHERE clause to conjuncts and classify each as a
   single-table filter or an equi-join condition — steps 1 and 2 depend
   on the statement's template alone (its literals are Params), so every
   statement of a bound template reuses the one :class:`BoundQuery` and
   only the steps below run again, reading the statement's values where
   they decide something: index keys, selectivity, LIMIT / OFFSET;
3. choose access paths (index scan vs sequential scan with pushdown);
4. enumerate join orders with dynamic programming over left-deep trees,
   choosing hash join for equi-joins and nested loops otherwise;
5. attach aggregation / distinct / sort / limit / projection.

It also exposes :meth:`candidate_plans`, which returns *many* costed plan
alternatives for one query — this is the candidate set the learned query
optimizer (paper Fig. 5) scores, and what the Bao baseline's hint sets
restrict.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Optional

from repro.common.errors import BindError, PlanError
from repro.exec.expr import (NO_COLUMNS, RowLayout, expr_type, memo,
                             output_layout, output_slot)
from repro.plan import logical as plan
from repro.plan.cardinality import (CardinalityEstimator, column_literal,
                                    is_equi_join_condition)
from repro.plan.cost import PlanCoster
from repro.sql import ast
from repro.storage.catalog import Catalog
from repro.storage.types import DataType


@dataclass
class BoundQuery:
    """A Select after binding: tables in scope, classified conjuncts, and
    the GROUP BY / ORDER BY keys with select-list positions resolved.

    It depends on the statement's template alone, unless a GROUP BY /
    ORDER BY key was bound by the statement's values — a position, or an
    ORDER BY expression holding a Param, which is matched to a select
    item by its values (``positional``): every other statement of the
    template may reuse it as it is."""

    select: ast.Select
    bindings: dict[str, str]           # alias -> table name
    table_order: list[str]             # aliases in FROM order
    filters: dict[str, list[ast.Expr]]  # alias -> pushable predicates
    join_conditions: list[tuple[ast.ColumnRef, ast.ColumnRef, ast.Expr]]
    residuals: list[ast.Expr]          # conjuncts spanning 3+ tables etc.
    group_by: tuple[ast.Expr, ...]
    order_by: tuple[ast.OrderItem, ...]
    positional: bool
    # the projection's items: the select list, then a hidden column per
    # ORDER BY key that names no output, which the projection ``shown``
    # over the sort drops (empty when there is none)
    items: tuple[ast.SelectItem, ...]
    shown: tuple[ast.SelectItem, ...]


def split_conjuncts(expr: Optional[ast.Expr]) -> list[ast.Expr]:
    """Flatten a boolean expression into AND-ed conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, ast.BinaryOp) and expr.op == "AND":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def _conjuncts(select: ast.Select) -> list[ast.Expr]:
    """The WHERE clause's conjuncts, then every ON clause's."""
    conjuncts = split_conjuncts(select.where)
    for join in select.joins:
        conjuncts += split_conjuncts(join.condition)
    return conjuncts


def conjoin(exprs: list[ast.Expr]) -> Optional[ast.Expr]:
    """Rebuild an AND tree from conjuncts (None for an empty list).  The
    tree is built once per list of nodes and kept in the compile cache
    (it holds every node whose id is in the key), so every statement of
    a template plans the same tree, and its compiled predicate is reused."""
    if len(exprs) < 2:
        return exprs[0] if exprs else None
    return memo(("and", *map(id, exprs)), exprs[0], lambda: functools.reduce(
        lambda out, e: ast.BinaryOp("AND", out, e), exprs))


class Planner:
    """Cost-based planner over a catalog."""

    # join enumeration switches to greedy beyond this many tables
    DP_TABLE_LIMIT = 10

    def __init__(self, catalog: Catalog):
        self._catalog = catalog
        self._estimator = CardinalityEstimator(catalog)

    # -- public API --------------------------------------------------------

    def plan_select(self, select: ast.Select) -> plan.PlanNode:
        """The single best plan for a SELECT."""
        return self.plan_bound(self.bind(select))

    def plan_bound(self, bound: BoundQuery) -> plan.PlanNode:
        """The single best plan for a bound SELECT: the steps that read its
        literal values — access paths, join order, the upper plan."""
        return self._finalize(bound, self._enumerate_join_trees(bound, 1)[0])

    def candidate_plans(self, select: ast.Select,
                        max_candidates: int = 16) -> list[plan.PlanNode]:
        """Multiple complete, costed plan alternatives for one query.

        Candidates vary join order (all permutations for small queries) and
        join operator choice; each is finalized with the same upper plan so
        the learned optimizer compares apples to apples.
        """
        bound = self.bind(select)
        unique: dict[str, plan.PlanNode] = {}
        for tree in self._enumerate_join_trees(bound, max_candidates):
            candidate = self._finalize(bound, tree)
            unique.setdefault(plan.plan_signature(candidate), candidate)
        return list(unique.values())[:max_candidates]

    # -- binding ---------------------------------------------------------------

    def bind(self, select: ast.Select) -> BoundQuery:
        """Bind ``select`` against the catalog: resolve its tables, check
        every column and type, classify its conjuncts and resolve its
        GROUP BY / ORDER BY keys."""
        bindings: dict[str, str] = {}
        table_order: list[str] = []

        def add_table(ref: ast.TableRef) -> None:
            if not self._catalog.has_table(ref.name):
                raise PlanError(f"table {ref.name!r} does not exist")
            alias = ref.binding.lower()
            if alias in bindings:
                raise PlanError(f"duplicate table alias {alias!r}")
            bindings[alias] = ref.name.lower()
            table_order.append(alias)

        if select.from_table is not None:
            add_table(select.from_table)
        for join in select.joins:
            add_table(join.table)

        conjuncts = _conjuncts(select)
        filters: dict[str, list[ast.Expr]] = {a: [] for a in table_order}
        join_conditions = []
        residuals: list[ast.Expr] = []
        for conjunct in conjuncts:
            aliases = self._aliases_of(conjunct, bindings, table_order)
            keys = is_equi_join_condition(conjunct)
            if len(aliases) == 2 and keys:
                join_conditions.append((*keys, conjunct))
            elif len(aliases) == 1:
                filters[next(iter(aliases))].append(conjunct)
            else:
                residuals.append(conjunct)  # a constant, or 3+ tables
        scope, output = self._check_types(select, bindings, table_order,
                                          conjuncts)
        # an integer literal in GROUP BY / ORDER BY names a select-list
        # position: group on that item's expression, sort on its output
        outputs = (self._outputs(select, bindings, table_order)
                   if select.group_by or select.order_by else [])
        group_by = tuple(self._positional(expr, outputs, "GROUP BY", 0)
                         for expr in select.group_by)
        if any(ast.is_aggregate(expr) for expr in group_by):
            raise BindError("GROUP BY cannot name an aggregate")
        order_by = tuple(
            ast.OrderItem(self._order_key(key.expr, outputs), key.descending)
            for key in select.order_by)
        # a binding that read the values holds for this statement only:
        # a position, or an ORDER BY key holding a Param (matched to a
        # select item by its values, the next values may match another)
        values = ast.running.values
        positional = (any(map(_is_position, select.group_by))
                      or any(new.expr is not old.expr
                             or ast.substitute(old.expr, values)
                             is not old.expr
                             for new, old in zip(order_by, select.order_by)))
        # ORDER BY sorts the select list's output rows; a key that names
        # none of them sorts on a hidden column the projection computes
        # from the FROM tables, dropped after the sort
        items, shown, keys = select.items, (), []
        for key in order_by:
            try:
                expr_type(key.expr, output)
            except BindError:
                if not _sorts_hidden(select, group_by, key.expr, scope):
                    raise
                hidden = ast.SelectItem(key.expr)
                binding, name = output_slot(hidden, len(items))
                items += (hidden,)
                key = ast.OrderItem(ast.ColumnRef(name, binding),
                                    key.descending)
                shown = tuple(ast.SelectItem(ast.ColumnRef(column, alias))
                              for alias, column in output.slots)
            keys.append(key)
        return BoundQuery(select=select, bindings=bindings,
                          table_order=table_order, filters=filters,
                          join_conditions=join_conditions,
                          residuals=residuals, group_by=group_by,
                          order_by=tuple(keys), positional=positional,
                          items=items, shown=shown)

    def _check_types(self, select: ast.Select, bindings: dict[str, str],
                     table_order: list[str],
                     conjuncts: list[ast.Expr]
                     ) -> tuple[RowLayout, RowLayout]:
        """Type the statement's expressions over the rows they will be
        evaluated on (:func:`~repro.exec.expr.expr_type`): the WHERE and
        ON conjuncts, GROUP BY and the select list over the FROM tables.
        An ill-typed one is a BindError here, before any operator is
        built or any row read.  Returns the FROM tables' layout and the
        select list's output layout, which :meth:`bind` types the ORDER
        BY keys over."""
        scope = NO_COLUMNS
        for alias in table_order:
            scope = scope.concat(RowLayout.of_table(
                alias, self._catalog.table(bindings[alias]).schema))
        for expr in itertools.chain(conjuncts, select.group_by):
            expr_type(expr, scope)
        return scope, output_layout(select.items, scope)

    def _aliases_of(self, expr: ast.Expr, bindings: dict[str, str],
                    table_order: list[str]) -> set[str]:
        """Aliases whose columns the expression references."""
        out: set[str] = set()
        for ref in ast.referenced_columns(expr):
            if ref.table is not None:
                if ref.table.lower() not in bindings:
                    raise PlanError(f"unknown table alias {ref.table!r}")
                out.add(ref.table.lower())
            else:
                hits = [a for a in table_order
                        if self._catalog.table(bindings[a])
                               .schema.has_column(ref.name)]
                if not hits:
                    raise PlanError(f"column {ref.name!r} not found")
                if len(hits) > 1:
                    raise PlanError(f"column {ref.name!r} is ambiguous")
                out.add(hits[0])
        return out

    # -- access paths -------------------------------------------------------------

    def access_path(self, table: str,
                    where: Optional[ast.Expr]) -> plan.PlanNode:
        """The scan UPDATE / DELETE read their victims through: the
        WHERE bound by :meth:`bind_victims`, then :meth:`victim_path`."""
        return self.victim_path(self.bind_victims(table, where), where)

    def bind_victims(self, table: str, where: Optional[ast.Expr]) -> str:
        """Bind an UPDATE / DELETE's WHERE against its one table (unknown
        columns fail as they do for SELECT, an ill-typed conjunct is a
        BindError); returns the table's name (CatalogError if missing)."""
        heap = self._catalog.table(table)
        name = heap.name
        for predicate in split_conjuncts(where):
            self._aliases_of(predicate, {name: name}, [name])
        if where is not None:
            expr_type(where, RowLayout.of_table(name, heap.schema))
        return name

    def victim_path(self, table: str,
                    where: Optional[ast.Expr]) -> plan.PlanNode:
        """SELECT's own choice between ``table``'s indexes and a filtered
        SeqScan, for a WHERE :meth:`bind_victims` bound."""
        return self._access_path({table: table}, table,
                                 split_conjuncts(where))

    def _access_path(self, bindings: dict[str, str], alias: str,
                     predicates: list[ast.Expr]) -> plan.PlanNode:
        """Best single-table access: index scan if profitable, else seqscan."""
        table = bindings[alias]
        coster = PlanCoster(self._estimator, bindings)
        seq = coster.annotate(plan.SeqScan(table=table, binding=alias,
                                           predicate=conjoin(predicates)))
        index_plan = self._try_index_scan(table, alias, predicates, coster)
        if index_plan is not None and index_plan.est_cost < seq.est_cost:
            return index_plan
        return seq

    def _try_index_scan(self, table: str, alias: str,
                        predicates: list[ast.Expr],
                        coster: PlanCoster) -> plan.IndexScan | None:
        """The cheapest scan any index on ``table`` offers: per index,
        every conjunct on its column folded into one key range
        (:func:`_fold_bounds`), the conjuncts the fold did not use kept
        as the residual.  None when no conjunct bounds an indexed column."""
        schema = self._catalog.table(table).schema
        best = None
        for entry in self._catalog.indexes_on(table):
            keys, used = _fold_bounds(
                predicates, entry.column, schema.column(entry.column).dtype,
                ranges=entry.kind == "btree")
            if not keys:
                continue
            candidate = coster.annotate(plan.IndexScan(
                table=table, binding=alias, index_name=entry.name,
                column=entry.column, **keys,
                residual=conjoin([p for i, p in enumerate(predicates)
                                  if i not in used])))
            if best is None or candidate.est_cost < best.est_cost:
                best = candidate
        return best

    # -- join enumeration ------------------------------------------------------------

    def _enumerate_join_trees(self, bound: BoundQuery,
                              max_trees: int) -> list[plan.PlanNode]:
        """The ``max_trees`` cheapest join trees over ``bound``'s tables
        (a SELECT without FROM reads one empty row: ``SELECT 1 + 1``)."""
        aliases = bound.table_order
        coster = self._coster(bound)
        if not aliases:
            return [coster.annotate(plan.EmptyRow())]
        access = {a: self._access_path(bound.bindings, a, bound.filters[a])
                  for a in aliases}
        if len(aliases) == 1:
            return [access[aliases[0]]]
        trees = [self._build_left_deep(order, access, bound, use_hash, coster)
                 for order in self._join_orders(aliases, bound)
                 for use_hash in (True, False)]
        trees.sort(key=lambda tree: tree.est_cost)
        return trees[:max_trees]

    def _join_orders(self, aliases: list[str],
                     bound: BoundQuery) -> list[tuple[str, ...]]:
        if len(aliases) <= 6:
            return list(itertools.permutations(aliases))
        # greedy seeding for big queries: start from each alias, grow by
        # smallest estimated intermediate
        orders = []
        for start in aliases[: self.DP_TABLE_LIMIT]:
            remaining = [a for a in aliases if a != start]
            order = [start]
            while remaining:
                remaining.sort(key=lambda a: self._estimator.table_rows(
                    bound.bindings[a]))
                # prefer a connected table if any
                connected = [a for a in remaining
                             if self._connects(order, a, bound)]
                nxt = connected[0] if connected else remaining[0]
                order.append(nxt)
                remaining.remove(nxt)
            orders.append(tuple(order))
        return orders

    def _connects(self, order: list[str], alias: str,
                  bound: BoundQuery) -> bool:
        placed = set(order)
        for left, right, _ in bound.join_conditions:
            sides = {self._alias_of_ref(left, bound),
                     self._alias_of_ref(right, bound)}
            if alias in sides and (sides - {alias}) & placed:
                return True
        return False

    def _build_left_deep(self, order: tuple[str, ...],
                         access: dict[str, plan.PlanNode],
                         bound: BoundQuery, use_hash: bool,
                         coster: PlanCoster) -> plan.PlanNode:
        """One left-deep tree over the (costed) access paths, which every
        candidate tree shares; only the joins and the filter it adds are
        new nodes, costed here."""
        tree = access[order[0]]
        placed = {order[0]}
        pending = list(bound.join_conditions)

        for alias in order[1:]:
            right = access[alias]
            usable = []
            for cond in pending:
                left_ref, right_ref, raw = cond
                la = self._alias_of_ref(left_ref, bound)
                ra = self._alias_of_ref(right_ref, bound)
                if {la, ra} <= placed | {alias} and alias in {la, ra}:
                    usable.append(cond)
            if usable:
                left_ref, right_ref, raw = usable[0]
                extra = [c[2] for c in usable[1:]]
                # orient keys: left key must come from the placed side
                if self._alias_of_ref(left_ref, bound) == alias:
                    left_ref, right_ref = right_ref, left_ref
                if use_hash:
                    node: plan.PlanNode = plan.HashJoin(
                        left=tree, right=right,
                        left_key=left_ref, right_key=right_ref,
                        residual=conjoin(extra))
                else:
                    node = plan.NestedLoopJoin(left=tree, right=right,
                                               condition=conjoin(
                                                   [raw] + extra))
                for cond in usable:
                    pending.remove(cond)
                tree = coster.annotate(node)
            else:
                tree = coster.annotate(plan.NestedLoopJoin(
                    left=tree, right=right, condition=None))
            placed.add(alias)

        if pending:
            # leftover join predicates become filters on top
            tree = coster.annotate(plan.Filter(
                child=tree, predicate=conjoin([c[2] for c in pending])))
        return tree

    def _alias_of_ref(self, ref: ast.ColumnRef, bound: BoundQuery) -> str:
        if ref.table is not None:
            return ref.table.lower()
        for alias in bound.table_order:
            schema = self._catalog.table(bound.bindings[alias]).schema
            if schema.has_column(ref.name):
                return alias
        raise PlanError(f"cannot resolve column {ref.name!r}")

    # -- upper plan ---------------------------------------------------------------

    def _finalize(self, bound: BoundQuery,
                  tree: plan.PlanNode) -> plan.PlanNode:
        select = bound.select
        cost = self._coster(bound).annotate
        if bound.residuals:
            tree = cost(plan.Filter(child=tree,
                                    predicate=conjoin(bound.residuals)))

        has_aggregates = any(ast.is_aggregate(item.expr)
                             for item in select.items)
        if bound.group_by or has_aggregates:
            tree = cost(plan.Aggregate(child=tree, group_by=bound.group_by,
                                       items=select.items))
        else:
            tree = cost(plan.Project(child=tree, items=bound.items))

        if select.distinct:
            tree = cost(plan.Distinct(child=tree))
        if bound.order_by:
            tree = cost(plan.Sort(child=tree, keys=bound.order_by))
        if select.limit is not None or select.offset is not None:
            tree = cost(plan.Limit(child=tree, limit=_count(select.limit),
                                   offset=_count(select.offset) or 0))
        if bound.shown:
            tree = cost(plan.Project(child=tree, items=bound.shown))
        return tree

    def _outputs(self, select: ast.Select, bindings: dict[str, str],
                 table_order: list[str]
                 ) -> list[tuple[ast.Expr, ast.ColumnRef]]:
        """Per output column of the select list (``*`` expanded): the
        expression it computes, and a reference to its output slot."""
        out: list[tuple[ast.Expr, ast.ColumnRef]] = []
        for position, item in enumerate(select.items):
            if not isinstance(item.expr, ast.Star):
                binding, name = output_slot(item, position)
                out.append((item.expr, ast.ColumnRef(name, binding)))
                continue
            for alias in table_order:
                if (item.expr.table or alias).lower() == alias:
                    schema = self._catalog.table(bindings[alias]).schema
                    refs = [ast.ColumnRef(name, alias)
                            for name in schema.column_names()]
                    out += zip(refs, refs)
        return out

    @staticmethod
    def _positional(expr: ast.Expr, outputs: list, clause: str,
                    pick: int) -> ast.Expr:
        if not _is_position(expr):
            return expr
        if not 1 <= expr.value <= len(outputs):
            raise BindError(f"{clause} position {expr.value} is not in the "
                            f"select list (1..{len(outputs)})")
        return outputs[expr.value - 1][pick]

    @classmethod
    def _order_key(cls, expr: ast.Expr, outputs: list) -> ast.Expr:
        """An ORDER BY key bound to the output it sorts: a position, or
        an expression written as a select item (``ORDER BY count(*)``),
        is that item's output slot; anything else is left to name
        output columns itself."""
        if _is_position(expr):
            return cls._positional(expr, outputs, "ORDER BY", 1)
        if not isinstance(expr, ast.ColumnRef):
            # spelled with the statement's values: Literal(1) differs
            # from Literal(1.0), and the two Params of `a + 1 ... ORDER
            # BY a + 1` from each other
            values = ast.running.values
            text = repr(ast.substitute(expr, values))
            for computed, ref in outputs:
                if repr(ast.substitute(computed, values)) == text:
                    return ref
        return expr

    def _coster(self, bound: BoundQuery) -> PlanCoster:
        return PlanCoster(self._estimator, bound.bindings)


def _is_position(expr: ast.Expr) -> bool:
    """Whether a GROUP BY / ORDER BY key names a select-list position."""
    return isinstance(expr, ast.CONSTANTS) and type(expr.value) is int


def _sorts_hidden(select: ast.Select, group_by: tuple[ast.Expr, ...],
                  key: ast.Expr, scope: RowLayout) -> bool:
    """Whether an ORDER BY ``key`` that names no output column may sort
    on a hidden one: it is well typed over the FROM tables, and the rows
    are neither DISTINCT (as in PostgreSQL) nor aggregated."""
    if (select.distinct or group_by
            or any(ast.is_aggregate(item.expr) for item in select.items)):
        return False
    try:
        expr_type(key, scope)
    except BindError:
        return False
    return True


def _count(count: "ast.Param | int | None") -> int | None:
    """A LIMIT / OFFSET count: the int a parsed tree holds, or the value
    of the template's Param."""
    return count.value if type(count) is ast.Param else count


def _comparable(literal, dtype: DataType) -> bool:
    """Whether an index over a ``dtype`` column can order ``literal``
    among its keys: numbers with INT / FLOAT, text with TEXT, booleans
    with BOOL.  Anything else (``id = 'abc'``) is left to the SeqScan,
    whose evaluator finds no match; an ordering across TEXT and numbers
    (``id < 'abc'``) never gets here, it is ill-typed."""
    if isinstance(literal, bool):
        return dtype is DataType.BOOL
    if isinstance(literal, (int, float)):
        return dtype in (DataType.INT, DataType.FLOAT)
    return isinstance(literal, str) and dtype is DataType.TEXT


_BOUND_OPS = ("=", "<", "<=", ">", ">=")


def _fold_bounds(predicates: list[ast.Expr], column: str, dtype: DataType,
                 ranges: bool) -> tuple[dict, set[int]]:
    """All conjuncts that bound ``column`` by literals its index can
    order, folded into ``IndexScan`` key arguments: an equality wins
    outright, otherwise the tightest lower and the tightest upper bound
    (``>`` beats ``>=`` at equal keys; ``ranges`` is False for a hash
    index, which has no order).  A non-negated ``BETWEEN`` is two
    inclusive bounds.  Returns the arguments and the positions of the
    conjuncts they replace; everything else stays in the residual."""
    eq, lows, highs, folded = None, [], [], set()
    for i, predicate in enumerate(predicates):
        if isinstance(predicate, ast.Between) and not predicate.negated:
            parts = [ast.BinaryOp(">=", predicate.operand, predicate.low),
                     ast.BinaryOp("<=", predicate.operand, predicate.high)]
        else:
            parts = [predicate]
        bounds = [column_literal(part) for part in parts]
        if any(ref is None or op not in _BOUND_OPS
               or ref.name.lower() != column
               or not _comparable(literal, dtype)
               for ref, op, literal in bounds):
            continue
        if bounds[0][1] == "=":
            eq = eq or (i, bounds[0][2])
        elif ranges:
            folded.add(i)
            for _, op, literal in bounds:
                if op in (">", ">="):
                    lows.append((literal, op == ">"))
                else:
                    highs.append((literal, op == "<="))
    if eq:
        return {"eq": eq[1]}, {eq[0]}
    keys = {}
    if lows:
        keys["low"], strict = max(lows)
        keys["include_low"] = not strict
    if highs:
        keys["high"], keys["include_high"] = min(highs)
    return keys, folded
