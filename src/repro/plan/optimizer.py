"""The classical cost-based query planner.

Responsibilities:

1. bind a parsed ``Select`` against the catalog;
2. normalize the WHERE clause to conjuncts and classify each as a
   single-table filter or an equi-join condition;
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

import itertools
from dataclasses import dataclass
from typing import Optional

from repro.common.errors import BindError, PlanError
from repro.exec.expr import (NO_COLUMNS, RowLayout, expr_type,
                             output_layout)
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
    the GROUP BY / ORDER BY keys with select-list positions resolved."""

    select: ast.Select
    bindings: dict[str, str]           # alias -> table name
    table_order: list[str]             # aliases in FROM order
    filters: dict[str, list[ast.Expr]]  # alias -> pushable predicates
    join_conditions: list[tuple[ast.ColumnRef, ast.ColumnRef, ast.Expr]]
    residuals: list[ast.Expr]          # conjuncts spanning 3+ tables etc.
    group_by: tuple[ast.Expr, ...]
    order_by: tuple[ast.OrderItem, ...]


def split_conjuncts(expr: Optional[ast.Expr]) -> list[ast.Expr]:
    """Flatten a boolean expression into AND-ed conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, ast.BinaryOp) and expr.op == "AND":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def conjoin(exprs: list[ast.Expr]) -> Optional[ast.Expr]:
    """Rebuild an AND tree from conjuncts (None for an empty list)."""
    if not exprs:
        return None
    out = exprs[0]
    for e in exprs[1:]:
        out = ast.BinaryOp("AND", out, e)
    return out


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
        bound = self.bind(select)
        if not bound.table_order:
            return self._plan_tableless(select)
        best = self._best_join_tree(bound)
        return self._finalize(bound, best)

    def candidate_plans(self, select: ast.Select,
                        max_candidates: int = 16) -> list[plan.PlanNode]:
        """Multiple complete, costed plan alternatives for one query.

        Candidates vary join order (all permutations for small queries) and
        join operator choice; each is finalized with the same upper plan so
        the learned optimizer compares apples to apples.
        """
        bound = self.bind(select)
        if not bound.table_order:
            return [self._plan_tableless(select)]
        trees = self._enumerate_join_trees(bound, max_candidates)
        finalized = [self._finalize(bound, t) for t in trees]
        seen: set[str] = set()
        unique: list[plan.PlanNode] = []
        for candidate in finalized:
            sig = plan.plan_signature(candidate)
            if sig not in seen:
                seen.add(sig)
                unique.append(candidate)
        return unique[:max_candidates]

    # -- binding ---------------------------------------------------------------

    def bind(self, select: ast.Select) -> BoundQuery:
        bindings: dict[str, str] = {}
        table_order: list[str] = []
        join_on_conjuncts: list[ast.Expr] = []

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
            if join.condition is not None:
                join_on_conjuncts.extend(split_conjuncts(join.condition))

        conjuncts = split_conjuncts(select.where) + join_on_conjuncts
        filters: dict[str, list[ast.Expr]] = {a: [] for a in table_order}
        join_conditions = []
        residuals: list[ast.Expr] = []

        for conjunct in conjuncts:
            aliases = self._aliases_of(conjunct, bindings, table_order)
            pair = is_equi_join_condition(conjunct)
            if pair is not None and len(aliases) == 2:
                left, right = pair
                join_conditions.append((left, right, conjunct))
            elif len(aliases) == 1:
                filters[next(iter(aliases))].append(conjunct)
            elif len(aliases) == 0:
                residuals.append(conjunct)  # constant predicate
            else:
                residuals.append(conjunct)

        self._check_types(select, bindings, table_order, conjuncts)
        # an integer literal in GROUP BY / ORDER BY names a select-list
        # position: group on that item's expression, sort on its output
        outputs = (self._outputs(select, bindings, table_order)
                   if select.group_by or select.order_by else [])
        group_by = tuple(self._positional(expr, outputs, "GROUP BY", 0)
                         for expr in select.group_by)
        if any(ast.is_aggregate(expr) for expr in group_by):
            raise BindError("GROUP BY cannot name an aggregate")
        order_by = tuple(
            ast.OrderItem(self._positional(key.expr, outputs, "ORDER BY", 1),
                          key.descending) for key in select.order_by)
        return BoundQuery(select=select, bindings=bindings,
                          table_order=table_order, filters=filters,
                          join_conditions=join_conditions,
                          residuals=residuals, group_by=group_by,
                          order_by=order_by)

    def _check_types(self, select: ast.Select, bindings: dict[str, str],
                     table_order: list[str],
                     conjuncts: list[ast.Expr]) -> None:
        """Type every expression of the statement over the rows it will
        be evaluated on (:func:`~repro.exec.expr.expr_type`): the WHERE
        and ON conjuncts, GROUP BY and the select list over the FROM
        tables, ORDER BY over the select list.  An ill-typed one is a
        BindError here, before any operator is built or any row read."""
        scope = NO_COLUMNS
        for alias in table_order:
            scope = scope.concat(RowLayout.of_table(
                alias, self._catalog.table(bindings[alias]).schema))
        for expr in itertools.chain(conjuncts, select.group_by):
            expr_type(expr, scope)
        output = output_layout(select.items, scope)
        for key in select.order_by:
            expr_type(key.expr, output)

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
        WHERE's conjuncts bound against the one table (unknown columns
        fail as they do for SELECT), then SELECT's own choice between
        the table's indexes and a filtered SeqScan."""
        heap = self._catalog.table(table)           # CatalogError if missing
        table = heap.name
        bindings = {table: table}
        predicates = split_conjuncts(where)
        for predicate in predicates:
            self._aliases_of(predicate, bindings, [table])
        if where is not None:
            expr_type(where, RowLayout.of_table(table, heap.schema))
        return self._access_path(bindings, table, predicates)

    def _access_path(self, bindings: dict[str, str], alias: str,
                     predicates: list[ast.Expr]) -> plan.PlanNode:
        """Best single-table access: index scan if profitable, else seqscan."""
        table = bindings[alias]
        coster = PlanCoster(self._estimator, bindings)
        seq = plan.SeqScan(table=table, binding=alias,
                           predicate=conjoin(predicates))
        coster.annotate(seq)
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
            candidate = plan.IndexScan(
                table=table, binding=alias, index_name=entry.name,
                column=entry.column, **keys,
                residual=conjoin([p for i, p in enumerate(predicates)
                                  if i not in used]))
            coster.annotate(candidate)
            if best is None or candidate.est_cost < best.est_cost:
                best = candidate
        return best

    # -- join enumeration ------------------------------------------------------------

    def _best_join_tree(self, bound: BoundQuery) -> plan.PlanNode:
        trees = self._enumerate_join_trees(bound, max_trees=1)
        return trees[0]

    def _enumerate_join_trees(self, bound: BoundQuery,
                              max_trees: int) -> list[plan.PlanNode]:
        aliases = bound.table_order
        coster = self._coster(bound)
        access = {a: self._access_path(bound.bindings, a, bound.filters[a])
                  for a in aliases}

        if len(aliases) == 1:
            only = access[aliases[0]]
            coster.annotate(only)
            return [only]

        orders = self._join_orders(aliases, bound)
        scored: list[tuple[float, plan.PlanNode]] = []
        for order in orders:
            for use_hash in (True, False):
                tree = self._build_left_deep(order, access, bound, use_hash)
                if tree is None:
                    continue
                coster.annotate(tree)
                scored.append((tree.est_cost, tree))
        if not scored:
            raise PlanError("no join tree could be constructed")
        scored.sort(key=lambda pair: pair[0])
        if max_trees == 1:
            return [scored[0][1]]
        return [tree for _, tree in scored[: max(max_trees, 1)]]

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
                         bound: BoundQuery,
                         use_hash: bool) -> plan.PlanNode | None:
        import copy
        tree: plan.PlanNode = copy.deepcopy(access[order[0]])
        placed = {order[0]}
        pending = list(bound.join_conditions)

        for alias in order[1:]:
            right = copy.deepcopy(access[alias])
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
                tree = node
            else:
                tree = plan.NestedLoopJoin(left=tree, right=right,
                                           condition=None)
            placed.add(alias)

        if pending:
            # leftover join predicates become filters on top
            tree = plan.Filter(child=tree,
                               predicate=conjoin([c[2] for c in pending]))
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
        coster = self._coster(bound)
        if bound.residuals:
            tree = plan.Filter(child=tree, predicate=conjoin(bound.residuals))

        has_aggregates = any(ast.is_aggregate(item.expr)
                             for item in select.items)
        if bound.group_by or has_aggregates:
            tree = plan.Aggregate(child=tree, group_by=bound.group_by,
                                  items=select.items)
        else:
            tree = plan.Project(child=tree, items=select.items)

        if select.distinct:
            tree = plan.Distinct(child=tree)
        if bound.order_by:
            tree = plan.Sort(child=tree, keys=bound.order_by)
        if select.limit is not None or select.offset is not None:
            tree = plan.Limit(child=tree, limit=select.limit,
                              offset=select.offset or 0)
        coster.annotate(tree)
        return tree

    def _outputs(self, select: ast.Select, bindings: dict[str, str],
                 table_order: list[str]
                 ) -> list[tuple[ast.Expr, ast.ColumnRef]]:
        """Per output column of the select list (``*`` expanded): the
        expression it computes, and a reference to it by output name."""
        out: list[tuple[ast.Expr, ast.ColumnRef]] = []
        for position, item in enumerate(select.items):
            if not isinstance(item.expr, ast.Star):
                out.append((item.expr, ast.ColumnRef(
                    ast.output_name(item, position))))
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
        if not (isinstance(expr, ast.Literal) and type(expr.value) is int):
            return expr
        if not 1 <= expr.value <= len(outputs):
            raise BindError(f"{clause} position {expr.value} is not in the "
                            f"select list (1..{len(outputs)})")
        return outputs[expr.value - 1][pick]

    def _plan_tableless(self, select: ast.Select) -> plan.PlanNode:
        """SELECT without FROM, e.g. ``SELECT 1 + 1``."""
        node = plan.Project(child=plan.EmptyRow(), items=select.items)
        node.est_rows = 1.0
        return node

    def _coster(self, bound: BoundQuery) -> PlanCoster:
        return PlanCoster(self._estimator, bound.bindings)


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
