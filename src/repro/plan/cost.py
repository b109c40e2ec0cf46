"""Virtual-time cost model for physical plans.

Costs mirror the executor's actual per-row/per-page charges (see
:class:`repro.common.simtime.CostModel`), so a plan's estimated cost and its
measured virtual execution time agree when the cardinality estimates are
right — and disagree exactly when estimates go stale under drift, which is
the failure mode Figure 8 probes.
"""

from __future__ import annotations

import math

from repro.common.simtime import CostModel
from repro.plan import logical as plan
from repro.plan.cardinality import CardinalityEstimator


class PlanCoster:
    """Annotates plan trees with estimated rows and virtual-time cost."""

    def __init__(self, estimator: CardinalityEstimator,
                 bindings: dict[str, str]):
        self._est = estimator
        self._bindings = bindings

    def annotate(self, node: plan.PlanNode) -> plan.PlanNode:
        """Fill ``est_rows`` and ``est_cost`` bottom-up; returns the node."""
        for child in node.children:
            self.annotate(child)
        rows, cost = self._estimate(node)
        node.est_rows = max(0.0, rows)
        node.est_cost = cost + sum(c.est_cost for c in node.children)
        return node

    # -- per-node estimates -----------------------------------------------

    def _estimate(self, node: plan.PlanNode) -> tuple[float, float]:
        if isinstance(node, plan.SeqScan):
            base_rows = self._est.table_rows(node.table)
            pages = self._est.table_pages(node.table)
            sel = self._est.selectivity(node.predicate, self._bindings)
            cost = (pages * CostModel.PAGE_READ
                    + base_rows * CostModel.TUPLE_CPU
                    + (base_rows * CostModel.EVAL_PREDICATE
                       if node.predicate is not None else 0.0))
            return base_rows * sel, cost

        if isinstance(node, plan.IndexScan):
            base_rows = self._est.table_rows(node.table)
            if node.eq is not None:
                sel = self._selectivity_eq(node)
            else:
                sel = self._selectivity_range(node)
            out_rows = base_rows * sel
            cost = (CostModel.INDEX_DESCENT
                    + out_rows * (CostModel.PAGE_HIT + CostModel.TUPLE_CPU))
            if node.residual is not None:
                cost += out_rows * CostModel.EVAL_PREDICATE
                out_rows *= self._est.selectivity(node.residual, self._bindings)
            return out_rows, cost

        if isinstance(node, plan.Filter):
            in_rows = node.child.est_rows
            sel = self._est.selectivity(node.predicate, self._bindings)
            return in_rows * sel, in_rows * CostModel.EVAL_PREDICATE

        if isinstance(node, plan.Project):
            in_rows = node.child.est_rows
            return in_rows, in_rows * CostModel.TUPLE_CPU

        if isinstance(node, plan.NestedLoopJoin):
            left_rows = node.left.est_rows
            right_rows = node.right.est_rows
            pairs = left_rows * max(1.0, right_rows)
            if node.condition is None:
                out = left_rows * right_rows
                return out, pairs * CostModel.TUPLE_CPU
            sel = self._est.selectivity(node.condition, self._bindings)
            # per-pair predicate evaluation dominates NLJ cost
            return (left_rows * right_rows * max(sel, 1e-9),
                    pairs * (CostModel.TUPLE_CPU + CostModel.EVAL_PREDICATE))

        if isinstance(node, plan.HashJoin):
            left_rows = node.left.est_rows   # build
            right_rows = node.right.est_rows  # probe
            sel = self._est.join_selectivity(node.left_key, node.right_key,
                                             self._bindings)
            out = left_rows * right_rows * sel
            build_factor = 1.0
            probe_factor = 1.0
            if left_rows > CostModel.HASH_SPILL_ROWS:
                build_factor = CostModel.HASH_SPILL_FACTOR
                probe_factor = CostModel.HASH_SPILL_FACTOR / 2
            cost = (left_rows * CostModel.HASH_BUILD_ROW * build_factor
                    + right_rows * CostModel.HASH_PROBE_ROW * probe_factor
                    + out * CostModel.TUPLE_CPU)
            if node.residual is not None:
                cost += out * CostModel.EVAL_PREDICATE
                out *= self._est.selectivity(node.residual, self._bindings)
            return out, cost

        if isinstance(node, plan.Aggregate):
            in_rows = node.child.est_rows
            groups = (max(1.0, in_rows * 0.1) if node.group_by else 1.0)
            return groups, in_rows * (CostModel.TUPLE_CPU
                                      + CostModel.HASH_BUILD_ROW)

        if isinstance(node, plan.Sort):
            in_rows = max(2.0, node.child.est_rows)
            return (node.child.est_rows,
                    in_rows * math.log2(in_rows) * CostModel.SORT_ROW_LOG)

        if isinstance(node, plan.Limit):
            in_rows = node.child.est_rows
            out = in_rows if node.limit is None else min(in_rows, node.limit)
            return out, 0.0

        if isinstance(node, plan.Distinct):
            in_rows = node.child.est_rows
            return (max(1.0, in_rows * 0.5),
                    in_rows * CostModel.HASH_BUILD_ROW)

        return 1.0, 0.0  # pragma: no cover - unknown node kinds

    def _selectivity_eq(self, node: plan.IndexScan) -> float:
        stats = self._table_column_stats(node)
        if stats is not None:
            return stats.selectivity_eq(node.eq)
        return 0.005

    def _selectivity_range(self, node: plan.IndexScan) -> float:
        stats = self._table_column_stats(node)
        bounds = (node.low, node.high)
        if stats is None or any(isinstance(b, str) for b in bounds):
            return 0.33    # text keys have no histogram to read
        low, high = (None if b is None else float(b) for b in bounds)
        return stats.selectivity_range(low, high)

    def _table_column_stats(self, node: plan.IndexScan):
        table_stats = self._est._catalog.stats(node.table)
        if table_stats is None:
            return None
        return table_stats.column_stats(node.column)
