"""Logical and physical plan representations.

The planner lowers an AST ``Select`` into a tree of physical plan nodes.
Physical nodes are declarative descriptions — the executor instantiates
iterator operators from them — so the learned query optimizer can enumerate,
featurize, and score many candidate trees cheaply without executing them.

A node is written once: :meth:`~repro.plan.cost.PlanCoster.annotate` sets
its estimates when the planner makes it, and its fields are final from
then on.  Candidate trees therefore share subtrees (every join order holds
each alias's one costed access path) and nothing that reads a plan — an
engine, EXPLAIN, a learned optimizer — may write to one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.sql import ast

_plan_ids = itertools.count(1)


@dataclass
class PlanNode:
    """Base physical plan node.

    Attributes set by ``PlanCoster.annotate``, once, when the node is made:
        est_rows: estimated output cardinality.
        est_cost: estimated virtual-time cost of the subtree.

    Class-level pipeline annotations (what the handler
    ``repro/exec/pipeline.py`` registers for the node's operator does
    when a plan is compiled into fused pipelines):

    * ``STREAMING`` — the node processes one block at a time and fuses
      into its child's pipeline as a :class:`~repro.exec.pipeline.PipelineStage`
      (Filter, Project; the HashJoin *probe* side and the NestedLoopJoin
      *cross* are the streaming halves of breaker nodes).
    * ``BREAKER`` — the node must consume (some of) its input entirely
      before producing output, so the pipeline splits here: the input
      subtree becomes its own pipeline feeding a sink (Aggregate, Sort,
      HashJoin build, NestedLoopJoin right side) or an order-sensitive
      stage that ends fusion for the parallel engine (Distinct's seen
      set, Limit's early-exit counter).

    Scans are neither: they are pipeline *sources*.
    """

    STREAMING = False
    BREAKER = False

    est_rows: float = field(default=0.0, init=False)
    est_cost: float = field(default=0.0, init=False)
    node_id: int = field(default_factory=lambda: next(_plan_ids), init=False)

    @property
    def children(self) -> tuple["PlanNode", ...]:
        return ()

    @property
    def label(self) -> str:
        return type(self).__name__

    def walk(self):
        """Pre-order traversal of the subtree."""
        yield self
        for child in self.children:
            yield from child.walk()

    def pretty(self, indent: int = 0) -> str:
        lines = [" " * indent
                 + f"{self.label} (rows={self.est_rows:.0f}, "
                   f"cost={self.est_cost:.6f})"]
        for child in self.children:
            lines.append(child.pretty(indent + 2))
        return "\n".join(lines)


@dataclass
class SeqScan(PlanNode):
    table: str
    binding: str
    predicate: Optional[ast.Expr] = None  # pushed-down filter

    @property
    def label(self) -> str:
        suffix = " [filtered]" if self.predicate is not None else ""
        return f"SeqScan({self.table} as {self.binding}){suffix}"


@dataclass
class IndexScan(PlanNode):
    table: str
    binding: str
    index_name: str
    column: str
    # equality lookup if eq is not None, else the range low..high, each
    # end open (None), inclusive, or strict (`col > k`: include_low=False)
    eq: Any = None
    low: Any = None
    high: Any = None
    include_low: bool = True
    include_high: bool = True
    residual: Optional[ast.Expr] = None

    @property
    def label(self) -> str:
        suffix = " [filtered]" if self.residual is not None else ""
        if self.eq is not None:
            return (f"IndexScan({self.table}.{self.column} = {self.eq!r})"
                    f"{suffix}")
        low = ("(-inf" if self.low is None else
               f"{'[' if self.include_low else '('}{self.low!r}")
        high = ("+inf)" if self.high is None else
                f"{self.high!r}{']' if self.include_high else ')'}")
        return f"IndexScan({self.table}.{self.column} in {low}, {high}){suffix}"


@dataclass
class Filter(PlanNode):
    STREAMING = True

    child: PlanNode = None  # type: ignore[assignment]
    predicate: ast.Expr = None  # type: ignore[assignment]

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)


@dataclass
class Project(PlanNode):
    STREAMING = True

    child: PlanNode = None  # type: ignore[assignment]
    items: tuple[ast.SelectItem, ...] = ()

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)


@dataclass
class NestedLoopJoin(PlanNode):
    BREAKER = True

    left: PlanNode = None  # type: ignore[assignment]
    right: PlanNode = None  # type: ignore[assignment]
    condition: Optional[ast.Expr] = None  # None = cross join

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)

    @property
    def label(self) -> str:
        return "NestedLoopJoin" if self.condition is not None else "CrossJoin"


@dataclass
class HashJoin(PlanNode):
    # the build (left) side is the breaker; the probe side fuses into the
    # right child's pipeline as a streaming stage
    BREAKER = True

    left: PlanNode = None   # build side  # type: ignore[assignment]
    right: PlanNode = None  # probe side  # type: ignore[assignment]
    left_key: ast.ColumnRef = None  # type: ignore[assignment]
    right_key: ast.ColumnRef = None  # type: ignore[assignment]
    residual: Optional[ast.Expr] = None

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)

    @property
    def label(self) -> str:
        return (f"HashJoin({self.left_key.display()} = "
                f"{self.right_key.display()})")


@dataclass
class Aggregate(PlanNode):
    BREAKER = True

    child: PlanNode = None  # type: ignore[assignment]
    group_by: tuple[ast.Expr, ...] = ()
    items: tuple[ast.SelectItem, ...] = ()

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)


@dataclass
class Sort(PlanNode):
    BREAKER = True

    child: PlanNode = None  # type: ignore[assignment]
    keys: tuple[ast.OrderItem, ...] = ()

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)


@dataclass
class Limit(PlanNode):
    # runs as the pipeline-terminating early-exit stage: a satisfied LIMIT
    # stops driving its source pipeline
    BREAKER = True

    child: PlanNode = None  # type: ignore[assignment]
    limit: Optional[int] = None
    offset: int = 0

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)


@dataclass
class Distinct(PlanNode):
    # order-sensitive streaming state (the seen set): rides the pipeline
    # as a stage serially, ends fusion for the parallel engine
    BREAKER = True

    child: PlanNode = None  # type: ignore[assignment]

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)


class EmptyRow(PlanNode):
    """A one-row, zero-column input for table-less SELECTs."""


def plan_signature(node: PlanNode) -> str:
    """A canonical string identifying the plan's structure (for dedup and
    for the learned optimizer's training keys)."""
    if isinstance(node, SeqScan):
        flag = "+f" if node.predicate is not None else ""
        return f"seq({node.table}{flag})"
    if isinstance(node, IndexScan):
        return f"idx({node.table}.{node.column})"
    if isinstance(node, Filter):
        return f"filter({plan_signature(node.child)})"
    if isinstance(node, Project):
        return f"proj({plan_signature(node.child)})"
    if isinstance(node, NestedLoopJoin):
        return (f"nlj({plan_signature(node.left)},"
                f"{plan_signature(node.right)})")
    if isinstance(node, HashJoin):
        return (f"hj({plan_signature(node.left)},"
                f"{plan_signature(node.right)})")
    if isinstance(node, Aggregate):
        return f"agg({plan_signature(node.child)})"
    if isinstance(node, Sort):
        return f"sort({plan_signature(node.child)})"
    if isinstance(node, Limit):
        return f"limit({plan_signature(node.child)})"
    if isinstance(node, Distinct):
        return f"distinct({plan_signature(node.child)})"
    return type(node).__name__.lower()
