"""Plan execution: physical plan trees -> operators -> result sets."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.common.errors import ExecutionError
from repro.common.simtime import SimClock
from repro.exec import operators as ops
from repro.exec.distributed import (
    DEFAULT_MORSEL_ROWS,
    DEFAULT_NODES,
    DEFAULT_RETRY_LIMIT,
    DEFAULT_WORKERS,
    DistributedScheduler,
    check_at_least,
)
from repro.exec.pipeline import compile_pipelines, run_program
from repro.plan import logical as plan
from repro.storage.catalog import Catalog


@dataclass
class ResultSet:
    """Materialized query output."""

    columns: list[str]
    rows: list[tuple]
    virtual_seconds: float = 0.0
    plan_text: str = ""
    extra: dict[str, Any] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def scalar(self) -> Any:
        """The single value of a 1x1 result."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise ExecutionError(
                f"scalar() needs a 1x1 result, got "
                f"{len(self.rows)}x{len(self.columns)}")
        return self.rows[0][0]

    def column(self, name: str) -> list[Any]:
        try:
            idx = self.columns.index(name)
        except ValueError:
            raise ExecutionError(f"no column {name!r} in result") from None
        return [row[idx] for row in self.rows]


class Executor:
    """Instantiates operators from plan nodes and runs them to completion.

    ``engine`` selects the execution strategy:

    * ``"batch"`` (default) — vectorized and fused: the plan is
      compiled into pipelines (:func:`~repro.exec.pipeline.compile_pipelines`)
      split at breakers, and each pipeline pushes one
      :class:`~repro.exec.batch.RowBlock` through its whole fused stage
      chain per pass with no intermediate materialization.  Results are
      materialized back to row tuples, so callers see the same
      :class:`ResultSet` as ever.
    * ``"distributed"`` — placed execution of the same compiled
      pipelines (:class:`~repro.exec.distributed.DistributedScheduler`):
      scans split into morsels, one task per morsel running a whole
      pipeline pass, shard-local on ``nodes`` virtual nodes (each with
      ``workers`` modeled morsel lanes) connected by
      shuffle/broadcast/gather exchanges over the modeled network.
      Results, ``rows_out`` counters and per-category charged compute
      totals are identical to ``"batch"`` at every node and worker count;
      ``ResultSet.extra["distributed"]`` carries the scheduler stats:
      modeled makespan, recovery counts, exchange log, per-node timings.
    * ``"parallel"`` — the one-node spelling of ``"distributed"``: the
      same scheduler with ``nodes`` pinned to 1 (no exchange ever ships),
      the same stats dict under ``ResultSet.extra["parallel"]``.
    * ``"row"`` — the Volcano row-at-a-time path.  Its role is the
      **reference**: no benchmark workload or example selects it; it
      stays in ``src/`` because the parity suites and
      ``benchmarks/test_exec_throughput.py`` hold every other engine's
      rows and charges to it (see ``docs/execution.md``).

    ``workers``, ``morsel_rows``, ``faults`` and ``retry_limit`` (extra
    attempts per morsel task after a retryable failure) apply to both
    placed engines; ``nodes`` is pinned to 1 by ``engine="parallel"``.
    The serial engines ignore all of them.  Every knob is validated
    here, whichever engine is selected.
    """

    ENGINES = ("batch", "row", "parallel", "distributed")

    def __init__(self, catalog: Catalog, clock: SimClock | None = None,
                 engine: str = "batch", workers: int | None = None,
                 morsel_rows: int | None = None,
                 faults=None, retry_limit: int | None = None,
                 registry=None, nodes: int | None = None):
        if engine not in self.ENGINES:
            raise ValueError(f"unknown engine {engine!r}; "
                             f"expected one of {self.ENGINES}")
        self._catalog = catalog
        self._clock = clock if clock is not None else catalog.clock
        self.engine = engine
        self.workers = workers if workers is not None else DEFAULT_WORKERS
        self.nodes = nodes if nodes is not None else DEFAULT_NODES
        self.morsel_rows = (morsel_rows if morsel_rows is not None
                            else DEFAULT_MORSEL_ROWS)
        # fault injection + recovery knobs for the placed engines (see
        # repro.common.faults); the serial engines ignore them — their
        # fault surface is the storage layer's replicated tables
        self.faults = faults
        self.retry_limit = (retry_limit if retry_limit is not None
                            else DEFAULT_RETRY_LIMIT)
        check_at_least("workers", self.workers)
        check_at_least("nodes", self.nodes)
        check_at_least("morsel_rows", self.morsel_rows)
        check_at_least("retry_limit", self.retry_limit, 0)
        self.registry = registry
        #: (plan node, operator root) of the most recent :meth:`run`, kept
        #: for EXPLAIN ANALYZE's per-operator annotation pass
        self.last_run: tuple[plan.PlanNode, ops.Operator] | None = None

    @property
    def placed(self) -> bool:
        """True for the engines that dispatch eagerly, phase by phase
        (see :class:`~repro.exec.distributed.DistributedScheduler`)."""
        return self.engine in ("parallel", "distributed")

    def with_engine(self, engine: str) -> "Executor":
        """A sibling executor over the same catalog and clock, differing
        only in engine (the other knobs carry over).  Used by capped
        measurement to downgrade a placed engine to ``batch``."""
        return Executor(self._catalog, self._clock, engine=engine,
                        workers=self.workers, morsel_rows=self.morsel_rows,
                        faults=self.faults, retry_limit=self.retry_limit,
                        registry=self.registry, nodes=self.nodes)

    def build(self, node: plan.PlanNode) -> ops.Operator:
        """Recursively build the operator tree for a plan."""
        if isinstance(node, plan.SeqScan):
            return ops.SeqScanOp(node, self._catalog, self._clock)
        if isinstance(node, plan.IndexScan):
            return ops.IndexScanOp(node, self._catalog, self._clock)
        if isinstance(node, plan.Filter):
            return ops.FilterOp(node, self.build(node.child), self._clock)
        if isinstance(node, plan.Project):
            return ops.ProjectOp(node, self.build(node.child), self._clock)
        if isinstance(node, plan.NestedLoopJoin):
            return ops.NestedLoopJoinOp(node, self.build(node.left),
                                        self.build(node.right), self._clock)
        if isinstance(node, plan.HashJoin):
            return ops.HashJoinOp(node, self.build(node.left),
                                  self.build(node.right), self._clock)
        if isinstance(node, plan.Aggregate):
            return ops.AggregateOp(node, self.build(node.child), self._clock)
        if isinstance(node, plan.Sort):
            return ops.SortOp(node, self.build(node.child), self._clock)
        if isinstance(node, plan.Limit):
            return ops.LimitOp(node, self.build(node.child), self._clock)
        if isinstance(node, plan.Distinct):
            return ops.DistinctOp(node, self.build(node.child), self._clock)
        if isinstance(node, plan.EmptyRow):
            return ops.EmptyRowOp(self._clock)
        raise ExecutionError(f"no operator for plan node {node.label}")

    def _scheduler(self) -> DistributedScheduler:
        """A fresh (single-use) scheduler for the placed engine."""
        nodes = 1 if self.engine == "parallel" else self.nodes
        return DistributedScheduler(self._clock, nodes=nodes,
                                    workers=self.workers,
                                    morsel_rows=self.morsel_rows,
                                    faults=self.faults,
                                    retry_limit=self.retry_limit,
                                    registry=self.registry)

    def iter_rows(self, operator: ops.Operator):
        """Row-tuple iterator over an operator tree using the configured
        engine — the facade that keeps block execution invisible to
        row-oriented callers (measurement, db facade, tests).  The batch
        engine streams (budgets and LIMIT stop exactly where they
        should); the placed engines execute eagerly and the iterator
        replays their materialized result."""
        if self.placed:
            blocks, _ = self._scheduler().run(operator)
        elif self.engine == "batch":
            blocks = run_program(compile_pipelines(operator), self._clock)
        else:
            return iter(operator)
        return (row for block in blocks for row in block.iter_rows())

    def run(self, node: plan.PlanNode) -> ResultSet:
        """Execute a plan and materialize the result, measuring virtual time."""
        start = self._clock.now
        operator = self.build(node)
        self.last_run = (node, operator)
        extra: dict[str, Any] = {}
        if self.engine == "row":
            rows = list(operator)
        else:
            if self.placed:
                blocks, extra[self.engine] = self._scheduler().run(operator)
            else:
                program = compile_pipelines(operator)
                blocks = run_program(program, self._clock)
                extra["pipeline"] = {"pipelines": program.describe()}
            rows = [row for block in blocks for row in block.iter_rows()]
        elapsed = self._clock.now - start
        return ResultSet(columns=operator.layout.column_names(), rows=rows,
                         virtual_seconds=elapsed, plan_text=node.pretty(),
                         extra=extra)
