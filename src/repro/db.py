"""The NeurDB facade: one object that accepts SQL (including PREDICT) and
runs it end-to-end through the parser, planner, executor, and AI engine.

This is the repo's primary public API::

    import repro
    db = repro.connect()
    db.execute("CREATE TABLE review (rid INT UNIQUE, brand_name TEXT, "
               "f1 FLOAT, f2 FLOAT, score FLOAT)")
    db.execute("INSERT INTO review VALUES (1, 'acme', 0.3, 1.2, 4.5)")
    result = db.execute(
        "PREDICT VALUE OF score FROM review WHERE brand_name = 'acme' "
        "TRAIN ON * WITH brand_name <> 'acme'")

PREDICT execution follows the paper's Fig. 1 running example: parse ->
customized plan -> scan feeds the streaming loader -> AI engine trains or
reuses a managed model -> inference operator produces the result.  The
monitor watches per-model loss; on drift it triggers the fine-tune operator.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Callable, Iterable

import numpy as np

from repro.ai.armnet import ARMNet
from repro.ai.engine import AIEngine
from repro.ai.loader import (ColumnFeatures, table_feature_columns,
                             table_training_set, table_training_set_tail)
from repro.ai.model_manager import ModelManager
from repro.ai.monitor import Monitor
from repro.ai.tasks import FineTuneTask, InferenceTask, TrainTask
from repro.common import categories as cat
from repro.common.errors import (BindError, ExecutionError, NeurDBError,
                                 RetryPolicy, check_at_least)
from repro.common.faults import FaultPlan
from repro.common.rng import stable_hash
from repro.common.simtime import SimClock
from repro.exec.executor import Executor, ResultSet
from repro.exec.expr import (NO_COLUMNS, RowLayout, compile_expr,
                             compile_predicate_batch, expr_type)
from repro.obs.explain import (explain_analyze, explain_plan,
                               explain_statement_trace)
from repro.obs.export import chrome_trace, dump_chrome_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.plan.optimizer import Planner
from repro.sql import ast
from repro.sql.parser import parse_keyed, template_stats
from repro.storage.catalog import Catalog
from repro.storage.schema import Column, TableSchema
from repro.storage.types import DataType


@dataclass
class PredictContext:
    """Bound PREDICT statement: everything resolved except the data.

    Produced by :meth:`NeurDB.bind_predict` and shared between the
    facade's one-shot path and the serving subsystem (``repro/serve``),
    so both run bit-identical training, materialization, and output
    assembly.
    """

    statement: ast.Predict
    table: Any                     # HeapTable
    target: str
    feature_columns: list[str]
    layout: RowLayout
    feature_idx: list[int]
    model_name: str


# a connection's statement table keeps at most this many templates,
# oldest dropped first (as the parser's process-wide template cache does)
_STATEMENT_TABLE_MAX = 1024
_LITERAL_MARK = re.compile("\0[ifs]")


@dataclass
class _Statement:
    """One template's entry in a connection's statement table: how its
    statements bind — valid while the catalog's DDL version is
    ``version`` — and what they have done so far."""

    key: str
    kind: str
    binding: Any = None
    version: int = -1
    calls: int = 0
    rows: int = 0
    hits: int = 0
    misses: int = 0
    errors: int = 0


@dataclass
class _InsertBinding:
    """What an INSERT's template decides: the target table, the row
    position each value goes to, and ``(index, key position)`` per index
    (the value count and types were checked when it was bound)."""

    table: Any
    positions: list[int]
    indexes: list[tuple[Any, int]]


@dataclass
class _VictimBinding:
    """What an UPDATE / DELETE's template decides: the table, the rows its
    victim scan yields, the row position each SET assignment writes (its
    type checked when bound; empty for DELETE), and the indexes to
    maintain."""

    table: Any
    layout: RowLayout
    positions: list[int]
    indexes: list[tuple[Any, int]]


class NeurDB:
    """An in-process NeurDB instance; :func:`connect` is this class.

    ``num_runtimes`` / ``buffer_pages``: AI runtimes a task's batches
    are spread over, and the buffer pool's capacity in pages.

    ``refresh_window`` bounds how many of the table's most recent rows a
    fine-tune refresh (manual, or the serving subsystem's background
    one; :meth:`fine_tune_model`'s default window) trains on: on a
    regime shift the freshest rows carry the new distribution, so a
    sliding window adapts faster *and* cheaper than re-fitting the full
    history.  None (the default) keeps the full-table behavior.

    Robustness knobs (``docs/faults.md``): ``faults`` threads a seeded
    :class:`~repro.common.faults.FaultPlan` into the catalog (replica
    outages) and executor (worker crashes / transient task errors);
    ``replication`` backs every created table with a primary/backup
    :class:`~repro.storage.replica.ReplicatedTable`; ``retry_policy``
    (a :class:`RetryPolicy`, or an int shorthand for ``max_retries``)
    makes :meth:`execute` retry transiently failed statements with
    charged exponential backoff.  Absorbed failures surface through
    :meth:`warnings`.

    ``tracing``: attach a session-wide :class:`~repro.obs.trace.Tracer`
    to the clock (``db.tracer``); observation-only, so results and
    charged totals stay bit-identical to an untraced session.

    ``shards``: default shard count for created tables — every CREATE
    TABLE hash-partitions across that many virtual nodes (see
    ``docs/distributed.md``); per-table ``WITH (shards=N,
    partition=col)`` overrides it.  None/1 = unsharded.

    ``engine`` / ``nodes``: the session executor's engine (one of
    :attr:`~repro.exec.executor.Executor.ENGINES`) and, for
    ``engine="distributed"``, the virtual node count.  ``connect(
    shards=4, engine="distributed", nodes=4)`` runs every SELECT —
    including under ``EXPLAIN ANALYZE`` — through shard-local pipeline
    fragments connected by modeled exchanges; results and charged
    compute totals stay bit-identical to the default batch engine.
    """

    def __init__(self, num_runtimes: int = 1, buffer_pages: int = 4096,
                 refresh_window: int | None = None,
                 faults: FaultPlan | None = None,
                 replication: bool = False,
                 retry_policy: "RetryPolicy | int | None" = None,
                 tracing: bool = False, shards: int | None = None,
                 engine: str = "batch", nodes: int | None = None):
        buffer_pages = check_at_least("buffer_pages", buffer_pages)
        if refresh_window is not None:
            refresh_window = check_at_least("refresh_window", refresh_window)
        if isinstance(retry_policy, int):
            retry_policy = RetryPolicy(max_retries=retry_policy)
        elif not isinstance(retry_policy, (RetryPolicy, type(None))):
            raise TypeError(f"retry_policy must be None, an int or a "
                            f"RetryPolicy, got {retry_policy!r}")
        self.clock = SimClock()
        self.faults = faults
        self.retry_policy = retry_policy
        self.registry = MetricsRegistry()
        self.tracer: Tracer | None = None
        if tracing:
            self.tracer = Tracer()
            self.tracer.attach(self.clock)
        from repro.storage.buffer import BufferPool
        self.buffer_pool = BufferPool(capacity_pages=buffer_pages,
                                      clock=self.clock)
        self.catalog = Catalog(buffer_pool=self.buffer_pool,
                               clock=self.clock, replication=replication,
                               faults=faults, shards=shards)
        self.planner = Planner(self.catalog)
        self.executor = Executor(self.catalog, self.clock, engine=engine,
                                 faults=faults, registry=self.registry,
                                 nodes=nodes)
        self.monitor = Monitor()
        self.monitor.event_sink = self.registry
        self.registry.add_collector(self._collect_component_gauges)
        self.models = ModelManager(self.clock)
        self.ai_engine = AIEngine(model_manager=self.models,
                                  clock=self.clock,
                                  num_runtimes=num_runtimes,
                                  monitor=self.monitor)
        self.refresh_window = refresh_window
        self.query_retries = 0
        # fingerprint key -> _Statement, oldest first (see statements())
        self._statements: dict[str, _Statement] = {}
        # PREDICT feature-column tuple -> model-name signature
        self._model_signatures: dict[tuple[str, ...], int] = {}

    # -- public API ----------------------------------------------------------

    def execute(self, sql: str, force_retrain: bool = False) -> ResultSet:
        """Parse and run one SQL statement.  The statement is filed in the
        connection's statement table under its fingerprint key
        (:meth:`statements`): a SELECT, INSERT, UPDATE or DELETE whose
        template was bound before, with no CREATE / DROP since, reuses
        what binding decided and re-plans only what its literal values
        decide."""
        key, statement = parse_keyed(sql)
        entry = self._statements.get(key)
        if entry is None:
            if len(self._statements) >= _STATEMENT_TABLE_MAX:
                del self._statements[next(iter(self._statements))]
            entry = self._statements[key] = _Statement(
                key, type(statement).__name__)
        entry.calls += 1
        try:
            result = self._execute(statement, force_retrain, entry)
        except Exception:
            entry.errors += 1
            raise
        entry.rows += result.extra.get("rowcount", len(result.rows))
        return result

    def execute_script(self, sql: str) -> list[ResultSet]:
        """Run a ``;``-separated script; returns one result per statement."""
        from repro.sql.parser import parse_script
        return [self.execute_statement(s) for s in parse_script(sql)]

    def execute_statement(self, statement: ast.Statement,
                          force_retrain: bool = False) -> ResultSet:
        """Run one parsed statement under the connection's retry policy:
        transiently failed statements (injected faults, replica outages,
        exhausted scheduler budgets) are re-executed whole after the
        policy's backoff, charged to the clock as ``retry-backoff`` —
        safe for writes too, because storage raises its retryable errors
        before applying any mutation.  Each retry is recorded in
        :meth:`warnings` and ``query_retries``.  The statement is bound
        afresh: it has no entry in the statement table."""
        return self._execute(statement, force_retrain, None)

    def _execute(self, statement: ast.Statement, force_retrain: bool,
                 entry: _Statement | None) -> ResultSet:
        policy = self.retry_policy
        attempt = 0
        while True:
            try:
                return self._dispatch_statement(statement, force_retrain,
                                                entry)
            except Exception as exc:
                delay = (None if policy is None
                         else policy.next_delay(exc, attempt))
                if delay is None:
                    raise
                attempt += 1
                self.query_retries += 1
                self.clock.advance(delay, cat.RETRY_BACKOFF)
                self.registry.counter("db.query_retries").inc()
                self.registry.event(
                    "db.retry",
                    f"retry {attempt}/{policy.max_retries} of "
                    f"{type(statement).__name__} after "
                    f"{type(exc).__name__}: {exc}",
                    time=self.clock.now,
                    statement=type(statement).__name__, attempt=attempt,
                    max_retries=policy.max_retries,
                    error=f"{type(exc).__name__}: {exc}")

    def _dispatch_statement(self, statement: ast.Statement,
                            force_retrain: bool = False,
                            entry: _Statement | None = None) -> ResultSet:
        if isinstance(statement, ast.Select):
            bound = self._bind(entry, statement, self.planner.bind,
                               self.planner.rebind)
            return self.executor.run(self.planner.plan_bound(bound))
        if isinstance(statement, ast.Insert):
            return self._run_insert(statement, self._bind(
                entry, statement, self._bind_insert))
        if isinstance(statement, ast.Update):
            return self._run_update(statement, self._bind(
                entry, statement, self._bind_victims))
        if isinstance(statement, ast.Delete):
            return self._run_delete(statement, self._bind(
                entry, statement, self._bind_victims))
        if isinstance(statement, ast.CreateTable):
            return self._run_create_table(statement)
        if isinstance(statement, ast.DropTable):
            self.catalog.drop_table(statement.table, statement.if_exists)
            return _status(f"DROP TABLE {statement.table}")
        if isinstance(statement, ast.CreateIndex):
            self.catalog.create_index(statement.name, statement.table,
                                      statement.column, statement.kind)
            return _status(f"CREATE INDEX {statement.name}")
        if isinstance(statement, ast.Analyze):
            self.catalog.analyze(statement.table)
            return _status("ANALYZE")
        if isinstance(statement, ast.Predict):
            return self._run_predict(statement, force_retrain)
        if isinstance(statement, ast.Explain):
            return self._run_explain(statement, force_retrain)
        raise NeurDBError(f"unsupported statement {type(statement).__name__}")

    def _bind(self, entry: _Statement | None, statement: ast.Statement,
              bind: Callable[[Any], Any],
              rebind: Callable[[Any, Any], Any] = lambda binding, _: binding
              ) -> Any:
        """``statement`` bound through its statement-table entry: rebound
        from the entry's binding when the catalog has had no CREATE / DROP
        since it was made (``rebind`` may decline with None), else bound
        afresh by ``bind`` and kept.  An INSERT's, UPDATE's or DELETE's
        binding carries over as it is: what the literals decide is read
        from the statement when it runs."""
        if entry is None:
            return bind(statement)
        version = self.catalog.ddl_version
        if entry.version == version:
            bound = rebind(entry.binding, statement)
            if bound is not None:
                entry.hits += 1
                return bound
        entry.misses += 1
        entry.binding = bind(statement)
        entry.version = version
        return entry.binding

    # -- EXPLAIN [ANALYZE] ----------------------------------------------------

    def _run_explain(self, statement: ast.Explain,
                     force_retrain: bool) -> ResultSet:
        """``EXPLAIN`` renders the optimizer's plan without executing;
        ``EXPLAIN ANALYZE`` executes the wrapped statement under a
        statement-scoped tracer and annotates each operator with its
        charged virtual time by category, rows out, and buffer page
        touches — identically on every engine.  One row per output
        line; the structured form rides in ``extra['explain']``."""
        inner = statement.statement
        # an UPDATE / DELETE's plan is the scan that finds its victims
        title = (f"{type(inner).__name__} on {inner.table}"
                 if isinstance(inner, (ast.Update, ast.Delete)) else None)
        if not statement.analyze:
            if isinstance(inner, ast.Select):
                text = explain_plan(self.planner.plan_select(inner))
            elif title is not None:
                text = explain_plan(self.planner.access_path(
                    inner.table, inner.where), title)
            else:
                text = f"{type(inner).__name__} (no plan tree)"
            return ResultSet(columns=["plan"],
                             rows=[(line,) for line in text.split("\n")],
                             extra={"analyze": False})
        tracer, previous = self._swap_tracer()
        try:
            with tracer.span(type(inner).__name__, "statement",
                             clock=self.clock):
                result = self._dispatch_statement(inner, force_retrain)
        finally:
            self._restore_tracer(previous)
        if isinstance(inner, ast.Select) or title is not None:
            # what a write loop charged renders as the "(other)" bucket
            plan, root_op = self.executor.last_run
            text, structured = explain_analyze(
                plan, root_op, tracer,
                parallel_stats=result.extra.get("parallel"),
                distributed_stats=result.extra.get("distributed"),
                title=title)
        else:
            text, structured = explain_statement_trace(tracer)
        return ResultSet(columns=["plan"],
                         rows=[(line,) for line in text.split("\n")],
                         virtual_seconds=result.virtual_seconds,
                         extra={"analyze": True, "explain": structured,
                                "result_rowcount": len(result.rows)})

    # -- absorbed-failure surfacing -------------------------------------------

    def warnings(self) -> list[str]:
        """Failures this connection absorbed instead of raising: query
        retries under the retry policy, and drift-trigger callbacks that
        raised inside the monitor (which swallows them so observation
        never fails).  Empty on a healthy run — tests assert on it so
        nothing gets dropped silently.

        This is the rendered view over the metrics registry's structured
        event log (``registry.events(prefix="db.")`` and
        ``kind="monitor.trigger_error"``); the events carry the
        machine-readable fields."""
        return (self.registry.event_messages(prefix="db.")
                + self.registry.event_messages(kind="monitor.trigger_error"))

    # -- observability --------------------------------------------------------

    def metrics(self) -> dict:
        """One point-in-time snapshot of every metric series — scheduler
        retry/crash counters, buffer-pool gauges, fault-injection counts,
        serving stats (when a server registers), and the structured-event
        tail — via the unified :class:`~repro.obs.metrics.MetricsRegistry`."""
        return self.registry.snapshot()

    def statements(self) -> list[dict[str, Any]]:
        """This connection's statement table: one entry per template that
        :meth:`execute` has parsed, oldest first (at most
        ``_STATEMENT_TABLE_MAX``).  ``query`` is the text with each
        literal shown as ``?``; ``rows`` counts rows returned, or written
        by INSERT / UPDATE / DELETE; ``bind_hits`` are statements that
        reused the template's binding, ``bind_misses`` those bound afresh
        (DDL, ANALYZE, EXPLAIN and PREDICT are never bound through the
        table); ``errors`` counts statements that raised."""
        return [{"query": _LITERAL_MARK.sub("?", entry.key),
                 "kind": entry.kind, "calls": entry.calls,
                 "rows": entry.rows, "bind_hits": entry.hits,
                 "bind_misses": entry.misses, "errors": entry.errors}
                for entry in self._statements.values()]

    def _collect_component_gauges(self) -> dict[str, float]:
        gauges = {f"buffer.{key}": float(value)
                  for key, value in self.buffer_pool.snapshot().items()}
        if self.faults is not None:
            for kind, count in self.faults.counts().items():
                gauges[f"faults.injected{{kind={kind}}}"] = float(count)
        # the parser's template cache is shared by every connection in
        # the process, so these three count other connections' statements
        templates = template_stats()
        gauges["sql.templates"] = float(templates["templates"])
        gauges["sql.template_hits_total"] = float(templates["hits"])
        gauges["sql.template_misses_total"] = float(templates["misses"])
        # this connection's own statement table (statements())
        gauges["sql.statements"] = float(len(self._statements))
        gauges["sql.statement_hits_total"] = float(
            sum(entry.hits for entry in self._statements.values()))
        # model loads (each charged) against the models actually
        # assembled from layer rows (memo misses and fine-tune copies)
        gauges["ai.model_loads"] = float(self.models.loads)
        gauges["ai.model_builds"] = float(self.models.builds)
        return gauges

    def profile(self, sql: str, path: str | None = None,
                force_retrain: bool = False) -> tuple[ResultSet, dict]:
        """Execute ``sql`` under a scoped tracer and return ``(result,
        chrome_trace_dict)`` — the Chrome trace-event JSON of the virtual
        worker/lane timeline (write it to ``path`` to open in
        ``chrome://tracing`` / Perfetto).  Tracing is observation-only:
        the result rows and charged totals are bit-identical to an
        unprofiled run."""
        tracer, previous = self._swap_tracer()
        try:
            with tracer.span(sql.strip(), "statement", clock=self.clock):
                result = self.execute(sql, force_retrain=force_retrain)
        finally:
            self._restore_tracer(previous)
        trace = (dump_chrome_trace(tracer, path) if path is not None
                 else chrome_trace(tracer))
        return result, trace

    def _swap_tracer(self) -> tuple[Tracer, "Tracer | None"]:
        """Attach a fresh statement-scoped tracer, returning it and the
        session tracer it displaced (if any)."""
        previous = self.clock.tracer
        tracer = Tracer()
        tracer.attach(self.clock)
        return tracer, previous

    def _restore_tracer(self, previous: "Tracer | None") -> None:
        """Put the session tracer back (re-seeding its float mirror from
        the clock, so its reconciliation invariant survives the scoped
        statement it did not observe) or detach entirely."""
        self.clock.tracer = None
        if previous is not None:
            previous.attach(self.clock)

    # -- DDL ------------------------------------------------------------------

    def _run_create_table(self, statement: ast.CreateTable) -> ResultSet:
        columns = [Column(c.name, c.dtype, unique=c.unique,
                          nullable=c.nullable) for c in statement.columns]
        shards: int | None = None
        partition: str | None = None
        for key, value in statement.options:
            if key == "shards":
                if not isinstance(value, int) or value < 1:
                    raise BindError(f"WITH option shards expects an integer "
                                    f">= 1, got {value!r}")
                shards = value
            elif key == "partition":
                partition = str(value)
            else:
                raise BindError(f"unknown CREATE TABLE option {key!r}; "
                                f"expected shards or partition")
        self.catalog.create_table(TableSchema(statement.table, columns),
                                  shards=shards, partition=partition)
        return _status(f"CREATE TABLE {statement.table}")

    # -- DML ------------------------------------------------------------------

    def _bind_insert(self, statement: ast.Insert) -> _InsertBinding:
        """Every row is checked before the first one is written."""
        table = self.catalog.table(statement.table)
        schema = table.schema
        if statement.columns:
            positions = [schema.index_of(c) for c in statement.columns]
        else:
            positions = list(range(len(schema)))
        for value_row in statement.rows:
            if len(value_row) != len(positions):
                raise ExecutionError(
                    f"INSERT expects {len(positions)} values, "
                    f"got {len(value_row)}")
            for expr in value_row:
                expr_type(expr, NO_COLUMNS)
        return _InsertBinding(table, positions,
                              self._index_keys(statement.table))

    def _run_insert(self, statement: ast.Insert,
                    binding: _InsertBinding) -> ResultSet:
        table = binding.table
        width = len(table.schema)
        inserted = 0
        for value_row in statement.rows:
            full: list[Any] = [None] * width
            for position, expr in zip(binding.positions, value_row):
                full[position] = (expr.value if type(expr) is ast.Literal
                                  else compile_expr(expr, NO_COLUMNS)(()))
            rid = table.insert(full)
            stored = table.read(rid)
            for index, position in binding.indexes:
                index.insert(stored[position], rid)
            inserted += 1
        return _status(f"INSERT {inserted}", rowcount=inserted)

    def _bind_victims(self, statement: "ast.Update | ast.Delete"
                      ) -> _VictimBinding:
        name = self.planner.bind_victims(statement.table, statement.where)
        table = self.catalog.table(name)
        layout = RowLayout.of_table(name, table.schema)
        positions = []
        assignments = (statement.assignments
                       if isinstance(statement, ast.Update) else ())
        for column_name, expr in assignments:
            position = table.schema.index_of(column_name)
            value = expr_type(expr, layout)
            column = table.schema.columns[position].dtype
            if value is not None and (value is DataType.TEXT) != (
                    column is DataType.TEXT):
                raise BindError(f"cannot assign {value.value} to "
                                f"{column.value} column {column_name!r}")
            positions.append(position)
        return _VictimBinding(table, layout, positions,
                              self._index_keys(name))

    def _run_update(self, statement: ast.Update,
                    binding: _VictimBinding) -> ResultSet:
        table = binding.table
        scan = self._victim_scan(statement, binding)
        assignments = [(position, compile_expr(expr, binding.layout))
                       for position, (_, expr)
                       in zip(binding.positions, statement.assignments)]
        # every victim is read before the first write, so an update that
        # moves rows along the scanned key (SET id = id + 1000 WHERE
        # id >= k) never meets its own output
        victims = list(scan.rid_rows())
        for rid, row in victims:
            new_row = list(row)
            for position, evaluator in assignments:
                new_row[position] = evaluator(row)
            # heap first: a row it refuses (UNIQUE) keeps its postings.
            # update returns the rid the row now lives at (a fresh one
            # when a sharded row moves to another shard)
            new_rid = table.update(rid, new_row)
            stored = table.read(new_rid)
            for index, position in binding.indexes:
                index.delete(row[position], rid)
                index.insert(stored[position], new_rid)
        return _status(f"UPDATE {len(victims)}", rowcount=len(victims))

    def _run_delete(self, statement: ast.Delete,
                    binding: _VictimBinding) -> ResultSet:
        victims = list(self._victim_scan(statement, binding).rid_rows())
        for rid, row in victims:
            binding.table.delete(rid)
            for index, position in binding.indexes:
                index.delete(row[position], rid)
        return _status(f"DELETE {len(victims)}", rowcount=len(victims))

    def _victim_scan(self, statement: "ast.Update | ast.Delete",
                     binding: _VictimBinding):
        """The scan operator an UPDATE / DELETE reads its victims from:
        the planner's access path for the WHERE clause, built like any
        SELECT's scan (and kept as ``executor.last_run`` for EXPLAIN
        ANALYZE)."""
        node = self.planner.victim_path(binding.table.name, statement.where)
        operator = self.executor.build(node)
        self.executor.last_run = (node, operator)
        return operator

    def _index_keys(self, table_name: str) -> list[tuple[Any, int]]:
        """``(index, key position in the row)`` for every index on the
        table, resolved once per statement."""
        schema = self.catalog.table(table_name).schema
        return [(entry.index, schema.index_of(entry.column))
                for entry in self.catalog.indexes_on(table_name)]

    # -- PREDICT (the in-database AI analytics path) ------------------------------

    def _run_predict(self, statement: ast.Predict,
                     force_retrain: bool) -> ResultSet:
        ctx = self.bind_predict(statement)
        trained_now = self.ensure_predict_model(ctx, force_retrain)
        features, _, _ = self.prediction_inputs(ctx)
        # no rows, no inference: the model is not even loaded
        predictions = (self.ai_engine.infer(
            InferenceTask(model_name=ctx.model_name), features).predictions
            if features else None)
        return self.predict_result(ctx, features, predictions, trained_now)

    def bind_predict(self, statement: ast.Predict) -> PredictContext:
        """Resolve a PREDICT statement against the catalog (no charges)."""
        table = self.catalog.table(statement.table)
        schema = table.schema
        target = statement.target.lower()
        if not schema.has_column(target):
            raise BindError(f"target column {target!r} not in "
                            f"{statement.table!r}")
        columns = schema.columns
        if columns[schema.index_of(target)].dtype is DataType.TEXT:
            raise BindError(f"target column {target!r} is TEXT, not a "
                            f"number")
        feature_columns = self._feature_columns(statement, schema)
        layout = RowLayout.of_table(statement.table, schema)
        for where in (statement.where, statement.train_filter):
            if where is not None:
                expr_type(where, layout)
        feature_idx = [schema.index_of(c) for c in feature_columns]
        for value_row in statement.inline_rows:
            if len(value_row) != len(feature_idx):
                raise BindError(
                    f"VALUES row has {len(value_row)} values, expected "
                    f"{len(feature_idx)} features")
            for expr, i in zip(value_row, feature_idx):
                # literal types must match: NULL fits any column and INT
                # widens to FLOAT, but an integral FLOAT (2.0) is refused
                # for an INT feature, which INSERT would store as 2
                given = expr_type(expr, NO_COLUMNS)
                wanted = columns[i].dtype
                if given is not None and given is not wanted and not (
                        given is DataType.INT and wanted is DataType.FLOAT):
                    raise BindError(f"VALUES gives {given.value} for "
                                    f"{wanted.value} feature "
                                    f"{columns[i].name!r}")
        model_name = self._model_name(statement, feature_columns)
        return PredictContext(statement=statement, table=table,
                              target=target,
                              feature_columns=feature_columns,
                              layout=layout, feature_idx=feature_idx,
                              model_name=model_name)

    def ensure_predict_model(self, ctx: PredictContext,
                              force_retrain: bool = False) -> bool:
        """Train the bound model when missing (or forced); True if a
        training task actually ran."""
        if not force_retrain and self.models.has_model(ctx.model_name):
            return False
        statement = ctx.statement
        predicate = (compile_predicate_batch(statement.train_filter,
                                             ctx.layout)
                     if statement.train_filter is not None else None)
        data = table_training_set(ctx.table, ctx.feature_columns,
                                  statement.target,
                                  block_predicate=predicate,
                                  clock=self.clock)
        if not data:
            raise ExecutionError(
                "PREDICT has no training rows (check WITH filter and "
                "target NULLs)")
        batch_size = min(512, len(data))
        # small tables need more passes to reach a useful step count;
        # large tables converge within the paper's 1-2 streaming epochs
        steps_wanted = 80
        epochs = max(2, min(100, round(steps_wanted * batch_size
                                       / len(data))))
        task = TrainTask(model_name=ctx.model_name,
                         task_type=statement.task,
                         field_count=len(ctx.feature_columns),
                         epochs=epochs, batch_size=batch_size)
        train_result = self.ai_engine.train(task, data, data.targets)
        self.catalog.bind_model(ctx.model_name, statement.table,
                                ctx.target, ctx.feature_columns)
        self._observe_losses(ctx.model_name, train_result.losses)
        return True

    def predict_result(self, ctx: PredictContext, features: ColumnFeatures,
                        predictions: "np.ndarray | None",
                        trained_now: bool) -> ResultSet:
        """Assemble the PREDICT result set from columnar features plus raw
        model outputs (None for an empty feature set) — one shared
        definition, so the facade and the serving subsystem format
        bit-identically."""
        columns = ctx.feature_columns + [ctx.target]
        if not features:
            return ResultSet(columns=columns, rows=[],
                             extra={"model": ctx.model_name})
        if ctx.statement.task == "classification":
            output = [int(p >= 0.5) for p in predictions]
        else:
            output = [float(p) for p in predictions]
        rows = [tuple(row) + (value,)
                for row, value in zip(features.rows(), output)]
        return ResultSet(columns=columns, rows=rows,
                         extra={"model": ctx.model_name,
                                "trained_now": trained_now,
                                "probabilities": predictions})

    def fine_tune_model(self, table: str, target: str,
                        tune_last_layers: int = 2, epochs: int = 2,
                        learning_rate: float = 5e-3,
                        batch_size: int | None = None,
                        window_rows: int | None = None, *,
                        model_name: str | None = None) -> None:
        """Explicitly trigger the FineTune operator for a bound PREDICT
        model, using the current table contents as the update data.

        The model is ``model_name``, or the one most recently trained for
        ``table.target``; the update data are the columns the catalog
        recorded it was trained on
        (:meth:`~repro.storage.catalog.Catalog.model_binding`).

        ``learning_rate`` and ``batch_size`` tune the incremental update:
        adaptation to a drifted distribution wants a larger step and more
        gradient steps per epoch than the conservative defaults (the
        serving subsystem's refresh worker passes its own).

        ``window_rows`` restricts the update data to the table's most
        recent rows via a *tail scan*
        (:func:`~repro.ai.loader.table_training_set_tail`): only the
        trailing pages covering the window are read and charged, so the
        refresh cost tracks the window, not the table history.  It
        defaults to the connection-level ``refresh_window`` knob, and
        ``None`` there keeps the historical full-table behavior."""
        tune_last_layers = check_at_least("tune_last_layers",
                                          tune_last_layers)
        if tune_last_layers > len(ARMNet.LAYER_NAMES):
            raise ValueError(f"tune_last_layers must be in 1.."
                             f"{len(ARMNet.LAYER_NAMES)}, "
                             f"got {tune_last_layers}")
        epochs = check_at_least("epochs", epochs)
        if batch_size is not None:
            batch_size = check_at_least("batch_size", batch_size)
        if window_rows is not None:
            window_rows = check_at_least("window_rows", window_rows)
        if model_name is None:
            model_name = self.catalog.bound_model(table, target)
        binding = self.catalog.model_binding(model_name)
        if binding is None or binding[:2] != (table.lower(), target.lower()):
            raise NeurDBError(f"no model bound for {table}.{target}"
                              f" (asked for: {model_name})")
        heap = self.catalog.table(table)
        feature_columns = list(binding.feature_columns)
        # the operator's recorded cost has this load beside the engine's
        # own (tests/feature_hashing_golden.json pins both charges); it
        # reuses the version readers share, the engine builds its own
        self.models.load_model(model_name)
        window = (window_rows if window_rows is not None
                  else self.refresh_window)
        if window is not None:
            data = table_training_set_tail(heap, feature_columns, target,
                                           window, clock=self.clock)
        else:
            data = table_training_set(heap, feature_columns, target,
                                      clock=self.clock)
        if batch_size is None:
            batch_size = min(4096, max(1, len(data)))
        task = FineTuneTask(model_name=model_name,
                            tune_last_layers=tune_last_layers, epochs=epochs,
                            batch_size=batch_size,
                            learning_rate=learning_rate)
        self.ai_engine.fine_tune(task, data, data.targets)

    # -- PREDICT helpers ----------------------------------------------------------

    def _feature_columns(self, statement: ast.Predict,
                         schema: TableSchema) -> list[str]:
        target = statement.target.lower()
        if statement.train_on == ("*",):
            # the paper: '*' excludes unique-constrained columns
            return [c for c in schema.non_unique_column_names()
                    if c != target]
        columns = [c.lower() for c in statement.train_on]
        for column in columns:
            if not schema.has_column(column):
                raise BindError(f"TRAIN ON column {column!r} not in "
                                f"{schema.table_name!r}")
        if target in columns:
            raise BindError("target column cannot be a TRAIN ON feature")
        return columns

    def _model_name(self, statement: ast.Predict,
                    feature_columns: list[str]) -> str:
        # the feature set is part of the model identity: PREDICT with a
        # different TRAIN ON list must not reuse an incompatible model;
        # each column list is hashed once per connection
        columns = tuple(feature_columns)
        signature = self._model_signatures.get(columns)
        if signature is None:
            if len(self._model_signatures) >= _STATEMENT_TABLE_MAX:
                self._model_signatures.clear()
            signature = self._model_signatures[columns] = stable_hash(
                columns, 1 << 32)
        return (f"predict_{statement.table}_{statement.target}"
                f"_{signature:08x}").lower()

    def prediction_inputs(self, ctx: PredictContext,
                           with_targets: bool = False
                           ) -> tuple[ColumnFeatures, Any, Any]:
        """Columnar inference inputs for a bound PREDICT.

        Returns ``(features, targets, target_null)``; the last two are
        None unless ``with_targets`` is set (the serving subsystem asks
        for them to score predictions against ground truth) or the inputs
        are inline VALUES rows (never any targets).  Charges are
        independent of ``with_targets``, so the facade and serving paths
        stay charge-identical.
        """
        statement = ctx.statement
        if statement.inline_rows:
            rows = [tuple(e.value if type(e) is ast.Literal
                          else compile_expr(e, NO_COLUMNS)(())
                          for e in value_row)
                    for value_row in statement.inline_rows]
            columns = ctx.table.schema.columns
            return (ColumnFeatures.from_rows(
                rows, [columns[i].dtype for i in ctx.feature_idx]),
                None, None)
        predicate = (compile_predicate_batch(statement.where, ctx.layout)
                     if statement.where is not None else None)
        return table_feature_columns(
            ctx.table, ctx.feature_columns, block_predicate=predicate,
            target_column=ctx.target if with_targets else None,
            clock=self.clock)

    def _observe_losses(self, model_name: str,
                        losses: Iterable[float]) -> None:
        stream = f"loss:{model_name}"
        self.monitor.ensure_stream(stream, higher_is_better=False,
                                   threshold=0.5, window=5)
        for loss in losses:
            self.monitor.observe(stream, loss)


def _status(message: str, rowcount: int = 0) -> ResultSet:
    return ResultSet(columns=["status"], rows=[(message,)],
                     extra={"rowcount": rowcount})


# the public entry point: ``repro.connect(...)`` builds a fresh instance
connect = NeurDB
