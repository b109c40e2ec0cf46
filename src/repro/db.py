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

from dataclasses import dataclass
from typing import Any, Iterable

import numpy as np

from repro.ai.engine import AIEngine
from repro.ai.loader import (ColumnFeatures, table_feature_columns,
                             table_training_set, table_training_set_tail)
from repro.ai.model_manager import ModelManager
from repro.ai.monitor import Monitor
from repro.ai.tasks import FineTuneTask, InferenceTask, TrainTask
from repro.common import categories as cat
from repro.common.errors import (BindError, ExecutionError, NeurDBError,
                                 is_retryable)
from repro.common.faults import FaultPlan
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
from repro.sql.parser import parse, template_stats
from repro.storage.catalog import Catalog
from repro.storage.schema import Column, TableSchema
from repro.storage.types import DataType


@dataclass(frozen=True)
class RetryPolicy:
    """How the facade retries transiently failed statements.

    A statement whose execution raises a *retryable* error
    (:func:`~repro.common.errors.is_retryable`: ``TransientError``,
    ``WorkerCrash``, ``ReplicaUnavailable``...) is re-executed up to
    ``max_retries`` times; each retry first charges an exponential
    backoff (``backoff * 2**(attempt-1)`` virtual seconds, category
    ``retry-backoff``) to the shared clock, so recovery cost is modeled
    like any other.  Retries re-execute the whole statement — safe for
    reads, and for writes because the storage layer raises its retryable
    errors before applying any mutation.
    """

    max_retries: int = 2
    backoff: float = 1e-3

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff < 0:
            raise ValueError(f"backoff must be >= 0, got {self.backoff}")


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


class NeurDB:
    """An in-process NeurDB instance.

    ``refresh_window`` bounds how many of the table's most recent rows a
    background refresh fine-tunes on (:meth:`fine_tune_model`'s default
    window): on a regime shift the freshest rows carry the new
    distribution, so a sliding window adapts faster *and* cheaper than
    re-fitting the full history.  None (the default) preserves the
    historical full-table behavior.

    Robustness knobs (``docs/faults.md``): ``faults`` threads a seeded
    :class:`~repro.common.faults.FaultPlan` into the catalog (replica
    outages) and executor (worker crashes / transient task errors);
    ``replication`` backs every created table with a primary/backup
    :class:`~repro.storage.replica.ReplicatedTable`; ``retry_policy``
    makes :meth:`execute` retry transiently failed statements with
    charged exponential backoff.  Absorbed failures surface through
    :meth:`warnings`.
    """

    def __init__(self, num_runtimes: int = 1, buffer_pages: int = 4096,
                 refresh_window: int | None = None,
                 faults: FaultPlan | None = None,
                 replication: bool = False,
                 retry_policy: "RetryPolicy | int | None" = None,
                 tracing: bool = False, shards: int | None = None,
                 engine: str = "batch", nodes: int | None = None):
        if refresh_window is not None and refresh_window < 1:
            raise ValueError(
                f"refresh_window must be >= 1 or None, got {refresh_window}")
        if isinstance(retry_policy, int):
            retry_policy = RetryPolicy(max_retries=retry_policy)
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

    # -- public API ----------------------------------------------------------

    def execute(self, sql: str, force_retrain: bool = False) -> ResultSet:
        """Parse and run one SQL statement."""
        statement = parse(sql)
        return self.execute_statement(statement, force_retrain=force_retrain)

    def execute_script(self, sql: str) -> list[ResultSet]:
        """Run a ``;``-separated script; returns one result per statement."""
        from repro.sql.parser import parse_script
        return [self.execute_statement(s) for s in parse_script(sql)]

    def execute_statement(self, statement: ast.Statement,
                          force_retrain: bool = False) -> ResultSet:
        """Run one parsed statement under the connection's retry policy:
        transiently failed statements (injected faults, replica outages,
        exhausted scheduler budgets) are re-executed after a charged
        exponential backoff, up to ``retry_policy.max_retries`` times.
        Each retry is recorded in :meth:`warnings` and
        ``query_retries``."""
        policy = self.retry_policy
        attempt = 0
        while True:
            try:
                return self._dispatch_statement(statement, force_retrain)
            except Exception as exc:
                if (policy is None or not is_retryable(exc)
                        or attempt >= policy.max_retries):
                    raise
                attempt += 1
                self.query_retries += 1
                self.clock.advance(policy.backoff * (2 ** (attempt - 1)),
                                   cat.RETRY_BACKOFF)
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
                            force_retrain: bool = False) -> ResultSet:
        if isinstance(statement, ast.Select):
            plan = self.planner.plan_select(statement)
            return self.executor.run(plan)
        if isinstance(statement, ast.Insert):
            return self._run_insert(statement)
        if isinstance(statement, ast.Update):
            return self._run_update(statement)
        if isinstance(statement, ast.Delete):
            return self._run_delete(statement)
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
                         plan_text=result.plan_text,
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

    def _collect_component_gauges(self) -> dict[str, float]:
        gauges = {f"buffer.{key}": float(value)
                  for key, value in self.buffer_pool.snapshot().items()}
        if self.faults is not None:
            for kind, count in self.faults.counts().items():
                gauges[f"faults.injected{{kind={kind}}}"] = float(count)
        gauges["db.query_retries_total"] = float(self.query_retries)
        # the parser's template cache is shared by every connection in
        # the process, so these three count other connections' statements
        templates = template_stats()
        gauges["sql.templates"] = float(templates["templates"])
        gauges["sql.template_hits_total"] = float(templates["hits"])
        gauges["sql.template_misses_total"] = float(templates["misses"])
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

    def _run_insert(self, statement: ast.Insert) -> ResultSet:
        table = self.catalog.table(statement.table)
        schema = table.schema
        if statement.columns:
            positions = [schema.index_of(c) for c in statement.columns]
        else:
            positions = list(range(len(schema)))
        # every row is checked before the first one is written
        for value_row in statement.rows:
            if len(value_row) != len(positions):
                raise ExecutionError(
                    f"INSERT expects {len(positions)} values, "
                    f"got {len(value_row)}")
            for expr in value_row:
                expr_type(expr, NO_COLUMNS)
        indexes = self._index_keys(statement.table)
        inserted = 0
        for value_row in statement.rows:
            full: list[Any] = [None] * len(schema)
            for position, expr in zip(positions, value_row):
                full[position] = compile_expr(expr, NO_COLUMNS)(())
            rid = table.insert(full)
            stored = table.read(rid)
            for index, position in indexes:
                index.insert(stored[position], rid)
            inserted += 1
        return _status(f"INSERT {inserted}", rowcount=inserted)

    def _run_update(self, statement: ast.Update) -> ResultSet:
        table = self.catalog.table(statement.table)
        scan = self._victim_scan(statement)
        assignments = []
        for name, expr in statement.assignments:
            position = table.schema.index_of(name)
            value = expr_type(expr, scan.layout)
            column = table.schema.columns[position].dtype
            if value is not None and (value is DataType.TEXT) != (
                    column is DataType.TEXT):
                raise BindError(f"cannot assign {value.value} to "
                                f"{column.value} column {name!r}")
            assignments.append((position, compile_expr(expr, scan.layout)))
        indexes = self._index_keys(statement.table)
        # every victim is read before the first write, so an update that
        # moves rows along the scanned key (SET id = id + 1000 WHERE
        # id >= k) never meets its own output
        victims = list(scan.rid_rows())
        for rid, row in victims:
            new_row = list(row)
            for position, evaluator in assignments:
                new_row[position] = evaluator(row)
            # heap first: a row it refuses (UNIQUE) keeps its postings.
            # A sharded update that moves the row to another shard
            # returns the fresh rid; heap updates return None (rid kept)
            new_rid = table.update(rid, new_row) or rid
            stored = table.read(new_rid)
            for index, position in indexes:
                index.delete(row[position], rid)
                index.insert(stored[position], new_rid)
        return _status(f"UPDATE {len(victims)}", rowcount=len(victims))

    def _run_delete(self, statement: ast.Delete) -> ResultSet:
        table = self.catalog.table(statement.table)
        indexes = self._index_keys(statement.table)
        victims = list(self._victim_scan(statement).rid_rows())
        for rid, row in victims:
            table.delete(rid)
            for index, position in indexes:
                index.delete(row[position], rid)
        return _status(f"DELETE {len(victims)}", rowcount=len(victims))

    def _victim_scan(self, statement: "ast.Update | ast.Delete"):
        """The scan operator an UPDATE / DELETE reads its victims from:
        the planner's access path for the WHERE clause, built like any
        SELECT's scan (and kept as ``executor.last_run`` for EXPLAIN
        ANALYZE)."""
        node = self.planner.access_path(statement.table, statement.where)
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
        feature_columns = self._feature_columns(statement, schema)
        layout = RowLayout.of_table(statement.table, schema)
        for where in (statement.where, statement.train_filter):
            if where is not None:
                expr_type(where, layout)
        for value_row in statement.inline_rows:
            for expr in value_row:
                expr_type(expr, NO_COLUMNS)
        feature_idx = [schema.index_of(c) for c in feature_columns]
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
        if model_name is None:
            model_name = self.catalog.bound_model(table, target)
        binding = self.catalog.model_binding(model_name)
        if binding is None or binding[:2] != (table.lower(), target.lower()):
            raise NeurDBError(f"no model bound for {table}.{target}"
                              f" (asked for: {model_name})")
        heap = self.catalog.table(table)
        feature_columns = list(binding.feature_columns)
        # the operator's recorded cost has this load beside the engine's
        # own (tests/feature_hashing_golden.json pins both charges)
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
                            batch_size=max(1, batch_size),
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
        # different TRAIN ON list must not reuse an incompatible model
        from repro.common.rng import stable_hash
        signature = stable_hash(tuple(feature_columns), 1 << 32)
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
            rows = []
            for value_row in statement.inline_rows:
                if len(value_row) != len(ctx.feature_idx):
                    raise ExecutionError(
                        f"VALUES row has {len(value_row)} values, expected "
                        f"{len(ctx.feature_idx)} features")
                rows.append(tuple(compile_expr(e, NO_COLUMNS)(())
                                  for e in value_row))
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


def connect(num_runtimes: int = 1, buffer_pages: int = 4096,
            refresh_window: int | None = None,
            faults: FaultPlan | None = None, replication: bool = False,
            retry_policy: "RetryPolicy | int | None" = None,
            tracing: bool = False, shards: int | None = None,
            engine: str = "batch", nodes: int | None = None) -> NeurDB:
    """Create a fresh in-process NeurDB instance.

    ``refresh_window``: fine-tune refreshes (manual or the serving
    subsystem's background ones) train on only the table's most recent
    rows; None = full table (the historical behavior).

    ``faults`` / ``replication`` / ``retry_policy``: the robustness
    knobs (``docs/faults.md``) — a seeded fault plan injected across the
    engine, primary/backup replication for every created table, and
    bounded retry of transiently failed statements (pass a
    :class:`RetryPolicy` or an int shorthand for ``max_retries``).

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
    return NeurDB(num_runtimes=num_runtimes, buffer_pages=buffer_pages,
                  refresh_window=refresh_window, faults=faults,
                  replication=replication, retry_policy=retry_policy,
                  tracing=tracing, shards=shards, engine=engine, nodes=nodes)
