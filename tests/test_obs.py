"""Observability: tracing bit-identity, charge reconciliation, the
metrics registry, structured warning events, and the trace exports.

The two invariants of docs/observability.md:

* **Bit-identity** — attaching a tracer changes nothing: result rows and
  the clock's per-category charged totals are *exactly* equal (``==`` on
  floats) with and without tracing, on every engine at several worker
  counts.  Two identically-built databases run the same statement
  stream, one traced and one not, and must end in identical clock
  states.
* **Reconciliation** — the tracer's float mirror equals the shared
  clock's ``breakdown()``/``now`` bitwise at all times, and per-operator
  fixed-point span sums equal the trace totals with integer ``==`` (no
  silently unattributed charges for a pure SELECT).
"""

from __future__ import annotations

import json

import pytest

import repro
from repro.common.faults import FaultPlan
from repro.exec.executor import Executor
from repro.obs.export import chrome_trace, dump_chrome_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer, from_fix, to_fix
from repro.sql import parse

# every engine the executor exposes, at the worker counts the issue
# gates on (workers only matter for the parallel engine)
ENGINE_CONFIGS = [
    ("row", {}),
    ("batch", {}),
    ("parallel", {"workers": 1}),
    ("parallel", {"workers": 2}),
    ("parallel", {"workers": 4}),
]

TRACE_QUERIES = [
    "SELECT * FROM users WHERE age > 25",
    "SELECT city, count(*), sum(age) FROM users GROUP BY city",
    "SELECT u.name, o.amount FROM users u JOIN orders o "
    "ON u.id = o.user_id WHERE o.amount > 50",
    "SELECT u.city AS city, count(*) AS n, sum(o.amount) AS amt, "
    "max(t.price) AS top FROM users u "
    "JOIN orders o ON u.id = o.user_id "
    "JOIN items t ON o.item_id = t.iid "
    "WHERE o.amount > 20 GROUP BY u.city ORDER BY city",
]


def _build_db(tracing: bool = False):
    db = repro.connect(tracing=tracing)
    db.execute("CREATE TABLE users (id INT UNIQUE, name TEXT, age INT, "
               "city TEXT)")
    db.execute("CREATE TABLE orders (oid INT UNIQUE, user_id INT, "
               "amount FLOAT, item_id INT)")
    db.execute("CREATE TABLE items (iid INT UNIQUE, label TEXT, "
               "price FLOAT)")
    for i in range(40):
        db.execute(f"INSERT INTO users VALUES ({i}, 'user{i}', "
                   f"{20 + i % 30}, 'c{i % 4}')")
    for i in range(30):
        db.execute(f"INSERT INTO items VALUES ({i}, 'item{i}', "
                   f"{round(1.5 * i, 2)})")
    for i in range(120):
        db.execute(f"INSERT INTO orders VALUES ({i}, {i % 40}, "
                   f"{round(i * 2.0 + 1, 2)}, {i % 30})")
    db.execute("ANALYZE")
    return db


def _typed(rows):
    return [tuple((type(v), v) for v in row) for row in rows]


# -- bit-identity --------------------------------------------------------------


class TestTracingBitIdentity:
    @pytest.mark.parametrize("engine,kwargs", ENGINE_CONFIGS,
                             ids=[f"{e}-{k}" for e, k in ENGINE_CONFIGS])
    def test_rows_and_charges_identical(self, engine, kwargs):
        """Same build + same statement stream, traced vs untraced: rows
        and the final clock state must be exactly equal."""
        plain = _build_db(tracing=False)
        traced = _build_db(tracing=True)
        assert traced.clock.tracer is not None
        assert plain.clock.tracer is None

        for db in (plain, traced):
            db.executor = Executor(db.catalog, db.clock, engine=engine,
                                   registry=db.registry, **kwargs)
        for sql in TRACE_QUERIES:
            rows_plain = plain.execute(sql).rows
            rows_traced = traced.execute(sql).rows
            assert _typed(rows_traced) == _typed(rows_plain), sql

        assert traced.clock.now == plain.clock.now
        assert dict(traced.clock.breakdown()) == dict(
            plain.clock.breakdown())
        # the session tracer reconciles with its clock the whole way
        tracer = traced.clock.tracer
        assert tracer.float_totals() == dict(traced.clock.breakdown())
        assert tracer.float_now == traced.clock.now


# -- reconciliation ------------------------------------------------------------


class TestReconciliation:
    @pytest.mark.parametrize("engine,kwargs", ENGINE_CONFIGS,
                             ids=[f"{e}-{k}" for e, k in ENGINE_CONFIGS])
    def test_operator_spans_cover_fix_totals(self, engine, kwargs):
        """Per-operator fixed-point sums equal the trace totals with
        integer ``==`` — nothing a pure SELECT charges escapes operator
        attribution, on any engine."""
        db = _build_db()
        for sql in TRACE_QUERIES:
            executor = Executor(db.catalog, db.clock, engine=engine,
                                registry=db.registry, **kwargs)
            plan = db.planner.plan_select(parse(sql))
            executor.run(plan)  # warm caches outside the trace
            tracer = Tracer()
            tracer.attach(db.clock)
            try:
                executor.run(plan)
            finally:
                Tracer.detach(db.clock)
            totals = tracer.fix_totals()
            attributed: dict[str, int] = {}
            for span in tracer.spans_of_kind("operator"):
                for category, fix in span.fix.items():
                    attributed[category] = (
                        attributed.get(category, 0) + fix)
            assert attributed == totals, sql
            # the float mirror tracks the shared clock bitwise
            assert tracer.float_totals() == dict(db.clock.breakdown())
            assert tracer.float_now == db.clock.now

    def test_mirror_tracks_clock_through_session(self):
        """A session tracer (attached before any work) mirrors the clock
        exactly through DDL, inserts, ANALYZE, and queries."""
        db = _build_db(tracing=True)
        for sql in TRACE_QUERIES:
            db.execute(sql)
        tracer = db.clock.tracer
        assert tracer.float_totals() == dict(db.clock.breakdown())
        assert tracer.float_now == db.clock.now

    def test_session_tracer_survives_scoped_statements(self):
        """EXPLAIN ANALYZE and profile() swap in statement-scoped
        tracers; the session tracer must reconcile again afterwards."""
        db = _build_db(tracing=True)
        session = db.clock.tracer
        db.execute("EXPLAIN ANALYZE SELECT count(*) FROM users")
        db.profile("SELECT city, count(*) FROM users GROUP BY city")
        assert db.clock.tracer is session
        assert session.float_totals() == dict(db.clock.breakdown())
        assert session.float_now == db.clock.now

    def test_fix_round_trip_is_exact(self):
        for value in (0.0, 1e-9, 3.5e-7, 0.125, 1.0, 123.456):
            assert from_fix(to_fix(value)) == value
        # associativity: the whole point of the fixed-point books
        parts = [1e-9, 3e-10, 2.5e-7, 1.7e-8] * 10
        left = sum(to_fix(p) for p in parts)
        right = sum(to_fix(p) for p in reversed(parts))
        assert left == right


# -- span structure ------------------------------------------------------------


class TestSpans:
    def test_worker_task_spans_on_parallel_engine(self):
        db = _build_db()
        executor = Executor(db.catalog, db.clock, engine="parallel",
                            workers=2, morsel_rows=16,
                            registry=db.registry)
        plan = db.planner.plan_select(parse(TRACE_QUERIES[1]))
        tracer = Tracer()
        tracer.attach(db.clock)
        try:
            executor.run(plan)
        finally:
            Tracer.detach(db.clock)
        tasks = tracer.spans_of_kind("task")
        assert tasks, "parallel run produced no worker task spans"
        for span in tasks:
            assert span.start is not None and span.end is not None
            assert span.end >= span.start
        workers = {span.attrs.get("worker") for span in tasks}
        assert len(workers) >= 1

    def test_fault_events_and_spans_equal_across_workers(self):
        """Placed tasks run on the statement's own thread, so a retry or
        crash event lands in the statement's span at every ``workers``,
        in morsel order — and everything but the task spans' placement
        on the modeled workers is equal across worker counts."""
        traces = []
        for workers in (1, 2, 4):
            db = _build_db()
            plan = (FaultPlan(seed=1).arm("task_error", rate=0.3)
                    .arm("worker_crash", rate=0.2))
            executor = Executor(db.catalog, db.clock, engine="parallel",
                                workers=workers, morsel_rows=8,
                                faults=plan, retry_limit=8)
            tracer = Tracer()
            tracer.attach(db.clock)
            try:
                with tracer.span("q", "statement",
                                 clock=db.clock) as statement:
                    result = executor.run(
                        db.planner.plan_select(parse(TRACE_QUERIES[1])))
            finally:
                Tracer.detach(db.clock)
            events = [(event["name"], event["span_id"], event["phase"],
                       event["morsel"], event["attempt"])
                      for event in tracer.events]
            assert {name for name, *_ in events} \
                == {"task_retry", "worker_crash"}
            assert {span_id for _, span_id, *_ in events} \
                == {statement.span_id}
            spans = [(span.span_id, span.name, span.kind, span.parent_id,
                      span.start, span.end, span.fix, span.counts)
                     for span in tracer.spans if span.kind != "task"]
            assert len(tracer.spans_of_kind("task")) \
                == result.extra["parallel"]["tasks"] + len(events)
            traces.append((events, spans, _typed(result.rows)))
        assert traces[0] == traces[1] == traces[2]

    @pytest.mark.parametrize("engine, knobs", [
        ("parallel", {}), ("distributed", {"nodes": 2})])
    def test_task_spans_name_the_morsel_they_ran(self, engine, knobs):
        """A span carries the (phase, morsel, attempt) its dispatch ran,
        not its position among the phase's attempts: with 3 morsels and
        one crash at morsel 1, the scan phase's spans are morsel 0, 1,
        1 (attempt 1), 2 — and a fault event is labelled like the span of
        the attempt it ended."""
        db = repro.connect()
        db.execute("CREATE TABLE t (id INT, v FLOAT)")
        heap = db.catalog.table("t")
        for i in range(48):
            heap.insert((i, i * 0.5))
        plan = FaultPlan(seed=0).arm("worker_crash", times=(1,))
        executor = Executor(db.catalog, db.clock, engine=engine, workers=2,
                            morsel_rows=16, faults=plan, **knobs)
        tracer = Tracer()
        tracer.attach(db.clock)
        try:
            result = executor.run(db.planner.plan_select(
                parse("SELECT id FROM t WHERE v >= 0")))
        finally:
            Tracer.detach(db.clock)
        assert len(result.rows) == 48
        spans = tracer.spans_of_kind("task")
        assert [(s.attrs["phase"], s.attrs["morsel"], s.attrs["attempt"])
                for s in spans] == [(0, 0, 0), (0, 1, 0), (0, 1, 1),
                                    (0, 2, 0)]
        assert [s.name for s in spans] == [
            "morsel p0.0", "morsel p0.1", "morsel p0.1 retry 1",
            "morsel p0.2"]
        assert all(s.attrs["node"] == 0 for s in spans)
        assert {s.attrs["worker"] for s in spans} <= {0, 1}
        crash, = tracer.events
        assert crash["name"] == "worker_crash"
        assert (crash["phase"], crash["morsel"], crash["attempt"],
                crash["node"]) == (0, 1, 0, 0)

    def test_statement_span_owns_charges(self):
        db = _build_db()
        tracer = Tracer()
        tracer.attach(db.clock)
        try:
            with tracer.span("INSERT", "statement", clock=db.clock):
                db.execute("INSERT INTO users VALUES (999, 'x', 1, 'c0')")
        finally:
            Tracer.detach(db.clock)
        statements = tracer.spans_of_kind("statement")
        assert len(statements) == 1
        span = statements[0]
        assert span.total() > 0
        assert span.end > span.start


# -- metrics registry ----------------------------------------------------------


class TestMetricsRegistry:
    def test_instruments(self):
        registry = MetricsRegistry()
        registry.counter("exec.task_retries").inc()
        registry.counter("exec.task_retries").inc(2)
        registry.gauge("serve.queue_depth").set(7)
        registry.histogram("serve.latency").observe(2e-4)
        registry.counter("faults.injected", kind="task_error").inc()
        snap = registry.snapshot()
        assert snap["counters"]["exec.task_retries"] == 3
        assert snap["counters"]["faults.injected{kind=task_error}"] == 1
        assert snap["gauges"]["serve.queue_depth"] == 7.0
        assert snap["histograms"]["serve.latency"]["count"] == 1

    def test_collectors_feed_snapshot(self):
        registry = MetricsRegistry()
        registry.add_collector(lambda: {"buffer.hit_ratio": 0.75})
        assert registry.snapshot()["gauges"]["buffer.hit_ratio"] == 0.75

    def test_db_metrics_absorbs_component_stats(self):
        db = _build_db()
        db.execute("SELECT count(*) FROM users")
        gauges = db.metrics()["gauges"]
        assert any(key.startswith("buffer.") for key in gauges)
        assert "db.query_retries_total" in gauges

    def test_template_cache_gauges(self):
        # process-wide counts: compare before and after, never absolutes
        db = _build_db()
        before = db.metrics()["gauges"]
        for i in range(10):
            db.execute(f"SELECT name, age FROM users WHERE id = {i * 3}")
        after = db.metrics()["gauges"]
        assert after["sql.templates"] >= 1
        assert (after["sql.template_hits_total"]
                - before["sql.template_hits_total"]) >= 9
        assert (after["sql.template_misses_total"]
                - before["sql.template_misses_total"]) <= 1

    def test_fault_counts_surfaced(self):
        # seed 1 at rate 0.3 injects several task errors that the
        # scheduler's own retries absorb (no Db-level retry needed)
        plan = FaultPlan(seed=1).arm("task_error", rate=0.3)
        db = repro.connect(faults=plan)
        db.execute("CREATE TABLE t (id INT, v FLOAT)")
        for i in range(64):
            db.execute(f"INSERT INTO t VALUES ({i}, {i * 0.5})")
        db.execute("ANALYZE")
        db.executor = Executor(db.catalog, db.clock, engine="parallel",
                               workers=4, morsel_rows=8, faults=plan,
                               retry_limit=8, registry=db.registry)
        db.execute("SELECT id, v FROM t WHERE v > 1")
        gauges = db.metrics()["gauges"]
        injected = {key: value for key, value in gauges.items()
                    if key.startswith("faults.injected")}
        assert injected, "no fault-injection gauges surfaced"
        assert sum(injected.values()) == sum(plan.counts().values())


# -- structured warnings -------------------------------------------------------


class TestWarningEvents:
    def test_retry_warnings_are_structured_events(self):
        # seed 1 at rate 0.3 with no scheduler retries escalates several
        # transient failures to the Db retry loop before succeeding
        plan = FaultPlan(seed=1).arm("task_error", rate=0.3)
        db = repro.connect(faults=plan,
                           retry_policy=repro.RetryPolicy(
                               max_retries=50, backoff=1e-4))
        db.execute("CREATE TABLE t (id INT, v FLOAT)")
        for i in range(64):
            db.execute(f"INSERT INTO t VALUES ({i}, {i * 0.5})")
        db.execute("ANALYZE")
        db.executor = Executor(db.catalog, db.clock, engine="parallel",
                               workers=2, morsel_rows=16, faults=plan,
                               retry_limit=0, registry=db.registry)
        db.execute("SELECT id, v FROM t WHERE v > 1")
        assert db.query_retries >= 1
        events = db.registry.events(kind="db.retry")
        assert len(events) == db.query_retries
        for event in events:
            assert event["attempt"] >= 1
            assert event["error"]
            assert event["statement"]
            assert event["time"] is not None
        # the string accessor is a rendered view over the same events
        assert db.warnings() == db.registry.event_messages(prefix="db.")
        assert db.metrics()["counters"]["db.query_retries"] \
            == db.query_retries



# -- chrome trace export -------------------------------------------------------


class TestChromeTraceExport:
    def test_profile_returns_trace(self):
        db = _build_db()
        result, trace = db.profile(TRACE_QUERIES[1])
        assert result.rows
        assert trace["displayTimeUnit"] == "ms"
        events = trace["traceEvents"]
        phases = {event["ph"] for event in events}
        assert "X" in phases, "no duration events in the trace"
        durations = [e for e in events if e["ph"] == "X"]
        assert all(e["dur"] >= 0 for e in durations)

    def test_profile_is_observation_only(self):
        plain = _build_db()
        profiled = _build_db()
        baseline = plain.execute(TRACE_QUERIES[3])
        result, _ = profiled.profile(TRACE_QUERIES[3])
        assert _typed(result.rows) == _typed(baseline.rows)
        assert dict(profiled.clock.breakdown()) == dict(
            plain.clock.breakdown())

    def test_dump_chrome_trace(self, tmp_path):
        db = _build_db()
        path = tmp_path / "trace.json"
        db.profile(TRACE_QUERIES[0], path=str(path))
        loaded = json.loads(path.read_text())
        assert loaded["traceEvents"]

    def test_chrome_trace_from_tracer(self):
        db = _build_db()
        tracer = Tracer()
        tracer.attach(db.clock)
        try:
            with tracer.span("q", "statement", clock=db.clock):
                db.execute(TRACE_QUERIES[0])
        finally:
            Tracer.detach(db.clock)
        trace = chrome_trace(tracer)
        assert any(e["ph"] == "X" for e in trace["traceEvents"])
        dumped = dump_chrome_trace.__name__  # exported alongside
        assert dumped == "dump_chrome_trace"


# -- serving traces ------------------------------------------------------------


class TestServingTraces:
    def _serving_db(self):
        db = repro.connect(tracing=True)
        db.execute("CREATE TABLE clicks (cid INT UNIQUE, a FLOAT, "
                   "b FLOAT, y FLOAT)")
        for i in range(120):
            a, b = (i % 10) / 10.0, (i % 7) / 7.0
            db.execute(f"INSERT INTO clicks VALUES ({i}, {a:.4f}, "
                       f"{b:.4f}, {3 * a - 2 * b + 1:.4f})")
        db.execute("ANALYZE")
        return db

    def test_request_and_batch_spans(self):
        from repro.serve import PredictServer

        db = self._serving_db()
        server = PredictServer(db)
        sql = ("PREDICT VALUE OF y FROM clicks TRAIN ON a, b "
               "VALUES (0.5, 0.5)")
        first = server.submit(sql, at=0.0)
        second = server.submit(sql, at=1.0)
        server.drain()
        assert first.error is None and second.error is None

        tracer = db.clock.tracer
        batches = tracer.spans_of_kind("batch")
        requests = tracer.spans_of_kind("request")
        assert batches and requests
        for span in requests:
            assert span.attrs["request_id"] in (first.request_id,
                                                second.request_id)
            assert span.start is not None and span.end is not None

        trace = server.request_trace(first.request_id)
        ids = {event.get("args", {}).get("request_id")
               for event in trace["traceEvents"]}
        assert first.request_id in ids
        assert second.request_id not in ids

    def test_server_stats_in_registry(self):
        from repro.serve import PredictServer

        db = self._serving_db()
        server = PredictServer(db)
        server.submit("PREDICT VALUE OF y FROM clicks TRAIN ON a, b "
                      "VALUES (0.2, 0.8)", at=0.0)
        server.drain()
        gauges = db.metrics()["gauges"]
        assert any(key.startswith("serve.") for key in gauges)
        # the legacy accessor still works as a thin view
        stats = server.stats()
        assert stats["requests"] == 1 and stats["failed"] == 0


# -- bench metadata ------------------------------------------------------------


class TestBenchMetadata:
    def test_write_bench_json_stamps_meta(self, tmp_path):
        from repro.bench.reporting import (BENCH_SCHEMA_VERSION,
                                           write_bench_json)

        path = tmp_path / "BENCH_x.json"
        stamped = write_bench_json(
            str(path), {"result": 1}, smoke=True,
            seeds={"numpy_rng": 7}, workload={"rows": 100})
        loaded = json.loads(path.read_text())
        assert loaded == stamped
        meta = loaded["meta"]
        assert meta["schema_version"] == BENCH_SCHEMA_VERSION
        assert meta["smoke"] is True
        assert meta["seeds"] == {"numpy_rng": 7}
        assert meta["workload"] == {"rows": 100}
        assert loaded["result"] == 1
