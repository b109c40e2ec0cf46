"""The serving subsystem: parity, micro-batching, model cache, refresh.

The acceptance contract (see ``docs/serving.md``):

* a single PREDICT served through :class:`~repro.serve.PredictServer`
  returns bit-identical rows AND charges bit-identical virtual time to the
  same statement through ``Db.execute``;
* compatible concurrent requests coalesce into micro-batches that charge
  strictly less than per-request serving;
* the model cache is a versioned LRU; in-flight batches pin their version
  while a background refresh swaps the serving version atomically at a
  batch boundary.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

import repro
from repro.ai.loader import table_training_set
from repro.ai.tasks import InferenceTask
from repro.common.errors import ExecutionError, NeurDBError, ParseError
from repro.exec.executor import ResultSet
from repro.exec.expr import RowLayout
from repro.serve import ModelCache, PredictServer
from repro.serve.server import RETAINED_REQUESTS, PredictRequest
from repro.sql import ast
from repro.sql.parser import parse

REVIEW_SQL = ("PREDICT VALUE OF score FROM review "
              "WHERE brand_name = 'special goods' "
              "TRAIN ON f1, f2 WITH brand_name <> 'special goods'")


def _build_review_db(n: int = 120):
    db = repro.connect()
    db.execute("CREATE TABLE review (rid INT UNIQUE, brand_name TEXT, "
               "f1 FLOAT, f2 FLOAT, score FLOAT)")
    rng = np.random.default_rng(0)
    for i in range(n):
        brand = "special goods" if i % 5 == 0 else "acme"
        f1, f2 = float(rng.random()), float(rng.random())
        score = "NULL" if i % 5 == 0 else f"{3 * f1 - 2 * f2 + 1:.4f}"
        db.execute(f"INSERT INTO review VALUES ({i}, '{brand}', "
                   f"{f1:.4f}, {f2:.4f}, {score})")
    db.execute("ANALYZE")
    return db


def _typed(rows):
    return [tuple((type(v), v) for v in row) for row in rows]


class TestSingleRequestParity:
    def test_rows_and_charges_bit_identical(self):
        db_direct = _build_review_db()
        before = db_direct.clock.now
        expected = db_direct.execute(REVIEW_SQL)
        direct_cost = db_direct.clock.now - before
        direct_breakdown = db_direct.clock.breakdown()

        db_served = _build_review_db()
        server = PredictServer(db_served)
        before = db_served.clock.now
        request = server.submit(REVIEW_SQL)
        server.drain()
        served_cost = db_served.clock.now - before

        assert request.error is None
        assert request.result.columns == expected.columns
        assert _typed(request.result.rows) == _typed(expected.rows)
        assert request.result.extra["model"] == expected.extra["model"]
        # bit-identical charged virtual time, category by category
        assert served_cost == direct_cost
        assert db_served.clock.breakdown() == direct_breakdown

    def test_inline_values_parity(self):
        db_direct = _build_review_db()
        sql = ("PREDICT VALUE OF score FROM review TRAIN ON f1, f2 "
               "WITH brand_name <> 'special goods' "
               "VALUES (0.9, 0.1), (0.2, 0.8)")
        expected = db_direct.execute(sql)
        db_served = _build_review_db()
        server = PredictServer(db_served)
        request = server.submit(sql)
        server.drain()
        assert _typed(request.result.rows) == _typed(expected.rows)
        assert db_served.clock.now == db_direct.clock.now

    def test_empty_prediction_set_parity(self):
        sql = ("PREDICT VALUE OF score FROM review "
               "WHERE brand_name = 'nobody' "
               "TRAIN ON f1, f2 WITH brand_name <> 'special goods'")
        db_direct = _build_review_db()
        expected = db_direct.execute(sql)
        db_served = _build_review_db()
        server = PredictServer(db_served)
        request = server.submit(sql)
        server.drain()
        assert request.result.rows == [] == expected.rows
        assert request.result.extra == expected.extra
        assert db_served.clock.now == db_direct.clock.now


class TestMicroBatching:
    def test_concurrent_compatible_requests_coalesce(self):
        db = _build_review_db()
        server = PredictServer(db, max_batch_requests=8)
        requests = [server.submit(REVIEW_SQL, at=0.0) for _ in range(5)]
        server.drain()
        assert {r.batch_id for r in requests} == {requests[0].batch_id}
        assert all(r.batched_with == 5 for r in requests)
        stats = server.stats()
        assert stats["batches"] == 1 and stats["requests"] == 5

    def test_batched_charges_less_than_per_request(self):
        db_batched = _build_review_db()
        batched = PredictServer(db_batched, max_batch_requests=8)
        for _ in range(6):
            batched.submit(REVIEW_SQL, at=0.0)
        batched.drain()

        db_serial = _build_review_db()
        serial = PredictServer(db_serial, max_batch_requests=1,
                               model_cache_size=1)
        for _ in range(6):
            serial.submit(REVIEW_SQL, at=0.0)
        serial.drain()

        assert db_batched.clock.now < db_serial.clock.now
        assert batched.stats()["batches"] == 1
        assert serial.stats()["batches"] == 6

    def test_batched_predictions_match_serial(self):
        db_batched = _build_review_db()
        batched = PredictServer(db_batched, max_batch_requests=8)
        batched_requests = [batched.submit(REVIEW_SQL, at=0.0)
                            for _ in range(3)]
        batched.drain()

        db_serial = _build_review_db()
        serial = PredictServer(db_serial, max_batch_requests=1)
        serial_requests = [serial.submit(REVIEW_SQL, at=0.0)
                           for _ in range(3)]
        serial.drain()

        for b, s in zip(batched_requests, serial_requests):
            assert _typed(b.result.rows) == _typed(s.result.rows)

    def test_incompatible_requests_do_not_coalesce(self):
        db = _build_review_db()
        server = PredictServer(db, max_batch_requests=8)
        one = server.submit(REVIEW_SQL, at=0.0)
        # different TRAIN ON list => different model identity
        other = server.submit(
            "PREDICT VALUE OF score FROM review "
            "WHERE brand_name = 'special goods' TRAIN ON f1 "
            "WITH brand_name <> 'special goods'", at=0.0)
        server.drain()
        assert one.batch_id != other.batch_id
        assert one.model_name != other.model_name

    def test_row_cap_defers_requests_without_rescanning(self):
        db = _build_review_db()
        server = PredictServer(db, max_batch_requests=8, max_batch_rows=30)
        requests = [server.submit(REVIEW_SQL, at=0.0) for _ in range(3)]
        server.drain()
        # each request materializes 24 rows; the cap of 30 splits 3
        # requests across >= 2 batches, and everyone still completes
        assert len({r.batch_id for r in requests}) >= 2
        assert all(r.result is not None for r in requests)

    def test_later_arrivals_form_later_batches(self):
        db = _build_review_db()
        server = PredictServer(db, max_batch_requests=8)
        first = server.submit(REVIEW_SQL, at=0.0)
        late = server.submit(REVIEW_SQL, at=1e9)  # far beyond batch one
        server.drain()
        assert first.batch_id != late.batch_id
        assert late.started_at >= 1e9
        assert first.latency < late.arrival

    def test_bind_error_fails_single_request_not_server(self):
        db = _build_review_db()
        server = PredictServer(db)
        bad = server.submit("PREDICT VALUE OF ghost FROM review TRAIN ON *",
                            at=0.0)
        good = server.submit(REVIEW_SQL, at=0.0)
        server.drain()
        assert bad.error is not None and bad.result is None
        assert good.error is None and good.result is not None

    def test_execution_error_fails_batch_not_server(self):
        # a raw evaluator error (lower() on a float) escaping mid-batch
        # must complete the batch as failed — error recorded, queue and
        # later requests (here: a different model identity, so a
        # different batch) intact — never strand requests in limbo
        db = _build_review_db()
        server = PredictServer(db)
        bad = server.submit(
            "PREDICT VALUE OF score FROM review TRAIN ON f1, f2 "
            "WITH lower(f1) = 'x'", at=0.0)
        good = server.submit(
            "PREDICT VALUE OF score FROM review "
            "WHERE brand_name = 'special goods' TRAIN ON f1 "
            "WITH brand_name <> 'special goods'", at=0.0)
        server.drain()
        assert bad.error is not None and bad.completed_at is not None
        assert good.error is None and good.result is not None
        assert not server._pending


class TestModelCache:
    def test_lru_eviction_and_hits(self):
        db = _build_review_db()
        db.execute(REVIEW_SQL)  # register the model
        name = db.catalog.bound_model("review", "score")
        version = db.models.versions(name)[-1]
        cache = ModelCache(db.models, capacity=1)
        cache.get(name, version)
        cache.get(name, version)
        assert cache.hits == 1 and cache.misses == 1

        db.fine_tune_model("review", "score", epochs=1)
        newer = db.models.versions(name)[-1]
        cache.get(name, newer)       # evicts the older snapshot
        assert len(cache) == 1
        cache.get(name, newer)       # the newer one is what stayed
        assert cache.hits == 2
        cache.get(name, version)     # old version still loadable: miss
        assert cache.misses == 3

    def test_cache_hit_skips_model_load_charges(self):
        db = _build_review_db()
        server = PredictServer(db)
        server.submit(REVIEW_SQL, at=0.0)
        server.drain()
        before = db.clock.category_total("model-load")
        server.submit(REVIEW_SQL, at=1e9)
        server.drain()
        assert db.clock.category_total("model-load") == before
        assert server.cache.hits >= 1


class TestSharedModelVersions:
    """Readers share the model manager's read-only instance of a version;
    a fine-tune or a retrain builds its own, so no reader's version moves."""

    def test_writers_leave_an_earlier_version_bit_identical(self):
        db = _build_review_db()
        server = PredictServer(db, refresh="manual")

        def served() -> bytes:
            request = server.submit(REVIEW_SQL)
            server.drain()
            assert request.error is None
            return request.result.extra["probabilities"].tobytes()

        def direct(version) -> bytes:
            ctx = db.bind_predict(parse(REVIEW_SQL))
            features, _, _ = db.prediction_inputs(ctx)
            return db.ai_engine.infer(
                InferenceTask(model_name=ctx.model_name, version=version),
                features).predictions.tobytes()

        first = served()                 # trains, then pins this version
        name = db.catalog.bound_model("review", "score")
        pinned = db.models.versions(name)[-1]
        assert direct(pinned) == first
        db.fine_tune_model("review", "score", epochs=2,
                           learning_rate=5e-2)
        tuned = direct(None)
        db.execute(REVIEW_SQL, force_retrain=True)
        assert len(db.models.versions(name)) == 3
        assert tuned != first and direct(None) != tuned
        assert served() == first         # the server's pinned snapshot
        assert direct(pinned) == first   # the facade, asking for it

    def test_facade_predict_never_builds_a_version_it_trained(self):
        db = _build_review_db()
        db.execute(REVIEW_SQL)
        before = db.metrics()["gauges"]
        for _ in range(3):
            db.execute(REVIEW_SQL)
        after = db.metrics()["gauges"]
        assert after["ai.model_loads"] - before["ai.model_loads"] == 3
        # the trained model is the version's shared instance
        assert after["ai.model_builds"] == before["ai.model_builds"] == 0
        # a fine-tune loads the shared version to charge its load and
        # builds only its own writable copy
        db.fine_tune_model("review", "score", epochs=1)
        after = db.metrics()["gauges"]
        assert after["ai.model_loads"] - before["ai.model_loads"] == 4
        assert after["ai.model_builds"] == 1

    def test_a_write_hands_its_trained_copy_to_readers(self):
        db = _build_review_db()
        db.execute(REVIEW_SQL)
        name = db.catalog.bound_model("review", "score")

        def predict_reuses_the_written_version() -> None:
            builds = db.metrics()["gauges"]["ai.model_builds"]
            got = db.execute(REVIEW_SQL).extra["probabilities"].tobytes()
            assert db.metrics()["gauges"]["ai.model_builds"] == builds
            features, _, _ = db.prediction_inputs(
                db.bind_predict(parse(REVIEW_SQL)))
            fresh = db.models.build_model(name)
            ids = fresh.hasher.transform_columns(features.columns)
            assert fresh.predict_ids(ids).tobytes() == got

        db.fine_tune_model("review", "score", epochs=1)
        predict_reuses_the_written_version()
        db.execute(REVIEW_SQL, force_retrain=True)
        predict_reuses_the_written_version()
        assert len(db.models.versions(name)) == 3


class TestRefreshLoop:
    def _drifting_server(self, refresh="auto"):
        db = repro.connect()
        db.execute("CREATE TABLE s (sid INT UNIQUE, a FLOAT, b FLOAT, "
                   "y FLOAT)")
        rng = np.random.default_rng(1)
        self._rng, self._db = rng, db
        self._insert(db, rng, 150, offset=1.0, start=0)
        db.execute("ANALYZE")
        return db, PredictServer(db, refresh=refresh, serving_window=3,
                                 refresh_epochs=2)

    @staticmethod
    def _insert(db, rng, n, offset, start):
        for i in range(start, start + n):
            a, b = float(rng.random()), float(rng.random())
            db.execute(f"INSERT INTO s VALUES ({i}, {a:.4f}, {b:.4f}, "
                       f"{3 * a - 2 * b + offset:.4f})")

    WARM = ("PREDICT VALUE OF y FROM s WHERE sid >= 140 TRAIN ON a, b "
            "WITH sid < 140")
    DRIFTED = ("PREDICT VALUE OF y FROM s WHERE sid >= 150 TRAIN ON a, b "
               "WITH sid < 140")

    def _run_drift(self, server):
        t = 0.0
        for _ in range(6):
            server.submit(self.WARM, at=t)
            t += 0.05
        server.drain()
        self._insert(self._db, self._rng, 100, offset=6.0, start=150)
        for _ in range(10):
            server.submit(self.DRIFTED, at=t)
            t += 0.05
        server.drain()
        return t

    def test_drift_enqueues_background_refresh_and_swaps(self):
        db, server = self._drifting_server()
        t = self._run_drift(server)
        assert db.monitor.drift_count() >= 1
        assert server.refreshes, "drift must enqueue a refresh"
        task = server.refreshes[0]
        assert task.status == "done"
        assert task.version_after == task.version_before + 1
        assert task.trigger is not None
        assert task.started_at >= task.enqueued_at
        # keep serving until the serving timeline passes the completion
        for _ in range(5):
            server.submit(self.DRIFTED, at=t)
            t += 1.0
        server.drain()
        assert task.swapped
        name = server.completed[0].model_name
        assert server.serving_version(name) == task.version_after

    def test_inflight_batches_pin_old_version(self):
        db, server = self._drifting_server()
        self._run_drift(server)
        task = server.refreshes[0]
        # every batch formed before the swap served the pinned version
        pre_swap = [r for r in server.completed
                    if r.started_at is not None
                    and r.started_at < task.completed_at]
        assert pre_swap
        assert all(r.model_version == task.version_before
                   for r in pre_swap if r.model_version is not None)

    def test_refresh_runs_off_the_serving_lanes(self):
        db, server = self._drifting_server()
        self._run_drift(server)
        task = server.refreshes[0]
        # the refresh occupies the background lane, not a serving lane:
        # it is the one piece of work that lane was ever given
        refresh_cost = task.completed_at - task.started_at
        assert refresh_cost > 0
        assert server.refresh_lane.assignments == len(server.refreshes) == 1
        assert server.refresh_lane.makespan() == task.completed_at
        # and serving latency stays orders below the refresh cost
        served = [r.latency for r in server.completed if r.error is None]
        assert min(served) < refresh_cost

    def test_refresh_tunes_the_model_that_drifted(self):
        """Two models on one (table, target): the drift event's model gets
        the new version, on its own columns; the other is untouched."""
        db = _build_review_db()
        server = PredictServer(db, refresh_epochs=1)
        requests = [server.submit("PREDICT VALUE OF score FROM review "
                                  f"WHERE rid < 5 TRAIN ON {column}")
                    for column in ("f1", "f2")]
        server.drain()
        first, second = (r.model_name for r in requests)
        assert first != second
        assert db.catalog.bound_model("review", "score") == second
        untouched = db.models.versions(second)
        db.monitor.observe(f"loss:{first}", 1e3)     # drift, on the first
        server.drain()
        [task] = server.refreshes
        assert (task.model_name, task.status) == (first, "done")
        assert db.models.versions(first) == [task.version_before,
                                             task.version_after]
        assert task.version_after > untouched[-1]
        assert db.models.versions(second) == untouched
        assert db.catalog.model_binding(first).feature_columns == ("f1",)
        # refresh_now(table, target) still means the most recently bound
        assert server.refresh_now("review", "score").model_name == second

    def test_manual_mode_never_auto_refreshes(self):
        db, server = self._drifting_server(refresh="manual")
        self._run_drift(server)
        assert db.monitor.drift_count() >= 1  # drift is still detected
        assert server.refreshes == []         # but nothing was enqueued

    def test_manual_refresh_now(self):
        db, server = self._drifting_server(refresh="manual")
        server.submit(self.WARM, at=0.0)
        server.drain()
        task = server.refresh_now("s", "y")
        server.drain()
        assert task.status == "done"
        assert task.version_after is not None

    def test_per_request_knob_overrides_server_policy(self):
        db, server = self._drifting_server(refresh="auto")
        t = 0.0
        for _ in range(6):
            server.submit(self.WARM + " WITH (refresh=manual)", at=t)
            t += 0.05
        server.drain()
        self._insert(self._db, self._rng, 100, offset=6.0, start=150)
        for _ in range(10):
            server.submit(self.DRIFTED, at=t)
            t += 0.05
        server.drain()
        assert server.refreshes == []


class TestSqlRefreshKnob:
    def test_options_clause_parses(self):
        stmt = parse("PREDICT VALUE OF y FROM s TRAIN ON a, b "
                     "WITH (refresh=auto)")
        assert stmt.refresh == "auto"
        assert stmt.train_filter is None

    def test_options_and_filter_in_either_order(self):
        first = parse("PREDICT VALUE OF y FROM s TRAIN ON a, b "
                      "WITH (refresh=manual) WITH sid < 10")
        second = parse("PREDICT VALUE OF y FROM s TRAIN ON a, b "
                       "WITH sid < 10 WITH (refresh=manual)")
        assert first.refresh == second.refresh == "manual"
        assert first.train_filter == second.train_filter

    def test_parenthesized_filter_still_a_filter(self):
        stmt = parse("PREDICT VALUE OF y FROM s TRAIN ON a, b "
                     "WITH (sid < 10)")
        assert stmt.refresh is None
        assert stmt.train_filter is not None

    def test_filter_on_a_column_named_refresh_still_a_filter(self):
        # only a literal auto/manual value engages the options grammar; a
        # training filter over a column that happens to be named refresh
        # keeps parsing as an expression
        for filt in ("refresh = 1", "refresh = 'auto'", "refresh = mode"):
            stmt = parse(f"PREDICT VALUE OF y FROM s TRAIN ON a, b "
                         f"WITH ({filt})")
            assert stmt.refresh is None, filt
            assert stmt.train_filter is not None, filt

    def test_bad_option_values_rejected(self):
        # a non-auto/manual value never engages the options grammar: the
        # clause falls through to the expression parser as a filter
        fallthrough = parse(
            "PREDICT VALUE OF y FROM s WITH (refresh=sometimes)")
        assert fallthrough.refresh is None
        assert fallthrough.train_filter is not None
        with pytest.raises(ParseError):
            parse("PREDICT VALUE OF y FROM s WITH (refresh=auto) "
                  "WITH (refresh=manual)")
        with pytest.raises(ParseError):  # duplicate key inside one clause
            parse("PREDICT VALUE OF y FROM s "
                  "WITH (refresh=auto, refresh=manual)")

    def test_knob_does_not_change_model_identity_or_charges(self):
        db_plain = _build_review_db()
        plain = db_plain.execute(REVIEW_SQL)
        db_knob = _build_review_db()
        knob = db_knob.execute(REVIEW_SQL + " WITH (refresh=auto)")
        assert knob.extra["model"] == plain.extra["model"]
        assert _typed(knob.rows) == _typed(plain.rows)
        assert db_knob.clock.now == db_plain.clock.now


class TestMaterialization:
    def test_failing_scan_keeps_partial_charges(self):
        # the engines' contract: a failing query leaves its charges
        # behind — the PREDICT materialization included
        from repro.exec.expr import compile_predicate_batch
        db = _build_review_db()
        heap = db.catalog.table("review")
        layout = RowLayout.of_table("review", heap.schema)
        bad = compile_predicate_batch(
            parse("SELECT 1 FROM review WHERE f1 / (f2 - f2) > 0").where,
            layout)
        before = db.clock.now
        with pytest.raises(ExecutionError, match="division by zero"):
            table_training_set(heap, ["f1", "f2"], "score",
                               block_predicate=bad, clock=db.clock)
        assert db.clock.now > before


class TestRetention:
    def test_history_is_capped_and_stats_cover_every_request(self):
        """Three windows' worth of requests through one server: only the
        newest ``RETAINED_REQUESTS`` stay alive, while ``stats()`` (and
        the ``serve.*`` gauges) still equal what every drained request
        says."""
        kinds = (PredictRequest, ast.Predict, ResultSet)

        def alive() -> list[int]:
            gc.collect()
            objects = gc.get_objects()
            return [sum(type(o) is cls for o in objects) for cls in kinds]

        before = alive()
        db = _build_review_db()
        server = PredictServer(db, lanes=2, refresh="manual")
        rng = np.random.default_rng(3)
        ok_latencies, ok_batches, failed = [], set(), 0
        for window in range(3):
            for k in range(RETAINED_REQUESTS):
                if k % 97 == 0:
                    sql = "PREDICT VALUE OF score FROM nowhere TRAIN ON *"
                elif k % 8 == 7:
                    low = int(rng.integers(0, 100))
                    sql = (f"PREDICT VALUE OF score FROM review WHERE "
                           f"rid >= {low} AND rid < {low + 8} "
                           f"TRAIN ON f1, f2")
                else:
                    sql = (f"PREDICT VALUE OF score FROM review "
                           f"TRAIN ON f1, f2 VALUES ({rng.random():.3f}, "
                           f"{rng.random():.3f})")
                server.submit(sql, at=(window * RETAINED_REQUESTS + k)
                              // 16 * 1e-3)
            for request in server.drain():
                if request.error is None:
                    ok_latencies.append(request.latency)
                    ok_batches.add(request.batch_id)
                else:
                    failed += 1
            del request
        for cls, old, now in zip(kinds, before, alive()):
            assert now - old <= RETAINED_REQUESTS, cls.__name__

        stats = server.stats()
        requests = 3 * RETAINED_REQUESTS
        latencies = np.asarray(ok_latencies, dtype=np.float64)
        ok = requests - failed
        assert failed and len(ok_batches) < ok
        assert stats["requests"] == requests
        assert stats["failed"] == failed
        assert stats["retained"] == len(server.completed) \
            == RETAINED_REQUESTS
        assert stats["batches"] == len(ok_batches)
        assert stats["mean_batch_requests"] == ok / len(ok_batches)
        assert stats["throughput_rps"] == ok / stats["serving_makespan"]
        assert stats["latency"] == {
            "mean": float(latencies.mean()),
            "p50": float(np.percentile(latencies, 50)),
            "p95": float(np.percentile(latencies, 95)),
            "p99": float(np.percentile(latencies, 99)),
            "max": float(latencies.max())}
        gauges = db.metrics()["gauges"]
        served = {key: value for key, value in gauges.items()
                  if key.startswith("serve.")}
        expected = {f"serve.{key}": float(value)
                    for key, value in stats.items()
                    if isinstance(value, (int, float))}
        expected.update({f"serve.latency_{name}": value
                         for name, value in stats["latency"].items()})
        assert served == expected and served["serve.retained"] == 1024.0


class TestServerValidation:
    def test_rejects_non_predict(self):
        db = _build_review_db(n=10)
        server = PredictServer(db)
        with pytest.raises(NeurDBError):
            server.submit("SELECT * FROM review")

    def test_rejects_out_of_order_arrivals(self):
        db = _build_review_db(n=10)
        server = PredictServer(db)
        server.submit(REVIEW_SQL, at=5.0)
        with pytest.raises(NeurDBError):
            server.submit(REVIEW_SQL, at=1.0)

    def test_default_arrival_carries_across_drains(self):
        # the default arrival is the latest ever admitted, not 0.0: a
        # request submitted after a drain must not report phantom
        # queueing latency
        db = _build_review_db()
        server = PredictServer(db)
        server.submit(REVIEW_SQL, at=100.0)
        server.drain()
        late = server.submit(REVIEW_SQL)
        server.drain()
        assert late.arrival == 100.0
        assert late.latency < 1.0
        with pytest.raises(NeurDBError):
            server.submit(REVIEW_SQL, at=50.0)  # behind served traffic

    def test_rejects_bad_config(self):
        db = _build_review_db(n=10)
        with pytest.raises(ValueError):
            PredictServer(db, refresh="never")
        with pytest.raises(ValueError):
            PredictServer(db, max_batch_requests=0)
        with pytest.raises(ValueError):
            ModelCache(db.models, capacity=0)

    @pytest.mark.parametrize("where, knob, value", [
        ("server", "serving_window", 1),
        ("server", "refresh_epochs", 0),
        ("fine_tune", "tune_last_layers", 0),
        ("fine_tune", "tune_last_layers", -1),
        ("fine_tune", "tune_last_layers", 99),
        ("fine_tune", "epochs", 0),
    ])
    def test_bad_knob_rejected_before_any_work(self, where, knob, value):
        """A knob outside its range is a ValueError where it enters:
        nothing is charged, no model version is persisted."""
        db = _build_review_db(n=40)
        model = db.execute(REVIEW_SQL).extra["model"]
        versions = db.models.versions(model)
        before = db.clock.now
        with pytest.raises(ValueError, match=knob):
            if where == "server":
                PredictServer(db, **{knob: value})
            else:
                db.fine_tune_model("review", "score", **{knob: value})
        assert db.clock.now == before
        assert db.models.versions(model) == versions


# (where the knob enters, knob, its minimum): every integer knob of the
# serving path goes through ``check_at_least``
INTEGER_KNOBS = [
    ("connect", "buffer_pages", 1),
    ("connect", "refresh_window", 1),
    ("server", "lanes", 1),
    ("server", "max_batch_requests", 1),
    ("server", "max_batch_rows", 1),
    ("server", "model_cache_size", 1),
    ("server", "refresh_epochs", 1),
    ("server", "refresh_window", 1),
    ("server", "serving_window", 2),
    ("fine_tune", "tune_last_layers", 1),
    ("fine_tune", "epochs", 1),
    ("fine_tune", "batch_size", 1),
    ("fine_tune", "window_rows", 1),
]


@pytest.fixture(scope="module")
def trained_review_db():
    db = _build_review_db(n=40)
    return db, db.execute(REVIEW_SQL).extra["model"]


@pytest.mark.parametrize("bad", ["fraction", "bool", "below_minimum"])
@pytest.mark.parametrize("where, knob, minimum", INTEGER_KNOBS,
                         ids=[f"{w}-{k}" for w, k, _ in INTEGER_KNOBS])
def test_integer_knob_rejected_where_it_enters(trained_review_db, where,
                                               knob, minimum, bad):
    """A fraction, a bool or a value below the minimum is refused by an
    error naming the knob, before anything is charged or persisted —
    never accepted to fail later inside a refresh or a slice."""
    db, model = trained_review_db
    value = {"fraction": 2.5, "bool": True, "below_minimum": minimum - 1}[bad]
    versions = db.models.versions(model)
    before = db.clock.now
    with pytest.raises((TypeError, ValueError), match=knob):
        if where == "connect":
            repro.connect(**{knob: value})
        elif where == "server":
            PredictServer(db, **{knob: value})
        else:
            db.fine_tune_model("review", "score", **{knob: value})
    assert db.clock.now == before
    assert db.models.versions(model) == versions


class TestRefreshWindow:
    """Recency-weighted refresh data: fine-tunes train on a sliding
    window of the table's most recent rows (``refresh_window`` on
    ``connect()`` / ``PredictServer``), default full-table."""

    @staticmethod
    def _spy_fine_tune(db, captured):
        original = db.ai_engine.fine_tune

        def spy(task, data, targets):
            captured.append(len(data))
            return original(task, data, targets)

        db.ai_engine.fine_tune = spy

    def test_training_set_tail(self):
        from repro.ai.loader import ColumnTrainingSet
        data = ColumnTrainingSet(
            [np.array(list(range(10)), dtype=object)],
            np.arange(10, dtype=np.float64))
        tail = data.tail(4)
        assert len(tail) == 4
        assert tail.rows() == [(6,), (7,), (8,), (9,)]
        assert np.array_equal(tail.targets, np.array([6.0, 7.0, 8.0, 9.0]))
        assert data.tail(10) is data        # window covers everything
        assert data.tail(99) is data
        with pytest.raises(ValueError):
            data.tail(0)

    def test_connect_knob_bounds_finetune_data(self):
        db = repro.connect(refresh_window=8)
        db.execute("CREATE TABLE p (a FLOAT, b FLOAT, y FLOAT)")
        for i in range(30):
            db.execute(f"INSERT INTO p VALUES ({i}.5, {i + 1}.0, {i * 0.1})")
        db.execute("PREDICT VALUE OF y FROM p TRAIN ON a, b")
        captured: list[int] = []
        self._spy_fine_tune(db, captured)
        db.fine_tune_model("p", "y")
        assert captured == [8]
        db.fine_tune_model("p", "y", window_rows=5)  # per-call override
        assert captured == [8, 5]
        db.fine_tune_model("p", "y", window_rows=1000)  # window > table
        assert captured == [8, 5, 30]

    def test_default_stays_full_table(self):
        db = _build_review_db(n=40)
        db.execute(REVIEW_SQL)
        captured: list[int] = []
        self._spy_fine_tune(db, captured)
        db.fine_tune_model("review", "score")
        # full table minus the NULL-score rows (every 5th)
        assert captured == [32]

    def test_server_refresh_uses_window(self):
        db = _build_review_db(n=60)
        db.execute(REVIEW_SQL)
        captured: list[int] = []
        self._spy_fine_tune(db, captured)
        server = PredictServer(db, refresh_window=10)
        server.refresh_now("review", "score")
        server.drain()
        task = server.refreshes[-1]
        assert task.status == "done"
        assert captured == [10]

    def test_server_rejects_bad_window(self):
        db = _build_review_db(n=10)
        with pytest.raises(ValueError):
            PredictServer(db, refresh_window=0)
        with pytest.raises(ValueError):
            repro.connect(refresh_window=0)

    def test_tail_scan_reads_only_trailing_pages(self):
        """The windowed refresh scans only the pages covering the window
        (plus NULL-target widening), not the full history — identical
        rows to full-scan-then-tail, far smaller scan charge."""
        from repro.ai.loader import table_training_set
        from repro.common.simtime import CostModel
        db = repro.connect(refresh_window=40)
        db.execute("CREATE TABLE big (a FLOAT, y FLOAT)")
        heap = db.catalog.table("big")
        rows = 1500
        for i in range(rows):
            heap.insert((float(i), None if i % 7 == 0 else i * 0.01))
        db.execute("ANALYZE")
        db.execute("PREDICT VALUE OF y FROM big TRAIN ON a")
        captured: list = []
        original = db.ai_engine.fine_tune
        db.ai_engine.fine_tune = lambda task, data, targets: (
            captured.append(data), original(task, data, targets))[1]
        before = db.clock.category_total("predict-materialize")
        db.fine_tune_model("big", "y")
        scanned = db.clock.category_total("predict-materialize") - before
        full = table_training_set(heap, ["a"], "y")
        assert captured[0].rows() == full.tail(40).rows()
        # scan charge tracks the window, not the 1500-row history
        assert scanned < rows * CostModel.TUPLE_CPU * 0.5

    def test_tail_scan_widens_past_null_targets(self):
        """A tail whose trailing rows are mostly NULL targets widens
        backward until the window is filled — same result as tailing the
        full-history training set."""
        from repro.ai.loader import table_training_set, table_training_set_tail
        db = repro.connect()
        db.execute("CREATE TABLE holey (a FLOAT, y FLOAT)")
        heap = db.catalog.table("holey")
        for i in range(600):
            # the last 300 rows are almost all NULL targets
            target = None if (i >= 300 and i % 10 != 0) else i * 1.0
            heap.insert((float(i), target))
        data = table_training_set_tail(heap, ["a"], "y", 50)
        full = table_training_set(heap, ["a"], "y")
        assert data.rows() == full.tail(50).rows()
        assert len(data) == 50
        # window larger than all qualifying rows: everything, no error
        everything = table_training_set_tail(heap, ["a"], "y", 10_000)
        assert everything.rows() == full.rows()
