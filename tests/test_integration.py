"""Integration scenarios crossing multiple subsystems end-to-end."""

import numpy as np
import pytest

import repro
from repro.ai.tasks import FineTuneTask
from repro.exec.measure import measure_plan_latency
from repro.learned.qo import LearnedQueryOptimizer
from repro.sql import parse
from repro.workloads.avazu import AvazuGenerator
from repro.workloads.avazu import load_into_db as load_avazu


class TestPredictLifecycle:
    """The paper's Fig. 1 running example, end to end: PREDICT trains a
    model, data drifts, the fine-tune operator adapts it, a new version is
    served — all inside one database instance."""

    def test_full_lifecycle(self):
        db = repro.connect()
        generator = AvazuGenerator(seed=0)
        load_avazu(db, generator, cluster=0, count=3000)

        # 1. PREDICT trains and binds a model
        sql = "PREDICT VALUE OF click_rate FROM avazu TRAIN ON *"
        first = db.execute(sql)
        model_name = first.extra["model"]
        assert db.models.has_model(model_name)
        assert len(db.models.versions(model_name)) == 1

        # 2. the data drifts: append rows from another cluster
        load_avazu(db, generator, cluster=2, count=3000)

        # 3. the fine-tune operator adapts the model incrementally
        db.fine_tune_model("avazu", "click_rate", epochs=1)
        assert len(db.models.versions(model_name)) == 2

        # 4. PREDICT now serves the adapted version without retraining
        second = db.execute(sql)
        assert second.extra["trained_now"] is False
        assert len(second.rows) == 6000

    def test_incremental_update_cheaper_than_retrain(self):
        db = repro.connect()
        generator = AvazuGenerator(seed=0)
        load_avazu(db, generator, cluster=0, count=2000)
        sql = "PREDICT VALUE OF click_rate FROM avazu TRAIN ON *"
        db.execute(sql)
        model_name = db.execute(sql).extra["model"]

        before = db.clock.now
        db.fine_tune_model("avazu", "click_rate", epochs=1)
        finetune_cost = db.clock.now - before

        before = db.clock.now
        db.execute(sql, force_retrain=True)
        retrain_cost = db.clock.now - before
        assert finetune_cost < retrain_cost

    def test_predict_after_dml_changes(self):
        """PREDICT must see rows added through ordinary SQL."""
        db = repro.connect()
        db.execute("CREATE TABLE m (a FLOAT, b FLOAT, y FLOAT)")
        rng = np.random.default_rng(0)
        for _ in range(300):
            a, b = rng.random(2).round(3)
            db.execute(f"INSERT INTO m VALUES ({a}, {b}, {a + b})")
        result = db.execute("PREDICT VALUE OF y FROM m TRAIN ON a, b "
                            "VALUES (0.5, 0.5)")
        assert result.rows[0][-1] == pytest.approx(1.0, abs=0.5)


class TestLearnedQOOnLiveDatabase:
    """The learned optimizer and classical planner on the same instance,
    sharing catalog, buffer pool, and executor."""

    def test_learned_choice_executes_same_answer(self, users_orders_db):
        sql = ("SELECT count(*) FROM users u JOIN orders o "
               "ON u.id = o.user_id WHERE u.age > 25")
        qo = LearnedQueryOptimizer()
        samples = qo.collect_samples(users_orders_db, sql)
        qo.fit(samples, epochs=15)
        learned = qo.execute(users_orders_db, sql)
        classical = users_orders_db.execute(sql)
        assert learned.rows == classical.rows

    def test_buffer_pool_shared_across_paths(self, users_orders_db):
        users_orders_db.execute("SELECT count(*) FROM orders")
        hit_ratio_after_warmup = users_orders_db.buffer_pool.hit_ratio()
        users_orders_db.execute("SELECT count(*) FROM orders")
        assert (users_orders_db.buffer_pool.hit_ratio()
                >= hit_ratio_after_warmup)


class TestVirtualTimeConsistency:
    def test_execution_time_tracks_cost_estimates(self, users_orders_db):
        """For well-estimated plans, measured virtual latency should be
        within an order of magnitude of the optimizer's estimate."""
        select = parse("SELECT count(*) FROM users u JOIN orders o "
                       "ON u.id = o.user_id")
        node = users_orders_db.planner.plan_select(select)
        measured = measure_plan_latency(users_orders_db.executor,
                                        users_orders_db.clock, node)
        assert node.est_cost / 10 < measured.latency < node.est_cost * 10

    def test_clock_monotone_across_statements(self, users_orders_db):
        t0 = users_orders_db.clock.now
        users_orders_db.execute("SELECT count(*) FROM users")
        t1 = users_orders_db.clock.now
        users_orders_db.execute("INSERT INTO users VALUES "
                                "(999, 'x', 1, 'sg')")
        t2 = users_orders_db.clock.now
        assert t0 < t1 < t2


class TestMultipleModelsOneDatabase:
    def test_independent_models_per_target(self):
        db = repro.connect()
        db.execute("CREATE TABLE t (a FLOAT, b FLOAT, y1 FLOAT, y2 INT)")
        rng = np.random.default_rng(0)
        for _ in range(300):
            a, b = rng.random(2).round(3)
            db.execute(f"INSERT INTO t VALUES ({a}, {b}, {a * 2}, "
                       f"{int(a > 0.5)})")
        r1 = db.execute("PREDICT VALUE OF y1 FROM t TRAIN ON a, b")
        r2 = db.execute("PREDICT CLASS OF y2 FROM t TRAIN ON a, b")
        assert r1.extra["model"] != r2.extra["model"]
        assert all(db.models.has_model(r.extra["model"]) for r in (r1, r2))
        assert {db.catalog.bound_model("t", "y1"),
                db.catalog.bound_model("t", "y2")} == {r1.extra["model"],
                                                       r2.extra["model"]}

    def test_different_feature_sets_different_models(self):
        db = repro.connect()
        db.execute("CREATE TABLE t (a FLOAT, b FLOAT, y FLOAT)")
        rng = np.random.default_rng(0)
        for _ in range(200):
            a, b = rng.random(2).round(3)
            db.execute(f"INSERT INTO t VALUES ({a}, {b}, {a + b})")
        r1 = db.execute("PREDICT VALUE OF y FROM t TRAIN ON a")
        r2 = db.execute("PREDICT VALUE OF y FROM t TRAIN ON a, b")
        assert r1.extra["model"] != r2.extra["model"]
