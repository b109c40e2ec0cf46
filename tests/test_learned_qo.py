"""Tests for the learned query optimizer and the Bao / Lero baselines."""

import numpy as np
import pytest

import repro
from repro.learned.qo import (
    BaoOptimizer,
    HINT_SETS,
    LearnedQueryOptimizer,
    LeroOptimizer,
    MAX_PLAN_NODES,
    PLAN_FEATURE_DIM,
    PlanFeaturizer,
    QOModel,
    SYSCOND_FEATURE_DIM,
    SystemConditionFeaturizer,
    plan_under_hints,
    referenced_table_columns,
)
from repro.plan import logical as plan
from repro.sql import parse

QUERY = ("SELECT count(*) FROM users u JOIN orders o ON u.id = o.user_id "
         "WHERE u.age > 30")
QUERIES = [
    QUERY,
    "SELECT count(*) FROM users u JOIN orders o ON u.id = o.user_id "
    "WHERE o.amount > 100",
    "SELECT count(*) FROM users u JOIN orders o ON u.id = o.user_id "
    "WHERE u.city = 'sg' AND o.status = 'paid'",
]


class TestPlanFeaturizer:
    def test_shape(self, users_orders_db):
        node = users_orders_db.planner.plan_select(parse(QUERY))
        matrix = PlanFeaturizer().featurize(node)
        assert matrix.shape == (MAX_PLAN_NODES, PLAN_FEATURE_DIM)

    def test_different_plans_different_features(self, users_orders_db):
        candidates = users_orders_db.planner.candidate_plans(parse(QUERY), 8)
        featurizer = PlanFeaturizer()
        mats = [featurizer.featurize(c) for c in candidates]
        assert not np.allclose(mats[0], mats[-1])

    def test_node_type_one_hot(self, users_orders_db):
        node = users_orders_db.planner.plan_select(parse(QUERY))
        matrix = PlanFeaturizer().featurize(node)
        live_rows = matrix[matrix.any(axis=1)]
        # exactly one node-type flag per live node
        assert np.allclose(live_rows[:, :10].sum(axis=1), 1.0)


class TestSystemConditionFeaturizer:
    def test_shape_and_buffer_row(self, users_orders_db):
        featurizer = SystemConditionFeaturizer()
        matrix = featurizer.featurize(users_orders_db.catalog,
                                      [("users", "age")],
                                      users_orders_db.buffer_pool)
        assert matrix.shape[1] == SYSCOND_FEATURE_DIM
        assert matrix[0].any()   # buffer row populated
        assert matrix[1].any()   # column stats row populated

    def test_reflects_live_data_not_stale_stats(self, users_orders_db):
        featurizer = SystemConditionFeaturizer()
        before = featurizer.featurize(users_orders_db.catalog,
                                      [("orders", "amount")])
        for i in range(500, 900):
            users_orders_db.execute(
                f"INSERT INTO orders VALUES ({i}, 1, 99999.0, 'paid')")
        # deliberately NO ANALYZE: live sampling must still see the change
        after = featurizer.featurize(users_orders_db.catalog,
                                     [("orders", "amount")])
        assert not np.allclose(before[1], after[1])

    def test_unknown_column_row_stays_zero(self, users_orders_db):
        featurizer = SystemConditionFeaturizer()
        matrix = featurizer.featurize(users_orders_db.catalog,
                                      [("users", "nope")])
        assert not matrix[1, :21].any()

    def test_referenced_table_columns(self, users_orders_db):
        bound = users_orders_db.planner.bind(parse(QUERY))
        pairs = referenced_table_columns(bound)
        assert ("users", "age") in pairs
        assert ("users", "id") in pairs
        assert ("orders", "user_id") in pairs


class TestQOModel:
    def test_forward_shape(self):
        model = QOModel(d_model=16, num_heads=2)
        plans = np.random.default_rng(0).random((5, MAX_PLAN_NODES,
                                                 PLAN_FEATURE_DIM))
        conds = np.random.default_rng(1).random((5, 4,
                                                 SYSCOND_FEATURE_DIM))
        out = model.forward(plans, conds)
        assert out.shape == (5,)

    def test_fit_reduces_loss(self):
        rng = np.random.default_rng(0)
        model = QOModel(d_model=16, num_heads=2)
        plans = rng.random((40, MAX_PLAN_NODES, PLAN_FEATURE_DIM))
        conds = rng.random((40, 4, SYSCOND_FEATURE_DIM))
        targets = plans[:, 0, :].sum(axis=1)  # learnable signal
        losses = model.fit(plans, conds, targets, epochs=25, lr=3e-3)
        assert losses[-1] < losses[0] * 0.7


class TestLearnedQueryOptimizer:
    def test_choose_plan_returns_candidate(self, users_orders_db):
        qo = LearnedQueryOptimizer()
        chosen, choice = qo.choose_plan(users_orders_db, parse(QUERY))
        assert isinstance(chosen, plan.PlanNode)
        assert 0 <= choice.chosen_index < choice.candidate_count

    def test_execute_produces_correct_answer(self, users_orders_db):
        qo = LearnedQueryOptimizer()
        reference = users_orders_db.execute(QUERY).scalar()
        result = qo.execute(users_orders_db, QUERY)
        assert result.rows[0][0] == reference

    def test_collect_samples_and_fit(self, users_orders_db):
        qo = LearnedQueryOptimizer()
        samples = []
        for sql in QUERIES:
            samples.extend(qo.collect_samples(users_orders_db, sql))
        assert len(samples) >= 6
        losses = qo.fit(samples, epochs=10)
        assert losses[-1] < losses[0]

    def test_trained_model_beats_random_ranking(self, users_orders_db):
        """After training on measured latencies the model's chosen plan
        must be no slower than the median candidate."""
        from repro.exec.measure import measure_plan_latency
        qo = LearnedQueryOptimizer()
        samples = []
        for sql in QUERIES:
            samples.extend(qo.collect_samples(users_orders_db, sql))
        qo.fit(samples, epochs=40, lr=2e-3)
        for sql in QUERIES:
            select = parse(sql)
            candidates = users_orders_db.planner.candidate_plans(select, 12)
            latencies = [measure_plan_latency(
                users_orders_db.executor, users_orders_db.clock, c,
                cap_virtual=0.2).latency for c in candidates]
            chosen, _ = qo.choose_plan(users_orders_db, select)
            chosen_latency = measure_plan_latency(
                users_orders_db.executor, users_orders_db.clock, chosen,
                cap_virtual=0.2).latency
            assert chosen_latency <= np.median(latencies) * 1.05

    def test_capped_nlj_candidate_censored_on_distributed_executor(self):
        """Capped measurement downgrades every placed engine, not just
        ``parallel``: a pathological nested-loop candidate on a
        distributed session is censored at the cap with per-charge
        enforcement — not ground through to a phase boundary."""
        from repro.exec.measure import measure_plan_latency
        db = repro.connect(engine="distributed", nodes=2)
        db.execute("CREATE TABLE a (x INT)")
        db.execute("CREATE TABLE b (y INT)")
        for name in ("a", "b"):
            heap = db.catalog.table(name)
            for i in range(2000):
                heap.insert((i,))
        db.execute("ANALYZE")
        candidate = db.planner.plan_select(
            parse("SELECT count(*) FROM a, b"))
        assert any(isinstance(node, plan.NestedLoopJoin)
                   for node in candidate.walk())
        cap = 0.01      # the full 4M-pair cross join charges ~0.8 s
        before = db.clock.now
        measured = measure_plan_latency(db.executor, db.clock, candidate,
                                        cap_virtual=cap)
        assert measured.censored and measured.latency == cap
        assert db.clock.now - before < 2 * cap

    def test_rejects_non_select(self, users_orders_db):
        qo = LearnedQueryOptimizer()
        with pytest.raises(TypeError):
            qo.execute(users_orders_db, "INSERT INTO users VALUES (999)")


class TestBao:
    def test_hint_sets_constrain_plans(self, users_orders_db):
        select = parse(QUERY)
        hash_only = plan_under_hints(users_orders_db, select, "hash-only")
        assert not any(isinstance(n, plan.NestedLoopJoin)
                       and n.condition is not None
                       for n in hash_only.walk())
        nlj_only = plan_under_hints(users_orders_db, select, "nlj-only")
        assert not any(isinstance(n, plan.HashJoin)
                       for n in nlj_only.walk())

    def test_untrained_raises(self, users_orders_db):
        with pytest.raises(RuntimeError):
            BaoOptimizer().choose_plan(users_orders_db, parse(QUERY))

    def test_train_then_choose(self, users_orders_db):
        bao = BaoOptimizer()
        bao.train(users_orders_db, QUERIES)
        chosen = bao.choose_plan(users_orders_db, parse(QUERY))
        assert isinstance(chosen, plan.PlanNode)
        result = bao.execute(users_orders_db, QUERY)
        assert result.rows[0][0] == users_orders_db.execute(QUERY).scalar()

    def test_all_arms_modeled(self, users_orders_db):
        bao = BaoOptimizer()
        bao.train(users_orders_db, QUERIES)
        assert set(bao._arms) == set(HINT_SETS)


class TestLero:
    def test_untrained_raises(self, users_orders_db):
        with pytest.raises(RuntimeError):
            LeroOptimizer().choose_plan(users_orders_db, parse(QUERY))

    def test_train_then_choose_correct_result(self, users_orders_db):
        lero = LeroOptimizer()
        losses = lero.train(users_orders_db, QUERIES, epochs=30)
        assert losses[-1] < losses[0]
        result = lero.execute(users_orders_db, QUERY)
        assert result.rows[0][0] == users_orders_db.execute(QUERY).scalar()

    def test_comparator_antisymmetric_at_inference(self, users_orders_db):
        lero = LeroOptimizer()
        lero.train(users_orders_db, QUERIES, epochs=20)
        candidates = users_orders_db.planner.candidate_plans(parse(QUERY), 6)
        a = lero._pooled(candidates[0])
        b = lero._pooled(candidates[-1])
        assert lero._beats(a, b) != lero._beats(b, a) or np.allclose(a, b)

    def test_chosen_plan_not_pathological(self, users_orders_db):
        from repro.exec.measure import measure_plan_latency
        lero = LeroOptimizer()
        lero.train(users_orders_db, QUERIES, epochs=40)
        select = parse(QUERY)
        candidates = users_orders_db.planner.candidate_plans(select, 12)
        latencies = [measure_plan_latency(
            users_orders_db.executor, users_orders_db.clock, c,
            cap_virtual=0.2).latency for c in candidates]
        chosen = lero.choose_plan(users_orders_db, select)
        chosen_latency = measure_plan_latency(
            users_orders_db.executor, users_orders_db.clock, chosen,
            cap_virtual=0.2).latency
        assert chosen_latency <= max(latencies) * 0.9
