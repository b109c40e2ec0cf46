"""Tests for repro.common: clock, cost model, RNG utilities, errors."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common import (
    CostModel,
    NeurDBError,
    ParseError,
    SimClock,
    TransientError,
    make_rng,
    stable_hash,
)
from repro.common import rng
from repro.common.rng import stable_hashes
from repro.common.simtime import BudgetExceeded


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_advance_accumulates(self):
        clock = SimClock()
        clock.advance(1.5)
        clock.advance(0.5)
        assert clock.now == pytest.approx(2.0)

    def test_advance_returns_new_time(self):
        clock = SimClock()
        assert clock.advance(3.0) == pytest.approx(3.0)

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1.0)

    def test_category_totals(self):
        clock = SimClock()
        clock.advance(1.0, "io")
        clock.advance(2.0, "cpu")
        clock.advance(3.0, "io")
        assert clock.category_total("io") == pytest.approx(4.0)
        assert clock.category_total("cpu") == pytest.approx(2.0)
        assert clock.category_total("missing") == 0.0

    def test_breakdown_is_copy(self):
        clock = SimClock()
        clock.advance(1.0, "io")
        breakdown = clock.breakdown()
        breakdown["io"] = 999.0
        assert clock.category_total("io") == pytest.approx(1.0)

    def test_advance_to_moves_forward_only(self):
        clock = SimClock()
        clock.advance_to(5.0)
        assert clock.now == pytest.approx(5.0)
        clock.advance_to(3.0)  # in the past: no-op
        assert clock.now == pytest.approx(5.0)

    def test_budget_limit_raises(self):
        clock = SimClock()
        clock.set_limit(1.0)
        clock.advance(0.9)
        with pytest.raises(BudgetExceeded):
            clock.advance(0.2)

    def test_budget_limit_cleared(self):
        clock = SimClock()
        clock.set_limit(1.0)
        clock.set_limit(None)
        clock.advance(100.0)  # no raise
        assert clock.now == pytest.approx(100.0)

    @given(st.lists(st.floats(min_value=0, max_value=1e3), max_size=30))
    @settings(max_examples=25)
    def test_now_equals_sum_of_advances(self, increments):
        clock = SimClock()
        for inc in increments:
            clock.advance(inc)
        assert clock.now == pytest.approx(sum(increments))


class TestLaneSchedule:
    def test_serial_lane_queues(self):
        from repro.common.simtime import LaneSchedule
        lanes = LaneSchedule(1)
        assert lanes.assign(0.0, 2.0) == (0, 0.0, 2.0)
        assert lanes.assign(1.0, 2.0) == (0, 2.0, 4.0)  # queued behind
        assert lanes.assign(9.0, 1.0) == (0, 9.0, 10.0)  # lane idled
        assert lanes.makespan() == 10.0

    def test_earliest_free_lane_wins(self):
        from repro.common.simtime import LaneSchedule
        lanes = LaneSchedule(2)
        assert lanes.assign(0.0, 4.0)[0] == 0
        assert lanes.assign(0.0, 1.0)[0] == 1
        lane, start, completion = lanes.assign(0.0, 1.0)
        assert (lane, start, completion) == (1, 1.0, 2.0)
        assert lanes.makespan() == 4.0

    def test_validation(self):
        from repro.common.simtime import LaneSchedule
        with pytest.raises(ValueError):
            LaneSchedule(0)
        with pytest.raises(ValueError):
            LaneSchedule(1).assign(0.0, -1.0)


class TestCostModel:
    def test_page_read_dwarfs_hit(self):
        assert CostModel.PAGE_READ > 10 * CostModel.PAGE_HIT

    def test_training_dominates_inference(self):
        assert (CostModel.TRAIN_STEP_PER_SAMPLE
                > CostModel.INFER_PER_SAMPLE)

    def test_finetune_cheaper_than_train(self):
        assert (CostModel.FINETUNE_STEP_PER_SAMPLE
                < CostModel.TRAIN_STEP_PER_SAMPLE)

    def test_spill_factor_meaningful(self):
        assert CostModel.HASH_SPILL_FACTOR >= 2.0


class TestRng:
    def test_make_rng_from_seed_deterministic(self):
        a = make_rng(7).random(5)
        b = make_rng(7).random(5)
        assert np.array_equal(a, b)

    def test_make_rng_passthrough(self):
        gen = np.random.default_rng(0)
        assert make_rng(gen) is gen

    def test_make_rng_none_uses_default_seed(self):
        """No unseeded escape hatch: None means DEFAULT_SEED, never OS
        entropy, so two None generators agree with each other and with
        an explicit make_rng(DEFAULT_SEED)."""
        from repro.common.rng import DEFAULT_SEED
        a = make_rng(None).random(5)
        b = make_rng(None).random(5)
        c = make_rng(DEFAULT_SEED).random(5)
        assert np.array_equal(a, b)
        assert np.array_equal(a, c)

    def test_stable_hash_deterministic_across_calls(self):
        assert stable_hash(("a", 1), 100) == stable_hash(("a", 1), 100)

    def test_stable_hash_in_range(self):
        for value in ["x", 123, ("a", 2.5), None]:
            assert 0 <= stable_hash(value, 17) < 17

    @given(st.text(max_size=30), st.integers(min_value=1, max_value=1000))
    @settings(max_examples=50)
    def test_stable_hash_property(self, value, buckets):
        h = stable_hash(value, buckets)
        assert 0 <= h < buckets
        assert h == stable_hash(value, buckets)

    _SCALARS = st.one_of(
        st.integers(min_value=-2 ** 80, max_value=2 ** 80),
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from([-0.0, 0.0, float("nan"), float("inf"),
                         float("-inf"), None, True, False, "", "日本語",
                         "héllo", "\x00"]),
        st.text(max_size=40))

    @given(st.lists(st.one_of(_SCALARS, st.tuples(_SCALARS, _SCALARS),
                              st.tuples(_SCALARS, st.tuples(_SCALARS))),
                    max_size=60),
           st.sampled_from([1, 2, 3, 17, 4096, 1 << 32, (1 << 63) - 1]),
           st.sampled_from([1, 3, rng.VECTOR_MIN]))
    @example([-7, 2 ** 70, -0.0, float("nan"), float("inf"), "日本語", None,
              True, False, (1, "é", None, -0.0, (True,)), ()], 4096, 1)
    @settings(max_examples=300, deadline=None)
    def test_stable_hashes_equals_the_scalar_hash(self, values, buckets,
                                                  vector_min):
        """Bit-equal to the scalar hash, whichever bytes the numpy steps
        take and which the byte loop finishes (``VECTOR_MIN`` = 1: all
        of them vectorized)."""
        default, rng.VECTOR_MIN = rng.VECTOR_MIN, vector_min
        try:
            hashed = stable_hashes(values, buckets)
        finally:
            rng.VECTOR_MIN = default
        assert hashed.dtype == np.int64 and hashed.shape == (len(values),)
        assert hashed.tolist() == [stable_hash(v, buckets) for v in values]

    def test_stable_hashes_of_nothing(self):
        assert stable_hashes([], 7).shape == (0,)


class TestErrors:
    def test_hierarchy(self):
        assert issubclass(ParseError, NeurDBError)
        assert issubclass(TransientError, NeurDBError)

    def test_parse_error_position(self):
        err = ParseError("bad token", position=12)
        assert err.position == 12
