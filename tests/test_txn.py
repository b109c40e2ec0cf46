"""Tests for the discrete-event concurrency simulator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.txnsim import (
    ActionType,
    OptimisticCC,
    Operation,
    SerializableSnapshotIsolation,
    Transaction,
    TwoPhaseLocking,
    TxnSimulator,
)
from repro.workloads.ycsb import YCSBConfig, YCSBWorkload


def _hot_workload(keys=3, reads=2, writes=2):
    """All transactions hammer a tiny key set — guaranteed conflicts."""
    def factory(rng: np.random.Generator) -> Transaction:
        ops = []
        for _ in range(reads):
            ops.append(Operation(int(rng.integers(keys)), is_write=False))
        for _ in range(writes):
            ops.append(Operation(int(rng.integers(keys)), is_write=True))
        return Transaction(txn_id=0, type_id=0, ops=ops)
    return factory


class TestTxnSimulator:
    def test_deterministic_under_seed(self):
        workload = YCSBWorkload(YCSBConfig(records=1000, zipf_theta=0.9))
        a = TxnSimulator(4, TwoPhaseLocking(), workload, seed=5).run(0.005)
        b = TxnSimulator(4, TwoPhaseLocking(), workload, seed=5).run(0.005)
        assert a.committed == b.committed
        assert a.aborted == b.aborted

    def test_throughput_scales_with_threads_uncontended(self):
        workload = YCSBWorkload(YCSBConfig(records=1_000_000,
                                           zipf_theta=0.0))
        one = TxnSimulator(1, OptimisticCC(), workload, seed=1).run(0.01)
        four = TxnSimulator(4, OptimisticCC(), workload, seed=1).run(0.01)
        assert four.throughput > 3 * one.throughput

    def test_hot_keys_cause_conflicts(self):
        sim = TxnSimulator(8, OptimisticCC(), _hot_workload(), seed=1)
        result = sim.run(0.01)
        assert result.aborted > 0

    def test_2pl_serializes_hot_keys_without_validation_aborts(self):
        sim = TxnSimulator(4, TwoPhaseLocking(), _hot_workload(keys=50),
                           seed=1)
        result = sim.run(0.01)
        assert result.committed > 0

    def test_ssi_no_read_validation(self):
        assert SerializableSnapshotIsolation().validate_reads() is False
        assert OptimisticCC().validate_reads() is True

    def test_timeline_windows_cover_duration(self):
        workload = YCSBWorkload(YCSBConfig(records=1000))
        result = TxnSimulator(2, OptimisticCC(), workload,
                              seed=1).run(0.01, window=0.002)
        assert len(result.timeline) == 5
        assert result.timeline[-1][0] == pytest.approx(0.01)

    def test_latency_percentiles_ordered(self):
        workload = YCSBWorkload(YCSBConfig(records=1000, zipf_theta=0.9))
        result = TxnSimulator(4, TwoPhaseLocking(), workload,
                              seed=1).run(0.01)
        assert result.latencies_p99 >= result.latencies_p50 > 0

    def test_abort_rate_consistency(self):
        sim = TxnSimulator(8, OptimisticCC(), _hot_workload(), seed=2)
        result = sim.run(0.01)
        total = result.committed + result.aborted
        assert result.abort_rate == pytest.approx(result.aborted / total)

    def test_policy_abort_action_respected(self):
        class AlwaysAbortFirst(OptimisticCC):
            def choose_action(self, txn, op, key_state, global_state):
                if txn.restarts == 0:
                    return ActionType.ABORT
                return ActionType.OPTIMISTIC

        workload = YCSBWorkload(YCSBConfig(records=1000))
        result = TxnSimulator(2, AlwaysAbortFirst(), workload,
                              seed=1).run(0.005)
        assert result.aborted >= result.committed  # every txn aborts once

    def test_committed_writes_bump_versions(self):
        sim = TxnSimulator(2, TwoPhaseLocking(), _hot_workload(keys=2),
                           seed=1)
        sim.run(0.005)
        assert any(ks.version > 0 for ks in sim.keys.values())

    @given(st.integers(1, 8), st.sampled_from([0.0, 0.9]))
    @settings(max_examples=10, deadline=None)
    def test_no_crash_property(self, threads, theta):
        workload = YCSBWorkload(YCSBConfig(records=500, zipf_theta=theta))
        result = TxnSimulator(threads, SerializableSnapshotIsolation(),
                              workload, seed=0).run(0.003)
        assert result.committed >= 0
