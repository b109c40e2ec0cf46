"""Tests for the benchmark reporting helpers and the small-scale Fig. 6(c)
driver.  PostgreSQL+P (Figs. 6(a) and 6(b)) is measured in wall-clock time
by ``benchmarks/test_fig6a_overall.py`` and
``benchmarks/test_fig6b_data_volume.py``."""

import pytest

from repro.bench.fig6 import run_fig6c
from repro.bench.reporting import format_table, geometric_mean


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], ["xy", 12345.0]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "12,345" in text

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        assert geometric_mean([]) == 0.0


class TestFig6DriversSmall:
    """Tiny-scale smoke tests of the experiment drivers; full-scale shape
    assertions live in benchmarks/."""

    def test_fig6c_incremental_update_helps(self):
        result = run_fig6c(samples_per_cluster=4096, batch_size=256)
        assert len(result.drift_points) == 4
        assert result.versions_created >= 1
        without, with_ = result.spike_means(window=4)
        assert with_ <= without
