"""Tests for the catalog and the statistics module."""

import numpy as np
import pytest

import repro
from repro.common.errors import CatalogError
from repro.storage import (
    Catalog,
    Column,
    DataType,
    TableSchema,
    compute_column_stats,
    compute_table_stats,
)


def _schema(name="t"):
    return TableSchema(name, [Column("id", DataType.INT, unique=True),
                              Column("v", DataType.FLOAT)])


class TestCatalog:
    def test_create_get_table(self, catalog):
        catalog.create_table(_schema())
        assert catalog.has_table("t")
        assert catalog.table("T").name == "t"

    def test_duplicate_table(self, catalog):
        catalog.create_table(_schema())
        with pytest.raises(CatalogError):
            catalog.create_table(_schema())

    def test_missing_table(self, catalog):
        with pytest.raises(CatalogError):
            catalog.table("ghost")

    def test_drop_table_removes_everything(self, catalog):
        catalog.create_table(_schema())
        catalog.create_index("i", "t", "v")
        catalog.analyze("t")
        catalog.drop_table("t")
        assert not catalog.has_table("t")
        assert catalog.stats("t") is None
        assert catalog.indexes_on("t") == []

    def test_drop_if_exists(self, catalog):
        catalog.drop_table("ghost", if_exists=True)
        with pytest.raises(CatalogError):
            catalog.drop_table("ghost")

    def test_create_index_backfills_existing_rows(self, catalog):
        catalog.create_table(_schema())
        table = catalog.table("t")
        for i in range(20):
            table.insert((i, float(i)))
        entry = catalog.create_index("i", "t", "id")
        assert len(entry.index.search(7)) == 1

    def test_hash_index_kind(self, catalog):
        catalog.create_table(_schema())
        entry = catalog.create_index("h", "t", "v", kind="hash")
        assert entry.kind == "hash"

    def test_unknown_index_kind(self, catalog):
        catalog.create_table(_schema())
        with pytest.raises(CatalogError):
            catalog.create_index("x", "t", "v", kind="rtree")

    def test_duplicate_index_name(self, catalog):
        catalog.create_table(_schema())
        catalog.create_index("i", "t", "v")
        with pytest.raises(CatalogError):
            catalog.create_index("i", "t", "id")

    def test_indexes_on_filters_by_column(self, catalog):
        catalog.create_table(_schema())
        catalog.create_index("i1", "t", "id")
        catalog.create_index("i2", "t", "v")
        assert len(catalog.indexes_on("t")) == 2
        assert len(catalog.indexes_on("t", "id")) == 1

    def test_analyze_versions_increase(self, catalog):
        catalog.create_table(_schema())
        catalog.analyze()
        v1 = catalog.stats("t").version
        catalog.analyze("t")
        assert catalog.stats("t").version == v1 + 1

    def test_analyze_captures_row_count(self, catalog):
        catalog.create_table(_schema())
        table = catalog.table("t")
        for i in range(42):
            table.insert((i, float(i)))
        catalog.analyze("t")
        assert catalog.stats("t").row_count == 42

    def test_model_bindings(self, catalog):
        catalog.create_table(_schema())
        catalog.bind_model("model_x", "T", "V", ["ID"])
        assert catalog.model_binding("model_x") == ("t", "v", ("id",))
        assert catalog.model_binding("model_y") is None
        assert catalog.bound_model("T", "V") == "model_x"
        assert catalog.bound_model("t", "id") is None
        # a pair's model is the one bound last; a re-bind moves to the end
        catalog.bind_model("model_y", "t", "v", ["id", "v"])
        assert catalog.bound_model("t", "v") == "model_y"
        catalog.bind_model("model_x", "t", "v", ["id"])
        assert catalog.bound_model("t", "v") == "model_x"
        assert catalog.model_binding("model_y").feature_columns == ("id", "v")


class TestColumnStats:
    def test_basic_counts(self):
        stats = compute_column_stats("c", DataType.INT,
                                     [1, 2, 2, None, 3])
        assert stats.row_count == 5
        assert stats.null_count == 1
        assert stats.distinct_count == 3
        assert stats.null_fraction() == pytest.approx(0.2)

    def test_min_max_histogram(self):
        values = list(range(100))
        stats = compute_column_stats("c", DataType.INT, values)
        assert stats.min_value == 0
        assert stats.max_value == 99
        assert stats.histogram.sum() == 100

    def test_selectivity_eq_most_common(self):
        values = [7] * 50 + list(range(50))
        stats = compute_column_stats("c", DataType.INT, values)
        assert stats.selectivity_eq(7) == pytest.approx(0.51, abs=0.02)

    def test_selectivity_eq_uniform_fallback(self):
        values = list(range(1000))
        stats = compute_column_stats("c", DataType.INT, values)
        assert stats.selectivity_eq(123456) == pytest.approx(1 / 1000)

    def test_selectivity_range_half(self):
        values = list(range(100))
        stats = compute_column_stats("c", DataType.INT, values)
        assert stats.selectivity_range(0, 49) == pytest.approx(0.5,
                                                               abs=0.08)

    def test_selectivity_range_outside(self):
        values = list(range(100))
        stats = compute_column_stats("c", DataType.INT, values)
        assert stats.selectivity_range(200, 300) == pytest.approx(0.0)

    def test_selectivity_range_open_ends(self):
        values = list(range(100))
        stats = compute_column_stats("c", DataType.INT, values)
        assert stats.selectivity_range(None, None) == pytest.approx(1.0)

    def test_empty_column(self):
        stats = compute_column_stats("c", DataType.INT, [])
        assert stats.selectivity_eq(5) == 0.0
        assert stats.feature_vector().shape == (21,)

    def test_text_column_sketch(self):
        stats = compute_column_stats("c", DataType.TEXT,
                                     ["a", "b", "a", "c"])
        assert stats.distinct_count == 3
        assert stats.histogram.sum() == 4

    def test_text_sketch_is_process_stable(self):
        """The sketch feeds the learned optimizer's feature vector, so
        its buckets must not follow ``PYTHONHASHSEED`` (the builtin
        ``hash`` of a string does): pinned, they hold in any process."""
        stats = compute_column_stats("c", DataType.TEXT,
                                     ["a", "b", "a", "c", "dd", "e"])
        assert stats.histogram.tolist() == [
            0, 1, 0, 1, 0, 0, 2, 0, 1, 0, 1, 0, 0, 0, 0, 0]
        flags = compute_column_stats("c", DataType.BOOL,
                                     [True, False, True])
        assert flags.histogram.tolist() == [
            0, 0, 0, 0, 0, 2, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0]

    def test_non_finite_floats_are_counted_not_binned(self):
        inf, nan = float("inf"), float("nan")
        stats = compute_column_stats("c", DataType.FLOAT,
                                     [inf, 1.0, None, 3.0, -inf])
        assert (stats.row_count, stats.null_count,
                stats.distinct_count) == (5, 1, 4)
        assert (stats.min_value, stats.max_value) == (-inf, inf)
        assert stats.histogram.sum() == 2
        assert (stats.bin_edges[0], stats.bin_edges[-1]) == (1.0, 3.0)
        assert stats.selectivity_range(0.0, 2.0) == pytest.approx(0.5)
        # nothing finite to bin: the un-analyzed defaults stay
        stats = compute_column_stats("c", DataType.FLOAT, [nan, inf])
        assert stats.distinct_count == 2
        assert stats.histogram.sum() == 0 and stats.bin_edges is None

    def test_analyze_accepts_inf_and_nan_cells(self):
        """ANALYZE is total: an out-of-range literal is ``inf``, and the
        histogram used to refuse it with numpy's raw ``ValueError``."""
        db = repro.connect()
        db.execute("CREATE TABLE t (id INT, v FLOAT)")
        db.execute("INSERT INTO t VALUES (1, 1e999), (2, 1.0)")
        db.execute("ANALYZE")
        stats = db.catalog.stats("t").column_stats("v")
        assert stats.max_value == float("inf")
        assert stats.histogram.sum() == 1
        db.catalog.table("t").insert((3, float("nan")))
        db.execute("ANALYZE")
        stats = db.catalog.stats("t").column_stats("v")
        assert (stats.row_count, stats.distinct_count) == (3, 3)
        assert stats.histogram.sum() == 1
        assert db.execute("SELECT id FROM t WHERE v > 0.5").rows \
            == [(1,), (2,)]

    def test_feature_vector_shape_and_bounds(self):
        values = list(np.random.default_rng(0).normal(50, 10, 500))
        stats = compute_column_stats("c", DataType.FLOAT, values)
        vec = stats.feature_vector()
        assert vec.shape == (21,)
        assert np.isfinite(vec).all()
        assert vec[:16].sum() == pytest.approx(1.0)  # normalized histogram

    def test_table_stats_covers_all_columns(self, simple_schema):
        rows = [(i, f"n{i}", float(i), True) for i in range(10)]
        table_stats = compute_table_stats(simple_schema, rows,
                                          page_count=2)
        assert set(table_stats.columns) == {"id", "name", "score",
                                            "active"}
        assert table_stats.page_count == 2
