"""End-to-end tests of the NeurDB facade: DDL, DML, SELECT, PREDICT."""

import numpy as np
import pytest

import repro
from repro.common.errors import (
    BindError,
    CatalogError,
    ConstraintViolation,
    ExecutionError,
    NeurDBError,
    ParseError,
)


class TestDDL:
    def test_create_and_drop(self):
        db = repro.connect()
        db.execute("CREATE TABLE t (a INT)")
        assert db.catalog.has_table("t")
        db.execute("DROP TABLE t")
        assert not db.catalog.has_table("t")

    def test_create_duplicate_fails(self):
        db = repro.connect()
        db.execute("CREATE TABLE t (a INT)")
        with pytest.raises(CatalogError):
            db.execute("CREATE TABLE t (a INT)")

    def test_drop_if_exists(self):
        db = repro.connect()
        db.execute("DROP TABLE IF EXISTS ghost")  # no error
        with pytest.raises(CatalogError):
            db.execute("DROP TABLE ghost")

    def test_create_index_backfills(self):
        db = repro.connect()
        db.execute("CREATE TABLE t (a INT)")
        db.execute("INSERT INTO t VALUES (5), (6)")
        db.execute("CREATE INDEX i ON t (a)")
        entry = db.catalog.indexes_on("t", "a")[0]
        assert len(entry.index.search(5)) == 1


class TestDML:
    def test_insert_with_column_subset(self):
        db = repro.connect()
        db.execute("CREATE TABLE t (a INT, b TEXT, c FLOAT)")
        db.execute("INSERT INTO t (c, a) VALUES (1.5, 7)")
        row = db.execute("SELECT a, b, c FROM t").rows[0]
        assert row == (7, None, 1.5)

    def test_insert_arity_mismatch(self):
        db = repro.connect()
        db.execute("CREATE TABLE t (a INT, b INT)")
        with pytest.raises(ExecutionError):
            db.execute("INSERT INTO t (a) VALUES (1, 2)")

    def test_insert_rowcount(self):
        db = repro.connect()
        db.execute("CREATE TABLE t (a INT)")
        result = db.execute("INSERT INTO t VALUES (1), (2), (3)")
        assert result.extra["rowcount"] == 3

    def test_update_with_expression(self):
        db = repro.connect()
        db.execute("CREATE TABLE t (a INT, b INT)")
        db.execute("INSERT INTO t VALUES (1, 10), (2, 20)")
        result = db.execute("UPDATE t SET b = b + a WHERE a = 2")
        assert result.extra["rowcount"] == 1
        assert db.execute("SELECT b FROM t WHERE a = 2").scalar() == 22

    def test_update_without_where_hits_all(self):
        db = repro.connect()
        db.execute("CREATE TABLE t (a INT)")
        db.execute("INSERT INTO t VALUES (1), (2)")
        result = db.execute("UPDATE t SET a = 0")
        assert result.extra["rowcount"] == 2

    def test_delete(self):
        db = repro.connect()
        db.execute("CREATE TABLE t (a INT)")
        db.execute("INSERT INTO t VALUES (1), (2), (3)")
        db.execute("DELETE FROM t WHERE a >= 2")
        assert db.execute("SELECT count(*) FROM t").scalar() == 1

    def test_unique_violation_via_sql(self):
        db = repro.connect()
        db.execute("CREATE TABLE t (a INT UNIQUE)")
        db.execute("INSERT INTO t VALUES (1)")
        with pytest.raises(ConstraintViolation):
            db.execute("INSERT INTO t VALUES (1)")

    def test_index_maintained_on_update_delete(self):
        db = repro.connect()
        db.execute("CREATE TABLE t (a INT)")
        db.execute("INSERT INTO t VALUES (1), (2)")
        db.execute("CREATE INDEX i ON t (a)")
        db.execute("UPDATE t SET a = 9 WHERE a = 1")
        entry = db.catalog.indexes_on("t", "a")[0]
        assert entry.index.search(1) == []
        assert len(entry.index.search(9)) == 1
        db.execute("DELETE FROM t WHERE a = 9")
        assert entry.index.search(9) == []

    def test_execute_script(self):
        db = repro.connect()
        results = db.execute_script(
            "CREATE TABLE t (a INT); INSERT INTO t VALUES (1); "
            "SELECT count(*) FROM t")
        assert results[-1].scalar() == 1

    def test_execute_script_keeps_semicolons_inside_strings(self):
        db = repro.connect()
        results = db.execute_script(
            "CREATE TABLE t (id INT, s TEXT); "
            "INSERT INTO t VALUES (1, 'a;b');; SELECT * FROM t;")
        assert [r.rows for r in results][-1] == [(1, "a;b")]
        assert len(results) == 3

    def test_transaction_statements_are_rejected_not_ignored(self):
        # BEGIN .. ROLLBACK used to answer with status strings while the
        # DELETE between them stuck; an autocommit session refuses them
        db = repro.connect()
        db.execute_script("CREATE TABLE t (id INT); "
                          "INSERT INTO t VALUES (5), (6)")
        for sql in ("BEGIN", "COMMIT", "ROLLBACK"):
            with pytest.raises(ParseError, match="autocommit"):
                db.execute(sql)
        with pytest.raises(ParseError, match="autocommit"):
            db.execute_script("BEGIN; DELETE FROM t WHERE id = 5; ROLLBACK")
        assert db.execute("SELECT count(*) FROM t").scalar() == 2


def _load_typed_table(db):
    """One column of each type, features beside a FLOAT target."""
    db.execute("CREATE TABLE t (id INT UNIQUE, a INT, b FLOAT, c TEXT, "
               "y FLOAT)")
    for i in range(20):
        db.execute(f"INSERT INTO t VALUES ({i}, {i % 3}, {i * 0.5}, "
                   f"'c{i % 2}', {i * 0.1})")


def _load_review_table(db, n=400, seed=0):
    """The paper's Listing-1 scenario: scores known except for one brand."""
    db.execute("CREATE TABLE review (rid INT UNIQUE, brand_name TEXT, "
               "f1 FLOAT, f2 FLOAT, score FLOAT)")
    rng = np.random.default_rng(seed)
    for i in range(n):
        brand = "special goods" if i % 4 == 0 else "other"
        f1, f2 = rng.random(2).round(3)
        score = round(3 * f1 - 2 * f2 + 1, 3)
        if brand == "special goods":
            db.execute(f"INSERT INTO review VALUES ({i}, '{brand}', "
                       f"{f1}, {f2}, NULL)")
        else:
            db.execute(f"INSERT INTO review VALUES ({i}, '{brand}', "
                       f"{f1}, {f2}, {score})")


class TestPredict:
    def test_listing1_regression(self):
        db = repro.connect()
        _load_review_table(db)
        result = db.execute(
            "PREDICT VALUE OF score FROM review "
            "WHERE brand_name = 'special goods' "
            "TRAIN ON * WITH brand_name <> 'special goods'")
        assert len(result.rows) == 100
        assert result.columns[-1] == "score"
        assert result.extra["trained_now"] is True
        # predictions should land in a sane range of the target
        predictions = [row[-1] for row in result.rows]
        assert -3 < min(predictions) and max(predictions) < 6

    def test_regression_learns_signal(self):
        db = repro.connect()
        _load_review_table(db, n=600)
        result = db.execute(
            "PREDICT VALUE OF score FROM review "
            "WHERE brand_name = 'special goods' "
            "TRAIN ON f1, f2 WITH brand_name <> 'special goods'")
        f1_idx = result.columns.index("f1")
        f2_idx = result.columns.index("f2")
        errors = []
        for row in result.rows:
            truth = 3 * row[f1_idx] - 2 * row[f2_idx] + 1
            errors.append(abs(row[-1] - truth))
        # must beat the trivial predict-the-mean baseline (std ~ 1.2)
        assert float(np.mean(errors)) < 1.0

    def test_classification_with_inline_values(self):
        db = repro.connect()
        db.execute("CREATE TABLE diabetes (pid INT UNIQUE, "
                   "glucose FLOAT, bmi FLOAT, outcome INT)")
        rng = np.random.default_rng(1)
        for i in range(500):
            glucose = float(rng.integers(70, 200))
            bmi = float(rng.integers(18, 45))
            outcome = int(glucose > 140)
            db.execute(f"INSERT INTO diabetes VALUES ({i}, {glucose}, "
                       f"{bmi}, {outcome})")
        result = db.execute(
            "PREDICT CLASS OF outcome FROM diabetes "
            "TRAIN ON glucose, bmi VALUES (190, 30), (80, 25)")
        assert [row[-1] for row in result.rows] == [1, 0]

    def test_train_on_star_excludes_unique_and_target(self):
        db = repro.connect()
        _load_review_table(db, n=100)
        result = db.execute(
            "PREDICT VALUE OF score FROM review "
            "WHERE brand_name = 'special goods' TRAIN ON *")
        assert "rid" not in result.columns[:-1]
        assert result.columns[-1] == "score"

    def test_model_reused_on_second_call(self):
        db = repro.connect()
        _load_review_table(db, n=120)
        sql = ("PREDICT VALUE OF score FROM review "
               "WHERE brand_name = 'special goods' TRAIN ON *")
        first = db.execute(sql)
        second = db.execute(sql)
        assert first.extra["trained_now"] is True
        assert second.extra["trained_now"] is False

    def test_force_retrain_creates_new_version(self):
        db = repro.connect()
        _load_review_table(db, n=120)
        sql = ("PREDICT VALUE OF score FROM review "
               "WHERE brand_name = 'special goods' TRAIN ON *")
        first = db.execute(sql)
        model_name = first.extra["model"]
        assert len(db.models.versions(model_name)) == 1
        retrained = db.execute(sql, force_retrain=True)
        assert retrained.extra["trained_now"] is True
        assert len(db.models.versions(model_name)) == 2

    def test_model_names_follow_the_feature_columns(self):
        from repro.common.rng import stable_hash
        from repro.sql.parser import parse
        db = repro.connect()
        _load_review_table(db, n=8)
        lists = {"*": ("brand_name", "f1", "f2"), "f1, f2": ("f1", "f2"),
                 "F2, f1": ("f2", "f1"), "f1": ("f1",),
                 "brand_name": ("brand_name",)}
        names = set()
        for _ in range(2):          # the second pass reuses each signature
            for train_on, columns in lists.items():
                ctx = db.bind_predict(parse(
                    f"PREDICT VALUE OF Score FROM Review TRAIN ON {train_on}"))
                assert tuple(ctx.feature_columns) == columns
                signature = stable_hash(columns, 1 << 32)
                assert ctx.model_name == f"predict_review_score_{signature:08x}"
                names.add(ctx.model_name)
        assert len(names) == len(lists)

    def test_unknown_target_column(self):
        db = repro.connect()
        _load_review_table(db, n=50)
        with pytest.raises(BindError):
            db.execute("PREDICT VALUE OF ghost FROM review TRAIN ON *")

    def test_target_in_features_rejected(self):
        db = repro.connect()
        _load_review_table(db, n=50)
        with pytest.raises(BindError):
            db.execute("PREDICT VALUE OF score FROM review "
                       "TRAIN ON score, f1")

    @pytest.mark.parametrize("sql", [
        "PREDICT VALUE OF y FROM t TRAIN ON a, b VALUES (1)",
        "PREDICT VALUE OF y FROM t TRAIN ON a, b VALUES (1, 2.5), (1)",
        "PREDICT VALUE OF y FROM t TRAIN ON a VALUES ('x')",
        "PREDICT VALUE OF y FROM t TRAIN ON a VALUES (1.5)",
        # INSERT stores an integral FLOAT in an INT column; VALUES does not
        "PREDICT VALUE OF y FROM t TRAIN ON a VALUES (2.0)",
        "PREDICT VALUE OF y FROM t TRAIN ON c VALUES (3)",
        "PREDICT VALUE OF c FROM t TRAIN ON a, b",
    ])
    def test_malformed_predict_fails_before_training(self, sql):
        db = repro.connect()
        _load_typed_table(db)
        before = db.clock.now
        with pytest.raises(BindError):
            db.execute(sql)
        assert db.ai_engine.completed_tasks == []
        assert db.clock.now == before

    @pytest.mark.parametrize("sql, rows", [
        ("PREDICT VALUE OF y FROM t TRAIN ON a, b, c "
         "VALUES (1, 2.5, 's0')", 1),
        ("PREDICT VALUE OF y FROM t TRAIN ON a, b VALUES (2, 3)", 1),
        ("PREDICT VALUE OF y FROM t TRAIN ON c, a, b "
         "VALUES ('s3', 1, 0.5), ('s4', 2, 7)", 2),
        ("PREDICT VALUE OF y FROM t TRAIN ON a, b, c "
         "VALUES (NULL, NULL, NULL)", 1),
        ("PREDICT VALUE OF y FROM t TRAIN ON a, b, c "
         "VALUES (NULL, 2, 's1'), (1, NULL, NULL)", 2),
    ])
    def test_predict_values_match_feature_types(self, sql, rows):
        """PREDICT VALUES accepts a literal of the feature's own type, an
        INT for a FLOAT feature, and NULL anywhere (an integral FLOAT for
        an INT feature is refused, see the test above)."""
        db = repro.connect()
        _load_typed_table(db)
        result = db.execute(sql)
        assert len(result.rows) == rows
        assert ([t.kind for t in db.ai_engine.completed_tasks]
                == ["train", "inference"])

    def test_no_training_rows(self):
        db = repro.connect()
        db.execute("CREATE TABLE e (x FLOAT, y FLOAT)")
        db.execute("INSERT INTO e VALUES (1.0, NULL)")
        with pytest.raises(ExecutionError):
            db.execute("PREDICT VALUE OF y FROM e TRAIN ON x")

    def test_fine_tune_model_via_facade(self):
        db = repro.connect()
        _load_review_table(db, n=200)
        db.execute("PREDICT VALUE OF score FROM review "
                   "WHERE brand_name = 'special goods' TRAIN ON *")
        model_name = db.catalog.bound_model("review", "score")
        versions_before = db.models.versions(model_name)
        db.fine_tune_model("review", "score", epochs=1)
        assert len(db.models.versions(model_name)) == len(versions_before) + 1

    def test_fine_tune_reads_the_columns_the_model_was_trained_on(
            self, monkeypatch):
        import repro.db as facade
        db = repro.connect()
        _load_review_table(db, n=200)
        db.execute("PREDICT VALUE OF score FROM review "
                   "WHERE brand_name = 'special goods' TRAIN ON f2")
        model_name = db.catalog.bound_model("review", "score")
        materialised = []
        real = facade.table_training_set

        def spy(table, feature_columns, *args, **kwargs):
            materialised.append(list(feature_columns))
            return real(table, feature_columns, *args, **kwargs)
        monkeypatch.setattr(facade, "table_training_set", spy)
        db.fine_tune_model("review", "score", epochs=3, batch_size=32)
        # f2 is not a prefix of the schema's non-unique columns
        assert materialised == [["f2"]]
        tune = db.ai_engine.completed_tasks[-1]
        assert (tune.kind, tune.model_name) == ("finetune", model_name)
        assert tune.samples_processed == 3 * 150
        assert np.isfinite(tune.losses).all() and len(set(tune.losses)) > 1
        assert db.models.versions(model_name)[-1] == tune.model_version

    def test_fine_tune_names_a_model_bound_to_the_pair(self):
        db = repro.connect()
        _load_review_table(db, n=120)
        db.execute("PREDICT VALUE OF score FROM review TRAIN ON f1")
        db.execute("PREDICT VALUE OF f2 FROM review TRAIN ON f1")
        first = db.catalog.bound_model("review", "score")
        db.fine_tune_model("review", "score", epochs=1, model_name=first)
        assert len(db.models.versions(first)) == 2
        with pytest.raises(NeurDBError, match="no model bound"):
            db.fine_tune_model("review", "score", model_name="nobody")
        with pytest.raises(NeurDBError, match="no model bound"):   # other pair
            db.fine_tune_model("review", "f2", model_name=first)

    def test_fine_tune_without_binding(self):
        db = repro.connect()
        db.execute("CREATE TABLE t (a FLOAT, b FLOAT)")
        with pytest.raises(NeurDBError):
            db.fine_tune_model("t", "b")

    def test_predict_uses_virtual_clock(self):
        db = repro.connect()
        _load_review_table(db, n=150)
        before = db.clock.now
        db.execute("PREDICT VALUE OF score FROM review "
                   "WHERE brand_name = 'special goods' TRAIN ON *")
        assert db.clock.now > before
