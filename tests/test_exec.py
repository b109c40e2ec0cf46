"""Tests for expression evaluation and query execution correctness."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.common.errors import BindError, ExecutionError
from repro.exec.expr import RowLayout, compile_expr, to_bool
from repro.exec.measure import measure_plan_latency
from repro.sql import ast, parse
from repro.storage.types import DataType

from engines import with_engine

INT, FLOAT, TEXT = DataType.INT, DataType.FLOAT, DataType.TEXT


class TestRowLayout:
    def test_resolve_qualified(self):
        layout = RowLayout([("a", "x"), ("b", "x")], [INT, INT])
        assert layout.resolve("x", "a") == 0
        assert layout.resolve("x", "b") == 1

    def test_ambiguous_unqualified(self):
        layout = RowLayout([("a", "x"), ("b", "x")], [INT, INT])
        with pytest.raises(BindError):
            layout.resolve("x")

    def test_unknown_column(self):
        layout = RowLayout([("a", "x")], [INT])
        with pytest.raises(BindError):
            layout.resolve("zzz")

    def test_concat(self):
        layout = RowLayout([("a", "x")], [INT]).concat(
            RowLayout([("b", "y")], [TEXT]))
        assert layout.types == (INT, TEXT)
        assert layout.resolve("y") == 1


def _eval(expr_sql: str, layout=None, row=()):
    layout = layout if layout is not None else RowLayout([], [])
    stmt = parse(f"SELECT 1 FROM t WHERE {expr_sql}")
    return compile_expr(stmt.where, layout)(row)


class TestExpressionEvaluation:
    def test_arithmetic(self):
        assert _eval("1 + 2 * 3 = 7")
        assert _eval("10 / 4 = 2.5")
        assert _eval("10 % 3 = 1")

    def test_division_by_zero(self):
        with pytest.raises(ExecutionError):
            _eval("1 / 0 = 1")

    def test_three_valued_logic_null_comparison(self):
        assert _eval("NULL = 1") is None
        assert _eval("NULL <> 1") is None

    def test_and_or_kleene(self):
        assert _eval("FALSE AND NULL") is False     # short circuit
        assert _eval("TRUE OR NULL") is True
        assert _eval("TRUE AND NULL") is None
        assert _eval("FALSE OR NULL") is None

    def test_not_null(self):
        assert _eval("NOT NULL") is None

    def test_is_null(self):
        assert _eval("NULL IS NULL") is True
        assert _eval("1 IS NOT NULL") is True

    def test_in_list(self):
        assert _eval("2 IN (1, 2, 3)") is True
        assert _eval("9 NOT IN (1, 2)") is True
        assert _eval("NULL IN (1)") is None

    def test_between(self):
        assert _eval("2 BETWEEN 1 AND 3") is True
        assert _eval("0 NOT BETWEEN 1 AND 3") is True

    def test_like(self):
        assert _eval("'hello' LIKE 'he%'") is True
        assert _eval("'hello' LIKE 'h_llo'") is True
        assert _eval("'hello' LIKE 'x%'") is False

    def test_like_escapes_regex_chars(self):
        assert _eval("'a.c' LIKE 'a.c'") is True
        assert _eval("'abc' LIKE 'a.c'") is False  # '.' is literal

    def test_scalar_functions(self):
        assert _eval("abs(-3) = 3")
        assert _eval("lower('AB') = 'ab'")
        assert _eval("length('abc') = 3")
        assert _eval("coalesce(NULL, NULL, 5) = 5")

    def test_unknown_function(self):
        with pytest.raises(BindError):
            _eval("nosuchfn(1) = 1")

    def test_column_reference(self):
        layout = RowLayout([("t", "a")], [INT])
        stmt = parse("SELECT 1 FROM t WHERE a * 2 = 10")
        assert compile_expr(stmt.where, layout)((5,)) is True

    def test_to_bool(self):
        assert to_bool(None) is False
        assert to_bool(True) is True
        assert to_bool(0) is False


def _vector_of(predicate_sql: str, layout: RowLayout):
    from repro.exec.expr import compile_expr_vector
    stmt = parse(f"SELECT 1 FROM t WHERE {predicate_sql}")
    return stmt.where, compile_expr_vector(stmt.where, layout)


def _block(layout: RowLayout, rows):
    from repro.exec.batch import RowBlock
    return RowBlock.from_rows(layout, rows)


class TestVectorizedScalarFunctions:
    """The vectorizer must lower the scalar-function predicates that used
    to force whole-block row fallback — and still defer to the row
    evaluator wherever runtime values could make the two paths diverge."""

    LAYOUT = RowLayout([("t", "name"), ("t", "age"), ("t", "nick")],
                       [TEXT, INT, TEXT])

    def _mask(self, predicate_sql: str, rows):
        from repro.exec.expr import compile_predicate_batch
        stmt = parse(f"SELECT 1 FROM t WHERE {predicate_sql}")
        evaluate = compile_predicate_batch(stmt.where, self.LAYOUT)
        return list(evaluate(_block(self.LAYOUT, rows)))

    def test_string_functions_lower(self):
        for predicate in ("lower(name) = 'bob'", "upper(name) = 'BOB'",
                          "length(name) > 2"):
            _, vector = _vector_of(predicate, self.LAYOUT)
            assert vector is not None, predicate

    def test_numeric_functions_lower(self):
        for predicate in ("abs(age) > 1", "round(age) = 2",
                          "floor(age) = 2", "ceil(age) = 2",
                          "coalesce(age, 0) > 1"):
            _, vector = _vector_of(predicate, self.LAYOUT)
            assert vector is not None, predicate

    def test_declined_forms_stay_row_fallback(self):
        # 2-arg round: numpy's scaled rounding can disagree on ties, so
        # tie semantics stay the row evaluator's
        _, vector = _vector_of("round(age, 2) = 1.5", self.LAYOUT)
        assert vector is None

    def test_wrong_arity_is_a_bind_error(self):
        for predicate in ("abs(age, age) = 1", "length(name, nick) = 1",
                          "round(age, 1, 2) = 1"):
            with pytest.raises(BindError):
                self._mask(predicate, [])

    def test_masks_match_row_semantics(self):
        rows = [("Bob", 2, None), ("bob", -3, "x"), ("ann", None, "yy"),
                (None, 5, "zzz")]
        assert self._mask("lower(name) = 'bob'", rows) == [
            True, True, False, False]
        assert self._mask("length(coalesce(nick, name)) >= 2", rows) == [
            True, False, True, True]
        assert self._mask("abs(age) = 3", rows) == [False, True, False,
                                                    False]
        assert self._mask("round(age) BETWEEN 2 AND 5", rows) == [
            True, False, False, True]

    def test_round_half_even_matches_python(self):
        layout = RowLayout([("t", "x")], [FLOAT])
        from repro.exec.expr import compile_predicate_batch
        stmt = parse("SELECT 1 FROM t WHERE round(x) = 2")
        evaluate = compile_predicate_batch(stmt.where, layout)
        rows = [(0.5,), (1.5,), (2.5,), (3.5,), (-2.5,)]
        got = list(evaluate(_block(layout, rows)))
        assert got == [round(x) == 2 for (x,) in rows]

    def test_string_function_on_numbers_is_a_bind_error(self):
        # lower(5) has no answer: rejected at plan time, on an empty
        # table as on a populated one, before anything is charged
        db = repro.connect()
        db.execute("CREATE TABLE fx (a INT)")
        for _ in range(2):
            before = db.clock.now
            with pytest.raises(BindError):
                db.execute("SELECT * FROM fx WHERE lower(a) = 'x'")
            assert db.clock.now == before
            db.execute("INSERT INTO fx VALUES (5)")

    def test_mixed_type_coalesce_is_a_bind_error(self):
        # an INT column coalesced with a TEXT default has no one type
        with pytest.raises(BindError):
            self._mask("coalesce(age, name) = 'a'", [("a", None, None)])
        assert self._mask("coalesce(nick, name) = 'a'",
                          [("a", None, None), ("b", 3, "n")]) == [True, False]


class TestCompiledExpressionCache:
    def test_row_compile_cached_by_node_identity(self):
        from repro.exec.expr import compile_expr_cached
        layout = RowLayout([("t", "a")], [INT])
        stmt = parse("SELECT 1 FROM t WHERE a > 1")
        first = compile_expr_cached(stmt.where, layout)
        second = compile_expr_cached(stmt.where, layout)
        assert first is second

    def test_distinct_nodes_not_shared(self):
        from repro.exec.expr import compile_expr_cached
        layout = RowLayout([("t", "a")], [INT])
        one = parse("SELECT 1 FROM t WHERE a > 1").where
        two = parse("SELECT 1 FROM t WHERE a > 1").where
        assert compile_expr_cached(one, layout) is not \
            compile_expr_cached(two, layout)

    def test_layout_shape_part_of_key(self):
        from repro.exec.expr import compile_expr_cached
        stmt = parse("SELECT 1 FROM t WHERE a > 1")
        narrow = compile_expr_cached(stmt.where,
                                     RowLayout([("t", "a")], [INT]))
        wide = compile_expr_cached(stmt.where,
                                   RowLayout([("t", "x"), ("t", "a")],
                                             [INT, INT]))
        assert narrow((5,)) is True
        assert wide((0, 5)) is True  # resolved against the wider layout

    def test_shared_subtree_retyped_after_recreate(self):
        """The template cache hands ``s < a`` out as one tree for every
        statement with that text.  After the table is re-created with
        other column types, the same tree must type and lower against the
        new schema, never reuse what was compiled for the old one."""
        from repro.exec.expr import compile_predicate_batch
        db = repro.connect()
        sql = "SELECT id FROM r WHERE s < a AND id > 0"
        schemas = {}
        for types, rows, expected in (
                ("INT", "(1, 9, 10), (2, 10, 9)", [(1,)]),
                ("TEXT", "(1, '9', '10'), (2, '10', '9')", [(2,)])):
            db.execute("DROP TABLE IF EXISTS r")
            db.execute(f"CREATE TABLE r (id INT, s {types}, a {types})")
            db.execute(f"INSERT INTO r VALUES {rows}")
            for engine in ("batch", "parallel"):
                db.executor = with_engine(db, engine)
                assert db.execute(sql).rows == expected, (types, engine)
            schemas[types] = db.catalog.table("r").schema
        shared = parse(sql).where.left
        assert parse("SELECT id FROM r WHERE s < a AND id > 7"
                     ).where.left is shared
        by_int, by_text = (
            compile_predicate_batch(shared, RowLayout.of_table("r", schema))
            for schema in (schemas["INT"], schemas["TEXT"]))
        assert by_int is not by_text
        db.execute("DROP TABLE r")
        db.execute("CREATE TABLE r (id INT, s TEXT, a INT)")
        with pytest.raises(BindError):
            db.execute(sql)

    def test_predicate_batch_cached_including_vector_funcs(self):
        from repro.exec.expr import compile_predicate_batch
        layout = RowLayout([("t", "name")], [TEXT])
        stmt = parse("SELECT 1 FROM t WHERE lower(name) = 'x'")
        first = compile_predicate_batch(stmt.where, layout)
        second = compile_predicate_batch(stmt.where, layout)
        assert first is second

    def test_cache_clears_at_capacity_instead_of_growing(self):
        from repro.exec import expr as expr_module
        layout = RowLayout([("t", "a")], [INT])
        keep = []  # pin AST nodes so ids cannot be recycled mid-test
        for _ in range(expr_module._COMPILE_CACHE_MAX + 10):
            node = parse("SELECT 1 FROM t WHERE a > 1").where
            keep.append(node)
            expr_module.compile_expr_cached(node, layout)
        assert len(expr_module._compile_cache) <= \
            expr_module._COMPILE_CACHE_MAX


class TestQueryExecution:
    def test_count_star(self, users_orders_db):
        assert users_orders_db.execute(
            "SELECT count(*) FROM users").scalar() == 60

    def test_filter_correctness(self, users_orders_db):
        result = users_orders_db.execute(
            "SELECT count(*) FROM users WHERE age >= 30")
        expected = sum(1 for i in range(60) if 20 + i % 40 >= 30)
        assert result.scalar() == expected

    def test_projection_names(self, users_orders_db):
        result = users_orders_db.execute(
            "SELECT name AS who, age FROM users LIMIT 1")
        assert result.columns == ["who", "age"]

    def test_join_matches_bruteforce(self, users_orders_db):
        result = users_orders_db.execute(
            "SELECT count(*) FROM users u JOIN orders o "
            "ON u.id = o.user_id WHERE u.age < 30")
        users = [(i, 20 + i % 40) for i in range(60)]
        orders = [(i, i % 60) for i in range(200)]
        expected = sum(1 for uid, age in users for _, ouid in orders
                       if uid == ouid and age < 30)
        assert result.scalar() == expected

    def test_group_by_aggregates(self, users_orders_db):
        result = users_orders_db.execute(
            "SELECT status, count(*), sum(amount) FROM orders "
            "GROUP BY status ORDER BY status")
        assert len(result.rows) == 3
        assert sum(row[1] for row in result.rows) == 200

    def test_avg_min_max(self, users_orders_db):
        result = users_orders_db.execute(
            "SELECT avg(age), min(age), max(age) FROM users")
        ages = [20 + i % 40 for i in range(60)]
        avg, lo, hi = result.rows[0]
        assert avg == pytest.approx(sum(ages) / len(ages))
        assert (lo, hi) == (min(ages), max(ages))

    def test_aggregate_arithmetic(self, users_orders_db):
        result = users_orders_db.execute(
            "SELECT max(age) - min(age) FROM users")
        assert result.scalar() == 39

    def test_order_by_desc_limit_offset(self, users_orders_db):
        result = users_orders_db.execute(
            "SELECT age FROM users ORDER BY age DESC LIMIT 3 OFFSET 1")
        ages = sorted((20 + i % 40 for i in range(60)), reverse=True)
        assert result.column("age") == ages[1:4]

    def test_distinct(self, users_orders_db):
        result = users_orders_db.execute(
            "SELECT DISTINCT city FROM users")
        assert len(result.rows) == 4

    def test_index_point_lookup(self, users_orders_db):
        result = users_orders_db.execute("SELECT name FROM users WHERE id = 7")
        assert result.rows == [("user7",)]

    def test_empty_result(self, users_orders_db):
        result = users_orders_db.execute(
            "SELECT * FROM users WHERE age > 1000")
        assert result.rows == []

    def test_count_on_empty_is_zero(self, users_orders_db):
        result = users_orders_db.execute(
            "SELECT count(*) FROM users WHERE age > 1000")
        assert result.scalar() == 0

    def test_tableless_select(self, users_orders_db):
        assert users_orders_db.execute("SELECT 2 + 3").scalar() == 5

    def test_virtual_time_positive(self, users_orders_db):
        result = users_orders_db.execute("SELECT count(*) FROM orders")
        assert result.virtual_seconds > 0

    def test_three_way_join(self, users_orders_db):
        users_orders_db.execute(
            "CREATE TABLE cities (code TEXT UNIQUE, country TEXT)")
        for code, country in [("sg", "SG"), ("ny", "US"), ("ldn", "UK"),
                              ("tok", "JP")]:
            users_orders_db.execute(
                f"INSERT INTO cities VALUES ('{code}', '{country}')")
        users_orders_db.execute("ANALYZE")
        result = users_orders_db.execute(
            "SELECT count(*) FROM users u JOIN orders o ON u.id = o.user_id "
            "JOIN cities c ON u.city = c.code WHERE c.country = 'US'")
        expected = sum(1 for i in range(200) if (i % 60) % 4 == 1)
        assert result.scalar() == expected


class TestCandidatePlansAgree:
    """Every candidate plan for a query must produce the same answer."""

    @pytest.mark.parametrize("sql", [
        "SELECT count(*) FROM users u JOIN orders o ON u.id = o.user_id",
        "SELECT count(*) FROM users u JOIN orders o ON u.id = o.user_id "
        "WHERE u.age > 30 AND o.amount < 200",
    ])
    def test_all_candidates_same_result(self, users_orders_db, sql):
        select = parse(sql)
        candidates = users_orders_db.planner.candidate_plans(select, 12)
        assert len(candidates) >= 2
        results = set()
        for candidate in candidates:
            result = users_orders_db.executor.run(candidate)
            results.add(result.rows[0][0])
        assert len(results) == 1


class TestMeasurePlanLatency:
    def test_uncapped(self, users_orders_db):
        select = parse("SELECT count(*) FROM users")
        node = users_orders_db.planner.plan_select(select)
        measured = measure_plan_latency(users_orders_db.executor,
                                        users_orders_db.clock, node)
        assert not measured.censored
        assert measured.latency > 0

    def test_cap_censors_pathological_plan(self, users_orders_db):
        select = parse("SELECT count(*) FROM users, orders")  # cross join
        candidates = users_orders_db.planner.candidate_plans(select, 8)
        worst = max(candidates, key=lambda c: c.est_cost)
        measured = measure_plan_latency(users_orders_db.executor,
                                        users_orders_db.clock, worst,
                                        cap_virtual=1e-6)
        assert measured.censored
        assert measured.latency == pytest.approx(1e-6)


@given(st.lists(st.integers(0, 20), min_size=0, max_size=60),
       st.lists(st.integers(0, 20), min_size=0, max_size=60))
@settings(max_examples=15, deadline=None)
def test_join_equivalent_to_bruteforce_property(left_keys, right_keys):
    """Hash-join output multiplicity equals the nested-loop definition."""
    db = repro.connect()
    db.execute("CREATE TABLE l (k INT)")
    db.execute("CREATE TABLE r (k INT)")
    for k in left_keys:
        db.execute(f"INSERT INTO l VALUES ({k})")
    for k in right_keys:
        db.execute(f"INSERT INTO r VALUES ({k})")
    db.execute("ANALYZE")
    got = db.execute("SELECT count(*) FROM l JOIN r ON l.k = r.k").scalar()
    expected = sum(1 for a in left_keys for b in right_keys if a == b)
    assert got == expected
