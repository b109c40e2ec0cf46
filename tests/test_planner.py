"""Tests for the planner: binding, access paths, join enumeration, costing."""

import sqlite3

import pytest

import repro
from repro.common.errors import BindError, ExecutionError, PlanError
from repro.plan import (
    Aggregate,
    Filter,
    HashJoin,
    IndexScan,
    Limit,
    NestedLoopJoin,
    Planner,
    Project,
    SeqScan,
    Sort,
    conjoin,
    plan_signature,
    split_conjuncts,
)
from repro.sql import ast, parse

from engines import with_engine


class TestConjuncts:
    def test_split_flat(self):
        where = parse("SELECT 1 FROM t WHERE a = 1 AND b = 2 AND c = 3").where
        assert len(split_conjuncts(where)) == 3

    def test_split_none(self):
        assert split_conjuncts(None) == []

    def test_or_not_split(self):
        where = parse("SELECT 1 FROM t WHERE a = 1 OR b = 2").where
        assert len(split_conjuncts(where)) == 1

    def test_conjoin_roundtrip(self):
        where = parse("SELECT 1 FROM t WHERE a = 1 AND b = 2").where
        parts = split_conjuncts(where)
        rebuilt = conjoin(parts)
        assert split_conjuncts(rebuilt) == parts

    def test_conjoin_empty(self):
        assert conjoin([]) is None


class TestBinding:
    def test_bind_classifies_predicates(self, users_orders_db):
        planner = users_orders_db.planner
        select = parse("SELECT count(*) FROM users u JOIN orders o "
                       "ON u.id = o.user_id WHERE u.age > 5 AND "
                       "o.amount < 10")
        bound = planner.bind(select)
        assert bound.bindings == {"u": "users", "o": "orders"}
        assert len(bound.join_conditions) == 1
        assert len(bound.filters["u"]) == 1
        assert len(bound.filters["o"]) == 1

    def test_unqualified_column_resolution(self, users_orders_db):
        select = parse("SELECT count(*) FROM users u JOIN orders o "
                       "ON u.id = o.user_id WHERE age > 5")
        bound = users_orders_db.planner.bind(select)
        assert bound.filters["u"]  # 'age' only exists in users

    def test_unknown_table(self, users_orders_db):
        with pytest.raises(PlanError):
            users_orders_db.planner.bind(parse("SELECT 1 FROM nope"))

    def test_unknown_column(self, users_orders_db):
        with pytest.raises(PlanError):
            users_orders_db.planner.bind(
                parse("SELECT 1 FROM users WHERE banana = 1"))

    def test_duplicate_alias(self, users_orders_db):
        with pytest.raises(PlanError):
            users_orders_db.planner.bind(
                parse("SELECT 1 FROM users u, orders u"))

    @pytest.mark.parametrize("sql", [
        "SELECT city, count(*) FROM users GROUP BY count(*)",
        "SELECT city, count(*) FROM users GROUP BY 2",
        "SELECT id, name, age FROM users ORDER BY 9",
    ])
    def test_bind_rejects_bad_group_and_order_keys(self, users_orders_db,
                                                   sql):
        with pytest.raises(BindError):
            users_orders_db.planner.bind(parse(sql))

    def test_bind_resolves_positions(self, users_orders_db):
        bound = users_orders_db.planner.bind(parse(
            "SELECT city, count(*) AS n FROM users GROUP BY 1 ORDER BY 2 DESC"))
        assert bound.group_by == (ast.ColumnRef("city"),)
        # a sort key references its item's output slot, not just its name
        assert [(key.expr, key.descending) for key in bound.order_by] == \
            [(ast.ColumnRef("n", "#1"), True)]


class TestAccessPaths:
    def test_index_chosen_for_unique_eq(self, users_orders_db):
        # -5 reaches the planner as a literal, not as -(5): reads and
        # writes take the index for it as they do for 5
        planner = users_orders_db.planner
        for key in (5, -5):
            select = parse(f"SELECT * FROM users WHERE id = {key}")
            for node in (planner.plan_select(select),
                         planner.access_path("users", select.where)):
                (scan,) = [n for n in node.walk()
                           if isinstance(n, IndexScan)]
                assert scan.eq == key and scan.residual is None

    def test_seqscan_with_pushdown_without_index(self, users_orders_db):
        node = users_orders_db.planner.plan_select(
            parse("SELECT * FROM orders WHERE amount > 100"))
        scans = [n for n in node.walk() if isinstance(n, SeqScan)]
        assert scans and scans[0].predicate is not None

    def test_range_index_scan(self, users_orders_db):
        node = users_orders_db.planner.plan_select(
            parse("SELECT * FROM users WHERE id < 5"))
        index_nodes = [n for n in node.walk() if isinstance(n, IndexScan)]
        if index_nodes:  # chosen only if estimated cheaper
            assert index_nodes[0].high == 5


class TestJoinPlanning:
    def test_equi_join_uses_hash(self, users_orders_db):
        node = users_orders_db.planner.plan_select(
            parse("SELECT count(*) FROM users u JOIN orders o "
                  "ON u.id = o.user_id"))
        assert any(isinstance(n, HashJoin) for n in node.walk())

    def test_cross_join_uses_nlj(self, users_orders_db):
        node = users_orders_db.planner.plan_select(
            parse("SELECT count(*) FROM users, orders"))
        assert any(isinstance(n, NestedLoopJoin) for n in node.walk())

    def test_candidates_are_unique_and_costed(self, users_orders_db):
        candidates = users_orders_db.planner.candidate_plans(
            parse("SELECT count(*) FROM users u JOIN orders o "
                  "ON u.id = o.user_id"), 16)
        signatures = [plan_signature(c) for c in candidates]
        assert len(signatures) == len(set(signatures))
        assert all(c.est_cost > 0 for c in candidates)

    def test_candidates_sorted_by_estimated_cost(self, users_orders_db):
        candidates = users_orders_db.planner.candidate_plans(
            parse("SELECT count(*) FROM users u JOIN orders o "
                  "ON u.id = o.user_id WHERE u.age > 30"), 16)
        costs = [c.est_cost for c in candidates]
        assert costs == sorted(costs)

    @pytest.mark.parametrize("sql", [
        "SELECT count(*) FROM users u JOIN orders o ON u.id = o.user_id "
        "WHERE u.age > 30",
        "SELECT u.name, p.amount FROM users u JOIN orders o "
        "ON u.id = o.user_id JOIN orders p ON o.oid = p.oid "
        "WHERE u.id < 40 AND p.status = 'paid'",
        "SELECT a.name, b.name FROM users a JOIN users b ON a.id = b.age "
        "WHERE a.id = 7",
    ])
    def test_candidates_share_each_access_path(self, users_orders_db, sql):
        """Every candidate tree holds the one costed access path of each
        alias — the same object, never a copy — and no tree holds one
        node object twice (a self-join's two aliases get two paths)."""
        planner = users_orders_db.planner
        bound = planner.bind(parse(sql))
        candidates = planner.candidate_plans(parse(sql), 16)
        assert len(candidates) > 1

        def scans(tree):
            return {n.binding: n for n in tree.walk()
                    if isinstance(n, (SeqScan, IndexScan))}

        shared = scans(candidates[0])
        assert sorted(shared) == sorted(bound.table_order)
        for alias, node in shared.items():
            fresh = planner._access_path(bound.bindings, alias,
                                         bound.filters[alias])
            assert node.pretty() == fresh.pretty()
        for tree in candidates:
            assert all(node is shared[alias]
                       for alias, node in scans(tree).items())
            nodes = list(tree.walk())
            assert len({id(n) for n in nodes}) == len(nodes)

    def test_best_plan_is_first_candidate(self, users_orders_db):
        select = parse("SELECT count(*) FROM users u JOIN orders o "
                       "ON u.id = o.user_id")
        best = users_orders_db.planner.plan_select(select)
        first = users_orders_db.planner.candidate_plans(select, 8)[0]
        assert plan_signature(best) == plan_signature(first)


class TestUpperPlan:
    def test_aggregate_node_for_group_by(self, users_orders_db):
        node = users_orders_db.planner.plan_select(
            parse("SELECT city, count(*) FROM users GROUP BY city"))
        assert isinstance(node, Aggregate)

    def test_plain_select_gets_project(self, users_orders_db):
        node = users_orders_db.planner.plan_select(
            parse("SELECT name FROM users"))
        assert isinstance(node, Project)

    def test_sort_and_limit_stack(self, users_orders_db):
        node = users_orders_db.planner.plan_select(
            parse("SELECT name, age FROM users ORDER BY age LIMIT 3"))
        assert isinstance(node, Limit)
        assert isinstance(node.child, Sort)

    def test_estimates_populated(self, users_orders_db):
        node = users_orders_db.planner.plan_select(
            parse("SELECT count(*) FROM users WHERE age > 30"))
        for sub in node.walk():
            assert sub.est_cost >= 0

    def test_pretty_renders(self, users_orders_db):
        node = users_orders_db.planner.plan_select(
            parse("SELECT count(*) FROM users"))
        text = node.pretty()
        assert "SeqScan" in text


def _typed_db(populated: bool):
    """``users_orders_db``'s two tables, with its rows or empty."""
    db = repro.connect()
    db.execute("CREATE TABLE users (id INT UNIQUE, name TEXT, age INT, "
               "city TEXT)")
    db.execute("CREATE TABLE orders (oid INT UNIQUE, user_id INT, "
               "amount FLOAT, status TEXT)")
    cities = ["sg", "ny", "ldn", "tok"]
    for i in range(60 if populated else 0):
        db.execute(f"INSERT INTO users VALUES ({i}, 'user{i}', "
                   f"{20 + i % 40}, '{cities[i % 4]}')")
    for i in range(200 if populated else 0):
        db.execute(f"INSERT INTO orders VALUES ({i}, {i % 60}, "
                   f"{i * 1.5}, 'paid')")
    db.execute("CREATE INDEX idx_users_id ON users (id)")
    db.execute("ANALYZE")
    return db


# every statement no row could evaluate: BindError before any operator
# is built, any row read or any charge made
REJECTED = [
    "SELECT id, name, age FROM users ORDER BY 9",
    "SELECT id FROM users ORDER BY 0",
    "SELECT city, count(*) FROM users GROUP BY 3",
    "SELECT count(*) FROM users GROUP BY 1",       # names an aggregate
    "SELECT sum(name) FROM users",
    "SELECT city, avg(name) FROM users GROUP BY city",
    "SELECT u.city, sum(o.status) FROM users u JOIN orders o "
    "ON u.id = o.user_id GROUP BY u.city",
    # arithmetic, unary minus and numeric functions over TEXT
    "SELECT name + name FROM users",
    "SELECT name * 2 FROM users",
    "SELECT id FROM users WHERE age - city > 0",
    "SELECT name / 2, name % 2 FROM users",
    "SELECT -name FROM users",
    "SELECT abs(name) FROM users",
    "SELECT round(city) FROM users",
    "SELECT floor(name), ceil(name) FROM users",
    "SELECT count(*) FROM users GROUP BY name * 2",
    "SELECT 'a' + 1",
    # string functions over numbers
    "SELECT lower(age) FROM users",
    "SELECT id FROM users WHERE upper(id) = 'X'",
    "SELECT length(amount) FROM orders",
    # ordering TEXT against a number
    "SELECT * FROM users WHERE name < 5",
    "SELECT * FROM users WHERE 'x' >= age",
    "SELECT * FROM users WHERE age <= 'x' OR id > 3",
    "SELECT * FROM users WHERE age BETWEEN 'a' AND 'z'",
    "SELECT * FROM users WHERE name BETWEEN 1 AND name",
    "SELECT * FROM users u JOIN orders o ON u.id = o.user_id "
    "AND u.name > o.amount",
    "SELECT name AS n FROM users ORDER BY n + 1",
    # a key not in the select list, under DISTINCT or over aggregates
    "SELECT DISTINCT name FROM users ORDER BY age",
    "SELECT city, count(*) FROM users GROUP BY city ORDER BY age",
    # COALESCE mixing TEXT and numbers
    "SELECT coalesce(name, age) FROM users",
    "SELECT * FROM users WHERE coalesce(city, 0) = 'sg'",
    # sum / avg of any TEXT-typed expression
    "SELECT sum(lower(name)) FROM users",
    "SELECT avg(coalesce(city, 'z')) FROM users",
    "SELECT max(age) + min(city) FROM users",
    # SET of TEXT into a number column, and of a number into TEXT
    "UPDATE users SET age = name",
    "UPDATE users SET name = upper(name), age = age + name",
    "UPDATE users SET city = age + 1 WHERE id = 3",
    # DML and PREDICT filters
    "DELETE FROM users WHERE lower(age) = 'x'",
    "PREDICT VALUE OF age FROM users WHERE name < 5 TRAIN ON *",
    "PREDICT VALUE OF age FROM users TRAIN ON * WITH -city > 0",
    # VALUES rows: INSERT's and PREDICT's inline features
    "INSERT INTO users VALUES (900, 'a', 30, 'sg'), (abs('y'), 'b', 31, 'ny')",
    "PREDICT VALUE OF age FROM users TRAIN ON * VALUES (upper(3), 'a', 'sg')",
]

# (sql, rows on the populated tables, rows on the empty ones) — the
# answers typing keeps: = / <> / IN across kinds compare to no match,
# LIKE reads numbers through str(), BOOL is a number, min / max / count
# take TEXT
ANSWERED = [
    ("SELECT count(*) FROM users WHERE name = 5", [(0,)], [(0,)]),
    # an ORDER BY key not in the select list sorts on a hidden column
    ("SELECT name FROM users WHERE id < 45 ORDER BY age DESC, id LIMIT 3",
     [("user39",), ("user38",), ("user37",)], []),
    ("SELECT count(*) FROM users WHERE age <> 'x'", [(60,)], [(0,)]),
    ("SELECT count(*) FROM users WHERE city IN (1, 'sg')", [(15,)], [(0,)]),
    ("SELECT count(*) FROM users WHERE age LIKE '2%'", [(20,)], [(0,)]),
    ("SELECT count(*) FROM users WHERE age + 1 LIKE '3_'", [(20,)], [(0,)]),
    ("SELECT count(*) FROM users WHERE (age > 50) + (age > 50) = 2",
     [(9,)], [(0,)]),
    ("SELECT sum(age > 50), max(-(age > 50)) FROM users", [(9, 0)],
     [(None, None)]),
    ("SELECT min(name), max(city), count(city) FROM users",
     [("user0", "tok", 60)], [(None, None, 0)]),
    ("SELECT max(lower(city)), min(length(name)) FROM users",
     [("tok", 5)], [(None, None)]),
    ("SELECT count(*) FROM users "
     "WHERE upper(name) BETWEEN 'USER1' AND 'USER2'", [(12,)], [(0,)]),
    ("SELECT coalesce(city, 'none'), coalesce(NULL, age) FROM users "
     "WHERE id = 3", [("tok", 23)], []),
    # operators over aggregate items are the scalar ones
    ("SELECT city, sum(age) > 540, sum(age) % 7, max(name) LIKE '%9', "
     "count(*) > 10 AND min(age) < 22, "
     "sum(age) / count(*) >= 36 OR min(age) = 20, NOT sum(age) > 540 "
     "FROM users GROUP BY city",
     [("sg", False, 2, False, True, True, True),
      ("ny", False, 3, True, True, False, True),
      ("ldn", True, 4, False, False, True, False),
      ("tok", True, 5, False, False, True, False)], []),
    # no rows: the columns of the one result row are NULL, literals not
    ("SELECT count(*) + 1, 2, max(age) + 1, city FROM users",
     [(61, 2, 60, "sg")], [(1, 2, None, None)]),
]


class TestPositionsAndAggregateTypes:
    """ORDER BY / GROUP BY ordinals name select-list positions, and every
    expression — aggregates' arguments included — is typed, both at plan
    time."""

    def test_group_by_position_groups_on_the_item(self, users_orders_db):
        db = users_orders_db
        by_name = db.execute("SELECT city, count(*) FROM users GROUP BY city")
        by_position = db.execute("SELECT city, count(*) FROM users GROUP BY 1")
        assert len(by_position.rows) == 4
        assert by_position.rows == by_name.rows

    def test_order_by_position_sorts_on_the_output(self, users_orders_db):
        db = users_orders_db
        by_name = db.execute("SELECT name, age FROM users "
                             "ORDER BY age DESC, name")
        by_position = db.execute("SELECT name, age FROM users "
                                 "ORDER BY 2 DESC, 1")
        assert by_position.rows == by_name.rows
        assert by_position.rows != db.execute(
            "SELECT name, age FROM users").rows
        # through * and through an aggregate's output
        assert db.execute("SELECT * FROM users ORDER BY 3 DESC, 1 "
                          "LIMIT 1").rows[0][2] == 59
        counts = db.execute("SELECT city, count(*) FROM users WHERE age > 40 "
                            "GROUP BY 1 ORDER BY 2 DESC, 1").rows
        assert [c for _, c in counts] == sorted((c for _, c in counts),
                                                reverse=True)

    @pytest.mark.parametrize("sql", REJECTED)
    def test_rejected_at_plan_time(self, sql):
        for populated in (True, False):
            db = _typed_db(populated)
            statement = parse(sql)
            if isinstance(statement, ast.Select):
                with pytest.raises(BindError):
                    db.planner.plan_select(statement)
            users = db.catalog.table("users")
            rows = sorted(row for _, row in users.scan())
            before = db.clock.now
            for engine in db.executor.ENGINES:
                db.executor = with_engine(db, engine)
                with pytest.raises(BindError):
                    db.execute(sql)
            assert db.clock.now == before
            assert sorted(row for _, row in users.scan()) == rows

    @pytest.mark.parametrize("sql,full,empty", ANSWERED)
    def test_still_answered(self, sql, full, empty):
        for populated, expected in ((True, full), (False, empty)):
            db = _typed_db(populated)
            for engine in db.executor.ENGINES:
                db.executor = with_engine(db, engine)
                assert db.execute(sql).rows == expected, (engine, populated)

    @pytest.mark.parametrize("item", ["sum(age) / 0", "sum(age) % 0",
                                      "max(age) / (min(age) - min(age))"])
    def test_aggregate_item_zero_divisor(self, item):
        """A zero divisor raises over aggregates as over rows; an empty
        table's NULL aggregate never reaches the division."""
        for populated in (True, False):
            db = _typed_db(populated)
            for engine in db.executor.ENGINES:
                db.executor = with_engine(db, engine)
                for sql, empty in (
                        (f"SELECT {item} FROM users", [(None,)]),
                        (f"SELECT city, {item} FROM users GROUP BY city",
                         [])):
                    if not populated:
                        assert db.execute(sql).rows == empty, (engine, sql)
                        continue
                    with pytest.raises(ExecutionError, match="by zero"):
                        db.execute(sql)


# SELECTs without FROM: every clause applies to the one empty input row
TABLELESS = [
    "SELECT 1 LIMIT 0", "SELECT 1 OFFSET 1", "SELECT 1 LIMIT 1 OFFSET 0",
    "SELECT DISTINCT 1 ORDER BY 1 LIMIT 0 OFFSET 3",
    "SELECT DISTINCT 1, 2 ORDER BY 2 DESC", "SELECT 2 + 3 AS x ORDER BY x",
    "SELECT 1 WHERE 1 = 0", "SELECT 'a' WHERE 2 > 1",
    "SELECT count(*)", "SELECT count(*) WHERE 1 = 0", "SELECT sum(2) + 1",
    "SELECT 1 GROUP BY 1", "SELECT 7 % 3, 'it''s' LIMIT 5",
]


@pytest.mark.parametrize("sql", TABLELESS)
def test_a_select_without_from_is_held_to_sqlite(sql):
    """Planned like any other SELECT, over a one-row input: WHERE,
    aggregates, DISTINCT, ORDER BY, LIMIT and OFFSET all apply."""
    # sqlite takes OFFSET only after a LIMIT; -1 is its "no limit"
    oracle = (sql if "LIMIT" in sql
              else sql.replace(" OFFSET", " LIMIT -1 OFFSET"))
    expected = sqlite3.connect(":memory:").execute(oracle).fetchall()
    db = repro.connect()
    for engine in db.executor.ENGINES:
        db.executor = with_engine(db, engine)
        assert db.execute(sql).rows == expected, engine


class TestColumnLiteral:
    """The one normaliser the estimator and the access-path fold share."""

    @pytest.mark.parametrize("written,mirrored", [
        ("<", ">"), ("<=", ">="), (">", "<"), (">=", "<="),
        ("=", "="), ("<>", "<>")])
    def test_literal_on_the_left_mirrors_onto_the_column(self, written,
                                                         mirrored):
        from repro.plan.cardinality import column_literal
        where = parse(f"SELECT 1 FROM t WHERE 7 {written} x").where
        ref, op, literal = column_literal(where)
        assert (ref.name, op, literal) == ("x", mirrored, 7)
        where = parse(f"SELECT 1 FROM t WHERE x {written} 7").where
        assert column_literal(where)[1:] == (written, 7)

    def test_anything_else_is_not_a_column_against_a_literal(self):
        from repro.plan.cardinality import column_literal
        for text in ("x = y", "x + 1 > 2", "1 = 1", "x IS NULL",
                     "x BETWEEN 1 AND 2"):
            where = parse(f"SELECT 1 FROM t WHERE {text}").where
            assert column_literal(where) == (None, None, None), text


class TestCardinality:
    def test_selectivity_shrinks_estimate(self, users_orders_db):
        planner = users_orders_db.planner
        all_rows = planner.plan_select(parse("SELECT * FROM users"))
        narrow = planner.plan_select(
            parse("SELECT * FROM users WHERE age > 55"))
        assert narrow.est_rows < all_rows.est_rows

    def test_eq_more_selective_than_range(self, users_orders_db):
        planner = users_orders_db.planner
        eq = planner.plan_select(
            parse("SELECT * FROM users WHERE age = 30"))
        rng = planner.plan_select(
            parse("SELECT * FROM users WHERE age > 21"))
        assert eq.est_rows < rng.est_rows

    def test_conjunction_multiplies(self, users_orders_db):
        planner = users_orders_db.planner
        one = planner.plan_select(
            parse("SELECT * FROM users WHERE age > 30"))
        two = planner.plan_select(
            parse("SELECT * FROM users WHERE age > 30 AND city = 'sg'"))
        assert two.est_rows < one.est_rows

    @pytest.mark.parametrize("op,flipped", [("<", ">"), ("<=", ">="),
                                            (">", "<"), (">=", "<=")])
    def test_flipped_comparison_estimates_the_same(self, users_orders_db,
                                                   op, flipped):
        """``50 < age`` is ``age > 50``: the literal's side must not turn
        the estimate round (ages run 20..59, so 50 splits them 3 : 1)."""
        planner = users_orders_db.planner
        written = planner.plan_select(
            parse(f"SELECT * FROM users WHERE age {op} 50"))
        mirrored = planner.plan_select(
            parse(f"SELECT * FROM users WHERE 50 {flipped} age"))
        assert mirrored.est_rows == written.est_rows
        other_side = planner.plan_select(
            parse(f"SELECT * FROM users WHERE age {flipped} 50"))
        assert (written.est_rows < other_side.est_rows) == (op[0] == ">")

    def test_stale_stats_after_growth(self):
        db = repro.connect()
        db.execute("CREATE TABLE g (v INT)")
        for i in range(50):
            db.execute(f"INSERT INTO g VALUES ({i})")
        db.execute("ANALYZE")
        before = db.planner.plan_select(parse("SELECT * FROM g")).est_rows
        for i in range(500):
            db.execute(f"INSERT INTO g VALUES ({i})")
        # without re-ANALYZE the estimate stays stale
        stale = db.planner.plan_select(parse("SELECT * FROM g")).est_rows
        assert stale == before
        db.execute("ANALYZE")
        fresh = db.planner.plan_select(parse("SELECT * FROM g")).est_rows
        assert fresh > stale
