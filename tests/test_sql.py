"""Tests for the SQL lexer and parser, including the PREDICT extension,
and for the parser's template cache."""

import re
import time
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import NeurDBError, ParseError
from repro.sql import ast, parse, parse_script, tokenize
from repro.sql import parser as sql_parser
from repro.sql.lexer import TokenType, fingerprint
from repro.sql.parser import _Parser, template_stats
from repro.storage.types import DataType


class TestLexer:
    def test_keywords_case_insensitive(self):
        tokens = tokenize("select FROM Where")
        assert [t.value for t in tokens[:-1]] == ["SELECT", "FROM", "WHERE"]
        assert all(t.type is TokenType.KEYWORD for t in tokens[:-1])

    def test_identifiers_lowercased(self):
        tokens = tokenize("MyTable")
        assert tokens[0].type is TokenType.IDENT
        assert tokens[0].value == "mytable"

    def test_numbers(self):
        tokens = tokenize("1 2.5 1e3")
        assert [t.value for t in tokens[:-1]] == ["1", "2.5", "1e3"]

    def test_string_with_escaped_quote(self):
        tokens = tokenize("'it''s'")
        assert tokens[0].type is TokenType.STRING
        assert tokens[0].value == "it's"

    def test_unterminated_string(self):
        with pytest.raises(ParseError):
            tokenize("'oops")

    def test_line_comment_skipped(self):
        tokens = tokenize("SELECT -- comment here\n 1")
        assert [t.value for t in tokens[:-1]] == ["SELECT", "1"]

    def test_operators(self):
        tokens = tokenize("a <> b <= c != d")
        ops = [t.value for t in tokens if t.type is TokenType.OPERATOR]
        assert ops == ["<>", "<=", "!="]

    def test_illegal_character(self):
        with pytest.raises(ParseError):
            tokenize("SELECT @")

    def test_eof_token(self):
        assert tokenize("")[-1].type is TokenType.EOF

    def test_every_token_kind_reports_its_first_character(self):
        sql = "SELECT x1, 'it''s' FROM t WHERE a <= -2.5e3; -- note\n"
        expected = [
            (TokenType.KEYWORD, "SELECT", 0), (TokenType.IDENT, "x1", 7),
            (TokenType.PUNCT, ",", 9), (TokenType.STRING, "it's", 11),
            (TokenType.KEYWORD, "FROM", 19), (TokenType.IDENT, "t", 24),
            (TokenType.KEYWORD, "WHERE", 26), (TokenType.IDENT, "a", 32),
            (TokenType.OPERATOR, "<=", 34), (TokenType.OPERATOR, "-", 37),
            (TokenType.NUMBER, "2.5e3", 38), (TokenType.PUNCT, ";", 43),
            (TokenType.EOF, "", len(sql))]
        assert [(t.type, t.value, t.position)
                for t in tokenize(sql)] == expected

    def test_string_token_position_is_its_opening_quote(self):
        assert tokenize("SELECT 'abc' FROM t")[1].position == 7

    def test_parse_error_on_a_string_points_at_the_string(self):
        sql = "SELECT a FROM t LIMIT 'abc'"
        with pytest.raises(ParseError) as info:
            parse(sql)
        assert info.value.position == sql.index("'abc'")

    def test_unterminated_string_ending_in_an_escape(self):
        # ''' is an escaped quote, not a close and a fresh open
        with pytest.raises(ParseError, match="unterminated") as info:
            tokenize("SELECT 'ab''")
        assert info.value.position == 7


class TestMalformedNumbers:
    @pytest.mark.parametrize("sql, bad", [
        ("SELECT 1.2.3", "1.2.3"),
        ("SELECT 1e", "1e"),
        ("SELECT 1e+", "1e+"),
        ("SELECT a FROM t WHERE a = ²", "²"),     # superscript 2
        ("SELECT 1 + " + "9" * 5000, "9" * 5000),
    ], ids=["two-dots", "bare-exponent", "signed-bare-exponent",
            "superscript", "5000-digits"])
    def test_malformed_number_is_a_parse_error_at_the_token(self, sql, bad):
        with pytest.raises(ParseError, match="malformed number") as info:
            parse(sql)
        assert info.value.position == sql.index(bad)

    def test_limit_wants_an_integer(self):
        for text in ("1.5", "1e3", "'x'"):
            with pytest.raises(ParseError, match="expected integer"):
                parse(f"SELECT a FROM t LIMIT {text}")


class TestSelectParsing:
    def test_simple(self):
        stmt = parse("SELECT a, b FROM t")
        assert isinstance(stmt, ast.Select)
        assert len(stmt.items) == 2
        assert stmt.from_table.name == "t"

    def test_star(self):
        stmt = parse("SELECT * FROM t")
        assert isinstance(stmt.items[0].expr, ast.Star)

    def test_qualified_star(self):
        stmt = parse("SELECT t.* FROM t")
        assert isinstance(stmt.items[0].expr, ast.Star)
        assert stmt.items[0].expr.table == "t"

    def test_aliases(self):
        stmt = parse("SELECT a AS x, b y FROM t AS u")
        assert stmt.items[0].alias == "x"
        assert stmt.items[1].alias == "y"
        assert stmt.from_table.alias == "u"

    def test_joins_inner_and_comma(self):
        stmt = parse("SELECT * FROM a JOIN b ON a.x = b.y, c")
        assert stmt.joins[0].kind == "inner"
        assert stmt.joins[0].condition is not None
        assert stmt.joins[1].kind == "cross"

    def test_cross_join_keyword(self):
        stmt = parse("SELECT * FROM a CROSS JOIN b")
        assert stmt.joins[0].kind == "cross"

    def test_where_group_order_limit(self):
        stmt = parse("SELECT a, count(*) FROM t WHERE a > 1 GROUP BY a "
                     "ORDER BY a DESC LIMIT 5 OFFSET 2")
        assert stmt.where is not None
        assert len(stmt.group_by) == 1
        assert stmt.order_by[0].descending is True
        assert stmt.limit == 5
        assert stmt.offset == 2

    def test_distinct(self):
        assert parse("SELECT DISTINCT a FROM t").distinct is True

    def test_tableless(self):
        stmt = parse("SELECT 1 + 1")
        assert stmt.from_table is None

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse("SELECT 1 FROM t banana extra")


class TestExpressions:
    def _where(self, condition: str) -> ast.Expr:
        return parse(f"SELECT 1 FROM t WHERE {condition}").where

    def test_precedence_and_or(self):
        expr = self._where("a = 1 OR b = 2 AND c = 3")
        assert isinstance(expr, ast.BinaryOp) and expr.op == "OR"
        assert isinstance(expr.right, ast.BinaryOp)
        assert expr.right.op == "AND"

    def test_arithmetic_precedence(self):
        expr = self._where("a + b * c = 7")
        add = expr.left
        assert isinstance(add, ast.BinaryOp) and add.op == "+"
        assert isinstance(add.right, ast.BinaryOp) and add.right.op == "*"

    def test_parens_override(self):
        expr = self._where("(a + b) * c = 7")
        mul = expr.left
        assert mul.op == "*"
        assert mul.left.op == "+"

    def test_not_null_between_in_like(self):
        assert isinstance(self._where("a IS NULL"), ast.IsNull)
        assert self._where("a IS NOT NULL").negated is True
        between = self._where("a BETWEEN 1 AND 3")
        assert isinstance(between, ast.Between)
        in_list = self._where("a IN (1, 2, 3)")
        assert isinstance(in_list, ast.InList)
        assert len(in_list.items) == 3
        not_in = self._where("a NOT IN (1)")
        assert not_in.negated is True
        like = self._where("a LIKE 'x%'")
        assert like.op == "LIKE"

    def test_neq_normalized(self):
        assert self._where("a != 1").op == "<>"

    def test_unary_minus(self):
        # over a number it folds into the literal, type kept
        for text, value in (("-5", -5), ("-2.5", -2.5), ("- -5", 5),
                            ("-(5)", -5)):
            right = self._where(f"a = {text}").right
            assert right == ast.Literal(value)
            assert type(right.value) is type(value)
        # over anything else it stays an operator
        for text in ("-b", "-(b + 1)", "-TRUE", "-NULL"):
            right = self._where(f"a = {text}").right
            assert isinstance(right, ast.UnaryOp) and right.op == "-"

    def test_function_calls(self):
        stmt = parse("SELECT count(*), sum(x), coalesce(a, 0) FROM t")
        count = stmt.items[0].expr
        assert isinstance(count, ast.FuncCall) and count.name == "count"
        assert isinstance(count.args[0], ast.Star)

    def test_count_distinct(self):
        stmt = parse("SELECT count(DISTINCT a) FROM t")
        assert stmt.items[0].expr.distinct is True

    def test_is_aggregate_detection(self):
        stmt = parse("SELECT sum(x) + 1 FROM t")
        assert ast.is_aggregate(stmt.items[0].expr)
        stmt2 = parse("SELECT x + 1 FROM t")
        assert not ast.is_aggregate(stmt2.items[0].expr)

    def test_referenced_columns(self):
        expr = self._where("a.x = 1 AND y > b.z")
        refs = ast.referenced_columns(expr)
        assert {(r.table, r.name) for r in refs} == {
            ("a", "x"), (None, "y"), ("b", "z")}


class TestDmlDdlParsing:
    def test_create_table(self):
        stmt = parse("CREATE TABLE t (id INT UNIQUE, name TEXT NOT NULL, "
                     "v FLOAT)")
        assert isinstance(stmt, ast.CreateTable)
        assert stmt.columns[0].unique is True
        assert stmt.columns[1].nullable is False
        assert stmt.columns[2].dtype is DataType.FLOAT

    def test_drop_table(self):
        assert parse("DROP TABLE t").if_exists is False
        assert parse("DROP TABLE IF EXISTS t").if_exists is True

    def test_create_index(self):
        stmt = parse("CREATE INDEX i ON t (c) USING hash")
        assert isinstance(stmt, ast.CreateIndex)
        assert stmt.kind == "hash"

    def test_insert(self):
        stmt = parse("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')")
        assert stmt.columns == ("a", "b")
        assert len(stmt.rows) == 2

    def test_insert_without_columns(self):
        stmt = parse("INSERT INTO t VALUES (1)")
        assert stmt.columns == ()

    def test_update(self):
        stmt = parse("UPDATE t SET a = 1, b = b + 1 WHERE id = 3")
        assert len(stmt.assignments) == 2
        assert stmt.where is not None

    def test_delete(self):
        stmt = parse("DELETE FROM t WHERE a < 0")
        assert isinstance(stmt, ast.Delete)

    def test_analyze(self):
        assert parse("ANALYZE").table is None
        assert parse("ANALYZE users").table == "users"

    def test_txn_statements(self):
        # the session is autocommit: what it cannot do, it does not accept
        for text in ("BEGIN", "COMMIT", "ROLLBACK", "begin;"):
            with pytest.raises(ParseError, match="autocommit"):
                parse(text)
        # ...and the three words are ordinary identifiers again
        stmt = parse("SELECT commit FROM t")
        assert stmt.items[0].expr == ast.ColumnRef("commit")

    def test_parse_script(self):
        stmts = parse_script("SELECT 1; SELECT 2;")
        assert len(stmts) == 2


    def test_parse_script_splits_tokens_not_text(self):
        script = ("CREATE TABLE t (id INT, s TEXT); "
                  "INSERT INTO t VALUES (1, 'a;b');; ;\n"
                  "SELECT * FROM t;")
        create, insert, select = parse_script(script)
        assert isinstance(create, ast.CreateTable)
        assert insert.rows[0][1].value == "a;b"
        assert isinstance(select, ast.Select)
        assert parse_script("") == parse_script(" ;; ; ") == []
        assert len(parse_script("SELECT 1; SELECT 2")) == 2   # no trailing ;

    def test_parse_script_error_positions_point_into_the_script(self):
        script = "SELECT 1 FROM t; SELECT 1 FROM t LIMIT x; SELECT 2"
        with pytest.raises(ParseError) as info:
            parse_script(script)
        assert info.value.position == script.index("x")
        cut_short = "SELECT 1 FROM t; SELECT 1 FROM t WHERE; SELECT 2"
        with pytest.raises(ParseError) as info:
            parse_script(cut_short)
        assert info.value.position == cut_short.index("WHERE") + len("WHERE")


class TestPredictParsing:
    def test_paper_listing_1_regression(self):
        stmt = parse("PREDICT VALUE OF score FROM review "
                     "WHERE brand_name = 'Special Goods' "
                     "TRAIN ON * WITH brand_name <> 'Special Goods'")
        assert isinstance(stmt, ast.Predict)
        assert stmt.task == "regression"
        assert stmt.target == "score"
        assert stmt.table == "review"
        assert stmt.train_on == ("*",)
        assert stmt.train_filter is not None
        assert stmt.where is not None

    def test_paper_listing_2_classification(self):
        stmt = parse("PREDICT CLASS OF outcome FROM diabetes "
                     "TRAIN ON pregnancies, glucose, blood_pressure "
                     "VALUES (6, 148, 72), (1, 85, 66)")
        assert stmt.task == "classification"
        assert stmt.train_on == ("pregnancies", "glucose", "blood_pressure")
        assert len(stmt.inline_rows) == 2

    def test_table1_workload_e(self):
        stmt = parse("PREDICT VALUE OF click_rate FROM avazu TRAIN ON *")
        assert stmt.task == "regression"
        assert stmt.target == "click_rate"

    def test_table1_workload_h(self):
        stmt = parse("PREDICT CLASS OF outcome FROM diabetes TRAIN ON *")
        assert stmt.task == "classification"

    def test_minimal_predict(self):
        stmt = parse("PREDICT CLASS OF y FROM t")
        assert stmt.train_on == ("*",)
        assert stmt.inline_rows == ()

    def test_predict_requires_of(self):
        with pytest.raises(ParseError):
            parse("PREDICT CLASS y FROM t")


@given(st.integers(min_value=-10**9, max_value=10**9))
@settings(max_examples=50)
def test_integer_literal_roundtrip(value):
    stmt = parse(f"SELECT {value}" if value >= 0 else f"SELECT ({value})")
    assert stmt.items[0].expr == ast.Literal(value)


@given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126,
                                      exclude_characters="'"),
               max_size=40))
@settings(max_examples=50)
def test_string_literal_roundtrip(text):
    stmt = parse(f"SELECT '{text}'")
    assert stmt.items[0].expr.value == text


# -- the template cache ---------------------------------------------------------
# parse() binds the literals of a statement whose fingerprint it has seen
# into the earlier tree; every result must be the uncached parser's, to the
# repr (Literal(1) == Literal(1.0), so == would miss a wrong type).


def _uncached(sql):
    return _Parser(tokenize(sql)).parse_statement()


def _outcome(parse_fn, sql):
    """The repr of the tree, or the error's class, message and position."""
    try:
        return repr(parse_fn(sql))
    except NeurDBError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "position", None)


@pytest.fixture
def fresh_templates(monkeypatch):
    monkeypatch.setattr(sql_parser, "_templates", {})


_CACHED_KINDS = (ast.Select, ast.Insert, ast.Update, ast.Delete, ast.Predict)

# every statement the tests above parse
CORPUS = [
    "SELECT a, b FROM t", "SELECT * FROM t", "SELECT t.* FROM t",
    "SELECT a AS x, b y FROM t AS u", "SELECT * FROM a JOIN b ON a.x = b.y, c",
    "SELECT * FROM a CROSS JOIN b",
    "SELECT a, count(*) FROM t WHERE a > 1 GROUP BY a ORDER BY a DESC "
    "LIMIT 5 OFFSET 2",
    "SELECT DISTINCT a FROM t", "SELECT 1 + 1",
    *(f"SELECT 1 FROM t WHERE {condition}" for condition in (
        "a = 1 OR b = 2 AND c = 3", "a + b * c = 7", "(a + b) * c = 7",
        "a IS NULL", "a IS NOT NULL", "a BETWEEN 1 AND 3", "a IN (1, 2, 3)",
        "a NOT IN (1)", "a LIKE 'x%'", "a != 1", "a = -5", "a = -2.5",
        "a = - -5", "a = -(5)", "a = -b", "a = -(b + 1)", "a = -TRUE",
        "a = -NULL", "a.x = 1 AND y > b.z")),
    "SELECT count(*), sum(x), coalesce(a, 0) FROM t",
    "SELECT count(DISTINCT a) FROM t", "SELECT sum(x) + 1 FROM t",
    "SELECT x + 1 FROM t",
    "CREATE TABLE t (id INT UNIQUE, name TEXT NOT NULL, v FLOAT)",
    "DROP TABLE t", "DROP TABLE IF EXISTS t",
    "CREATE INDEX i ON t (c) USING hash",
    "INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')", "INSERT INTO t VALUES (1)",
    "UPDATE t SET a = 1, b = b + 1 WHERE id = 3", "DELETE FROM t WHERE a < 0",
    "ANALYZE", "ANALYZE users", "SELECT commit FROM t",
    "CREATE TABLE t (id INT, s TEXT)", "INSERT INTO t VALUES (1, 'a;b')",
    "SELECT 1 FROM t LIMIT 5",
    "PREDICT VALUE OF score FROM review WHERE brand_name = 'Special Goods' "
    "TRAIN ON * WITH brand_name <> 'Special Goods'",
    "PREDICT CLASS OF outcome FROM diabetes TRAIN ON pregnancies, glucose, "
    "blood_pressure VALUES (6, 148, 72), (1, 85, 66)",
    "PREDICT VALUE OF click_rate FROM avazu TRAIN ON *",
    "PREDICT CLASS OF outcome FROM diabetes TRAIN ON *",
    "PREDICT CLASS OF y FROM t",
]

# The SQL of the end-to-end benchmark's shapes, one template per shape, with
# {i} / {f} / {s} marking an integer, float and string literal.  The seven
# olap_engines shapes run olap_mix's seven texts on the other drivers, a
# predict_serve slice is 28 infer_inline and 4 infer_scan requests, and
# fine_tune is a facade call, not SQL: these are all 24 SQL shapes.
E2E_TEMPLATES = {
    "count_filter": "SELECT count(*) FROM t WHERE v > {f} AND w < {f}",
    "filter_agg": "SELECT grp, count(*), sum(v), avg(w) FROM t "
                  "WHERE v > {f} AND w < {f} GROUP BY grp",
    "int_groupby": "SELECT k, count(*), sum(v) FROM t WHERE w < {f} "
                   "GROUP BY k",
    "sort": "SELECT id, v FROM t WHERE w < {f} ORDER BY v",
    "topk": "SELECT id, v FROM t WHERE w < {f} ORDER BY v DESC LIMIT {i}",
    "project": "SELECT id, v, w FROM t WHERE v > {f}",
    "join": "SELECT a.grp, count(*), sum(b.v) FROM t a JOIN t b "
            "ON a.id = b.k WHERE b.w < {f} GROUP BY a.grp",
    "point_select": "SELECT id, owner, bal FROM acct WHERE id = {i}",
    "range_select": "SELECT id, bal FROM acct WHERE id >= {i} AND id < {i}",
    "insert_one": "INSERT INTO acct VALUES ({i}, {s}, {i}, {f})",
    "insert_batch": "INSERT INTO acct VALUES "
                    + ", ".join(["({i}, {s}, {i}, {f})"] * 50),
    "update_one": "UPDATE acct SET bal = bal + {f} WHERE id = {i}",
    "delete_one": "DELETE FROM acct WHERE id = {i}",
    "train": "PREDICT VALUE OF y FROM clicks WHERE cid >= {i} "
             "AND cid < {i} TRAIN ON * WITH cid >= {i}",
    "infer_scan": "PREDICT VALUE OF y FROM clicks WHERE cid >= {i} "
                  "AND cid < {i} TRAIN ON *",
    "infer_inline": "PREDICT VALUE OF y FROM clicks TRAIN ON * "
                    "VALUES ({s}, {i}, {f}, {f})",
}

_MARK = re.compile(r"\{([ifs])\}")


def _fill(template, texts):
    """``template`` with its marks replaced by ``texts`` in order."""
    texts = iter(texts)
    return _MARK.sub(lambda match: next(texts), template)


def _sample(template):
    samples = {"i": "2041", "f": "0.2513", "s": "'owner7'"}
    return _MARK.sub(lambda match: samples[match.group(1)], template)


def _quote(text):
    return "'" + text.replace("'", "''") + "'"


# literal texts by kind, with the edges a binder gets wrong: signs
# (-0 and -0.0 are where a folded unary minus cannot be told apart),
# leading zeros, huge and malformed numbers, and quotes, ; and -- in strings
_LITERAL_TEXTS = {
    "i": st.one_of(
        st.integers(min_value=-10**30, max_value=10**30).map(str),
        st.sampled_from(["0", "-0", "00", "-00", "7", "9" * 40, "9" * 5000])),
    "f": st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.sampled_from(["0.0", "-0.0", ".5", "5.", "1e5", "1E-5", "-1e+300",
                         "1e999", "1.2.3", "1e+"])),
    "s": st.one_of(
        st.text(max_size=12).map(_quote),
        st.sampled_from(["''", "''''", "'--'", "';'", "'a;--b'", "'it''s'"])),
}


@pytest.mark.parametrize("sql", CORPUS + [
    pytest.param(_sample(template), id=shape)
    for shape, template in E2E_TEMPLATES.items()])
def test_a_hit_parses_as_a_miss_does(sql, fresh_templates):
    expected = repr(_uncached(sql))
    first = parse(sql)                      # a miss: the cache is empty
    hits = template_stats()["hits"]
    second = parse(sql)
    assert repr(first) == repr(second) == expected
    # every statement of a cached kind here was recorded
    assert template_stats()["hits"] - hits == isinstance(first, _CACHED_KINDS)


# where a binder can mistake a binary minus for a folded unary one
_SIGN_TEMPLATES = [
    "SELECT a - {i}, -({f}), - -{i}, -(-({f})) FROM t WHERE b - ({i}) > -{f}",
    "SELECT a FROM t WHERE b IN ({s}, -{i}, {f}) LIMIT {i} OFFSET {i}",
    "UPDATE t SET a = -{f}, b = {s} WHERE c BETWEEN -{i} AND {i} - {i}",
]


@given(st.data())
@settings(max_examples=150, deadline=timedelta(seconds=1))
def test_rebound_literals_parse_as_uncached(data):
    template = data.draw(st.sampled_from(
        sorted(E2E_TEMPLATES.values()) + _SIGN_TEMPLATES))
    sql_parser._templates.clear()
    for _ in range(2):      # the first records the template, the second binds
        texts = [data.draw(_LITERAL_TEXTS[kind])
                 for kind in _MARK.findall(template)]
        sql = _fill(template, texts)
        assert _outcome(parse, sql) == _outcome(_uncached, sql)


def test_a_hit_fails_exactly_as_a_miss(fresh_templates):
    for good, bad in (
            ("SELECT 1.5 FROM t", "SELECT 1.2.3 FROM t"),
            ("SELECT 1 FROM t WHERE a = 2.5 AND b = 3.5",
             "SELECT 1 FROM t WHERE a = 2.5 AND b = 1e+"),
            ("SELECT a FROM t LIMIT 5", "SELECT a FROM t LIMIT " + "9" * 5000)):
        parse(good)
        assert fingerprint(bad)[0] == fingerprint(good)[0]
        hits = template_stats()["hits"]
        assert _outcome(parse, bad) == _outcome(_uncached, bad)
        assert _outcome(parse, bad)[0] == "ParseError"
        assert template_stats()["hits"] == hits + 2


def test_a_negated_zero_binds_but_is_never_recorded(fresh_templates):
    for zero, other in (("-0", "-5"), ("-0.0", "-2.5"), ("-(0)", "-(5)")):
        sql = f"SELECT a FROM t WHERE x = {zero}"
        parse(sql)
        assert template_stats()["templates"] == 0   # the sign is lost in 0
        parse(f"SELECT a FROM t WHERE x = {other}")
        assert template_stats()["templates"] == 1
        assert repr(parse(sql)) == repr(_uncached(sql))  # now a hit
        sql_parser._templates.clear()


def test_ddl_explain_and_failed_parses_are_never_cached(fresh_templates):
    for sql in ("CREATE TABLE t (id INT, v FLOAT) WITH (shards = 2)",
                "CREATE INDEX i ON t (c)", "DROP TABLE t", "ANALYZE t",
                "EXPLAIN SELECT a FROM t WHERE id = 1",
                "EXPLAIN ANALYZE UPDATE t SET a = 1 WHERE id = 2",
                "SELECT 1 FROM", "SELECT 1.2.3", "SELECT 'a", "SELECT @"):
        for _ in range(2):
            try:
                parse(sql)
            except ParseError:
                pass
    assert template_stats()["templates"] == 0


def test_cache_size_is_bounded(fresh_templates):
    limit = sql_parser._TEMPLATE_CACHE_MAX
    for i in range(10 * limit):
        parse(f"SELECT c{i} FROM t")
    assert template_stats()["templates"] == limit
    hits = template_stats()["hits"]
    parse(f"SELECT c{10 * limit - 1} FROM t")   # the newest stays
    assert template_stats()["hits"] == hits + 1


# -- fuzz: bad input fails with the package's own errors, and fails fast --------

_VOCABULARY = ["SELECT", "FROM", "WHERE", "AND", "NOT", "IN", "LIMIT", "(",
               ")", ",", ".", ";", "-", "--", "*", "=", "<=", "'", "''", "'x'",
               "1", "-0", "1.5", "1e", "1.2.3", "²", "VALUES", "PREDICT",
               "EXPLAIN", "WITH", "t", "@", "\0i"]


def _pieces(sql):
    """``sql`` split into its tokens' texts."""
    starts = [token.position for token in tokenize(sql)]
    return [sql[a:b].strip() for a, b in zip(starts, starts[1:])]


@given(st.text(max_size=60))
@settings(max_examples=200, deadline=timedelta(seconds=1))
def test_arbitrary_text_raises_only_package_errors(text):
    for _ in range(2):                      # the second may be a hit
        assert _outcome(parse, text) == _outcome(_uncached, text)


@given(st.sampled_from(CORPUS + [_sample(t) for t in E2E_TEMPLATES.values()]),
       st.lists(st.tuples(st.sampled_from(["drop", "repeat", "insert", "swap"]),
                          st.integers(min_value=0, max_value=10**6),
                          st.sampled_from(_VOCABULARY)),
                min_size=1, max_size=4))
@settings(max_examples=200, deadline=timedelta(seconds=1))
def test_token_mutations_raise_only_package_errors(sql, edits):
    pieces = _pieces(sql)
    for edit, at, word in edits:
        at %= len(pieces) + 1
        if edit == "insert":
            pieces.insert(at, word)
        elif pieces and edit == "drop":
            del pieces[at % len(pieces)]
        elif pieces and edit == "repeat":
            pieces.insert(at, pieces[at % len(pieces)])
        elif pieces:
            other = (at * 7 + 3) % len(pieces)
            at %= len(pieces)
            pieces[at], pieces[other] = pieces[other], pieces[at]
    mutated = " ".join(pieces)
    for _ in range(2):                      # the second may be a hit
        assert _outcome(parse, mutated) == _outcome(_uncached, mutated)


@pytest.mark.parametrize("sql", [
    "SELECT 1 " + "-" * 5000,
    "SELECT '" + "a''" * 3000,
    "SELECT " + "(" * 3000 + "1" + ")" * 3000,
    "SELECT " + "- " * 3000 + "1",
    "SELECT " + " + ".join(["a"] * 5000) + " FROM t",
    "SELECT " + "1." * 3000,
], ids=["long-comment", "unterminated-escapes", "deep-parens", "deep-minus",
        "deep-tree", "long-number"])
def test_adversarial_text_fails_fast(sql):
    start = time.perf_counter()
    for _ in range(2):
        try:
            parse(sql)
        except ParseError:
            pass
    assert time.perf_counter() - start < 5.0
