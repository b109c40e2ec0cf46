"""Tests for the SQL lexer and parser, including the PREDICT extension."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ParseError
from repro.sql import ast, parse, parse_script, tokenize
from repro.sql.lexer import TokenType
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
