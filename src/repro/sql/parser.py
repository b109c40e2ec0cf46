"""Recursive-descent parser for the SQL dialect plus the PREDICT extension,
behind a cache of statement templates.

:func:`parse` looks the statement's :func:`~repro.sql.lexer.fingerprint`
up first.  A statement whose text differs from an earlier one only in its
number and string literals (a *template* seen before) is not parsed again:
its literal values are bound into a copy of the earlier tree that rebuilds
only the nodes holding a literal and shares every other subtree.  Only the
parse is cached — it depends on the text alone; a plan depends on the
literal values too (selectivity picks the access path), so nothing past
the AST is kept.  The cache is process-wide and holds at most
:data:`_TEMPLATE_CACHE_MAX` templates, oldest dropped first.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from operator import attrgetter, itemgetter
from typing import Any, Callable, Optional

from repro.common.errors import ParseError
from repro.sql import ast
from repro.sql.lexer import (Token, TokenType, fingerprint, number_value,
                             tokenize)
from repro.storage.types import DataType

_TEMPLATE_CACHE_MAX = 1024
_templates: dict[str, "_Template"] = {}
_counts = {"hits": 0, "misses": 0}

# statements whose literals are recorded; DDL, ANALYZE and EXPLAIN are
# parsed every time
_CACHEABLE = (ast.Select, ast.Insert, ast.Update, ast.Delete, ast.Predict)


def parse(sql: str) -> ast.Statement:
    """Parse a single SQL statement (a trailing ``;`` is allowed)."""
    key, literals = fingerprint(sql)
    template = _templates.get(key)
    if template is not None:
        _counts["hits"] += 1
        return template.bind(literals)
    _counts["misses"] += 1
    tokens = tokenize(sql)
    statement = _Parser(tokens).parse_statement()
    if isinstance(statement, _CACHEABLE):
        template = _record(statement, tokens)
        if template is not None:
            if len(_templates) >= _TEMPLATE_CACHE_MAX:
                del _templates[next(iter(_templates))]
            _templates[key] = template
    return statement


def template_stats() -> dict[str, int]:
    """The template cache's size and its hit / miss counts since the
    process started (every connection shares one cache)."""
    return {"templates": len(_templates), **_counts}


def parse_script(sql: str) -> list[ast.Statement]:
    """Parse a ``;``-separated script into a list of statements.  The
    token stream is what gets split, so a ``;`` inside a string literal
    is text, empty statements vanish, and a :class:`ParseError` position
    points into ``sql``."""
    statements, run = [], []
    for token in tokenize(sql):
        if token.type is not TokenType.EOF and not (
                token.type is TokenType.PUNCT and token.value == ";"):
            run.append(token)
        elif run:
            end = Token(TokenType.EOF, "", token.position)
            statements.append(_Parser(run + [end]).parse_statement())
            run = []
    return statements


class _Parser:
    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0

    # -- token helpers -------------------------------------------------------

    def _peek(self, ahead: int = 0) -> Token:
        return self._tokens[min(self._pos + ahead, len(self._tokens) - 1)]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.type is not TokenType.EOF:
            self._pos += 1
        return token

    def _expect_keyword(self, *names: str) -> Token:
        token = self._advance()
        if not token.is_keyword(*names):
            raise ParseError(
                f"expected {' or '.join(names)}, got {token.value!r}",
                token.position)
        return token

    def _expect_punct(self, value: str) -> Token:
        token = self._advance()
        if token.type is not TokenType.PUNCT or token.value != value:
            raise ParseError(f"expected {value!r}, got {token.value!r}",
                             token.position)
        return token

    def _expect_ident(self) -> str:
        token = self._advance()
        if token.type is TokenType.IDENT:
            return token.value
        # Allow non-reserved keywords as identifiers where unambiguous.
        if token.type is TokenType.KEYWORD and token.value in ("VALUE", "CLASS"):
            return token.value.lower()
        raise ParseError(f"expected identifier, got {token.value!r}",
                         token.position)

    def _match_keyword(self, *names: str) -> bool:
        if self._peek().is_keyword(*names):
            self._advance()
            return True
        return False

    def _match_punct(self, value: str) -> bool:
        token = self._peek()
        if token.type is TokenType.PUNCT and token.value == value:
            self._advance()
            return True
        return False

    def _match_operator(self, *ops: str) -> Optional[str]:
        token = self._peek()
        if token.type is TokenType.OPERATOR and token.value in ops:
            self._advance()
            return token.value
        return None

    # -- statements ------------------------------------------------------------

    def parse_statement(self) -> ast.Statement:
        try:
            stmt = self._parse_bare_statement()
        except RecursionError:
            raise ParseError("statement nests too deeply",
                             self._peek().position) from None
        self._match_punct(";")
        tail = self._peek()
        if tail.type is not TokenType.EOF:
            raise ParseError(f"unexpected trailing input {tail.value!r}",
                             tail.position)
        return stmt

    def _parse_bare_statement(self) -> ast.Statement:
        """One statement without the trailing ``;``/EOF checks — shared by
        the top-level entry and EXPLAIN's wrapped-statement production."""
        token = self._peek()
        if token.is_keyword("EXPLAIN"):
            self._advance()
            analyze = self._match_keyword("ANALYZE")
            inner = self._parse_bare_statement()
            if isinstance(inner, ast.Explain):
                raise ParseError("EXPLAIN cannot wrap another EXPLAIN",
                                 token.position)
            return ast.Explain(statement=inner, analyze=analyze)
        if token.is_keyword("SELECT"):
            stmt = self._parse_select()
        elif token.is_keyword("INSERT"):
            stmt = self._parse_insert()
        elif token.is_keyword("UPDATE"):
            stmt = self._parse_update()
        elif token.is_keyword("DELETE"):
            stmt = self._parse_delete()
        elif token.is_keyword("CREATE"):
            stmt = self._parse_create()
        elif token.is_keyword("DROP"):
            stmt = self._parse_drop()
        elif token.is_keyword("PREDICT"):
            stmt = self._parse_predict()
        elif token.is_keyword("ANALYZE"):
            self._advance()
            table = None
            if self._peek().type is TokenType.IDENT:
                table = self._expect_ident()
            stmt = ast.Analyze(table)
        elif (token.type is TokenType.IDENT
                and token.value in ("begin", "commit", "rollback")):
            raise ParseError(
                f"{token.value.upper()} is not supported: the session is "
                "autocommit, every statement takes effect as it returns",
                token.position)
        else:
            raise ParseError(f"unexpected token {token.value!r} at start of "
                             "statement", token.position)
        return stmt

    # -- SELECT ---------------------------------------------------------------

    def _parse_select(self) -> ast.Select:
        self._expect_keyword("SELECT")
        distinct = self._match_keyword("DISTINCT")
        items = [self._parse_select_item()]
        while self._match_punct(","):
            items.append(self._parse_select_item())

        from_table = None
        joins: list[ast.Join] = []
        if self._match_keyword("FROM"):
            from_table = self._parse_table_ref()
            while True:
                if self._match_keyword("CROSS"):
                    self._expect_keyword("JOIN")
                    joins.append(ast.Join("cross", self._parse_table_ref()))
                elif self._peek().is_keyword("INNER", "JOIN"):
                    self._match_keyword("INNER")
                    self._expect_keyword("JOIN")
                    table = self._parse_table_ref()
                    self._expect_keyword("ON")
                    condition = self._parse_expr()
                    joins.append(ast.Join("inner", table, condition))
                elif self._match_punct(","):
                    joins.append(ast.Join("cross", self._parse_table_ref()))
                else:
                    break

        where = self._parse_expr() if self._match_keyword("WHERE") else None

        group_by: list[ast.Expr] = []
        if self._match_keyword("GROUP"):
            self._expect_keyword("BY")
            group_by.append(self._parse_expr())
            while self._match_punct(","):
                group_by.append(self._parse_expr())

        order_by: list[ast.OrderItem] = []
        if self._match_keyword("ORDER"):
            self._expect_keyword("BY")
            order_by.append(self._parse_order_item())
            while self._match_punct(","):
                order_by.append(self._parse_order_item())

        limit = offset = None
        if self._match_keyword("LIMIT"):
            limit = self._parse_int_literal()
        if self._match_keyword("OFFSET"):
            offset = self._parse_int_literal()

        return ast.Select(items=tuple(items), from_table=from_table,
                          joins=tuple(joins), where=where,
                          group_by=tuple(group_by), order_by=tuple(order_by),
                          limit=limit, offset=offset, distinct=distinct)

    def _parse_select_item(self) -> ast.SelectItem:
        if self._peek().type is TokenType.OPERATOR and self._peek().value == "*":
            self._advance()
            return ast.SelectItem(ast.Star())
        expr = self._parse_expr()
        alias = None
        if self._match_keyword("AS"):
            alias = self._expect_ident()
        elif self._peek().type is TokenType.IDENT:
            alias = self._expect_ident()
        return ast.SelectItem(expr, alias)

    def _parse_order_item(self) -> ast.OrderItem:
        expr = self._parse_expr()
        descending = False
        if self._match_keyword("DESC"):
            descending = True
        else:
            self._match_keyword("ASC")
        return ast.OrderItem(expr, descending)

    def _parse_table_ref(self) -> ast.TableRef:
        name = self._expect_ident()
        alias = None
        if self._match_keyword("AS"):
            alias = self._expect_ident()
        elif self._peek().type is TokenType.IDENT:
            alias = self._expect_ident()
        return ast.TableRef(name, alias)

    def _parse_int_literal(self) -> int:
        token = self._advance()
        if token.type is not TokenType.NUMBER or not token.value.isdecimal():
            raise ParseError(f"expected integer, got {token.value!r}",
                             token.position)
        return number_value(token.value, token.position)

    # -- INSERT / UPDATE / DELETE ----------------------------------------------

    def _parse_insert(self) -> ast.Insert:
        self._expect_keyword("INSERT")
        self._expect_keyword("INTO")
        table = self._expect_ident()
        columns: list[str] = []
        if self._match_punct("("):
            columns.append(self._expect_ident())
            while self._match_punct(","):
                columns.append(self._expect_ident())
            self._expect_punct(")")
        self._expect_keyword("VALUES")
        rows = [self._parse_value_row()]
        while self._match_punct(","):
            rows.append(self._parse_value_row())
        return ast.Insert(table, tuple(columns), tuple(rows))

    def _parse_value_row(self) -> tuple[ast.Expr, ...]:
        self._expect_punct("(")
        exprs = [self._parse_expr()]
        while self._match_punct(","):
            exprs.append(self._parse_expr())
        self._expect_punct(")")
        return tuple(exprs)

    def _parse_update(self) -> ast.Update:
        self._expect_keyword("UPDATE")
        table = self._expect_ident()
        self._expect_keyword("SET")
        assignments = [self._parse_assignment()]
        while self._match_punct(","):
            assignments.append(self._parse_assignment())
        where = self._parse_expr() if self._match_keyword("WHERE") else None
        return ast.Update(table, tuple(assignments), where)

    def _parse_assignment(self) -> tuple[str, ast.Expr]:
        column = self._expect_ident()
        op = self._match_operator("=")
        if op is None:
            token = self._peek()
            raise ParseError(f"expected '=' in SET, got {token.value!r}",
                             token.position)
        return column, self._parse_expr()

    def _parse_delete(self) -> ast.Delete:
        self._expect_keyword("DELETE")
        self._expect_keyword("FROM")
        table = self._expect_ident()
        where = self._parse_expr() if self._match_keyword("WHERE") else None
        return ast.Delete(table, where)

    # -- CREATE / DROP --------------------------------------------------------

    def _parse_create(self) -> ast.Statement:
        self._expect_keyword("CREATE")
        if self._match_keyword("TABLE"):
            table = self._expect_ident()
            self._expect_punct("(")
            columns = [self._parse_column_def()]
            while self._match_punct(","):
                columns.append(self._parse_column_def())
            self._expect_punct(")")
            options = (self._parse_with_options()
                       if self._match_keyword("WITH") else ())
            return ast.CreateTable(table, tuple(columns), options)
        if self._match_keyword("INDEX"):
            name = self._expect_ident()
            self._expect_keyword("ON")
            table = self._expect_ident()
            self._expect_punct("(")
            column = self._expect_ident()
            self._expect_punct(")")
            kind = "btree"
            if self._match_keyword("USING"):
                kind = self._expect_ident()
            return ast.CreateIndex(name, table, column, kind)
        token = self._peek()
        raise ParseError(f"expected TABLE or INDEX after CREATE, got "
                         f"{token.value!r}", token.position)

    def _parse_column_def(self) -> ast.ColumnDef:
        name = self._expect_ident()
        type_token = self._advance()
        if type_token.type not in (TokenType.IDENT, TokenType.KEYWORD):
            raise ParseError(f"expected type name, got {type_token.value!r}",
                             type_token.position)
        dtype = DataType.from_name(type_token.value)
        unique = False
        nullable = True
        while True:
            if self._match_keyword("UNIQUE"):
                unique = True
            elif self._match_keyword("NOT"):
                self._expect_keyword("NULL")
                nullable = False
            else:
                break
        return ast.ColumnDef(name, dtype, unique, nullable)

    def _parse_with_options(self) -> tuple:
        """``( key = value [, ...] )`` after CREATE TABLE ... WITH.

        Values are integer literals, identifiers (lower-cased, e.g. a
        partition column name), or string literals.
        """
        self._expect_punct("(")
        options = [self._parse_with_option()]
        while self._match_punct(","):
            options.append(self._parse_with_option())
        self._expect_punct(")")
        return tuple(options)

    def _parse_with_option(self) -> tuple:
        key = self._expect_ident()
        if self._match_operator("=") is None:
            token = self._peek()
            raise ParseError(f"expected '=' in WITH option, got "
                             f"{token.value!r}", token.position)
        token = self._advance()
        if token.type == TokenType.NUMBER:
            try:
                value: object = int(token.value)
            except ValueError:
                raise ParseError(
                    f"WITH option {key!r} expects an integer, got "
                    f"{token.value!r}", token.position) from None
        elif token.type == TokenType.IDENT:
            value = token.value
        elif token.type == TokenType.STRING:
            value = token.value
        else:
            raise ParseError(f"expected a value for WITH option {key!r}, "
                             f"got {token.value!r}", token.position)
        return key, value

    def _parse_drop(self) -> ast.DropTable:
        self._expect_keyword("DROP")
        self._expect_keyword("TABLE")
        if_exists = False
        if self._match_keyword("IF"):
            self._expect_keyword("EXISTS")
            if_exists = True
        return ast.DropTable(self._expect_ident(), if_exists)

    # -- PREDICT (paper §2.3) ---------------------------------------------------

    def _parse_predict(self) -> ast.Predict:
        self._expect_keyword("PREDICT")
        kind = self._expect_keyword("VALUE", "CLASS")
        task = "regression" if kind.value == "VALUE" else "classification"
        self._expect_keyword("OF")
        target = self._expect_ident()
        self._expect_keyword("FROM")
        table = self._expect_ident()
        where = self._parse_expr() if self._match_keyword("WHERE") else None

        train_on: tuple[str, ...] = ("*",)
        if self._match_keyword("TRAIN"):
            self._expect_keyword("ON")
            train_on = tuple(self._parse_train_columns())

        # up to two WITH clauses, in either order: the serving-options
        # form ``WITH (refresh=auto|manual)`` (disambiguated by lookahead —
        # the option key and a bare-identifier value; a parenthesized
        # boolean expression never matches that shape) and the
        # training-filter form ``WITH <expr>``
        refresh: str | None = None
        train_filter: ast.Expr | None = None
        while self._peek().is_keyword("WITH"):
            if self._peek_predict_options():
                if refresh is not None:
                    raise ParseError("duplicate WITH (...) options clause",
                                     self._peek().position)
                self._advance()  # WITH
                refresh = self._parse_predict_options()
            else:
                if train_filter is not None:
                    raise ParseError("duplicate WITH training filter",
                                     self._peek().position)
                self._advance()  # WITH
                train_filter = self._parse_expr()

        inline_rows: list[tuple[ast.Expr, ...]] = []
        if self._match_keyword("VALUES"):
            inline_rows.append(self._parse_value_row())
            while self._match_punct(","):
                inline_rows.append(self._parse_value_row())

        return ast.Predict(task=task, target=target, table=table, where=where,
                           train_on=train_on, train_filter=train_filter,
                           inline_rows=tuple(inline_rows), refresh=refresh)

    _PREDICT_OPTIONS = ("refresh",)

    def _peek_predict_options(self) -> bool:
        """True when the upcoming ``WITH`` introduces an options list:
        ``WITH ( refresh = auto|manual`` — a known option key, ``=``, and
        one of the option's literal values.  Any other value token (a
        number, a string, a different identifier) leaves the clause to
        the expression parser, so a parenthesized training filter on a
        column that happens to be named ``refresh`` still parses — the
        only truly ambiguous spelling is a comparison of a ``refresh``
        column against a column named ``auto``/``manual``, which the
        options grammar claims."""
        return (self._peek(1).type is TokenType.PUNCT
                and self._peek(1).value == "("
                and self._peek(2).type is TokenType.IDENT
                and self._peek(2).value in self._PREDICT_OPTIONS
                and self._peek(3).type is TokenType.OPERATOR
                and self._peek(3).value == "="
                and self._peek(4).type is TokenType.IDENT
                and self._peek(4).value in ("auto", "manual"))

    def _parse_predict_options(self) -> str:
        """Parse ``(refresh = auto|manual)``; returns the refresh mode."""
        self._expect_punct("(")
        refresh: str | None = None
        while True:
            token = self._advance()
            if token.type is not TokenType.IDENT or \
                    token.value not in self._PREDICT_OPTIONS:
                raise ParseError(f"unknown PREDICT option {token.value!r}",
                                 token.position)
            if token.value == "refresh" and refresh is not None:
                raise ParseError("duplicate PREDICT option 'refresh'",
                                 token.position)
            eq = self._advance()
            if eq.type is not TokenType.OPERATOR or eq.value != "=":
                raise ParseError(f"expected '=', got {eq.value!r}",
                                 eq.position)
            value = self._advance()
            if value.type is not TokenType.IDENT or \
                    value.value not in ("auto", "manual"):
                raise ParseError(
                    f"refresh expects auto or manual, got {value.value!r}",
                    value.position)
            refresh = value.value
            if not self._match_punct(","):
                break
        self._expect_punct(")")
        return refresh

    def _parse_train_columns(self) -> list[str]:
        token = self._peek()
        if token.type is TokenType.OPERATOR and token.value == "*":
            self._advance()
            return ["*"]
        columns = [self._expect_ident()]
        while self._match_punct(","):
            columns.append(self._expect_ident())
        return columns

    # -- expressions (precedence climbing) --------------------------------------

    def _parse_expr(self) -> ast.Expr:
        return self._parse_or()

    def _parse_or(self) -> ast.Expr:
        left = self._parse_and()
        while self._match_keyword("OR"):
            left = ast.BinaryOp("OR", left, self._parse_and())
        return left

    def _parse_and(self) -> ast.Expr:
        left = self._parse_not()
        while self._match_keyword("AND"):
            left = ast.BinaryOp("AND", left, self._parse_not())
        return left

    def _parse_not(self) -> ast.Expr:
        if self._match_keyword("NOT"):
            return ast.UnaryOp("NOT", self._parse_not())
        return self._parse_comparison()

    def _parse_comparison(self) -> ast.Expr:
        left = self._parse_additive()
        op = self._match_operator("=", "<>", "!=", "<", "<=", ">", ">=")
        if op is not None:
            if op == "!=":
                op = "<>"
            return ast.BinaryOp(op, left, self._parse_additive())
        if self._match_keyword("IS"):
            negated = self._match_keyword("NOT")
            self._expect_keyword("NULL")
            return ast.IsNull(left, negated)
        negated = self._match_keyword("NOT")
        if self._match_keyword("IN"):
            self._expect_punct("(")
            items = [self._parse_expr()]
            while self._match_punct(","):
                items.append(self._parse_expr())
            self._expect_punct(")")
            return ast.InList(left, tuple(items), negated)
        if self._match_keyword("BETWEEN"):
            low = self._parse_additive()
            self._expect_keyword("AND")
            high = self._parse_additive()
            return ast.Between(left, low, high, negated)
        if self._match_keyword("LIKE"):
            return ast.BinaryOp("LIKE", left, self._parse_additive())
        if negated:
            token = self._peek()
            raise ParseError(f"expected IN or BETWEEN after NOT, got "
                             f"{token.value!r}", token.position)
        return left

    def _parse_additive(self) -> ast.Expr:
        left = self._parse_multiplicative()
        while True:
            op = self._match_operator("+", "-")
            if op is None:
                return left
            left = ast.BinaryOp(op, left, self._parse_multiplicative())

    def _parse_multiplicative(self) -> ast.Expr:
        left = self._parse_unary()
        while True:
            op = self._match_operator("*", "/", "%")
            if op is None:
                return left
            left = ast.BinaryOp(op, left, self._parse_unary())

    def _parse_unary(self) -> ast.Expr:
        if self._match_operator("-"):
            operand = self._parse_unary()
            # a negated number is a literal: index selection and
            # selectivity estimation only read Literal operands
            if (isinstance(operand, ast.Literal)
                    and type(operand.value) in (int, float)):
                return ast.Literal(-operand.value)
            return ast.UnaryOp("-", operand)
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expr:
        token = self._peek()
        if token.type is TokenType.NUMBER:
            self._advance()
            return ast.Literal(number_value(token.value, token.position))
        if token.type is TokenType.STRING:
            self._advance()
            return ast.Literal(token.value)
        if token.is_keyword("TRUE"):
            self._advance()
            return ast.Literal(True)
        if token.is_keyword("FALSE"):
            self._advance()
            return ast.Literal(False)
        if token.is_keyword("NULL"):
            self._advance()
            return ast.Literal(None)
        if token.type is TokenType.PUNCT and token.value == "(":
            self._advance()
            expr = self._parse_expr()
            self._expect_punct(")")
            return expr
        if token.type is TokenType.IDENT or token.is_keyword("VALUE", "CLASS"):
            return self._parse_name_or_call()
        raise ParseError(f"unexpected token {token.value!r} in expression",
                         token.position)

    def _parse_name_or_call(self) -> ast.Expr:
        name = self._expect_ident()
        if self._match_punct("("):
            # function call
            distinct = self._match_keyword("DISTINCT")
            args: list[ast.Expr] = []
            token = self._peek()
            if token.type is TokenType.OPERATOR and token.value == "*":
                self._advance()
                args.append(ast.Star())
            elif not (token.type is TokenType.PUNCT and token.value == ")"):
                args.append(self._parse_expr())
                while self._match_punct(","):
                    args.append(self._parse_expr())
            self._expect_punct(")")
            return ast.FuncCall(name, tuple(args), distinct)
        if self._match_punct("."):
            token = self._peek()
            if token.type is TokenType.OPERATOR and token.value == "*":
                self._advance()
                return ast.Star(table=name)
            column = self._expect_ident()
            return ast.ColumnRef(column, table=name)
        return ast.ColumnRef(name)


# -- templates ------------------------------------------------------------------

# What a slot's literal becomes: Literal(text), Literal(number),
# Literal(-number) (a literal the parser folded a unary minus into), or the
# bare int of a LIMIT / OFFSET.
_STRING, _NUMBER, _NEGATED, _BARE = range(4)

# A getter of each AST node's fields, in declaration order — the order the
# parser reads them in.  The one-field nodes are left out: a Literal is a
# slot, Star and Analyze hold a name.  The recorder descends into tuples,
# ints, literals and the nodes with a field that may hold a literal; names
# and flags cannot.
_FIELDS = {cls: attrgetter(*(field.name for field in fields(cls)))
           for cls in vars(ast).values()
           if isinstance(cls, type) and is_dataclass(cls)
           and len(fields(cls)) > 1}
_WALKED = frozenset(
    [tuple, int, ast.Literal] + [cls for cls in _FIELDS if any(
        field.type not in ("str", "Optional[str]", "bool")
        for field in fields(cls))])


class _Template:
    """A parsed statement whose literals are numbered slots: ``kinds[i]``
    says how the i-th literal of a statement with the same fingerprint
    converts, ``build`` rebuilds the tree around the converted values."""

    __slots__ = ("kinds", "build")

    def __init__(self, kinds: list[int], build: Callable[[list], Any]):
        self.kinds = kinds
        self.build = build

    def bind(self, literals: list[tuple[str, int]]) -> ast.Statement:
        values: list[Any] = []
        append = values.append
        for (text, position), kind in zip(literals, self.kinds):
            if kind == _STRING:
                append(ast.Literal(text))
                continue
            number = number_value(text, position)
            if kind == _NUMBER:
                append(ast.Literal(number))
            elif kind == _NEGATED:
                append(ast.Literal(-number))
            else:
                append(number)
        return self.build(values)


class _Uncacheable(Exception):
    """The recorder could not tell where a literal's value went."""


def _record(statement: ast.Statement,
            tokens: list[Token]) -> Optional[_Template]:
    """The template of a freshly parsed ``statement``, or None when one of
    its literals sits where the recorder cannot place it for sure."""
    recorder = _Recorder(tokens)
    try:
        build = recorder.walk(statement)
    except (_Uncacheable, RecursionError):      # a 5,000-term a + a + ...
        return None
    if len(recorder.kinds) != len(recorder.literals):
        return None
    if build is None:
        return _Template([], lambda values: statement)
    return _Template(recorder.kinds, build)


class _Recorder:
    """Walks a statement's tree in source order — the order the parser
    consumed its tokens — pairing each literal it meets with the next
    literal token, and returns the tree's rebuilder."""

    def __init__(self, tokens: list[Token]):
        self.literals: list[tuple[Token, bool]] = []
        self.kinds: list[int] = []
        for k, token in enumerate(tokens):
            if token.type is TokenType.NUMBER or token.type is TokenType.STRING:
                # a unary minus folds into a number through parentheses:
                # -5, - -5, -(5)
                j = k - 1
                while (j >= 0 and tokens[j].type is TokenType.PUNCT
                       and tokens[j].value == "("):
                    j -= 1
                after_minus = (j >= 0 and tokens[j].type is TokenType.OPERATOR
                               and tokens[j].value == "-")
                self.literals.append((token, after_minus))

    def walk(self, node: Any):
        """None when ``node`` holds no literal (it is shared as it is), a
        slot number when it is one, else a function from the bound values
        to a copy of ``node``."""
        cls = type(node)
        if cls is ast.Literal:
            kind = type(node.value)
            if kind is int or kind is float or kind is str:
                return self._claim(node.value, bare=False)
            return None                         # TRUE, FALSE, NULL
        if cls is int:                          # LIMIT / OFFSET
            return self._claim(node, bare=True)
        values = node if cls is tuple else _FIELDS[cls](node)
        parts = [self.walk(value) if type(value) in _WALKED else None
                 for value in values]
        if parts.count(None) == len(parts):
            return None
        return _rebuilder(_pack if cls is tuple else cls, values, parts)

    def _claim(self, value: Any, bare: bool) -> int:
        slot = len(self.kinds)
        if slot == len(self.literals):
            raise _Uncacheable
        token, after_minus = self.literals[slot]
        if token.type is TokenType.STRING:
            if type(value) is not str or value != token.value:
                raise _Uncacheable
            self.kinds.append(_STRING)
            return slot
        parsed = number_value(token.value, token.position)
        if type(value) is not type(parsed):
            raise _Uncacheable
        if after_minus and value == -parsed:
            if value == parsed or bare:         # x = -0: the sign is lost
                raise _Uncacheable
            self.kinds.append(_NEGATED)
        elif value == parsed:
            self.kinds.append(_BARE if bare else _NUMBER)
        else:
            raise _Uncacheable
        return slot


def _pack(*items: Any) -> tuple:
    return items


def _rebuilder(factory: Callable, values: tuple,
               parts: list) -> Callable[[list], Any]:
    """A function from the bound values to ``factory(*values)`` with each
    part that is not None put in its place; a part is a slot number or a
    rebuilder."""
    low = parts[0]
    if (factory is _pack and type(low) is int
            and parts == list(range(low, low + len(parts)))):
        high = low + len(parts)                 # a VALUES row
        return lambda slots: tuple(slots[low:high])
    subs = [(i, itemgetter(part) if type(part) is int else part)
            for i, part in enumerate(parts) if part is not None]

    def build(slots: list) -> Any:
        out = list(values)
        for i, part in subs:
            out[i] = part(slots)
        return factory(*out)
    return build
