"""Recursive-descent parser for the SQL dialect plus the PREDICT extension,
and the statement templates it builds.

A statement is a *template* and its *values*.  The parser turns every
number and string literal of an expression (and a LIMIT / OFFSET count)
into an :class:`~repro.sql.ast.Param` slot, so the tree depends on the
text's :func:`~repro.sql.lexer.fingerprint` key alone and is built once
per key: :func:`lookup` finds it in a store by the key that the same pass
over the text yields with the converted values, and a hit runs neither
the tokenizer nor the parser.  A connection's statement table is such a
store (it keeps each template's binding beside it); :func:`parse` keeps a
process-wide one and returns the template with its values substituted,
a tree of plain :class:`~repro.sql.ast.Literal` nodes.  A store holds at
most :data:`_TEMPLATE_CACHE_MAX` templates, oldest dropped first.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.common.errors import ParseError
from repro.sql import ast
from repro.sql.lexer import (Token, TokenType, fingerprint, number_value,
                             tokenize)
from repro.storage.types import DataType

_TEMPLATE_CACHE_MAX = 1024


class Template:
    """A statement template in a store: the tree, whose Params read the
    values of the statement that runs, and the slots whose literal the
    text negates (a fingerprint reads ``5`` in ``-5``).  ``hits`` counts
    the texts that found it in its store; ``within`` is
    :func:`~repro.sql.ast.params_within` of the tree, once :func:`parse`
    has substituted it."""

    __slots__ = ("key", "statement", "negated", "width", "hits", "within")

    def __init__(self, key: str, statement: ast.Statement,
                 negated: tuple[int, ...], width: int):
        self.key = key
        self.statement = statement
        self.negated = negated
        self.width = width
        self.hits = 0
        self.within: Optional[set[int]] = None


# parse()'s store, shared by the whole process
_templates: dict[str, Template] = {}


def parse(sql: str) -> ast.Statement:
    """Parse a single SQL statement (a trailing ``;`` is allowed) into a
    tree whose literals are :class:`~repro.sql.ast.Literal` nodes."""
    template, values = lookup(_templates, sql)
    try:
        if template.within is None:
            template.within = ast.params_within(template.statement)
        return ast.substitute(template.statement, values, template.within)
    except RecursionError:                      # a 5,000-term 1 + 1 + ...
        raise ParseError("statement nests too deeply", 0) from None


def lookup(store: dict, sql: str, make: type = Template
           ) -> tuple[Template, list]:
    """``(template, values)`` of ``sql``: the template filed in ``store``
    under the text's fingerprint key — built by ``make(key, statement,
    negated, width)`` and filed when missing — and the statement's values,
    one per Param slot.  A text whose literals do not all become Params
    (a CREATE TABLE ... WITH option, text the fingerprint reads otherwise
    than the tokenizer) gets a template that is not filed.  Raises
    :class:`ParseError` as :func:`parse` does."""
    key, values = fingerprint(sql)
    template = store.get(key)
    if (template is not None and values is not None
            and len(values) == template.width):
        template.hits += 1
        for slot in template.negated:
            values[slot] = -values[slot]
        return template, values
    parser = _Parser(tokenize(sql))
    statement = parser.parse_statement()
    parsed = parser.values
    template = make(key, statement, tuple(sorted(parser.negated)),
                    len(parsed))
    if values is not None and _same(values, parsed, parser.negated):
        if len(store) >= _TEMPLATE_CACHE_MAX:
            del store[next(iter(store))]
        store[key] = template
    return template, parsed


def _same(scanned: list, parsed: list, negated: set[int]) -> bool:
    """Whether the fingerprint's values are the parser's: every literal
    token became a Param, read alike."""
    return len(scanned) == len(parsed) and all(
        type(a) is type(b) and repr(-a if slot in negated else a) == repr(b)
        for slot, (a, b) in enumerate(zip(scanned, parsed)))


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
            parser = _Parser(run + [end])
            statements.append(ast.substitute(parser.parse_statement(),
                                         parser.values))
            run = []
    return statements


class _Parser:
    """Parses one statement into a template: ``values`` holds each
    literal's value by its Param's slot, negated where the text negates
    it, and ``negated`` those slots."""

    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0
        self.values: list = []
        self.negated: set[int] = set()

    def _param(self, value: Any, kind: str) -> ast.Param:
        self.values.append(value)
        return ast.Param(len(self.values) - 1, kind)

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
            limit = self._parse_count()
        if self._match_keyword("OFFSET"):
            offset = self._parse_count()

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

    def _parse_count(self) -> ast.Param:
        """The integer literal of a LIMIT / OFFSET."""
        token = self._advance()
        if token.type is not TokenType.NUMBER or not token.value.isdecimal():
            raise ParseError(f"expected integer, got {token.value!r}",
                             token.position)
        return self._param(number_value(token.value, token.position), "n")

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
            # selectivity estimation only read literal operands
            if type(operand) is ast.Param and operand.kind in _NEGATE:
                slot = operand.slot
                self.values[slot] = -self.values[slot]
                self.negated ^= {slot}
                return ast.Param(slot, _NEGATE[operand.kind])
            return ast.UnaryOp("-", operand)
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expr:
        token = self._peek()
        if token.type is TokenType.NUMBER:
            self._advance()
            value = number_value(token.value, token.position)
            return self._param(value, "i" if type(value) is int else "f")
        if token.type is TokenType.STRING:
            self._advance()
            return self._param(token.value, "s")
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


# what a unary minus folded into a number literal makes of its kind
_NEGATE = {"i": "-i", "-i": "i", "f": "-f", "-f": "f"}
