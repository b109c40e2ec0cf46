"""SQL tokenizer and statement fingerprint.

Produces a flat token stream for the recursive-descent parser.  Keywords are
case-insensitive; identifiers are lower-cased; string literals use single
quotes with ``''`` escaping, as in standard SQL.

One compiled pattern, :data:`_TOKEN`, reads the text: each match is the
whitespace and ``--`` comments before a token, then the token.
:func:`tokenize` turns the matches into :class:`Token` objects.
:func:`fingerprint` splits the text on the same patterns for words,
comments and literals and converts only the literals, so that statements
differing only in their literal values share one key (what a store of
statement templates looks up) and the values are read in the same pass.
"""

from __future__ import annotations

import re

from repro.common.errors import ParseError

KEYWORDS = {
    "SELECT", "FROM", "WHERE", "AND", "OR", "NOT", "INSERT", "INTO",
    "VALUES", "UPDATE", "SET", "DELETE", "CREATE", "DROP", "TABLE", "INDEX",
    "ON", "USING", "UNIQUE", "NULL", "TRUE", "FALSE", "JOIN", "INNER",
    "LEFT", "CROSS", "GROUP", "BY", "ORDER", "ASC", "DESC", "LIMIT",
    "OFFSET", "AS", "DISTINCT", "IN", "IS", "BETWEEN", "LIKE", "EXISTS",
    "IF", "ANALYZE", "EXPLAIN",
    # AI analytics extension (paper §2.3)
    "PREDICT", "VALUE", "CLASS", "OF", "TRAIN", "WITH",
}


class TokenType:
    """Token kinds, compared by identity (``token.type is
    TokenType.KEYWORD``).  Plain class attributes, not an ``Enum``: the
    parser reads a dozen per token, and an ``Enum`` member costs several
    times a class attribute to look up."""

    KEYWORD = "KEYWORD"
    IDENT = "IDENT"
    NUMBER = "NUMBER"
    STRING = "STRING"
    OPERATOR = "OPERATOR"
    PUNCT = "PUNCT"
    EOF = "EOF"


class Token:
    __slots__ = ("type", "value", "position")

    def __init__(self, type: str, value: str, position: int):
        self.type = type
        self.value = value
        self.position = position

    def __repr__(self) -> str:
        return f"Token({self.type}, {self.value!r}, {self.position})"

    def is_keyword(self, *names: str) -> bool:
        return self.type is TokenType.KEYWORD and self.value in names


# A number is a digit (or ``.`` then a digit) followed by digits, dots and
# exponents, so ``1.2.3`` and ``1e+`` are one (malformed) token that
# :func:`number_value` rejects.  A string's closing quote may not be
# followed by another quote: ``''`` inside it is an escaped quote, and
# without the lookahead ``'ab''`` would read as ``'ab'`` plus a stray
# quote.  ``end`` and ``bad`` make every position match, so the scan never
# backtracks into the skipped prefix.
_TOKEN = re.compile(r"""
    \s*(?:--[^\n]*\s*)*
    (?:
      (?P<word>[^\W\d]\w*)
    | (?P<number>(?:\d|\.\d)(?:[eE][+-]?|[\d.])*)
    | (?P<string>'[^']*(?:''[^']*)*'(?!'))
    | (?P<op><>|<=|>=|!=|[=<>+*/%-])
    | (?P<punct>[(),.;])
    | (?P<end>\Z)
    | (?P<bad>.)
    )""", re.VERBOSE | re.DOTALL)

_TYPES = {"number": TokenType.NUMBER, "op": TokenType.OPERATOR,
          "punct": TokenType.PUNCT}


def _lex_error(sql: str, position: int) -> ParseError:
    if sql[position] == "'":
        return ParseError(
            f"unterminated string literal starting at {position}", position)
    return ParseError(
        f"illegal character {sql[position]!r} at position {position}",
        position)


def tokenize(sql: str) -> list[Token]:
    """Tokenize ``sql``; raises :class:`ParseError` on an illegal character
    or an unterminated string.  Every token's position is its first
    character."""
    tokens: list[Token] = []
    append = tokens.append
    for match in _TOKEN.finditer(sql):
        kind = match.lastgroup
        start = match.start(kind)
        text = sql[start:match.end()]
        if kind == "word":
            if not (text[0].isalpha() or text[0] == "_"):
                # a numeric character that is not a decimal digit (``²``)
                append(Token(TokenType.NUMBER, text, start))
                continue
            upper = text.upper()
            if upper in KEYWORDS:
                append(Token(TokenType.KEYWORD, upper, start))
            else:
                append(Token(TokenType.IDENT, text.lower(), start))
        elif kind == "string":
            append(Token(TokenType.STRING, text[1:-1].replace("''", "'"),
                         start))
        elif kind == "end":
            append(Token(TokenType.EOF, "", start))
            break
        elif kind == "bad":
            raise _lex_error(sql, start)
        else:
            append(Token(_TYPES[kind], text, start))
    return tokens


# What :func:`fingerprint` splits on: a word or a ``--`` comment (kept as
# text, so digits inside either are not literals), a number, a string —
# :data:`_TOKEN`'s own patterns for each.
_LITERAL = re.compile(r"""
    (--[^\n]*|[^\W\d]\w*)
  | ((?:\d|\.\d)(?:[eE][+-]?|[\d.])*)
  | ('[^']*(?:''[^']*)*'(?!'))""", re.VERBOSE)


def fingerprint(sql: str) -> tuple[str, list | None]:
    """``(key, values)``: ``key`` is ``sql`` with every number and string
    literal replaced by a mark of its kind — ``\\0i`` for an integer
    (digits only), ``\\0f`` for any other number, ``\\0s`` for a string —
    and ``values`` lists each literal's value in order: the int or float
    :func:`number_value` reads, a string's text with its quotes removed
    and ``''`` unescaped.  Statements with equal keys have the same
    tokens but for those values.  One ``split`` pass that does not
    validate: on text :func:`tokenize` rejects it still returns a key,
    and ``values`` is None when a number is malformed (``1.2.3``), so the
    caller parses the text to raise the error where a parse raises it."""
    pieces = _LITERAL.split(sql)
    values: list | None = []
    append = values.append
    # each match is four pieces: word or comment, number, string and the
    # text after it
    for k in range(2, len(pieces), 4):
        number = pieces[k]
        if number is not None:
            decimal = number.isdecimal()
            pieces[k] = "\0i" if decimal else "\0f"
            try:
                append(int(number) if decimal else float(number))
            except ValueError:
                values = None
            continue
        string = pieces[k + 1]
        if string is not None:
            pieces[k + 1] = "\0s"
            text = string[1:-1]
            append(text.replace("''", "'") if "''" in text else text)
    return "".join(filter(None, pieces)), values


def number_value(text: str, position: int) -> int | float:
    """The value of a number token: an int when it is all digits, else a
    float.  Raises :class:`ParseError` at ``position`` on a malformed
    number (``1.2.3``, ``1e``, a 5,000-digit integer)."""
    try:
        return int(text) if text.isdecimal() else float(text)
    except ValueError:
        raise ParseError(f"malformed number {text!r} at position {position}",
                         position) from None
