"""SQL tokenizer.

Produces a flat token stream for the recursive-descent parser.  Keywords are
case-insensitive; identifiers are lower-cased; string literals use single
quotes with ``''`` escaping, as in standard SQL.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

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


class TokenType(enum.Enum):
    KEYWORD = "KEYWORD"
    IDENT = "IDENT"
    NUMBER = "NUMBER"
    STRING = "STRING"
    OPERATOR = "OPERATOR"
    PUNCT = "PUNCT"
    EOF = "EOF"


@dataclass(frozen=True)
class Token:
    type: TokenType
    value: str
    position: int

    def is_keyword(self, *names: str) -> bool:
        return self.type is TokenType.KEYWORD and self.value in names


_OPERATORS = ("<>", "<=", ">=", "!=", "=", "<", ">", "+", "-", "*", "/", "%")
_PUNCT = "(),.;"


def tokenize(sql: str) -> list[Token]:
    """Tokenize ``sql``; raises :class:`ParseError` on an illegal character."""
    tokens: list[Token] = []
    i, n = 0, len(sql)
    while i < n:
        ch = sql[i]
        if ch.isspace():
            i += 1
            continue
        if sql.startswith("--", i):  # line comment
            end = sql.find("\n", i)
            i = n if end == -1 else end + 1
            continue
        if ch == "'":
            text, i = _read_string(sql, i)
            tokens.append(Token(TokenType.STRING, text, i))
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and sql[i + 1].isdigit()):
            start = i
            while i < n and (sql[i].isdigit() or sql[i] in ".eE"
                             or (sql[i] in "+-" and sql[i - 1] in "eE")):
                i += 1
            tokens.append(Token(TokenType.NUMBER, sql[start:i], start))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (sql[i].isalnum() or sql[i] == "_"):
                i += 1
            word = sql[start:i]
            upper = word.upper()
            if upper in KEYWORDS:
                tokens.append(Token(TokenType.KEYWORD, upper, start))
            else:
                tokens.append(Token(TokenType.IDENT, word.lower(), start))
            continue
        matched = False
        for op in _OPERATORS:
            if sql.startswith(op, i):
                tokens.append(Token(TokenType.OPERATOR, op, i))
                i += len(op)
                matched = True
                break
        if matched:
            continue
        if ch in _PUNCT:
            tokens.append(Token(TokenType.PUNCT, ch, i))
            i += 1
            continue
        raise ParseError(f"illegal character {ch!r} at position {i}", i)
    tokens.append(Token(TokenType.EOF, "", n))
    return tokens


def _read_string(sql: str, i: int) -> tuple[str, int]:
    """Read a single-quoted string starting at ``i``; returns (text, next_i)."""
    assert sql[i] == "'"
    out: list[str] = []
    j = i + 1
    n = len(sql)
    while j < n:
        if sql[j] == "'":
            if j + 1 < n and sql[j + 1] == "'":  # escaped quote
                out.append("'")
                j += 2
                continue
            return "".join(out), j + 1
        out.append(sql[j])
        j += 1
    raise ParseError(f"unterminated string literal starting at {i}", i)
