"""Tokenizer for the query language."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List

from repro.errors import QuerySyntaxError

KEYWORDS = {
    "ACCESS",
    "FROM",
    "WHERE",
    "IN",
    "AND",
    "OR",
    "NOT",
    "TRUE",
    "FALSE",
    "NULL",
    "ORDER",
    "GROUP",
    "BY",
    "ASC",
    "DESC",
    "LIMIT",
    "COUNT",
    "SUM",
    "AVG",
    "MIN",
    "MAX",
}

#: Multi-character operators, longest first so the scanner is greedy.
_OPERATORS = ["->", "==", "!=", "<>", "<=", ">=", "=", "<", ">", "(", ")", ",", ".", ";", "+", "-", "*", "/"]


@dataclass(frozen=True)
class Token:
    """One lexical token with its source position (for error messages)."""

    kind: str  # KEYWORD, IDENT, PARAM, STRING, NUMBER, OP, EOF
    text: str
    position: int

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r}@{self.position})"


def tokenize(text: str) -> List[Token]:
    """Tokenize ``text``; raises :class:`QuerySyntaxError` on bad input."""
    return list(_scan(text))


def _scan(text: str) -> Iterator[Token]:
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        # string literal, single or double quoted
        if ch in ("'", '"'):
            quote = ch
            j = i + 1
            chars: List[str] = []
            while j < n:
                if text[j] == quote:
                    if j + 1 < n and text[j + 1] == quote:  # doubled quote escape
                        chars.append(quote)
                        j += 2
                        continue
                    break
                chars.append(text[j])
                j += 1
            else:
                raise QuerySyntaxError(f"unterminated string literal at position {i}")
            yield Token("STRING", "".join(chars), i)
            i = j + 1
            continue
        # number
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    # A dot not followed by a digit is the member-access dot.
                    if j + 1 >= n or not text[j + 1].isdigit():
                        break
                    seen_dot = True
                j += 1
            yield Token("NUMBER", text[i:j], i)
            i = j
            continue
        # parameter
        if ch == "$":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            if j == i + 1:
                raise QuerySyntaxError(f"empty parameter name at position {i}")
            yield Token("PARAM", text[i + 1 : j], i)
            i = j
            continue
        # identifier / keyword
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "KEYWORD" if word.upper() in KEYWORDS else "IDENT"
            yield Token(kind, word.upper() if kind == "KEYWORD" else word, i)
            i = j
            continue
        # operators
        for op in _OPERATORS:
            if text.startswith(op, i):
                yield Token("OP", op, i)
                i += len(op)
                break
        else:
            raise QuerySyntaxError(f"unexpected character {ch!r} at position {i}")
    yield Token("EOF", "", n)
