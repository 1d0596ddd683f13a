"""Tokenizer for the query language."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List

from repro.errors import QuerySyntaxError
from repro.oodb.query.ast import AGGREGATE_FUNCTIONS

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
    *AGGREGATE_FUNCTIONS,
}

#: One token per match, after optional whitespace.  Operators go longest
#: first so the scanner is greedy; a dot not followed by a digit is the
#: member-access dot; a quote inside a string is doubled.
_TOKEN = re.compile(
    r"""\s*(?:
      (?P<STRING>'(?:[^']|'')*'(?!')|"(?:[^"]|"")*"(?!"))
    | (?P<NUMBER>\d+(?:\.\d+)?|\.\d+)
    | (?P<PARAM>\$\w+)
    | (?P<WORD>[^\W\d]\w*)
    | (?P<OP>->|==|!=|<>|<=|>=|[=<>(),.;+\-*/])
    | (?P<EOF>\Z)
    )""",
    re.VERBOSE,
)
_ERRORS = {
    "'": "unterminated string literal",
    '"': "unterminated string literal",
    "$": "empty parameter name",
}


@dataclass(frozen=True)
class Token:
    """One lexical token with its source position (for error messages)."""

    kind: str  # KEYWORD, IDENT, PARAM, STRING, NUMBER, OP, EOF
    text: str
    position: int


def tokenize(text: str) -> List[Token]:
    """Tokenize ``text``; raises :class:`QuerySyntaxError` on bad input."""
    tokens: List[Token] = []
    position = 0
    while not tokens or tokens[-1].kind != "EOF":
        match = _TOKEN.match(text, position)
        if match is None:
            at = len(text) - len(text[position:].lstrip())
            problem = _ERRORS.get(text[at], f"unexpected character {text[at]!r}")
            raise QuerySyntaxError(f"{problem} at position {at}")
        kind = match.lastgroup
        word, start = match.group(kind), match.start(kind)
        if kind == "STRING":
            word = word[1:-1].replace(word[0] * 2, word[0])
        elif kind == "PARAM":
            word = word[1:]
        elif kind == "WORD":
            kind, word = ("KEYWORD", word.upper()) if word.upper() in KEYWORDS else ("IDENT", word)
        tokens.append(Token(kind, word, start))
        position = match.end()
    return tokens
