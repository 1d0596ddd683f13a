"""Recursive-descent parser for the query language.

Grammar (EBNF)::

    query       = "ACCESS" select_list "FROM" range_list
                  [ "WHERE" or_expr ]
                  [ "ORDER" "BY" add_expr [ "ASC" | "DESC" ] ]
                  [ "LIMIT" NUMBER ] [ ";" ]
    select_list = add_expr { "," add_expr }
    range_list  = IDENT "IN" IDENT { "," IDENT "IN" IDENT }
    or_expr     = and_expr { "OR" and_expr }
    and_expr    = not_expr { "AND" not_expr }
    not_expr    = "NOT" not_expr | comparison
    comparison  = add_expr [ ("="|"=="|"!="|"<>"|"<"|"<="|">"|">=") add_expr ]
    add_expr    = mul_expr { ("+"|"-") mul_expr }
    mul_expr    = postfix { ("*"|"/") postfix }
    postfix     = primary { "->" IDENT "(" [ args ] ")" | "." IDENT }
    primary     = literal | PARAM | IDENT | "(" or_expr ")"
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import QuerySyntaxError
from repro.oodb.query.ast import (
    AGGREGATE_FUNCTIONS,
    Aggregate,
    Arithmetic,
    AttributeAccess,
    BooleanOp,
    Comparison,
    Expr,
    Literal,
    MethodCall,
    NotOp,
    Parameter,
    Query,
    RangeDecl,
    Variable,
)
from repro.oodb.query.lexer import Token, tokenize

_COMPARISON_OPS = {"=", "==", "!=", "<>", "<", "<=", ">", ">="}


def parse_query(text: str) -> Query:
    """Parse ``text`` into a :class:`Query` AST."""
    return _Parser(tokenize(text)).parse()


class _Parser:
    def __init__(self, tokens: List[Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    # -- token helpers -----------------------------------------------------

    @property
    def _current(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self._current
        self._pos += 1
        return token

    def _check(self, kind: str, text: Optional[str] = None) -> bool:
        token = self._current
        return token.kind == kind and (text is None or token.text == text)

    def _accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        if self._check(kind, text):
            return self._advance()
        return None

    def _expect(self, kind: str, text: Optional[str] = None) -> Token:
        token = self._accept(kind, text)
        if token is None:
            want = text or kind
            got = self._current
            raise QuerySyntaxError(
                f"expected {want} at position {got.position}, found {got.text or 'end of query'!r}"
            )
        return token

    # -- grammar -------------------------------------------------------------

    def parse(self) -> Query:
        self._expect("KEYWORD", "ACCESS")
        select = [self._select_item()]
        while self._accept("OP", ","):
            select.append(self._select_item())

        self._expect("KEYWORD", "FROM")
        ranges = [self._range_decl()]
        while self._accept("OP", ","):
            ranges.append(self._range_decl())

        where = None
        if self._accept("KEYWORD", "WHERE"):
            where = self._or_expr()

        group_by: List[Expr] = []
        if self._accept("KEYWORD", "GROUP"):
            self._expect("KEYWORD", "BY")
            group_by.append(self._add_expr())
            while self._accept("OP", ","):
                group_by.append(self._add_expr())

        order_by = None
        order_desc = False
        if self._accept("KEYWORD", "ORDER"):
            self._expect("KEYWORD", "BY")
            order_by = self._add_expr()
            if self._accept("KEYWORD", "DESC"):
                order_desc = True
            else:
                self._accept("KEYWORD", "ASC")

        limit = None
        if self._accept("KEYWORD", "LIMIT"):
            token = self._expect("NUMBER")
            limit = int(float(token.text))

        self._accept("OP", ";")
        self._expect("EOF")

        query = Query(select=select, ranges=ranges, where=where,
                      group_by=group_by,
                      order_by=order_by, order_desc=order_desc, limit=limit)
        if query.is_aggregate and order_by is not None:
            raise QuerySyntaxError(
                "ORDER BY is not supported together with aggregate functions"
            )
        if group_by and not query.is_aggregate:
            raise QuerySyntaxError("GROUP BY requires an aggregate in ACCESS")
        declared = [r.variable for r in query.ranges]
        if len(set(declared)) != len(declared):
            raise QuerySyntaxError("duplicate variable in FROM clause")
        # Identifiers that are not range variables stay free: they are
        # resolved from the bindings supplied at execution time (the paper's
        # queries reference application names such as ``collPara`` this way).
        return query

    def _select_item(self) -> Expr:
        token = self._current
        if token.kind == "KEYWORD" and token.text in AGGREGATE_FUNCTIONS:
            self._advance()
            self._expect("OP", "(")
            if token.text == "COUNT" and self._accept("OP", "*"):
                self._expect("OP", ")")
                return Aggregate("COUNT", None)
            argument = self._add_expr()
            self._expect("OP", ")")
            return Aggregate(token.text, argument)
        return self._add_expr()

    def _range_decl(self) -> RangeDecl:
        var = self._expect("IDENT").text
        self._expect("KEYWORD", "IN")
        class_name = self._expect("IDENT").text
        return RangeDecl(variable=var, class_name=class_name)

    def _or_expr(self) -> Expr:
        operands = [self._and_expr()]
        while self._accept("KEYWORD", "OR"):
            operands.append(self._and_expr())
        if len(operands) == 1:
            return operands[0]
        return BooleanOp("OR", tuple(operands))

    def _and_expr(self) -> Expr:
        operands = [self._not_expr()]
        while self._accept("KEYWORD", "AND"):
            operands.append(self._not_expr())
        if len(operands) == 1:
            return operands[0]
        return BooleanOp("AND", tuple(operands))

    def _not_expr(self) -> Expr:
        if self._accept("KEYWORD", "NOT"):
            return NotOp(self._not_expr())
        return self._comparison()

    def _comparison(self) -> Expr:
        left = self._add_expr()
        token = self._current
        if token.kind == "OP" and token.text in _COMPARISON_OPS:
            self._advance()
            right = self._add_expr()
            return Comparison(op=token.text, left=left, right=right)
        return left

    def _add_expr(self) -> Expr:
        left = self._mul_expr()
        while self._current.kind == "OP" and self._current.text in ("+", "-"):
            op = self._advance().text
            left = Arithmetic(op, left, self._mul_expr())
        return left

    def _mul_expr(self) -> Expr:
        left = self._postfix()
        while self._current.kind == "OP" and self._current.text in ("*", "/"):
            op = self._advance().text
            left = Arithmetic(op, left, self._postfix())
        return left

    def _postfix(self) -> Expr:
        expr = self._primary()
        while True:
            if self._accept("OP", "->"):
                method = self._expect("IDENT").text
                self._expect("OP", "(")
                args: List[Expr] = []
                if not self._check("OP", ")"):
                    args.append(self._or_expr())
                    while self._accept("OP", ","):
                        args.append(self._or_expr())
                self._expect("OP", ")")
                expr = MethodCall(target=expr, method=method, args=tuple(args))
            elif self._accept("OP", "."):
                attr = self._expect("IDENT").text
                expr = AttributeAccess(target=expr, attribute=attr)
            else:
                return expr

    def _primary(self) -> Expr:
        token = self._current
        if token.kind == "STRING":
            self._advance()
            return Literal(token.text)
        if token.kind == "NUMBER":
            self._advance()
            text = token.text
            return Literal(float(text) if "." in text else int(text))
        if token.kind == "PARAM":
            self._advance()
            return Parameter(token.text)
        if token.kind == "KEYWORD" and token.text in ("TRUE", "FALSE"):
            self._advance()
            return Literal(token.text == "TRUE")
        if token.kind == "KEYWORD" and token.text == "NULL":
            self._advance()
            return Literal(None)
        if token.kind == "IDENT":
            self._advance()
            return Variable(token.text)
        if self._accept("OP", "("):
            expr = self._or_expr()
            self._expect("OP", ")")
            return expr
        raise QuerySyntaxError(
            f"unexpected token {token.text!r} at position {token.position}"
        )
