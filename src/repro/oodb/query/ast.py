"""Abstract syntax tree of the query language."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, List, Optional, Set, Tuple


class Expr:
    """Base class of all expression nodes."""

    def children(self) -> Iterator["Expr"]:
        """The expressions directly inside this one."""
        for value in vars(self).values():
            for child in value if isinstance(value, tuple) else (value,):
                if isinstance(child, Expr):
                    yield child

    def variables(self) -> Set[str]:
        """The query variables this expression references."""
        return set().union(*(child.variables() for child in self.children()))

    def sends(self) -> bool:
        """True when evaluating the expression sends a method to an object."""
        return any(child.sends() for child in self.children())


@dataclass(frozen=True)
class Literal(Expr):
    """A constant: string, number, boolean or NULL."""

    value: Any


@dataclass(frozen=True)
class Parameter(Expr):
    """A ``$name`` placeholder bound at execution time."""

    name: str


@dataclass(frozen=True)
class Variable(Expr):
    """A query variable introduced in the FROM clause."""

    name: str

    def variables(self) -> Set[str]:
        return {self.name}


@dataclass(frozen=True)
class AttributeAccess(Expr):
    """``target.attr`` — read a database attribute."""

    target: Expr
    attribute: str


@dataclass(frozen=True)
class MethodCall(Expr):
    """``target -> method(args)`` — invoke a database method."""

    target: Expr
    method: str
    args: Tuple[Expr, ...] = ()

    def sends(self) -> bool:
        return True


@dataclass(frozen=True)
class Comparison(Expr):
    """``left OP right`` for OP in = == != <> < <= > >=."""

    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Arithmetic(Expr):
    """``left OP right`` for OP in + - * /."""

    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class BooleanOp(Expr):
    """N-ary AND/OR."""

    op: str  # "AND" | "OR"
    operands: Tuple[Expr, ...]


@dataclass(frozen=True)
class NotOp(Expr):
    """Logical negation."""

    operand: Expr


AGGREGATE_FUNCTIONS = ("COUNT", "SUM", "AVG", "MIN", "MAX")


@dataclass(frozen=True)
class Aggregate(Expr):
    """``COUNT(*)``, ``COUNT(expr)``, ``SUM/AVG/MIN/MAX(expr)``."""

    function: str
    argument: Optional[Expr] = None  # None only for COUNT(*)


@dataclass(frozen=True)
class RangeDecl:
    """One ``var IN ClassName`` clause."""

    variable: str
    class_name: str


@dataclass
class Query:
    """A parsed ``ACCESS ... FROM ... WHERE ...`` query."""

    select: List[Expr]
    ranges: List[RangeDecl]
    where: Optional[Expr] = None
    group_by: List[Expr] = field(default_factory=list)
    order_by: Optional[Expr] = None
    order_desc: bool = False
    limit: Optional[int] = None
    conjuncts: List[Expr] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.conjuncts = flatten_conjunction(self.where) if self.where is not None else []

    @property
    def is_aggregate(self) -> bool:
        """True when any select item is an aggregate function."""
        return any(isinstance(item, Aggregate) for item in self.select)

    @property
    def projected(self) -> List[Expr]:
        """What is evaluated per result tuple: the select items (an
        aggregate's argument, a 1 for ``COUNT(*)``), the GROUP BY keys and
        the ORDER BY key."""
        items = [
            (item.argument or Literal(1)) if isinstance(item, Aggregate) else item
            for item in self.select
        ]
        return items + self.group_by + ([self.order_by] if self.order_by is not None else [])


def flatten_conjunction(expr: Expr) -> List[Expr]:
    """Split a WHERE tree into top-level AND conjuncts (for the optimizer)."""
    if isinstance(expr, BooleanOp) and expr.op == "AND":
        return [c for operand in expr.operands for c in flatten_conjunction(operand)]
    return [expr]
