"""Abstract syntax tree of the query language."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Set, Tuple


class Expr:
    """Base class of all expression nodes."""

    def variables(self) -> Set[str]:
        """The query variables this expression references."""
        raise NotImplementedError


@dataclass(frozen=True)
class Literal(Expr):
    """A constant: string, number, boolean or NULL."""

    value: Any

    def variables(self) -> Set[str]:
        return set()


@dataclass(frozen=True)
class Parameter(Expr):
    """A ``$name`` placeholder bound at execution time."""

    name: str

    def variables(self) -> Set[str]:
        return set()


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

    def variables(self) -> Set[str]:
        return self.target.variables()


@dataclass(frozen=True)
class MethodCall(Expr):
    """``target -> method(args)`` — invoke a database method."""

    target: Expr
    method: str
    args: Tuple[Expr, ...] = ()

    def variables(self) -> Set[str]:
        result = set(self.target.variables())
        for arg in self.args:
            result |= arg.variables()
        return result


@dataclass(frozen=True)
class Comparison(Expr):
    """``left OP right`` for OP in = == != <> < <= > >=."""

    op: str
    left: Expr
    right: Expr

    def variables(self) -> Set[str]:
        return self.left.variables() | self.right.variables()


@dataclass(frozen=True)
class Arithmetic(Expr):
    """``left OP right`` for OP in + - * /."""

    op: str
    left: Expr
    right: Expr

    def variables(self) -> Set[str]:
        return self.left.variables() | self.right.variables()


@dataclass(frozen=True)
class BooleanOp(Expr):
    """N-ary AND/OR."""

    op: str  # "AND" | "OR"
    operands: Tuple[Expr, ...]

    def variables(self) -> Set[str]:
        result: Set[str] = set()
        for operand in self.operands:
            result |= operand.variables()
        return result


@dataclass(frozen=True)
class NotOp(Expr):
    """Logical negation."""

    operand: Expr

    def variables(self) -> Set[str]:
        return self.operand.variables()


AGGREGATE_FUNCTIONS = ("COUNT", "SUM", "AVG", "MIN", "MAX")


@dataclass(frozen=True)
class Aggregate(Expr):
    """``COUNT(*)``, ``COUNT(expr)``, ``SUM/AVG/MIN/MAX(expr)``."""

    function: str
    argument: Optional[Expr] = None  # None only for COUNT(*)

    def variables(self) -> Set[str]:
        if self.argument is None:
            return set()
        return self.argument.variables()


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


def flatten_conjunction(expr: Expr) -> List[Expr]:
    """Split a WHERE tree into top-level AND conjuncts (for the optimizer)."""
    if isinstance(expr, BooleanOp) and expr.op == "AND":
        result: List[Expr] = []
        for operand in expr.operands:
            result.extend(flatten_conjunction(operand))
        return result
    return [expr]
