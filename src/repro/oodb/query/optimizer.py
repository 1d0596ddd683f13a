"""Query optimizer.

Turns a parsed :class:`~repro.oodb.query.ast.Query` into an executable plan:

1. **Predicate classification** — WHERE conjuncts are grouped by the set of
   range variables they reference.
2. **Index selection** — single-variable conjuncts of the shapes
   ``var.attr OP constant`` and ``var -> getAttributeValue('A') OP constant``
   are answered from an attribute index when one covers the class; equality
   uses hash or B-tree probes, inequalities use B-tree range scans.
3. **Selectivity-ordered nested-loop join** — variables are bound in
   ascending candidate-set order; every conjunct is evaluated at the
   earliest point where all its variables are bound (predicate pushdown).
4. **Method-based semantic hooks** ([AbF95], Section 4.5.4 of the paper) —
   two registries let higher layers (the coupling) take over a comparison
   ``var -> method(constants) OP constant`` without this package knowing
   them.  A *restrictor* answers it wholesale with the set of satisfying
   OIDs, cutting the candidate set before any object is looked at; e.g.
   the coupling's opt-in IRS-first strategy answers
   ``p -> getIRSValue(c,'WWW') > 0.6`` with one buffered IRS call.  A
   *batch method* keeps per-candidate semantics — every candidate is still
   examined and compared — but is compiled once per statement into a probe
   ``obj -> value`` that may share set-level work (one IRS result, one
   membership map) across all candidates instead of a full method dispatch
   each.  The restrictor is asked first; when it declines, the batch
   method; when that declines too, the method is sent per object.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Set, Tuple

from repro.errors import UnknownClassError
from repro.oodb.query.ast import (
    AttributeAccess,
    Comparison,
    Expr,
    Literal,
    MethodCall,
    Parameter,
    Query,
    Variable,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.oodb.database import Database
    from repro.oodb.objects import DBObject
    from repro.oodb.oid import OID

#: Signature of a semantic restrictor: given the database, the method-call
#: arguments (already evaluated to constants), the comparison operator and
#: the constant bound, return the set of OIDs satisfying the predicate —
#: or None to decline (then the predicate falls back to per-object filtering).
Restrictor = Callable[["Database", Tuple[Any, ...], str, Any], Optional[Set["OID"]]]

_RESTRICTORS: Dict[str, Restrictor] = {}


def register_restrictor(method_name: str, restrictor: Restrictor) -> None:
    """Register a semantic restrictor for ``method_name`` comparisons."""
    _RESTRICTORS[method_name] = restrictor


def unregister_restrictor(method_name: str) -> None:
    """Remove a previously registered restrictor."""
    _RESTRICTORS.pop(method_name, None)


def restrictor_for(method_name: str) -> Optional[Restrictor]:
    """The registered restrictor for ``method_name``, if any."""
    return _RESTRICTORS.get(method_name)


#: Signature of a batch-method factory: given the database, the range
#: variable's class and the method-call arguments (already evaluated to
#: constants), return a probe computing the method's value for one candidate
#: object — exactly what ``obj.send(method, *args)`` would return, side
#: effects included — or None to decline.  The factory must decline when a
#: class in the range (the class or a subclass) overrides the method.
BatchMethod = Callable[
    ["Database", str, Tuple[Any, ...]], Optional[Callable[["DBObject"], Any]]
]

_BATCH_METHODS: Dict[str, BatchMethod] = {}


def register_batch_method(method_name: str, factory: BatchMethod) -> None:
    """Register a batch-method factory for ``method_name`` comparisons."""
    _BATCH_METHODS[method_name] = factory


def unregister_batch_method(method_name: str) -> None:
    """Remove a previously registered batch-method factory."""
    _BATCH_METHODS.pop(method_name, None)


def batch_method_for(method_name: str) -> Optional[BatchMethod]:
    """The registered batch-method factory for ``method_name``, if any."""
    return _BATCH_METHODS.get(method_name)


_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "==": "==", "!=": "!=", "<>": "<>"}


def _constant_of(expr: Expr, bindings: Dict[str, Any]) -> Tuple[bool, Any]:
    """(True, value) when ``expr`` is a constant under ``bindings``."""
    if isinstance(expr, Literal):
        return True, expr.value
    if isinstance(expr, Parameter):
        if expr.name in bindings:
            return True, bindings[expr.name]
        return False, None
    if isinstance(expr, Variable) and expr.name in bindings:
        return True, bindings[expr.name]
    return False, None


@dataclass
class IndexablePredicate:
    """A single-variable comparison answerable from an index."""

    variable: str
    attribute: str
    op: str
    constant: Any
    source: Comparison


@dataclass
class RestrictablePredicate:
    """A method-call comparison a restrictor or a batch method may answer."""

    variable: str
    method: str
    args: Tuple[Any, ...]
    op: str
    constant: Any
    source: Comparison


@dataclass
class VariablePlan:
    """How one range variable's candidate set is produced."""

    variable: str
    class_name: str
    index_predicates: List[IndexablePredicate] = field(default_factory=list)
    restrictor_predicates: List[RestrictablePredicate] = field(default_factory=list)
    filters: List[Expr] = field(default_factory=list)


@dataclass
class QueryPlan:
    """The complete executable plan."""

    query: Query
    variable_plans: Dict[str, VariablePlan]
    join_conjuncts: List[Expr]
    description: Dict[str, Any] = field(default_factory=dict)


class Optimizer:
    """Builds a :class:`QueryPlan` for a query against a database."""

    def __init__(self, db: "Database") -> None:
        self._db = db

    def plan(self, query: Query, bindings: Dict[str, Any]) -> QueryPlan:
        """Classify predicates and choose access paths."""
        range_vars = {r.variable for r in query.ranges}
        vplans = {
            r.variable: VariablePlan(variable=r.variable, class_name=r.class_name)
            for r in query.ranges
        }
        join_conjuncts: List[Expr] = []

        for conjunct in query.conjuncts:
            used = conjunct.variables() & range_vars
            if len(used) != 1:
                join_conjuncts.append(conjunct)
                continue
            variable = next(iter(used))
            vplan = vplans[variable]
            classified = self._classify_single(conjunct, variable, vplan.class_name, bindings)
            if isinstance(classified, IndexablePredicate):
                vplan.index_predicates.append(classified)
            elif isinstance(classified, RestrictablePredicate):
                vplan.restrictor_predicates.append(classified)
            else:
                vplan.filters.append(conjunct)

        description = {
            "variables": {
                v: {
                    "class": p.class_name,
                    "extent_size": self._extent_size(p.class_name),
                    "index_predicates": [
                        f"{p.class_name}.{ip.attribute} {ip.op} {ip.constant!r}"
                        for ip in p.index_predicates
                    ],
                    "restrictor_predicates": [
                        f"{rp.method}(...) {rp.op} {rp.constant!r}"
                        for rp in p.restrictor_predicates
                    ],
                    "residual_filters": len(p.filters),
                    "access_path": (
                        "index probe"
                        if p.index_predicates
                        else "semantic restrictor"
                        if p.restrictor_predicates
                        else "extent scan"
                    ),
                }
                for v, p in vplans.items()
            },
            "join_conjuncts": len(join_conjuncts),
            "estimated_cross_product": self._cross_product_estimate(vplans),
        }
        return QueryPlan(
            query=query,
            variable_plans=vplans,
            join_conjuncts=join_conjuncts,
            description=description,
        )

    # -- classification ------------------------------------------------------

    def _classify_single(
        self, conjunct: Expr, variable: str, class_name: str, bindings: Dict[str, Any]
    ):
        if not isinstance(conjunct, Comparison):
            return None
        left, right, op = conjunct.left, conjunct.right, conjunct.op
        is_const, const = _constant_of(right, bindings)
        if not is_const:
            is_const, const = _constant_of(left, bindings)
            if not is_const:
                return None
            left, right, op = right, left, _FLIP[op]
        # Now: ``left OP const`` with ``left`` referencing exactly `variable`.

        attribute = self._attribute_of(left, variable)
        if attribute is not None and op != "!=" and op != "<>":
            index = self._find_index(class_name, attribute)
            if index is not None and (op in ("=", "==") or index.supports_range()):
                return IndexablePredicate(variable, attribute, op, const, conjunct)

        if isinstance(left, MethodCall) and isinstance(left.target, Variable):
            if (
                restrictor_for(left.method) is not None
                or batch_method_for(left.method) is not None
            ):
                arg_values = []
                for arg in left.args:
                    ok, value = _constant_of(arg, bindings)
                    if not ok:
                        return None
                    arg_values.append(value)
                return RestrictablePredicate(
                    variable, left.method, tuple(arg_values), op, const, conjunct
                )
        return None

    @staticmethod
    def _attribute_of(expr: Expr, variable: str) -> Optional[str]:
        """Extract the attribute name when ``expr`` is ``var.attr`` or
        ``var -> getAttributeValue('attr')``."""
        if isinstance(expr, AttributeAccess) and isinstance(expr.target, Variable):
            if expr.target.name == variable:
                return expr.attribute
        if (
            isinstance(expr, MethodCall)
            and isinstance(expr.target, Variable)
            and expr.target.name == variable
            and expr.method == "getAttributeValue"
            and len(expr.args) == 1
            and isinstance(expr.args[0], Literal)
        ):
            return str(expr.args[0].value)
        return None

    def _find_index(self, class_name: str, attribute: str):
        ancestry = [c.name for c in self._db.schema.ancestry(class_name)]
        return self._db.indexes.covering(ancestry, attribute)

    def _extent_size(self, class_name: str) -> int:
        try:
            return self._db.extent_size(class_name)
        except UnknownClassError:  # surfaces at execution time instead
            return 0

    def _cross_product_estimate(self, vplans: Dict[str, VariablePlan]) -> int:
        """Upper bound on tuples examined (no predicate applied)."""
        estimate = 1
        for vplan in vplans.values():
            estimate *= max(1, self._extent_size(vplan.class_name))
        return estimate
