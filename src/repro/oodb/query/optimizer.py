"""Query optimizer.

Turns a parsed :class:`~repro.oodb.query.ast.Query` into an executable plan:

1. **Predicate classification** — WHERE conjuncts are grouped by the set of
   range variables they reference.
2. **Index selection** — single-variable conjuncts of the shapes
   ``var.attr OP constant`` and ``var -> getAttributeValue('A') OP constant``
   are answered from an attribute index when one covers the class; equality
   uses hash or B-tree probes, inequalities use B-tree range scans.
3. **Join order** — variables are bound smallest candidate set first among
   those a join conjunct connects to the bound ones; every conjunct runs at
   the earliest level where all its variables are bound (pushdown).
4. **Method-based semantic hook** ([AbF95], Section 4.5.4 of the paper) —
   one registry lets higher layers evaluate their methods a set at a time
   without this package knowing them: a method with constant arguments
   *compiles*, once per statement, to a map over a candidate set
   (:class:`MethodMap`: OID -> value, plus the *undecided* OIDs it cannot
   answer without the object).  Three conjunct shapes use it.  A comparison
   ``var -> m(consts) OP constant`` filters the map; a path
   ``var -> m1(consts) -> m2(consts) OP constant`` maps the second step once
   per distinct target of the first; an equi-join ``v1 -> m(consts) == v2``
   becomes a hash lookup through the map instead of a call per tuple.  A
   projected chain ``var -> m1(consts) [-> m2(consts)]`` is one *column*
   over the distinct objects the result tuples bind.  Undecided candidates,
   and everything a compiler declines, are sent the method per object — the
   only fallback.  A method registered as reading an *outside* source (the
   IRS) is never projected as a column, and has its map asked for after the
   variable's other conjuncts: no candidate reaching it means no outside call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Any, Callable, Collection, Dict, List, Mapping, Optional, Set, Tuple,
)

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
    from repro.oodb.oid import OID


@dataclass
class MethodMap:
    """A compiled method's answer for one candidate set.

    ``values`` is read-only and may cover more than the candidates asked
    for.  A candidate in neither ``values`` nor ``undecided`` has the value
    ``default``; an undecided one must be sent the method itself.  With
    ``refs`` the values are OIDs standing for the objects ``send`` returns.
    ``restricts`` marks a map that answered its comparison wholesale from an
    outside source (counted in ``QueryStats.restrictor_calls``).
    """

    values: Mapping["OID", Any]
    undecided: Collection["OID"] = ()
    default: Any = None
    refs: bool = False
    restricts: bool = False


#: What a compiler returns: candidates, and the ``(op, constant)`` the values
#: will be compared with when there is one, to the map.  Called once per
#: statement and conjunct, and not at all when no candidate reaches it.
CompiledMethod = Callable[[Set["OID"], Optional[Tuple[str, Any]]], MethodMap]

#: Signature of a method compiler: given the database, the class whose
#: extent the receivers come from and the call's arguments (already
#: evaluated to constants), return the compiled method — exactly the values
#: ``obj.send(method, *args)`` returns, side effects included — or None to
#: decline.  A compiler must decline when a class in the range (the class or
#: a subclass) does not answer the method with the implementation it knows
#: (:meth:`repro.oodb.schema.Schema.method_is`).
MethodCompiler = Callable[["Database", str, Tuple[Any, ...]], Optional[CompiledMethod]]

_COMPILERS: Dict[str, MethodCompiler] = {}
#: Methods whose maps read — and may change — more than the object store.
_OUTSIDE: Set[str] = set()


def register_method_compiler(
    method_name: str, compiler: MethodCompiler, outside: bool = False
) -> None:
    """Make ``compiler`` the one compiler of ``method_name`` calls.

    ``outside`` marks maps that read an outside source (an IRS result,
    fetched and buffered): the evaluator asks for such a map only after
    every other conjunct of the variable left a candidate.
    """
    _COMPILERS[method_name] = compiler
    (_OUTSIDE.add if outside else _OUTSIDE.discard)(method_name)


def unregister_method_compiler(method_name: str) -> None:
    """Withdraw the method's compiler, if it has one."""
    _COMPILERS.pop(method_name, None)
    _OUTSIDE.discard(method_name)


def compile_method(
    db: "Database", class_name: str, method: str, args: Tuple[Any, ...]
) -> Optional[CompiledMethod]:
    """The method's compiler's answer for the call; None without one or when it declines."""
    compiler = _COMPILERS.get(method)
    return compiler and compiler(db, class_name, args)


_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "==": "==", "!=": "!=", "<>": "<>"}


def _constant_of(expr: Expr, bindings: Dict[str, Any]) -> Tuple[bool, Any]:
    """(True, value) when ``expr`` is a constant under ``bindings``."""
    if isinstance(expr, Literal):
        return True, expr.value
    if isinstance(expr, (Parameter, Variable)) and expr.name in bindings:
        return True, bindings[expr.name]
    return False, None


def _method_steps(expr: Expr, bindings: Dict[str, Any]) -> Tuple[Optional[str], Steps]:
    """``var -> m1(consts) -> m2(consts) ...`` as ``(var, calls in sending order)``.

    ``(None, ())`` unless ``expr`` is such a chain on a variable, every
    argument is a constant under ``bindings`` and every method has a
    compiler registered.
    """
    steps = []
    while isinstance(expr, MethodCall) and expr.method in _COMPILERS:
        constants = [_constant_of(arg, bindings) for arg in expr.args]
        if not all(ok for ok, _value in constants):
            break
        steps.append((expr.method, tuple(value for _ok, value in constants)))
        expr = expr.target
    if isinstance(expr, Variable) and expr.name not in bindings:
        return expr.name, tuple(reversed(steps))
    return None, ()


Steps = Tuple[Tuple[str, Tuple[Any, ...]], ...]


def _render_steps(variable: str, steps: Steps) -> str:
    return variable + "".join(f" -> {method}(...)" for method, _args in steps)


@dataclass
class IndexablePredicate:
    """A single-variable comparison answerable from an index."""

    variable: str
    attribute: str
    op: str
    constant: Any
    source: Comparison


@dataclass
class MethodPredicate:
    """``variable -> m1(consts) [-> m2(consts)] OP constant``, or a join.

    ``steps`` are the ``(method, constant arguments)`` calls in sending
    order, each with a compiler registered.  For the equi-join
    ``variable -> m(consts) == target`` the value is compared with the range
    variable ``target`` instead of ``constant``.
    """

    variable: str
    steps: Steps
    op: str
    constant: Any
    source: Comparison
    target: Optional[str] = None

    @property
    def outside(self) -> bool:
        """True when a step's maps read an outside source (asked for last)."""
        return any(method in _OUTSIDE for method, _args in self.steps)


@dataclass
class VariablePlan:
    """How one range variable's candidate set is produced."""

    variable: str
    class_name: str
    index_predicates: List[IndexablePredicate] = field(default_factory=list)
    method_predicates: List[MethodPredicate] = field(default_factory=list)
    filters: List[Expr] = field(default_factory=list)


@dataclass
class QueryPlan:
    """The complete executable plan."""

    query: Query
    variable_plans: Dict[str, VariablePlan]
    join_conjuncts: List[Expr]
    #: Position in ``join_conjuncts`` -> the conjunct as a hash-joinable method.
    method_joins: Dict[int, MethodPredicate] = field(default_factory=dict)
    #: Projected expression -> ``(variable, steps)`` of the column it compiles to.
    columns: Dict[Expr, Tuple[str, Steps]] = field(default_factory=dict)
    description: Dict[str, Any] = field(default_factory=dict)


class Optimizer:
    """Builds a :class:`QueryPlan` for a query against a database."""

    def __init__(self, db: "Database") -> None:
        self._db = db

    def plan(self, query: Query, bindings: Dict[str, Any]) -> QueryPlan:
        """Classify predicates and choose access paths."""
        vplans = {
            r.variable: VariablePlan(variable=r.variable, class_name=r.class_name)
            for r in query.ranges
        }
        join_conjuncts: List[Expr] = []
        method_joins: Dict[int, MethodPredicate] = {}

        for conjunct in query.conjuncts:
            used = conjunct.variables() & vplans.keys()
            if len(used) != 1:
                join = self._classify_join(conjunct, used, bindings)
                if join is not None:
                    method_joins[len(join_conjuncts)] = join
                join_conjuncts.append(conjunct)
                continue
            variable = next(iter(used))
            vplan = vplans[variable]
            classified = self._classify_single(conjunct, variable, vplan.class_name, bindings)
            if isinstance(classified, IndexablePredicate):
                vplan.index_predicates.append(classified)
            elif isinstance(classified, MethodPredicate):
                vplan.method_predicates.append(classified)
            else:
                vplan.filters.append(conjunct)

        columns = {}
        for expr in query.projected:
            root, steps = _method_steps(expr, bindings)
            if (
                root in vplans
                and steps
                and not any(method in _OUTSIDE for method, _args in steps)
                and self._db.schema.has_class(vplans[root].class_name)
                and compile_method(self._db, vplans[root].class_name, *steps[0])
            ):
                columns[expr] = (root, steps)
        compiled = sum(expr in columns for expr in query.projected)
        sent = sum(expr not in columns and expr.sends() for expr in query.projected)

        description = {
            "variables": {
                v: {
                    "class": p.class_name,
                    "index_predicates": [
                        f"{p.class_name}.{ip.attribute} {ip.op} {ip.constant!r}"
                        for ip in p.index_predicates
                    ],
                    "method_predicates": [
                        f"{_render_steps(mp.variable, mp.steps)} {mp.op} {mp.constant!r}"
                        for mp in p.method_predicates
                    ],
                    "residual_filters": len(p.filters),
                    "access_path": (
                        "index probe"
                        if p.index_predicates
                        else "compiled method"
                        if p.method_predicates
                        else "extent scan"
                    ),
                }
                for v, p in vplans.items()
            },
            "join_conjuncts": len(join_conjuncts),
            "join_strategies": [
                f"hash {_render_steps(join.variable, join.steps)} == {join.target}"
                if join is not None
                else "nested loop"
                for join in map(method_joins.get, range(len(join_conjuncts)))
            ],
            "projected": f"compiled:{compiled} sent:{sent}",
            "columns": [_render_steps(*column) for column in columns.values()],
        }
        return QueryPlan(query, vplans, join_conjuncts, method_joins, columns, description)

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
            index = self.find_index(class_name, attribute)
            if index is not None and (op in ("=", "==") or index.supports_range()):
                return IndexablePredicate(variable, attribute, op, const, conjunct)

        root, steps = _method_steps(left, bindings)
        if root == variable and steps:
            return MethodPredicate(variable, steps, op, const, conjunct)
        return None

    @staticmethod
    def _classify_join(
        conjunct: Expr, used: Set[str], bindings: Dict[str, Any]
    ) -> Optional[MethodPredicate]:
        """``v1 -> m(consts) == v2`` (either way round) over two range variables."""
        if not isinstance(conjunct, Comparison) or conjunct.op not in ("=", "=="):
            return None
        for call, other in ((conjunct.left, conjunct.right), (conjunct.right, conjunct.left)):
            source, steps = _method_steps(call, bindings)
            if len(steps) != 1 or steps[0][0] in _OUTSIDE:
                continue  # one store-read map is what a level can be looked up through
            if isinstance(other, Variable) and used == {source, other.name}:
                return MethodPredicate(source, steps, "==", None, conjunct, other.name)
        return None

    @staticmethod
    def _attribute_of(expr: Expr, variable: str) -> Optional[str]:
        """Extract the attribute name when ``expr`` is ``var.attr`` or
        ``var -> getAttributeValue('attr')``."""
        if isinstance(expr, AttributeAccess):
            attribute = expr.attribute
        elif (
            isinstance(expr, MethodCall)
            and expr.method == "getAttributeValue"
            and len(expr.args) == 1
            and isinstance(expr.args[0], Literal)
        ):
            attribute = str(expr.args[0].value)
        else:
            return None
        on_variable = isinstance(expr.target, Variable) and expr.target.name == variable
        return attribute if on_variable else None

    def find_index(self, class_name: str, attribute: str):
        """The index covering ``attribute`` for the class or an ancestor, if any."""
        ancestry = [c.name for c in self._db.schema.ancestry(class_name)]
        return self._db.indexes.covering(ancestry, attribute)
