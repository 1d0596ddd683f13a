"""Query evaluator.

Executes the optimizer's plan a set at a time, from candidates to rows.
Candidates of a variable are OIDs: the extent, cut by index probes and by
the maps compiled methods answer (:mod:`repro.oodb.query.optimizer`, item
4); an object is built only for an OID that reaches a per-object filter,
the join or the projection.  One tuple generator joins the variables in
order of candidate-set size among those a join conjunct connects to the
bound ones — a hash lookup per level where a join conjunct compiled, a
nested loop with predicate pushdown elsewhere — and feeds projection,
aggregation and ordering alike.

Every expression is lowered once per statement to a closure over the
environment (range variable -> object); a projected chain that compiled is
one column over the distinct objects the result tuples bind, and what a
compiler declined or left undecided is sent per object from the closure.

The evaluator also collects :class:`QueryStats` — candidate counts, tuples
examined, method invocations — which the benchmark harness uses to compare
evaluation strategies (Sections 4.5.3/4.5.4 of the paper).
"""

from __future__ import annotations

import functools
import operator
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple,
)

from repro import obs
from repro.errors import QueryEvaluationError
from repro.oodb.objects import DBObject
from repro.oodb.oid import OID
from repro.oodb.query.ast import (
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
    Variable,
)
from repro.oodb.query.optimizer import (
    MethodMap,
    MethodPredicate,
    Optimizer,
    QueryPlan,
    Steps,
    VariablePlan,
    compile_method,
)
from repro.oodb.query.parser import parse_query

if TYPE_CHECKING:  # pragma: no cover
    from repro.oodb.database import Database

_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
_ORDERING = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}

Env = Dict[str, DBObject]
#: An expression lowered to a closure over the environment.
Lowered = Callable[[Env], Any]


@dataclass
class QueryStats:
    """Counters filled in during one query execution."""

    tuples_examined: int = 0
    rows_produced: int = 0
    method_calls: int = 0
    index_probes: int = 0
    #: Compiled conjuncts answered wholesale from outside (``MethodMap.restricts``).
    restrictor_calls: int = 0
    #: Conjuncts evaluated through a compiled method.  Their candidates
    #: still count into ``method_calls``, one logical call each.
    probed_predicates: int = 0
    per_variable_candidates: Dict[str, int] = field(default_factory=dict)


@dataclass
class _Level:
    """One variable of the join: its candidates and what prunes them."""

    variable: str
    oids: List[OID]
    #: Hash strategy: the candidates joining the bound variables' objects.
    lookup: Optional[Callable[[Env], Iterable[OID]]] = None
    checks: List[Lowered] = field(default_factory=list)
    #: Nested strategy: every candidate's object, built at the first pass.
    objects: Optional[List[DBObject]] = None


def _receiver(value: Any, what: str) -> DBObject:
    """``value`` when it is an object; else the error ``what`` on it raises."""
    if not isinstance(value, DBObject):
        raise QueryEvaluationError(f"{what} on non-object {value!r}")
    return value


class QueryEvaluator:
    """Parses, plans and executes queries against one database."""

    def __init__(self, db: "Database") -> None:
        self._db = db
        self._optimizer = Optimizer(db)
        self.stats = QueryStats()

    # -- public API ----------------------------------------------------------

    def run(self, text: str, bindings: Optional[Dict[str, Any]] = None) -> List[tuple]:
        """Execute ``text`` and return the projected rows as tuples."""
        return self.run_with_stats(text, bindings)[0]

    def run_with_stats(
        self, text: str, bindings: Optional[Dict[str, Any]] = None
    ) -> Tuple[List[tuple], QueryStats]:
        """Execute and also return execution counters."""
        self.stats = QueryStats()
        bindings = bindings or {}
        started = time.perf_counter()
        with obs.tracer().span("oodb.query", query=obs.trim(text)) as span:
            query = parse_query(text)
            plan = self._optimizer.plan(query, bindings)
            # Writes the statement's methods cause (buffered IRS results,
            # derived values) are logged as one group: one commit a statement.
            with self._db.autocommit_group():
                rows = self._execute(plan, bindings)
            span.set_attribute("rows", len(rows))
            span.set_attribute("tuples_examined", self.stats.tuples_examined)
            span.set_attribute("method_calls", self.stats.method_calls)
        elapsed = time.perf_counter() - started
        registry = obs.metrics()
        registry.counter("oodb.query.executed").inc()
        registry.histogram("oodb.query.seconds").observe(elapsed)
        if obs.slow_log().record("vql", text, elapsed, rows=len(rows)):
            registry.counter("oodb.query.slow").inc()
        return rows, self.stats

    def explain(self, text: str, bindings: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """The optimizer's plan description for ``text`` (no execution)."""
        return self._optimizer.plan(parse_query(text), bindings or {}).description

    # -- plan execution ----------------------------------------------------------

    def _execute(self, plan: QueryPlan, bindings: Dict[str, Any]) -> List[tuple]:
        query = plan.query
        candidates: Dict[str, List[OID]] = {}
        for variable, vplan in plan.variable_plans.items():
            with obs.tracer().span("oodb.query.candidates", variable=variable) as span:
                span.set_attribute("class", vplan.class_name)
                oids = self._candidates(vplan, bindings, span)
                span.set_attribute("candidates", len(oids))
            candidates[variable] = oids
            self.stats.per_variable_candidates[variable] = len(oids)

        order = self._join_order(candidates, plan.join_conjuncts)
        with obs.tracer().span("oodb.query.join") as join_span:
            levels = self._join_levels(plan, candidates, order, bindings)
            join_span.set_attribute("strategy", " ".join(
                f"{lv.variable}:{'nested' if lv.lookup is None else 'hash'}" for lv in levels
            ))
            join_span.set_attribute("projected", plan.description["projected"])
            envs = list(self._tuples(levels))
            project = functools.partial(self._project, plan, envs, bindings)
            if query.is_aggregate:
                rows = self._aggregate_rows(query, envs, project)
            else:
                items = [project(item) for item in query.select]
                rows = [tuple(item(env) for item in items) for env in envs]
                if query.order_by is not None:
                    keyed = zip(map(project(query.order_by), envs), rows)
                    ordered = sorted(
                        keyed, key=lambda kv: (kv[0] is None, kv[0]), reverse=query.order_desc
                    )
                    rows = [row for _key, row in ordered]
            if query.limit is not None:
                rows = rows[: query.limit]
            join_span.set_attribute("rows", len(rows))
            join_span.set_attribute("tuples_examined", self.stats.tuples_examined)
        self.stats.rows_produced = len(rows)
        return rows

    @staticmethod
    def _join_order(
        candidates: Dict[str, List[OID]], join_conjuncts: List[Expr]
    ) -> List[str]:
        """Greedy join order: smallest candidate set among connected variables.

        The next variable is the one with the fewest candidates among those
        that share a join conjunct with an already bound variable, so that
        conjunct prunes as soon as it binds; binding an unconnected variable
        first multiplies the tuples below it with nothing to prune them.
        Without a connected variable (the first pick, or a cross product)
        the smallest set overall goes next; ties keep FROM-clause order.
        """
        links = [c.variables() & set(candidates) for c in join_conjuncts]
        remaining = list(candidates)
        bound: Set[str] = set()
        order: List[str] = []
        while remaining:
            connected = [
                v for v in remaining
                if any(v in link and link & bound for link in links)
            ]
            variable = min(connected or remaining, key=lambda v: len(candidates[v]))
            remaining.remove(variable)
            bound.add(variable)
            order.append(variable)
        return order

    def _join_levels(
        self,
        plan: QueryPlan,
        candidates: Dict[str, List[OID]],
        order: List[str],
        bindings: Dict[str, Any],
    ) -> List[_Level]:
        """One level per variable in join order, each conjunct pushed down to
        the level that binds the last of its variables.

        A conjunct whose method compiled (``v1 -> m(...) == v2``) is one map
        over ``v1``'s candidates: the level's candidates are looked up through
        it from the variable already bound.  Any other conjunct, a second
        joinable one of the level included, is evaluated per tuple.
        """
        pending = {i: c.variables() & set(order) for i, c in enumerate(plan.join_conjuncts)}
        levels: List[_Level] = []
        for variable in order:
            level = _Level(variable, candidates[variable])
            levels.append(level)
            bound = {lv.variable for lv in levels}
            for i in [i for i, needed in pending.items() if needed <= bound]:
                del pending[i]
                conjunct = plan.join_conjuncts[i]
                join = plan.method_joins.get(i) if level.lookup is None else None
                forward = join and self._join_map(plan, join, candidates)
                if forward is None:
                    level.checks.append(self._lower(conjunct, bindings))
                elif variable == join.target:
                    members = set(level.oids)
                    level.lookup = lambda env, f=forward, s=join.variable, m=members: (
                        (f[env[s].oid],) if f.get(env[s].oid) in m else ()
                    )
                else:
                    inverse: Dict[OID, List[OID]] = {}
                    for oid in level.oids:
                        inverse.setdefault(forward.get(oid), []).append(oid)
                    level.lookup = lambda env, inv=inverse, t=join.target: inv.get(env[t].oid, ())
        return levels

    def _join_map(
        self, plan: QueryPlan, join: MethodPredicate, candidates: Dict[str, List[OID]]
    ) -> Optional[Dict[OID, OID]]:
        """``source candidate -> OID of the object its method returns``, or None
        unless the column decides every candidate — an undecided one, or one
        whose method names an object that does not exist, goes to the nested
        loop, which sends the method and lets the object report it."""
        sources = set(candidates[join.variable])
        class_name = plan.variable_plans[join.variable].class_name
        targets = self._column(class_name, join.steps, sources)
        if len(targets) < len(sources) or not all(
            target is None or isinstance(target, DBObject) for target in targets.values()
        ):
            return None
        self.stats.probed_predicates += 1
        self.stats.method_calls += len(sources)
        return {oid: target.oid for oid, target in targets.items() if target is not None}

    def _tuples(self, levels: List[_Level]) -> Iterator[Env]:
        """Every binding of all variables that passes the join conjuncts.

        Outer to inner in level order, each variable in candidate (extent)
        order; each yielded environment is a dictionary of its own.
        """
        env: Env = {}
        stats, fetch = self.stats, self._db.get_object

        def bind(depth: int) -> Iterator[Env]:
            if depth == len(levels):
                yield dict(env)
                return
            level = levels[depth]
            if level.lookup is None and level.objects is None:
                level.objects = [fetch(oid) for oid in level.oids]
            for obj in level.objects if level.lookup is None else map(fetch, level.lookup(env)):
                env[level.variable] = obj
                stats.tuples_examined += 1
                if all(check(env) for check in level.checks):
                    yield from bind(depth + 1)
            env.pop(level.variable, None)

        return bind(0)

    def _aggregate_rows(
        self, query: Query, envs: List[Env], project: Callable[[Expr], Lowered]
    ) -> List[tuple]:
        """Grouped aggregation: one output row per GROUP BY key, first seen first.

        Per group and select item the values the tuples contributed: every
        non-NULL argument of an aggregate (a 1 per tuple for ``COUNT(*)``),
        only the latest value of a plain expression.
        """
        keys = [project(expr) for expr in query.group_by]
        # What each select item contributes per tuple: its first projected expressions.
        columns = [project(expr) for expr in query.projected[: len(query.select)]]
        groups: Dict[tuple, List[list]] = {}
        for env in envs:
            group = groups.setdefault(tuple(key(env) for key in keys), [[] for _ in columns])
            for item, column, values in zip(query.select, columns, group):
                value = column(env)
                if not isinstance(item, Aggregate):
                    values[:] = [value]
                elif value is not None:  # NULLs are ignored by aggregates, SQL-style
                    values.append(value)
        return [
            tuple(self._finalize(item, values) for item, values in zip(query.select, group))
            for group in groups.values()
        ]

    @staticmethod
    def _finalize(item: Expr, values: list) -> Any:
        if not isinstance(item, Aggregate):
            return values[0]
        if item.function == "COUNT":
            return len(values)
        if not values:
            return None
        if item.function in ("MIN", "MAX"):
            return min(values) if item.function == "MIN" else max(values)
        total = sum(
            (v for v in values if isinstance(v, (int, float)) and not isinstance(v, bool)), 0.0
        )
        return total if item.function == "SUM" else total / len(values)

    # -- candidate production ----------------------------------------------------

    def _candidates(self, vplan: VariablePlan, bindings: Dict[str, Any], span: Any) -> List[OID]:
        """The variable's candidates as OIDs in extent order.

        Set operations as far as they go — index probes, then the decided
        part of every compiled method conjunct that reads the store (plain
        comparisons before paths, which cost two maps).  Objects are built
        only for the OIDs left, for the residual filters.  A map that reads
        an *outside* source (the IRS result: fetched, buffered, a pending
        propagation forced) is asked for only then, so a statement whose
        other conjuncts leave no candidate never reaches the IRS; last of
        all come the conjuncts a map left *undecided* — what only the object
        can answer, and may be dear: a derived IRS value.
        """
        db, class_name, variable = self._db, vplan.class_name, vplan.variable
        alive = db.extent_oids(class_name)
        # Conjuncts left to the objects, each with the candidates it is meant for.
        residual: List[Tuple[Optional[Set[OID]], Expr]] = [(None, f) for f in vplan.filters]
        for ip in vplan.index_predicates:
            index = self._optimizer.find_index(class_name, ip.attribute)
            if index is None:  # dropped between planning and execution
                found = None
            elif ip.op in ("=", "=="):
                found = index.lookup(ip.constant)
            else:
                found = index.range(ip.op, ip.constant)
            if found is None:  # or declined: the filter decides, as without an index
                residual.append((None, ip.source))
                continue
            self.stats.index_probes += 1
            alive &= found

        env: Env = {}

        def survivors(oids: Set[OID], checks: List[Tuple[Optional[Set[OID]], Expr]]) -> List[OID]:
            """``oids`` in extent order, less those whose object fails a check meant for it."""
            tests = [(only, self._lower(conjunct, bindings)) for only, conjunct in checks]

            def passes(oid: OID) -> bool:
                env[variable] = db.get_object(oid)
                return all(test(env) for only, test in tests if only is None or oid in only)

            return [oid for oid in db.in_extent_order(class_name, oids) if not tests or passes(oid)]

        deferred: List[Tuple[Optional[Set[OID]], Expr]] = []  # by the maps, for the undecided
        compiled = decided = 0
        for mp in sorted(vplan.method_predicates, key=lambda mp: (mp.outside, len(mp.steps))):
            if mp.outside and residual and alive:
                alive = set(survivors(alive, residual))
                residual = []
            if not alive:
                break  # no candidate left: nothing more is asked
            outcome = self._decide(class_name, mp.steps, alive, mp.op, mp.constant)
            if outcome is None:  # declined: the method is sent per object
                residual.append((None, mp.source))
                continue
            passing, undecided, restricts = outcome
            compiled += 1
            decided += len(alive) - len(undecided)
            if restricts:
                self.stats.restrictor_calls += 1
            else:  # one logical call per step and candidate
                self.stats.method_calls += len(mp.steps) * len(alive) - len(undecided)
            alive = passing | undecided
            if undecided:
                deferred.append((undecided, mp.source))
        self.stats.probed_predicates += compiled
        span.set_attribute("compiled", compiled)
        span.set_attribute("decided", decided)
        span.set_attribute("undecided", sum(len(only) for only, _source in deferred))
        return survivors(alive, residual + deferred)

    def _decide(
        self, class_name: str, steps: Steps, oids: Set[OID], op: str, constant: Any
    ) -> Optional[Tuple[Set[OID], Set[OID], bool]]:
        """``x -> m1(...) ... -> mn(...) OP constant`` over ``oids``: those that
        pass, those left undecided and whether the map restricts; None when
        not compiled.

        The leading steps of a path are a column (:meth:`_column`); the last
        step is decided once per distinct object they return — all of one
        class, or the path is left to the objects — and is the one told what
        its values are compared with.
        """
        *path, (method, args) = steps
        if path:
            receivers = self._column(class_name, tuple(path), oids)
            classes = {getattr(receiver, "class_name", None) for receiver in receivers.values()}
            if len(receivers) < len(oids) or len(classes) != 1 or None in classes:
                return None  # per object: the evaluator reports a call on a non-object
            class_name = classes.pop()
            targets = {oid: receiver.oid for oid, receiver in receivers.items()}
            oids = set(targets.values())
        compiled = compile_method(self._db, class_name, method, args)
        if compiled is None:
            return None
        answer = compiled(oids, (op, constant))
        undecided = oids.intersection(answer.undecided)
        values, default, decided = answer.values, answer.default, oids - undecided
        if not _compare(op, default, constant):
            # Only a listed value can pass.  Two differences instead of an
            # intersection: against a dict they reuse the set's stored hashes.
            decided = decided - decided.difference(values)
        if answer.refs:  # compared as the objects ``send`` returns
            values = {
                o: self._db.get_object(values[o]) for o in decided if values.get(o) is not None
            }
        passing = {oid for oid in decided if _compare(op, values.get(oid, default), constant)}
        if not path:
            return passing, undecided, answer.restricts
        if answer.restricts:
            return None
        return (
            {oid for oid, target in targets.items() if target in passing},
            {oid for oid, target in targets.items() if target in undecided},
            False,
        )

    # -- projection ----------------------------------------------------------------

    def _project(
        self, plan: QueryPlan, envs: List[Env], bindings: Dict[str, Any], expr: Expr
    ) -> Lowered:
        """``expr`` as evaluated per result tuple.  A compiled column is read
        once over the distinct objects ``envs`` bind; a tuple whose object it
        left open gets the lowered closure, which sends the methods."""
        lowered = self._lower(expr, bindings)
        if expr not in plan.columns:
            return lowered
        variable, steps = plan.columns[expr]
        oids = {env[variable].oid for env in envs}
        values = self._column(plan.variable_plans[variable].class_name, steps, oids) if oids else {}
        # One logical call per step and tuple; the closure counts its own.
        self.stats.method_calls += len(steps) * sum(env[variable].oid in values for env in envs)
        return lambda env: (
            values[env[variable].oid] if env[variable].oid in values else lowered(env)
        )

    def _column(self, class_name: str, steps: Steps, oids: Set[OID]) -> Dict[OID, Any]:
        """What sending the chain ``steps`` returns, for those of ``oids`` the
        compiled maps decide: one map per step, a later step over the
        distinct objects the earlier one returned, grouped by class.  An OID
        whose chain meets an undecided candidate, a declining compiler, a
        non-object receiver or an object that does not exist is left out."""
        (method, args), rest = steps[0], steps[1:]
        compiled = compile_method(self._db, class_name, method, args)
        answer = compiled(oids, None) if compiled else MethodMap({}, oids)
        decided = oids.difference(answer.undecided)
        values = {oid: answer.values.get(oid, answer.default) for oid in decided}
        if not answer.refs:
            return {} if rest else values
        exists, get_object = self._db.object_exists, self._db.get_object
        found = {t: get_object(t) for t in set(values.values()) - {None} if exists(t)}
        if rest:
            by_class: Dict[str, Set[OID]] = defaultdict(set)
            for obj in found.values():
                by_class[obj.class_name].add(obj.oid)
            found = {}
            for name, targets in by_class.items():
                found.update(self._column(name, rest, targets))
        else:
            found[None] = None
        return {oid: found[target] for oid, target in values.items() if target in found}

    # -- lowering --------------------------------------------------------------------

    def _lower(self, expr: Expr, bindings: Dict[str, Any]) -> Lowered:
        """``expr`` as a closure over the environment, built once per statement.

        Methods are sent per object, one logical call each; a name that is
        neither a range variable nor bound raises only when a tuple reaches it.
        """
        lower = functools.partial(self._lower, bindings=bindings)
        if isinstance(expr, Literal):
            value = expr.value
            return lambda env: value
        if isinstance(expr, (Parameter, Variable)):
            name, bound, value = expr.name, expr.name in bindings, bindings.get(expr.name)
            if isinstance(expr, Parameter):
                message = f"unbound parameter ${name}"
                return lambda env: value if bound else _fail(message)
            message = f"unknown name {name!r}: not a range variable and not bound"
            # A range variable comes first.
            return lambda env: env[name] if name in env else value if bound else _fail(message)
        if isinstance(expr, AttributeAccess):
            target, attribute = lower(expr.target), expr.attribute
            what = f"attribute access .{attribute}"
            return lambda env: _receiver(target(env), what).get(attribute)
        if isinstance(expr, MethodCall):
            target, args, method = lower(expr.target), list(map(lower, expr.args)), expr.method
            what, stats = f"method call ->{method}", self.stats

            def call(env: Env) -> Any:
                receiver, values = _receiver(target(env), what), [arg(env) for arg in args]
                stats.method_calls += 1
                return receiver.send(method, *values)

            return call
        if isinstance(expr, (Comparison, Arithmetic)):
            op, left, right = expr.op, lower(expr.left), lower(expr.right)
            apply = _compare if isinstance(expr, Comparison) else _compute
            return lambda env: apply(op, left(env), right(env))
        if isinstance(expr, BooleanOp):
            operands, combine = list(map(lower, expr.operands)), all if expr.op == "AND" else any
            return lambda env: combine(operand(env) for operand in operands)
        if isinstance(expr, NotOp):
            operand = lower(expr.operand)
            return lambda env: not operand(env)
        raise QueryEvaluationError(f"cannot evaluate expression {expr!r}")


def _fail(message: str) -> Any:
    raise QueryEvaluationError(message)


def _compute(op: str, left: Any, right: Any) -> Any:
    try:
        return _ARITHMETIC[op](left, right)
    except TypeError as exc:
        raise QueryEvaluationError(f"cannot compute {left!r} {op} {right!r}") from exc
    except ZeroDivisionError as exc:
        raise QueryEvaluationError("division by zero in query") from exc


def _compare(op: str, left: Any, right: Any) -> bool:
    if op in ("=", "=="):
        return left == right
    if op in ("!=", "<>"):
        return left != right
    if left is None or right is None:
        return False  # SQL-style: ordering against NULL is never true
    try:
        return _ORDERING[op](left, right)
    except TypeError as exc:
        raise QueryEvaluationError(f"cannot compare {left!r} {op} {right!r}") from exc
