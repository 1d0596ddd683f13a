"""Query evaluator.

Executes the optimizer's plan: per-variable candidate production (extent
scan, index probe, or semantic restrictor; residual single-variable
conjuncts per candidate, through a batch-method probe where one is
registered), a nested-loop join ordered by candidate-set size among the
variables a join conjunct connects to those already bound, with predicate
pushdown, projection, ordering and limiting.

The evaluator also collects :class:`QueryStats` — candidate counts, tuples
examined, method invocations — which the benchmark harness uses to compare
evaluation strategies (Sections 4.5.3/4.5.4 of the paper).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Set, Tuple

from repro import obs
from repro.errors import QueryEvaluationError
from repro.oodb.objects import DBObject
from repro.oodb.oid import OID
from repro.oodb.query.ast import (
    Arithmetic,
    AttributeAccess,
    BooleanOp,
    Comparison,
    Expr,
    Literal,
    MethodCall,
    NotOp,
    Parameter,
    Variable,
)
from repro.oodb.query.optimizer import (
    Optimizer,
    QueryPlan,
    RestrictablePredicate,
    VariablePlan,
    batch_method_for,
    restrictor_for,
)
from repro.oodb.query.parser import parse_query

if TYPE_CHECKING:  # pragma: no cover
    from repro.oodb.database import Database


@dataclass
class QueryStats:
    """Counters filled in during one query execution."""

    candidates_scanned: int = 0
    tuples_examined: int = 0
    rows_produced: int = 0
    method_calls: int = 0
    index_probes: int = 0
    restrictor_calls: int = 0
    #: Conjuncts evaluated through a batch-method probe.  Their candidates
    #: still count into ``method_calls``, one logical call each.
    probed_predicates: int = 0
    per_variable_candidates: Dict[str, int] = field(default_factory=dict)


class QueryEvaluator:
    """Parses, plans and executes queries against one database."""

    def __init__(self, db: "Database") -> None:
        self._db = db
        self._optimizer = Optimizer(db)
        self.stats = QueryStats()

    # -- public API ----------------------------------------------------------

    def run(self, text: str, bindings: Optional[Dict[str, Any]] = None) -> List[tuple]:
        """Execute ``text`` and return the projected rows as tuples."""
        rows, _stats = self.run_with_stats(text, bindings)
        return rows

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
        query = parse_query(text)
        plan = self._optimizer.plan(query, bindings or {})
        return plan.description

    # -- plan execution ----------------------------------------------------------

    def _execute(self, plan: QueryPlan, bindings: Dict[str, Any]) -> List[tuple]:
        query = plan.query
        candidates: Dict[str, List[DBObject]] = {}
        for variable, vplan in plan.variable_plans.items():
            with obs.tracer().span("oodb.query.candidates", variable=variable) as span:
                span.set_attribute("class", vplan.class_name)
                objs = self._candidates(vplan, bindings)
                span.set_attribute("candidates", len(objs))
            candidates[variable] = objs
            self.stats.per_variable_candidates[variable] = len(objs)
            self.stats.candidates_scanned += len(objs)

        order = self._join_order(candidates, plan.join_conjuncts)

        # Pushdown points: a join conjunct runs as soon as its variables bind.
        pending = list(plan.join_conjuncts)
        pushdown: Dict[int, List[Expr]] = {i: [] for i in range(len(order))}
        bound_sets = []
        bound: Set[str] = set()
        for i, variable in enumerate(order):
            bound = bound | {variable}
            bound_sets.append(set(bound))
        range_vars = set(candidates)
        for conjunct in pending:
            needed = conjunct.variables() & range_vars
            for i, bound_now in enumerate(bound_sets):
                if needed <= bound_now:
                    pushdown[i].append(conjunct)
                    break
            else:
                raise QueryEvaluationError(
                    f"conjunct references unknown variables: {sorted(needed)}"
                )

        with obs.tracer().span("oodb.query.join") as join_span:
            if query.is_aggregate:
                rows = self._aggregate_rows(plan, candidates, order, pushdown, bindings)
            elif query.order_by is not None:
                rows = self._ordered_rows(plan, candidates, order, pushdown, bindings)
            else:
                rows = []
                env: Dict[str, DBObject] = {}

                def bind(level: int) -> None:
                    if level == len(order):
                        row = tuple(self._eval(expr, env, bindings) for expr in query.select)
                        rows.append(row)
                        return
                    variable = order[level]
                    for obj in candidates[variable]:
                        env[variable] = obj
                        self.stats.tuples_examined += 1
                        if all(
                            self._truthy(self._eval(c, env, bindings))
                            for c in pushdown[level]
                        ):
                            bind(level + 1)
                    env.pop(variable, None)

                bind(0)
            if query.limit is not None:
                rows = rows[: query.limit]
            join_span.set_attribute("rows", len(rows))
        self.stats.rows_produced = len(rows)
        return rows

    @staticmethod
    def _join_order(
        candidates: Dict[str, List[DBObject]], join_conjuncts: List[Expr]
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

    def _aggregate_rows(
        self,
        plan: QueryPlan,
        candidates: Dict[str, List[DBObject]],
        order: List[str],
        pushdown: Dict[int, List[Expr]],
        bindings: Dict[str, Any],
    ) -> List[tuple]:
        """Grouped aggregation: one output row per GROUP BY key."""
        query = plan.query
        groups: Dict[tuple, list] = {}
        group_order: List[tuple] = []
        env: Dict[str, DBObject] = {}

        def bind(level: int) -> None:
            if level == len(order):
                key = tuple(
                    self._eval(expr, env, bindings) for expr in query.group_by
                )
                state = groups.get(key)
                if state is None:
                    state = [self._new_accumulator(item) for item in query.select]
                    groups[key] = state
                    group_order.append(key)
                for item, accumulator in zip(query.select, state):
                    self._accumulate(item, accumulator, env, bindings)
                return
            variable = order[level]
            for obj in candidates[variable]:
                env[variable] = obj
                self.stats.tuples_examined += 1
                if all(
                    self._truthy(self._eval(c, env, bindings)) for c in pushdown[level]
                ):
                    bind(level + 1)
            env.pop(variable, None)

        bind(0)
        return [
            tuple(self._finalize(item, acc) for item, acc in zip(query.select, groups[key]))
            for key in group_order
        ]

    @staticmethod
    def _new_accumulator(item: Expr) -> dict:
        return {"count": 0, "sum": 0.0, "min": None, "max": None, "last": None}

    def _accumulate(
        self, item: Expr, accumulator: dict, env: Dict[str, DBObject], bindings: Dict[str, Any]
    ) -> None:
        from repro.oodb.query.ast import Aggregate

        if not isinstance(item, Aggregate):
            accumulator["last"] = self._eval(item, env, bindings)
            return
        if item.argument is None:  # COUNT(*)
            accumulator["count"] += 1
            return
        value = self._eval(item.argument, env, bindings)
        if value is None:
            return  # NULLs are ignored by aggregates, SQL-style
        accumulator["count"] += 1
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            accumulator["sum"] += value
        if accumulator["min"] is None or value < accumulator["min"]:
            accumulator["min"] = value
        if accumulator["max"] is None or value > accumulator["max"]:
            accumulator["max"] = value

    @staticmethod
    def _finalize(item: Expr, accumulator: dict) -> Any:
        from repro.oodb.query.ast import Aggregate

        if not isinstance(item, Aggregate):
            return accumulator["last"]
        if item.function == "COUNT":
            return accumulator["count"]
        if item.function == "SUM":
            return accumulator["sum"] if accumulator["count"] else None
        if item.function == "AVG":
            return (
                accumulator["sum"] / accumulator["count"] if accumulator["count"] else None
            )
        if item.function == "MIN":
            return accumulator["min"]
        if item.function == "MAX":
            return accumulator["max"]
        raise QueryEvaluationError(f"unknown aggregate {item.function}")  # pragma: no cover

    def _ordered_rows(
        self,
        plan: QueryPlan,
        candidates: Dict[str, List[DBObject]],
        order: List[str],
        pushdown: Dict[int, List[Expr]],
        bindings: Dict[str, Any],
    ) -> List[tuple]:
        """Re-run the join keeping (sort key, row) pairs, then sort."""
        query = plan.query
        keyed: List[Tuple[Any, tuple]] = []
        env: Dict[str, DBObject] = {}

        def bind(level: int) -> None:
            if level == len(order):
                key = self._eval(query.order_by, env, bindings)
                row = tuple(self._eval(expr, env, bindings) for expr in query.select)
                keyed.append((key, row))
                return
            variable = order[level]
            for obj in candidates[variable]:
                env[variable] = obj
                if all(
                    self._truthy(self._eval(c, env, bindings)) for c in pushdown[level]
                ):
                    bind(level + 1)
            env.pop(variable, None)

        bind(0)
        keyed.sort(key=lambda kv: (kv[0] is None, kv[0]), reverse=query.order_desc)
        return [row for _key, row in keyed]

    # -- candidate production ----------------------------------------------------

    def _candidates(self, vplan: VariablePlan, bindings: Dict[str, Any]) -> List[DBObject]:
        restriction: Optional[Set[OID]] = None

        for ip in vplan.index_predicates:
            index = self._find_index(vplan.class_name, ip.attribute)
            if index is None:  # index dropped between planning and execution
                vplan.filters.append(ip.source)
                continue
            self.stats.index_probes += 1
            if ip.op in ("=", "=="):
                oids = index.lookup(ip.constant)
            elif ip.op == ">":
                oids = index.range(low=ip.constant, include_low=False)
            elif ip.op == ">=":
                oids = index.range(low=ip.constant)
            elif ip.op == "<":
                oids = index.range(high=ip.constant, include_high=False)
            elif ip.op == "<=":
                oids = index.range(high=ip.constant)
            else:  # pragma: no cover - classifier excludes != already
                continue
            restriction = oids if restriction is None else restriction & oids

        checks = [self._filter_check(vplan.variable, f, bindings) for f in vplan.filters]
        for rp in vplan.restrictor_predicates:
            restrictor = restrictor_for(rp.method)
            result = None
            if restrictor is not None:
                self.stats.restrictor_calls += 1
                result = restrictor(self._db, rp.args, rp.op, rp.constant)
            if result is None:
                checks.append(self._probe_check(vplan, rp, bindings))
            else:
                restriction = result if restriction is None else restriction & result

        if restriction is None:
            objs = self._db.instances_of(vplan.class_name)
        else:
            extent = self._db.extent_oids(vplan.class_name)
            objs = [self._db.get_object(oid) for oid in sorted(restriction & extent)]

        if checks:
            objs = [obj for obj in objs if all(check(obj) for check in checks)]
        return objs

    def _filter_check(
        self, variable: str, conjunct: Expr, bindings: Dict[str, Any]
    ) -> Callable[[DBObject], bool]:
        """A single-variable conjunct as a per-candidate test."""
        env: Dict[str, DBObject] = {}

        def check(obj: DBObject) -> bool:
            env[variable] = obj
            return self._truthy(self._eval(conjunct, env, bindings))

        return check

    def _probe_check(
        self, vplan: VariablePlan, rp: RestrictablePredicate, bindings: Dict[str, Any]
    ) -> Callable[[DBObject], bool]:
        """A declined restrictor predicate as a per-candidate test.

        Through the method's batch probe when one is registered and accepts
        the range; per-object dispatch of the original conjunct otherwise.
        """
        factory = batch_method_for(rp.method)
        probe = None
        if factory is not None:
            probe = factory(self._db, vplan.class_name, rp.args)
        if probe is None:
            return self._filter_check(vplan.variable, rp.source, bindings)
        self.stats.probed_predicates += 1
        stats, compare, op, constant = self.stats, self._compare, rp.op, rp.constant

        def check(obj: DBObject) -> bool:
            stats.method_calls += 1
            return compare(op, probe(obj), constant)

        return check

    def _find_index(self, class_name: str, attribute: str):
        ancestry = [c.name for c in self._db.schema.ancestry(class_name)]
        return self._db.indexes.covering(ancestry, attribute)

    # -- expression evaluation ------------------------------------------------------

    def _eval(self, expr: Expr, env: Dict[str, DBObject], bindings: Dict[str, Any]) -> Any:
        if isinstance(expr, Literal):
            return expr.value
        if isinstance(expr, Parameter):
            if expr.name not in bindings:
                raise QueryEvaluationError(f"unbound parameter ${expr.name}")
            return bindings[expr.name]
        if isinstance(expr, Variable):
            if expr.name in env:
                return env[expr.name]
            if expr.name in bindings:
                return bindings[expr.name]
            raise QueryEvaluationError(
                f"unknown name {expr.name!r}: not a range variable and not bound"
            )
        if isinstance(expr, AttributeAccess):
            target = self._eval(expr.target, env, bindings)
            if not isinstance(target, DBObject):
                raise QueryEvaluationError(
                    f"attribute access .{expr.attribute} on non-object {target!r}"
                )
            return target.get(expr.attribute)
        if isinstance(expr, MethodCall):
            target = self._eval(expr.target, env, bindings)
            if not isinstance(target, DBObject):
                raise QueryEvaluationError(
                    f"method call ->{expr.method} on non-object {target!r}"
                )
            args = [self._eval(a, env, bindings) for a in expr.args]
            self.stats.method_calls += 1
            return target.send(expr.method, *args)
        if isinstance(expr, Comparison):
            return self._compare(
                expr.op,
                self._eval(expr.left, env, bindings),
                self._eval(expr.right, env, bindings),
            )
        if isinstance(expr, Arithmetic):
            left = self._eval(expr.left, env, bindings)
            right = self._eval(expr.right, env, bindings)
            try:
                if expr.op == "+":
                    return left + right
                if expr.op == "-":
                    return left - right
                if expr.op == "*":
                    return left * right
                if expr.op == "/":
                    return left / right
            except TypeError as exc:
                raise QueryEvaluationError(
                    f"cannot compute {left!r} {expr.op} {right!r}"
                ) from exc
            except ZeroDivisionError as exc:
                raise QueryEvaluationError("division by zero in query") from exc
        if isinstance(expr, BooleanOp):
            if expr.op == "AND":
                return all(
                    self._truthy(self._eval(e, env, bindings)) for e in expr.operands
                )
            return any(self._truthy(self._eval(e, env, bindings)) for e in expr.operands)
        if isinstance(expr, NotOp):
            return not self._truthy(self._eval(expr.operand, env, bindings))
        raise QueryEvaluationError(f"cannot evaluate expression {expr!r}")  # pragma: no cover

    @staticmethod
    def _compare(op: str, left: Any, right: Any) -> bool:
        if op in ("=", "=="):
            return left == right
        if op in ("!=", "<>"):
            return left != right
        if left is None or right is None:
            return False  # SQL-style: ordering against NULL is never true
        try:
            if op == "<":
                return left < right
            if op == "<=":
                return left <= right
            if op == ">":
                return left > right
            if op == ">=":
                return left >= right
        except TypeError as exc:
            raise QueryEvaluationError(
                f"cannot compare {left!r} {op} {right!r}"
            ) from exc
        raise QueryEvaluationError(f"unknown comparison operator {op!r}")  # pragma: no cover

    @staticmethod
    def _truthy(value: Any) -> bool:
        return bool(value)
