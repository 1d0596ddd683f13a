"""``explain()``: run a mixed query under a tracer, render a stage tree.

The facade over the whole observability layer: it executes a VQL query with
a dedicated collecting tracer temporarily installed as the global one, so
every instrumented layer the query touches — OODB candidate production and
join, the coupling's ``findIRSValue``/``getIRSResult``/``deriveIRSValue``,
IRS scoring — contributes spans to one tree.  The result renders as a
per-stage timing/cardinality tree::

    oodb.query  1.19ms  rows=1 tuples_examined=4 method_calls=66
    ├─ oodb.query.candidates  0.08ms  variable=d class=MMFDOC compiled=1 decided=8 undecided=0 candidates=2
    ├─ oodb.query.candidates  0.13ms  variable=p1 class=PARA compiled=1 decided=24 undecided=0 candidates=5
    │  └─ coupling.findIRSValue  0.04ms  query=www mode=probe
    │     └─ coupling.getIRSResult  0.03ms  query=www buffered=True results=5
    ├─ oodb.query.candidates  0.38ms  variable=p2 class=PARA compiled=1 decided=24 undecided=0 candidates=5
    │  └─ coupling.findIRSValue  0.29ms  query=nii mode=probe
    │     └─ coupling.getIRSResult  0.28ms  query=nii buffered=False results=5
    │        └─ irs.query  0.13ms  model=inquery results=5
    └─ oodb.query.join  0.20ms  strategy=d:nested p1:hash p2:hash projected=compiled:1 sent:0 rows=1 tuples_examined=4

A candidates span says how many of the variable's conjuncts ran through a
compiled method (``compiled``) and how many candidates those maps answered
(``decided``) or left to the objects (``undecided``).  A ``getIRSValue``
conjunct compiles to one ``coupling.findIRSValue mode=probe`` span around
the statement's single ``getIRSResult``; only undecided candidates — not
represented in the collection, not rejected by another conjunct — add
``coupling.findIRSValue source=derived`` spans (Figure 3's path).  The join
span names each level's strategy in join order (``hash``: looked up through
a compiled ``v1 -> m(...) == v2`` map; ``nested``: enumerated) and how many
of the expressions evaluated per result tuple (select items, aggregate
arguments, ORDER BY / GROUP BY keys) were read as compiled columns and how
many send a method per row (``projected``); the plan part of the report
names the columns.
docs/observability.md lists the counter meanings.

``explain`` works even when global instrumentation is disabled — asking
for an explanation *is* opting in.

Note that the query is really executed (timings are measurements, not
estimates), so side effects — result buffering, update propagation forced
by pending operations — happen exactly as they would for a plain query.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.obs import runtime
from repro.obs.tracing import Span, Tracer

#: Sibling spans with the same name beyond this count render as one
#: aggregate line (keeps trees over many candidate objects readable).
MAX_SIBLINGS_PER_NAME = 3


@dataclass
class ExplainResult:
    """Everything ``explain`` learned about one query execution."""

    query: str
    rows: List[tuple]
    stats: Any                      # repro.oodb.query.evaluator.QueryStats
    root: Optional[Span]
    plan: Dict[str, Any] = field(default_factory=dict)

    def stage_names(self) -> Set[str]:
        """Names of every span in the trace (the stages the query touched)."""
        if self.root is None:
            return set()
        return {span.name for span in self.root.iter_spans()}

    def render_tree(self, max_siblings: int = MAX_SIBLINGS_PER_NAME) -> str:
        if self.root is None:
            return "(no trace recorded)"
        return render_span_tree(self.root, max_siblings=max_siblings)

    def render(self, max_siblings: int = MAX_SIBLINGS_PER_NAME) -> str:
        """Plan summary + execution counters + stage tree, as one report."""
        lines = [f"query: {self.query.strip()}"]
        for variable, info in (self.plan.get("variables") or {}).items():
            lines.append(
                f"  {variable} IN {info.get('class')}: {info.get('access_path')} "
                f"index={info.get('index_predicates') or '-'} "
                f"methods={info.get('method_predicates') or '-'} "
                f"filters={info.get('residual_filters')}"
            )
        lines.append(f"  join: {self.plan.get('join_strategies') or '-'}")
        lines.append(
            f"  projected: {self.plan.get('projected')} columns={self.plan.get('columns') or '-'}"
        )
        stats = self.stats
        lines.append(
            f"rows={len(self.rows)} tuples_examined={stats.tuples_examined} "
            f"method_calls={stats.method_calls} index_probes={stats.index_probes} "
            f"restrictor_calls={stats.restrictor_calls} "
            f"probed_predicates={stats.probed_predicates}"
        )
        lines.append(self.render_tree(max_siblings=max_siblings))
        return "\n".join(lines)


def explain(
    db: Any,
    text: str,
    bindings: Optional[Dict[str, Any]] = None,
    tracer: Optional[Tracer] = None,
) -> ExplainResult:
    """Execute ``text`` under a collecting tracer and explain where time went.

    ``db`` is a :class:`repro.oodb.database.Database`; ``bindings`` are the
    usual query parameter bindings.  Pass an explicit ``tracer`` to also
    export the trace (e.g. through a :class:`JsonlSpanExporter`) or to
    accumulate several explained queries in one ring.
    """
    from repro.oodb.query.evaluator import QueryEvaluator

    collecting = tracer if tracer is not None else Tracer(ring_size=8)
    evaluator = QueryEvaluator(db)
    plan = evaluator.explain(text, bindings or {})
    previous = runtime.swap_tracer(collecting)
    try:
        rows, stats = evaluator.run_with_stats(text, bindings or {})
    finally:
        runtime.swap_tracer(previous)
    return ExplainResult(text, rows, stats, collecting.last_trace(), plan)


# --------------------------------------------------------------------------
# Rendering
# --------------------------------------------------------------------------

def _format_span(span: Span) -> str:
    parts = [span.name, f"{span.duration * 1000:.2f}ms"]
    attrs = " ".join(f"{key}={value}" for key, value in span.attributes.items())
    if attrs:
        parts.append(attrs)
    return "  ".join(parts)


def _grouped_children(
    span: Span, max_siblings: int
) -> List[Tuple[str, Any]]:
    """Children as ("span", Span) entries plus ("summary", ...) aggregates.

    Siblings sharing a name beyond ``max_siblings`` collapse to the slowest
    representative plus one aggregate line — per-object stages (one
    ``findIRSValue`` per candidate) stay readable.
    """
    by_name: Dict[str, List[Span]] = {}
    name_order: List[str] = []
    for child in span.children:
        if child.name not in by_name:
            by_name[child.name] = []
            name_order.append(child.name)
        by_name[child.name].append(child)
    entries: List[Tuple[str, Any]] = []
    for name in name_order:
        members = by_name[name]
        if len(members) <= max_siblings:
            entries.extend(("span", member) for member in members)
        else:
            slowest = max(members, key=lambda s: s.duration)
            rest_total = sum(s.duration for s in members if s is not slowest)
            entries.append(("span", slowest))
            entries.append(("summary", (name, len(members) - 1, rest_total)))
    return entries


def render_span_tree(root: Span, max_siblings: int = MAX_SIBLINGS_PER_NAME) -> str:
    """Draw a span tree with box-drawing connectors and millisecond timings."""
    lines = [_format_span(root)]

    def draw(span: Span, prefix: str) -> None:
        entries = _grouped_children(span, max_siblings)
        for index, (kind, payload) in enumerate(entries):
            last = index == len(entries) - 1
            connector = "└─ " if last else "├─ "
            continuation = "   " if last else "│  "
            if kind == "span":
                lines.append(prefix + connector + _format_span(payload))
                draw(payload, prefix + continuation)
            else:
                name, count, total = payload
                lines.append(
                    prefix + connector
                    + f"… ×{count} more {name}  total {total * 1000:.2f}ms"
                )

    draw(root, "")
    return "\n".join(lines)
