"""Mixed-query evaluation strategies (Section 4.5.3).

A mixed query conjoins structure conditions (evaluated by the OODBMS) with
content conditions (evaluated by the IRS).  The paper names two strategies:

(1) **independent** — "The query portions are processed independently by
    the corresponding system, and the results are combined. ... With this
    approach, restrictions on the search space by the IRS cannot be used by
    the OODBMS."  In our system this is plain query evaluation: every
    candidate object has its ``getIRSValue`` compared — from one map per
    statement (:func:`repro.core.collection._compile_irs_value`): the
    buffered IRS result decides the represented objects, the others derive
    their value in one column (or per object, for an overriding class).

(2) **irs_first** — "The IRS selects all IRS documents fulfilling the
    conditions on the content.  The structure conditions are only verified
    for the text objects identified in this first step."  The same compiled
    map with nothing left to the objects: for ``>`` / ``>=`` only what the
    IRS returned can pass, and nothing is derived.  (Which filter of a
    variable runs first is no longer part of a strategy: candidates are
    sets, and under either strategy the IRS is asked once the variable's
    store-read conjuncts have left a candidate.)

:func:`compare_strategies` runs both on the same query and reports the
counter deltas the MIXED benchmark prints.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Any, Dict, List, Optional

from repro.core.collection import (
    disable_irs_first_optimization,
    enable_irs_first_optimization,
)
from repro.core.context import coupling_context
from repro.oodb.database import Database
from repro.oodb.query.evaluator import QueryEvaluator


@dataclass
class StrategyOutcome:
    """What one evaluation strategy did for one query."""

    strategy: str
    rows: List[tuple]
    tuples_examined: int
    method_calls: int
    restrictor_calls: int
    irs_queries: int
    seconds: float


def evaluate_independent(
    db: Database, query: str, bindings: Optional[Dict[str, Any]] = None
) -> StrategyOutcome:
    """Strategy (1): per-object evaluation of content predicates."""
    return _evaluate(db, query, bindings, irs_first=False)


def evaluate_irs_first(
    db: Database, query: str, bindings: Optional[Dict[str, Any]] = None
) -> StrategyOutcome:
    """Strategy (2): the IRS result restricts the candidate set first.

    Caveat inherited from the strategy itself: objects whose IRS value
    would be *derived* (they are not represented in the collection) cannot
    be selected — the IRS never returns them.
    """
    return _evaluate(db, query, bindings, irs_first=True)


def _evaluate(
    db: Database, query: str, bindings: Optional[Dict[str, Any]], irs_first: bool
) -> StrategyOutcome:
    context = coupling_context(db)
    engine_counters = context.engine.counters
    queries_before = engine_counters.queries_executed
    if irs_first:
        enable_irs_first_optimization(db)
    else:
        disable_irs_first_optimization(db)
    try:
        evaluator = QueryEvaluator(db)
        started = perf_counter()
        rows, stats = evaluator.run_with_stats(query, bindings)
        elapsed = perf_counter() - started
    finally:
        disable_irs_first_optimization(db)
    return StrategyOutcome(
        strategy="irs_first" if irs_first else "independent",
        rows=rows,
        tuples_examined=stats.tuples_examined,
        method_calls=stats.method_calls,
        restrictor_calls=stats.restrictor_calls,
        irs_queries=engine_counters.queries_executed - queries_before,
        seconds=elapsed,
    )


def compare_strategies(
    db: Database, query: str, bindings: Optional[Dict[str, Any]] = None
) -> Dict[str, StrategyOutcome]:
    """Run both strategies on ``query`` and return their outcomes.

    The independent strategy runs first so the IRS-first run benefits from
    a warm buffer exactly as it would in the paper's inter-query scenario;
    callers wanting cold comparisons reset the collection buffer between
    calls.
    """
    independent = evaluate_independent(db, query, bindings)
    irs_first = evaluate_irs_first(db, query, bindings)
    return {"independent": independent, "irs_first": irs_first}
