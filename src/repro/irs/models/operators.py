"""Belief-combination operators with INQUERY semantics.

These are the "half a dozen operators" whose "exact semantics" the paper's
authors knew and re-implemented as collection methods for optimization
(Section 4.5.4).  They are defined here once and reused both by the
probabilistic retrieval model (combining per-term beliefs inside the IRS)
and by :mod:`repro.core.operators` (combining whole buffered result
dictionaries inside the OODBMS) — having the *same* function in both places
is precisely what makes moving the combination between the systems sound.

Every operator exists in two forms with the same arithmetic.  The scalar
``op_*`` functions combine the beliefs of *one* document.  The ``set_*``
functions combine whole belief sets at once: a belief set is a pair
``(values, default)`` standing for ``values.get(doc_id, default)`` over
*every* document — the map holds the documents with evidence, the default
is what the rest believe.  A set operator folds its children in child
order, exactly as the scalar loop does for one document: a document already
in the accumulator combines with the child's value (or the child's default
when the child does not hold it), a document the child introduces starts
from the running combination of the earlier children's defaults — the very
floats the scalar fold would have produced for it — and the running default
moves on by the child's default.  Same operations, same order, per
document: the set forms equal the scalar forms bit for bit, which
``tests/property/test_structured_equivalence.py`` asserts.

Sums are explicit left folds rather than ``sum()`` so that both forms
associate the same way on every interpreter (``sum()`` compensates float
rounding from Python 3.12 on).
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

#: ``(values, default)``: ``values.get(doc_id, default)`` for every document.
BeliefSet = Tuple[Dict[int, float], float]


def op_and(beliefs: Sequence[float]) -> float:
    """#and: product of beliefs (probabilistic conjunction)."""
    result = 1.0
    for belief in beliefs:
        result *= belief
    return result


def op_or(beliefs: Sequence[float]) -> float:
    """#or: 1 - prod(1 - b) (probabilistic disjunction)."""
    result = 1.0
    for belief in beliefs:
        result *= 1.0 - belief
    return 1.0 - result


def op_not(belief: float) -> float:
    """#not: complement."""
    return 1.0 - belief


def op_sum(beliefs: Sequence[float]) -> float:
    """#sum: arithmetic mean of beliefs."""
    if not beliefs:
        return 0.0
    total = 0.0
    for belief in beliefs:
        total += belief
    return total / len(beliefs)


def op_wsum(weights: Sequence[float], beliefs: Sequence[float]) -> float:
    """#wsum: weighted mean of beliefs."""
    if len(weights) != len(beliefs):
        raise ValueError("#wsum needs one weight per belief")
    total_weight = sum(weights)
    if total_weight == 0:
        return 0.0
    total = 0.0
    for weight, belief in zip(weights, beliefs):
        total += weight * belief
    return total / total_weight


def op_max(beliefs: Sequence[float]) -> float:
    """#max: maximum belief."""
    if not beliefs:
        return 0.0
    return max(beliefs)


# ---------------------------------------------------------------------------
# Set-at-a-time forms
# ---------------------------------------------------------------------------

def set_and(parts: Sequence[BeliefSet]) -> BeliefSet:
    """:func:`op_and` over belief sets."""
    acc: Dict[int, float] = {}
    run = 1.0
    for values, default in parts:
        get = values.get
        fresh = {d: run * b for d, b in values.items() if d not in acc}
        acc = {d: v * get(d, default) for d, v in acc.items()}
        acc.update(fresh)
        run *= default
    return acc, run


def set_or(parts: Sequence[BeliefSet]) -> BeliefSet:
    """:func:`op_or` over belief sets."""
    acc: Dict[int, float] = {}
    run = 1.0
    for values, default in parts:
        get = values.get
        fresh = {d: run * (1.0 - b) for d, b in values.items() if d not in acc}
        acc = {d: v * (1.0 - get(d, default)) for d, v in acc.items()}
        acc.update(fresh)
        run *= 1.0 - default
    return {d: 1.0 - v for d, v in acc.items()}, 1.0 - run


def set_not(part: BeliefSet) -> BeliefSet:
    """:func:`op_not` over a belief set."""
    values, default = part
    return {d: 1.0 - b for d, b in values.items()}, 1.0 - default


def set_sum(parts: Sequence[BeliefSet]) -> BeliefSet:
    """:func:`op_sum` over belief sets.

    The unit-weight :func:`set_wsum`: ``1.0 * b`` is ``b`` and dividing by
    ``float(n)`` is dividing by ``n``, exactly.
    """
    return set_wsum([1.0] * len(parts), parts)


def set_wsum(weights: Sequence[float], parts: Sequence[BeliefSet]) -> BeliefSet:
    """:func:`op_wsum` over belief sets."""
    if len(weights) != len(parts):
        raise ValueError("#wsum needs one weight per belief")
    total_weight = sum(weights)
    if total_weight == 0:
        return {}, 0.0
    acc: Dict[int, float] = {}
    run = 0.0
    for weight, (values, default) in zip(weights, parts):
        get = values.get
        fresh = {d: run + weight * b for d, b in values.items() if d not in acc}
        acc = {d: v + weight * get(d, default) for d, v in acc.items()}
        acc.update(fresh)
        run += weight * default
    return {d: v / total_weight for d, v in acc.items()}, run / total_weight


def set_max(parts: Sequence[BeliefSet]) -> BeliefSet:
    """:func:`op_max` over belief sets."""
    if not parts:
        return {}, 0.0
    acc: Dict[int, float] = {}
    run = float("-inf")
    for values, default in parts:
        get = values.get
        fresh = {d: b if b > run else run for d, b in values.items() if d not in acc}
        acc = {d: b if (b := get(d, default)) > v else v for d, v in acc.items()}
        acc.update(fresh)
        if default > run:
            run = default
    return acc, run
