"""IRS operators duplicated as COLLECTION methods (Section 4.5.4).

"IRS-operators can be duplicated as methods of the collection objects.
INQUERY's AND-operator, to give an example, corresponds to a method
IRSOperatorAND in our implementation.  Its parameters are results of IRS
queries.  Hence, it is possible to calculate conjunction both in the IRS or
the OODBMS.  Consider the case that the corresponding collection object
already knows intermediate results because they have been buffered as the
result of previous query evaluations.  Then the second alternative is
particularly appealing."

Each ``IRSOperatorX(q1, q2, ...)`` method takes IRS *sub-query strings*,
obtains their (possibly buffered) result dictionaries via ``getIRSResult``,
and combines the per-object values with exactly the belief algebra of
:mod:`repro.irs.models.operators` — the "precise knowledge of the
IRS-operators' semantics" that makes the in-DB computation equivalent to
resubmitting the combined query to the IRS.
"""

from __future__ import annotations

from typing import Dict, List

from repro.irs.models import operators as ops
from repro.irs.models.probabilistic import DEFAULT_BELIEF
from repro.oodb.objects import DBObject
from repro.oodb.oid import OID


def _sub_results(collection_obj: DBObject, queries: List[str]) -> List[Dict[OID, float]]:
    from repro.core.collection import _get_irs_result

    return [_get_irs_result(collection_obj, q) for q in queries]


def _all_oids(results: List[Dict[OID, float]]) -> List[OID]:
    seen = set()
    for result in results:
        seen.update(result)
    return sorted(seen)


def _beliefs(results: List[Dict[OID, float]], oid: OID) -> List[float]:
    """Per-subquery beliefs for one object; absent = default belief.

    Using INQUERY's default belief for missing evidence is what keeps the
    in-DB combination consistent with what the IRS itself would compute for
    the combined query.
    """
    return [result.get(oid, DEFAULT_BELIEF) for result in results]


def irs_operator_and(collection_obj: DBObject, *queries: str) -> Dict[OID, float]:
    """``IRSOperatorAND`` — conjunction computed inside the OODBMS."""
    results = _sub_results(collection_obj, list(queries))
    baseline = ops.op_and([DEFAULT_BELIEF] * len(results))
    combined = {}
    for oid in _all_oids(results):
        value = ops.op_and(_beliefs(results, oid))
        if value > baseline:
            combined[oid] = value
    return combined


def irs_operator_or(collection_obj: DBObject, *queries: str) -> Dict[OID, float]:
    """``IRSOperatorOR`` — disjunction computed inside the OODBMS."""
    results = _sub_results(collection_obj, list(queries))
    baseline = ops.op_or([DEFAULT_BELIEF] * len(results))
    combined = {}
    for oid in _all_oids(results):
        value = ops.op_or(_beliefs(results, oid))
        if value > baseline:
            combined[oid] = value
    return combined


def irs_operator_sum(collection_obj: DBObject, *queries: str) -> Dict[OID, float]:
    """``IRSOperatorSUM`` — mean belief computed inside the OODBMS."""
    results = _sub_results(collection_obj, list(queries))
    combined = {}
    for oid in _all_oids(results):
        value = ops.op_sum(_beliefs(results, oid))
        if value > DEFAULT_BELIEF:
            combined[oid] = value
    return combined


def irs_operator_max(collection_obj: DBObject, *queries: str) -> Dict[OID, float]:
    """``IRSOperatorMAX`` — maximum belief computed inside the OODBMS."""
    results = _sub_results(collection_obj, list(queries))
    combined = {}
    for oid in _all_oids(results):
        value = ops.op_max(_beliefs(results, oid))
        if value > DEFAULT_BELIEF:
            combined[oid] = value
    return combined


def irs_operator_wsum(collection_obj: DBObject, *args) -> Dict[OID, float]:
    """``IRSOperatorWSUM(w1, q1, w2, q2, ...)`` — weighted mean in the OODBMS."""
    if len(args) % 2 != 0:
        raise ValueError("IRSOperatorWSUM expects weight, query pairs")
    weights = [float(args[i]) for i in range(0, len(args), 2)]
    queries = [args[i] for i in range(1, len(args), 2)]
    results = _sub_results(collection_obj, queries)
    baseline = ops.op_wsum(weights, [DEFAULT_BELIEF] * len(results))
    combined = {}
    for oid in _all_oids(results):
        value = ops.op_wsum(weights, _beliefs(results, oid))
        if value > baseline:
            combined[oid] = value
    return combined


def irs_operator_not(collection_obj: DBObject, query: str) -> Dict[OID, float]:
    """``IRSOperatorNOT`` — complement belief for every *member* object.

    The universe is the collection's membership (doc_map): negation only
    makes sense against a closed set of candidates, which is exactly the
    open-vs-closed-world tension Section 6 flags as future work.
    """
    from repro.core.collection import _get_irs_result, member_keys

    result = _get_irs_result(collection_obj, query)
    combined = {}
    for oid_str in member_keys(collection_obj):
        oid = OID.parse(oid_str)
        value = ops.op_not(result.get(oid, DEFAULT_BELIEF))
        combined[oid] = value
    return combined


def attach_operator_methods(cdef) -> None:
    """Register the operator methods on the COLLECTION class definition."""
    cdef.add_method("IRSOperatorAND", irs_operator_and)
    cdef.add_method("IRSOperatorOR", irs_operator_or)
    cdef.add_method("IRSOperatorSUM", irs_operator_sum)
    cdef.add_method("IRSOperatorMAX", irs_operator_max)
    cdef.add_method("IRSOperatorWSUM", irs_operator_wsum)
    cdef.add_method("IRSOperatorNOT", irs_operator_not)
