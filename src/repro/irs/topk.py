"""MaxScore/block-max top-k early termination over per-term impact columns.

The exhaustive engine reads every posting of every query term; this module
answers "give me the best ``k``" while *provably* returning the same top-k
ranking and the same scores (the safe-up-to-k contract):

* terms are ordered by their maximum possible score contribution and split
  into **essential** and **non-essential** lists against the running top-k
  threshold (Turtle & Flood's MaxScore) — documents appearing only in
  non-essential lists can never enter the heap and are never visited;
* candidates surface from the essential lists block by block, with
  per-block upper bounds checked *before* a block's positions are screened
  (Block-Max); a whole block whose bound cannot reach the threshold is
  hopped over (``irs.postings.blocks_skipped``);
* when even the sum of all remaining bounds cannot reach the threshold the
  segment's evaluation stops outright (``irs.topk.early_terminations``).

Impacts are exact, not estimated.  One column scan per (model, term, index
version) — :func:`term_impacts` — reads the term's decoded ``(doc_ids,
tfs)`` blocks from every scoring source (``collection.scoring_sources()``
— a segment stack sharing the one global heap — and their
``term_columns``: tombstones filtered, no position decoded, no posting
object built) and has the model turn each block into its per-document score contributions per unit of
query weight ("impacts") with one comprehension.  The resulting per-block
columns and the ``doc_id -> impact`` / ``doc_id -> tf`` probe maps are
kept in the collection's ``impact_memo`` until the index version moves.
Candidate screening then needs one array lookup and one float compare per
posting — and upper bounds built from *actual* impacts (not block maxima)
make the non-essential probes nearly tight.  The inquery model's exhaustive
path reads its leaf beliefs (``db + impact``) off the same entries.

Exactness.  Screening compares bounds against a threshold deflated by one
part in 10^7 (:data:`CUT_SCALE`): a candidate is skipped only when its
bound is *clearly* below the k-th score, so float re-association between
the bound sum and the real accumulation can never skip a qualifying
document, while ties at the k-th score are always evaluated.  Survivors
are scored with bit-identical arithmetic to the exhaustive models (same
expressions, same accumulation order), and ties resolve by the same
``(-value, doc_id)`` order :meth:`IRSResult.ranked` uses — so the pruned
top-k equals ``exhaustive.ranked()[:k]`` exactly, not just approximately.

Eligibility.  Flat ``#sum``/``#wsum`` shapes over plain positive-weight
terms qualify for both models (vector additionally accepts any operator
nesting it would flatten anyway, except ``#not``), and so, for inquery, does
a root ``#and``/``#or``/``#max`` over plain terms — stopped, unknown and
repeated terms included.  Each is monotone in every leaf's impact ``u``:
``#and`` and ``#or`` run the same kernel after a monotone *lift* under
which their parts add (``log1p(u/db)`` and ``-log1p(-u/(1-db))``), screening
raw impacts against the lifted threshold mapped back and rounded down;
``#max`` runs each term's list alone.  Survivors fold their beliefs in leaf
order exactly as ``op_and``/``op_or``/``op_max`` do, so values stay
bit-identical.  Nested operators, ``#not``, proximity leaves and
non-positive weights fall back to exhaustive scoring + truncation, with the
decision recorded on the query span (visible in ``explain()``).
"""

from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.irs.models.base import (
    CompiledOperator,
    CompiledProximity,
    compile_query,
)
from repro.irs.queries import OperatorNode, ProximityNode, QueryNode

#: Relative deflation applied to the pruning threshold.  A candidate is
#: skipped only when its upper bound falls below ``theta * CUT_SCALE`` (in
#: the model's contribution space); one part in 10^7 dwarfs any float
#: re-association error between a bound sum and the exhaustive
#: accumulation while costing nothing measurable in pruning power.
CUT_SCALE = 1.0 - 1e-7

#: Absolute deflation of the ``#and``/``#or``/``#max`` thresholds.  Their
#: exact values round every belief ``db + u`` and every step of the fold,
#: an error that is absolute in the lifted space; as the k-th value nears
#: the query's baseline the lifted cut nears 0, where the relative
#: :data:`CUT_SCALE` no longer covers it.
_CUT_MARGIN = 1e-9


@dataclass
class TopKOutcome:
    """What the pruned path produced (or why it declined)."""

    values: Optional[Dict[int, float]]  #: None => caller must fall back
    reason: Optional[str] = None  #: fallback reason when values is None
    blocks_skipped: int = 0
    blocks_decoded: int = 0  #: blocks whose positions were actually screened
    early_terminations: int = 0
    candidates_scored: int = 0


# ---------------------------------------------------------------------------
# Eligibility
# ---------------------------------------------------------------------------

def _vector_plan(collection, model_impl, tree) -> Tuple[Optional[list], Optional[str]]:
    """Ordered ``(term, query_weight)`` pairs for a prunable vector query."""

    def reject(node) -> Optional[str]:
        if isinstance(node, ProximityNode):
            return "proximity"
        if isinstance(node, OperatorNode):
            if node.op == "not":
                return "operator:not"
            for child in node.children:
                reason = reject(child)
                if reason:
                    return reason
        return None

    reason = reject(tree)
    if reason:
        return None, reason
    # Same flattening the exhaustive path performs (shared code path, so
    # term order — and hence accumulation order — is identical).
    query_vector = model_impl._query_vector(collection, tree)
    if any(weight <= 0 for weight in query_vector.values()):
        return None, "weights"
    return list(query_vector.items()), None


def _inquery_plan(collection, model_impl, tree) -> Tuple[Optional[tuple], Optional[str]]:
    """``(op, leaves)`` for inquery: ``"sum"`` for a flat linear shape, or a
    root ``and``/``or``/``max`` over plain terms; ``leaves`` are the ordered
    ``(weight, analyzed-term-or-None)`` pairs."""
    compiled = compile_query(collection, tree)
    flat = model_impl._flat_linear(compiled)
    op = "sum"
    if flat is None:
        if not isinstance(compiled, CompiledOperator) or compiled.op in ("sum", "wsum"):
            return None, "structure"
        op = compiled.op
        if op not in ("and", "or", "max") or (op == "and" and model_impl._db == 0.0):
            return None, "operator:" + op
        flat = [(1.0, child) for child in compiled.children]
    if any(isinstance(leaf, CompiledProximity) for _w, leaf in flat):
        return None, "proximity"
    if any(isinstance(leaf, CompiledOperator) for _w, leaf in flat):
        return None, "structure"
    if any(weight <= 0 for weight, _leaf in flat):
        return None, "weights"
    return (op, [(weight, leaf.term) for weight, leaf in flat]), None


# ---------------------------------------------------------------------------
# Impact cache: exact per-posting impacts, one sweep per index version
# ---------------------------------------------------------------------------

class TermImpacts(NamedTuple):
    """One term's exact impacts within one scoring source.

    The block lists are parallel: block ``b`` holds the source's ``b``-th
    run of live postings — a compact segment's physical block minus its
    tombstoned documents, the dict form's
    :data:`~repro.irs.postings.BLOCK_SIZE` run.
    """

    max_u: float  #: largest impact of the whole list
    block_maxes: List[float]  #: largest impact per block
    block_us: List[List[float]]  #: impact per posting
    block_ids: List[List[int]]  #: doc id per posting
    probe_us: Dict[int, float]  #: doc_id -> impact, the membership probe
    probe_tfs: Dict[int, int]  #: doc_id -> term frequency


def term_impacts(
    collection,
    cache_key: tuple,
    term: str,
    block_impacts: Callable[[object, List[int], List[int]], List[float]],
    tally: List[int],
) -> Dict[int, TermImpacts]:
    """``id(source) -> TermImpacts`` of one term under one model.

    ``block_impacts(source, doc_ids, tfs)`` is the model's kernel: the
    impacts (score contribution per unit of query weight) of one decoded
    block, as a list aligned with its columns.  The scan reads every
    source's ``term_columns`` once, keeps the doc-id column beside the
    impacts so list scans never decode again, and builds the ``probe_*`` maps for O(1)
    membership probes against the other query terms.  Sources where the
    term has no positive impact are left out.

    Entries are shared by every query (and both scoring paths) of a model
    through the collection's ``impact_memo``, keyed on ``cache_key`` and
    valid for one index version.  The lookup adds to ``tally``, the
    caller's ``[hits, misses]``, which it counts once per query.
    """
    memo = collection.impact_memo
    version = collection.index_version
    per_source = memo.get(cache_key, version)
    if per_source is not None:
        tally[0] += 1
        return per_source
    tally[1] += 1
    per_source = {}
    for source in collection.scoring_sources():
        block_us: List[List[float]] = []
        block_maxes: List[float] = []
        block_ids: List[List[int]] = []
        probe_us: Dict[int, float] = {}
        probe_tfs: Dict[int, int] = {}
        for ids, tfs in source.term_columns(term):
            us = block_impacts(source, ids, tfs)
            block_us.append(us)
            block_maxes.append(max(us, default=0.0))
            block_ids.append(ids)
            probe_us.update(zip(ids, us))
            probe_tfs.update(zip(ids, tfs))
        max_u = max(block_maxes, default=0.0)
        if max_u > 0.0:
            per_source[id(source)] = TermImpacts(
                max_u, block_maxes, block_us, block_ids, probe_us, probe_tfs
            )
    memo.put(cache_key, version, per_source)
    return per_source


def impact_maps(collection, model_impl, terms) -> Dict[str, Dict[int, TermImpacts]]:
    """``term -> model_impl.term_impacts(...)`` for each of ``terms``, the
    impact memo counted once."""
    tally = [0, 0]
    maps = {term: model_impl.term_impacts(collection, term, tally) for term in terms}
    collection.impact_memo.count(*tally)
    return maps


# ---------------------------------------------------------------------------
# The MaxScore / block-max DAAT core
# ---------------------------------------------------------------------------

@dataclass
class _TermList:
    """One query term within one segment, with its exact impact columns."""

    term: str
    weight: float  #: combined query weight
    ub: float  #: weight * lifted max impact over the whole list
    impacts: TermImpacts
    #: Monotone map of an impact into the space where the parts add (None:
    #: they already do), and its inverse, rounded down, for raw screening.
    lift: Optional[Callable[[float], float]] = None
    unlift: Optional[Callable[[float], float]] = None

    def probe(self) -> Callable[[int], Optional[float]]:
        """``doc_id -> lifted impact`` (None when the doc lacks the term)."""
        get, lift = self.impacts.probe_us.get, self.lift
        return get if lift is None else lambda doc: None if (u := get(doc)) is None else lift(u)


_NEG_INF = float("-inf")


def _score_segment(
    k: int,
    score_candidate: Callable[[int, Dict[str, int]], Optional[float]],
    cut_of: Callable[[float], float],
    lists: List[_TermList],
    heap: List[Tuple[float, int]],
    outcome: TopKOutcome,
) -> None:
    """Run MaxScore over one segment, sharing the global top-k heap.

    Lists are scanned strongest (highest upper bound) first.  A document
    is *considered* exactly once — in the strongest query-term list that
    contains it; weaker lists skip it via an O(1) probe into the stronger
    lists' impact maps.  Scanning stops at the classic MaxScore boundary:
    once the summed upper bounds of the unscanned lists fall below the
    threshold, no unseen document can qualify (every document they would
    surface is either already considered or bounded out).

    A scan walks the impact columns block by block (the impact cache
    decoded them once per index version, so the encoded bytes are never
    touched here): a block whose max impact cannot reach the threshold is
    hopped over — that is the block-max skip
    ``irs.postings.blocks_skipped`` counts — and each position of a
    visited block is screened with one compare against the threshold
    translated into the list's impact space.  Survivors probe
    the other lists for their exact impacts, tightening the bound term
    by term (the one- and two-probe shapes, which dominate real query
    mixes, are unrolled straight-line), and only candidates whose bound
    still reaches the threshold are scored exactly.

    All bound arithmetic happens in the model's *contribution space* (the
    weighted sum of impacts, lifted where the lists carry a lift, before
    any final transform); ``cut_of`` maps the k-th heap value into that
    space, deflated.  Block maxima and postings stay raw: the lead's
    threshold is mapped back through ``unlift`` and only survivors lift.
    Until the heap holds ``k`` entries the cut is ``-inf``; a candidate is
    skipped only when its bound falls *clearly* below the k-th score, so
    ties at the threshold are always evaluated.
    """
    lists.sort(key=lambda tl: tl.ub, reverse=True)
    m = len(lists)
    total_ub = sum(tl.ub for tl in lists)
    cut = cut_of(heap[0][0]) if len(heap) >= k else _NEG_INF
    heap_len = len(heap)
    heappush = heapq.heappush
    heapreplace = heapq.heapreplace
    remaining = total_ub  # summed ubs of lists[li:], the unscanned tail
    for li, lead in enumerate(lists):
        if remaining < cut:
            # MaxScore boundary: the unscanned lists are non-essential —
            # every document they hold is already considered or bounded out.
            outcome.early_terminations += 1
            break
        wl = lead.weight
        lift = lead.lift
        unlift = lead.unlift
        lead_term = lead.term
        block_maxes = lead.impacts.block_maxes
        block_us = lead.impacts.block_us
        block_ids = lead.impacts.block_ids
        lead_tfs = lead.impacts.probe_tfs
        # Probe order is ub-descending with the already-scanned (stronger)
        # lists first: a hit in one of those means the document was
        # already considered during that list's scan, and a miss removes
        # the largest remaining slack from the bound fastest.
        probes = [
            (tl.probe(), tl.impacts.probe_tfs, tl.ub, tl.weight, tl.term, j < li)
            for j, tl in enumerate(lists)
            if j != li
        ]
        n_probes = m - 1
        if n_probes >= 1:
            get_1, tfs_1, ub_1, w_1, term_1, scanned_1 = probes[0]
        if n_probes >= 2:
            get_2, tfs_2, ub_2, w_2, term_2, scanned_2 = probes[1]
        rest = total_ub - lead.ub
        t = (cut - rest) / wl
        if unlift is not None:
            t = unlift(t)
        skipped = 0
        for b in range(len(block_us)):
            if block_maxes[b] < t:
                skipped += 1
                continue
            us = block_us[b]
            ids = block_ids[b]
            for i, u in enumerate(us):
                if u < t:
                    continue
                doc = ids[i]
                if lift is not None:
                    u = lift(u)
                if n_probes == 0:
                    # u >= t already proves wl*u reaches the cut.
                    tf_map = {lead_term: lead_tfs[doc]}
                elif n_probes == 1:
                    u_1 = get_1(doc)
                    if u_1 is None:
                        # rest == ub_1 here, so the bound collapses to wl*u.
                        if wl * u < cut:
                            continue
                        tf_map = {lead_term: lead_tfs[doc]}
                    else:
                        if scanned_1:
                            continue
                        if wl * u + w_1 * u_1 < cut:
                            continue
                        tf_map = {lead_term: lead_tfs[doc], term_1: tfs_1[doc]}
                elif n_probes == 2:
                    bound = rest + wl * u - ub_1
                    u_1 = get_1(doc)
                    if u_1 is not None:
                        if scanned_1:
                            continue
                        bound += w_1 * u_1
                    if bound < cut:
                        continue
                    bound -= ub_2
                    u_2 = get_2(doc)
                    if u_2 is not None:
                        if scanned_2:
                            continue
                        bound += w_2 * u_2
                    if bound < cut:
                        continue
                    tf_map = {lead_term: lead_tfs[doc]}
                    if u_1 is not None:
                        tf_map[term_1] = tfs_1[doc]
                    if u_2 is not None:
                        tf_map[term_2] = tfs_2[doc]
                else:
                    bound = rest + wl * u
                    viable = True
                    matched = None
                    for get_o, tfs_o, ub_o, w_o, term_o, scanned in probes:
                        bound -= ub_o
                        u_o = get_o(doc)
                        if u_o is not None:
                            if scanned:
                                # Already considered in that list's scan.
                                viable = False
                                break
                            bound += w_o * u_o
                            if matched is None:
                                matched = []
                            matched.append((term_o, tfs_o[doc]))
                        if bound < cut:
                            viable = False
                            break
                    if not viable:
                        continue
                    tf_map = {lead_term: lead_tfs[doc]}
                    if matched:
                        tf_map.update(matched)
                value = score_candidate(doc, tf_map)
                outcome.candidates_scored += 1
                if value is None:
                    continue
                entry = (value, -doc)
                if heap_len < k:
                    heappush(heap, entry)
                    heap_len += 1
                    if heap_len < k:
                        continue
                elif entry > heap[0]:
                    heapreplace(heap, entry)
                else:
                    continue
                cut = cut_of(heap[0][0])
                t = (cut - rest) / wl
                if unlift is not None:
                    t = unlift(t)
        outcome.blocks_skipped += skipped
        outcome.blocks_decoded += len(block_us) - skipped
        remaining -= lead.ub


# ---------------------------------------------------------------------------
# Model adapters
# ---------------------------------------------------------------------------

def _run(
    collection,
    model_impl,
    weighted_terms: List[Tuple[str, float]],
    score_segment: Callable[[List[_TermList], list, TopKOutcome], None],
    lift=None,
    unlift=None,
) -> TopKOutcome:
    """Shared driver: build per-segment term lists, score segment by segment.

    Documents are unique across live segments, so running the segments
    sequentially against one shared heap scores every live document at
    most once — and segments after the first start with a warm threshold.
    """
    outcome = TopKOutcome(values={})
    heap: List[Tuple[float, int]] = []
    sources = collection.scoring_sources()
    impacts_of = impact_maps(collection, model_impl, [term for term, _w in weighted_terms])
    for source in sources:
        lists: List[_TermList] = []
        for term, weight in weighted_terms:
            impacts = impacts_of[term].get(id(source))
            if impacts is not None:
                max_u = impacts.max_u if lift is None else lift(impacts.max_u)
                lists.append(_TermList(term, weight, weight * max_u, impacts, lift, unlift))
        if lists:
            score_segment(lists, heap, outcome)
    outcome.values = {-neg_doc: value for value, neg_doc in heap}
    return outcome


def _vector_outcome(collection, model_impl, tree, k: int) -> TopKOutcome:
    entries, reason = _vector_plan(collection, model_impl, tree)
    if entries is None:
        return TopKOutcome(values=None, reason=reason)
    stats = collection.stats
    scored = [
        (term, weight, stats.idf(term))
        for term, weight in entries
        if stats.idf(term) != 0.0
    ]
    if not scored:
        return TopKOutcome(values={})
    query_norm = math.sqrt(sum(w * w for _t, w in entries))

    def score_candidate(doc_id: int, tf_map: Dict[str, int]) -> Optional[float]:
        # Bit-identical to VectorSpaceModel.score: same expressions, same
        # per-document accumulation order (query-vector term order).
        dot = 0.0
        for term, weight, idf in scored:
            tf = tf_map.get(term)
            if tf:
                dot += weight * (1.0 + math.log(tf)) * idf
        if dot <= 0.0:
            return None
        doc_norm = stats.document_norm(doc_id)
        if doc_norm <= 0.0:
            return None
        value = dot / (doc_norm * query_norm)
        return min(1.0, value)

    # Contribution space is value space: impacts carry 1/doc_norm, the
    # weights below carry 1/query_norm, and the min(1, .) cap only ever
    # lowers a score further below its bound.
    weighted = [(term, weight / query_norm) for term, weight, _idf in scored]

    def cut_of(theta: float) -> float:
        return theta * CUT_SCALE

    kernel = partial(_score_segment, k, score_candidate, cut_of)
    return _run(collection, model_impl, weighted, kernel)


def _inquery_outcome(collection, model_impl, tree, k: int) -> TopKOutcome:
    plan, reason = _inquery_plan(collection, model_impl, tree)
    if plan is None:
        return TopKOutcome(values=None, reason=reason)
    op, leaves = plan
    stats = collection.stats
    db = model_impl._db
    one_minus_db = 1.0 - db
    avg_dl = stats.average_document_length or 1.0
    document_length = collection.index.document_length
    idf_parts = {t: stats.inquery_idf(t) for t in dict.fromkeys(t for _w, t in leaves) if t}
    # Terms with lists: real terms with evidence capacity.  Stopped and
    # zero-idf leaves believe the default belief bit-for-bit everywhere,
    # so they need no list — but they stay in every fold below.
    combined_weight: Dict[str, float] = {}
    for weight, term in leaves:
        if term is not None and idf_parts[term] > 0.0:
            combined_weight[term] = combined_weight.get(term, 0.0) + weight
    weighted = list(combined_weight.items())
    if op == "max":
        return _inquery_max(collection, model_impl, k, weighted, db)

    if op == "sum":
        total_weight = sum(weight for weight, _term in leaves)
        scoring_leaves = [(w, term) for w, term in leaves if term in combined_weight]

        def score_candidate(doc_id: int, tf_map: Dict[str, int]) -> Optional[float]:
            # Bit-identical to _score_term_at_a_time + _term_belief_map: same
            # belief expression, same leaf-order accumulation.
            acc = 0.0
            for weight, term in scoring_leaves:
                tf = tf_map.get(term)
                if not tf:
                    continue
                dl = document_length(doc_id)
                tf_part = tf / (tf + 0.5 + 1.5 * dl / avg_dl)
                belief = db + one_minus_db * tf_part * idf_parts[term]
                acc += weight * (belief - db)
            if acc <= 0.0:
                return None
            return db + acc / total_weight

        # Contribution space is the weighted-excess sum (the accumulator of
        # the exhaustive TAAT loop); the k-th *value* maps back through the
        # final ``db + acc / W`` transform.
        def cut_of(theta: float) -> float:
            return (theta - db) * total_weight * CUT_SCALE

        kernel = partial(_score_segment, k, score_candidate, cut_of)
        return _run(collection, model_impl, weighted, kernel)

    # #and / #or: a document's value folds the beliefs of every leaf in leaf
    # order — the float sequence of op_and / op_or, hence of set_and /
    # set_or.  Both are monotone in each impact u, and after a monotone
    # lift of u the parts add:  #and = db^m * exp(sum of log1p(u / db)),
    # #or = 1 - (1 - db)^m * exp(-(sum of -log1p(-u / (1 - db)))).
    terms = [term for _w, term in leaves]  # every leaf, stopped ones included
    baseline = model_impl.baseline(tree)
    is_and = op == "and"
    if is_and:
        log_base = len(terms) * math.log(db)

        def lift(u: float) -> float:
            return math.log1p(u / db)

        def unlift(t: float) -> float:
            # Impacts lie below 1, so capping t only keeps expm1 finite.
            return db * math.expm1(min(t, 50.0)) * CUT_SCALE

        def cut_of(theta: float) -> float:
            return (math.log(theta) - log_base) * CUT_SCALE - _CUT_MARGIN
    else:
        log_base = len(terms) * math.log(one_minus_db)

        def lift(u: float) -> float:
            return -math.log1p(-u / one_minus_db)

        def unlift(t: float) -> float:
            return -one_minus_db * math.expm1(-t) * CUT_SCALE

        def cut_of(theta: float) -> float:
            # 2**-53 covers the rounding of the final ``1 - product``.
            return (log_base - math.log(1.0 - theta + 2.0**-53)) * CUT_SCALE - _CUT_MARGIN

    def score_candidate(doc_id: int, tf_map: Dict[str, int]) -> Optional[float]:
        dl = document_length(doc_id)
        acc = 1.0
        for term in terms:
            tf = tf_map.get(term)
            if tf:
                tf_part = tf / (tf + 0.5 + 1.5 * dl / avg_dl)
                belief = db + one_minus_db * tf_part * idf_parts[term]
            else:
                belief = db
            acc *= belief if is_and else 1.0 - belief
        value = acc if is_and else 1.0 - acc
        return value if value > baseline else None

    kernel = partial(_score_segment, k, score_candidate, cut_of)
    return _run(collection, model_impl, weighted, kernel, lift, unlift)


def _inquery_max(collection, model_impl, k: int, weighted, db: float) -> TopKOutcome:
    """#max: each term list alone, strongest first, against the shared heap.

    A document is scored once per segment — when the first list admits it
    — as ``db + max u`` over the segment's probe maps: ``fl(db + u)`` is
    monotone in u, so that is set_max's float.  A list whose largest
    impact is below the cut ends the segment.
    """

    def cut_of(theta: float) -> float:
        return (theta - db) * CUT_SCALE - _CUT_MARGIN

    def score_segment(lists, heap, outcome) -> None:
        gets = [tl.impacts.probe_us.get for tl in lists]
        seen = set()

        def score_candidate(doc_id: int, _tf_map) -> Optional[float]:
            if doc_id in seen:
                return None
            seen.add(doc_id)
            value = db + max(get(doc_id, 0.0) for get in gets)
            return value if value > db else None

        lists.sort(key=lambda tl: tl.ub, reverse=True)
        for tl in lists:
            if len(heap) >= k and tl.ub < cut_of(heap[0][0]):
                outcome.early_terminations += 1
                break
            _score_segment(k, score_candidate, cut_of, [tl], heap, outcome)

    return _run(collection, model_impl, [(term, 1.0) for term, _w in weighted], score_segment)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def topk_scores(
    collection,
    model_name: str,
    model_impl,
    tree: QueryNode,
    k: int,
) -> TopKOutcome:
    """Score the best ``k`` documents with early termination when possible.

    Returns an outcome whose ``values`` is the exact top-k score dict (the
    safe-up-to-k contract versus the exhaustive engine), or ``None`` with a
    ``reason`` when the query shape or model is not prunable — the caller
    then runs the exhaustive path and truncates.  Must be called under the
    collection's read lock (same contract as model scoring).
    """
    if k <= 0:
        return TopKOutcome(values={})
    if model_name == "vector":
        return _vector_outcome(collection, model_impl, tree, k)
    if model_name == "inquery":
        return _inquery_outcome(collection, model_impl, tree, k)
    return TopKOutcome(values=None, reason="model:" + model_name)


def truncate_top_k(values: Dict[int, float], k: int) -> Dict[int, float]:
    """The exhaustive fallback's tail: keep the best ``k`` by rank order.

    A bounded-heap selection under :meth:`IRSResult.ranked`'s total order:
    the largest ``(value, -doc_id)`` pairs are the smallest
    ``(-value, doc_id)`` keys, in the same sequence.
    """
    if len(values) <= k:
        return values
    best = heapq.nlargest(k, zip(values.values(), map(operator.neg, values)))
    return {-neg_doc: value for value, neg_doc in best}
