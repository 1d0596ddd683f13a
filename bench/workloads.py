"""The four workloads: seeded operation lists and the code that runs them.

Every workload is a closed loop: a caller sends its next operation only
after the previous one returned.  The operation list is generated from the
seed before anything is timed and never depends on what the system answers,
so two runs with one seed attempt the same operations in the same order;
``ops_digest`` proves it.  A run executes a prefix of the list: as many
operations as fit into the measuring time.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import os
import random
import shutil
import tempfile
import threading
import traceback
from collections import defaultdict
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

import repro
from repro import DocumentSystem

from bench.corpus import (
    COLLECTION,
    PARA_WORDS,
    YEARS,
    DocSpec,
    Vocabulary,
    build_system,
    make_doc,
    make_docs,
    para_oids,
)
from bench.speed import SLICE_SECONDS, SpeedMeter

TOP_K = 10
MODELS = ("inquery", "vector")
READ_KINDS = frozenset({"query", "execute"})
WRITE_KINDS = frozenset({"add", "update", "remove"})


def interleave(counts: Dict[str, int]) -> List[str]:
    """One block of kinds in smooth weighted round-robin order.

    Repeating the block keeps every prefix of the operation list close to
    the block's proportions, so a run that gets a little further than
    another has still run the same mix.  The order is the same for every
    seed; the seed decides what each operation asks for.
    """
    total = sum(counts.values())
    credit = dict.fromkeys(counts, 0)
    order = []
    for _ in range(total):
        for kind, count in counts.items():
            credit[kind] += count
        pick = max(counts, key=lambda kind: credit[kind])
        credit[pick] -= total
        order.append(pick)
    return order


#: Ten ranked queries in the issue's proportions: 30 % single term, 40 %
#: ``#sum``, 10 % ``#wsum`` (all MaxScore-eligible), 20 % boolean-style
#: operators that fall back to exhaustive scoring.
QUERY_BLOCK = interleave({"sum": 4, "single": 3, "bool": 2, "wsum": 1})

SIZES: Dict[str, Dict[str, Dict[str, int]]] = {
    "full": {
        "ranked_cold": {"docs": 2000, "ops": 7000, "warmup": 100},
        "mixed_vql": {"docs": 300, "ops": 600, "warmup": 5},
        "update_mix": {"docs": 400, "cycles": 40, "cycle_ops": 500, "warmup": 250},
        "remote_hot": {"docs": 1000, "ops": 20000, "warmup": 150},
    },
    "smoke": {
        "ranked_cold": {"docs": 60, "ops": 6000, "warmup": 10},
        "mixed_vql": {"docs": 20, "ops": 200, "warmup": 2},
        "update_mix": {"docs": 30, "cycles": 4, "cycle_ops": 250, "warmup": 50},
        "remote_hot": {"docs": 40, "ops": 3000, "warmup": 20},
    },
}


class Recorder:
    """Latencies by operation kind, and failures, of one measured phase."""

    def __init__(self) -> None:
        self.latencies: Dict[str, List[float]] = defaultdict(list)
        self.failed = 0
        #: Measured time, speed-normalised and as the clock showed it.
        self.wall = 0.0
        self.raw_wall = 0.0
        self.errors: List[str] = []

    @property
    def attempted(self) -> int:
        return sum(len(samples) for samples in self.latencies.values())

    def of_kinds(self, kinds) -> List[float]:
        return [s for kind in kinds for s in self.latencies.get(kind, ())]

    def fail(self, kind: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{kind}: {traceback.format_exc(limit=3)}")


# --------------------------------------------------------------------------
# Query generation
# --------------------------------------------------------------------------

def make_query(vocabulary: Vocabulary, rng, shape: str) -> str:
    terms: List[str] = []
    for term in vocabulary.draw(rng, 8):
        if term not in terms:
            terms.append(term)
    terms = terms[: rng.randint(2, 4)]
    if shape == "single":
        return terms[0]
    if shape == "sum":
        return "#sum(" + " ".join(terms) + ")"
    if shape == "wsum":
        weighted = " ".join(f"{rng.choice((0.5, 1, 2, 3))} {t}" for t in terms)
        return "#wsum(" + weighted + ")"
    return "#" + rng.choice(("and", "or", "max")) + "(" + " ".join(terms) + ")"


def distinct_queries(vocabulary: Vocabulary, rng, count: int) -> List[Tuple[str, str]]:
    """``count`` distinct ``(irs_query, model)`` pairs, models alternating.

    Distinct over the whole list, not just within the 128-entry result LRU,
    so the list stays cold whatever size a cache is given later.
    """
    seen = set()
    queries: List[Tuple[str, str]] = []
    while len(queries) < count:
        for shape in QUERY_BLOCK:
            # Alternate within a block and flip from block to block, so
            # every shape meets both models.
            model = MODELS[(len(queries) + len(queries) // len(QUERY_BLOCK)) % 2]
            while True:
                pair = (make_query(vocabulary, rng, shape), model)
                if pair not in seen:
                    break
            seen.add(pair)
            queries.append(pair)
    return queries[:count]


def stratified(rng, count: int) -> List[float]:
    """``count`` numbers in [0, 1), one from each ``count``-quantile, shuffled."""
    points = [(k + rng.random()) / count for k in range(count)]
    rng.shuffle(points)
    return points


def ranking(result) -> List[Tuple[str, float]]:
    return [(str(hit.oid), hit.score) for hit in result]


# --------------------------------------------------------------------------
# Base
# --------------------------------------------------------------------------

class Workload:
    """Set-up, operation list, execution and oracle of one workload."""

    name = ""
    clients = 1
    #: When set, a run only ends after an operation of this kind, so every
    #: run measures whole cycles of the periodic operations.
    stop_after: Optional[str] = None

    def __init__(self, seed: int, sizes: Dict[str, int], scratch: str) -> None:
        self.sizes = sizes
        #: Directory a workload may create temporary directories in.
        self.scratch = scratch
        self.vocabulary = Vocabulary()
        self.system: Any = None
        #: ``ResultSet.telemetry`` of traced operations, where there is one.
        self.telemetry: List[Any] = []
        self.ops: List[tuple] = self.generate(random.Random(f"{self.name}:{seed}"))

    # -- to be provided ----------------------------------------------------

    def generate(self, rng) -> List[tuple]:
        raise NotImplementedError

    def setup(self, meter: SpeedMeter) -> Dict[str, float]:
        """Build the system, ticking ``meter``; returns the phase times."""
        raise NotImplementedError

    def execute(self, index: int, op: tuple) -> None:
        """Run one operation (called by the single-client :meth:`drive`)."""
        raise NotImplementedError

    def check(self) -> Tuple[int, List[str]]:
        """Run the oracle; returns ``(comparisons made, mismatch notes)``."""
        raise NotImplementedError

    # -- shared ------------------------------------------------------------

    def digest(self) -> str:
        hasher = hashlib.sha256()
        for op in self.ops:
            hasher.update(repr(op).encode("utf-8"))
        return hasher.hexdigest()[:16]

    def store_bytes_per_para(self) -> float:
        """Store file bytes per live PARA; 0 without a store file."""
        return 0.0

    def teardown(self) -> None:
        if self.system is not None:
            self.system.close()
            self.system = None

    def drive(
        self,
        start: int,
        seconds: float,
        recorder: Recorder,
        tracer: Any = None,
        limit: Optional[int] = None,
    ) -> int:
        """Run operations from index ``start``; returns the next index.

        Stops when ``seconds`` have passed (after the next ``stop_after``
        operation, if the workload names one), after ``limit`` operations,
        or at the end of the list.  Latencies are recorded speed-normalised,
        slice by slice (see :mod:`bench.speed`).
        """
        ops = self.ops
        index = start
        end = len(ops) if limit is None else min(len(ops), start + limit)
        pending: List[Tuple[str, float]] = []
        deadline = perf_counter() + seconds
        meter = SpeedMeter()
        while index < end:
            op = ops[index]
            kind = op[0]
            if tracer is not None:
                tracer.begin_op(kind, index)
            t0 = perf_counter()
            try:
                self.execute(index, op)
            except Exception:  # a failed operation is counted; the run goes on
                recorder.fail(kind)
            t1 = perf_counter()
            if tracer is not None:
                tracer.end_op()
            pending.append((kind, t1 - t0))
            index += 1
            done = index >= end or (
                t1 >= deadline and (self.stop_after is None or kind == self.stop_after)
            )
            if done or t1 - meter.mark >= SLICE_SECONDS:
                factor = meter.tick()
                for done_kind, latency in pending:
                    recorder.latencies[done_kind].append(latency * factor)
                pending.clear()
                if done:
                    break
        recorder.wall += meter.normalised
        recorder.raw_wall += meter.raw
        return index


# --------------------------------------------------------------------------
# ranked_cold
# --------------------------------------------------------------------------

class RankedCold(Workload):
    """Distinct top-10 ranked queries against an in-memory system."""

    name = "ranked_cold"
    SAMPLE_EVERY = 100
    MAX_CHECKS = 20

    def generate(self, rng) -> List[tuple]:
        self.docs = make_docs(self.vocabulary, rng, self.sizes["docs"])
        queries = distinct_queries(self.vocabulary, rng, self.sizes["ops"])
        self.samples: List[Tuple[str, str, list]] = []
        return [("query", query, model) for query, model in queries]

    def setup(self, meter: SpeedMeter) -> Dict[str, float]:
        self.system, _dtd, self.collection, _roots, phases = build_system(self.docs, meter)
        self.session = self.system.session
        return phases

    def execute(self, index: int, op: tuple) -> None:
        _kind, query, model = op
        result = self.session.query(self.collection, query, model=model, top_k=TOP_K)
        if index % self.SAMPLE_EVERY == 0:
            self.samples.append((query, model, ranking(result)))

    def check(self) -> Tuple[int, List[str]]:
        """Every 100th top-10 equals the prefix of the exhaustive ranking."""
        step = max(1, len(self.samples) // self.MAX_CHECKS)
        mismatches = []
        checked = 0
        for query, model, top in self.samples[::step][: self.MAX_CHECKS]:
            full = ranking(self.session.query(self.collection, query, model=model))
            checked += 1
            if top != full[:TOP_K]:
                mismatches.append(f"top-{TOP_K} of {query!r} ({model}) is not the exhaustive prefix")
        return checked, mismatches


# --------------------------------------------------------------------------
# mixed_vql
# --------------------------------------------------------------------------

Q1 = (
    "ACCESS p, p -> length() FROM p IN PARA "
    "WHERE p -> getIRSValue(collPara, '{term}') > 0.42"
)
Q1_YEAR = (
    "ACCESS p, p -> length() FROM p IN PARA "
    "WHERE p -> getContaining('MMFDOC') -> getAttributeValue('YEAR') = '{year}' "
    "AND p -> getIRSValue(collPara, '{term}') > 0.42"
)
Q_DOC = (
    "ACCESS d FROM d IN MMFDOC "
    "WHERE d -> getAttributeValue('YEAR') = '{year}' "
    "AND d -> getIRSValue(collPara, '{term}') > 0.42"
)
Q2 = (
    "ACCESS d -> getAttributeValue('TITLE') "
    "FROM d IN MMFDOC, p1 IN PARA, p2 IN PARA "
    "WHERE d -> getAttributeValue('YEAR') = '{year}' AND "
    "p1 -> getNext() == p2 AND "
    "p1 -> getContaining('MMFDOC') == d AND "
    "p1 -> getIRSValue(collPara, '{term}') > 0.42 AND "
    "p2 -> getIRSValue(collPara, '{term2}') > 0.42"
)


class MixedVql(Workload):
    """The paper's Section 4.4 mixed structure+content queries."""

    name = "mixed_vql"
    #: Twenty executes in the issue's proportions: 50 % Q1, 25 % Q1 with a
    #: YEAR predicate, 20 % document-level, 5 % the three-variable Q2.
    BLOCK = interleave({"q1": 10, "q1_year": 5, "q_doc": 4, "q2": 1})
    #: Content terms: vocabulary ranks 40..79, each in roughly 5-10 % of the
    #: PARAs.  The 40 most frequent words match nearly every PARA, which no
    #: one searches for.
    POOL = (40, 80)
    CHECKS_PER_SHAPE = 2

    def generate(self, rng) -> List[tuple]:
        self.docs = make_docs(self.vocabulary, rng, self.sizes["docs"])
        pool = self.vocabulary.terms[self.POOL[0] : self.POOL[1]]
        weights = [1.0 / rank for rank in range(1, len(pool) + 1)]
        # Q2's join order follows candidate-set sizes: with the rarer term
        # on p1 the optimizer binds p1 before p2 and both join conjuncts
        # prune early.  The other order examines about eight times the
        # tuples for the same rows, so a random pair makes Q2 cost 0.4 s or
        # 3.5 s by coin flip and no run-to-run bound could hold.
        rare, common = pool[-10:], pool[:10]
        cumulative = list(itertools.accumulate(weights))
        ops: List[tuple] = []
        while len(ops) < self.sizes["ops"]:
            # One stratified Zipf draw per operation of the block: the k-th
            # of n draws of a shape comes from the k-th n-quantile (in
            # shuffled order), so every block asks for frequent and rare
            # terms in the same proportion.
            draws = {
                shape: stratified(rng, self.BLOCK.count(shape))
                for shape in dict.fromkeys(self.BLOCK)
            }
            # Ten operations of a block carry a YEAR: each year once.
            years = rng.sample(YEARS, len(YEARS))
            for shape in self.BLOCK:
                point = draws[shape].pop() * cumulative[-1]
                term = pool[bisect.bisect_left(cumulative, point)]
                year = years.pop() if shape != "q1" else ""
                if shape == "q1":
                    text = Q1.format(term=term)
                elif shape == "q1_year":
                    text = Q1_YEAR.format(term=term, year=year)
                elif shape == "q_doc":
                    text = Q_DOC.format(term=term, year=year)
                else:
                    term = rng.choice(rare)
                    text = Q2.format(term=term, term2=rng.choice(common), year=year)
                ops.append(("execute", shape, text, term, year))
        self.samples: Dict[str, list] = defaultdict(list)
        return ops[: self.sizes["ops"]]

    def setup(self, meter: SpeedMeter) -> Dict[str, float]:
        self.system, _dtd, self.collection, roots, phases = build_system(self.docs, meter)
        self.session = self.system.session
        self.bindings = {COLLECTION: self.collection}
        self.year_of_para = {
            oid: spec.year
            for spec, root in zip(self.docs, roots)
            for oid in para_oids(root)
        }
        return phases

    def execute(self, index: int, op: tuple) -> None:
        _kind, shape, text, term, year = op
        rows = self.session.execute(text, self.bindings)
        if shape in ("q1", "q1_year") and len(self.samples[shape]) < self.CHECKS_PER_SHAPE:
            self.samples[shape].append((term, year, {row[0].oid for row in rows}))

    def check(self) -> Tuple[int, List[str]]:
        """Sampled Q1 / Q1-year rows equal a brute-force filter over all PARAs."""
        mismatches = []
        checked = 0
        for shape, samples in self.samples.items():
            for term, year, got in samples:
                expected = set()
                for oid, para_year in self.year_of_para.items():
                    if shape == "q1_year" and para_year != year:
                        continue
                    if self.session.find_value(self.collection, term, oid) > 0.42:
                        expected.add(oid)
                checked += 1
                if got != expected:
                    mismatches.append(
                        f"{shape} for {term!r}/{year}: {len(got)} rows, "
                        f"brute force finds {len(expected)}"
                    )
        return checked, mismatches


# --------------------------------------------------------------------------
# update_mix
# --------------------------------------------------------------------------

class UpdateMix(Workload):
    """Cold queries interleaved with Section 4.6 writes on a durable system."""

    name = "update_mix"
    stop_after = "restart"
    #: Ten operations: 60 % queries, 10 % add, 20 % update, 10 % remove.
    BLOCK = interleave({"query": 6, "update": 2, "add": 1, "remove": 1})
    PROPAGATE_EVERY = 50
    CHECKPOINT_EVERY = 250
    PROBES = 20

    def __init__(self, seed: int, sizes: Dict[str, int], scratch: str) -> None:
        self.directory: Optional[str] = None
        super().__init__(seed, sizes, scratch)

    def generate(self, rng) -> List[tuple]:
        initial = make_docs(self.vocabulary, rng, self.sizes["docs"])
        self.initial = initial
        total = self.sizes["cycles"] * self.sizes["cycle_ops"]
        queries = iter(distinct_queries(self.vocabulary, rng, total))
        live = [spec.key for spec in initial]
        next_key = len(initial)
        ops: List[tuple] = []
        count = 0
        while count < total:
            for kind in self.BLOCK:
                if kind == "query":
                    ops.append(("query", next(queries)[0]))
                elif kind == "add":
                    ops.append(("add", make_doc(self.vocabulary, rng, next_key)))
                    live.append(next_key)
                    next_key += 1
                elif kind == "update":
                    key = live[rng.randrange(len(live))]
                    ops.append(
                        ("update", key, rng.randrange(5),
                         self.vocabulary.text(rng, PARA_WORDS))
                    )
                else:
                    slot = rng.randrange(len(live))
                    live[slot], live[-1] = live[-1], live[slot]
                    ops.append(("remove", live.pop()))
                count += 1
                if count % self.PROPAGATE_EVERY == 0:
                    ops.append(("propagate",))
                if count % self.CHECKPOINT_EVERY == 0:
                    ops.append(("checkpoint",))
                if count % self.sizes["cycle_ops"] == 0:
                    ops.append(("restart", self.vocabulary.draw(rng, 1)[0]))
        self.probes = [self.vocabulary.draw(rng, 1)[0] for _ in range(self.PROBES)]
        self.restarts = 0
        self.restart_mismatches: List[str] = []
        return ops

    def setup(self, meter: SpeedMeter) -> Dict[str, float]:
        os.makedirs(self.scratch, exist_ok=True)
        self.directory = tempfile.mkdtemp(prefix="update_mix-", dir=self.scratch)
        self.system, self.dtd, _collection, roots, phases = build_system(
            self.initial, meter, self.directory
        )
        self.system.session.checkpoint()
        self._bind()
        self.docs: Dict[int, DocSpec] = {spec.key: spec for spec in self.initial}
        self.handles = {
            spec.key: (root.oid, para_oids(root))
            for spec, root in zip(self.initial, roots)
        }
        return phases

    def _bind(self) -> None:
        self.session = self.system.session
        self.collection = self.session.collection(COLLECTION)

    def teardown(self) -> None:
        try:
            super().teardown()
        finally:
            if self.directory is not None:
                shutil.rmtree(self.directory, ignore_errors=True)
                self.directory = None

    def execute(self, index: int, op: tuple) -> None:
        kind = op[0]
        system, db = self.system, self.system.db
        if kind == "query":
            self.session.query(self.collection, op[1], top_k=TOP_K)
        elif kind == "add":
            spec = op[1]
            with db.begin():
                root = system.add_document(spec.element(), dtd=self.dtd)
                oids = para_oids(root)
                for oid in oids:
                    self.collection.send("insertObject", db.get_object(oid))
            self.docs[spec.key] = spec
            self.handles[spec.key] = (root.oid, oids)
        elif kind == "update":
            _kind, key, para, text = op
            element = db.get_object(self.handles[key][1][para])
            with db.begin():
                system.loader.update_content(element, text)
                self.collection.send("modifyObject", element)
            self.docs[key].paras[para] = text
        elif kind == "remove":
            root_oid, oids = self.handles.pop(op[1])
            with db.begin():
                for oid in oids:
                    self.session.remove(self.collection, oid)
                system.delete_document(db.get_object(root_oid))
            del self.docs[op[1]]
        elif kind == "propagate":
            self.session.propagate(self.collection)
        elif kind == "checkpoint":
            self.session.checkpoint()
        else:
            self._restart(op[1])

    def _restart(self, probe: str) -> None:
        """Close, reopen from disk, and ask one query whose answer is known."""
        before = ranking(self.session.query(self.collection, probe, top_k=TOP_K))
        self.system.close()
        self.system = DocumentSystem(directory=self.directory, storage="store")
        self._bind()
        after = ranking(self.session.query(self.collection, probe, top_k=TOP_K))
        self.restarts += 1
        if after != before:
            self.restart_mismatches.append(f"ranking of {probe!r} changed across a restart")

    def store_bytes_per_para(self) -> float:
        paras = sum(len(oids) for _root, oids in self.handles.values())
        return os.path.getsize(os.path.join(self.directory, "irs.store")) / paras

    def check(self) -> Tuple[int, List[str]]:
        """Probe rankings equal a fresh in-memory rebuild of the final state."""
        mismatches = list(self.restart_mismatches)
        checked = self.restarts
        final = list(self.docs.values())
        fresh, _dtd, fresh_collection, fresh_roots, _phases = build_system(
            final, SpeedMeter()
        )
        try:
            fresh_name = {
                str(oid): (spec.key, para)
                for spec, root in zip(final, fresh_roots)
                for para, oid in enumerate(para_oids(root))
            }
            live_name = {
                str(oid): (key, para)
                for key, (_root, oids) in self.handles.items()
                for para, oid in enumerate(oids)
            }
            for number, probe in enumerate(self.probes):
                # An explicit model scores through the engine API; the
                # default path of a durable system goes through the paper's
                # result file, which keeps six decimals.
                model = MODELS[number % 2]
                got = {
                    live_name.get(oid, oid): score
                    for oid, score in ranking(
                        self.session.query(self.collection, probe, model=model)
                    )
                }
                expected = {
                    fresh_name[oid]: score
                    for oid, score in ranking(
                        fresh.session.query(fresh_collection, probe, model=model)
                    )
                }
                checked += 1
                if got != expected:
                    mismatches.append(
                        f"ranking of {probe!r} differs from a fresh rebuild "
                        f"({len(got)} vs {len(expected)} hits)"
                    )
        finally:
            fresh.close()
        return checked, mismatches


# --------------------------------------------------------------------------
# remote_hot
# --------------------------------------------------------------------------

class RemoteHot(Workload):
    """A small hot query pool asked over the wire by concurrent clients."""

    name = "remote_hot"
    POOL = 64
    SERVER_WORKERS = 2

    def __init__(self, seed: int, sizes: Dict[str, int], scratch: str) -> None:
        self.clients = min(2, os.cpu_count() or 1)
        self.sessions: List[Any] = []
        super().__init__(seed, sizes, scratch)

    def generate(self, rng) -> List[tuple]:
        self.docs = make_docs(self.vocabulary, rng, self.sizes["docs"])
        self.pool = distinct_queries(self.vocabulary, rng, self.POOL)
        weights = [1.0 / rank for rank in range(1, self.POOL + 1)]
        picks = rng.choices(range(self.POOL), weights, k=self.sizes["ops"])
        return [("query", pick) for pick in picks]

    def setup(self, meter: SpeedMeter) -> Dict[str, float]:
        self.system, _dtd, self.collection, _roots, phases = build_system(self.docs, meter)
        server = self.system.serve(port=0, workers=self.SERVER_WORKERS)
        host, port = server.address
        for _ in range(self.clients):
            self.sessions.append(repro.connect(f"tcp://{host}:{port}", pool_size=1))
        return phases

    def teardown(self) -> None:
        try:
            while self.sessions:
                self.sessions.pop().close()
        finally:
            super().teardown()

    def _ask(self, session: Any, pick: int) -> Any:
        query, model = self.pool[pick]
        return session.query(COLLECTION, query, model=model, top_k=TOP_K)

    def drive(
        self,
        start: int,
        seconds: float,
        recorder: Recorder,
        tracer: Any = None,
        limit: Optional[int] = None,
    ) -> int:
        """Client ``c`` runs operations ``start + c, start + c + clients, ...``.

        The clients run in rounds of one slice; between rounds they wait at
        a barrier while the speed kernel runs alone.
        """
        ops, clients = self.ops, self.clients
        end = len(ops) if limit is None else min(len(ops), start + limit)
        position = [start + slot for slot in range(clients)]
        samples: List[List[float]] = [[] for _ in range(clients)]
        failures = [Recorder() for _ in range(clients)]
        telemetry: List[List[Any]] = [[] for _ in range(clients)]
        gate = threading.Barrier(clients + 1)
        round_ends = [0.0]
        finished = [False]

        def client(slot: int) -> None:
            session = self.sessions[slot]
            while True:
                gate.wait()
                if finished[0]:
                    return
                index = position[slot]
                while index < end:
                    if tracer is not None:
                        tracer.begin_op("query", index)
                    t0 = perf_counter()
                    try:
                        result = self._ask(session, ops[index][1])
                        if tracer is not None:
                            telemetry[slot].append(result.telemetry)
                    except Exception:  # counted; the client goes on
                        failures[slot].fail("query")
                    t1 = perf_counter()
                    if tracer is not None:
                        tracer.end_op()
                    samples[slot].append(t1 - t0)
                    index += clients
                    if t1 >= round_ends[0]:
                        break
                position[slot] = index
                gate.wait()

        threads = [
            threading.Thread(target=client, args=(slot,), name=f"bench-client-{slot}")
            for slot in range(clients)
        ]
        for thread in threads:
            thread.start()
        deadline = perf_counter() + seconds
        meter = SpeedMeter()
        while True:
            round_ends[0] = min(deadline, perf_counter() + SLICE_SECONDS)
            gate.wait()
            gate.wait()
            factor = meter.tick()
            for mine in samples:
                recorder.latencies["query"].extend(s * factor for s in mine)
                mine.clear()
            if perf_counter() >= deadline or min(position) >= end:
                break
        finished[0] = True
        gate.wait()
        for thread in threads:
            thread.join()
        recorder.wall += meter.normalised
        recorder.raw_wall += meter.raw
        for mine in failures:
            recorder.failed += mine.failed
            recorder.errors.extend(mine.errors)
        self.telemetry.extend(t for mine in telemetry for t in mine if t is not None)
        return max(position)

    def check(self) -> Tuple[int, List[str]]:
        """Every pool query is bit-equal remote vs inline."""
        mismatches = []
        for pick, (query, model) in enumerate(self.pool):
            remote = ranking(self._ask(self.sessions[0], pick))
            inline = ranking(
                self.system.session.query(self.collection, query, model=model, top_k=TOP_K)
            )
            if remote != inline:
                mismatches.append(f"remote ranking of {query!r} ({model}) differs from inline")
        return len(self.pool), mismatches


WORKLOADS = {cls.name: cls for cls in (RankedCold, MixedVql, UpdateMix, RemoteHot)}
NAMES = tuple(WORKLOADS)


def create(name: str, seed: int, smoke: bool, scratch: str) -> Workload:
    sizes = SIZES["smoke" if smoke else "full"][name]
    return WORKLOADS[name](seed, sizes, scratch)
