"""Seeded MMF corpus and system builder for the benchmark.

The stock ``repro.workloads.corpus.CorpusGenerator`` draws from 80 distinct
terms, so every posting list is long and every query looks alike.  This
generator draws from a 5 000-word vocabulary with Zipf frequencies: a few
long posting lists, a long tail of short ones, and enough distinct terms to
write thousands of distinct queries.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import DocumentSystem
from repro.sgml.mmf import build_document, mmf_dtd

from bench.speed import SpeedMeter

VOCABULARY_SIZE = 5000
PARAS_PER_DOC = 5
PARA_WORDS = 40
ABSTRACT_WORDS = 15
YEARS = [str(1987 + i) for i in range(10)]
AUTHORS = [f"author{i:02d}" for i in range(50)]

#: Documents loaded between two speed measurements during set-up.
TICK_EVERY_DOCS = 50

COLLECTION = "collPara"
SPEC_QUERY = "ACCESS p FROM p IN PARA"


class Vocabulary:
    """``size`` terms; term of rank r is drawn with weight 1/r."""

    def __init__(self, size: int = VOCABULARY_SIZE) -> None:
        self.terms = [f"w{i:04d}" for i in range(size)]
        self._cumulative = list(
            itertools.accumulate(1.0 / rank for rank in range(1, size + 1))
        )

    def draw(self, rng, k: int) -> List[str]:
        return rng.choices(self.terms, cum_weights=self._cumulative, k=k)

    def text(self, rng, words: int) -> str:
        return " ".join(self.draw(rng, words))


@dataclass
class DocSpec:
    """One document as the harness remembers it (texts, not objects)."""

    key: int
    year: str
    author: str
    abstract: str
    paras: List[str]

    def element(self):
        return build_document(
            f"Doc {self.key}",
            self.paras,
            year=self.year,
            author=self.author,
            abstract=self.abstract,
        )


def make_doc(vocabulary: Vocabulary, rng, key: int) -> DocSpec:
    return DocSpec(
        key=key,
        # Round-robin, so every YEAR predicate selects a tenth of the corpus.
        year=YEARS[key % len(YEARS)],
        author=rng.choice(AUTHORS),
        abstract=vocabulary.text(rng, ABSTRACT_WORDS),
        paras=[vocabulary.text(rng, PARA_WORDS) for _ in range(PARAS_PER_DOC)],
    )


def make_docs(vocabulary: Vocabulary, rng, count: int) -> List[DocSpec]:
    return [make_doc(vocabulary, rng, key) for key in range(count)]


def para_oids(root) -> List[Any]:
    """OIDs of a loaded document's PARA children, in document order."""
    return [
        child.oid for child in root.send("getChildren") if child.get("tag") == "PARA"
    ]


def add_doc(system, dtd, spec: DocSpec):
    """Load one document; on a durable system, as one transaction."""
    if system.store is None:
        return system.add_document(spec.element(), dtd=dtd)
    with system.db.begin():
        return system.add_document(spec.element(), dtd=dtd)


def build_system(
    docs: Sequence[DocSpec], meter: SpeedMeter, directory: Optional[str] = None
) -> Tuple[Any, Any, Any, List[Any], Dict[str, float]]:
    """Build, load and index a system the way every workload starts.

    ``meter`` is ticked between slices of the work, so its normalised time
    grows by the set-up's.  Returns ``(system, dtd, collection, roots,
    phases)``; ``phases`` holds the wall seconds spent loading documents
    (``load_s``, the ``sgml`` layer) and in ``indexObjects`` (``index_s``,
    the ``core`` and ``irs`` layers).
    """
    if directory is None:
        system = DocumentSystem()
    else:
        system = DocumentSystem(directory=directory, storage="store")
    try:
        dtd = mmf_dtd()
        system.register_dtd(dtd)
        meter.tick()
        started = meter.raw
        roots = []
        for number, spec in enumerate(docs):
            if number % TICK_EVERY_DOCS == 0 and number:
                meter.tick()
            roots.append(add_doc(system, dtd, spec))
        meter.tick()
        loaded = meter.raw
        collection = system.session.create_collection(
            COLLECTION, SPEC_QUERY, update_policy="deferred"
        )
        system.session.index(collection)
        meter.tick()
    except BaseException:
        system.close()
        raise
    phases = {"load_s": loaded - started, "index_s": meter.raw - loaded}
    return system, dtd, collection, roots, phases
