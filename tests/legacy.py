"""The sharded layout older builds wrote, reproduced for import tests.

Builds before the one-manager collection could partition a collection's
documents across N segment managers ("shards"), routed by document.  What
they stored still opens: every shard's sealed segments and memtable load,
in shard order, as sealed segments of the collection's one manager (see
``IRSCollection.from_payload`` and ``repro.store.engine_io``).

:class:`ShardedHistory` replays a write history the way such a build
partitioned it, so a suite can check the import at any shard count;
:meth:`ShardedHistory.load` is what opening its files gives, and
:func:`write_sharded_store` writes the ``sharded`` store entry itself.
:func:`index_payload` writes an index in the older JSON index schema
(docs/storage-format.md), which no code in ``src`` writes any more.
The fixtures under ``tests/store/fixtures`` pin the bytes real older
builds wrote; these helpers only reproduce their shape.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.irs.analysis import Analyzer
from repro.irs.collection import IRSCollection, IRSDocument
from repro.irs.segments import SegmentConfig, SegmentManager
from repro.store import blocks
from repro.store.blocks import encode_json
from repro.store.file import StoreFile


def index_payload(index) -> dict:
    """``index`` — any index source: its ``doc_lengths``, ``terms()`` and
    ``postings(term)`` — in the older JSON index schema."""
    return {
        "doc_lengths": {str(doc_id): length for doc_id, length in index.doc_lengths.items()},
        "postings": {
            term: {str(posting.doc_id): posting.positions for posting in index.postings(term)}
            for term in index.terms()
        },
    }


class ShardedHistory:
    """A collection's writes, partitioned by doc id across ``shards``
    segment managers, each sealing at ``segment_config`` on its own."""

    def __init__(
        self,
        name: str,
        shards: int,
        analyzer: Optional[Analyzer] = None,
        segment_config: Optional[SegmentConfig] = None,
    ) -> None:
        self.name = name
        self.analyzer = analyzer or Analyzer()
        self.parts = [
            SegmentManager(f"{name}#{i}", segment_config) for i in range(shards)
        ]
        self._documents: Dict[int, IRSDocument] = {}
        self._next_doc_id = 1

    def _part(self, doc_id: int) -> SegmentManager:
        return self.parts[doc_id % len(self.parts)]

    def add_document(self, text: str, metadata: Optional[Dict[str, str]] = None) -> int:
        doc_id = self._next_doc_id
        self._next_doc_id += 1
        self._documents[doc_id] = IRSDocument(doc_id, text, dict(metadata or {}))
        self._part(doc_id).add_document(doc_id, self.analyzer.tokens(text))
        return doc_id

    def remove_document(self, doc_id: int) -> None:
        del self._documents[doc_id]
        self._part(doc_id).remove_document(doc_id)

    def replace_document(self, doc_id: int, text: str) -> None:
        """Re-index on the document's own shard, as the routing kept it."""
        document = self._documents[doc_id]
        part = self._part(doc_id)
        part.remove_document(doc_id)
        document.text = text
        document.revision += 1
        part.add_document(doc_id, self.analyzer.tokens(text))

    def documents(self) -> List[dict]:
        return [
            {
                "doc_id": doc.doc_id,
                "text": doc.text,
                "metadata": doc.metadata,
                "revision": doc.revision,
            }
            for _doc_id, doc in sorted(self._documents.items())
        ]

    def payload(self) -> dict:
        """The collection payload the stored shards load as: every shard's
        segments (sealed ones with their tombstones, then its memtable),
        concatenated in shard order."""
        segments = []
        for part in self.parts:
            segments.extend(
                {"index": index_payload(segment.index), "tombstones": sorted(segment.tombstones)}
                for segment in part.sealed_segments()
            )
            if part.memtable.document_count:
                segments.append({"index": index_payload(part.memtable.index), "tombstones": []})
        return {
            "name": self.name,
            "next_doc_id": self._next_doc_id,
            "documents": self.documents(),
            "segments": segments,
        }

    def load(self, segment_config: Optional[SegmentConfig] = None) -> IRSCollection:
        """The collection opening this history's stored form gives."""
        return IRSCollection.from_payload(self.payload(), self.analyzer, segment_config)


def write_sharded_store(path: str, history: ShardedHistory) -> dict:
    """Commit ``history`` as the one collection of a new store whose
    manifest holds a ``sharded`` entry: one part per shard, each with its
    segment records and its memtable record.  Returns the records and
    bytes the write appended, as ``SingleFileStore.checkpoint`` reports
    them."""
    appended = {"records_appended": 0, "bytes_appended": 0}

    def record(file, kind, payload):
        offset, length = file.append_record(kind, encode_json(payload))
        appended["records_appended"] += 1
        appended["bytes_appended"] += length
        return [offset, length]

    with StoreFile(path) as file:
        shards = []
        for part in history.parts:
            segments = []
            for segment in part.sealed_segments():
                offset, length = record(
                    file, blocks.KIND_SEGMENT, {"index": index_payload(segment.index)}
                )
                segments.append(
                    {
                        "offset": offset,
                        "length": length,
                        "tombstones": sorted(segment.tombstones),
                        "documents": segment.index.document_count,
                    }
                )
            memtable = None
            if part.memtable.document_count:
                memtable = record(
                    file, blocks.KIND_MEMTABLE, {"index": index_payload(part.memtable.index)}
                )
            shards.append({"segments": segments, "memtable": memtable})
        documents = history.documents()
        entry = {
            "analyzer": history.analyzer.config(),
            "next_doc_id": history._next_doc_id,
            "document_count": len(documents),
            "doc_batches": [record(file, blocks.KIND_DOCS, {"documents": documents})],
            "removed_docs": [],
            "layout": "sharded",
            "shard_count": len(shards),
            "shards": shards,
        }
        file.commit(
            encode_json(
                {
                    "checkpoint_id": 1,
                    "prev": None,
                    "engine": {"default_model": "inquery", "shard_count": len(shards)},
                    "gens": {},
                    "collections": {history.name: entry},
                }
            )
        )
    return appended
