""":class:`SingleFileStore` — whole-engine persistence in one file.

Section 1.1: the internal representations "are stored in a file system".
Every collection serializes into one append-only
:class:`~repro.store.file.StoreFile`; a checkpoint appends only what
changed since the previous one:

* **sealed segments** are written exactly once, in their native block
  form (``blocks`` records, ``CompactIndex.to_bytes``).  A written or
  loaded segment gets a ``store_stamp`` (token, offset, length); later
  checkpoints reference the existing record.  Tombstones travel in the
  *manifest* entry, so deleting documents never rewrites a segment record.
* **documents** append as delta batches: only documents whose
  ``(doc_id, revision)`` changed since the last checkpoint.  Removals are
  listed in the manifest; once the removal list outgrows the live set,
  the batches are rewritten from scratch (self-trimming).

Before writing a materialized collection's entry, the checkpoint seals
its memtable and folds what the size-tiered policy picks
(``SegmentManager.seal_and_fold``), under the collection's write lock: a
manifest references only sealed segments, never a memtable, and a fold's
inputs drop out of it (their records stay dead until :meth:`pack`).

The manifest (one JSON record + footer per checkpoint) is the atomic
commit: crash anywhere before the footer fsync leaves the previous
checkpoint intact (see :mod:`repro.store.file` for recovery).

Loading is lazy by default: each collection registers a loader with the
engine and materializes from the manifest on first touch, so
restart-to-first-query cost is O(touched collections), not O(corpus).
Materialization parses each segment record into the ``CompactIndex``
it is (``from_bytes``, no posting re-encoded) and hands documents and segments
to ``IRSCollection.from_payload``.  An untouched collection's manifest
entry is carried forward verbatim.  This module knows one layout: a
``segmented`` entry of native records.  What older builds wrote is
converted when the store opens, by :mod:`repro.store.importer`.

Offline :meth:`pack` copies live records into a fresh file and atomically
replaces the store, keeping a one-generation offset remap so segment
stamps stay valid across the compaction.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, List, Optional, Set, Tuple

from repro import obs
from repro.errors import StoreError
from repro.irs.postings import CompactIndex
from repro.store import blocks
from repro.store.blocks import encode_json
from repro.store.file import StoreFile, fsync_directory
from repro.store.importer import import_store


class _CollectionState:
    """Incremental bookkeeping for one collection between checkpoints."""

    __slots__ = ("revisions", "batches", "removed")

    def __init__(self) -> None:
        #: doc id -> revision as of the last persisted batch.
        self.revisions: Dict[int, int] = {}
        #: ``[offset, length]`` of every live document batch, oldest first.
        self.batches: List[List[int]] = []
        #: doc ids persisted in some batch and since removed.
        self.removed: Set[int] = set()


class SingleFileStore:
    """The engine's single-file durable store (see module docstring)."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.file = StoreFile(path)
        self.manifest: Optional[dict] = import_store(self.file, self.file.read_manifest())
        self._state: Dict[str, _CollectionState] = {}
        #: One-generation stamp translation after :meth:`pack`:
        #: ``(previous_token, {old_offset: [new_offset, length]})``.
        self._remap: Optional[Tuple[int, Dict[int, List[int]]]] = None
        self._live_bytes = self._compute_live_bytes(self.manifest)
        self.last_checkpoint_seconds: Optional[float] = None
        if self.file.recovered_tail_bytes:
            registry = obs.metrics()
            registry.counter("store.recoveries").inc()
            registry.counter("store.recovered.tail_bytes").inc(
                self.file.recovered_tail_bytes
            )

    @property
    def token(self) -> int:
        return self.file.token

    @property
    def checkpoint_id(self) -> int:
        return self.manifest["checkpoint_id"] if self.manifest else 0

    # ------------------------------------------------------------------
    # checkpoint
    # ------------------------------------------------------------------

    def checkpoint(self, engine, gens: Optional[Dict[str, int]] = None) -> dict:
        """Append one incremental checkpoint of ``engine`` and commit it.

        ``gens`` are the OODB-side index generations recorded alongside
        (see ``DocumentSystem.checkpoint``): on restart, a collection
        whose database generation outruns the stored one is reindexed
        from the recovered database state.
        """
        registry = obs.metrics()
        started = time.perf_counter()
        self._appended = 0
        self._reused = 0
        self._appended_bytes = 0
        with obs.tracer().span("store.checkpoint", path=self.path):
            previous = (self.manifest or {}).get("collections", {})
            collections: Dict[str, dict] = {}
            for name in engine.collection_names():
                if engine.is_lazy(name) and name in previous:
                    # Untouched since load: its records and manifest entry
                    # are still exact — carry the entry forward verbatim.
                    collections[name] = previous[name]
                    continue
                collection = engine.collection(name)
                with engine.mutating(name):
                    collection.segments.seal_and_fold()
                    collections[name] = self._collection_entry(name, collection)
            for name in list(self._state):
                if name not in collections:
                    del self._state[name]
            manifest = {
                "checkpoint_id": self.checkpoint_id + 1,
                "prev": self.file.manifest_offset,
                "engine": {"default_model": engine._default_model},
                "gens": dict(gens or {}),
                "collections": collections,
            }
            self.file.commit(encode_json(manifest))
            self.manifest = manifest
            self._live_bytes = self._compute_live_bytes(manifest)
        elapsed = time.perf_counter() - started
        self.last_checkpoint_seconds = elapsed
        registry.counter("store.checkpoints").inc()
        registry.counter("store.records.appended").inc(self._appended)
        registry.counter("store.records.reused").inc(self._reused)
        registry.counter("store.bytes.appended").inc(self._appended_bytes)
        registry.rolling("store.checkpoint.seconds").observe(elapsed)
        self._update_size_gauges(registry)
        return {
            "checkpoint_id": manifest["checkpoint_id"],
            "seconds": elapsed,
            "records_appended": self._appended,
            "records_reused": self._reused,
            "bytes_appended": self._appended_bytes,
            "size_bytes": self.file.size,
            "live_bytes": self._live_bytes,
            "dead_bytes": max(0, self.file.size - self._live_bytes),
        }

    def _append(self, kind: int, payload: bytes) -> List[int]:
        offset, length = self.file.append_record(kind, payload)
        self._appended += 1
        self._appended_bytes += length
        return [offset, length]

    def _collection_entry(self, name: str, collection) -> dict:
        state = self._state.setdefault(name, _CollectionState())
        entry: Dict[str, Any] = {
            "analyzer": collection.analyzer.config(),
            "next_doc_id": collection._next_doc_id,
            "document_count": len(collection._documents),
        }
        self._checkpoint_docs(state, collection, entry)
        entry["layout"] = "segmented"
        entry["segments"] = [
            self._segment_entry(segment)
            for segment in collection.segments.sealed_segments()
        ]
        return entry

    def _checkpoint_docs(self, state, collection, entry) -> None:
        current = {
            doc.doc_id: doc.revision
            for doc in collection._documents.values()
        }
        removed = [
            doc_id for doc_id in state.revisions if doc_id not in current
        ]
        state.removed.update(removed)
        for doc_id in removed:
            del state.revisions[doc_id]
        if state.removed and len(state.removed) > max(64, len(current)):
            # More dead than alive: rewrite the batches from scratch so
            # replay cost stays proportional to the live set.
            state.batches = []
            state.removed = set()
            state.revisions = {}
            changed = sorted(current)
        else:
            changed = sorted(
                doc_id
                for doc_id, revision in current.items()
                if state.revisions.get(doc_id) != revision
            )
        if changed:
            batch = []
            for doc_id in changed:
                doc = collection._documents[doc_id]
                batch.append(
                    {
                        "doc_id": doc.doc_id,
                        "text": doc.text,
                        "metadata": doc.metadata,
                        "revision": doc.revision,
                    }
                )
                state.revisions[doc_id] = current[doc_id]
            state.batches.append(
                self._append(blocks.KIND_DOCS, encode_json({"documents": batch}))
            )
        entry["doc_batches"] = [list(ref) for ref in state.batches]
        entry["removed_docs"] = sorted(state.removed)

    def _segment_entry(self, segment) -> dict:
        offset, length = self._segment_ref(segment)
        return {
            "offset": offset,
            "length": length,
            "tombstones": sorted(segment.tombstones),
            "documents": segment.index.document_count,
        }

    def _segment_ref(self, segment) -> Tuple[int, int]:
        """The (offset, length) of a sealed segment — written at most once."""
        stamp = segment.store_stamp
        if stamp is not None:
            token, offset, length = stamp
            if token == self.token:
                self._reused += 1
                return offset, length
            if self._remap is not None and token == self._remap[0]:
                moved = self._remap[1].get(offset)
                if moved is not None:
                    segment.store_stamp = (self.token, moved[0], moved[1])
                    self._reused += 1
                    return moved[0], moved[1]
        ref = self._append(blocks.KIND_BLOCKS, segment.index.to_bytes())
        segment.store_stamp = (self.token, ref[0], ref[1])
        return ref[0], ref[1]

    # ------------------------------------------------------------------
    # load
    # ------------------------------------------------------------------

    def load_engine(
        self,
        default_model: str = "inquery",
        analyzer=None,
        lazy: bool = True,
    ):
        """Build an engine over the last checkpoint.

        With ``lazy=True`` (the default) collections register loaders and
        materialize on first touch; ``lazy=False`` loads everything now
        (the eager baseline the restart benchmark compares against).
        """
        from repro.irs.engine import IRSEngine

        engine = IRSEngine(default_model=default_model, analyzer=analyzer)
        manifest = self.manifest
        if manifest is None:
            return engine
        for name in sorted(manifest["collections"]):
            if lazy:
                engine.register_lazy_collection(name, self._loader(engine, name))
            else:
                engine._collections[name] = self._loader(engine, name)()
        return engine

    def _loader(self, engine, name: str):
        def build():
            entry = (self.manifest or {}).get("collections", {}).get(name)
            if entry is None:
                raise StoreError(
                    f"collection {name!r} vanished from the store manifest"
                )
            return self._materialize(engine, name, entry)

        return build

    def _materialize(self, engine, name: str, entry: dict):
        """Build one collection and prime its incremental bookkeeping, so
        the very next checkpoint is already a delta: its documents, and
        every segment, are referenced, not rewritten."""
        from repro.irs.collection import IRSCollection

        refs = entry["segments"]
        segments = [
            {
                "index": CompactIndex.from_bytes(
                    self.file.read_record(ref["offset"], ref["length"], blocks.KIND_BLOCKS)
                ),
                "tombstones": ref["tombstones"],
            }
            for ref in refs
        ]
        payload = {
            "name": name,
            "next_doc_id": entry["next_doc_id"],
            "analyzer": entry["analyzer"],
            "documents": self._replay_docs(entry),
            "segments": segments,
        }
        collection = IRSCollection.from_payload(
            payload, engine._analyzer, segment_config=engine.segment_config
        )
        state = _CollectionState()
        state.revisions = {
            doc.doc_id: doc.revision
            for doc in collection._documents.values()
        }
        state.batches = [list(ref) for ref in entry["doc_batches"]]
        state.removed = set(entry["removed_docs"])
        self._state[name] = state
        for segment, ref in zip(collection.segments.sealed_segments(), refs):
            segment.store_stamp = (self.token, ref["offset"], ref["length"])
        return collection

    def _replay_docs(self, entry: dict) -> List[dict]:
        documents: Dict[int, dict] = {}
        for offset, length in entry["doc_batches"]:
            batch = self.file.read_json(offset, length, blocks.KIND_DOCS)
            for doc in batch["documents"]:
                documents[doc["doc_id"]] = doc
        for doc_id in entry["removed_docs"]:
            documents.pop(doc_id, None)
        return [documents[doc_id] for doc_id in sorted(documents)]

    # ------------------------------------------------------------------
    # pack
    # ------------------------------------------------------------------

    def pack(self) -> dict:
        """Offline compaction: copy live records into a fresh file.

        Atomic (write-new + ``os.replace``); requires a quiesced system —
        ``DocumentSystem.pack`` checkpoints first, and no concurrent
        checkpoint or materialization may run during the copy.  Segment
        stamps survive via a one-generation offset remap.
        """
        registry = obs.metrics()
        manifest = self.manifest
        if manifest is None:
            return {"packed": False, "reclaimed_bytes": 0, "size_bytes": self.file.size}
        started = time.perf_counter()
        with obs.tracer().span("store.pack", path=self.path):
            old_size = self.file.size
            old_token = self.token
            tmp_path = self.path + ".pack"
            if os.path.exists(tmp_path):
                os.remove(tmp_path)
            new_file = StoreFile(tmp_path)
            remap: Dict[int, List[int]] = {}
            collections = {
                name: self._pack_entry(entry, new_file, remap)
                for name, entry in manifest["collections"].items()
            }
            new_manifest = dict(manifest)
            new_manifest["checkpoint_id"] = manifest["checkpoint_id"] + 1
            new_manifest["collections"] = collections
            new_manifest["prev"] = None
            new_file.commit(encode_json(new_manifest))
            new_file.close()
            self.file.close()
            os.replace(tmp_path, self.path)
            fsync_directory(self.path)
            self.file = StoreFile(self.path)
            self.manifest = self.file.read_manifest()
            self._remap = (old_token, remap)
            self._live_bytes = self._compute_live_bytes(self.manifest)
            self._repoint_state(remap)
        registry.counter("store.packs").inc()
        self._update_size_gauges(registry)
        return {
            "packed": True,
            "seconds": time.perf_counter() - started,
            "reclaimed_bytes": max(0, old_size - self.file.size),
            "size_bytes": self.file.size,
        }

    def _pack_entry(self, entry: dict, new_file: StoreFile, remap) -> dict:
        packed = dict(entry)
        # Documents: merge all delta batches into one live batch.
        documents = self._replay_docs(entry)
        if documents or entry["doc_batches"]:
            data = encode_json({"documents": documents})
            offset, length = new_file.append_record(blocks.KIND_DOCS, data)
            packed["doc_batches"] = [[offset, length]]
        else:
            packed["doc_batches"] = []
        packed["removed_docs"] = []
        # Index records: copied verbatim.
        segments = []
        for segment in entry["segments"]:
            offset, length = self._copy_record(
                segment["offset"], segment["length"], new_file, remap
            )
            segments.append(dict(segment, offset=offset, length=length))
        packed["segments"] = segments
        return packed

    def _copy_record(self, offset: int, length: int, new_file: StoreFile, remap) -> List[int]:
        already = remap.get(offset)
        if already is not None:
            return list(already)
        data = self.file._pread(offset, length)
        blocks.verify_record(data)
        new_offset, new_length = new_file.append_raw(data)
        remap[offset] = [new_offset, new_length]
        return [new_offset, new_length]

    def _repoint_state(self, remap: Dict[int, List[int]]) -> None:
        new_collections = (self.manifest or {}).get("collections", {})
        for name, state in self._state.items():
            entry = new_collections.get(name)
            if entry is None:
                continue
            state.batches = [list(ref) for ref in entry["doc_batches"]]
            state.removed = set(entry["removed_docs"])

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------

    def _compute_live_bytes(self, manifest: Optional[dict]) -> int:
        total = blocks.SUPER_SIZE
        if manifest is None:
            return total
        total += self.file.manifest_length + blocks.FOOTER_SIZE
        live: Dict[int, int] = {}  # offset -> length; shared refs count once
        for entry in manifest["collections"].values():
            for offset, length in entry["doc_batches"]:
                live[offset] = length
            for segment in entry["segments"]:
                live[segment["offset"]] = segment["length"]
        return total + sum(live.values())

    def _update_size_gauges(self, registry) -> None:
        size = self.file.size
        dead = max(0, size - self._live_bytes)
        registry.gauge("store.bytes.total").set(size)
        registry.gauge("store.bytes.live").set(self._live_bytes)
        registry.gauge("store.bytes.dead").set(dead)

    def dirty_info(self, engine) -> Dict[str, int]:
        """Approximate un-checkpointed volume, for ``health()["storage"]``.

        ``approx_bytes`` counts text characters of documents whose
        revision moved since the last checkpoint plus the heap estimate
        of the memtables the next checkpoint seals — a trend signal (how
        much would the next checkpoint write), not an exact byte count.
        """
        documents = 0
        approx_bytes = 0
        for name in engine.collection_names():
            collection = engine._collections.get(name)
            if collection is None:  # lazy and untouched: clean by definition
                continue
            state = self._state.get(name)
            revisions = state.revisions if state is not None else {}
            for doc in collection._documents.values():
                if revisions.get(doc.doc_id) != doc.revision:
                    documents += 1
                    approx_bytes += len(doc.text)
            approx_bytes += collection.segments.memtable.approx_bytes()
        return {"documents": documents, "approx_bytes": approx_bytes}

    def stats(self) -> Dict[str, Any]:
        size = self.file.size
        dead = max(0, size - self._live_bytes)
        return {
            "path": self.path,
            "size_bytes": size,
            "live_bytes": self._live_bytes,
            "dead_bytes": dead,
            "dead_ratio": dead / size if size else 0.0,
            "checkpoints": self.checkpoint_id,
            "last_checkpoint_seconds": self.last_checkpoint_seconds,
            "recovered_tail_bytes": self.file.recovered_tail_bytes,
        }

    def gens(self) -> Dict[str, int]:
        """The OODB index generations recorded at the last checkpoint."""
        return dict((self.manifest or {}).get("gens", {}))

    def close(self) -> None:
        self.file.close()

    def __enter__(self) -> "SingleFileStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
