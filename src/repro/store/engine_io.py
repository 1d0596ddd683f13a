""":class:`SingleFileStore` — both halves of the coupling in one file.

Section 1.1: the internal representations "are stored in a file system".
Every collection, and the database's objects, serialize into one
append-only :class:`~repro.store.file.StoreFile`; a checkpoint appends
only what changed since the previous one:

* **sealed segments** are written exactly once, in their native block
  form (``blocks`` records, ``CompactIndex.to_bytes``).  A written or
  loaded segment gets a ``store_stamp`` (token, offset, length); later
  checkpoints reference the existing record.  Tombstones travel in the
  *manifest* entry, so deleting documents never rewrites a segment record.
* **documents** append as delta batches: only documents whose
  ``(doc_id, revision)`` changed since the last checkpoint.  Removals are
  listed in the manifest (see :class:`_Batches` for the self-trim rule).
* **objects** — the database image, the manifest's ``objects`` section —
  append the same way: one ``KIND_OBJECTS`` batch of the objects whose
  write version moved (lines encoded by :mod:`repro.oodb.store`), with
  the schema, OID high-water mark and WAL mark of the database.

Before writing a materialized collection's entry, the checkpoint seals
its memtable and folds what the size-tiered policy picks
(``SegmentManager.seal_and_fold``), under the collection's write lock: a
manifest references only sealed segments, never a memtable, and a fold's
inputs drop out of it (their records stay dead until :meth:`pack`).

The manifest (one JSON record + footer per checkpoint) is the atomic
commit of both halves: crash anywhere before the footer fsync leaves the
previous checkpoint intact (see :mod:`repro.store.file` for recovery).

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


class _Batches:
    """Delta batches of one keyed set: a collection's documents, or the
    database's objects.  A checkpoint appends one batch of the entries
    whose revision moved; the manifest lists the keys removed since the
    batches began.  Once they would hold more dead entries (superseded or
    removed) than live ones, and more than 64, one batch of the whole live
    set replaces them, so replay cost stays proportional to the live set.
    """

    __slots__ = ("revisions", "refs", "removed", "entries")

    def __init__(self, revisions=None, refs=(), removed=(), entries: int = 0) -> None:
        self.revisions: Dict[int, int] = revisions or {}  # key -> persisted revision
        self.refs = [list(ref) for ref in refs]  # [offset, length] per live batch
        self.removed: Set[int] = set(removed)
        self.entries = entries  # in the live batches, superseded ones included

    def delta(self, current: Dict[int, int]) -> List[int]:
        """The keys the next batch holds, sorted, given every live key's
        revision; from here on they count as persisted."""
        gone = [key for key in self.revisions if key not in current]
        self.removed.update(gone)
        for key in gone:
            del self.revisions[key]
        changed = [key for key, revision in current.items() if self.revisions.get(key) != revision]
        if self.entries + len(changed) - len(current) > max(64, len(current)):
            self.refs, self.removed, self.entries, changed = [], set(), 0, list(current)
        self.removed.difference_update(changed)  # a restored object is live again
        self.entries += len(changed)
        for key in changed:
            self.revisions[key] = current[key]
        return sorted(changed)

    def repack(self, refs: List[List[int]]) -> None:
        """The batches are now ``refs``, holding just the persisted set."""
        self.refs, self.removed, self.entries = refs, set(), len(self.revisions)


class SingleFileStore:
    """The coupling's single-file durable store (see module docstring)."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.file = StoreFile(path)
        self.manifest: Optional[dict] = import_store(self.file, self.file.read_manifest())
        #: Each materialized collection's document batches.
        self._state: Dict[str, _Batches] = {}
        #: The database's object batches.
        self._objects = _Batches()
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

    def checkpoint(self, engine=None, gens: Optional[Dict[str, int]] = None, objects=None) -> dict:
        """Append one incremental checkpoint and commit it: one manifest,
        one fsync.

        ``objects`` is the database half, ``(table, header)``: its
        :class:`~repro.oodb.store.ObjectStore`, whose objects with a moved
        write version are appended as one batch, and the ``schema``,
        ``oid_high_water`` and ``wal_mark`` of its image.  ``engine`` is
        the IRS half, and ``gens`` the OODB index generations recorded
        with it (see ``checkpoint_coupling``): on restart, a collection
        whose database generation outruns the stored one is reindexed
        from the recovered database state.  A half not given is carried
        forward from the previous manifest.
        """
        registry = obs.metrics()
        started = time.perf_counter()
        self._appended = 0
        self._reused = 0
        self._appended_bytes = 0
        written = 0
        with obs.tracer().span("store.checkpoint", path=self.path):
            manifest = {
                "gens": {},
                "collections": {},
                **(self.manifest or {}),
                "checkpoint_id": self.checkpoint_id + 1,
                "prev": self.file.manifest_offset,
            }
            if objects is not None:
                table, header = objects
                lines = table.encode_changed(self._objects.delta)
                if lines:
                    self._objects.refs.append(self._append(blocks.KIND_OBJECTS, b"\n".join(lines)))
                written = len(lines)
                manifest["objects"] = dict(
                    header,
                    batches=[list(ref) for ref in self._objects.refs],
                    deleted=sorted(self._objects.removed),
                )
            if engine is not None:
                previous, collections = manifest["collections"], {}
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
                manifest.update(
                    engine={"default_model": engine._default_model},
                    gens=dict(gens or {}),
                    collections=collections,
                )
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
            "objects_written": written,
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
        state = self._state.setdefault(name, _Batches())
        documents = collection._documents
        changed = state.delta({doc.doc_id: doc.revision for doc in documents.values()})
        if changed:
            batch = [
                {
                    "doc_id": doc_id,
                    "text": documents[doc_id].text,
                    "metadata": documents[doc_id].metadata,
                    "revision": documents[doc_id].revision,
                }
                for doc_id in changed
            ]
            state.refs.append(self._append(blocks.KIND_DOCS, encode_json({"documents": batch})))
        return {
            "analyzer": collection.analyzer.config(),
            "next_doc_id": collection._next_doc_id,
            "document_count": len(documents),
            "doc_batches": [list(ref) for ref in state.refs],
            "removed_docs": sorted(state.removed),
            "layout": "segmented",
            "segments": [
                self._segment_entry(segment)
                for segment in collection.segments.sealed_segments()
            ],
        }

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
        documents, entries = self._live_docs(entry)
        payload = {
            "name": name,
            "next_doc_id": entry["next_doc_id"],
            "analyzer": entry["analyzer"],
            "documents": documents,
            "segments": segments,
        }
        collection = IRSCollection.from_payload(
            payload, engine._analyzer, segment_config=engine.segment_config
        )
        self._state[name] = _Batches(
            {doc.doc_id: doc.revision for doc in collection._documents.values()},
            entry["doc_batches"],
            entry["removed_docs"],
            entries,
        )
        for segment, ref in zip(collection.segments.sealed_segments(), refs):
            segment.store_stamp = (self.token, ref["offset"], ref["length"])
        return collection

    def _live_docs(self, entry: dict) -> Tuple[List[dict], int]:
        """The live documents in doc-id order, and the count of documents
        in the batches (superseded ones included)."""
        documents: Dict[int, dict] = {}
        count = 0
        for offset, length in entry["doc_batches"]:
            batch = self.file.read_json(offset, length, blocks.KIND_DOCS)["documents"]
            count += len(batch)
            documents.update((doc["doc_id"], doc) for doc in batch)
        for doc_id in entry["removed_docs"]:
            documents.pop(doc_id, None)
        return [documents[doc_id] for doc_id in sorted(documents)], count

    def _live_objects(self, section: dict) -> Tuple[Dict[int, bytes], int]:
        """Each live object's newest line past ``<oid> ``, by OID, and the
        count of lines in the batches (superseded ones included)."""
        newest: Dict[int, bytes] = {}
        count = 0
        for offset, length in section["batches"]:
            lines = self.file.read_record(offset, length, blocks.KIND_OBJECTS).split(b"\n")
            count += len(lines)
            for line in lines:
                oid, _space, entry = line.partition(b" ")
                newest[int(oid)] = entry
        for oid in section["deleted"]:
            newest.pop(oid, None)
        return newest, count

    def load_objects(self, table) -> dict:
        """Fill ``table``, the database's ``ObjectStore``, from the
        ``objects`` section and return the section (empty before the first
        checkpoint)."""
        section = (self.manifest or {}).get("objects")
        if section is None:
            return {}
        newest, entries = self._live_objects(section)
        table.load_image(newest)
        self._objects = _Batches(dict.fromkeys(newest, 0), section["batches"], section["deleted"], entries)
        return section

    # ------------------------------------------------------------------
    # pack
    # ------------------------------------------------------------------

    def pack(self) -> dict:
        """Offline compaction: copy live records into a fresh file.

        Each collection's documents, and the database's objects, become one
        batch of the live set; index records are copied verbatim.  Atomic
        (write-new + ``os.replace``); requires a quiesced system —
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
            section = manifest.get("objects")
            if section is not None:
                newest, _entries = self._live_objects(section)
                lines = [b"%d %s" % (oid, newest[oid]) for oid in sorted(newest)]
                refs = [list(new_file.append_record(blocks.KIND_OBJECTS, b"\n".join(lines)))] if lines else []
                new_manifest["objects"] = dict(section, batches=refs, deleted=[])
            new_file.commit(encode_json(new_manifest))
            new_file.close()
            self.file.close()
            os.replace(tmp_path, self.path)
            fsync_directory(self.path)
            self.file = StoreFile(self.path)
            self.manifest = self.file.read_manifest()
            self._remap = (old_token, remap)
            self._live_bytes = self._compute_live_bytes(self.manifest)
            for name, state in self._state.items():
                if name in collections:
                    state.repack(collections[name]["doc_batches"])
            if section is not None:
                self._objects.repack(new_manifest["objects"]["batches"])
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
        documents, _entries = self._live_docs(entry)
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
        kind = self.file.record_kind(offset)
        remap[offset] = list(new_file.append_record(kind, self.file.read_record(offset, length, kind)))
        return list(remap[offset])

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
        for offset, length in manifest.get("objects", {}).get("batches", ()):
            live[offset] = length
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
