"""The one importer: what older builds wrote, converted once at open.

This build stores an index one way (docs/storage-format.md): a
``segmented`` manifest entry whose sealed segments are native kind 6
records (``CompactIndex.to_bytes``) and which names no memtable.  Only
this module reads the older shapes: ``flat`` entries (one INDEX record,
kind 4), ``sharded`` entries (per shard, its segments and its memtable),
a ``memtable`` ref under any entry (a JSON MEMTABLE record, kind 3, or a
native kind 6 one), JSON SEGMENT (kind 2) records, ``irs_index/``
directories of per-collection JSON dumps, and the database images older
builds kept in ``db/`` beside ``irs.store`` (:func:`_older_image`).

:func:`import_store` runs whenever :class:`~repro.store.SingleFileStore`
opens a manifest.  It writes each older record once more as kind 6
(``CompactIndex.from_payload(...).to_bytes()`` of the older JSON index
schema, docs/storage-format.md; a kind 6 record is
referenced as it is), makes its entry ``segmented`` with the segments in
the order the older layout loaded them — for each shard in order, its
segments, then its memtable — gives a manifest without an ``objects``
section the older database image, and commits one manifest with the same
documents, ``gens`` and ``engine``.
A crash before that manifest's footer leaves the older manifest, which
is imported again at the next open.
"""

from __future__ import annotations

import json
import os
from typing import Optional

from repro.irs.postings import CompactIndex
from repro.store import blocks
from repro.store.blocks import encode_json
from repro.store.file import StoreFile

#: Every kind an index ref of an older manifest entry may point at.
_INDEX_KINDS = (
    blocks.KIND_BLOCKS, blocks.KIND_SEGMENT, blocks.KIND_MEMTABLE, blocks.KIND_INDEX,
)


def import_store(file, manifest: Optional[dict]) -> Optional[dict]:
    """``manifest`` itself when every entry is native and it has an
    ``objects`` section or there is no older database image in the
    ``db/`` directory beside ``file``; otherwise the manifest with every
    older entry converted and that image (:func:`_older_image`) as its
    ``objects`` section, committed to ``file``."""
    collections = dict((manifest or {}).get("collections", {}))
    older = [name for name, entry in collections.items() if not _is_native(file, entry)]
    for name in older:
        collections[name] = _native_entry(file, collections[name])
    directory = os.path.join(os.path.dirname(file.path), "db")
    section = None if manifest and "objects" in manifest else _older_image(file, directory)
    if not older and section is None:
        return manifest
    imported = dict(
        manifest or {"gens": {}},
        checkpoint_id=(manifest or {}).get("checkpoint_id", 0) + 1,
        prev=file.manifest_offset,
        collections=collections,
    )
    if section is not None:
        imported["objects"] = section
    file.commit(encode_json(imported))
    return imported


def _older_image(file, directory: str) -> Optional[dict]:
    """The image of ``<directory>/objects.store``, the object file that
    builds with two files kept beside ``irs.store`` (its live batches
    appended to ``file`` as they are), or else of the ``snapshot.json``
    from before it (its objects appended as one batch); None when there
    is neither.  Neither file is written to."""
    older = os.path.join(directory, "objects.store")
    if os.path.exists(older):
        with StoreFile(older, use_mmap=False) as source:
            image = source.read_manifest()
            if image is not None:
                return dict(image, batches=[
                    list(file.append_record(
                        blocks.KIND_OBJECTS, source.read_record(offset, length, blocks.KIND_OBJECTS)
                    ))
                    for offset, length in image["batches"]
                ])
    snapshot = os.path.join(directory, "snapshot.json")
    if not os.path.exists(snapshot):
        return None
    from repro.oodb.store import object_line

    image = _read_json(snapshot)
    lines = [object_line(e["oid"], e["class"], e["attributes"]) for e in image.pop("objects")]
    batches = [list(file.append_record(blocks.KIND_OBJECTS, b"\n".join(lines)))] if lines else []
    return dict(image, batches=batches, deleted=[])


def _is_native(file, entry: dict) -> bool:
    if entry["layout"] != "segmented" or "memtable" in entry:
        return False
    return all(
        file.record_kind(segment["offset"]) == blocks.KIND_BLOCKS
        for segment in entry["segments"]
    )


def _native_entry(file, entry: dict) -> dict:
    """``entry`` as a ``segmented`` entry of kind 6 records only."""
    segments = []
    for part in entry["shards"] if entry["layout"] == "sharded" else [entry]:
        refs = [([s["offset"], s["length"]], s["tombstones"]) for s in part.get("segments", [])]
        # A flat entry's one index, then the memtable: neither has tombstones.
        refs += [(ref, []) for ref in (part.get("index"), part.get("memtable")) if ref]
        for (offset, length), tombstones in refs:
            kind = file.record_kind(offset)
            # The checksum covers the kind byte: a kind that is not an
            # index's fails this read as corruption.
            expected = kind if kind in _INDEX_KINDS else blocks.KIND_BLOCKS
            data = file.read_record(offset, length, expected)
            if kind == blocks.KIND_BLOCKS:
                index = CompactIndex.from_bytes(data)
            else:
                index = CompactIndex.from_payload(blocks.decode_json(data)["index"])
                offset, length = file.append_record(blocks.KIND_BLOCKS, index.to_bytes())
            segments.append(
                {
                    "offset": offset,
                    "length": length,
                    "tombstones": tombstones,
                    "documents": index.document_count,
                }
            )
    native = {
        k: v for k, v in entry.items()
        if k not in ("index", "memtable", "shards", "shard_count")
    }
    native.update(layout="segmented", segments=segments)
    return native


def load_json_engine(directory: str, default_model: str = "inquery", analyzer=None):
    """An engine holding every collection of an ``irs_index/`` directory.

    ``collections.json`` lists the names.  Each collection is one
    ``collection_<name>.json`` dump, holding a monolithic ``"index"`` or a
    ``"segments"`` list, or a ``collection_<name>/`` directory of
    ``meta.json`` (documents, analyzer, shard count) plus one
    ``shard_NNNN.json`` per shard.  Every index loads as sealed segments.
    Import such a directory once with
    ``SingleFileStore(path).checkpoint(load_json_engine(directory))``.
    """
    from repro.irs.collection import IRSCollection
    from repro.irs.engine import IRSEngine

    engine = IRSEngine(default_model=default_model, analyzer=analyzer)
    listing = os.path.join(directory, "collections.json")
    for name in _read_json(listing)["collections"] if os.path.exists(listing) else []:
        safe = "".join(ch if ch.isalnum() or ch in "-_" else "_" for ch in name)
        base = os.path.join(directory, f"collection_{safe}")
        if os.path.exists(os.path.join(base, "meta.json")):
            payload = _read_json(os.path.join(base, "meta.json"))
            # Shards partition the documents: their segments, concatenated
            # in shard order, are the exact logical index.
            dumps = [
                _read_json(os.path.join(base, f"shard_{i:04d}.json"))
                for i in range(payload["shard_count"])
            ]
        else:
            payload = _read_json(base + ".json")
            dumps = [payload]
        payload["segments"] = [
            segment
            for dump in dumps
            for segment in (
                dump["segments"] if "segments" in dump
                else [{"index": dump["index"], "tombstones": []}]
            )
        ]
        engine._collections[name] = IRSCollection.from_payload(
            payload, analyzer, segment_config=engine.segment_config
        )
    return engine


def _read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
