"""Read-only import of a legacy per-collection JSON index directory.

Older builds wrote each collection as one JSON dump under an
``irs_index/`` directory, with a ``collections.json`` manifest listing
them.  Durable systems now keep their indexes in the single-file store
(:mod:`repro.store`); this module only *reads* the old layout, so a
bare-engine directory can be imported once::

    SingleFileStore(path).checkpoint(load_engine(directory))

Three collection shapes exist on disk, and each loads as sealed segments
(see ``IRSCollection.from_payload``):

* the monolithic ``"index"`` dump and the per-segment ``"segments"``
  dump, both a single ``collection_<name>.json`` file;
* the sharded layout: a ``collection_<name>/`` *directory* holding
  ``meta.json`` (documents, analyzer config, shard count) plus one
  ``shard_NNNN.json`` per shard, flattened into one segment list.

A whole ``DocumentSystem`` directory needs no import: its database is the
ground truth, and opening it reindexes every collection the store lacks.
"""

from __future__ import annotations

import json
import os
from typing import Optional

from repro.irs.analysis import Analyzer
from repro.irs.collection import IRSCollection, segment_entries
from repro.irs.engine import IRSEngine

_MANIFEST = "collections.json"


def load_engine(
    directory: str,
    default_model: str = "inquery",
    analyzer: Optional[Analyzer] = None,
) -> IRSEngine:
    """An engine holding every collection of a legacy JSON directory."""
    engine = IRSEngine(default_model=default_model, analyzer=analyzer)
    manifest_path = os.path.join(directory, _MANIFEST)
    if not os.path.exists(manifest_path):
        return engine
    with open(manifest_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    for name in manifest["collections"]:
        payload = _read_collection_payload(directory, name)
        engine._collections[name] = IRSCollection.from_payload(
            payload, analyzer, segment_config=engine.segment_config
        )
    return engine


def _read_collection_payload(directory: str, name: str) -> dict:
    shard_dir = os.path.join(directory, _collection_dir(name))
    meta_path = os.path.join(shard_dir, "meta.json")
    if os.path.isdir(shard_dir) and os.path.exists(meta_path):
        with open(meta_path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        # Shards partition the documents: their segments, concatenated in
        # shard order, are the exact logical index.
        payload["segments"] = []
        for i in range(payload["shard_count"]):
            with open(
                os.path.join(shard_dir, f"shard_{i:04d}.json"), "r",
                encoding="utf-8",
            ) as fh:
                payload["segments"].extend(segment_entries(json.load(fh)))
        return payload
    path = os.path.join(directory, _collection_file(name))
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _collection_file(name: str) -> str:
    return f"{_collection_dir(name)}.json"


def _collection_dir(name: str) -> str:
    safe = "".join(ch if ch.isalnum() or ch in "-_" else "_" for ch in name)
    return f"collection_{safe}"
