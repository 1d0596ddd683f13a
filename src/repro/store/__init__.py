"""repro.store — the single-file durable store.

One append-only file holds every collection and the database's objects:
a 32-byte superblock, checksummed record blocks, and a footer-committed
manifest chain.  Checkpoints are incremental
(sealed segments are written exactly once), recovery scans back to the
last valid manifest, restart is lazy, and :meth:`SingleFileStore.pack`
compacts offline.  See docs/storage-format.md for the on-disk format
and DESIGN.md §"Durable storage" for how it couples with the OODB WAL.
"""

from repro.store.engine_io import SingleFileStore
from repro.store.file import StoreFile, require_store

__all__ = ["SingleFileStore", "StoreFile", "require_store"]
