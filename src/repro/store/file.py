""":class:`StoreFile` — the append-only single file under the store.

One physical file, three zones: the 32-byte superblock, a run of
checksummed records, and — after every committed checkpoint — a manifest
record followed by a 24-byte footer pointing at it.  Appends only; the
sole overwrite is truncating a torn tail discovered at open.

Durability contract
-------------------

:meth:`commit` appends the manifest and footer, then flushes and
``fsync``\\ s.  Everything before the synced footer is durable; everything
after a crash point past it is garbage by definition and is discarded by
:meth:`recover`:

1. **Fast path** — the last 24 bytes decode as a valid footer whose
   manifest record validates: the file is clean.
2. **Scan-back** — otherwise scan backwards in chunks for the footer
   magic; the first (right-most) candidate whose footer *and* manifest
   both validate wins.  Bytes past it are a torn tail: logically
   discarded now, physically truncated before the next append.
3. **Empty** — no valid footer at all: the store holds no checkpoint
   (a fresh file, or one that crashed before its first commit).

Reads are mmap-backed when the platform allows (the mapping is refreshed
after appends grow the file); a plain seek/read fallback keeps the store
working where mmap is unavailable.  Every read revalidates the record
checksum — a bit flip in an old, referenced block surfaces as
:class:`~repro.errors.StoreCorruptionError` on first touch, never as a
silently wrong index.
"""

from __future__ import annotations

import os
import struct
from typing import Optional, Tuple

from repro.errors import StoreCorruptionError, StoreError
from repro.store import blocks

try:
    import mmap as _mmap_module
except ImportError:  # pragma: no cover - CPython always has mmap
    _mmap_module = None

#: Backward-scan chunk size; candidates overlap chunk borders by
#: ``FOOTER_SIZE - 1`` so a footer split across chunks is still found.
_SCAN_CHUNK = 1 << 20


def fsync_directory(path: str) -> None:
    """Force the directory entry of ``path`` to disk (POSIX only)."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - e.g. non-POSIX platforms
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover
        pass
    finally:
        os.close(fd)


class StoreFile:
    """Append-only record file with footer-committed manifests."""

    def __init__(
        self, path: str, use_mmap: bool = True, token: Optional[int] = None
    ) -> None:
        self.path = path
        self._use_mmap = use_mmap and _mmap_module is not None
        self._mmap = None
        self._mmap_size = 0
        self.recovered_tail_bytes = 0
        existed = os.path.exists(path) and os.path.getsize(path) > 0
        if not existed:
            if token is None:
                token = int.from_bytes(os.urandom(8), "big")
            with open(path, "wb") as fh:
                fh.write(blocks.encode_superblock(token))
                fh.flush()
                os.fsync(fh.fileno())
            fsync_directory(path)
        self._fh = open(path, "r+b")
        self._fh.seek(0)
        header = self._fh.read(blocks.SUPER_SIZE)
        _version, _flags, self.token = blocks.decode_superblock(header)
        self.manifest_offset: Optional[int] = None
        self.manifest_length = 0
        self._end = blocks.SUPER_SIZE
        self._recover()

    # -- recovery ---------------------------------------------------------

    def _recover(self) -> None:
        size = os.path.getsize(self.path)
        found = self._try_footer_at(size - blocks.FOOTER_SIZE)
        if found is None:
            found = self._scan_back(size)
        if found is None:
            # No committed checkpoint survives: logically empty store.
            self.recovered_tail_bytes = size - blocks.SUPER_SIZE
            return
        footer_offset, manifest_offset, manifest_length = found
        self.manifest_offset = manifest_offset
        self.manifest_length = manifest_length
        self._end = footer_offset + blocks.FOOTER_SIZE
        self.recovered_tail_bytes = size - self._end

    def _try_footer_at(self, offset: int) -> Optional[Tuple[int, int, int]]:
        """Validate a footer candidate *and* the manifest it points at."""
        if offset < blocks.SUPER_SIZE:
            return None
        try:
            data = self._pread(offset, blocks.FOOTER_SIZE)
            manifest_offset, manifest_length = blocks.decode_footer(data)
        except (StoreCorruptionError, struct.error):
            return None
        if (
            manifest_offset < blocks.SUPER_SIZE
            or manifest_offset + manifest_length > offset
        ):
            return None
        try:
            record = self._pread(manifest_offset, manifest_length)
            blocks.verify_record(record, blocks.KIND_MANIFEST)
        except StoreCorruptionError:
            return None
        return offset, manifest_offset, manifest_length

    def _scan_back(self, size: int) -> Optional[Tuple[int, int, int]]:
        """Right-most valid footer below ``size``, by chunked magic search."""
        high = size
        overlap = blocks.FOOTER_SIZE - 1
        while high > blocks.SUPER_SIZE:
            low = max(blocks.SUPER_SIZE, high - _SCAN_CHUNK)
            window = self._pread(low, min(high + overlap, size) - low)
            position = len(window)
            while True:
                position = window.rfind(blocks.FOOTER_MAGIC, 0, position)
                if position < 0:
                    break
                found = self._try_footer_at(low + position)
                if found is not None:
                    return found
            high = low
        return None

    # -- raw IO -----------------------------------------------------------

    def _pread(self, offset: int, length: int) -> bytes:
        if length < 0 or offset < 0:
            raise StoreCorruptionError(
                f"invalid read at offset {offset} length {length}"
            )
        if self._use_mmap:
            mapping = self._refresh_mmap(offset + length)
            if mapping is not None:
                return bytes(mapping[offset: offset + length])
        self._fh.seek(offset)
        data = self._fh.read(length)
        if len(data) != length:
            raise StoreCorruptionError(
                f"short read at offset {offset}: wanted {length}, got {len(data)}"
            )
        return data

    def _refresh_mmap(self, needed: int):
        size = os.path.getsize(self.path)
        if needed > size:
            raise StoreCorruptionError(
                f"read past end of store: need {needed} bytes, file has {size}"
            )
        if self._mmap is None or self._mmap_size < needed:
            if self._mmap is not None:
                self._mmap.close()
                self._mmap = None
            try:
                self._mmap = _mmap_module.mmap(
                    self._fh.fileno(), size, access=_mmap_module.ACCESS_READ
                )
                self._mmap_size = size
            except (OSError, ValueError):  # pragma: no cover - mmap refused
                self._use_mmap = False
                return None
        return self._mmap

    # -- appends ----------------------------------------------------------

    def _prepare_append(self) -> None:
        size = os.path.getsize(self.path)
        if size > self._end:
            # Torn tail from a previous crash: physically discard it so
            # the new records are contiguous with the committed state.
            if self._mmap is not None:
                self._mmap.close()
                self._mmap = None
                self._mmap_size = 0
            self._fh.truncate(self._end)

    def append_record(self, kind: int, payload: bytes) -> Tuple[int, int]:
        """Append one record; returns ``(offset, total_length)``.

        Not yet durable — records only become reachable once a
        :meth:`commit` writes a manifest referencing them and syncs.
        """
        self._prepare_append()
        encoded = blocks.encode_record(kind, payload)
        offset = self._end
        self._fh.seek(offset)
        self._fh.write(encoded)
        self._end = offset + len(encoded)
        return offset, len(encoded)

    def commit(self, manifest_payload: bytes) -> Tuple[int, int]:
        """Append the manifest + footer, then fsync: the commit point."""
        offset, length = self.append_record(
            blocks.KIND_MANIFEST, manifest_payload
        )
        self._fh.seek(self._end)
        self._fh.write(blocks.encode_footer(offset, length))
        self._end += blocks.FOOTER_SIZE
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self.manifest_offset = offset
        self.manifest_length = length
        return offset, length

    # -- record reads -----------------------------------------------------

    def read_record(self, offset: int, length: int, kind: int = None) -> bytes:
        """Read + checksum-validate one record; returns its payload bytes."""
        data = self._pread(offset, length)
        return blocks.verify_record(data, kind)

    def record_kind(self, offset: int) -> int:
        """The kind byte of the record at ``offset``, from its header
        alone (unverified: a full read checks it against the CRC)."""
        return blocks.decode_record_header(
            self._pread(offset, blocks.RECORD_HEADER_SIZE)
        )[2]

    def read_json(self, offset: int, length: int, kind: int = None) -> dict:
        return blocks.decode_json(self.read_record(offset, length, kind))

    def read_manifest(self) -> Optional[dict]:
        if self.manifest_offset is None:
            return None
        return self.read_json(
            self.manifest_offset, self.manifest_length, blocks.KIND_MANIFEST
        )

    # -- bookkeeping -------------------------------------------------------

    @property
    def size(self) -> int:
        return max(self._end, 0)

    def close(self) -> None:
        if self._mmap is not None:
            self._mmap.close()
            self._mmap = None
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "StoreFile":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"<StoreFile {self.path!r} size={self.size} "
            f"manifest@{self.manifest_offset}>"
        )


def require_store(path: str) -> None:
    """Raise :class:`StoreError` unless ``path`` looks like a store file."""
    if not os.path.exists(path):
        raise StoreError(f"no store file at {path!r}")
    with open(path, "rb") as fh:
        blocks.decode_superblock(fh.read(blocks.SUPER_SIZE))
