"""Binary block codecs of the single-file store.

Three fixed layouts make up the file (their integers big-endian):

**Superblock** (32 bytes, offset 0) — written once at creation::

    magic "REPROSTO" (8) | version u16 | flags u16 | token u64 | crc u32
    | padding to 32

``token`` is a random per-file identity: in-memory references to records
(e.g. a sealed segment's store stamp) carry it so a reference into one
physical file can never be satisfied by another (a packed replacement
gets a fresh token).

**Record** (9-byte header + payload) — the only growing unit::

    payload_length u32 | crc u32 | kind u8 | payload bytes

The CRC-32 covers the kind byte plus the payload, so a record can never
be "valid but of the wrong kind".  Payloads are compact JSON, except an
index's: kind ``BLOCKS`` holds a sealed segment or a memtable in native
block form, with little-endian columns (``CompactIndex.to_bytes``; byte
table in docs/storage-format.md).  Kinds 2, 3 and 4 are what older
builds wrote; only :mod:`repro.store.importer` reads them.

**Footer** (24 bytes) — appended after every manifest record::

    magic "REPROFTR" (8) | manifest_offset u64 | manifest_length u32
    | crc u32

The footer at the physical end of the file is the fast commit pointer;
recovery that finds it torn scans backwards for the previous footer
magic and revalidates (see :mod:`repro.store.file`).
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Tuple

from repro.errors import StoreCorruptionError

SUPER_MAGIC = b"REPROSTO"
FOOTER_MAGIC = b"REPROFTR"
VERSION = 1

_SUPER_STRUCT = struct.Struct("!8sHHQI")
SUPER_SIZE = 32  # _SUPER_STRUCT.size (24) padded for future fields
_RECORD_STRUCT = struct.Struct("!IIB")
RECORD_HEADER_SIZE = _RECORD_STRUCT.size  # 9
_FOOTER_STRUCT = struct.Struct("!8sQII")
FOOTER_SIZE = _FOOTER_STRUCT.size  # 24

# Record kinds.  A record's kind is covered by its checksum, so readers
# can insist on the kind they expect.
KIND_DOCS = 1       # one batch of documents of one collection
KIND_SEGMENT = 2    # a sealed segment as JSON; read, no longer written
KIND_MEMTABLE = 3   # a memtable as JSON; read, no longer written
KIND_INDEX = 4      # a legacy monolithic index; read, no longer written
KIND_MANIFEST = 5   # a checkpoint manifest (the commit record)
KIND_BLOCKS = 6     # one sealed segment or memtable in native block form
KIND_OBJECTS = 7    # one batch of database objects (the manifest's ``objects`` section)

_KIND_NAMES = {
    KIND_DOCS: "docs",
    KIND_SEGMENT: "segment",
    KIND_MEMTABLE: "memtable",
    KIND_INDEX: "index",
    KIND_MANIFEST: "manifest",
    KIND_BLOCKS: "blocks",
    KIND_OBJECTS: "objects",
}


def kind_name(kind: int) -> str:
    return _KIND_NAMES.get(kind, f"kind#{kind}")


def encode_json(payload: dict) -> bytes:
    """The store's canonical payload encoding (compact, sorted keys)."""
    return json.dumps(
        payload, separators=(",", ":"), sort_keys=True, ensure_ascii=False
    ).encode("utf-8")


def decode_json(data: bytes) -> dict:
    return json.loads(data.decode("utf-8"))


# -- superblock --------------------------------------------------------------

def encode_superblock(token: int, flags: int = 0) -> bytes:
    head = _SUPER_STRUCT.pack(SUPER_MAGIC, VERSION, flags, token, 0)[:-4]
    crc = zlib.crc32(head)
    packed = head + struct.pack("!I", crc)
    return packed.ljust(SUPER_SIZE, b"\0")


def decode_superblock(data: bytes) -> Tuple[int, int, int]:
    """``(version, flags, token)`` — raises on bad magic/crc/version."""
    if len(data) < SUPER_SIZE:
        raise StoreCorruptionError(
            f"superblock truncated: {len(data)} bytes < {SUPER_SIZE}"
        )
    magic, version, flags, token, crc = _SUPER_STRUCT.unpack(
        data[: _SUPER_STRUCT.size]
    )
    if magic != SUPER_MAGIC:
        raise StoreCorruptionError(f"bad store magic {magic!r}")
    if zlib.crc32(data[: _SUPER_STRUCT.size - 4]) != crc:
        raise StoreCorruptionError("superblock checksum mismatch")
    if version != VERSION:
        raise StoreCorruptionError(
            f"unsupported store version {version} (expected {VERSION})"
        )
    return version, flags, token


# -- records -----------------------------------------------------------------

def encode_record(kind: int, payload: bytes) -> bytes:
    crc = zlib.crc32(bytes((kind,)) + payload)
    return _RECORD_STRUCT.pack(len(payload), crc, kind) + payload


def decode_record_header(data: bytes) -> Tuple[int, int, int]:
    """``(payload_length, crc, kind)`` of a record header."""
    if len(data) < RECORD_HEADER_SIZE:
        raise StoreCorruptionError(
            f"record header truncated: {len(data)} bytes < {RECORD_HEADER_SIZE}"
        )
    return _RECORD_STRUCT.unpack(data[:RECORD_HEADER_SIZE])


def verify_record(data: bytes, expected_kind: int = None) -> bytes:
    """Validate one full record buffer; returns its payload bytes.

    ``data`` must hold exactly header + payload (the caller slices it out
    of the file using the length a manifest/footer recorded).
    """
    payload_length, crc, kind = decode_record_header(data)
    if len(data) != RECORD_HEADER_SIZE + payload_length:
        raise StoreCorruptionError(
            f"record length mismatch: header says {payload_length} payload "
            f"bytes, buffer holds {len(data) - RECORD_HEADER_SIZE}"
        )
    payload = data[RECORD_HEADER_SIZE:]
    if zlib.crc32(bytes((kind,)) + payload) != crc:
        raise StoreCorruptionError(
            f"checksum mismatch on {kind_name(kind)} record"
        )
    if expected_kind is not None and kind != expected_kind:
        raise StoreCorruptionError(
            f"expected {kind_name(expected_kind)} record, found {kind_name(kind)}"
        )
    return payload


# -- footer ------------------------------------------------------------------

def encode_footer(manifest_offset: int, manifest_length: int) -> bytes:
    head = _FOOTER_STRUCT.pack(
        FOOTER_MAGIC, manifest_offset, manifest_length, 0
    )[:-4]
    crc = zlib.crc32(head)
    return head + struct.pack("!I", crc)


def decode_footer(data: bytes) -> Tuple[int, int]:
    """``(manifest_offset, manifest_length)`` — raises on bad magic/crc."""
    if len(data) < FOOTER_SIZE:
        raise StoreCorruptionError(
            f"footer truncated: {len(data)} bytes < {FOOTER_SIZE}"
        )
    magic, manifest_offset, manifest_length, crc = _FOOTER_STRUCT.unpack(
        data[:FOOTER_SIZE]
    )
    if magic != FOOTER_MAGIC:
        raise StoreCorruptionError(f"bad footer magic {magic!r}")
    if zlib.crc32(data[: FOOTER_SIZE - 4]) != crc:
        raise StoreCorruptionError("footer checksum mismatch")
    return manifest_offset, manifest_length
