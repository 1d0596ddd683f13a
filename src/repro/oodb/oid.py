"""Object identifiers.

Every database object is identified by an :class:`OID` that is unique within
one database and stable across restarts (the allocator's high-water mark is
persisted with the store).  The paper relies on OIDs as the glue between the
two systems: each IRS document carries the OID of the database object it
represents (Section 4.3), so OIDs must serialize to short, parseable strings.
"""

from __future__ import annotations

import threading


class OID(int):
    """An immutable object identifier: a non-negative ``int``.

    Equality, hashing and ordering are the int's own — ``OID(3) == 3`` and
    ``hash(OID(3)) == 3`` — so sets and dicts of OIDs hash and compare in C.
    What sets an OID apart is its text: it renders as ``OID<n>`` and parses
    back via :meth:`parse`, the format stored as IRS-document metadata;
    stored values tell OIDs from plain ints by type.
    """

    __slots__ = ()

    def __new__(cls, value: int) -> "OID":
        if not isinstance(value, int) or value < 0:
            raise ValueError(f"OID value must be a non-negative int, got {value!r}")
        return super().__new__(cls, value)

    @property
    def value(self) -> int:
        """The identifier as a plain ``int``."""
        return int(self)

    def __str__(self) -> str:
        return f"OID{int(self)}"

    def __repr__(self) -> str:
        return f"OID({int(self)})"

    @classmethod
    def parse(cls, text: str) -> "OID":
        """Parse the string form produced by ``str(oid)``.

        >>> OID.parse("OID42")
        OID(42)
        """
        digits = text[3:]
        if not (text.startswith("OID") and digits.isascii() and digits.isdigit()):
            raise ValueError(f"not an OID string: {text!r}")
        return cls(int(digits))


class OIDAllocator:
    """Thread-safe monotone OID allocator.

    The allocator never reuses values, even for deleted objects, because IRS
    result buffers and log records may still reference old OIDs.
    """

    def __init__(self, start: int = 1) -> None:
        self._next = start
        self._lock = threading.Lock()

    def allocate(self) -> OID:
        """Return a fresh OID."""
        with self._lock:
            oid = OID(self._next)
            self._next += 1
            return oid

    @property
    def high_water_mark(self) -> int:
        """The next value that would be allocated (for persistence)."""
        with self._lock:
            return self._next

    def advance_to(self, value: int) -> None:
        """Ensure future allocations are >= ``value`` (used by recovery)."""
        with self._lock:
            if value > self._next:
                self._next = value
