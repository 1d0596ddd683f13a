"""Object identifiers.

Every database object is identified by an :class:`OID` that is unique within
one database and stable across restarts (the allocator's high-water mark is
persisted with the store).  The paper relies on OIDs as the glue between the
two systems: each IRS document carries the OID of the database object it
represents (Section 4.3), so OIDs must serialize to short, parseable strings.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class OID:
    """An immutable, totally ordered object identifier.

    OIDs render as ``OID<n>`` and parse back via :meth:`parse`, which is the
    format stored as IRS-document metadata and written to IRS result files.
    """

    value: int

    def __post_init__(self) -> None:
        if not isinstance(self.value, int) or self.value < 0:
            raise ValueError(f"OID value must be a non-negative int, got {self.value!r}")

    def __hash__(self) -> int:
        return self.value  # candidate sets and maps hash OIDs by the million

    def __str__(self) -> str:
        return f"OID{self.value}"

    def __repr__(self) -> str:
        return f"OID({self.value})"

    @classmethod
    def parse(cls, text: str) -> "OID":
        """Parse the string form produced by ``str(oid)``.

        >>> OID.parse("OID42")
        OID(42)
        """
        if not text.startswith("OID"):
            raise ValueError(f"not an OID string: {text!r}")
        digits = text[3:]
        if digits.isascii() and digits.isdigit():
            # Canonical ``OID<n>``: ASCII digits are a non-negative int, so
            # the dataclass constructor's validation has nothing to check.
            oid = object.__new__(cls)
            object.__setattr__(oid, "value", int(digits))
            return oid
        try:
            return cls(int(text[3:]))
        except ValueError as exc:
            raise ValueError(f"not an OID string: {text!r}") from exc


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
