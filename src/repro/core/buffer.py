"""The persistent IRS-result buffer.

Section 4.2: "For both intra- and inter-query optimization, the results of
IRS calls are buffered persistently in a dictionary of type
``||STRING --> ||IRSObjects --> REAL|| ||``.  Its keys are IRS queries."

The buffer lives as a ``DICT`` attribute of the COLLECTION database object,
``{"model|query": {"OID3": 0.7}}``, so it is persistent exactly like any
other database state (it survives checkpoints and recovery).
:class:`ResultBuffer` wraps attribute access and feeds the hit/miss counters
that the FIG3 benchmark reads.

Writes are deltas: ``store`` and ``amend`` set one item of the dictionary
through :meth:`Database.write_dict_item`, so their time and their WAL record
depend on the entry or the single value written, never on how much the
buffer already holds.  Reads go through the context's
:class:`~repro.core.context.DecodedBufferView`, which keeps each buffered
result decoded to ``{OID: value}`` and is revalidated against the COLLECTION
object's write version on every lookup.

Writes are also conditional: a :class:`ResultBuffer` that looked a query up
writes only into the buffer generation that lookup saw.  Update propagation
changes the index and then resets the buffer through :meth:`invalidate`; a
result (or a value derived from one) computed before the change but written
after the reset would otherwise sit in the fresh buffer as a stale hit.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro import obs
from repro.core.context import CouplingCounters, coupling_context
from repro.oodb.objects import DBObject
from repro.oodb.oid import OID

_BUFFER_ATTR = "buffer"


class ResultBuffer:
    """View onto one COLLECTION object's persistent result buffer."""

    def __init__(self, collection_obj: DBObject, counters: CouplingCounters) -> None:
        self._collection = collection_obj
        self._counters = counters
        self._db = collection_obj.database
        self._view = coupling_context(self._db).buffer_view(collection_obj.oid)
        #: Buffer generation of this instance's last lookup (None: none yet).
        self._generation: Optional[int] = None

    def _key(self, irs_query: str, model: Optional[str]) -> str:
        return f"{model or ''}|{irs_query}"

    def _stored(self) -> dict:
        return self._collection.get(_BUFFER_ATTR) or {}

    def _validate(self) -> None:
        """Drop the view when the object changed behind it; holds the lock."""
        view = self._view
        # Version first, data second: a write racing with this read leaves
        # the view tagged behind it and the next validation re-reads.
        version = self._db.write_version(self._collection.oid)
        if view.version != version:
            source = self._collection.get(_BUFFER_ATTR)
            if source is not view.source:
                view.source = source
                view.generation += 1
            view.entries = {}
            view.amended = {}
            view.version = version

    def lookup(
        self, irs_query: str, model: Optional[str] = None, merged: bool = True
    ) -> Optional[Dict[OID, float]]:
        """The buffered result for ``irs_query``, or None on a miss.

        A hit returns the decoded view's mapping itself, shared by every
        caller: treat it as read-only.  Values amended since the mapping
        was published are folded into a fresh copy first — once per lookup,
        not per amend.  A caller after single values passes
        ``merged=False``, takes the mapping as last published and asks
        :meth:`amended` for an object it does not hold.
        """
        key = self._key(irs_query, model)
        view = self._view
        # Inside a transaction this read takes the object's shared lock, so
        # that nothing waits for a database lock while holding the view lock.
        self._collection.get(_BUFFER_ATTR)
        with view.lock:
            self._validate()
            self._generation = view.generation
            decoded = view.entries.get(key)
            if decoded is None:
                entry = self._stored().get(key)
                if entry is not None:
                    # list(): one atomic copy, should an undo pop an item
                    # of the stored entry meanwhile.
                    decoded = {
                        OID.parse(oid_str): value for oid_str, value in list(entry.items())
                    }
                    view.entries[key] = decoded
            elif merged and key in view.amended:
                # A new dict: a reader may be iterating the published one.
                decoded = {**decoded, **view.amended.pop(key)}
                view.entries[key] = decoded
        if decoded is None:
            self._counters.add("buffer_misses")
            obs.metrics().counter("coupling.buffer.misses").inc()
            return None
        self._counters.add("buffer_hits")
        obs.metrics().counter("coupling.buffer.hits").inc()
        return decoded

    def contains(self, irs_query: str, model: Optional[str] = None) -> bool:
        """True when the query is buffered (no counter side effects)."""
        return self._key(irs_query, model) in self._stored()

    def _write_through(self, path: Tuple[str, ...], value: Any) -> bool:
        """Write one item of the stored buffer; caller holds the view lock.

        Skipped when the buffer was reset since this instance's lookup.
        True when written and the view mirrored the buffer up to this write
        — the caller then applies the same change to ``entries``.  When some
        other mutation intervened the view stays tagged behind and the next
        validation rebuilds it from the stored buffer.
        """
        view = self._view
        self._validate()
        if self._generation is not None and view.generation != self._generation:
            return False
        version = self._db.write_dict_item(
            self._collection.oid, _BUFFER_ATTR, path, value
        )
        tag, members = view.members
        if tag == version - 1:  # only this write since the membership was decoded
            view.members = (version, members)
        if view.version != version - 1:
            return False
        view.version = version
        return True

    def store(
        self,
        irs_query: str,
        values: Dict[OID, float],
        model: Optional[str] = None,
        encoded: Optional[Dict[str, float]] = None,
    ) -> None:
        """Buffer ``values`` under ``irs_query``.

        The buffer keeps ``values`` as the decoded result later lookups
        return, and ``encoded`` — the same result keyed by ``str(oid)``, for
        callers that hold it already (the IRS answers in that form) — as the
        stored entry, so the caller must not change either afterwards.
        """
        key = self._key(irs_query, model)
        if encoded is None:
            encoded = {str(oid): value for oid, value in values.items()}
        # Wait for the database lock (inside a transaction) before taking
        # the view lock, never while holding it.
        self._db.lock_exclusive(self._collection.oid)
        with self._view.lock:
            if self._write_through((key,), encoded):
                self._view.entries[key] = values
                self._view.amended.pop(key, None)  # replaced with the entry
        obs.metrics().counter("coupling.buffer.stores").inc()

    def amend(self, irs_query: str, oid: OID, value: float, model: Optional[str] = None) -> None:
        """Insert one derived value into a buffered result.

        Figure 3's flow chart: after ``deriveIRSValue`` the result is
        inserted into the buffer so later calls for the same object hit.
        """
        key = self._key(irs_query, model)
        view = self._view
        self._db.lock_exclusive(self._collection.oid)
        with view.lock:
            if self._write_through((key, str(oid)), value) and key in view.entries:
                # Beside the published entry, which a reader may be
                # iterating; the next merged lookup folds it in.
                view.amended.setdefault(key, {})[oid] = value
        obs.metrics().counter("coupling.buffer.amends").inc()

    def amended(self, irs_query: str, oid: OID, model: Optional[str] = None) -> Optional[float]:
        """The value amended for ``oid`` that ``lookup(merged=False)`` lacks."""
        self._collection.get(_BUFFER_ATTR)  # lock order as in lookup
        with self._view.lock:
            self._validate()
            return self._view.amended.get(self._key(irs_query, model), {}).get(oid)

    def invalidate(self) -> None:
        """Drop every buffered result (after update propagation).

        Under the view lock, so that no conditional write sits between its
        generation check and its item write while the buffer is replaced.
        An empty buffer is not replaced (there is nothing to log); the
        generation moves all the same, so a result computed before the
        index changed is still refused.
        """
        self._db.lock_exclusive(self._collection.oid)
        with self._view.lock:
            if self._stored():
                self._collection.set(_BUFFER_ATTR, {})
            else:
                self._validate()
                self._view.generation += 1

    def size(self) -> int:
        """Number of buffered queries."""
        return len(self._stored())
