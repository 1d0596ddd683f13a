"""Lock manager: shared/exclusive locks with strict two-phase locking.

Transactions acquire S locks for reads and X locks for writes on object OIDs
(and on whole-class extents for scans).  Locks are held until commit/abort
(strict 2PL), which gives serializability — one of the "full DBMS
functionality" requirements (Section 1.2, property 2).

Deadlocks are detected eagerly on a waits-for graph; the requesting
transaction is chosen as victim and receives :class:`DeadlockError`.

Grants are FIFO-fair: once a transaction is waiting on a resource, later
arrivals whose mode conflicts with the waiter queue behind it instead of
jumping the line, so a steady stream of readers cannot starve a writer
under the service layer's concurrent load.  Lock upgrades (a holder
re-requesting in a stronger mode) bypass the queue — they must, or an
upgrade would deadlock against waiters that are themselves blocked on the
upgrader's current hold.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Hashable, List, Optional, Set, Tuple

from repro import obs
from repro.errors import DeadlockError, LockTimeoutError

logger = logging.getLogger(__name__)


class LockMode(Enum):
    """Lock modes.  X conflicts with everything; S conflicts with X."""

    SHARED = "S"
    EXCLUSIVE = "X"


def _compatible(held: LockMode, requested: LockMode) -> bool:
    return held is LockMode.SHARED and requested is LockMode.SHARED


@dataclass
class _LockEntry:
    """State of one lockable resource."""

    holders: Dict[int, LockMode] = field(default_factory=dict)
    condition: threading.Condition = field(default_factory=threading.Condition)
    #: Waiting requests in arrival order; grants never jump an earlier
    #: incompatible waiter (FIFO fairness).
    waiters: List[Tuple[int, LockMode]] = field(default_factory=list)
    #: Requests between their lookup and their grant or failure (counted
    #: under the manager's mutex); the entry is dropped only at zero.
    acquirers: int = 0


class LockManager:
    """Grants S/X locks on hashable resource ids to transaction ids.

    The manager is re-entrant per transaction: re-requesting a held lock is a
    no-op, and a lone S holder may upgrade to X.
    """

    def __init__(self, timeout: float = 5.0) -> None:
        self._timeout = timeout
        self._entries: Dict[Hashable, _LockEntry] = {}
        self._waits_for: Dict[int, Set[int]] = defaultdict(set)
        self._held_by_txn: Dict[int, Set[Hashable]] = defaultdict(set)
        self._mutex = threading.Lock()

    # -- acquisition -----------------------------------------------------------

    def acquire(self, txn_id: int, resource: Hashable, mode: LockMode) -> None:
        """Grant ``mode`` on ``resource`` to ``txn_id``, blocking if needed.

        Raises :class:`DeadlockError` when waiting would close a cycle in the
        waits-for graph, :class:`LockTimeoutError` on timeout.
        """
        with self._mutex:
            entry = self._entries.get(resource)
            if entry is None:
                entry = self._entries[resource] = _LockEntry()
            entry.acquirers += 1
        waited_since: Optional[float] = None
        with entry.condition:
            try:
                while True:
                    blockers = self._blocking_set(entry, txn_id, mode)
                    if not blockers:
                        entry.holders[txn_id] = self._merged_mode(entry, txn_id, mode)
                        self._remove_waiter(entry, txn_id)
                        with self._mutex:
                            self._held_by_txn[txn_id].add(resource)
                            self._waits_for.pop(txn_id, None)
                            entry.acquirers -= 1
                        break
                    if waited_since is None:
                        waited_since = time.perf_counter()
                        obs.metrics().counter("oodb.lock.waits").inc()
                        if txn_id not in entry.holders:
                            entry.waiters.append((txn_id, mode))
                    with self._mutex:
                        self._waits_for[txn_id] = blockers
                        if self._would_deadlock(txn_id):
                            self._waits_for.pop(txn_id, None)
                            obs.metrics().counter("oodb.lock.deadlocks").inc()
                            logger.warning(
                                "deadlock: txn %d aborted requesting %s on %r",
                                txn_id,
                                mode.value,
                                resource,
                            )
                            raise DeadlockError(
                                f"transaction {txn_id} deadlocked requesting "
                                f"{mode.value} on {resource!r}"
                            )
                    if not entry.condition.wait(timeout=self._timeout):
                        with self._mutex:
                            self._waits_for.pop(txn_id, None)
                        obs.metrics().counter("oodb.lock.timeouts").inc()
                        logger.warning(
                            "lock timeout: txn %d requesting %s on %r after %.1fs",
                            txn_id,
                            mode.value,
                            resource,
                            self._timeout,
                        )
                        raise LockTimeoutError(
                            f"transaction {txn_id} timed out requesting "
                            f"{mode.value} on {resource!r}"
                        )
            except BaseException:
                # Deadlock victim / timeout / interrupt: leave the queue and
                # wake waiters whose only fairness block was this request.
                if self._remove_waiter(entry, txn_id):
                    entry.condition.notify_all()
                with self._mutex:
                    entry.acquirers -= 1
                    self._drop_if_idle(resource, entry)
                raise
            # Later queued requests compatible with this grant (e.g. a run of
            # readers) may now proceed together.
            entry.condition.notify_all()
            if waited_since is not None:
                obs.metrics().histogram("oodb.lock.wait_seconds").observe(
                    time.perf_counter() - waited_since
                )

    def _drop_if_idle(self, resource: Hashable, entry: _LockEntry) -> None:
        """Forget ``entry`` once nothing holds, awaits or is acquiring it, so
        the table holds only live entries.  Call under the entry's condition
        and then the mutex (the order every path takes)."""
        if not (entry.holders or entry.waiters or entry.acquirers):
            del self._entries[resource]

    @staticmethod
    def _remove_waiter(entry: _LockEntry, txn_id: int) -> bool:
        """Drop ``txn_id`` from the entry's waiter queue; True if present."""
        remaining = [(w, m) for w, m in entry.waiters if w != txn_id]
        removed = len(remaining) != len(entry.waiters)
        entry.waiters[:] = remaining
        return removed

    @staticmethod
    def _blocking_set(entry: _LockEntry, txn_id: int, mode: LockMode) -> Set[int]:
        """Transactions this request must wait for: conflicting holders plus
        earlier incompatible waiters (FIFO fairness).

        A transaction already holding the entry (an upgrade) only waits on
        real conflicts, never on queued waiters — those waiters are blocked
        on the upgrader's current hold, so queueing behind them would
        deadlock by construction.
        """
        blockers = {
            holder
            for holder, held_mode in entry.holders.items()
            if holder != txn_id and not _compatible(held_mode, mode)
        }
        if txn_id in entry.holders:
            return blockers
        for waiter, waiter_mode in entry.waiters:
            if waiter == txn_id:
                break
            if not _compatible(waiter_mode, mode):
                blockers.add(waiter)
        return blockers

    @staticmethod
    def _merged_mode(entry: _LockEntry, txn_id: int, mode: LockMode) -> LockMode:
        held = entry.holders.get(txn_id)
        if held is LockMode.EXCLUSIVE or mode is LockMode.EXCLUSIVE:
            return LockMode.EXCLUSIVE
        return LockMode.SHARED

    def _would_deadlock(self, start: int) -> bool:
        """DFS over the waits-for graph looking for a cycle through ``start``."""
        stack = list(self._waits_for.get(start, ()))
        seen = set()
        while stack:
            txn = stack.pop()
            if txn == start:
                return True
            if txn in seen:
                continue
            seen.add(txn)
            stack.extend(self._waits_for.get(txn, ()))
        return False

    # -- release -------------------------------------------------------------

    def release_all(self, txn_id: int) -> None:
        """Release every lock held by ``txn_id`` (commit/abort time)."""
        with self._mutex:
            resources = self._held_by_txn.pop(txn_id, set())
            self._waits_for.pop(txn_id, None)
        for resource in resources:
            entry = self._entries.get(resource)
            if entry is None:
                continue
            with entry.condition:
                entry.holders.pop(txn_id, None)
                entry.condition.notify_all()
                with self._mutex:
                    self._drop_if_idle(resource, entry)

    # -- introspection ----------------------------------------------------------

    def holds(self, txn_id: int, resource: Hashable, mode: Optional[LockMode] = None) -> bool:
        """Return True when ``txn_id`` holds a (compatible) lock on ``resource``."""
        entry = self._entries.get(resource)
        if entry is None:
            return False
        held = entry.holders.get(txn_id)
        if held is None:
            return False
        if mode is None:
            return True
        return held is LockMode.EXCLUSIVE or held is mode
