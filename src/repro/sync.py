"""Shared synchronization primitives for the concurrent service layer.

The stdlib offers no reader-writer lock; the service layer needs one so
that IRS scoring (many concurrent readers) never observes an inverted
index mid-mutation (one writer: update propagation or an index rebuild).

:class:`ReadWriteLock` is writer-preferring — once a writer is waiting, new
readers queue behind it, so a steady query stream cannot starve update
propagation — and re-entrant per thread in both modes (a thread holding the
write lock may take it again, and may also take the read lock, which is
what lets ``propagateUpdates`` call back into engine methods that lock the
same collection).

Lock-ordering discipline (documented here because it is global): code may
acquire database locks and *then* a collection's :class:`ReadWriteLock`,
never the reverse.  Nothing running under the write lock is allowed to
block on a database lock — update propagation precomputes every database
read before entering its engine phase — so a waiting reader can never be
part of a cross-system deadlock cycle.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Iterator


class ReadWriteLock:
    """A writer-preferring, per-thread re-entrant readers-writer lock."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers: Dict[int, int] = {}  # thread ident -> hold count
        self._writer: int = 0  # thread ident of the writer, 0 when free
        self._writer_depth = 0
        self._writers_waiting = 0

    # -- read side --------------------------------------------------------

    def acquire_read(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer == me or me in self._readers:
                # Re-entrant read, or read under our own write lock.
                self._readers[me] = self._readers.get(me, 0) + 1
                return
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers[me] = 1

    def release_read(self) -> None:
        me = threading.get_ident()
        with self._cond:
            count = self._readers.get(me, 0)
            if count <= 0:
                raise RuntimeError("release_read without a matching acquire_read")
            if count == 1:
                del self._readers[me]
            else:
                self._readers[me] = count - 1
            if not self._readers:
                self._cond.notify_all()

    # -- write side -------------------------------------------------------

    def acquire_write(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                self._writer_depth += 1
                return
            if me in self._readers:
                # Upgrades deadlock two upgrading readers against each other;
                # callers must take the write lock before any read hold.
                raise RuntimeError("cannot upgrade a read hold to a write hold")
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = me
            self._writer_depth = 1

    def release_write(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer != me:
                raise RuntimeError("release_write by a thread not holding the lock")
            self._writer_depth -= 1
            if self._writer_depth == 0:
                self._writer = 0
                self._cond.notify_all()

    # -- context managers -------------------------------------------------

    @contextmanager
    def reading(self) -> Iterator[None]:
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    @contextmanager
    def writing(self) -> Iterator[None]:
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()
