"""One memo for version-keyed caches: ``key -> (validity token, value)``,
served while the caller's token (versions read before the data) is the one
kept, as the persistent buffer serves a result (Section 4.2).  At most
``limit`` keys, the oldest dropped first; lookups take no lock.  The owner
names the hit and miss counters and moves them once per unit of work."""

import threading
from typing import Any, Dict, Hashable, Tuple

from repro import obs


class Memo:
    def __init__(self, limit: int, hits: str, misses: str) -> None:
        self.limit, self._counters = limit, (hits, misses)
        self._entries: Dict[Hashable, Tuple[Any, Any]] = {}
        self._lock = threading.Lock()

    def get(self, key: Hashable, token: Any) -> Any:
        """The value kept under ``key`` at ``token``, else None."""
        entry = self._entries.get(key)
        return entry[1] if entry is not None and entry[0] == token else None

    def put(self, key: Hashable, token: Any, value: Any) -> None:
        """Keep ``value`` as computed at ``token``; the oldest key goes when full."""
        with self._lock:
            self._entries.pop(key, None)
            while len(self._entries) >= self.limit:
                del self._entries[next(iter(self._entries))]
            self._entries[key] = (token, value)

    def count(self, hits: int, misses: int) -> None:
        """Add to the hit and the miss counter."""
        for name, amount in zip(self._counters, (hits, misses)):
            obs.metrics().counter(name).inc(amount)
