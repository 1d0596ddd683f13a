"""One memo for version-keyed caches: ``key -> (validity token, value)``,
served while the caller's token (versions read before the data) is the one
kept, as the persistent buffer serves a result (Section 4.2).  At most
``limit`` keys (0 keeps nothing), evicted by second chance: a hit marks its
key without a lock, and a full ``put`` moves a marked oldest key to the back,
unmarked, before it drops an unmarked one.  The owner names the hit, miss and
eviction counters; it moves the first two once per unit of work, ``put``
the third once per dropped key."""

import threading
from typing import Any, Dict, Hashable, Set, Tuple

from repro import obs


class Memo:
    def __init__(self, limit: int, hits: str, misses: str, evictions: str) -> None:
        self.limit, self._hits, self._misses, self._evictions = limit, hits, misses, evictions
        self._entries: Dict[Hashable, Tuple[Any, Any]] = {}
        self._marked: Set[Hashable] = set()
        self._lock = threading.Lock()

    def get(self, key: Hashable, token: Any) -> Any:
        """The value kept under ``key`` at ``token``, else None."""
        entry = self._entries.get(key)
        if entry is None or entry[0] != token:
            return None
        self._marked.add(key)
        return entry[1]

    def put(self, key: Hashable, token: Any, value: Any) -> None:
        """Keep ``value`` as computed at ``token``, evicting when full."""
        if self.limit <= 0:
            return
        evicted = 0
        with self._lock:
            entries, marked = self._entries, self._marked
            entries.pop(key, None)
            while len(entries) >= self.limit:
                oldest = next(iter(entries))
                if oldest in marked:
                    marked.discard(oldest)
                    entries[oldest] = entries.pop(oldest)
                else:
                    del entries[oldest]
                    evicted += 1
            entries[key] = (token, value)
            if len(marked) > self.limit:  # marks a racing get left on dropped keys
                marked.intersection_update(entries)
        if evicted:
            obs.metrics().counter(self._evictions).inc(evicted)

    def count_one(self, hit: bool) -> None:
        """Count one lookup, a hit or a miss: one counter moves."""
        obs.metrics().counter(self._hits if hit else self._misses).inc()

    def count(self, hits: int, misses: int) -> None:
        """Add to the hit and the miss counter."""
        registry = obs.metrics()
        registry.counter(self._hits).inc(hits)
        registry.counter(self._misses).inc(misses)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        """True while ``key`` is kept, at any token."""
        return key in self._entries
