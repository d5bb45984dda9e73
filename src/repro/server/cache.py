"""LRU result cache for the query server.

The paper's premise is a *static, packed* database: queries vastly
outnumber updates, so identical queries recur and their encoded results
can be replayed without touching the tree at all.  Entries are keyed on
``(query key, database generation)``; because every insert/delete/repack
bumps the generation
(:attr:`repro.relational.catalog.Database.generation`), a stale entry
can never be *served* — it simply stops being addressable and ages out
of the LRU.

The cache stores the **encoded reply body** in one framing (see
:func:`repro.server.service.encode_body`), not live ``QueryResult``
objects: replaying a hit is a straight write of immutable bytes, safe
to share between connections and threads.  The framing is part of the
query key the server builds, so a text body is never replayed to a
binary connection or the other way round.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Hashable, Optional

__all__ = ["CachedResult", "QueryCache"]


class CachedResult:
    """One cached query result: its reply body, in one framing."""

    __slots__ = ("body", "nrows", "generation")

    def __init__(self, body: bytes, nrows: int, generation: int):
        self.body = body
        self.nrows = nrows
        self.generation = generation


class QueryCache:
    """A bounded LRU of encoded query results, generation-checked.

    Args:
        capacity: maximum number of cached results.  ``0`` disables the
            cache entirely (every lookup misses, every store is a no-op)
            — the throughput benchmark uses this to measure raw query
            execution.

    Thread-safe: the server consults it from the event-loop thread, but
    nothing stops tests or embedding applications from sharing one
    across threads.
    """

    def __init__(self, capacity: int = 256):
        if capacity < 0:
            raise ValueError("cache capacity must be non-negative")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidated = 0
        self._entries: OrderedDict[tuple[Hashable, Hashable],
                                   CachedResult] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Hashable, generation: Hashable,
            ) -> Optional[CachedResult]:
        """The cached result for this query key at this generation."""
        if self.capacity == 0:
            return None
        with self._lock:
            entry = self._entries.get((key, generation))
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end((key, generation))
            self.hits += 1
            return entry

    def put(self, key: Hashable, generation: Hashable, body: bytes,
            nrows: int) -> None:
        """Store an encoded reply body (evicting the LRU entry when full)."""
        if self.capacity == 0:
            return
        with self._lock:
            entry_key = (key, generation)
            self._entries[entry_key] = CachedResult(body, nrows, generation)
            self._entries.move_to_end(entry_key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def drop_stale(self, current_generation: int) -> int:
        """Proactively drop entries older than *current_generation*.

        Purely a space optimisation — stale entries are unreachable
        anyway.  Returns how many entries were dropped.
        """
        with self._lock:
            stale = [k for k, v in self._entries.items()
                     if v.generation < current_generation]
            for k in stale:
                del self._entries[k]
            self.invalidated += len(stale)
            return len(stale)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def _hit_rate_locked(self) -> float:
        # Callers hold self._lock (a plain Lock — re-acquiring would
        # deadlock, hence this unlocked core shared by hit_rate/stats).
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when idle)."""
        with self._lock:
            return self._hit_rate_locked()

    def stats(self) -> dict[str, float]:
        """Counter snapshot under ``server.cache.*`` names.

        Taken under the lock as one atomic read: concurrent get/put
        traffic can never yield a torn snapshot (e.g. hits + misses
        disagreeing with the hit rate computed from them).
        """
        with self._lock:
            return {
                "server.cache.size": float(len(self._entries)),
                "server.cache.capacity": float(self.capacity),
                "server.cache.hits": float(self.hits),
                "server.cache.misses": float(self.misses),
                "server.cache.evictions": float(self.evictions),
                "server.cache.invalidated": float(self.invalidated),
                "server.cache.hit_rate": self._hit_rate_locked(),
            }
