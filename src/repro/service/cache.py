"""Decoded-GOP LRU cache for the random-access read path.

``get_frame`` decodes a whole display GOP per miss (partial decode
already paid for the anchor chain, and serving workloads scrub
neighbouring frames), so the natural cache unit is the decoded GOP:
``(tenant, object_id, anchor_display) -> {display: frame}`` plus the
read classification the GOP was served under. A hit replays the cached
outcome — including a refusal — which keeps repeated seeks into the
same GOP consistent within one cache generation.

The cache is deliberately tiny and deterministic: an ``OrderedDict``
LRU with a capacity measured in GOPs (the store's ``seek_cache``),
hit/miss/eviction counters on the ``obs`` metrics registry, and an
explicit ``invalidate`` for tests and operators. Capacity 0 disables
caching without disabling the partial-read path.

Two threads share it by design: the service front-end answers hits on
its event loop (:meth:`GopCache.hit`) while its read worker fills misses
(:meth:`GopCache.get`, :meth:`GopCache.put`). Every method therefore
runs under one lock, which stays out of pickles and deep copies.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from ..obs import metrics as obs_metrics

#: Cache key: (tenant, object_id, anchor display index).
GopKey = Tuple[str, str, int]


#: Outcomes a cache must not pin at full weight: the data improves the
#: moment the repair daemon rewrites the object, so damaged GOPs are
#: admitted evict-first with a hit TTL instead of LRU-pinned.
DAMAGED_OUTCOMES = ("concealed", "refused")


@dataclass
class CachedGop:
    """One decoded display-GOP and the outcome it was served under."""

    anchor_display: int
    #: Display index -> reconstructed frame ``(H, W) uint8``.
    frames: Dict[int, np.ndarray]
    outcome: str
    refusal_reason: str = ""
    concealed_streams: Tuple[str, ...] = ()
    #: Hits this entry may still serve; ``None`` = no TTL (clean
    #: entries live by LRU alone). Set by the cache on admission.
    remaining_ttl: Optional[int] = None


@dataclass
class GopCache:
    """LRU over decoded GOPs with observable hit/miss accounting."""

    capacity: int = 16
    #: Hits a damaged (concealed/refused) admission may serve before it
    #: expires and forces a re-fetch.
    concealed_ttl: int = 1
    _entries: "OrderedDict[GopKey, CachedGop]" = field(
        default_factory=OrderedDict)
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    expirations: int = 0

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: GopKey) -> Optional[CachedGop]:
        """The cached GOP for ``key``, refreshing its recency.

        Damaged admissions carry a hit TTL: once it is spent the entry
        expires (counted as a miss), so the caller re-fetches from the
        shards — where the repair daemon may since have rewritten the
        object clean. Serving a damaged hit does *not* refresh its
        recency; it stays first in line for eviction.
        """
        with self._lock:
            entry = self._hit(key)
            if entry is not None:
                return entry
            if key in self._entries:
                del self._entries[key]
                self.expirations += 1
                obs_metrics.counter(
                    "service_gop_cache_expired_total").inc()
            self.misses += 1
            obs_metrics.counter("service_gop_cache_misses_total").inc()
            return None

    def hit(self, key: GopKey) -> Optional[CachedGop]:
        """:meth:`get` for a key that can serve a hit; ``None``, with
        nothing counted, expired or reordered, for one that cannot.

        A caller that gets ``None`` and still wants the frame calls
        :meth:`get` next, which counts the miss (or the expiry) once:
        each read counts one hit or one miss whichever way it went.
        """
        with self._lock:
            return self._hit(key)

    def _hit(self, key: GopKey) -> Optional[CachedGop]:
        entry = self._entries.get(key)
        if entry is None:
            return None
        if entry.remaining_ttl is not None:
            if entry.remaining_ttl <= 0:
                return None
            entry.remaining_ttl -= 1
        else:
            self._entries.move_to_end(key)
        self.hits += 1
        obs_metrics.counter("service_gop_cache_hits_total").inc()
        return entry

    def put(self, key: GopKey, entry: CachedGop) -> None:
        """Insert (or refresh) ``key``, evicting the LRU past capacity.

        Clean/corrected GOPs enter at the MRU end as before. Damaged
        GOPs are admitted *evict-first* (LRU end) with
        ``concealed_ttl`` hits to give — they are placeholders until
        repair, not working-set members.
        """
        if self.capacity <= 0:
            return
        damaged = entry.outcome in DAMAGED_OUTCOMES
        with self._lock:
            if damaged:
                entry.remaining_ttl = self.concealed_ttl
                obs_metrics.counter(
                    "service_gop_cache_damaged_admits_total").inc()
            self._entries[key] = entry
            self._entries.move_to_end(key, last=not damaged)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
                obs_metrics.counter(
                    "service_gop_cache_evictions_total").inc()

    def invalidate(self, tenant: Optional[str] = None,
                   object_id: Optional[str] = None) -> int:
        """Drop entries matching the given scope; returns the count.

        With no arguments the whole cache is cleared; ``tenant`` alone
        scopes to that tenant, ``object_id`` narrows to one object.
        """
        with self._lock:
            doomed = [key for key in self._entries
                      if (tenant is None or key[0] == tenant)
                      and (object_id is None or key[1] == object_id)]
            for key in doomed:
                del self._entries[key]
        return len(doomed)

    def stats(self) -> Dict[str, int]:
        """Counters snapshot for exhibits and the CLI."""
        with self._lock:
            return {"size": len(self._entries), "capacity": self.capacity,
                    "hits": self.hits, "misses": self.misses,
                    "evictions": self.evictions,
                    "expirations": self.expirations}
