"""Consistent-hash placement of reliability streams onto shards.

The object store spreads every stored object's reliability streams
across a pool of :class:`~repro.service.shards.Shard`\\ s. Placement
must be:

* **deterministic** — the same key maps to the same shard in every
  process and every run (placement is part of the loadgen's replayable
  digest);
* **stable under growth** — adding a shard moves only ``~1/N`` of the
  keyspace (the classic consistent-hashing property), so an operator
  can widen the pool without a full reshuffle;
* **independent of wall clock and insertion order** — the ring is
  built purely from shard identifiers.

Each shard contributes ``vnodes`` virtual points to the ring, placed
at ``sha256(shard_id | replica)``; a key lands on the first point
clockwise from ``sha256(key)``. SHA-256 keeps the ring identical
across Python processes (``hash()`` is salted per process and is never
used here).
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, List, Sequence, Tuple

from ..errors import ServiceError

#: Default virtual nodes per shard: enough to keep the keyspace split
#: within a few percent of even for small pools without making ring
#: construction noticeable.
DEFAULT_VNODES = 64


def stream_key(tenant: str, object_id: str, stream: str) -> str:
    """The placement-ring key of one stored reliability stream."""
    return f"{tenant}/{object_id}/{stream}"


def _point(token: str) -> int:
    """Ring coordinate of ``token``: the first 8 bytes of its SHA-256."""
    return int.from_bytes(
        hashlib.sha256(token.encode("utf-8")).digest()[:8], "big")


class HashRing:
    """A consistent-hash ring over named shards.

    >>> ring = HashRing(["shard-0", "shard-1"])
    >>> ring.place("tenant-a/obj/BCH-6")  # doctest: +SKIP
    'shard-1'
    """

    def __init__(self, shard_ids: Sequence[str],
                 vnodes: int = DEFAULT_VNODES) -> None:
        if not shard_ids:
            raise ServiceError("a hash ring needs at least one shard")
        if len(set(shard_ids)) != len(shard_ids):
            raise ServiceError(f"duplicate shard ids: {list(shard_ids)}")
        if vnodes < 1:
            raise ServiceError(f"vnodes must be >= 1, got {vnodes}")
        self.vnodes = int(vnodes)
        self._points: List[Tuple[int, str]] = []
        for shard_id in shard_ids:
            for replica in range(self.vnodes):
                self._points.append(
                    (_point(f"{shard_id}|{replica}"), shard_id))
        self._points.sort()
        self._keys = [point for point, _ in self._points]
        self.shard_ids = tuple(shard_ids)

    def place(self, key: str) -> str:
        """The shard id owning ``key`` (first ring point clockwise)."""
        index = bisect.bisect_right(self._keys, _point(key))
        if index == len(self._points):
            index = 0
        return self._points[index][1]

    def place_n(self, key: str, r: int) -> Tuple[str, ...]:
        """The first ``r`` *distinct* shards clockwise from ``key``.

        This is the replica set: element 0 is the primary (identical
        to :meth:`place`), the rest are the successor shards walking
        the ring — so shrinking or growing ``r`` never moves the
        primary, and R=1 degenerates to the single-copy placement.
        ``r`` is clamped to the pool width (a 2-shard ring can hold at
        most 2 distinct replicas).
        """
        if r < 1:
            raise ServiceError(f"replica count must be >= 1, got {r}")
        want = min(int(r), len(self.shard_ids))
        start = bisect.bisect_right(self._keys, _point(key))
        chosen: List[str] = []
        seen = set()
        for step in range(len(self._points)):
            shard_id = self._points[(start + step) % len(self._points)][1]
            if shard_id in seen:
                continue
            seen.add(shard_id)
            chosen.append(shard_id)
            if len(chosen) == want:
                break
        return tuple(chosen)

    def placement(self, keys: Sequence[str]) -> Dict[str, str]:
        """``{key: shard_id}`` for a batch of keys."""
        return {key: self.place(key) for key in keys}

    def spread(self, keys: Sequence[str]) -> Dict[str, int]:
        """``{shard_id: key count}`` — how evenly ``keys`` distribute."""
        counts = {shard_id: 0 for shard_id in self.shard_ids}
        for key in keys:
            counts[self.place(key)] += 1
        return counts
