"""The shard pool: aged approximate devices holding ciphertext streams.

A :class:`Shard` is one failure domain of the object store — a slab of
MLC PCM with its own retention age, scrub policy, and health state.
Writes park a ciphertext blob in the shard's keyspace; reads replay the
blob through an :class:`~repro.storage.device.ApproximateDevice` **at
the shard's current age**, so a pool whose shards have aged returns
exactly the damage the lifetime model predicts — per shard, not
globally.

Health: every read's :class:`~repro.storage.device.StorageReport` is
fed back into the shard; blocks that stayed uncorrectable after the
retry ladder accumulate, and a shard crossing its quarantine threshold
is marked ``quarantined``. Quarantine is *observational*: the data is
still on the shard and reads still proceed (the ladder + concealment
downstream decide what survives) — the flag exists so operators and
the placement layer can stop routing **new** writes there. This is
what lets a chaos-armed device fault storm quarantine one shard while
keys placed on the other shards keep reading clean.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..errors import ServiceError
from ..obs import metrics as obs_metrics
from ..settings import argument
from ..storage.device import ApproximateDevice, ScrubPolicy, StorageReport
from ..storage.ecc import ECCScheme
from ..storage.mlc import MLCCellModel
from .placement import DEFAULT_VNODES, HashRing

#: Shard health states.
HEALTHY = "healthy"
QUARANTINED = "quarantined"

#: Chaos seams: :func:`repro.runtime.chaos.arm` installs shard-scoped
#: hooks here (and ``disarm`` clears them) so single-shard fault storms
#: and transient shard flakes can target one failure domain without the
#: service layer importing the runtime. ``_CHAOS_SHARD_READ(shard_id,
#: key)`` runs before a device read (it may raise
#: :class:`~repro.errors.TransientShardError`); ``_CHAOS_SHARD_DONE()``
#: runs after, armed or faulted alike.
_CHAOS_SHARD_READ = None
_CHAOS_SHARD_DONE = None


@dataclass
class Shard:
    """One failure domain: a keyed blob space over an aged device."""

    shard_id: str
    #: Retention age, in days, that reads against this shard simulate.
    #: ``None`` is the nominal scrub-point read (the paper's setting).
    t_days: Optional[float] = None
    scrub: Optional[ScrubPolicy] = None
    read_retries: int = 0
    quarantine_after: int = 3
    exact_ecc: bool = False
    cell_model: MLCCellModel = field(default_factory=MLCCellModel)
    #: Ciphertext blobs by placement key.
    blobs: Dict[str, bytes] = field(default_factory=dict)
    health: str = HEALTHY
    uncorrectable_events: int = 0
    reads: int = 0
    writes: int = 0
    #: Shard-day each key was last (re)written — repair rewrites reset
    #: this so the key's cells age from the rewrite, like a scrub.
    written_day: Dict[str, float] = field(default_factory=dict)
    repairs: int = 0
    last_repair_day: Optional[float] = None

    def write(self, key: str, data: bytes) -> None:
        """Park ``data`` under ``key`` (idempotent overwrite).

        Ordinary writes stamp day 0: the shard's ``t_days`` is the
        retention overhang for everything written through this path
        (an aged pool reads its data at that age, as the retention
        sweeps assume). Only :meth:`rewrite` — repair's refresh —
        stamps the current clock.
        """
        self.blobs[key] = data
        self.writes += 1
        self.written_day[key] = 0.0

    def has(self, key: str) -> bool:
        """True when ``key`` is stored on this shard."""
        return key in self.blobs

    def blob_sha(self, key: str) -> str:
        """SHA-256 of the at-rest blob under ``key`` (hex)."""
        blob = self.blobs.get(key)
        if blob is None:
            raise ServiceError(
                f"shard {self.shard_id}: no blob under key {key!r}")
        return hashlib.sha256(blob).hexdigest()

    def delete(self, key: str) -> None:
        """Drop ``key``'s blob (no-op when absent) — the drain step."""
        self.blobs.pop(key, None)
        self.written_day.pop(key, None)

    def rewrite(self, key: str, data: bytes, scheme: ECCScheme) -> int:
        """Repair-rewrite ``key``: fresh cells, age reset, writes charged.

        Like a scrub rewrite, the cells holding ``key`` are programmed
        anew, so subsequent reads age from *now* rather than from the
        original write. Returns the cell writes charged (same
        accounting as :attr:`~repro.storage.device.StorageReport.
        scrub_cell_writes`).
        """
        self.blobs[key] = data
        self.writes += 1
        self.written_day[key] = self.t_days or 0.0
        self.repairs += 1
        self.last_repair_day = self.t_days or 0.0
        device = ApproximateDevice(cell_model=self.cell_model,
                                   read_retries=self.read_retries)
        cells = device.cells_used(8 * len(data), scheme)
        obs_metrics.counter("service_repair_cell_writes_total").inc(cells)
        return cells

    def _key_age(self, key: str) -> Optional[float]:
        """Effective retention age of ``key`` at this shard's clock.

        ``None`` (nominal) shards stay nominal; otherwise the key has
        aged only since its last (re)write, so a repair at day ``d``
        reads as a fresh write until the shard clock moves past ``d``.
        """
        if self.t_days is None:
            return None
        return max(0.0, self.t_days - self.written_day.get(key, 0.0))

    def read(self, key: str, scheme: ECCScheme,
             rng: np.random.Generator) -> Tuple[bytes, StorageReport]:
        """Read all of ``key``'s blob: :meth:`read_range` over its full
        extent.

        The store reads through :meth:`read_range` alone. This whole-
        blob form stays because perfbench's ledger wraps
        ``Shard.read``: a wrapped name that no longer resolves is
        listed under ``absent``, which must stay ``[]``.
        """
        blob = self.blobs.get(key, b"")
        data, report, _, _ = self.read_range(key, scheme, rng, 0,
                                             len(blob))
        return data, report

    def read_range(self, key: str, scheme: ECCScheme,
                   rng: np.random.Generator, byte_start: int,
                   byte_end: int
                   ) -> Tuple[bytes, StorageReport, int, int]:
        """Read ``[byte_start, byte_end)`` of ``key``'s blob back
        through the device at this shard's age.

        The requested window is widened to the scheme's ECC block
        granularity (a BCH block is the smallest unit the device can
        decode; raw ``t=0`` schemes are byte-granular), replayed
        through an aged device, and returned together with the
        *aligned* ``(start, end)`` byte bounds actually read — the
        report's :class:`~repro.storage.device.UncorrectableBlock` bit
        coordinates are relative to the aligned start, so callers
        shift by ``8 * aligned_start`` to recover blob coordinates.

        The caller supplies the RNG so every read's error draw is
        seeded by the *operation*, not by shared device state — which
        is what keeps concurrent loadgen runs replayable. The report is
        also folded into the shard's health accounting.
        """
        blob = self.blobs.get(key)
        if blob is None:
            raise ServiceError(
                f"shard {self.shard_id}: no blob under key {key!r}")
        if byte_start < 0 or byte_end < byte_start:
            raise ServiceError(
                f"shard {self.shard_id}: bad byte range "
                f"[{byte_start}, {byte_end})")
        block_bytes = scheme.data_bits // 8 if scheme.t > 0 else 1
        aligned_start = min(len(blob),
                            (byte_start // block_bytes) * block_bytes)
        aligned_end = min(len(blob),
                          -(-byte_end // block_bytes) * block_bytes)
        if _CHAOS_SHARD_READ is not None:
            _CHAOS_SHARD_READ(self.shard_id, key)
        try:
            device = ApproximateDevice(
                cell_model=self.cell_model, rng=rng, exact=self.exact_ecc,
                scrub=self.scrub, read_retries=self.read_retries)
            data, report = device.store_and_read(
                blob[aligned_start:aligned_end], scheme,
                t_days=self._key_age(key))
        finally:
            if _CHAOS_SHARD_DONE is not None:
                _CHAOS_SHARD_DONE()
        self.reads += 1
        obs_metrics.counter("service_shard_range_reads_total").inc()
        if report.failed_blocks:
            self.note_uncorrectable(report.failed_blocks)
        return data, report, aligned_start, aligned_end

    def note_uncorrectable(self, blocks: int) -> bool:
        """Record uncorrectable-block events; quarantine past threshold.

        Returns True the one time the shard transitions to
        ``quarantined`` (so callers can audit the transition exactly
        once).
        """
        self.uncorrectable_events += int(blocks)
        if (self.health == HEALTHY
                and self.uncorrectable_events >= self.quarantine_after):
            self.health = QUARANTINED
            obs_metrics.counter("service_shards_quarantined_total").inc()
            return True
        return False

    def advance(self, days: float) -> None:
        """Age the shard by ``days`` (a ``None`` age starts from 0)."""
        if days < 0:
            raise ServiceError(f"cannot age a shard by {days} days")
        self.t_days = (self.t_days or 0.0) + float(days)


class ShardPool:
    """A fixed pool of shards behind one consistent-hash ring."""

    def __init__(self, count: Optional[int] = None,
                 t_days: Optional[float] = None,
                 scrub_days: Optional[float] = None,
                 read_retries: Optional[int] = None,
                 quarantine_after: Optional[int] = None,
                 vnodes: Optional[int] = None,
                 exact_ecc: bool = False,
                 cell_model: Optional[MLCCellModel] = None) -> None:
        """Build ``count`` identically configured shards.

        A ``None`` argument takes its default: 4 shards, a read-retry
        depth of 1, quarantine after 3 uncorrectable-block events,
        :data:`~repro.service.placement.DEFAULT_VNODES` ring points per
        shard, and no scrubbing. An out-of-range value raises
        :class:`~repro.errors.ServiceError`.
        """
        count = argument("count", count, 4, 1, ServiceError)
        retries = argument("read_retries", read_retries, 1, 0, ServiceError)
        threshold = argument("quarantine_after", quarantine_after, 3, 1,
                             ServiceError)
        if scrub_days is not None and not scrub_days > 0:
            raise ServiceError(f"scrub_days must be > 0, got {scrub_days}")
        scrub = (ScrubPolicy(interval_days=scrub_days)
                 if scrub_days is not None else None)
        self.shards: Dict[str, Shard] = {}
        for index in range(count):
            shard_id = f"shard-{index}"
            self.shards[shard_id] = Shard(
                shard_id=shard_id, t_days=t_days, scrub=scrub,
                read_retries=retries, quarantine_after=threshold,
                exact_ecc=exact_ecc,
                cell_model=cell_model or MLCCellModel())
        self.ring = HashRing(sorted(self.shards), vnodes=(
            DEFAULT_VNODES if vnodes is None else vnodes))
        #: Healthy shard ids (sorted) -> their ring, for :meth:`place_n`;
        #: kept out of pickles and copies.
        self._rings: Dict[Tuple[str, ...], HashRing] = {}

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_rings"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._rings = {}

    def __len__(self) -> int:
        return len(self.shards)

    def place(self, key: str) -> Shard:
        """The shard owning ``key`` per the ring."""
        return self.shards[self.ring.place(key)]

    def place_n(self, key: str, r: int,
                healthy_only: bool = False) -> List[Shard]:
        """The first ``r`` distinct replica shards for ``key``.

        ``healthy_only`` places on a ring of the healthy shards alone —
        the placement the repair daemon targets when draining a
        quarantined shard. With fewer than ``r`` healthy shards that
        ring returns all of them (degraded redundancy); only when no
        shard is healthy does it fall back to the unfiltered walk
        (some placement beats none). A healthy set's ring is built
        once: the pool's own ring when every shard is healthy.
        """
        if healthy_only:
            healthy = tuple(sorted(s for s in self.shards
                                   if self.shards[s].health == HEALTHY))
            if healthy:
                return [self.shards[s] for s in
                        self._healthy_ring(healthy).place_n(key, r)]
        return [self.shards[s] for s in self.ring.place_n(key, r)]

    def _healthy_ring(self, healthy: Tuple[str, ...]) -> HashRing:
        """The ring over shard ids ``healthy`` (sorted), built once."""
        if healthy == self.ring.shard_ids:
            return self.ring
        ring = self._rings.get(healthy)
        if ring is None:
            ring = self._rings[healthy] = HashRing(healthy,
                                                   vnodes=self.ring.vnodes)
        return ring

    def shard(self, shard_id: str) -> Shard:
        """Look a shard up by id."""
        try:
            return self.shards[shard_id]
        except KeyError:
            raise ServiceError(f"unknown shard {shard_id!r}") from None

    def advance_all(self, days: float) -> None:
        """Age every shard by ``days`` — the degradation-curve knob."""
        for shard in self.shards.values():
            shard.advance(days)

    def set_age(self, t_days: Optional[float]) -> None:
        """Pin every shard's retention age to ``t_days``."""
        for shard in self.shards.values():
            shard.t_days = t_days

    def quarantined(self) -> List[str]:
        """Ids of shards currently quarantined."""
        return sorted(s.shard_id for s in self.shards.values()
                      if s.health == QUARANTINED)

    def health_rows(self) -> Iterable[Tuple[str, ...]]:
        """(id, health, age, reads, uncorrectable, blobs, repairs,
        last-repair) table rows — the ``repro serve stats`` surface."""
        for shard_id in sorted(self.shards):
            shard = self.shards[shard_id]
            age = ("nominal" if shard.t_days is None
                   else f"{shard.t_days:g}d")
            last = ("-" if shard.last_repair_day is None
                    else f"{shard.last_repair_day:g}d")
            yield (shard_id, shard.health, age, str(shard.reads),
                   str(shard.uncorrectable_events), str(len(shard.blobs)),
                   str(shard.repairs), last)
