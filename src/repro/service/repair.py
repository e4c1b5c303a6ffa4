"""Read-repair queue and the deterministic background repair pass.

Self-healing has two halves. The **queue** (:class:`RepairQueue`) is
fed by the read path: any read that survived only via a secondary
replica, saw ``corrected``/``concealed`` damage, or was refused
outright enqueues its object for repair (deduped, FIFO). The **pass**
(:func:`run_repair_pass`) is the daemon body: it first scans the
store's placement for violations — a replica chain touching a
quarantined shard, a missing copy, fewer copies than
``REPRO_SERVICE_REPLICAS`` healthy shards could hold — then drains up
to ``limit`` tickets (default 32), stream by stream:

1. compute the *wanted* placement: the first R **healthy** shards
   clockwise from the stream key (quarantined shards are skipped, so
   quarantine stops being observational and becomes actionable);
2. pick a **verified source**: a replica whose at-rest blob hashes to
   the write-time ``stream_sha`` — repair never propagates tampered or
   rotten bytes (at-rest blobs are pristine in this simulation; damage
   is a read-time phenomenon, which is exactly why the at-rest copy is
   the right donor);
3. rewrite every wanted target from the source. A rewrite programs
   fresh cells: it is charged to the cell-write budget exactly like a
   scrub (``service_repair_cell_writes_total``) and **resets the key's
   retention age** on that shard, so the next read sees a fresh write;
4. drain strays: copies parked on shards outside the wanted set
   (quarantined donors included) are deleted once the wanted set is
   whole;
5. update the record's replica chain + primary and invalidate the
   object's cached GOPs so a post-repair seek re-fetches clean data.

Everything is deterministic: tickets drain in FIFO order, streams
repair in sorted-name order, and no step consults a clock or an
unseeded RNG — a repaired store's state is a pure function of the
operation history, which is what lets the scenario matrix replay
repair runs bit-identically.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Set, Tuple

from ..errors import ServiceError
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..settings import argument
from ..storage.ecc import scheme_by_name


@dataclass(frozen=True)
class RepairTicket:
    """One queued repair request for a placed object."""

    tenant: str
    object_id: str
    #: Why it was enqueued: ``read_repair`` (the read path saw damage
    #: or escalated to a secondary) or ``placement`` (the scan found a
    #: replica-chain violation: quarantined/missing/under-replicated).
    reason: str


class RepairQueue:
    """Deduped FIFO of objects awaiting repair.

    An object already queued is not queued again until its ticket is
    popped — a hot damaged object read in a tight loop costs one
    repair, not one per read.
    """

    def __init__(self) -> None:
        self._tickets: Deque[RepairTicket] = deque()
        self._pending: Set[Tuple[str, str]] = set()

    def __len__(self) -> int:
        return len(self._tickets)

    def enqueue(self, tenant: str, object_id: str,
                reason: str = "read_repair") -> bool:
        """Queue ``(tenant, object_id)``; False if already pending."""
        key = (tenant, object_id)
        if key in self._pending:
            return False
        self._pending.add(key)
        self._tickets.append(
            RepairTicket(tenant=tenant, object_id=object_id,
                         reason=reason))
        obs_metrics.counter("service_repair_enqueued_total").inc()
        obs_metrics.gauge("service_repair_backlog").set(
            len(self._tickets))
        return True

    def pop(self) -> Optional[RepairTicket]:
        """The oldest ticket, or ``None`` when the queue is empty."""
        if not self._tickets:
            return None
        ticket = self._tickets.popleft()
        self._pending.discard((ticket.tenant, ticket.object_id))
        obs_metrics.gauge("service_repair_backlog").set(
            len(self._tickets))
        return ticket

    def backlog(self) -> int:
        """Tickets currently waiting."""
        return len(self._tickets)


@dataclass
class RepairPassReport:
    """Accounting of one :func:`run_repair_pass` invocation."""

    scanned_objects: int = 0
    scan_enqueued: int = 0
    tickets_drained: int = 0
    objects_repaired: int = 0
    streams_rewritten: int = 0
    cell_writes: int = 0
    strays_deleted: int = 0
    #: Streams no verified source could be found for (left untouched).
    unrepairable_streams: int = 0
    backlog: int = 0
    #: Shard ids that lost at least one blob to the drain step.
    drained_shards: Tuple[str, ...] = field(default_factory=tuple)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready summary (stable key order for digests)."""
        return {
            "scanned_objects": self.scanned_objects,
            "scan_enqueued": self.scan_enqueued,
            "tickets_drained": self.tickets_drained,
            "objects_repaired": self.objects_repaired,
            "streams_rewritten": self.streams_rewritten,
            "cell_writes": self.cell_writes,
            "strays_deleted": self.strays_deleted,
            "unrepairable_streams": self.unrepairable_streams,
            "backlog": self.backlog,
            "drained_shards": list(self.drained_shards),
        }


def _wanted_placement(store, key: str) -> List[str]:
    """Ids of the first R healthy shards for ``key`` (ring order)."""
    return [shard.shard_id
            for shard in store.pool.place_n(key, store.replicas,
                                            healthy_only=True)]


def _chain_violated(store, record, name: str, key: str) -> bool:
    """True when ``name``'s replica chain needs a placement repair.

    A chain is violated when a copy is missing or when the chain
    differs from the *achievable* wanted placement. Comparing against
    the wanted set (not raw shard health) is what makes the scan
    convergent: when every shard is quarantined the healthy-only walk
    falls back to the unfiltered ring, wanted equals the chain, and no
    un-actionable ticket is enqueued forever.
    """
    chain = record.replicas.get(name) or (record.placement[name],)
    held = [sid for sid in chain if store.pool.shard(sid).has(key)]
    if len(held) < len(chain):
        return True
    return set(chain) != set(_wanted_placement(store, key))


def scan_placement(store) -> Tuple[int, int]:
    """Enqueue every object whose replica chain is violated.

    Returns ``(objects scanned, objects enqueued)``. This is the
    daemon's discovery half: it turns shard-health state (quarantine,
    drained blobs, pool regrowth) into repair work even for objects
    nobody is reading.
    """
    scanned = enqueued = 0
    for record in store.objects():
        scanned += 1
        from .store import stream_key
        for name in sorted(record.stream_lengths):
            key = stream_key(record.tenant, record.object_id, name)
            if _chain_violated(store, record, name, key):
                if store.repair.enqueue(record.tenant, record.object_id,
                                        reason="placement"):
                    enqueued += 1
                break
    return scanned, enqueued


def _repair_stream(store, record, name: str,
                   report: RepairPassReport) -> bool:
    """Repair one stream's replica chain; True if anything changed."""
    from .store import stream_key
    key = stream_key(record.tenant, record.object_id, name)
    scheme = scheme_by_name(name)
    want = _wanted_placement(store, key)
    chain = list(record.replicas.get(name)
                 or (record.placement[name],))
    # A verified donor: any shard whose at-rest blob still hashes to
    # the write-time record. Walk the recorded chain first, then the
    # whole pool (a drained-then-regrown pool may hold strays).
    source = None
    candidates = chain + [sid for sid in sorted(store.pool.shards)
                          if sid not in chain]
    for sid in candidates:
        shard = store.pool.shard(sid)
        if shard.has(key) and shard.blob_sha(key) == \
                record.stream_sha[name]:
            source = shard
            break
    if source is None:
        report.unrepairable_streams += 1
        obs_metrics.counter("service_repair_unrepairable_total").inc()
        return False
    blob = source.blobs[key]
    changed = False
    for sid in want:
        target = store.pool.shard(sid)
        stale = (target.has(key)
                 and target.blob_sha(key) != record.stream_sha[name])
        if not target.has(key) or stale:
            report.cell_writes += target.rewrite(key, blob, scheme)
            report.streams_rewritten += 1
            changed = True
        elif sid in chain:
            # The copy is present and verified but was read as damaged
            # (read-repair) or sits beside a violation: refresh its
            # cells so its age resets like a scrub.
            report.cell_writes += target.rewrite(key, blob, scheme)
            report.streams_rewritten += 1
            changed = True
    drained = []
    for sid in sorted(store.pool.shards):
        if sid not in want and store.pool.shard(sid).has(key):
            store.pool.shard(sid).delete(key)
            report.strays_deleted += 1
            drained.append(sid)
            changed = True
    if drained:
        report.drained_shards = tuple(
            sorted(set(report.drained_shards) | set(drained)))
    if tuple(want) != tuple(chain) or record.placement[name] != want[0]:
        changed = True
    record.replicas[name] = tuple(want)
    record.placement[name] = want[0]
    return changed


def run_repair_pass(store, limit: Optional[int] = None,
                    scan: bool = True) -> RepairPassReport:
    """One deterministic repair-daemon iteration over ``store``.

    ``limit`` bounds the tickets drained (default 32);
    ``scan=False`` skips placement discovery and drains only what the
    read path already enqueued. Returns a :class:`RepairPassReport`.
    """
    limit = argument("limit", limit, 32, 1, ServiceError)
    report = RepairPassReport()
    with obs_trace.span("service.repair_pass", limit=limit, scan=scan):
        if scan:
            report.scanned_objects, report.scan_enqueued = \
                scan_placement(store)
        for _ in range(limit):
            ticket = store.repair.pop()
            if ticket is None:
                break
            report.tickets_drained += 1
            try:
                record = store.record(ticket.tenant, ticket.object_id)
            except ServiceError:
                continue  # retired between enqueue and drain
            changed = False
            for name in sorted(record.stream_lengths):
                if _repair_stream(store, record, name, report):
                    changed = True
            if changed:
                report.objects_repaired += 1
                store.gop_cache.invalidate(tenant=ticket.tenant,
                                           object_id=ticket.object_id)
                store.audit.record(
                    "repair", ticket.tenant, ticket.object_id,
                    detail=f"reason={ticket.reason} "
                           f"streams={len(record.stream_lengths)}")
                obs_metrics.counter(
                    "service_repair_objects_total").inc()
    report.backlog = store.repair.backlog()
    obs_metrics.counter("service_repair_passes_total").inc()
    obs_metrics.gauge("service_repair_backlog").set(report.backlog)
    return report


def replication_health(store) -> Dict[str, int]:
    """Replica-chain census: how healed the store currently is."""
    from .store import stream_key
    full = under = 0
    for record in store.objects():
        ok = True
        for name in sorted(record.stream_lengths):
            key = stream_key(record.tenant, record.object_id, name)
            chain = record.replicas.get(name) \
                or (record.placement[name],)
            held = [sid for sid in chain
                    if store.pool.shard(sid).has(key)]
            if (len(held) < len(chain)
                    or set(chain) != set(_wanted_placement(store, key))):
                ok = False
                break
        full += ok
        under += not ok
    return {"objects": len(store.objects()), "fully_replicated": full,
            "under_replicated": under,
            "backlog": store.repair.backlog()}
