"""Approximate video store *service*: shards, keys, queue, loadgen.

This package lifts the single-video :class:`~repro.core.pipeline.
ApproximateVideoStore` facade into an operable multi-tenant service:

* :mod:`~repro.service.placement` — consistent-hash ring mapping
  stream keys onto shards;
* :mod:`~repro.service.shards` — the shard pool: aged approximate
  devices with health/quarantine accounting;
* :mod:`~repro.service.keyring` — per-tenant AES keys and the
  share/retire access policy;
* :mod:`~repro.service.store` — the content-addressed object store
  and the four-outcome read ladder (clean / corrected / concealed /
  refused);
* :mod:`~repro.service.frontend` — asyncio admission layer: bounded
  ingest queue feeding the batched encode kernel;
* :mod:`~repro.service.audit` — replay-stable append-only audit log;
* :mod:`~repro.service.repair` — read-repair queue and the
  deterministic background repair pass (the self-healing half);
* :mod:`~repro.service.loadgen` — the seeded, digest-replayable load
  generator behind ``repro loadgen``.

Sizing is set by constructor arguments; the one environment variable
the service reads, ``REPRO_SERVICE_REPLICAS``, lives in
:mod:`repro.settings` with every other. Operator documentation lives in
docs/SERVICE.md.
"""

from .audit import AuditEvent, AuditLog
from .cache import CachedGop, GopCache
from .frontend import ServiceFrontend
from .keyring import Keyring, TenantKey, TenantPolicy, derive_tenant_key
from .loadgen import (
    LoadgenReport,
    build_plan,
    run_durability_contrast,
    run_loadgen,
)
from .placement import HashRing
from .repair import (
    RepairPassReport,
    RepairQueue,
    RepairTicket,
    replication_health,
    run_repair_pass,
    scan_placement,
)
from .shards import Shard, ShardPool
from .store import (
    CLEAN,
    CONCEALED,
    CORRECTED,
    REFUSED,
    FrameReadResult,
    ObjectRecord,
    ReadResult,
    VideoObjectStore,
    object_id_for,
    stream_key,
)

__all__ = [
    "AuditEvent",
    "AuditLog",
    "CLEAN",
    "CONCEALED",
    "CORRECTED",
    "CachedGop",
    "FrameReadResult",
    "GopCache",
    "HashRing",
    "Keyring",
    "LoadgenReport",
    "ObjectRecord",
    "REFUSED",
    "ReadResult",
    "RepairPassReport",
    "RepairQueue",
    "RepairTicket",
    "ServiceFrontend",
    "Shard",
    "ShardPool",
    "TenantKey",
    "TenantPolicy",
    "VideoObjectStore",
    "build_plan",
    "derive_tenant_key",
    "object_id_for",
    "replication_health",
    "run_durability_contrast",
    "run_loadgen",
    "run_repair_pass",
    "scan_placement",
    "stream_key",
]
