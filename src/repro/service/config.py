"""Service configuration: the ``REPRO_SERVICE_*`` environment surface.

Every operator-facing knob of the serving layer lives here, resolved
with the library-wide convention that **explicit arguments always win
over the environment** (matching ``REPRO_NUM_WORKERS`` and friends —
see docs/OBSERVABILITY.md). The knobs themselves are documented for
operators in docs/SERVICE.md.
"""

from __future__ import annotations

import os
from typing import Optional

from ..errors import ServiceError

#: Number of shards in the pool.
SHARDS_ENV = "REPRO_SERVICE_SHARDS"
#: Replicas written per reliability stream (1 = the pre-replication
#: single-copy store).
REPLICAS_ENV = "REPRO_SERVICE_REPLICAS"
#: Bounded front-end retry attempts for overload/transient faults.
RETRY_ATTEMPTS_ENV = "REPRO_SERVICE_RETRY_ATTEMPTS"
#: Base backoff delay in milliseconds for front-end retries.
BACKOFF_MS_ENV = "REPRO_SERVICE_BACKOFF_MS"
#: Max repair tickets drained per background repair pass.
REPAIR_BATCH_ENV = "REPRO_REPAIR_BATCH"
#: Concealed-GOP cache admissions survive this many hits before they
#: are expired so a repaired read can replace them.
REPAIR_CACHE_TTL_ENV = "REPRO_REPAIR_CACHE_TTL"
#: Bounded ingest-queue depth; a full queue sheds new ingests.
QUEUE_DEPTH_ENV = "REPRO_SERVICE_QUEUE_DEPTH"
#: Max clips drained from the ingest queue into one encode batch.
INGEST_BATCH_ENV = "REPRO_SERVICE_INGEST_BATCH"
#: Re-read retry depth for detected-uncorrectable blocks on the read
#: path (the service-scoped override of ``REPRO_READ_RETRIES``).
READ_RETRIES_ENV = "REPRO_SERVICE_READ_RETRIES"
#: Scrub interval in days applied to every shard (unset = no scrubbing).
SCRUB_DAYS_ENV = "REPRO_SERVICE_SCRUB_DAYS"
#: Uncorrectable-block events before a shard is quarantined.
QUARANTINE_AFTER_ENV = "REPRO_SERVICE_QUARANTINE_AFTER"
#: Virtual nodes per shard on the placement ring.
VNODES_ENV = "REPRO_SERVICE_VNODES"
#: Decoded-GOP LRU capacity for the random-access read path
#: (0 disables caching without disabling partial reads).
SEEK_CACHE_ENV = "REPRO_SEEK_CACHE"

_DEFAULTS = {
    SHARDS_ENV: 4,
    REPLICAS_ENV: 2,
    QUEUE_DEPTH_ENV: 64,
    INGEST_BATCH_ENV: 8,
    READ_RETRIES_ENV: 1,
    QUARANTINE_AFTER_ENV: 3,
    VNODES_ENV: 64,
    SEEK_CACHE_ENV: 16,
    RETRY_ATTEMPTS_ENV: 3,
    BACKOFF_MS_ENV: 50,
    REPAIR_BATCH_ENV: 32,
    REPAIR_CACHE_TTL_ENV: 1,
}


def _resolve_int(explicit: Optional[int], env: str, minimum: int) -> int:
    """Explicit value, else the env var, else the default — validated."""
    if explicit is None:
        raw = os.environ.get(env, "").strip()
        if not raw:
            value = _DEFAULTS[env]
        else:
            try:
                value = int(raw)
            except ValueError:
                raise ServiceError(
                    f"{env}={raw!r} is not an integer") from None
    else:
        value = int(explicit)
    if value < minimum:
        raise ServiceError(f"{env} must be >= {minimum}, got {value}")
    return value


def resolve_shards(explicit: Optional[int] = None) -> int:
    """Shard-pool width (``REPRO_SERVICE_SHARDS``, default 4)."""
    return _resolve_int(explicit, SHARDS_ENV, 1)


def resolve_replicas(explicit: Optional[int] = None) -> int:
    """Replicas per stream (``REPRO_SERVICE_REPLICAS``, default 2)."""
    return _resolve_int(explicit, REPLICAS_ENV, 1)


def resolve_retry_attempts(explicit: Optional[int] = None) -> int:
    """Front-end retry bound (``REPRO_SERVICE_RETRY_ATTEMPTS``,
    default 3 attempts total)."""
    return _resolve_int(explicit, RETRY_ATTEMPTS_ENV, 1)


def resolve_backoff_ms(explicit: Optional[int] = None) -> int:
    """Base front-end backoff (``REPRO_SERVICE_BACKOFF_MS``,
    default 50 ms, doubled per retry)."""
    return _resolve_int(explicit, BACKOFF_MS_ENV, 0)


def resolve_repair_batch(explicit: Optional[int] = None) -> int:
    """Repair-pass drain width (``REPRO_REPAIR_BATCH``, default 32
    tickets per pass)."""
    return _resolve_int(explicit, REPAIR_BATCH_ENV, 1)


def resolve_repair_cache_ttl(explicit: Optional[int] = None) -> int:
    """Concealed-GOP cache TTL in hits (``REPRO_REPAIR_CACHE_TTL``,
    default 1: serve one hit, then force a re-fetch)."""
    return _resolve_int(explicit, REPAIR_CACHE_TTL_ENV, 0)


def resolve_queue_depth(explicit: Optional[int] = None) -> int:
    """Ingest-queue bound (``REPRO_SERVICE_QUEUE_DEPTH``, default 64)."""
    return _resolve_int(explicit, QUEUE_DEPTH_ENV, 1)


def resolve_ingest_batch(explicit: Optional[int] = None) -> int:
    """Encode-batch drain width (``REPRO_SERVICE_INGEST_BATCH``,
    default 8)."""
    return _resolve_int(explicit, INGEST_BATCH_ENV, 1)


def resolve_read_retries(explicit: Optional[int] = None) -> int:
    """Service read-ladder depth (``REPRO_SERVICE_READ_RETRIES``,
    default 1)."""
    return _resolve_int(explicit, READ_RETRIES_ENV, 0)


def resolve_quarantine_after(explicit: Optional[int] = None) -> int:
    """Shard-quarantine threshold (``REPRO_SERVICE_QUARANTINE_AFTER``,
    default 3 uncorrectable-block events)."""
    return _resolve_int(explicit, QUARANTINE_AFTER_ENV, 1)


def resolve_vnodes(explicit: Optional[int] = None) -> int:
    """Placement-ring virtual nodes (``REPRO_SERVICE_VNODES``,
    default 64)."""
    return _resolve_int(explicit, VNODES_ENV, 1)


def resolve_seek_cache(explicit: Optional[int] = None) -> int:
    """Decoded-GOP cache capacity (``REPRO_SEEK_CACHE``, default 16;
    0 disables caching)."""
    return _resolve_int(explicit, SEEK_CACHE_ENV, 0)


def resolve_scrub_days(explicit: Optional[float] = None
                       ) -> Optional[float]:
    """Shard scrub interval in days (``REPRO_SERVICE_SCRUB_DAYS``,
    unset = no scrubbing)."""
    if explicit is not None:
        value = float(explicit)
    else:
        raw = os.environ.get(SCRUB_DAYS_ENV, "").strip()
        if not raw or raw.lower() in ("none", "off", "never"):
            return None
        try:
            value = float(raw)
        except ValueError:
            raise ServiceError(
                f"{SCRUB_DAYS_ENV}={raw!r} is not a number of days"
            ) from None
    if value <= 0:
        raise ServiceError(
            f"{SCRUB_DAYS_ENV} must be > 0 days, got {value}")
    return value
