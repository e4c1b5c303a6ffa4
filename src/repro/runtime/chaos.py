"""Deterministic cross-layer fault injection for chaos testing.

The fault-tolerance machinery — watchdogs, crash quarantine, the
retry ladder, journal resume — is only trustworthy if it is
*exercised*. This module injects faults at exactly the seams that
machinery is supposed to absorb, on a reproducible schedule:

* **device reads failing beyond the modeled rates** — an armed policy
  makes :meth:`~repro.storage.device.ApproximateDevice.store_and_read`
  corrupt extra ECC blocks *and escalate them* as uncorrectable, so the
  damage is always visible in the :class:`StorageReport` (the device's
  never-silently-corrupted contract holds even under chaos). Faults
  come in three shapes: content-keyed single blocks, content-keyed
  *correlated bursts* (contiguous block spans), and the shard-scoped
  *single-shard storm* below;
* **shard-scoped faults** — reads served through a
  :class:`~repro.service.shards.Shard` set a shard context, letting a
  policy storm one failure domain (``shard_storm``: every read off
  that shard bursts while its neighbours read clean — what replication
  and the repair daemon exist to absorb) or flake scheduled shard-read
  ordinals with :class:`~repro.errors.TransientShardError`
  (``shard_flake_reads``: what the front-end's retry/backoff ladder
  absorbs);
* **trial faults** — a chosen trial raises mid-execution (a stand-in
  for a decoder exception), hangs past its watchdog budget, or kills
  its worker process outright;
* **journal tail corruption** — the Nth journaled trial record is torn
  (partially truncated) right after its fsync, exactly the state a
  mid-write crash leaves behind.

Design rules:

* **zero-cost when disarmed** — every hook site guards on a single
  ``is not None`` check (module global or registered callable); no
  policy armed means no extra work, allocation, or randomness anywhere;
* **deterministic** — fault decisions are keyed by stable coordinates
  (payload content hash for device reads, ``spec.index`` for trial
  faults, record ordinals for journal faults) folded with the policy
  seed, never by wall clock or scheduling order. Same policy, same
  workload → same fault schedule, which :func:`schedule_digest`
  captures as a replayable fingerprint;
* **observable** — every injected fault is recorded in the event log,
  counted under ``chaos_*`` metrics, and traced as a ``chaos.fault``
  span.

Arm programmatically (``arm(policy)`` / ``disarm()``), or via the
``REPRO_CHAOS_*`` environment variables read by :func:`policy_from_env`
(the CLI arms them automatically, so any exhibit can run under chaos).
The executor starts its pool workers by ``fork``, so each inherits the
armed policy with the rest of the parent's memory, as it inherits
registered trial kinds; no policy is pickled.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from ..errors import AnalysisError, ChaosError, TransientShardError
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..settings import resolve


@dataclass(frozen=True)
class ChaosPolicy:
    """One seeded, declarative fault schedule.

    All knobs default to "no fault"; arming an all-default policy is a
    no-op that still exercises every hook's armed path. Trial-index
    tuples refer to ``TrialSpec.index`` values, so the schedule is
    independent of worker count, chunking, and execution order.
    """

    #: Folded into every keyed fault decision.
    seed: int = 0
    #: Probability that a device read of a given payload fails beyond
    #: the modeled rates. Keyed by payload content, so the decision for
    #: one payload is identical wherever and whenever it is read.
    device_fault_rate: float = 0.0
    #: Bits flipped inside the one extra failed block per faulted read.
    device_flip_bits: int = 4
    #: Probability that a device read suffers a *correlated burst*:
    #: ``device_burst_blocks`` contiguous blocks corrupted and
    #: escalated in one read — the worn-region / disturbed-neighbour
    #: failure mode single-block faults cannot model. Content-keyed
    #: like ``device_fault_rate``.
    device_burst_rate: float = 0.0
    #: Contiguous blocks corrupted per burst fault.
    device_burst_blocks: int = 4
    #: Shard id under a *single-shard storm*: device reads served from
    #: this shard fault (with the burst span above) at
    #: ``shard_storm_rate``, while every other shard reads unfaulted —
    #: the one-failure-domain disaster replication exists to absorb.
    #: Requires the read to flow through :class:`repro.service.shards.
    #: Shard` (the shard context hook); bare device reads are exempt.
    shard_storm: Optional[str] = None
    #: Per-read fault probability while the storm shard is serving.
    shard_storm_rate: float = 1.0
    #: Shard-read ordinals (0-based, process-wide) that fail with
    #: :class:`~repro.errors.TransientShardError` before touching the
    #: device — flakes the front-end's retry/backoff ladder absorbs.
    shard_flake_reads: Tuple[int, ...] = ()
    #: Trials that raise a :class:`ChaosError` mid-execution (the
    #: stand-in for a decoder blowing up on hostile input).
    fail_trials: Tuple[int, ...] = ()
    #: Trials that hang until the watchdog (or the parent's hard-hang
    #: budget) kills them.
    hang_trials: Tuple[int, ...] = ()
    #: Trials that kill their worker process outright (``os._exit``).
    #: Only meaningful under a worker pool: in serial mode this would
    #: take the campaign process down, so serial runs refuse to arm it.
    crash_trials: Tuple[int, ...] = ()
    #: Seconds a hung trial sleeps per poll (total sleep is unbounded;
    #: the watchdog is expected to fire long before).
    hang_seconds: float = 3600.0
    #: Tear the Nth (0-based) journaled trial record: truncate part of
    #: it off the file tail right after the fsync, leaving exactly the
    #: torn-tail state a mid-write crash produces. One-shot.
    journal_tear_at: Optional[int] = None
    #: Bytes torn off the end of the journal file (clamped to leave a
    #: genuinely torn — not cleanly missing — record).
    journal_tear_bytes: int = 7

    def __post_init__(self) -> None:
        if not 0.0 <= self.device_fault_rate <= 1.0:
            raise AnalysisError(
                f"device_fault_rate must be in [0, 1], got "
                f"{self.device_fault_rate}")
        if not 0.0 <= self.device_burst_rate <= 1.0:
            raise AnalysisError(
                f"device_burst_rate must be in [0, 1], got "
                f"{self.device_burst_rate}")
        if not 0.0 <= self.shard_storm_rate <= 1.0:
            raise AnalysisError(
                f"shard_storm_rate must be in [0, 1], got "
                f"{self.shard_storm_rate}")
        if self.device_flip_bits < 1:
            raise AnalysisError(
                f"device_flip_bits must be >= 1, got "
                f"{self.device_flip_bits}")
        if self.device_burst_blocks < 1:
            raise AnalysisError(
                f"device_burst_blocks must be >= 1, got "
                f"{self.device_burst_blocks}")
        if any(i < 0 for i in self.shard_flake_reads):
            raise AnalysisError("shard_flake_reads ordinals must be >= 0")
        if self.journal_tear_bytes < 1:
            raise AnalysisError(
                f"journal_tear_bytes must be >= 1, got "
                f"{self.journal_tear_bytes}")
        for name in ("fail_trials", "hang_trials", "crash_trials"):
            if any(i < 0 for i in getattr(self, name)):
                raise AnalysisError(f"{name} indices must be >= 0")

    @property
    def quiet(self) -> bool:
        """True when this policy schedules no fault at all."""
        return (self.device_fault_rate == 0.0
                and self.device_burst_rate == 0.0
                and self.shard_storm is None
                and not self.shard_flake_reads
                and not self.fail_trials
                and not self.hang_trials and not self.crash_trials
                and self.journal_tear_at is None)


@dataclass
class _ChaosState:
    """Mutable per-process state of the armed policy."""

    policy: ChaosPolicy
    events: List[dict] = field(default_factory=list)
    journal_records: int = 0
    journal_fired: bool = False
    #: Process-wide shard-read ordinal (drives flake scheduling).
    shard_reads: int = 0
    #: The shard currently serving a device read, set by the shard
    #: hook — lets content-keyed device faults become shard-scoped
    #: (the single-shard storm).
    shard_context: Optional[str] = None


#: The armed policy's state, or None (the common, zero-cost case).
#: Pool workers inherit it: the executor starts them only by ``fork``.
_ACTIVE: Optional[_ChaosState] = None


def arm(policy: ChaosPolicy) -> None:
    """Arm ``policy`` process-wide, replacing any previous policy.

    Resets the event log and all fault ordinals. Also installs the
    device-read hook into :mod:`repro.storage.device` (registered
    lazily here so the storage layer never imports the runtime).
    """
    global _ACTIVE
    _ACTIVE = _ChaosState(policy)
    from ..service import shards as service_shards
    from ..storage import device as storage_device

    storage_device._CHAOS_READ_FAULT = device_read_fault
    service_shards._CHAOS_SHARD_READ = shard_read_begin
    service_shards._CHAOS_SHARD_DONE = shard_read_end


def disarm() -> None:
    """Disarm chaos: every hook returns to its zero-cost path."""
    global _ACTIVE
    _ACTIVE = None
    from ..service import shards as service_shards
    from ..storage import device as storage_device

    storage_device._CHAOS_READ_FAULT = None
    service_shards._CHAOS_SHARD_READ = None
    service_shards._CHAOS_SHARD_DONE = None


def active() -> Optional[ChaosPolicy]:
    """The armed policy, or None when chaos is disarmed."""
    return None if _ACTIVE is None else _ACTIVE.policy


def chaos_events() -> Tuple[dict, ...]:
    """Faults fired so far in this process, in firing order.

    Each event is a JSON-ready dict with a ``kind`` plus the stable
    coordinates of the fault (payload digest, trial index, ordinal).
    Faults fired inside forked workers are recorded in those workers;
    the parent-side schedule is what :func:`schedule_digest` hashes.
    """
    return tuple(_ACTIVE.events) if _ACTIVE is not None else ()


def schedule_digest() -> str:
    """Replayable fingerprint of the fired fault schedule.

    Hashes the policy (the *declared* schedule, covering faults that
    fire in workers or kill the process before logging) together with
    the parent-side event log. Same policy + same workload → same
    digest; any divergence means a nondeterministic fault path.
    """
    if _ACTIVE is None:
        return hashlib.sha256(b"chaos-disarmed").hexdigest()[:32]
    payload = {"policy": repr(_ACTIVE.policy), "events": _ACTIVE.events}
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()[:32]


def _record(kind: str, **attrs) -> None:
    """Log one fired fault: event list + metrics + a point span."""
    state = _ACTIVE
    if state is None:  # pragma: no cover - callers check first
        return
    state.events.append({"kind": kind, **attrs})
    obs_metrics.counter("chaos_faults_injected_total").inc()
    obs_metrics.counter(f"chaos_{kind}_total").inc()
    with obs_trace.span("chaos.fault", kind=kind, **attrs):
        pass


# ----------------------------------------------------------------------
# Hook entry points (each guarded by the caller on ``_ACTIVE``)
# ----------------------------------------------------------------------

def device_read_fault(data: bytes) -> Optional[Tuple[np.random.Generator,
                                                     int, int]]:
    """Decide whether a device read of ``data`` fails beyond the model.

    Returns ``None`` (no fault), or ``(rng, flip_bits, burst_blocks)``
    the device uses to pick the extra failed block span and its
    flipped bits. Three escalating fault classes, checked in order:

    1. **single-shard storm** — when the serving shard (set by the
       shard-context hook) matches ``policy.shard_storm``, the read
       faults at ``shard_storm_rate`` with the burst span, keyed by
       ``sha256(seed | storm | shard_read_ordinal)`` so *every* read
       off the storm shard draws independently (the same ciphertext
       read twice can fault twice — a dying shard, not a bad payload);
    2. **correlated burst** — content-keyed like the single fault but
       corrupting ``device_burst_blocks`` contiguous blocks;
    3. **single-block fault** — the original content-keyed fault.

    Content-keyed decisions are identical wherever and whenever the
    payload is read, so the schedule cannot depend on trial ordering
    or worker scheduling; the storm is ordinal-keyed precisely because
    it models a *location*, not a payload.
    """
    state = _ACTIVE
    if state is None:
        return None
    policy = state.policy
    if (policy.shard_storm is not None
            and state.shard_context == policy.shard_storm):
        key = hashlib.sha256(
            f"{policy.seed}|storm|{state.shard_reads}".encode()).digest()
        u = int.from_bytes(key[:8], "big") / 2.0 ** 64
        if u < policy.shard_storm_rate:
            _record("device_storm", shard=policy.shard_storm,
                    ordinal=state.shard_reads - 1,
                    blocks=policy.device_burst_blocks)
            rng = np.random.default_rng(
                int.from_bytes(key[8:16], "big"))
            return (rng, policy.device_flip_bits,
                    policy.device_burst_blocks)
    content_sha = None
    if policy.device_burst_rate > 0.0:
        content_sha = hashlib.sha256(data).digest()
        key = hashlib.sha256(
            f"{policy.seed}|burst|".encode() + content_sha).digest()
        u = int.from_bytes(key[:8], "big") / 2.0 ** 64
        if u < policy.device_burst_rate:
            _record("device_burst",
                    payload_sha=content_sha.hex()[:16],
                    data_bytes=len(data),
                    blocks=policy.device_burst_blocks)
            rng = np.random.default_rng(
                int.from_bytes(key[8:16], "big"))
            return (rng, policy.device_flip_bits,
                    policy.device_burst_blocks)
    if policy.device_fault_rate <= 0.0:
        return None
    if content_sha is None:
        content_sha = hashlib.sha256(data).digest()
    key = hashlib.sha256(
        f"{policy.seed}|device|".encode() + content_sha).digest()
    u = int.from_bytes(key[:8], "big") / 2.0 ** 64
    if u >= policy.device_fault_rate:
        return None
    _record("device_read", payload_sha=content_sha.hex()[:16],
            data_bytes=len(data))
    rng = np.random.default_rng(int.from_bytes(key[8:16], "big"))
    return rng, policy.device_flip_bits, 1


def shard_read_begin(shard_id: str, key: str) -> None:
    """Shard-read hook: fire scheduled flakes, set the storm context.

    Called by :class:`repro.service.shards.Shard` before every device
    read it serves. Flake ordinals are process-wide and one-shot each;
    a flaked read raises :class:`~repro.errors.TransientShardError`
    *before* the context is set (no device read happens), which the
    store's replica walk or the front-end's backoff ladder absorbs.
    """
    state = _ACTIVE
    if state is None:
        return
    ordinal = state.shard_reads
    state.shard_reads += 1
    if ordinal in state.policy.shard_flake_reads:
        _record("shard_flake", shard=shard_id, ordinal=ordinal)
        raise TransientShardError(
            f"chaos: shard {shard_id} flaked at read {ordinal} "
            f"(key {key!r})")
    state.shard_context = shard_id


def shard_read_end() -> None:
    """Clear the storm context after a shard-served device read."""
    state = _ACTIVE
    if state is not None:
        state.shard_context = None


def trial_fault(index: int) -> None:
    """Fire any scheduled fault for trial ``index`` (hook in
    ``_guarded_trial``, inside the watchdog and exception guard).

    Raise (:class:`ChaosError`), hang (sleep until the watchdog or the
    parent's hard-hang budget intervenes), or crash the process.
    """
    state = _ACTIVE
    if state is None:
        return
    policy = state.policy
    if index in policy.crash_trials:
        _record("trial_crash", index=index)
        os._exit(86)  # simulate a segfault/OOM kill: no cleanup, no excuse
    if index in policy.hang_trials:
        _record("trial_hang", index=index)
        while True:  # the watchdog's SIGALRM breaks this sleep
            time.sleep(state.policy.hang_seconds)
    if index in policy.fail_trials:
        _record("trial_error", index=index)
        raise ChaosError(
            f"chaos: injected failure in trial {index} (policy seed "
            f"{policy.seed})")


def journal_record_fault(path: Path, record_bytes: int) -> None:
    """Tear the scheduled journal record's tail after its fsync.

    Truncates ``journal_tear_bytes`` (clamped so at least one byte of
    the record survives unterminated) off the file — the exact torn
    state a crash between ``write`` and a completed append leaves —
    then raises :class:`ChaosError` to kill the campaign the way the
    real crash would kill the writer. (Tearing without aborting would
    be an impossible state: a live writer gluing fresh records onto a
    torn fragment.) The caller is expected to reopen the journal and
    resume; the journal's own recovery truncates the fragment and
    re-runs the lost trial.
    """
    state = _ACTIVE
    if state is None or state.policy.journal_tear_at is None:
        return
    ordinal = state.journal_records
    state.journal_records += 1
    if state.journal_fired or ordinal != state.policy.journal_tear_at:
        return
    state.journal_fired = True
    # Tear strictly inside the record: keep >= 1 byte of it (so the
    # tail is a genuine torn fragment) and remove >= 1 byte.
    tear = max(1, min(state.policy.journal_tear_bytes, record_bytes - 1))
    size = os.path.getsize(path)
    _record("journal_tear", ordinal=ordinal, torn_bytes=tear)
    os.truncate(path, size - tear)
    raise ChaosError(
        f"chaos: journal writer crashed mid-append (record {ordinal}, "
        f"{tear} bytes torn off {path})")


# ----------------------------------------------------------------------
# Environment activation
# ----------------------------------------------------------------------

def policy_from_env() -> Optional[ChaosPolicy]:
    """Build a :class:`ChaosPolicy` from the ``REPRO_CHAOS_*`` settings.

    Returns None when no chaos variable is set (the overwhelmingly
    common case). Invalid values raise a clear :class:`AnalysisError`
    naming the variable. The CLI arms the result for every subcommand,
    so any exhibit — sweep, retention, farm — can run under an injected
    fault schedule without code changes; the campaign's forked workers
    inherit the armed policy. Crash, hang and journal-tear faults have
    no variable; a :class:`ChaosPolicy` built in code sets them.
    """
    seed = resolve("REPRO_CHAOS_SEED")
    rate = resolve("REPRO_CHAOS_DEVICE_RATE")
    burst = resolve("REPRO_CHAOS_BURST_RATE")
    storm = resolve("REPRO_CHAOS_SHARD_STORM")
    flakes = resolve("REPRO_CHAOS_SHARD_FLAKES")
    fail = resolve("REPRO_CHAOS_FAIL_TRIALS")
    if (seed is None and rate is None and burst is None and storm is None
            and not flakes and not fail):
        return None
    return ChaosPolicy(
        seed=seed or 0, device_fault_rate=rate or 0.0,
        device_burst_rate=burst or 0.0,
        device_burst_blocks=resolve("REPRO_CHAOS_BURST_BLOCKS"),
        shard_storm=storm, shard_flake_reads=flakes, fail_trials=fail)
