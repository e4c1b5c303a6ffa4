"""Trial-execution runtime: parallel, fault-tolerant Monte Carlo campaigns.

Turns the paper's fault-injection measurements into lists of
self-contained :class:`TrialSpec` objects executed — serially or over a
process pool — by :class:`TrialExecutor`, plus a session-scoped
:class:`ArtifactCache` for the clean encode/decode every campaign needs.

The execution layer survives its own failure modes: per-trial watchdog
deadlines (:mod:`~repro.runtime.watchdog`), worker-crash recovery with
bounded retries and poison-trial quarantine (:mod:`~repro.runtime.executor`),
and append-only campaign checkpoint/resume (:mod:`~repro.runtime.journal`).
"""

from .artifacts import ArtifactCache, content_key, session_cache
from .chaos import (
    ChaosPolicy,
    arm as arm_chaos,
    chaos_events,
    disarm as disarm_chaos,
    policy_from_env as chaos_policy_from_env,
    schedule_digest as chaos_schedule_digest,
)
from .executor import (
    TrialExecutor,
    default_chunksize,
    fork_available,
    run_campaign,
)
from .farm import (
    ClipEncodeResult,
    FarmResult,
    build_encode_unit_specs,
    build_farm_context,
    clip_unit_bounds,
    encode_farm,
)
from .journal import JOURNAL_VERSION, TrialJournal, campaign_digest, \
    context_digest, spec_digest
from .trials import (
    DEFAULT_BATCH_SIZE,
    FAILURE_CRASH,
    FAILURE_ERROR,
    FAILURE_TIMEOUT,
    KIND_ENCODE_UNIT,
    KIND_RETENTION_READ,
    KIND_SINGLE_FLIP,
    KIND_STORED_READ,
    KIND_SWEEP,
    RunStats,
    TrialContext,
    TrialFailure,
    TrialOutcome,
    TrialResult,
    TrialSpec,
    WorkerState,
    build_sweep_specs,
    execute_trial,
    execute_trial_batch,
    register_trial_kind,
    spawn_trial_seeds,
    unregister_trial_kind,
)
from .watchdog import alarm_capable, run_with_deadline, trial_deadline

__all__ = [
    "ArtifactCache",
    "ChaosPolicy",
    "arm_chaos",
    "chaos_events",
    "chaos_policy_from_env",
    "chaos_schedule_digest",
    "clip_unit_bounds",
    "disarm_chaos",
    "ClipEncodeResult",
    "DEFAULT_BATCH_SIZE",
    "FAILURE_CRASH",
    "FAILURE_ERROR",
    "FAILURE_TIMEOUT",
    "FarmResult",
    "JOURNAL_VERSION",
    "KIND_ENCODE_UNIT",
    "KIND_RETENTION_READ",
    "KIND_SINGLE_FLIP",
    "KIND_STORED_READ",
    "KIND_SWEEP",
    "RunStats",
    "TrialContext",
    "TrialExecutor",
    "TrialFailure",
    "TrialJournal",
    "TrialOutcome",
    "TrialResult",
    "TrialSpec",
    "WorkerState",
    "alarm_capable",
    "build_encode_unit_specs",
    "build_farm_context",
    "build_sweep_specs",
    "campaign_digest",
    "content_key",
    "context_digest",
    "default_chunksize",
    "encode_farm",
    "execute_trial",
    "execute_trial_batch",
    "fork_available",
    "register_trial_kind",
    "run_campaign",
    "run_with_deadline",
    "session_cache",
    "spawn_trial_seeds",
    "spec_digest",
    "trial_deadline",
    "unregister_trial_kind",
]
