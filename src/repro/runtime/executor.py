"""Campaign execution: serial, or fanned out over worker processes.

The executor takes ``(context, specs)`` and returns results in spec
order. Parallelism is opt-in and *never* changes the numbers:

* ``workers=0`` (the default when ``REPRO_NUM_WORKERS`` is unset) runs
  every trial in-process;
* ``workers>=1`` fans trials out over a ``ProcessPoolExecutor`` with
  ``fork`` start method; the shared :class:`TrialContext` is shipped via
  the pool initializer, so each worker deserializes the encoded stream
  exactly once, and specs are submitted in chunks to amortize IPC;
* when ``fork`` is unavailable (or there is nothing to parallelize) the
  executor silently falls back to the serial path.

Campaigns are additionally **fault tolerant** — one bad trial cannot
lose the other nine hundred:

* every trial may run under a wall-clock **watchdog** (``timeout=`` /
  ``REPRO_TRIAL_TIMEOUT``): an in-process ``SIGALRM`` deadline converts
  a pathologically slow decode into a structured
  :class:`~repro.runtime.trials.TrialFailure` instead of a stalled
  campaign, and a parent-side budget backstops *hard* hangs the alarm
  cannot break (the pool is killed and respawned). Parent-side
  deadlines are scaled by queue position — a chunk waiting behind
  legitimately slow predecessors is never mistaken for a hang;
* a worker **crash** (segfault, OOM kill, ``os._exit``) breaks the
  pool; the executor respawns it with exponential backoff and re-runs
  the lost chunks. To avoid blaming innocent trials, recovery enters an
  isolation mode that runs suspect chunks one at a time — a repeat
  crash is then attributable to exactly one chunk, which is bisected
  down to the poison trial and quarantined after ``max_retries``
  resubmissions. Every respawned pool must pass a trial-free
  healthcheck; a pool that cannot even come up (a crashing
  initializer) aborts the campaign with a clear error after a few
  strikes instead of burning a retry cycle per trial;
* an optional **journal** (see :mod:`repro.runtime.journal`) checkpoints
  every completed trial so an interrupted campaign resumes with only
  the missing trials re-run; the journal is keyed to both the spec list
  and the :class:`TrialContext`, so results cannot leak across
  campaigns that share a spec grid but target different videos.

Results therefore contain one :class:`TrialOutcome` per spec — a
:class:`TrialResult`, or a :class:`TrialFailure` for quarantined trials
— and :class:`RunStats` accounts for failures, retries, resumes, and
pool restarts. Determinism is a property of the trial model, not the
executor: every spec carries its own spawned seed, so any schedule —
including one interleaved with crash recovery or resumed from a journal
— produces bitwise identical surviving results (see
``tests/runtime/``).
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass
from pathlib import Path
from typing import Deque, Dict, List, Optional, Sequence, Tuple, Union

from ..errors import AnalysisError, TrialTimeout
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..obs.progress import ProgressReporter, resolve_progress
from . import chaos
from .journal import TrialJournal
from .trials import (
    FAILURE_CRASH,
    FAILURE_ERROR,
    FAILURE_TIMEOUT,
    KIND_ENCODE_UNIT,
    RunStats,
    TrialContext,
    TrialFailure,
    TrialOutcome,
    TrialResult,
    TrialSpec,
    WorkerState,
    execute_trial,
    execute_trial_batch,
    resolve_batch_size,
)
from .watchdog import resolve_trial_timeout, trial_deadline

#: Environment knob: default worker count for every campaign.
#: ``0`` or unset means serial; ``N >= 1`` means a pool of N processes.
WORKERS_ENV = "REPRO_NUM_WORKERS"

#: Environment knob: default crash-retry budget per trial.
MAX_RETRIES_ENV = "REPRO_MAX_RETRIES"

#: Resubmissions a crash-suspect trial gets before quarantine.
DEFAULT_MAX_RETRIES = 2

#: Parent-side slack (seconds) added to a chunk's watchdog budget before
#: the pool is presumed hard-hung and killed.
DEFAULT_HANG_GRACE = 5.0

#: Base delay of the exponential pool-respawn backoff, in seconds.
DEFAULT_BACKOFF_BASE = 0.05

_BACKOFF_CAP = 2.0       #: backoff ceiling, seconds
_POLL_SECONDS = 0.05     #: future-poll period while a watchdog is armed

#: Consecutive failed post-respawn healthchecks before the campaign is
#: aborted (a pool that cannot even initialize will never make progress).
_MAX_HEALTH_STRIKES = 3

#: Wall-clock budget for one healthcheck round trip (covers the worker
#: initializer deserializing a large :class:`TrialContext`).
_HEALTHCHECK_TIMEOUT = 60.0

_worker_state: Optional[WorkerState] = None
_worker_timeout: float = 0.0


def _init_worker(context: TrialContext, timeout: float = 0.0) -> None:
    """Pool initializer: deserialize shared state once per process."""
    global _worker_state, _worker_timeout
    tracer = obs_trace.active()
    if tracer is not None:
        # The fork copied the parent's span buffer and open stack; this
        # worker must start clean and report spans under its own pid.
        tracer.reset_after_fork()
    obs_metrics.reset_registry()
    _worker_state = WorkerState(context)
    _worker_timeout = timeout


def _guarded_trial(state: WorkerState, spec: TrialSpec,
                   timeout: float) -> TrialOutcome:
    """Run one trial under the watchdog, never letting it escape.

    Timeouts and exceptions become structured :class:`TrialFailure`
    records (with the original error type preserved in the message);
    only process death can still take a chunk down.
    """
    outcome: TrialOutcome
    started = time.perf_counter()
    try:
        with obs_trace.span("trial", kind=spec.kind, index=spec.index,
                            rate=spec.rate):
            with trial_deadline(timeout, what=f"trial {spec.index}"):
                if chaos._ACTIVE is not None:
                    # Inside the watchdog and the exception guard, so an
                    # injected error/hang is absorbed exactly like a
                    # real one (a crash still kills the process).
                    chaos.trial_fault(spec.index)
                outcome = execute_trial(state, spec)
    except TrialTimeout as exc:
        outcome = TrialFailure(index=spec.index, kind=FAILURE_TIMEOUT,
                               message=str(exc))
    except Exception as exc:  # quarantine, never abort the campaign
        outcome = TrialFailure(index=spec.index, kind=FAILURE_ERROR,
                               message=f"{type(exc).__name__}: {exc}")
    registry = obs_metrics.get_registry()
    registry.counter("trials_total").inc()
    registry.histogram("trial_seconds").observe(
        time.perf_counter() - started)
    if isinstance(outcome, TrialFailure):
        registry.counter("trial_failures_total").inc()
    return outcome


def _batchable_key(state: WorkerState,
                   spec: TrialSpec) -> Optional[tuple]:
    """Geometry key for stacking, or None if the spec can't batch."""
    if spec.kind != KIND_ENCODE_UNIT:
        return None
    context = state.context
    if context.clips is None or context.encoder_config is None:
        return None
    try:
        clip = context.clips[spec.clip_ref]
        start = 0 if spec.unit_start is None else spec.unit_start
        stop = len(clip) if spec.unit_stop is None else spec.unit_stop
        return (clip.height, clip.width, stop - start)
    except Exception:
        return None  # malformed spec: let the scalar path report it


def _guarded_batch(state: WorkerState,
                   group: Sequence[Tuple[int, TrialSpec]],
                   timeout: float) -> List[Tuple[int, TrialOutcome]]:
    """Run one same-geometry encode-unit group as a batched encode.

    The watchdog budget scales with group size (the batch does the work
    of ``len(group)`` trials). Any batch-level failure — timeout or
    exception — falls back to per-spec :func:`_guarded_trial` execution
    so blame lands on individual trials, exactly as if the group had
    never been batched.
    """
    specs = [spec for _, spec in group]
    started = time.perf_counter()
    try:
        with obs_trace.span("trial.batch", kind=KIND_ENCODE_UNIT,
                            size=len(specs)):
            with trial_deadline(timeout * len(specs) if timeout else 0.0,
                                what=f"encode batch of {len(specs)}"):
                results = execute_trial_batch(state, specs)
    except Exception:  # includes TrialTimeout; per-spec retry assigns blame
        obs_metrics.counter("encode_batch_fallbacks_total").inc()
        return [(pos, _guarded_trial(state, spec, timeout))
                for pos, spec in group]
    elapsed = time.perf_counter() - started
    registry = obs_metrics.get_registry()
    registry.counter("trials_total").inc(len(specs))
    registry.counter("encode_units_batched_total").inc(len(specs))
    registry.histogram("encode_batch_occupancy").observe(len(specs))
    for _ in specs:  # amortized per-trial cost, for comparable rates
        registry.histogram("trial_seconds").observe(elapsed / len(specs))
    return [(pos, result) for (pos, _), result in zip(group, results)]


def _iter_chunk_outcomes(state: WorkerState,
                         items: Sequence[Tuple[int, TrialSpec]],
                         timeout: float):
    """Execute a chunk's items, batching encode units; yields
    ``(pos, spec, outcome)`` as work completes.

    Consecutive same-geometry ``KIND_ENCODE_UNIT`` items are grouped up
    to the resolved batch width and run through the stacked kernels;
    everything else runs per-spec. Grouping only reorders *completion*
    within the chunk — the (pos, outcome) mapping is untouched, so
    campaign results are independent of batching.
    """
    batch_size = resolve_batch_size(
        getattr(state.context, "batch_size", None))
    groups: Dict[tuple, List[Tuple[int, TrialSpec]]] = {}
    for pos, spec in items:
        key = _batchable_key(state, spec) if batch_size > 1 else None
        if key is None:
            yield pos, spec, _guarded_trial(state, spec, timeout)
            continue
        group = groups.setdefault(key, [])
        group.append((pos, spec))
        if len(group) >= batch_size:
            del groups[key]
            for (out_pos, out_spec), (_, outcome) in zip(
                    group, _guarded_batch(state, group, timeout)):
                yield out_pos, out_spec, outcome
    for group in groups.values():
        if len(group) == 1:
            pos, spec = group[0]
            yield pos, spec, _guarded_trial(state, spec, timeout)
            continue
        for (out_pos, out_spec), (_, outcome) in zip(
                group, _guarded_batch(state, group, timeout)):
            yield out_pos, out_spec, outcome


def _pool_healthcheck() -> bool:
    """Sentinel task: proves a respawned pool can initialize and run.

    Runs no trial code — a failure implicates the pool itself (e.g. an
    initializer that crashes deserializing the context), not any trial.
    """
    return True


#: What one chunk ships back over the result channel: outcome records
#: plus the worker's drained observability buffers (spans, metrics).
_ChunkPayload = Tuple[List[Tuple[int, TrialOutcome]], list, dict]


def _run_chunk_remote(
        items: Sequence[Tuple[int, TrialSpec]]
) -> _ChunkPayload:
    if _worker_state is None:  # pragma: no cover - initializer always ran
        raise AnalysisError("worker used before initialization")
    records = [(pos, outcome) for pos, _, outcome in
               _iter_chunk_outcomes(_worker_state, items, _worker_timeout)]
    tracer = obs_trace.active()
    spans = tracer.drain() if tracer is not None else []
    return records, spans, obs_metrics.get_registry().drain()


def _spec_label(spec: TrialSpec) -> str:
    """Short progress-line label for a trial spec."""
    if spec.rate:
        return f"{spec.kind} rate {spec.rate:.0e}"
    return f"{spec.kind} #{spec.index}"


def resolve_workers(workers: Optional[int] = None) -> int:
    """Resolve the effective worker count.

    Explicit ``workers`` wins; otherwise ``REPRO_NUM_WORKERS`` is
    consulted; otherwise serial. Non-integer or negative settings are
    rejected with a clear :class:`AnalysisError` naming the source.
    """
    if workers is None:
        raw = os.environ.get(WORKERS_ENV, "").strip()
        if not raw:
            return 0
        try:
            workers = int(raw)
        except ValueError:
            raise AnalysisError(
                f"{WORKERS_ENV}={raw!r} is not an integer") from None
        if workers < 0:
            raise AnalysisError(f"{WORKERS_ENV}={raw!r} must be >= 0")
        return workers
    if workers < 0:
        raise AnalysisError(f"workers must be >= 0, got {workers}")
    return workers


def resolve_max_retries(max_retries: Optional[int] = None) -> int:
    """Resolve the crash-retry budget (``REPRO_MAX_RETRIES`` fallback)."""
    if max_retries is None:
        raw = os.environ.get(MAX_RETRIES_ENV, "").strip()
        if not raw:
            return DEFAULT_MAX_RETRIES
        try:
            max_retries = int(raw)
        except ValueError:
            raise AnalysisError(
                f"{MAX_RETRIES_ENV}={raw!r} is not an integer") from None
        if max_retries < 0:
            raise AnalysisError(f"{MAX_RETRIES_ENV}={raw!r} must be >= 0")
        return max_retries
    if max_retries < 0:
        raise AnalysisError(f"max_retries must be >= 0, got {max_retries}")
    return max_retries


def fork_available() -> bool:
    """True when the ``fork`` start method exists on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


def default_chunksize(num_specs: int, workers: int) -> int:
    """Chunk size targeting ~4 chunks per worker (amortizes IPC while
    keeping the tail balanced)."""
    if workers <= 0:
        return max(1, num_specs)
    return max(1, -(-num_specs // (workers * 4)))


def _kill_pool_processes(pool: ProcessPoolExecutor) -> None:
    """Best-effort hard kill of a pool's workers (hung-trial backstop).

    Reaches into the executor's process table; when unavailable the
    orphaned workers are simply abandoned to finish on their own.
    """
    processes = getattr(pool, "_processes", None)
    for process in list((processes or {}).values()):
        try:
            process.kill()
        except Exception:  # already dead, or platform says no
            pass


@dataclass
class _Chunk:
    """A resubmittable unit of work: (campaign position, spec) pairs."""

    items: List[Tuple[int, TrialSpec]]
    attempts: int = 0  #: crash/hang events attributed to this chunk


@dataclass
class _Counters:
    """Mutable fault accounting threaded through one campaign run."""

    quarantined: int = 0
    retried: int = 0
    resumed: int = 0
    pool_restarts: int = 0


class TrialExecutor:
    """Runs campaigns at a fixed worker count with fault tolerance.

    Args:
        workers: worker processes (None = ``REPRO_NUM_WORKERS``,
            0 = serial).
        timeout: per-trial wall-clock budget in seconds (None =
            ``REPRO_TRIAL_TIMEOUT``, 0 = no watchdog).
        max_retries: resubmissions a crash-suspect trial gets before
            quarantine (None = ``REPRO_MAX_RETRIES``, default 2).
        hang_grace: parent-side slack added to a chunk's budget before
            the pool is presumed hard-hung and killed.
        backoff_base: base delay of the exponential pool-respawn
            backoff.
    """

    def __init__(self, workers: Optional[int] = None,
                 timeout: Optional[float] = None,
                 max_retries: Optional[int] = None,
                 hang_grace: float = DEFAULT_HANG_GRACE,
                 backoff_base: float = DEFAULT_BACKOFF_BASE) -> None:
        self.workers = resolve_workers(workers)
        self.timeout = resolve_trial_timeout(timeout)
        self.max_retries = resolve_max_retries(max_retries)
        self.hang_grace = hang_grace
        self.backoff_base = backoff_base

    def run(self, context: TrialContext, specs: Sequence[TrialSpec],
            chunksize: Optional[int] = None,
            journal: Union[TrialJournal, str, Path, None] = None
            ) -> List[TrialOutcome]:
        """Execute all specs; outcomes come back in spec order."""
        results, _stats = self.run_with_stats(context, specs,
                                              chunksize=chunksize,
                                              journal=journal)
        return results

    def run_with_stats(self, context: TrialContext,
                       specs: Sequence[TrialSpec],
                       chunksize: Optional[int] = None,
                       journal: Union[TrialJournal, str, Path, None] = None,
                       progress: Union[bool, ProgressReporter, None] = None
                       ) -> Tuple[List[TrialOutcome], RunStats]:
        """Execute all specs; report outcomes plus fault accounting.

        ``journal`` may be a path (opened — and closed — for exactly
        this campaign) or an already-open :class:`TrialJournal`. Specs
        already present in the journal are restored, not re-run.

        ``progress`` enables a live terminal status line: pass True /
        False to override, a :class:`ProgressReporter` to render into,
        or None to consult ``REPRO_PROGRESS``. Progress (like spans and
        metrics) is observational only — it never changes outcomes.
        """
        started = time.time()
        clock = time.perf_counter()
        counters = _Counters()
        if isinstance(progress, ProgressReporter):
            reporter: Optional[ProgressReporter] = progress
        elif resolve_progress(progress):
            reporter = ProgressReporter(len(specs))
        else:
            reporter = None
        owns_journal = journal is not None and not isinstance(journal,
                                                              TrialJournal)
        journal_obj: Optional[TrialJournal]
        if owns_journal:
            journal_obj = TrialJournal.open_for(journal, specs, context)
        else:
            journal_obj = journal
        workers = self.workers
        outcomes: Dict[int, TrialOutcome] = {}
        campaign_span = obs_trace.span("campaign", trials=len(specs),
                                       workers=workers)
        try:
            with campaign_span as live:
                remaining: List[Tuple[int, TrialSpec]] = []
                for pos, spec in enumerate(specs):
                    prior = (journal_obj.completed(spec)
                             if journal_obj is not None else None)
                    if prior is not None:
                        outcomes[pos] = prior
                        counters.resumed += 1
                    else:
                        remaining.append((pos, spec))
                if reporter is not None:
                    reporter.begin(resumed=counters.resumed)
                if remaining:
                    if (workers <= 0 or len(remaining) <= 1
                            or not fork_available()):
                        workers = 0
                        self._run_serial(context, remaining, outcomes,
                                         journal_obj, reporter)
                    else:
                        self._run_pool(context, remaining, outcomes, workers,
                                       chunksize, journal_obj, counters,
                                       reporter)
                if live is not None:
                    live.attrs["workers"] = workers
                    live.attrs["resumed"] = counters.resumed
        finally:
            if reporter is not None:
                reporter.finish()
            if owns_journal and journal_obj is not None:
                journal_obj.close()
        results = [outcomes[pos] for pos in range(len(specs))]
        stats = RunStats(
            started_unix=started,
            elapsed_seconds=time.perf_counter() - clock,
            workers=workers,
            trials=len(specs),
            failed=sum(1 for r in results if isinstance(r, TrialFailure)),
            quarantined=counters.quarantined,
            retried=counters.retried,
            resumed=counters.resumed,
            pool_restarts=counters.pool_restarts,
        )
        _publish_run_stats(stats)
        return results, stats

    # -- serial path ------------------------------------------------------

    def _run_serial(self, context: TrialContext,
                    items: Sequence[Tuple[int, TrialSpec]],
                    outcomes: Dict[int, TrialOutcome],
                    journal: Optional[TrialJournal],
                    reporter: Optional[ProgressReporter] = None) -> None:
        state = WorkerState(context)
        for pos, spec, outcome in _iter_chunk_outcomes(
                state, items, self.timeout):
            outcomes[pos] = outcome
            if journal is not None and isinstance(outcome, TrialResult):
                journal.record(spec, outcome)
            if reporter is not None:
                reporter.trial_finished(isinstance(outcome, TrialResult),
                                        label=_spec_label(spec))

    # -- pool path --------------------------------------------------------

    def _run_pool(self, context: TrialContext,
                  items: Sequence[Tuple[int, TrialSpec]],
                  outcomes: Dict[int, TrialOutcome], workers: int,
                  chunksize: Optional[int],
                  journal: Optional[TrialJournal],
                  counters: _Counters,
                  reporter: Optional[ProgressReporter] = None) -> None:
        mp_context = multiprocessing.get_context("fork")
        chunk = chunksize or default_chunksize(len(items), workers)
        pending: Deque[_Chunk] = deque(
            _Chunk(list(items[i:i + chunk]))
            for i in range(0, len(items), chunk))
        suspects: Deque[_Chunk] = deque()
        max_workers = min(workers, len(items))
        pool: Optional[ProcessPoolExecutor] = None

        def open_pool() -> ProcessPoolExecutor:
            if counters.pool_restarts:
                time.sleep(min(
                    _BACKOFF_CAP,
                    self.backoff_base * 2 ** (counters.pool_restarts - 1)))
            return ProcessPoolExecutor(max_workers=max_workers,
                                       mp_context=mp_context,
                                       initializer=_init_worker,
                                       initargs=(context, self.timeout))

        def discard_pool(kill: bool) -> None:
            nonlocal pool
            if pool is None:
                return
            if kill:
                _kill_pool_processes(pool)
            pool.shutdown(wait=False, cancel_futures=True)
            pool = None
            counters.pool_restarts += 1
            if reporter is not None:
                reporter.note_pool_restart()

        def settle(victim: _Chunk, kind: str, message: str) -> None:
            # A chunk *attributably* implicated in a crash or hard hang:
            # bisect toward the poison trial, or quarantine once a
            # single trial exhausts its retries.
            attempts = victim.attempts + 1
            if len(victim.items) > 1:
                mid = len(victim.items) // 2
                suspects.append(_Chunk(victim.items[:mid], attempts))
                suspects.append(_Chunk(victim.items[mid:], attempts))
                counters.retried += 2
                if reporter is not None:
                    reporter.note_retry(2)
            elif attempts > self.max_retries:
                pos, spec = victim.items[0]
                outcomes[pos] = TrialFailure(index=spec.index, kind=kind,
                                             message=message,
                                             attempts=attempts)
                counters.quarantined += 1
                obs_metrics.counter("trials_quarantined_total").inc()
                if reporter is not None:
                    reporter.trial_finished(False, label=_spec_label(spec))
            else:
                suspects.append(_Chunk(victim.items, attempts))
                counters.retried += 1
                if reporter is not None:
                    reporter.note_retry(1)

        def absorb(victim: _Chunk, payload: _ChunkPayload) -> None:
            records, spans, metrics_snapshot = payload
            tracer = obs_trace.active()
            if tracer is not None and spans:
                tracer.absorb(spans)
            if metrics_snapshot:
                obs_metrics.get_registry().merge(metrics_snapshot)
            spec_by_pos = dict(victim.items)
            for pos, outcome in records:
                outcomes[pos] = outcome
                if journal is not None and isinstance(outcome, TrialResult):
                    journal.record(spec_by_pos[pos], outcome)
                if reporter is not None:
                    reporter.trial_finished(
                        isinstance(outcome, TrialResult),
                        label=_spec_label(spec_by_pos[pos]))

        health_strikes = 0
        try:
            while pending or suspects:
                if pool is None:
                    respawned = counters.pool_restarts > 0
                    pool = open_pool()
                    if respawned:
                        # A pool that died once gets a trial-free probe:
                        # if the *initializer* is what keeps crashing, no
                        # amount of chunk retries or bisection can ever
                        # make progress — fail fast with a clear error
                        # instead of burning a retry cycle per trial.
                        try:
                            pool.submit(_pool_healthcheck).result(
                                timeout=_HEALTHCHECK_TIMEOUT)
                        except Exception as exc:
                            health_strikes += 1
                            discard_pool(kill=True)
                            if health_strikes >= _MAX_HEALTH_STRIKES:
                                raise AnalysisError(
                                    f"worker pool failed to come back up "
                                    f"{health_strikes} times in a row "
                                    f"({type(exc).__name__}: {exc}); the "
                                    f"pool initializer appears to be "
                                    f"broken, aborting the campaign "
                                    f"(journaled results are preserved)"
                                ) from exc
                            continue
                        health_strikes = 0
                # Isolation mode: after a crash, run suspect chunks one
                # at a time so a repeat crash implicates exactly one
                # chunk; fresh chunks keep full parallelism.
                if suspects:
                    batch = [suspects.popleft()]
                else:
                    batch = list(pending)
                    pending.clear()
                inflight: Dict[Future, _Chunk] = {}
                budgets: Dict[Future, float] = {}
                submit_failed = False
                queued_items = 0
                for position, chunk_ in enumerate(batch):
                    try:
                        future = pool.submit(_run_chunk_remote, chunk_.items)
                    except (BrokenExecutor, RuntimeError):
                        # pool died before the batch was fully submitted;
                        # nothing is attributable — retry everything
                        suspects.extend(batch[position:])
                        suspects.extend(inflight.values())
                        inflight.clear()
                        budgets.clear()
                        discard_pool(kill=False)
                        submit_failed = True
                        break
                    inflight[future] = chunk_
                    queued_items += len(chunk_.items)
                    if self.timeout:
                        # Budget for the worst-case queue, not just this
                        # chunk: the whole batch is submitted at once, so
                        # a chunk may legitimately sit behind every
                        # earlier chunk's full watchdog allowance before
                        # it even starts. Anchoring each deadline at the
                        # cumulative item count guarantees a healthy but
                        # slow batch is never declared hard-hung; a real
                        # hang still trips the earliest overdue chunk
                        # first (deadlines grow with queue position), so
                        # blame stays accurate. Isolation-mode batches
                        # are single chunks, where this is exactly
                        # ``timeout * items + grace``.
                        budgets[future] = (time.monotonic()
                                           + self.timeout * queued_items
                                           + self.hang_grace)
                if submit_failed:
                    continue
                while inflight:
                    done, _not_done = wait(
                        set(inflight),
                        timeout=_POLL_SECONDS if self.timeout else None,
                        return_when=FIRST_COMPLETED)
                    broken_chunks: List[_Chunk] = []
                    for future in done:
                        victim = inflight.pop(future)
                        budgets.pop(future, None)
                        try:
                            absorb(victim, future.result())
                        except BrokenExecutor:
                            broken_chunks.append(victim)
                        except Exception as exc:
                            # result irretrievable (e.g. unpicklable);
                            # fail the chunk, not the campaign
                            for pos, spec in victim.items:
                                outcomes[pos] = TrialFailure(
                                    index=spec.index, kind=FAILURE_ERROR,
                                    message=(f"chunk result lost: "
                                             f"{type(exc).__name__}: {exc}"),
                                    attempts=victim.attempts + 1)
                                if reporter is not None:
                                    reporter.trial_finished(
                                        False, label=_spec_label(spec))
                    if broken_chunks:
                        # the pool is dead; in-flight chunks that did not
                        # report a crash were collateral, not culprits
                        collateral = list(inflight.values())
                        inflight.clear()
                        budgets.clear()
                        discard_pool(kill=False)
                        if len(batch) == 1:
                            settle(broken_chunks[0], FAILURE_CRASH,
                                   "worker process died executing this "
                                   "trial")
                        else:
                            # Blame only in isolation: whether the other
                            # chunks finished before the crash was seen
                            # is timing, so a shared batch's crash always
                            # re-runs its suspects one at a time first.
                            suspects.extend(broken_chunks)
                            suspects.extend(collateral)
                        break
                    if self.timeout and budgets:
                        now = time.monotonic()
                        overdue = {future for future, deadline
                                   in budgets.items() if now > deadline}
                        if overdue:
                            # hard hang the in-worker alarm could not
                            # break: kill the pool, blame exactly the
                            # overdue chunks
                            for future, victim in list(inflight.items()):
                                if future in overdue:
                                    settle(victim, FAILURE_TIMEOUT,
                                           f"hard hang: trial ignored its "
                                           f"{self.timeout:.3g}s deadline")
                                else:
                                    suspects.append(victim)
                            inflight.clear()
                            budgets.clear()
                            discard_pool(kill=True)
                            break
        finally:
            if pool is not None:
                pool.shutdown(wait=True)


def _publish_run_stats(stats: RunStats) -> None:
    """Publish one campaign's :class:`RunStats` into the metrics
    registry (counters accumulate across campaigns in one process)."""
    registry = obs_metrics.get_registry()
    registry.counter("campaign_runs_total").inc()
    registry.counter("campaign_trials_total").inc(stats.trials)
    registry.counter("campaign_failed_total").inc(stats.failed)
    registry.counter("campaign_quarantined_total").inc(stats.quarantined)
    registry.counter("campaign_retried_total").inc(stats.retried)
    registry.counter("campaign_resumed_total").inc(stats.resumed)
    registry.counter("campaign_pool_restarts_total").inc(
        stats.pool_restarts)
    registry.gauge("campaign_trials_per_second").set(
        stats.trials_per_second)
    registry.gauge("campaign_workers").set(stats.workers)


def run_campaign(context: TrialContext, specs: Sequence[TrialSpec],
                 workers: Optional[int] = None,
                 chunksize: Optional[int] = None,
                 timeout: Optional[float] = None,
                 max_retries: Optional[int] = None,
                 journal: Union[TrialJournal, str, Path, None] = None,
                 progress: Union[bool, ProgressReporter, None] = None
                 ) -> Tuple[List[TrialOutcome], RunStats]:
    """One-shot convenience wrapper around :class:`TrialExecutor`."""
    executor = TrialExecutor(workers, timeout=timeout,
                             max_retries=max_retries)
    return executor.run_with_stats(context, specs, chunksize=chunksize,
                                   journal=journal, progress=progress)
