"""Fault tolerance of the trial executor.

The contracts pinned here are the ones the fault-injection campaigns
lean on: a crashing or hanging trial is quarantined — never fatal, never
able to take other trials' results with it — and whatever survives is
bitwise identical to a clean serial run of the same campaign.

Crash/hang trials are injected through the trial-kind registry; forked
pool workers inherit the registrations.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.errors import AnalysisError, TrialTimeout
from repro.runtime import (
    FAILURE_CRASH,
    FAILURE_ERROR,
    FAILURE_TIMEOUT,
    TrialContext,
    TrialExecutor,
    TrialFailure,
    TrialResult,
    TrialSpec,
    alarm_capable,
    fork_available,
    register_trial_kind,
    run_campaign,
    run_with_deadline,
    spawn_trial_seeds,
    trial_deadline,
    unregister_trial_kind,
)

TIMEOUT_ENV = "REPRO_TRIAL_TIMEOUT"
MAX_RETRIES_ENV = "REPRO_MAX_RETRIES"

needs_fork = pytest.mark.skipif(not fork_available(),
                                reason="fork start method unavailable")
needs_alarm = pytest.mark.skipif(not alarm_capable(),
                                 reason="SIGALRM deadline unavailable")


def _noisy(state, spec):
    rng = np.random.default_rng(spec.seed)
    return TrialResult(spec.index, float(rng.normal()), 0, False)


def _crash(state, spec):
    os._exit(13)  # simulates a segfault/OOM kill: no cleanup, no pickle


def _late_crash(state, spec):
    time.sleep(spec.rate)
    os._exit(13)


def _sleeper(state, spec):
    time.sleep(spec.rate)
    return TrialResult(spec.index, 0.0, 0, False)


def _raiser(state, spec):
    raise ValueError("deliberately broken trial")


def _stubborn(state, spec):
    # Swallows the watchdog's TrialTimeout: models a hang in native code
    # that SIGALRM cannot break. Only the parent-side backstop helps.
    end = time.monotonic() + spec.rate
    while time.monotonic() < end:
        try:
            time.sleep(0.05)
        except BaseException:
            pass
    return TrialResult(spec.index, 0.0, 0, False)


@pytest.fixture(autouse=True)
def _trial_kinds():
    register_trial_kind("ft_noisy", _noisy)
    register_trial_kind("ft_crash", _crash)
    register_trial_kind("ft_sleeper", _sleeper)
    register_trial_kind("ft_raiser", _raiser)
    register_trial_kind("ft_stubborn", _stubborn)
    register_trial_kind("ft_late_crash", _late_crash)
    yield
    for kind in ("ft_noisy", "ft_crash", "ft_sleeper", "ft_raiser",
                 "ft_stubborn", "ft_late_crash"):
        unregister_trial_kind(kind)


def _specs(count, overrides=None):
    seeds = spawn_trial_seeds(np.random.default_rng(42), count)
    specs = [TrialSpec(index=i, kind="ft_noisy", seed=seeds[i])
             for i in range(count)]
    for index, (kind, rate) in (overrides or {}).items():
        specs[index] = TrialSpec(index=index, kind=kind, rate=rate,
                                 seed=seeds[index])
    return specs


class TestRegistry:
    def test_builtin_kinds_protected(self):
        with pytest.raises(AnalysisError):
            register_trial_kind("sweep", _noisy)

    def test_unknown_kind_becomes_failure(self):
        # The guard converts the AnalysisError into a quarantined
        # failure: one bad spec cannot abort a campaign.
        results, stats = run_campaign(
            TrialContext(), _specs(2, {0: ("nonsense", 0.0)}), workers=0)
        assert isinstance(results[0], TrialFailure)
        assert "unknown trial kind" in results[0].message
        assert isinstance(results[1], TrialResult)
        assert stats.failed == 1

    def test_custom_kind_runs_serial(self):
        results, stats = run_campaign(TrialContext(), _specs(3), workers=0)
        assert all(isinstance(r, TrialResult) for r in results)
        assert stats.failed == 0 and stats.completed == 3


class TestWatchdog:
    @needs_alarm
    def test_deadline_interrupts(self):
        with pytest.raises(TrialTimeout):
            run_with_deadline(lambda: time.sleep(5), 0.1, what="nap")

    @needs_alarm
    def test_deadline_restores_previous_timer(self):
        import signal
        with trial_deadline(5.0):
            pass
        assert signal.getitimer(signal.ITIMER_REAL)[0] == 0.0

    def test_zero_means_no_deadline(self):
        with trial_deadline(0.0) as armed:
            assert armed is False

    @needs_alarm
    def test_serial_timeout_becomes_failure(self):
        specs = _specs(3, {1: ("ft_sleeper", 5.0)})
        results, stats = run_campaign(TrialContext(), specs, workers=0,
                                      timeout=0.2)
        assert isinstance(results[1], TrialFailure)
        assert results[1].kind == FAILURE_TIMEOUT
        assert stats.failed == 1 and stats.completed == 2

    def test_trial_exception_becomes_failure(self):
        specs = _specs(3, {2: ("ft_raiser", 0.0)})
        results, stats = run_campaign(TrialContext(), specs, workers=0)
        assert isinstance(results[2], TrialFailure)
        assert results[2].kind == FAILURE_ERROR
        assert "ValueError" in results[2].message
        assert stats.failed == 1


class TestResolution:
    def test_timeout_env_fallback(self, monkeypatch):
        monkeypatch.setenv(TIMEOUT_ENV, "2.5")
        assert TrialExecutor(timeout=None).timeout == 2.5

    def test_timeout_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(TIMEOUT_ENV, "2.5")
        assert TrialExecutor(timeout=1.0).timeout == 1.0

    def test_timeout_garbage_env_rejected(self, monkeypatch):
        monkeypatch.setenv(TIMEOUT_ENV, "soon")
        with pytest.raises(AnalysisError):
            TrialExecutor(timeout=None)

    def test_timeout_negative_rejected(self, monkeypatch):
        monkeypatch.setenv(TIMEOUT_ENV, "-1")
        with pytest.raises(AnalysisError):
            TrialExecutor(timeout=None)
        with pytest.raises(AnalysisError):
            TrialExecutor(timeout=-0.5)

    def test_timeout_infinite_rejected(self):
        with pytest.raises(AnalysisError):
            TrialExecutor(timeout=float("inf"))

    def test_retries_env_fallback(self, monkeypatch):
        monkeypatch.setenv(MAX_RETRIES_ENV, "5")
        assert TrialExecutor(max_retries=None).max_retries == 5

    def test_retries_garbage_env_rejected(self, monkeypatch):
        monkeypatch.setenv(MAX_RETRIES_ENV, "2.5")
        with pytest.raises(AnalysisError):
            TrialExecutor(max_retries=None)

    def test_retries_negative_rejected(self, monkeypatch):
        monkeypatch.setenv(MAX_RETRIES_ENV, "-3")
        with pytest.raises(AnalysisError):
            TrialExecutor(max_retries=None)


@needs_fork
class TestCrashRecovery:
    def test_crash_is_quarantined_survivors_identical(self):
        specs = _specs(12, {5: ("ft_crash", 0.0)})
        executor = TrialExecutor(workers=2, max_retries=2,
                                 backoff_base=0.01)
        results, stats = executor.run_with_stats(TrialContext(), specs,
                                                 chunksize=3)
        failure = results[5]
        assert isinstance(failure, TrialFailure)
        assert failure.kind == FAILURE_CRASH
        assert failure.attempts == 3  # initial run + max_retries
        assert stats.quarantined == 1
        assert stats.pool_restarts >= 3
        # Every other trial survived, bitwise identical to a serial run.
        # (The baseline swaps the crash spec for a well-behaved one with
        # the same seed — per-spec seeding makes the others independent;
        # running os._exit serially would take pytest down with it.)
        serial, _ = run_campaign(TrialContext(), _specs(12), workers=0)
        for pos in range(12):
            if pos == 5:
                continue
            assert results[pos] == serial[pos]

    def test_crash_accounting_ignores_completion_order(self):
        # The same poison trial, two schedules: it dies at once while
        # its neighbours are still running, or only after they have
        # finished. Either way it must be re-run alone before blame
        # lands, so retries, quarantines and pool restarts agree.
        schedules = {
            "victim_first": {0: ("ft_sleeper", 0.5), 1: ("ft_crash", 0.0),
                             2: ("ft_sleeper", 0.5)},
            "victim_last": {1: ("ft_late_crash", 1.0)},
        }
        seen = {}
        for name, overrides in schedules.items():
            executor = TrialExecutor(workers=2, max_retries=2,
                                     backoff_base=0.01)
            results, stats = executor.run_with_stats(
                TrialContext(), _specs(3, overrides), chunksize=1)
            assert isinstance(results[1], TrialFailure), name
            assert results[1].kind == FAILURE_CRASH
            assert results[1].attempts == 3
            assert all(isinstance(results[pos], TrialResult)
                       for pos in (0, 2)), name
            seen[name] = (stats.retried, stats.quarantined,
                          stats.pool_restarts)
        assert seen["victim_first"] == seen["victim_last"] == (2, 1, 4)

    def test_whole_campaign_of_crashes_terminates(self):
        specs = _specs(3)
        specs = [TrialSpec(index=i, kind="ft_crash", seed=s.seed)
                 for i, s in enumerate(specs)]
        executor = TrialExecutor(workers=2, max_retries=0,
                                 backoff_base=0.01)
        results, stats = executor.run_with_stats(TrialContext(), specs,
                                                 chunksize=1)
        assert all(isinstance(r, TrialFailure) for r in results)
        assert stats.quarantined == 3
        assert stats.completed == 0

    @needs_alarm
    def test_worker_timeout_keeps_pool_alive(self):
        # A slow trial trips the in-worker alarm: the trial fails but
        # the worker survives, so no pool restart is needed for it.
        specs = _specs(6, {2: ("ft_sleeper", 10.0)})
        executor = TrialExecutor(workers=2, timeout=0.2, max_retries=2,
                                 backoff_base=0.01)
        results, stats = executor.run_with_stats(TrialContext(), specs,
                                                 chunksize=2)
        assert isinstance(results[2], TrialFailure)
        assert results[2].kind == FAILURE_TIMEOUT
        assert stats.failed == 1 and stats.completed == 5

    def test_hard_hang_hits_parent_backstop(self):
        # The stubborn trial swallows TrialTimeout, so only the
        # parent-side budget can reclaim the worker: pool killed,
        # trial quarantined as a timeout.
        specs = _specs(4, {2: ("ft_stubborn", 60.0)})
        executor = TrialExecutor(workers=2, timeout=0.3, max_retries=1,
                                 hang_grace=0.3, backoff_base=0.01)
        started = time.monotonic()
        results, stats = executor.run_with_stats(TrialContext(), specs,
                                                 chunksize=1)
        elapsed = time.monotonic() - started
        failure = results[2]
        assert isinstance(failure, TrialFailure)
        assert failure.kind == FAILURE_TIMEOUT
        assert "hard hang" in failure.message
        assert stats.quarantined == 1
        assert stats.pool_restarts >= 2
        assert elapsed < 30.0  # reclaimed, not waited out
        assert stats.completed == 3


@needs_fork
class TestQueuedBudgets:
    def test_slow_queued_chunks_not_mistaken_for_hangs(self):
        # The whole batch is submitted at once, so with one worker the
        # last chunk legitimately waits behind every earlier chunk's
        # runtime. A naive submit-anchored deadline would declare it
        # hard-hung while still queued; the queue-position-scaled budget
        # must let the batch finish with zero pool kills.
        specs = _specs(4, {i: ("ft_sleeper", 0.25) for i in range(4)})
        executor = TrialExecutor(workers=1, timeout=0.5, max_retries=1,
                                 hang_grace=0.2, backoff_base=0.01)
        results, stats = executor.run_with_stats(TrialContext(), specs,
                                                 chunksize=1)
        assert all(isinstance(r, TrialResult) for r in results)
        assert stats.failed == 0
        assert stats.pool_restarts == 0


@needs_fork
class TestPoolHealthcheck:
    def test_broken_initializer_fails_fast(self):
        # A context whose deserialization crashes every worker at
        # startup can never make progress — no amount of chunk retries
        # or bisection helps. The post-respawn healthcheck must abort
        # the campaign with a clear error instead of burning a full
        # retry cycle per trial.
        context = TrialContext(encoded_blob=b"not a serialized stream")
        executor = TrialExecutor(workers=2, max_retries=2,
                                 backoff_base=0.01)
        with pytest.raises(AnalysisError, match="initializer"):
            executor.run_with_stats(context, _specs(4), chunksize=1)


@needs_fork
class TestSkipAndScale:
    def test_sweep_survives_quarantine(self, encoded_small, small_video,
                                       decoded_small, monkeypatch):
        # Make one sweep trial explode inside the worker: the sweep must
        # still aggregate, with the failure counted at its rate point.
        from repro.analysis import quality_sweep
        import repro.runtime.trials as trials_mod

        original = trials_mod.execute_trial

        def sabotaged(state, spec):
            if spec.index == 1:
                raise RuntimeError("sabotaged trial")
            return original(state, spec)

        monkeypatch.setattr("repro.runtime.executor.execute_trial",
                            sabotaged)
        result = quality_sweep(
            encoded_small, small_video, decoded_small, None,
            rates=(1e-3,), runs=3, rng=np.random.default_rng(5),
            workers=0)
        point = result.points[0]
        assert point.failed == 1
        assert point.runs == 2
        assert np.isfinite(point.mean_change_db)
        assert result.stats.failed == 1
