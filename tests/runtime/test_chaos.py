"""Deterministic fault injection: the chaos harness.

The contracts pinned here are the ones the scenario matrix leans on:
disarmed chaos is invisible (no hook fires, no event, no state); an
armed policy fires the same fault schedule for the same workload
(schedule_digest is replayable); and every injected fault lands in the
failure path the production machinery already handles — trial failure,
quarantine, torn-tail journal recovery, device damage that is always
*visible* in the storage report.
"""

from __future__ import annotations


import numpy as np
import pytest

from repro.errors import AnalysisError, ChaosError, TransientShardError
from repro.runtime import (
    ChaosPolicy,
    TrialContext,
    TrialFailure,
    TrialJournal,
    TrialResult,
    TrialSpec,
    arm_chaos,
    campaign_digest,
    chaos_events,
    chaos_policy_from_env,
    chaos_schedule_digest,
    fork_available,
    register_trial_kind,
    run_campaign,
    spawn_trial_seeds,
    unregister_trial_kind,
)
from repro.runtime import chaos
from repro.runtime.chaos import disarm
from repro.storage import device as storage_device
from repro.storage.device import ApproximateDevice
from repro.storage.ecc import scheme_by_name

needs_fork = pytest.mark.skipif(not fork_available(),
                                reason="fork start method unavailable")


def _echo(state, spec):
    rng = np.random.default_rng(spec.seed)
    return TrialResult(spec.index, float(rng.normal()), 0, False)


@pytest.fixture(autouse=True)
def _clean_chaos():
    register_trial_kind("chaos-echo", _echo)
    yield
    disarm()
    unregister_trial_kind("chaos-echo")


def _specs(count, seed=3):
    seeds = spawn_trial_seeds(np.random.default_rng(seed), count)
    return [TrialSpec(index=i, kind="chaos-echo", seed=seeds[i])
            for i in range(count)]


class TestPolicy:
    def test_validation(self):
        with pytest.raises(AnalysisError):
            ChaosPolicy(device_fault_rate=1.5)
        with pytest.raises(AnalysisError):
            ChaosPolicy(device_flip_bits=0)
        with pytest.raises(AnalysisError):
            ChaosPolicy(journal_tear_bytes=0)
        with pytest.raises(AnalysisError):
            ChaosPolicy(fail_trials=(-1,))

    def test_quiet(self):
        assert ChaosPolicy().quiet
        assert ChaosPolicy(seed=9).quiet
        assert not ChaosPolicy(fail_trials=(0,)).quiet
        assert not ChaosPolicy(device_fault_rate=0.1).quiet

    def test_env_round_trip(self, monkeypatch):
        assert chaos_policy_from_env() is None
        monkeypatch.setenv("REPRO_CHAOS_SEED", "7")
        monkeypatch.setenv("REPRO_CHAOS_DEVICE_RATE", "0.25")
        monkeypatch.setenv("REPRO_CHAOS_FAIL_TRIALS", "1,3")
        policy = chaos_policy_from_env()
        assert policy == ChaosPolicy(seed=7, device_fault_rate=0.25,
                                     fail_trials=(1, 3))

    def test_env_garbage_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS_FAIL_TRIALS", "one,two")
        with pytest.raises(AnalysisError, match="REPRO_CHAOS_FAIL_TRIALS"):
            chaos_policy_from_env()
        monkeypatch.delenv("REPRO_CHAOS_FAIL_TRIALS")
        monkeypatch.setenv("REPRO_CHAOS_DEVICE_RATE", "lots")
        with pytest.raises(AnalysisError, match="REPRO_CHAOS_DEVICE_RATE"):
            chaos_policy_from_env()


class TestArming:
    def test_disarmed_is_invisible(self):
        assert chaos.active() is None
        assert chaos_events() == ()
        assert storage_device._CHAOS_READ_FAULT is None
        # Hooks on the armed-only path are no-ops when disarmed.
        chaos.trial_fault(0)
        assert chaos.device_read_fault(b"payload") is None

    def test_arm_installs_and_disarm_removes_device_hook(self):
        arm_chaos(ChaosPolicy(device_fault_rate=0.5))
        assert storage_device._CHAOS_READ_FAULT is chaos.device_read_fault
        assert chaos.active() == ChaosPolicy(device_fault_rate=0.5)
        disarm()
        assert storage_device._CHAOS_READ_FAULT is None
        assert chaos.active() is None

    def test_rearm_resets_schedule(self):
        arm_chaos(ChaosPolicy(fail_trials=(0,)))
        with pytest.raises(ChaosError):
            chaos.trial_fault(0)
        assert len(chaos_events()) == 1
        arm_chaos(ChaosPolicy(fail_trials=(0,)))
        assert chaos_events() == ()

    def test_schedule_digest_replayable(self):
        disarmed = chaos_schedule_digest()
        assert disarmed == chaos_schedule_digest()
        digests = []
        for _ in range(2):
            arm_chaos(ChaosPolicy(seed=5, fail_trials=(1,)))
            with pytest.raises(ChaosError):
                chaos.trial_fault(1)
            digests.append(chaos_schedule_digest())
            disarm()
        assert digests[0] == digests[1]
        assert digests[0] != disarmed
        # A different schedule is a different fingerprint.
        arm_chaos(ChaosPolicy(seed=6, fail_trials=(1,)))
        with pytest.raises(ChaosError):
            chaos.trial_fault(1)
        assert chaos_schedule_digest() != digests[0]


class TestTrialFaults:
    def test_fail_trial_fails_survivors_bitwise_equal(self):
        specs = _specs(5)
        clean = run_campaign(TrialContext(), specs, workers=0)
        arm_chaos(ChaosPolicy(fail_trials=(2,)))
        outcomes, stats = run_campaign(TrialContext(), specs, workers=0)
        assert stats.failed == 1 and stats.completed == 4
        assert isinstance(outcomes[2], TrialFailure)
        assert "chaos" in outcomes[2].message
        for index in (0, 1, 3, 4):
            assert outcomes[index].value_db == clean[0][index].value_db

    @needs_fork
    def test_crash_trial_quarantined_survivors_bitwise_equal(self):
        specs = _specs(5)
        clean = run_campaign(TrialContext(), specs, workers=0)
        arm_chaos(ChaosPolicy(crash_trials=(1,)))
        outcomes, stats = run_campaign(TrialContext(), specs, workers=2,
                                       chunksize=1, max_retries=2)
        assert stats.quarantined == 1
        assert isinstance(outcomes[1], TrialFailure)
        for index in (0, 2, 3, 4):
            assert outcomes[index].value_db == clean[0][index].value_db

    def test_hang_trial_hits_watchdog(self):
        pytest.importorskip("signal")
        from repro.runtime import alarm_capable

        if not alarm_capable():
            pytest.skip("SIGALRM deadline unavailable")
        specs = _specs(3)
        arm_chaos(ChaosPolicy(hang_trials=(1,), hang_seconds=0.05))
        outcomes, stats = run_campaign(TrialContext(), specs, workers=0,
                                       timeout=0.3)
        assert stats.failed == 1
        assert isinstance(outcomes[1], TrialFailure)
        assert isinstance(outcomes[0], TrialResult)
        assert isinstance(outcomes[2], TrialResult)


class TestDeviceFaults:
    def test_damage_always_visible_never_silent(self):
        payload = bytes(range(256)) * 8
        scheme = scheme_by_name("BCH-6")
        arm_chaos(ChaosPolicy(seed=1, device_fault_rate=1.0))
        device = ApproximateDevice(rng=np.random.default_rng(0))
        _, report = device.store_and_read(payload, scheme)
        events = [e for e in chaos_events() if e["kind"] == "device_read"]
        assert len(events) == 1
        # The injected failure is escalated, not silently absorbed.
        assert report.failed_blocks >= 1
        assert report.miscorrected_blocks == 0

    def test_fault_keyed_by_content_not_order(self):
        payload = b"stable payload" * 64
        scheme = scheme_by_name("BCH-6")
        reads = []
        for _ in range(2):
            arm_chaos(ChaosPolicy(seed=1, device_fault_rate=0.5))
            device = ApproximateDevice(rng=np.random.default_rng(0))
            device.store_and_read(payload, scheme)
            reads.append(chaos_events())
            disarm()
        assert reads[0] == reads[1]

    def test_disarmed_read_is_clean_path(self):
        payload = b"clean" * 100
        scheme = scheme_by_name("BCH-6")
        device = ApproximateDevice(rng=np.random.default_rng(0),
                                   cell_model=None)
        _, report = device.store_and_read(payload, scheme)
        assert chaos_events() == ()


class TestCorrelatedAndShardFaults:
    PAYLOAD = bytes(range(256)) * 8

    def test_burst_damages_a_multi_block_span(self):
        arm_chaos(ChaosPolicy(seed=1, device_burst_rate=1.0,
                              device_burst_blocks=3))
        device = ApproximateDevice(rng=np.random.default_rng(0))
        _, report = device.store_and_read(self.PAYLOAD,
                                          scheme_by_name("BCH-6"))
        events = [e for e in chaos_events()
                  if e["kind"] == "device_burst"]
        assert len(events) == 1
        assert events[0]["blocks"] == 3
        # The whole span surfaces as failed blocks, never silently.
        assert report.failed_blocks >= 3
        assert report.miscorrected_blocks == 0

    def test_burst_is_content_keyed_and_replayable(self):
        runs = []
        for _ in range(2):
            arm_chaos(ChaosPolicy(seed=4, device_burst_rate=0.5,
                                  device_burst_blocks=2))
            device = ApproximateDevice(rng=np.random.default_rng(0))
            device.store_and_read(self.PAYLOAD, scheme_by_name("BCH-6"))
            runs.append((chaos_events(), chaos_schedule_digest()))
            disarm()
        assert runs[0] == runs[1]

    def test_storm_ignores_bare_device_reads(self):
        # The storm models a failing *location*: a device read with no
        # shard context (no Shard served it) is exempt.
        arm_chaos(ChaosPolicy(seed=1, shard_storm="shard-0"))
        device = ApproximateDevice(rng=np.random.default_rng(0),
                                   cell_model=None)
        device.store_and_read(self.PAYLOAD, scheme_by_name("BCH-6"))
        assert chaos_events() == ()

    def test_storm_scoped_to_the_named_shard(self):
        arm_chaos(ChaosPolicy(seed=1, shard_storm="shard-1",
                              device_burst_blocks=3))
        scheme = scheme_by_name("BCH-6")
        chaos.shard_read_begin("shard-0", "key")
        device = ApproximateDevice(rng=np.random.default_rng(0))
        device.store_and_read(self.PAYLOAD, scheme)
        chaos.shard_read_end()
        assert chaos_events() == ()  # bystander shard reads unfaulted
        chaos.shard_read_begin("shard-1", "key")
        _, report = ApproximateDevice(
            rng=np.random.default_rng(1)).store_and_read(
                self.PAYLOAD, scheme)
        chaos.shard_read_end()
        events = [e for e in chaos_events()
                  if e["kind"] == "device_storm"]
        assert len(events) == 1
        assert events[0]["shard"] == "shard-1"
        assert events[0]["ordinal"] == 1
        assert report.failed_blocks >= 3

    def test_storm_is_ordinal_keyed_not_content_keyed(self):
        # The same payload read twice off the dying shard faults both
        # times: the storm keys on the read ordinal, not the bytes.
        arm_chaos(ChaosPolicy(seed=1, shard_storm="shard-0"))
        scheme = scheme_by_name("BCH-6")
        for attempt in range(2):
            chaos.shard_read_begin("shard-0", "key")
            ApproximateDevice(
                rng=np.random.default_rng(attempt)).store_and_read(
                    self.PAYLOAD, scheme)
            chaos.shard_read_end()
        ordinals = [e["ordinal"] for e in chaos_events()
                    if e["kind"] == "device_storm"]
        assert ordinals == [0, 1]

    def test_flake_ordinals_fire_once(self):
        arm_chaos(ChaosPolicy(seed=0, shard_flake_reads=(0,)))
        with pytest.raises(TransientShardError):
            chaos.shard_read_begin("shard-0", "key")
        # The ordinal was consumed: the next read sails through.
        chaos.shard_read_begin("shard-0", "key")
        chaos.shard_read_end()
        kinds = [e["kind"] for e in chaos_events()]
        assert kinds == ["shard_flake"]

    def test_env_round_trip_for_shard_knobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS_BURST_RATE", "0.25")
        monkeypatch.setenv("REPRO_CHAOS_BURST_BLOCKS", "5")
        monkeypatch.setenv("REPRO_CHAOS_SHARD_STORM", "shard-2")
        monkeypatch.setenv("REPRO_CHAOS_SHARD_FLAKES", "1,4")
        policy = chaos_policy_from_env()
        assert policy == ChaosPolicy(
            device_burst_rate=0.25, device_burst_blocks=5,
            shard_storm="shard-2", shard_flake_reads=(1, 4))

    def test_new_field_validation_and_quiet(self):
        with pytest.raises(AnalysisError):
            ChaosPolicy(device_burst_rate=1.5)
        with pytest.raises(AnalysisError):
            ChaosPolicy(device_burst_blocks=0)
        with pytest.raises(AnalysisError):
            ChaosPolicy(shard_storm_rate=-0.1)
        with pytest.raises(AnalysisError):
            ChaosPolicy(shard_flake_reads=(-1,))
        assert not ChaosPolicy(shard_storm="s").quiet
        assert not ChaosPolicy(device_burst_rate=0.1).quiet
        assert not ChaosPolicy(shard_flake_reads=(0,)).quiet


class TestJournalTear:
    def test_tear_truncates_and_kills_writer(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        specs = _specs(4)
        digest = campaign_digest(specs, None)
        arm_chaos(ChaosPolicy(journal_tear_at=1, journal_tear_bytes=5))
        journal = TrialJournal(path, digest)
        journal.record(specs[0], TrialResult(0, 1.0, 0, False))
        with pytest.raises(ChaosError, match="torn"):
            journal.record(specs[1], TrialResult(1, 2.0, 0, False))
        journal.close()
        disarm()
        raw = path.read_bytes()
        assert not raw.endswith(b"\n")  # genuinely torn tail
        # Recovery: reopen truncates the fragment and re-runs the trial.
        resumed = TrialJournal(path, digest)
        assert resumed.torn_lines == 1
        assert resumed.completed(specs[0]) is not None
        assert resumed.completed(specs[1]) is None
        resumed.close()

    def test_tear_is_one_shot(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        specs = _specs(4)
        digest = campaign_digest(specs, None)
        arm_chaos(ChaosPolicy(journal_tear_at=0, journal_tear_bytes=3))
        journal = TrialJournal(path, digest)
        with pytest.raises(ChaosError):
            journal.record(specs[0], TrialResult(0, 1.0, 0, False))
        journal.close()
        resumed = TrialJournal(path, digest)
        for spec in specs:
            if resumed.completed(spec) is None:
                resumed.record(spec, TrialResult(spec.index, 0.5, 0, False))
        resumed.close()
        assert len([e for e in chaos_events()
                    if e["kind"] == "journal_tear"]) == 1
