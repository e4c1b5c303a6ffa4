"""Front-end retry/backoff ladder and repair daemon, on a fake clock."""

import asyncio

import numpy as np
import pytest

from repro.errors import TransientShardError
from repro.obs import metrics as obs_metrics
from repro.runtime import chaos
from repro.service import (
    Keyring,
    ServiceFrontend,
    ShardPool,
    VideoObjectStore,
)
from repro.video import SceneConfig, synthesize_scene


def _clip(seed: int):
    return synthesize_scene(SceneConfig(
        width=48, height=32, num_frames=4, seed=seed))


def _frontend(replicas=2, **kwargs):
    store = VideoObjectStore(pool=ShardPool(count=4),
                             keyring=Keyring(seed=5), replicas=replicas)
    return ServiceFrontend(store, **kwargs)


def _counter(name: str) -> int:
    snapshot = obs_metrics.get_registry().snapshot()["counters"]
    return int(snapshot.get(name, 0))


class TestBackoffSchedule:
    def test_deterministic_exponential_no_jitter(self):
        frontend = _frontend(retry_attempts=4, backoff_ms=50)
        assert frontend.backoff_delays() == [0.05, 0.1, 0.2]
        assert frontend.backoff_delays() == frontend.backoff_delays()

    def test_single_attempt_never_sleeps(self):
        frontend = _frontend(retry_attempts=1)
        assert frontend.backoff_delays() == []

    def test_total_backoff_is_bounded(self):
        frontend = _frontend(retry_attempts=5, backoff_ms=100)
        delays = frontend.backoff_delays()
        assert sum(delays) == pytest.approx(0.1 + 0.2 + 0.4 + 0.8)


class TestRetryLadder:
    def test_transient_faults_retry_until_success(self):
        frontend = _frontend(retry_attempts=3, backoff_ms=10)
        slept = []

        async def fake_sleep(seconds):
            slept.append(seconds)

        async def scenario():
            await frontend.start()
            object_id = await frontend.ingest("alice", _clip(1))
            # Flake the first two shard reads: attempt 1 sees every
            # replica flake, attempt 2 survives via the replica walk.
            chaos.arm(chaos.ChaosPolicy(seed=0,
                                        shard_flake_reads=(0, 1)))
            try:
                result = await frontend.read_with_retry(
                    "alice", object_id,
                    rng=np.random.default_rng(0), sleep=fake_sleep)
            finally:
                chaos.disarm()
            await frontend.stop()
            return result

        result = asyncio.run(scenario())
        assert result.outcome != "refused"
        assert slept == [0.01]

    def test_exhausted_retries_reraise_the_fault(self):
        frontend = _frontend(replicas=1, retry_attempts=2, backoff_ms=10)
        slept = []

        async def fake_sleep(seconds):
            slept.append(seconds)

        async def scenario():
            await frontend.start()
            object_id = await frontend.ingest("alice", _clip(1))
            chaos.arm(chaos.ChaosPolicy(
                seed=0, shard_flake_reads=tuple(range(64))))
            try:
                with pytest.raises(TransientShardError):
                    await frontend.read_with_retry(
                        "alice", object_id,
                        rng=np.random.default_rng(0), sleep=fake_sleep)
            finally:
                chaos.disarm()
            await frontend.stop()

        before = _counter("service_read_retries_exhausted_total")
        asyncio.run(scenario())
        assert slept == [0.01]
        assert _counter("service_read_retries_exhausted_total") == \
            before + 1

    def test_refusals_are_answers_not_faults(self):
        frontend = _frontend(replicas=1, retry_attempts=3, backoff_ms=10)
        slept = []

        async def fake_sleep(seconds):
            slept.append(seconds)

        async def scenario():
            await frontend.start()
            object_id = await frontend.ingest("alice", _clip(1))
            record = frontend.store.record("alice", object_id)
            from repro.service import stream_key
            for name in record.stream_sha:
                key = stream_key("alice", object_id, name)
                for shard in frontend.store.pool.shards.values():
                    if shard.has(key):
                        blob = bytearray(shard.blobs[key])
                        blob[0] ^= 0xFF
                        shard.blobs[key] = bytes(blob)
            result = await frontend.read_with_retry(
                "alice", object_id, rng=np.random.default_rng(0),
                sleep=fake_sleep)
            await frontend.stop()
            return result

        result = asyncio.run(scenario())
        assert result.outcome == "refused"
        assert slept == []  # a refusal is never retried


class TestRepairDaemon:
    def test_daemon_drains_the_backlog(self):
        frontend = _frontend(replicas=2, repair_interval_s=0.01)

        async def scenario():
            await frontend.start()
            object_id = await frontend.ingest("alice", _clip(1))
            frontend.store.repair.enqueue("alice", object_id)
            for _ in range(100):
                if frontend.store.repair.backlog() == 0:
                    break
                await asyncio.sleep(0.02)
            backlog = frontend.store.repair.backlog()
            await frontend.stop()
            return backlog

        assert asyncio.run(scenario()) == 0

    def test_manual_repair_pass_reports(self):
        frontend = _frontend(replicas=2)

        async def scenario():
            await frontend.start()
            object_id = await frontend.ingest("alice", _clip(1))
            frontend.store.repair.enqueue("alice", object_id)
            report = await frontend.repair_pass()
            await frontend.stop()
            return report

        report = asyncio.run(scenario())
        assert report.tickets_drained == 1
        assert report.backlog == 0
