"""The repair queue, placement scan, and the deterministic repair pass."""

import numpy as np
import pytest

from repro.obs import metrics as obs_metrics
from repro.runtime import chaos
from repro.service import (
    Keyring,
    RepairQueue,
    ShardPool,
    VideoObjectStore,
    replication_health,
    run_repair_pass,
    scan_placement,
    stream_key,
)
from repro.service.shards import QUARANTINED
from repro.video import SceneConfig, synthesize_scene


def _clip(seed: int):
    return synthesize_scene(SceneConfig(
        width=48, height=32, num_frames=4, seed=seed))


def _store(replicas=2, count=4, **pool_kwargs):
    store = VideoObjectStore(pool=ShardPool(count=count, **pool_kwargs),
                             keyring=Keyring(seed=5), replicas=replicas)
    return store, store.put("alice", _clip(1))


def _counter(name: str) -> int:
    snapshot = obs_metrics.get_registry().snapshot()["counters"]
    return int(snapshot.get(name, 0))


class TestRepairQueue:
    def test_fifo_and_dedupe(self):
        queue = RepairQueue()
        assert queue.enqueue("a", "x")
        assert not queue.enqueue("a", "x")  # deduped while pending
        assert queue.enqueue("a", "y")
        assert queue.backlog() == 2
        first = queue.pop()
        assert (first.tenant, first.object_id) == ("a", "x")
        # Popping releases the dedupe hold.
        assert queue.enqueue("a", "x")
        assert queue.pop().object_id == "y"

    def test_pop_empty_returns_none(self):
        assert RepairQueue().pop() is None


class TestQuarantineDrain:
    def test_drain_restores_replica_count_bit_identically(self):
        store, object_id = _store(replicas=2)
        record = store.record("alice", object_id)
        originals = {
            name: store.pool.shard(record.replicas[name][0]).blobs[
                stream_key("alice", object_id, name)]
            for name in record.stream_sha}
        victim = record.replicas[sorted(record.stream_sha)[0]][0]
        store.pool.shard(victim).health = QUARANTINED

        report = run_repair_pass(store)
        assert report.scan_enqueued == 1
        assert report.objects_repaired == 1
        assert victim in report.drained_shards
        assert len(store.pool.shard(victim).blobs) == 0
        # Every stream is back at full replica width on healthy shards,
        # and every copy is bit-identical to what was written.
        for name in record.stream_sha:
            chain = record.replicas[name]
            assert len(chain) == 2
            assert victim not in chain
            key = stream_key("alice", object_id, name)
            for sid in chain:
                assert store.pool.shard(sid).blobs[key] == originals[name]
        health = replication_health(store)
        assert health["under_replicated"] == 0
        assert health["backlog"] == 0

    def test_repair_charges_cell_writes_and_resets_age(self):
        store, object_id = _store(replicas=2)
        record = store.record("alice", object_id)
        name = sorted(record.stream_sha)[0]
        victim = record.replicas[name][0]
        store.pool.advance_all(1000.0)
        store.pool.shard(victim).health = QUARANTINED
        before = _counter("service_repair_cell_writes_total")
        report = run_repair_pass(store)
        assert report.cell_writes > 0
        assert _counter("service_repair_cell_writes_total") == \
            before + report.cell_writes
        for sid in store.record("alice", object_id).replicas[name]:
            shard = store.pool.shard(sid)
            key = stream_key("alice", object_id, name)
            # The rewrite reprogrammed the cells at day 1000: the key
            # reads as freshly written despite the shard's age.
            assert shard._key_age(key) == 0.0
            assert shard.repairs > 0
            assert shard.last_repair_day == 1000.0

    def test_converges_and_second_pass_is_a_noop(self):
        store, _ = _store(replicas=2)
        record = store.objects()[0]
        victim = record.replicas[sorted(record.stream_sha)[0]][0]
        store.pool.shard(victim).health = QUARANTINED
        run_repair_pass(store)
        second = run_repair_pass(store)
        assert second.scan_enqueued == 0
        assert second.tickets_drained == 0
        assert second.streams_rewritten == 0
        assert second.backlog == 0


class TestRepairUnderChaos:
    def test_repair_under_bursts_never_serves_miscorrected(self):
        store, object_id = _store(replicas=2)
        before = _counter("storage_miscorrected_blocks_total")
        chaos.arm(chaos.ChaosPolicy(seed=3, device_burst_rate=0.9,
                                    device_burst_blocks=3))
        try:
            for attempt in range(3):
                result = store.get(
                    "alice", object_id,
                    rng=np.random.default_rng(attempt))
                assert result.outcome != "refused"
            run_repair_pass(store)
            result = store.get("alice", object_id,
                               rng=np.random.default_rng(99))
            assert result.video is not None
        finally:
            chaos.disarm()
        assert _counter("storage_miscorrected_blocks_total") == before

    def test_repair_never_propagates_tampered_bytes(self):
        store, object_id = _store(replicas=2)
        record = store.record("alice", object_id)
        name = sorted(record.stream_sha)[0]
        key = stream_key("alice", object_id, name)
        chain = record.replicas[name]
        pristine = store.pool.shard(chain[0]).blobs[key]
        # Tamper the primary's at-rest blob, then force a repair.
        tampered = bytearray(pristine)
        tampered[0] ^= 0xFF
        store.pool.shard(chain[0]).blobs[key] = bytes(tampered)
        store.repair.enqueue("alice", object_id)
        run_repair_pass(store, scan=False)
        # The verified secondary was the donor: the primary's copy is
        # pristine again, not the tampered bytes.
        for sid in store.record("alice", object_id).replicas[name]:
            assert store.pool.shard(sid).blobs[key] == pristine

    def test_all_copies_tampered_is_unrepairable(self):
        store, object_id = _store(replicas=2)
        record = store.record("alice", object_id)
        name = sorted(record.stream_sha)[0]
        key = stream_key("alice", object_id, name)
        for sid in store.pool.shards:
            shard = store.pool.shard(sid)
            if shard.has(key):
                blob = bytearray(shard.blobs[key])
                blob[0] ^= 0xFF
                shard.blobs[key] = bytes(blob)
        before = _counter("service_repair_unrepairable_total")
        store.repair.enqueue("alice", object_id)
        report = run_repair_pass(store, scan=False)
        assert report.unrepairable_streams >= 1
        assert _counter("service_repair_unrepairable_total") > before


class TestScanAndLimits:
    def test_scan_is_quiet_on_a_healthy_store(self):
        store, _ = _store(replicas=2)
        scanned, enqueued = scan_placement(store)
        assert scanned == 1
        assert enqueued == 0

    def test_limit_bounds_the_drain(self):
        store, _ = _store(replicas=2)
        for index in range(2, 5):
            store.put("alice", _clip(index))
        for record in store.objects():
            store.repair.enqueue(record.tenant, record.object_id)
        report = run_repair_pass(store, limit=2, scan=False)
        assert report.tickets_drained == 2
        assert report.backlog == 2

    def test_retired_object_ticket_is_skipped(self):
        store, _ = _store(replicas=2)
        store.repair.enqueue("alice", "no-such-object")
        report = run_repair_pass(store, scan=False)
        assert report.tickets_drained == 1
        assert report.objects_repaired == 0


class TestDeterminism:
    def test_repair_pass_replays_bit_identically(self):
        states = []
        for _ in range(2):
            store, object_id = _store(replicas=2)
            record = store.record("alice", object_id)
            victim = record.replicas[sorted(record.stream_sha)[0]][0]
            store.pool.shard(victim).health = QUARANTINED
            report = run_repair_pass(store)
            blobs = {
                (sid, key): shard.blobs[key]
                for sid, shard in sorted(store.pool.shards.items())
                for key in sorted(shard.blobs)}
            states.append((report.to_dict(), blobs))
        assert states[0] == states[1]
