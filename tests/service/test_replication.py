"""Replica placement and the escalating replicated read ladder."""

import pickle

import numpy as np
import pytest

from repro.errors import ServiceError, TransientShardError
from repro.obs import metrics as obs_metrics
from repro.runtime import chaos
from repro.service import (
    HashRing,
    Keyring,
    ShardPool,
    VideoObjectStore,
    run_repair_pass,
    stream_key,
)
from repro.service import shards as shards_module
from repro.service.shards import HEALTHY, QUARANTINED
from repro.video import SceneConfig, synthesize_scene


def _clip(seed: int):
    return synthesize_scene(SceneConfig(
        width=48, height=32, num_frames=4, seed=seed))


def _counter(name: str) -> int:
    snapshot = obs_metrics.get_registry().snapshot()["counters"]
    return int(snapshot.get(name, 0))


class TestPlaceN:
    IDS = [f"shard-{i}" for i in range(6)]

    def test_replicas_are_distinct_shards(self):
        ring = HashRing(self.IDS)
        for key in ("a", "b", "stream/9", "x" * 40):
            chain = ring.place_n(key, 3)
            assert len(chain) == 3
            assert len(set(chain)) == 3

    def test_primary_is_stable_across_r(self):
        ring = HashRing(self.IDS)
        for key in map(str, range(32)):
            primary = ring.place(key)
            for r in (1, 2, 3, 4):
                assert ring.place_n(key, r)[0] == primary

    def test_r_one_matches_single_placement(self):
        ring = HashRing(self.IDS)
        for key in map(str, range(32)):
            assert ring.place_n(key, 1) == (ring.place(key),)

    def test_chain_is_a_prefix_of_longer_chains(self):
        ring = HashRing(self.IDS)
        for key in map(str, range(16)):
            full = ring.place_n(key, 4)
            for r in (1, 2, 3):
                assert full[:r] == ring.place_n(key, r)

    def test_r_clamped_to_pool_width(self):
        ring = HashRing(self.IDS[:2])
        assert len(ring.place_n("k", 5)) == 2

    def test_rejects_nonpositive_r(self):
        ring = HashRing(self.IDS)
        with pytest.raises(ServiceError):
            ring.place_n("k", 0)


class TestHealthyPlacement:
    """``place_n(healthy_only=True)`` places like a fresh ring over the
    healthy shards and builds each healthy set's ring once."""

    KEYS = [f"tenant/obj-{i}/BCH-{i % 7}" for i in range(40)]

    def test_every_healthy_subset_places_as_a_fresh_ring(self):
        pool = ShardPool(count=4)
        ids = sorted(pool.shards)
        for mask in range(1, 1 << len(ids)):
            healthy = [sid for bit, sid in enumerate(ids) if mask >> bit & 1]
            for sid in ids:
                pool.shard(sid).health = (HEALTHY if sid in healthy
                                          else QUARANTINED)
            fresh = HashRing(healthy, vnodes=pool.ring.vnodes)
            for r in (1, 2, 3):
                for key in self.KEYS:
                    got = [s.shard_id for s in
                           pool.place_n(key, r, healthy_only=True)]
                    assert got == list(fresh.place_n(key, r))
        # With no healthy shard the walk falls back to the whole ring.
        for sid in ids:
            pool.shard(sid).health = QUARANTINED
        for key in self.KEYS:
            got = pool.place_n(key, 2, healthy_only=True)
            assert [s.shard_id for s in got] == list(pool.ring.place_n(key, 2))

    def test_one_repair_pass_builds_one_ring_per_healthy_set(
            self, monkeypatch):
        store = VideoObjectStore(pool=ShardPool(count=4),
                                 keyring=Keyring(seed=5), replicas=2)
        for seed in range(3):
            store.put("alice", _clip(seed))
        built = []

        class CountingRing(HashRing):
            def __init__(self, *args, **kwargs):
                built.append(tuple(args[0]))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(shards_module, "HashRing", CountingRing)
        run_repair_pass(store)
        assert built == []          # every shard healthy: the pool's ring
        store.pool.shard("shard-1").health = QUARANTINED
        report = run_repair_pass(store)
        assert report.scanned_objects == 3
        assert built == [("shard-0", "shard-2", "shard-3")]
        run_repair_pass(store)
        assert len(built) == 1
        # A pickle drops the built rings; its copy rebuilds on demand.
        copied = pickle.loads(pickle.dumps(store.pool))
        assert copied.place_n("k", 2, healthy_only=True)[0].shard_id != \
            "shard-1"


class TestReplicatedWrites:
    def test_put_writes_every_replica(self):
        store = VideoObjectStore(pool=ShardPool(count=4),
                                 keyring=Keyring(seed=5), replicas=2)
        object_id = store.put("alice", _clip(1))
        record = store.record("alice", object_id)
        for name in record.stream_sha:
            chain = record.replica_chain(name)
            assert len(chain) == 2
            assert record.placement[name] == chain[0]
            key = stream_key("alice", object_id, name)
            blobs = [store.pool.shard(sid).blobs[key] for sid in chain]
            assert blobs[0] == blobs[1]

    def test_r_one_keeps_single_copy(self):
        store = VideoObjectStore(pool=ShardPool(count=4),
                                 keyring=Keyring(seed=5), replicas=1)
        object_id = store.put("alice", _clip(1))
        record = store.record("alice", object_id)
        for name in record.stream_sha:
            key = stream_key("alice", object_id, name)
            holders = [sid for sid in store.pool.shards
                       if store.pool.shard(sid).has(key)]
            assert holders == [record.placement[name]]


class TestReplicatedReads:
    def _stormed_store(self, replicas):
        store = VideoObjectStore(pool=ShardPool(count=4),
                                 keyring=Keyring(seed=5),
                                 replicas=replicas)
        object_id = store.put("alice", _clip(1))
        record = store.record("alice", object_id)
        # Storm the shard serving the most primaries.
        primaries = list(record.placement.values())
        victim = max(sorted(set(primaries)), key=primaries.count)
        return store, object_id, victim

    def test_storm_on_primary_escalates_to_secondary(self):
        store, object_id, victim = self._stormed_store(replicas=2)
        before = _counter("service_read_escalations_total")
        chaos.arm(chaos.ChaosPolicy(seed=0, shard_storm=victim))
        try:
            for attempt in range(3):
                result = store.get(
                    "alice", object_id,
                    rng=np.random.default_rng(100 + attempt))
                assert result.outcome != "refused"
                assert result.video is not None
        finally:
            chaos.disarm()
        assert _counter("service_read_escalations_total") > before

    def test_storm_at_r_one_stays_visible(self):
        store, object_id, victim = self._stormed_store(replicas=1)
        chaos.arm(chaos.ChaosPolicy(seed=0, shard_storm=victim))
        try:
            result = store.get("alice", object_id,
                               rng=np.random.default_rng(0))
            # No replica to walk to: the damage must surface, never be
            # served as a silently wrong read.
            assert result.outcome in ("concealed", "refused")
        finally:
            chaos.disarm()

    def test_escalated_read_enqueues_repair(self):
        store, object_id, victim = self._stormed_store(replicas=2)
        assert store.repair.backlog() == 0
        chaos.arm(chaos.ChaosPolicy(seed=0, shard_storm=victim))
        try:
            store.get("alice", object_id, rng=np.random.default_rng(0))
        finally:
            chaos.disarm()
        assert store.repair.backlog() == 1

    def test_all_replicas_flaking_raises_transient(self):
        store = VideoObjectStore(pool=ShardPool(count=4),
                                 keyring=Keyring(seed=5), replicas=1)
        object_id = store.put("alice", _clip(1))
        chaos.arm(chaos.ChaosPolicy(
            seed=0, shard_flake_reads=tuple(range(16))))
        try:
            with pytest.raises(TransientShardError):
                store.get("alice", object_id,
                          rng=np.random.default_rng(0))
        finally:
            chaos.disarm()

    def test_one_shot_flake_is_absorbed_by_the_replica_walk(self):
        store = VideoObjectStore(pool=ShardPool(count=4),
                                 keyring=Keyring(seed=5), replicas=2)
        object_id = store.put("alice", _clip(1))
        before = _counter("service_replica_read_faults_total")
        chaos.arm(chaos.ChaosPolicy(seed=0, shard_flake_reads=(0,)))
        try:
            result = store.get("alice", object_id,
                               rng=np.random.default_rng(0))
        finally:
            chaos.disarm()
        assert result.outcome != "refused"
        assert result.video is not None
        assert _counter("service_replica_read_faults_total") == before + 1

    def test_replicated_read_replays_bit_identically(self):
        outcomes = []
        for _ in range(2):
            store, object_id, victim = self._stormed_store(replicas=2)
            chaos.arm(chaos.ChaosPolicy(seed=7, shard_storm=victim))
            try:
                result = store.get("alice", object_id,
                                   rng=np.random.default_rng(3))
                outcomes.append(
                    (result.outcome, result.escalated_streams,
                     chaos.schedule_digest()))
            finally:
                chaos.disarm()
        assert outcomes[0] == outcomes[1]
