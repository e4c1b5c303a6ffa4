"""End-to-end read failure ladder through the service.

The four rungs, each exercised through a real ``VideoObjectStore``
against its shard pool — no mocks:

1. corrected — the device re-read ladder recovers detected-
   uncorrectable blocks;
2. concealed — with the ladder off, surviving damage routes into the
   decoder's concealment path and still yields frames;
3. refused — corrupting ciphertext bytes on a shard behind the
   device's back produces a read the device calls clean but whose
   integrity hash mismatches: the service refuses rather than serve
   silently wrong frames;
4. quarantine — a chaos-armed device-fault storm quarantines the
   shards it hits without failing reads of unrelated keys placed
   elsewhere.
"""

import numpy as np
import pytest

from repro.metrics import video_psnr
from repro.runtime import chaos
from repro.service import Keyring, ShardPool, VideoObjectStore, stream_key
from repro.video import SceneConfig, synthesize_scene

#: Deep retention overhang where BCH-6 block failures are likely.
AGED_DAYS = 100000.0


def _clip(seed: int):
    return synthesize_scene(SceneConfig(
        width=48, height=32, num_frames=4, seed=seed))


def _store(**pool_kwargs):
    store = VideoObjectStore(pool=ShardPool(**pool_kwargs),
                             keyring=Keyring(seed=5))
    return store, store.put("alice", _clip(1))


def test_retry_ladder_yields_corrected():
    store, object_id = _store(count=2, read_retries=2)
    store.pool.set_age(AGED_DAYS)
    for seed in range(50):
        result = store.get("alice", object_id,
                           rng=np.random.default_rng(seed))
        assert result.outcome != "refused"
        if result.outcome == "corrected":
            assert result.retry_successes > 0
            assert result.video is not None
            return
    pytest.fail("no seed in 0..49 produced a corrected read at "
                f"t={AGED_DAYS:g}d with retries armed")


def test_uncorrectable_damage_is_concealed():
    store, object_id = _store(count=2, read_retries=0)
    store.pool.set_age(AGED_DAYS)
    for seed in range(50):
        result = store.get("alice", object_id,
                           rng=np.random.default_rng(seed))
        assert result.outcome != "refused"
        if result.outcome == "concealed":
            assert result.failed_blocks > 0
            assert result.concealed_streams
            # Concealment still returns every frame, degraded not
            # absent.
            assert result.video is not None and len(result.video) == 4
            assert np.isfinite(video_psnr(_clip(1), result.video))
            return
    pytest.fail("no seed in 0..49 produced a concealed read at "
                f"t={AGED_DAYS:g}d with retries off")


def test_substrate_corruption_is_refused_not_served():
    store, object_id = _store(count=2)
    record = store.record("alice", object_id)
    protected = [name for name in record.stream_sha if name != "None"]
    assert protected, "clip too small to exercise a protected stream"
    name = protected[0]
    key = stream_key("alice", object_id, name)
    # Rot ciphertext bytes behind the device's back on *every* replica:
    # a nominal-age read reports clean, but the bytes are not what was
    # written anywhere, so no replica walk can save the read.
    for shard_id in record.replicas[name]:
        shard = store.pool.shard(shard_id)
        blob = bytearray(shard.blobs[key])
        blob[0] ^= 0xFF
        shard.blobs[key] = bytes(blob)
    result = store.get("alice", object_id,
                       rng=np.random.default_rng(0))
    assert result.outcome == "refused"
    assert "integrity hash mismatch" in result.refusal_reason
    assert result.video is None
    assert any("refused" in event.detail
               for event in store.audit.events("read"))


def test_chaos_fault_storm_quarantines_only_the_hit_shards():
    # Six shards: with two replicas per stream a bystander whose full
    # replica set avoids the victim's still exists.
    store = VideoObjectStore(
        pool=ShardPool(count=6, quarantine_after=3),
        keyring=Keyring(seed=5))
    victim_id = store.put("alice", _clip(1))

    def replica_union(object_id):
        record = store.record("alice", object_id)
        return {sid for name in record.stream_sha
                for sid in record.replicas[name]}

    victim_shards = replica_union(victim_id)
    # Find a second object whose full replica set avoids the victim's.
    bystander_id = None
    for seed in range(2, 16):
        candidate = store.put("alice", _clip(seed))
        shards = replica_union(candidate)
        if not (shards & victim_shards):
            bystander_id, bystander_shards = candidate, shards
            break
    assert bystander_id is not None, \
        "no clip seed placed disjointly from the victim"
    chaos.arm(chaos.ChaosPolicy(seed=0, device_fault_rate=1.0))
    try:
        for attempt in range(3):
            result = store.get(
                "alice", victim_id,
                rng=np.random.default_rng(100 + attempt))
            # Chaos damage is escalated, never silent: every faulted
            # read either conceals or refuses.
            assert result.outcome in ("concealed", "refused")
    finally:
        chaos.disarm()
    quarantined = set(store.pool.quarantined())
    assert quarantined
    assert quarantined <= victim_shards
    # Unrelated keys on other shards keep reading normally.
    assert not (quarantined & bystander_shards)
    result = store.get("alice", bystander_id,
                       rng=np.random.default_rng(0))
    assert result.outcome in ("clean", "corrected")
    assert result.video is not None
