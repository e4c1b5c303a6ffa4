"""Tests for the content-addressed object store."""

import numpy as np
import pytest

from repro.core import ApproximateVideoStore
from repro.errors import AccessDeniedError, ServiceError, StaleKeyError
from repro.metrics import video_psnr
from repro.service import (
    Keyring,
    ShardPool,
    VideoObjectStore,
    run_repair_pass,
    stream_key,
)
from repro.service.shards import QUARANTINED
from repro.video import SceneConfig, synthesize_scene


def _clip(seed: int):
    return synthesize_scene(SceneConfig(
        width=48, height=32, num_frames=4, seed=seed))


@pytest.fixture(scope="module")
def store():
    """One store with two alice objects and one bob object."""
    store = VideoObjectStore(pool=ShardPool(count=4),
                             keyring=Keyring(seed=5))
    ids = store.put_many("alice", [_clip(1), _clip(2)])
    bob_id = store.put("bob", _clip(1))
    return store, ids, bob_id


class TestWritePath:
    def test_object_id_is_content_address(self, store):
        the_store, ids, bob_id = store
        # Same content, different tenants: same address, separate
        # records under separate keys.
        assert ids[0] == bob_id
        assert the_store.record("alice", ids[0]) is not \
            the_store.record("bob", bob_id)

    def test_same_content_dedupes_within_tenant(self, store):
        the_store, ids, _ = store
        before = len(the_store)
        again = the_store.put("alice", _clip(1))
        assert again == ids[0]
        assert len(the_store) == before
        assert the_store.audit.events("dedupe")

    def test_ciphertext_differs_per_tenant(self, store):
        the_store, ids, bob_id = store
        alice = the_store.record("alice", ids[0])
        bob = the_store.record("bob", bob_id)
        # Same plaintext partition, different tenant keys.
        assert alice.stream_sha != bob.stream_sha

    def test_streams_placed_by_the_ring(self, store):
        the_store, ids, _ = store
        record = the_store.record("alice", ids[0])
        for name, shard_id in record.placement.items():
            key = stream_key("alice", ids[0], name)
            assert the_store.pool.place(key).shard_id == shard_id
            assert the_store.pool.shard(shard_id).has(key)

    def test_record_drops_the_encoder_trace_and_still_serves(self):
        store = VideoObjectStore(pool=ShardPool(count=4),
                                 keyring=Keyring(seed=5), replicas=2)
        object_id = store.put_many("alice", [_clip(1)])[0]
        record = store.record("alice", object_id)
        assert not hasattr(record, "trace")
        assert len(record.frame_headers) == record.frames == 4
        result = store.get("alice", object_id,
                           rng=np.random.default_rng(0))
        assert result.outcome in ("clean", "corrected")
        assert len(result.video) == 4
        frame = store.get_frame("alice", object_id, 2,
                                rng=np.random.default_rng(0))
        assert frame.outcome in ("clean", "corrected")
        np.testing.assert_array_equal(frame.frame,
                                      result.video.frames[2])
        victim = record.placement[sorted(record.stream_sha)[0]]
        store.pool.shard(victim).health = QUARANTINED
        report = run_repair_pass(store)
        assert report.objects_repaired == 1
        assert report.unrepairable_streams == 0
        again = store.get("alice", object_id,
                          rng=np.random.default_rng(0))
        assert again.outcome in ("clean", "corrected")

    def test_shards_hold_ciphertext_not_plaintext(self, store):
        the_store, ids, _ = store
        record = the_store.record("alice", ids[0])
        # The record keeps no plaintext; partition the clip again.
        plaintext = ApproximateVideoStore(
            config=the_store.config).put(_clip(1)).protected.streams
        assert {name: len(data) for name, data in plaintext.items()} \
            == record.stream_lengths
        for name, shard_id in record.placement.items():
            blob = the_store.pool.shard(shard_id).blobs[
                stream_key("alice", ids[0], name)]
            plain = plaintext[name]
            if len(plain) >= 8:  # tiny streams could collide by luck
                assert blob != plain


class TestReadPath:
    def test_nominal_read_is_usable(self, store):
        the_store, ids, _ = store
        result = the_store.get("alice", ids[0],
                               rng=np.random.default_rng(0))
        assert result.outcome in ("clean", "corrected")
        assert result.video is not None
        assert len(result.video) == 4
        assert video_psnr(_clip(1), result.video) > 30.0

    def test_unknown_object_errors(self, store):
        the_store, _, _ = store
        with pytest.raises(ServiceError):
            the_store.get("alice", "no-such-object")

    def test_foreign_reader_denied_until_shared(self, store):
        the_store, ids, _ = store
        with pytest.raises(AccessDeniedError):
            the_store.get("alice", ids[1], reader="mallory",
                          rng=np.random.default_rng(0))
        assert the_store.audit.events("denied")
        the_store.keyring.share("alice", "mallory")
        result = the_store.get("alice", ids[1], reader="mallory",
                               rng=np.random.default_rng(0))
        assert result.outcome in ("clean", "corrected")
        the_store.keyring.revoke("alice", "mallory")

    def test_retired_key_fails_both_paths(self):
        store = VideoObjectStore(pool=ShardPool(count=2),
                                 keyring=Keyring(seed=9))
        object_id = store.put("carol", _clip(3))
        store.keyring.retire("carol")
        with pytest.raises(StaleKeyError):
            store.get("carol", object_id,
                      rng=np.random.default_rng(0))
        with pytest.raises(StaleKeyError):
            store.put("carol", _clip(4))

    def test_audit_covers_ingest_and_reads(self, store):
        the_store, ids, _ = store
        kinds = {event.kind for event in the_store.audit}
        assert {"ingest", "read"} <= kinds
        lines = the_store.audit.to_jsonl().splitlines()
        assert len(lines) == len(the_store.audit)
