"""Whole-object ``get`` is the seek's fetch over every full stream.

The store has one replica walk, one refusal rule and one fetch; ``get``
passes each stream's full extent ``[0, stream_length)`` as its window.
``_reference_get`` below keeps the store's earlier, separate whole read
as an oracle: per stream in sorted order it walks the replica chain
with :meth:`Shard.read`, ranks each copy on the four-rung ladder,
hash-checks device-clean reads, then decrypts every stream at once,
merges, clamps the damage into stream bits and decodes with
concealment. Run on a ``copy.deepcopy`` of the store with an equal rng,
it must agree with ``get`` on everything a caller can see.
"""

from __future__ import annotations

import copy
import hashlib

import numpy as np
import pytest

from repro.codec import EncoderConfig
from repro.codec.decoder import Decoder
from repro.codec.encoded import EncodedFrame, EncodedVideo
from repro.core import partition
from repro.core.partition import map_stream_damage, merge_streams
from repro.service import Keyring, ShardPool, VideoObjectStore, stream_key
from repro.service import store as store_module
from repro.service.shards import Shard
from repro.storage.ecc import scheme_by_name
from repro.video import SceneConfig, synthesize_scene

from .test_manifest import GOLDEN_CLIPS

#: Nominal, ten years, and deep enough that BCH blocks fail.
AGES = (None, 3650.0, 1e5)


def _old_refusal(store, record, name, data, report) -> str:
    if report.miscorrected_blocks > 0:
        return (f"stream {name}: {report.miscorrected_blocks} "
                f"silently miscorrected block(s)")
    if report.flipped_bits == 0 and report.failed_blocks == 0:
        if hashlib.sha256(data).hexdigest() != record.stream_sha[name]:
            return (f"stream {name}: integrity hash mismatch on a "
                    f"read the device reported clean")
    if (report.failed_blocks
            and name == store.assignment.header_scheme.name):
        return (f"stream {name}: uncorrectable damage in a "
                f"precise-scheme stream")
    return ""


def _rung(refusal, report) -> int:
    if refusal:
        return 3
    if report.uncorrectable:
        return 2
    return 1 if report.retry_successes > 0 else 0


def _reference_get(store, tenant, object_id, rng) -> dict:
    """The earlier whole read, replayed on ``store`` (a deep copy)."""
    record = store.record(tenant, object_id)
    ordered = sorted(record.stream_lengths)
    read_back, reports, escalated = {}, {}, []
    refusal, needs_repair = "", False
    for name in ordered:
        key = stream_key(tenant, object_id, name)
        best = None
        for index, shard_id in enumerate(record.replicas[name]):
            shard = store.pool.shard(shard_id)
            if not shard.has(key):
                continue
            data, report = shard.read(key, scheme_by_name(name), rng)
            why = _old_refusal(store, record, name, data, report)
            rung = _rung(why, report)
            if best is None or rung < best[4]:
                best = (data, report, why, index, rung)
            if rung == 0:
                break
        if best is None:
            best = (None, None,
                    f"stream {name}: no replica holds the stream", 0, 3)
        data, report, why, index, rung = best
        if data is not None:
            read_back[name] = data
            reports[name] = report
        if index > 0:
            escalated.append(name)
        needs_repair = needs_repair or rung > 0 or index > 0
        refusal = refusal or why
    if needs_repair:
        store.repair.enqueue(tenant, object_id)
    seen = {"outcome": "clean", "refusal_reason": refusal,
            "concealed_streams": (), "escalated_streams": tuple(escalated),
            "flipped_bits": sum(r.flipped_bits for r in reports.values()),
            "failed_blocks": sum(r.failed_blocks for r in reports.values()),
            "retry_successes": sum(r.retry_successes
                                   for r in reports.values()),
            "frames": None}
    if refusal:
        seen["outcome"] = "refused"
        return seen
    decrypted = store.keyring.encryptor(tenant).decrypt_streams(
        {i: read_back[name] for i, name in enumerate(ordered)})
    payloads = merge_streams(record, {
        name: (0, decrypted[i][:record.stream_lengths[name]])
        for i, name in enumerate(ordered)})
    damage = {
        name: [(min(b.bit_start, record.stream_bits[name]),
                min(b.bit_end, record.stream_bits[name]))
               for b in report.uncorrectable]
        for name, report in reports.items() if report.uncorrectable}
    container = EncodedVideo(
        header=record.video_header,
        frames=[EncodedFrame(header=header, payload=payload)
                for header, payload in zip(record.frame_headers, payloads)],
        seek_index=record.seek_index)
    video = Decoder(conceal_uncorrectable=True).decode(
        container,
        map_stream_damage(record, damage) if damage else {})
    seen["frames"] = [frame.copy() for frame in video.frames]
    if damage:
        seen["outcome"] = "concealed"
        seen["concealed_streams"] = tuple(sorted(damage))
    elif seen["retry_successes"] > 0:
        seen["outcome"] = "corrected"
    return seen


def _served(result) -> dict:
    return {"outcome": result.outcome,
            "refusal_reason": result.refusal_reason,
            "concealed_streams": result.concealed_streams,
            "escalated_streams": result.escalated_streams,
            "flipped_bits": result.flipped_bits,
            "failed_blocks": result.failed_blocks,
            "retry_successes": result.retry_successes,
            "frames": (None if result.video is None
                       else list(result.video.frames))}


def _assert_same_read(store, tenant, object_id, seed) -> dict:
    """``get`` on ``store`` against the reference on a deep copy;
    returns what both saw, frames left out."""
    twin = copy.deepcopy(store)
    rng, twin_rng = (np.random.default_rng(seed) for _ in range(2))
    served = _served(store.get(tenant, object_id, rng=rng))
    expected = _reference_get(twin, tenant, object_id, twin_rng)
    frames, want = served.pop("frames"), expected.pop("frames")
    assert served == expected
    assert (frames is None) == (want is None)
    if frames is not None:
        assert len(frames) == len(want)
        for got, ref in zip(frames, want):
            assert np.array_equal(got, ref)
    assert store.repair.backlog() == twin.repair.backlog()
    assert rng.random() == twin_rng.random()
    return served


def _store(replicas: int, config) -> VideoObjectStore:
    return VideoObjectStore(
        pool=ShardPool(count=4, read_retries=1), keyring=Keyring(seed=5),
        config=config, replicas=replicas)


@pytest.fixture(scope="module", params=sorted(GOLDEN_CLIPS))
def golden(request):
    """``(config, clip)`` of one golden clip."""
    scene, config = GOLDEN_CLIPS[request.param]
    return config, synthesize_scene(scene)


class TestWholeReadMatchesTheReference:
    @pytest.mark.parametrize("replicas", [1, 2])
    def test_golden_clips_across_ages(self, golden, replicas):
        config, clip = golden
        store = _store(replicas, config)
        object_id = store.put("alice", clip)
        seen = {}
        for age in AGES:
            store.pool.set_age(age)
            seen[age] = [_assert_same_read(store, "alice", object_id, seed)
                         for seed in range(3)]
        assert all(read["outcome"] == "clean" for read in seen[None])
        # Deep age reaches the ladder: damage, or a replica escalation.
        assert any(read["outcome"] != "clean" or read["escalated_streams"]
                   for read in seen[1e5])

    def test_tampered_primary_escalates(self, golden):
        config, clip = golden
        store = _store(2, config)
        object_id = store.put("alice", clip)
        record = store.record("alice", object_id)
        # A BCH stream: a raw stream's device flips skip the hash check.
        name = max((n for n in record.stream_lengths if n != "None"),
                   key=record.stream_lengths.get)
        primary = store.pool.shard(record.replicas[name][0])
        key = stream_key("alice", object_id, name)
        blob = bytearray(primary.blobs[key])
        blob[len(blob) // 2] ^= 0x5A
        primary.blobs[key] = bytes(blob)
        read = _assert_same_read(store, "alice", object_id, 0)
        assert read["outcome"] == "clean"
        assert read["escalated_streams"] == (name,)
        assert store.repair.backlog() == 1

    @pytest.mark.parametrize("age", [None, 1e5])
    @pytest.mark.parametrize("cut", [-100, 64])
    def test_a_blob_resized_at_rest_refuses(self, golden, cut, age):
        # The device never resizes a blob, so a size that disagrees
        # with the manifest is at-rest corruption: refused whatever
        # the device claims, never merged, zero-filled or served.
        config, clip = golden
        store = _store(1, config)
        object_id = store.put("alice", clip)
        record = store.record("alice", object_id)
        name = max((n for n in record.stream_lengths
                    if n != "None" and record.stream_lengths[n] % 64),
                   key=record.stream_lengths.get)
        shard = store.pool.shard(record.replicas[name][0])
        key = stream_key("alice", object_id, name)
        blob = shard.blobs[key]
        shard.blobs[key] = blob[:cut] if cut < 0 else blob + bytes(cut)
        store.pool.set_age(age)
        reason = f"stream {name}: blob size disagrees with the manifest"
        for seed in range(3):
            rng = np.random.default_rng(seed)
            result = store.get("alice", object_id, rng=rng)
            assert (result.outcome, result.refusal_reason) == (
                "refused", reason)
            assert result.video is None
            # The last GOP's window reaches the stream's end.
            frame = store.get_frame("alice", object_id, record.frames - 1,
                                    rng=rng)
            assert (frame.outcome, frame.refusal_reason) == (
                "refused", reason)

    @pytest.mark.parametrize("replicas", [1, 2])
    def test_a_stream_with_no_replica_refuses(self, golden, replicas):
        config, clip = golden
        store = _store(replicas, config)
        object_id = store.put("alice", clip)
        record = store.record("alice", object_id)
        name = sorted(record.stream_lengths)[0]
        key = stream_key("alice", object_id, name)
        for shard_id in record.replicas[name]:
            store.pool.shard(shard_id).delete(key)
        read = _assert_same_read(store, "alice", object_id, 0)
        assert read["outcome"] == "refused"
        assert read["refusal_reason"] == (
            f"stream {name}: no replica holds the stream")
        assert store.repair.backlog() == 1


def test_whole_read_is_one_full_extent_range_read_per_stream(monkeypatch):
    scene, config = GOLDEN_CLIPS["cabac_ipp"]
    store = _store(2, config)
    object_id = store.put("alice", synthesize_scene(scene))
    record = store.record("alice", object_id)
    ranges, wholes = [], []
    read_range, read = Shard.read_range, Shard.read

    def counted_range(self, key, scheme, rng, byte_start, byte_end):
        ranges.append((key, scheme.name, byte_start, byte_end))
        return read_range(self, key, scheme, rng, byte_start, byte_end)

    def counted_read(self, key, scheme, rng):
        wholes.append(key)
        return read(self, key, scheme, rng)

    monkeypatch.setattr(Shard, "read_range", counted_range)
    monkeypatch.setattr(Shard, "read", counted_read)
    result = store.get("alice", object_id, rng=np.random.default_rng(0))
    assert result.outcome == "clean"
    assert ranges == [
        (stream_key("alice", object_id, name), name, 0,
         record.stream_lengths[name])
        for name in sorted(record.stream_lengths)]
    assert wholes == []


def test_whole_reads_reuse_the_objects_cursors(monkeypatch):
    # Damaged whole reads merge and project damage through the cursors
    # of the object's read template, derived once, not once per read.
    scene, config = GOLDEN_CLIPS["cabac_bframes_slices"]
    store = _store(1, config)
    object_id = store.put("alice", synthesize_scene(scene))
    store.pool.set_age(1e6)
    derived = []
    original = partition.frame_cursors

    def counted(layout):
        derived.append(layout)
        return original(layout)

    monkeypatch.setattr(partition, "frame_cursors", counted)
    monkeypatch.setattr(store_module, "frame_cursors", counted)
    for seed in range(3):
        result = store.get("alice", object_id,
                           rng=np.random.default_rng(seed))
        assert result.outcome == "concealed"
    assert len(derived) == 1


def test_only_a_partial_read_builds_the_zeroed_frames():
    # A whole read fills every frame, so the template keeps no zeroed
    # copy of the container until a seek serves only part of it.
    store = _store(1, EncoderConfig(crf=28, gop_size=4, bframes=1))
    object_id = store.put("alice", synthesize_scene(SceneConfig(
        width=48, height=32, num_frames=8, seed=3)))
    record = store.record("alice", object_id)
    for seed in range(2):
        store.get("alice", object_id, rng=np.random.default_rng(seed))
    template = vars(record)["_template"]
    assert template.zeroed is None
    store.get_frame("alice", object_id, 0, rng=np.random.default_rng(0))
    assert [frame.payload for frame in template.zeroed] == [
        bytes(header.payload_bytes) for header in record.frame_headers]
