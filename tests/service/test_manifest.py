"""The store's object record is a manifest: no oracle on the serving path.

A record keeps headers, pivot tables, stream lengths and bit counts,
write-time ciphertext hashes and replica chains — nothing a read could
serve frames from. These tests pin that: wiped shards refuse every
read, a tampered manifest hash fails closed, no record field holds
pixels or payload bytes, and the core stream helpers answer the same
from the manifest as from the full partitioned container.
"""

import dataclasses
import enum

import numpy as np
import pytest

from repro.codec import EncoderConfig, EntropyCoder
from repro.codec.decoder import dependency_closure
from repro.codec.encoder import Encoder
from repro.core import (
    PAPER_TABLE1,
    compute_importance,
    map_stream_damage,
    merge_streams,
    partition_video,
    stream_ranges_for_frames,
)
from repro.service import Keyring, ShardPool, VideoObjectStore, stream_key
from repro.storage import MLCCellModel
from repro.video import SceneConfig, synthesize_scene

#: The golden bitstream clips (tests/codec/test_golden_bitstreams.py):
#: CABAC and CAVLC, B-frames, slices, deblocking off.
GOLDEN_CLIPS = {
    "cabac_ipp": (
        SceneConfig(width=64, height=48, num_frames=6, seed=11,
                    num_objects=2),
        EncoderConfig(crf=24, gop_size=6)),
    "cabac_bframes_slices": (
        SceneConfig(width=96, height=64, num_frames=9, seed=23,
                    num_objects=3),
        EncoderConfig(crf=20, gop_size=9, bframes=2, slices=2)),
    "cavlc_adaptive_qp": (
        SceneConfig(width=64, height=64, num_frames=6, seed=7,
                    num_objects=2),
        EncoderConfig(crf=28, gop_size=3,
                      entropy_coder=EntropyCoder.CAVLC)),
    "cabac_no_deblock_fine": (
        SceneConfig(width=64, height=48, num_frames=5, seed=42,
                    num_objects=1),
        EncoderConfig(crf=16, gop_size=5, deblocking=False,
                      adaptive_qp=False, search_range=4)),
}

#: Leaf types a manifest may hold: plain metadata only.
_METADATA = (str, int, float, bool, type(None), enum.Enum)


def _clip(seed: int, frames: int = 8):
    return synthesize_scene(SceneConfig(
        width=48, height=32, num_frames=frames, seed=seed))


def _quiet_store(**kwargs) -> VideoObjectStore:
    """A store whose devices essentially never flip a bit."""
    pool = ShardPool(count=3, cell_model=MLCCellModel(write_sigma=1e-9))
    return VideoObjectStore(pool=pool, keyring=Keyring(seed=5), **kwargs)


def _leaves(value, path="record"):
    """``(path, value)`` of every non-container value under ``value``."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        for spec in dataclasses.fields(value):
            yield from _leaves(getattr(value, spec.name),
                               f"{path}.{spec.name}")
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(key, f"{path}<key>")
            yield from _leaves(item, f"{path}[{key!r}]")
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            yield from _leaves(item, f"{path}[{index}]")
    else:
        yield path, value


class TestNoOracleOnTheServingPath:
    def test_wiped_shards_refuse_every_read(self):
        store = _quiet_store(config=EncoderConfig(gop_size=4),
                             seek_cache=0, replicas=2)
        victim, bystander = store.put_many("alice", [_clip(1), _clip(2)])
        record = store.record("alice", victim)
        for name in record.stream_lengths:
            key = stream_key("alice", victim, name)
            for shard in store.pool.shards.values():
                shard.delete(key)
        for seed in range(3):
            result = store.get("alice", victim,
                               rng=np.random.default_rng(seed))
            assert result.outcome == "refused"
            assert result.video is None
            assert "no replica holds the stream" in result.refusal_reason
        for display in range(record.frames):
            result = store.get_frame("alice", victim, display,
                                     rng=np.random.default_rng(display))
            assert not result.cache_hit
            assert result.outcome == "refused"
            assert result.frame is None
        # Only the victim's bytes are gone: its neighbour still serves.
        assert store.get("alice", bystander,
                         rng=np.random.default_rng(0)).outcome == "clean"

    def test_tampered_manifest_hash_fails_closed(self):
        # One GOP: every seek's closure spans the whole clip, so each
        # stream's range read covers the stream and is hashed too.
        store = _quiet_store(config=EncoderConfig(gop_size=8),
                             seek_cache=0)
        object_id = store.put("alice", _clip(3, frames=4))
        record = store.record("alice", object_id)
        assert store.get("alice", object_id,
                         rng=np.random.default_rng(0)).outcome == "clean"
        name = max(record.stream_lengths, key=record.stream_lengths.get)
        record.stream_sha[name] = "0" * 64
        result = store.get("alice", object_id,
                           rng=np.random.default_rng(1))
        assert result.outcome == "refused"
        assert result.video is None
        assert result.refusal_reason == (
            f"stream {name}: integrity hash mismatch on a read the "
            f"device reported clean")
        assert result.reports[name].flipped_bits == 0
        assert result.reports[name].failed_blocks == 0
        for display in range(record.frames):
            frame = store.get_frame("alice", object_id, display,
                                    rng=np.random.default_rng(display))
            assert frame.bytes_read == frame.bytes_total
            assert frame.outcome == "refused"
            assert frame.frame is None
            assert "integrity hash mismatch" in frame.refusal_reason
            assert frame.reports[name].flipped_bits == 0

    def test_record_holds_no_arrays_or_bytes(self):
        store = _quiet_store(config=EncoderConfig(gop_size=4, bframes=1))
        object_id = store.put("alice", _clip(4))
        leaves = list(_leaves(store.record("alice", object_id)))
        held = [(path, type(value).__name__) for path, value in leaves
                if isinstance(value, (np.ndarray, bytes, bytearray,
                                      memoryview))]
        assert held == []
        assert any(path.startswith("record.pivots") for path, _ in leaves)
        assert all(isinstance(value, _METADATA) for _, value in leaves), [
            (path, type(value).__name__) for path, value in leaves
            if not isinstance(value, _METADATA)]


@pytest.fixture(scope="module", params=sorted(GOLDEN_CLIPS))
def layouts(request):
    """``(full ProtectedVideo, the store's manifest)`` of one clip."""
    scene, config = GOLDEN_CLIPS[request.param]
    clip = synthesize_scene(scene)
    encoded = Encoder(config).encode(clip)
    protected = partition_video(encoded, compute_importance(encoded.trace),
                                PAPER_TABLE1)
    store = _quiet_store(config=config)
    record = store.record("alice", store.put("alice", clip))
    return protected, record


def _flipped(streams, seed: int):
    """``streams`` with seeded bit flips, and the flipped bits as
    per-stream damage intervals."""
    rng = np.random.default_rng(seed)
    flipped, damage = {}, {}
    for name in sorted(streams):
        bits = np.unpackbits(np.frombuffer(streams[name], dtype=np.uint8))
        where = np.unique(rng.integers(0, bits.size,
                                       size=1 + bits.size // 64))
        bits[where] ^= 1
        flipped[name] = np.packbits(bits).tobytes()
        damage[name] = [(int(bit), int(bit) + 1) for bit in where]
    return flipped, damage


class TestManifestHelpersEqualFullContainer:
    def test_manifest_carries_the_partition_layout(self, layouts):
        protected, record = layouts
        assert record.stream_bits == protected.stream_bits
        assert record.stream_lengths == protected.stream_lengths
        assert record.pivots == protected.pivots
        assert record.frame_headers == protected.frame_headers

    def test_merge_streams(self, layouts):
        protected, record = layouts
        clean = merge_streams(record, protected.streams)
        assert clean == merge_streams(protected, protected.streams)
        assert clean == protected.encoded.frame_payloads()
        for seed in range(3):
            flipped, _ = _flipped(protected.streams, seed)
            assert merge_streams(record, flipped) == \
                merge_streams(protected, flipped)

    def test_merge_streams_rebuilds_only_the_listed_positions(self,
                                                              layouts):
        protected, record = layouts
        wanted = [plan.positions for plan in record.gop_plans.values()]
        wanted += [(), (0,), tuple(range(0, record.frames, 2))]
        for seed in range(2):
            flipped, _ = _flipped(protected.streams, seed)
            full = merge_streams(record, flipped)
            for positions in wanted:
                partial = merge_streams(record, flipped, positions)
                assert len(partial) == len(full)
                for position, payload in enumerate(partial):
                    assert payload == (
                        full[position] if position in positions
                        else bytes(len(full[position])))

    def test_stream_ranges_for_frames(self, layouts):
        protected, record = layouts
        frames = len(protected.pivots)
        wanted = [[], list(range(frames))]
        wanted += [[position] for position in range(frames)]
        wanted += [dependency_closure(protected.encoded, [display])
                   for display in range(frames)]
        for positions in wanted:
            assert stream_ranges_for_frames(record, positions) == \
                stream_ranges_for_frames(protected, positions)

    def test_gop_plans_equal_the_on_the_fly_plan(self, layouts):
        protected, record = layouts
        index = record.seek_index
        anchors = [entry.anchor_display for entry in index.gops]
        assert sorted(record.gop_plans) == anchors
        # What a seek miss computed before the plans were stored: the
        # closure over a header-only container, then its stream ranges.
        header_only = record.container([b""] * record.frames)
        for start, stop in zip(anchors, anchors[1:] + [index.num_frames]):
            plan = record.gop_plans[start]
            positions = dependency_closure(header_only, range(start, stop))
            assert (plan.start, plan.stop) == (start, stop)
            assert list(plan.positions) == positions
            assert plan.ranges == stream_ranges_for_frames(record,
                                                           positions)
            assert plan.ranges == stream_ranges_for_frames(
                protected,
                dependency_closure(protected.encoded, range(start, stop)))
            assert all(type(p) is int for p in plan.positions)
            assert all(type(bit) is int for extent in plan.ranges.values()
                       for bit in extent)
        for display in range(record.frames):
            plan = record.gop_plans[
                index.gop_for_display(display).anchor_display]
            assert plan.start <= display < plan.stop

    def test_map_stream_damage(self, layouts):
        protected, record = layouts
        assert map_stream_damage(record, {}) == \
            map_stream_damage(protected, {}) == {}
        for seed in range(3):
            _, damage = _flipped(protected.streams, seed)
            mapped = map_stream_damage(record, damage)
            assert mapped
            assert mapped == map_stream_damage(protected, damage)
        whole = {name: [(0, bits)]
                 for name, bits in protected.stream_bits.items()}
        assert map_stream_damage(record, whole) == \
            map_stream_damage(protected, whole)
