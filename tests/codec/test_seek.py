"""Tests for the container seek index and partial (random-access) decode.

The load-bearing property here is the partial-decode identity:
``decode_frame_at(t)`` must be bitwise pixel-identical to frame ``t``
of a whole-clip decode on clean streams, across GOP sizes, B-frame
reorderings, and both container versions.
"""

import copy

import numpy as np
import pytest

from repro.codec import (
    Decoder,
    EncodedVideo,
    Encoder,
    EncoderConfig,
    SEEK_INDEX_VERSION,
    SeekIndex,
    build_seek_index,
    dependency_closure,
    validate_seek_index,
)
from repro.codec.types import FrameType
from repro.errors import BitstreamError
from repro.obs.metrics import counter_deltas
from repro.video import SceneConfig, synthesize_scene

#: The reordering regimes the identity property must survive: closed
#: GOPs with B frames, longer GOPs with double-B chains, and a pure
#: I/P stream (no reordering at all).
CONFIGS = (
    EncoderConfig(crf=28, gop_size=4, bframes=1),
    EncoderConfig(crf=28, gop_size=8, bframes=2),
    EncoderConfig(crf=28, gop_size=6, bframes=0),
)


@pytest.fixture(scope="module")
def seek_video():
    return synthesize_scene(SceneConfig(
        width=64, height=48, num_frames=10, seed=13, num_objects=2))


@pytest.fixture(scope="module", params=CONFIGS,
                ids=lambda c: f"gop{c.gop_size}b{c.bframes}")
def encoded_gops(request, seek_video) -> EncodedVideo:
    return Encoder(request.param).encode(seek_video)


class TestSeekIndexBlock:
    def test_serialize_roundtrip(self, encoded_gops):
        index = build_seek_index(encoded_gops)
        assert SeekIndex.deserialize(index.serialize()) == index

    def test_every_single_byte_corruption_is_detected(self, encoded_gops):
        blob = build_seek_index(encoded_gops).serialize()
        for position in range(len(blob)):
            damaged = bytearray(blob)
            damaged[position] ^= 0xFF
            with pytest.raises(BitstreamError):
                SeekIndex.deserialize(bytes(damaged))

    def test_every_truncation_is_detected(self, encoded_gops):
        blob = build_seek_index(encoded_gops).serialize()
        for length in range(len(blob)):
            with pytest.raises(BitstreamError):
                SeekIndex.deserialize(blob[:length])

    def test_trailing_garbage_is_detected(self, encoded_gops):
        blob = build_seek_index(encoded_gops).serialize()
        with pytest.raises(BitstreamError):
            SeekIndex.deserialize(blob + b"\x00")

    def test_unknown_version_is_rejected(self, encoded_gops):
        index = build_seek_index(encoded_gops)
        future = SeekIndex(version=SEEK_INDEX_VERSION + 1,
                           display_to_coded=index.display_to_coded,
                           gops=index.gops)
        with pytest.raises(BitstreamError):
            SeekIndex.deserialize(future.serialize())


class TestBuildAndValidate:
    def test_mapping_is_a_display_permutation(self, encoded_gops):
        index = build_seek_index(encoded_gops)
        assert sorted(index.display_to_coded) == \
            list(range(len(encoded_gops.frames)))
        for display, position in enumerate(index.display_to_coded):
            header = encoded_gops.frames[position].header
            assert header.display_index == display

    def test_gops_tile_the_container_body(self, encoded_gops):
        index = build_seek_index(encoded_gops)
        body = encoded_gops.serialize()  # v0 == the body
        header_bytes = encoded_gops.header.serialized_bits() // 8
        assert index.gops[0].byte_start == header_bytes
        assert index.gops[-1].byte_end == len(body)
        for left, right in zip(index.gops, index.gops[1:]):
            assert left.byte_end == right.byte_start
            assert left.frame_pos + left.frame_count == right.frame_pos
        for entry in index.gops:
            anchor = encoded_gops.frames[entry.frame_pos].header
            assert anchor.frame_type == FrameType.I
            assert anchor.display_index == entry.anchor_display

    def test_built_index_validates(self, encoded_gops):
        index = build_seek_index(encoded_gops)
        assert validate_seek_index(index, encoded_gops)

    def test_inconsistent_indexes_fail_validation(self, encoded_gops):
        index = build_seek_index(encoded_gops)
        scrambled = SeekIndex(
            version=index.version,
            display_to_coded=tuple(reversed(index.display_to_coded)),
            gops=index.gops)
        # A permutation that disagrees with the headers, or an index
        # with no GOPs at all, must be rebuilt rather than trusted.
        assert not validate_seek_index(scrambled, encoded_gops)
        empty = SeekIndex(version=index.version,
                          display_to_coded=index.display_to_coded,
                          gops=())
        assert not validate_seek_index(empty, encoded_gops)

    def test_gop_for_display_picks_preceding_anchor(self, encoded_gops):
        index = build_seek_index(encoded_gops)
        for display in range(index.num_frames):
            entry = index.gop_for_display(display)
            assert entry.anchor_display <= display
            later = [e.anchor_display for e in index.gops
                     if entry.anchor_display < e.anchor_display <= display]
            assert not later
        with pytest.raises(BitstreamError):
            index.gop_for_display(index.num_frames)
        with pytest.raises(BitstreamError):
            index.gop_for_display(-1)

    def test_build_rejects_non_container(self):
        with pytest.raises(BitstreamError):
            build_seek_index(b"not a container")


class TestContainerVersions:
    def test_v0_serialization_is_unchanged(self, encoded_gops):
        blob = encoded_gops.serialize()
        assert blob[:4] == b"RVAP"
        parsed = EncodedVideo.deserialize(blob)
        assert parsed.seek_index is None
        assert parsed.frame_payloads() == encoded_gops.frame_payloads()

    def test_v1_roundtrips_with_index(self, encoded_gops):
        blob = encoded_gops.serialize(include_index=True)
        assert blob[:4] == b"RVP1"
        parsed = EncodedVideo.deserialize(blob)
        assert parsed.seek_index == build_seek_index(encoded_gops)
        assert parsed.frame_payloads() == encoded_gops.frame_payloads()

    def test_v1_overhead_is_exactly_the_index_block(self, encoded_gops):
        v0 = encoded_gops.serialize()
        v1 = encoded_gops.serialize(include_index=True)
        index = build_seek_index(encoded_gops).serialize()
        assert len(v1) == len(v0) + len(index) + 8  # magic + u32 length
        assert v1.endswith(v0[4:])  # the body rides along unchanged

    def test_damaged_index_degrades_to_none(self, encoded_gops):
        blob = bytearray(encoded_gops.serialize(include_index=True))
        blob[20] ^= 0xFF  # inside the index block, body untouched
        parsed = EncodedVideo.deserialize(bytes(blob))
        assert parsed.seek_index is None
        clean = Decoder().decode(encoded_gops)
        damaged = Decoder().decode(parsed)
        for a, b in zip(clean.frames, damaged.frames):
            assert np.array_equal(a, b)

    def test_truncated_index_framing_is_rejected(self, encoded_gops):
        blob = encoded_gops.serialize(include_index=True)
        with pytest.raises(BitstreamError):
            EncodedVideo.deserialize(blob[:6])
        oversize = blob[:4] + (0xFFFFFFFF).to_bytes(4, "big") + blob[8:]
        with pytest.raises(BitstreamError):
            EncodedVideo.deserialize(oversize)

    def test_seek_index_or_build_rebuilds_bogus_index(self, encoded_gops):
        parsed = EncodedVideo.deserialize(
            encoded_gops.serialize(include_index=True))
        good = build_seek_index(encoded_gops)
        parsed.seek_index = SeekIndex(
            version=good.version,
            display_to_coded=tuple(0 for _ in good.display_to_coded),
            gops=good.gops)
        assert parsed.seek_index_or_build() == good


class TestDependencyClosure:
    def test_closure_opens_with_an_i_frame(self, encoded_gops):
        for display in range(len(encoded_gops.frames)):
            positions = dependency_closure(encoded_gops, [display])
            assert positions == sorted(positions)
            assert encoded_gops.frames[positions[0]].header.frame_type \
                == FrameType.I

    def test_closure_of_everything_is_everything(self, encoded_gops):
        n = len(encoded_gops.frames)
        assert dependency_closure(encoded_gops, range(n)) == list(range(n))

    def test_closure_rejects_out_of_range_targets(self, encoded_gops):
        with pytest.raises(BitstreamError):
            dependency_closure(encoded_gops, [len(encoded_gops.frames)])


class TestPartialDecodeIdentity:
    """decode_frame_at == full decode, bitwise, on clean streams."""

    def test_every_frame_matches_full_decode(self, encoded_gops):
        full = Decoder().decode(encoded_gops)
        decoder = Decoder()
        for display in range(len(full)):
            frame = decoder.decode_frame_at(encoded_gops, display)
            assert np.array_equal(frame, full.frames[display]), \
                f"display {display} diverged from full decode"

    def test_decode_range_matches_full_slice(self, encoded_gops):
        full = Decoder().decode(encoded_gops)
        clip = Decoder().decode_range(encoded_gops, 2, 7)
        assert len(clip) == 5
        for offset, frame in enumerate(clip.frames):
            assert np.array_equal(frame, full.frames[2 + offset])

    def test_identity_survives_both_container_versions(self, encoded_gops):
        full = Decoder().decode(encoded_gops)
        for blob in (encoded_gops.serialize(),
                     encoded_gops.serialize(include_index=True)):
            parsed = EncodedVideo.deserialize(blob)
            frame = Decoder().decode_frame_at(parsed, 3)
            assert np.array_equal(frame, full.frames[3])

    def test_decode_range_rejects_bad_ranges(self, encoded_gops):
        decoder = Decoder()
        with pytest.raises(BitstreamError):
            decoder.decode_range(encoded_gops, 3, 3)
        with pytest.raises(BitstreamError):
            decoder.decode_range(encoded_gops, -1, 2)
        with pytest.raises(BitstreamError):
            decoder.decode_range(encoded_gops, 0,
                                 len(encoded_gops.frames) + 1)


class TestHandedInClosure:
    """``decode_range(positions=...)`` trusts only what it checks: bad
    closures raise :class:`BitstreamError` or fall back to one full
    decode, never an ``IndexError`` or ``KeyError``."""

    @staticmethod
    def _fallback_range(encoded, start, stop, positions):
        full = Decoder().decode(encoded)
        with counter_deltas("decode_seek_fallback_total") as moved:
            clip = Decoder().decode_range(encoded, start, stop,
                                          positions=positions)
        assert moved["decode_seek_fallback_total"] == 1
        assert len(clip) == stop - start
        for offset, frame in enumerate(clip.frames):
            assert np.array_equal(frame, full.frames[start + offset])

    def test_out_of_range_position_falls_back(self, encoded_gops):
        self._fallback_range(encoded_gops, 0, 1, [0, 99])
        self._fallback_range(encoded_gops, 0, 1, [len(encoded_gops.frames)])

    def test_negative_position_falls_back(self, encoded_gops):
        self._fallback_range(encoded_gops, 0, 1, [-1])
        self._fallback_range(encoded_gops, 0, 1, [0, -len(encoded_gops.frames)])

    def test_duplicate_position_falls_back(self, encoded_gops):
        closure = dependency_closure(encoded_gops, range(0, 2))
        self._fallback_range(encoded_gops, 0, 2, closure + closure[:1])

    def test_closure_missing_a_target_falls_back(self, encoded_gops):
        self._fallback_range(encoded_gops, 0, 2, [0])
        self._fallback_range(encoded_gops, 1, 3, [])

    def test_valid_closure_decodes_without_fallback(self, encoded_gops):
        full = Decoder().decode(encoded_gops)
        closure = dependency_closure(encoded_gops, range(2, 5))
        with counter_deltas("decode_seek_fallback_total") as moved:
            clip = Decoder().decode_range(encoded_gops, 2, 5,
                                          positions=closure)
        assert moved["decode_seek_fallback_total"] == 0
        for offset, frame in enumerate(clip.frames):
            assert np.array_equal(frame, full.frames[2 + offset])

    def test_validates_only_the_closure(self, encoded_gops):
        """A broken header outside the closure does not stop a partial
        decode; inside it, the full decode's validation refuses."""
        closure = dependency_closure(encoded_gops, [0])
        outside = next(p for p in range(len(encoded_gops.frames))
                       if p not in closure)
        expected = Decoder().decode(encoded_gops).frames[0]
        broken = copy.deepcopy(encoded_gops)
        broken.frames[outside].header.slice_byte_lengths = []
        with pytest.raises(BitstreamError):
            Decoder().decode(broken)
        frame = Decoder().decode_range(broken, 0, 1,
                                       positions=closure).frames[0]
        assert np.array_equal(frame, expected)
        broken = copy.deepcopy(encoded_gops)
        broken.frames[closure[0]].header.slice_byte_lengths = []
        with pytest.raises(BitstreamError):
            Decoder().decode_range(broken, 0, 1, positions=closure)
