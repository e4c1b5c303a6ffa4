"""Tests for bitstream partitioning into reliability streams."""

import numpy as np
import pytest

from repro.codec import Decoder
from repro.core import (
    PAPER_TABLE1,
    UNIFORM_ASSIGNMENT,
    map_stream_damage,
    merge_streams,
    partition_video,
)
from repro.errors import AnalysisError
from repro.video import frames_equal


@pytest.fixture(scope="module")
def protected(encoded_medium, importance_medium):
    return partition_video(encoded_medium, importance_medium, PAPER_TABLE1)


class TestPartition:
    def test_split_merge_identity(self, protected, encoded_medium):
        payloads = merge_streams(protected, protected.streams)
        assert payloads == encoded_medium.frame_payloads()

    def test_stream_bits_total_payload(self, protected, encoded_medium):
        assert sum(protected.stream_bits.values()) == \
            encoded_medium.payload_bits

    def test_stream_padding_at_most_seven_bits(self, protected):
        for name, data in protected.streams.items():
            assert 0 <= 8 * len(data) - protected.stream_bits[name] < 8

    def test_multiple_streams_exist(self, protected):
        """Real content spans several importance classes."""
        assert len(protected.streams) >= 2

    def test_weak_stream_holds_majority(self, protected):
        """Most storage sits in the cheap schemes — the effect the
        paper's savings rely on (Figure 10b)."""
        weak = sum(bits for name, bits in protected.stream_bits.items()
                   if name in ("None", "BCH-6", "BCH-7"))
        assert weak > 0.5 * sum(protected.stream_bits.values())

    def test_uniform_assignment_one_stream(self, encoded_medium,
                                           importance_medium):
        protected = partition_video(encoded_medium, importance_medium,
                                    UNIFORM_ASSIGNMENT)
        assert set(protected.streams) == {"BCH-16"}

    def test_requires_trace(self, encoded_medium, importance_medium):
        from repro.codec import EncodedVideo
        stripped = EncodedVideo(header=encoded_medium.header,
                                frames=encoded_medium.frames, trace=None)
        with pytest.raises(AnalysisError):
            partition_video(stripped, importance_medium, PAPER_TABLE1)


class TestMergeWithCorruption:
    def test_corrupted_streams_still_merge(self, protected,
                                           encoded_medium):
        rng = np.random.default_rng(0)
        corrupted = {}
        for name, data in protected.streams.items():
            buffer = bytearray(data)
            if buffer:
                buffer[int(rng.integers(0, len(buffer)))] ^= 0xFF
            corrupted[name] = bytes(buffer)
        payloads = merge_streams(protected, corrupted)
        assert [len(p) for p in payloads] == \
            [len(p) for p in encoded_medium.frame_payloads()]

    def test_corruption_lands_in_right_place(self, protected,
                                             encoded_medium):
        """Flipping a bit in the weakest stream must corrupt a payload
        bit attributed to a low-importance segment."""
        weakest = min(protected.stream_bits,
                      key=lambda name: protected.stream_bits[name])
        corrupted = dict(protected.streams)
        buffer = bytearray(corrupted[weakest])
        buffer[0] ^= 0x80
        corrupted[weakest] = bytes(buffer)
        merged = merge_streams(protected, corrupted)
        clean = encoded_medium.frame_payloads()
        diffs = sum(1 for a, b in zip(merged, clean) if a != b)
        assert diffs == 1

    def test_decodes_after_roundtrip(self, protected, encoded_medium,
                                     decoded_medium):
        payloads = merge_streams(protected, protected.streams)
        clone = encoded_medium.with_payloads(payloads)
        assert frames_equal(Decoder().decode(clone), decoded_medium)

    def test_missing_stream_rejected(self, protected):
        streams = dict(protected.streams)
        streams.pop(next(iter(streams)))
        with pytest.raises(AnalysisError):
            merge_streams(protected, streams)

    def test_resized_stream_rejected(self, protected):
        streams = dict(protected.streams)
        name = next(iter(streams))
        streams[name] = streams[name] + b"\x00"
        with pytest.raises(AnalysisError):
            merge_streams(protected, streams)


class TestDensity:
    def test_variable_cheaper_than_uniform(self, encoded_medium,
                                           importance_medium,
                                           medium_video):
        variable = partition_video(encoded_medium, importance_medium,
                                   PAPER_TABLE1)
        uniform = partition_video(encoded_medium, importance_medium,
                                  UNIFORM_ASSIGNMENT)
        dv = variable.density(medium_video.total_pixels)
        du = uniform.density(medium_video.total_pixels)
        assert dv.cells < du.cells
        assert dv.cells_per_pixel < du.cells_per_pixel

    def test_precise_bits_include_pivots(self, protected, encoded_medium):
        assert protected.precise_bits > encoded_medium.header_bits


class TestMapStreamDamage:
    """Stream-coordinate damage must project onto exactly the payload
    bits merge_streams would place those stream bits into."""

    def _diff_bits(self, merged, clean):
        """{frame: sorted payload-bit positions that differ}."""
        diffs = {}
        for index, (a, b) in enumerate(zip(merged, clean)):
            bits_a = np.unpackbits(np.frombuffer(a, dtype=np.uint8))
            bits_b = np.unpackbits(np.frombuffer(b, dtype=np.uint8))
            positions = np.nonzero(bits_a != bits_b)[0]
            if positions.size:
                diffs[index] = positions.tolist()
        return diffs

    def test_mapping_matches_merge_placement(self, protected,
                                             encoded_medium):
        # Flip every bit in one stream interval; the payload bits that
        # change must be exactly the mapped damage ranges.
        name = max(protected.stream_bits,
                   key=lambda n: protected.stream_bits[n])
        interval = (100, 1200)
        damage_map = map_stream_damage(protected, {name: [interval]})
        assert damage_map  # the interval lands somewhere

        bits = np.unpackbits(
            np.frombuffer(protected.streams[name], dtype=np.uint8)).copy()
        bits[interval[0]:interval[1]] ^= 1
        corrupted = dict(protected.streams)
        corrupted[name] = np.packbits(bits).tobytes()
        merged = merge_streams(protected, corrupted)
        diffs = self._diff_bits(merged, encoded_medium.frame_payloads())

        expected = {
            frame: sorted(pos for start, end in ranges
                          for pos in range(start, end))
            for frame, ranges in damage_map.items()
        }
        assert diffs == expected

    def test_ranges_sorted_and_coalesced(self, protected):
        name = max(protected.stream_bits,
                   key=lambda n: protected.stream_bits[n])
        damage_map = map_stream_damage(
            protected, {name: [(50, 300), (200, 400), (390, 600)]})
        merged_once = map_stream_damage(protected, {name: [(50, 600)]})
        assert damage_map == merged_once
        for ranges in damage_map.values():
            assert ranges == sorted(ranges)
            for (s1, e1), (s2, e2) in zip(ranges, ranges[1:]):
                assert e1 < s2  # strictly separated after coalescing

    def test_ranges_stay_inside_payloads(self, protected, encoded_medium):
        name = max(protected.stream_bits,
                   key=lambda n: protected.stream_bits[n])
        total = protected.stream_bits[name]
        damage_map = map_stream_damage(protected, {name: [(0, total)]})
        payload_bits = [f.payload_bits for f in encoded_medium.frames]
        for frame, ranges in damage_map.items():
            for start, end in ranges:
                assert 0 <= start < end <= payload_bits[frame]

    def test_empty_and_inverted_intervals_ignored(self, protected):
        name = next(iter(protected.streams))
        assert map_stream_damage(protected, {name: [(10, 10)]}) == {}
        assert map_stream_damage(protected, {name: [(20, 10)]}) == {}
        assert map_stream_damage(protected, {}) == {}

    def test_unknown_stream_rejected(self, protected):
        with pytest.raises(AnalysisError, match="unknown stream"):
            map_stream_damage(protected, {"BCH-99": [(0, 10)]})


class TestStreamRangesForFrames:
    def test_all_frames_cover_every_stream(self, protected):
        from repro.core import stream_ranges_for_frames
        positions = range(len(protected.encoded.frames))
        ranges = stream_ranges_for_frames(protected, positions)
        assert set(ranges) == set(protected.streams)
        for name, (lo, hi) in ranges.items():
            assert (lo, hi) == (0, protected.stream_bits[name])

    def test_single_frame_is_a_subwindow(self, protected):
        from repro.core import stream_ranges_for_frames
        ranges = stream_ranges_for_frames(protected, [0])
        assert ranges  # an I frame always lands in some stream
        for name, (lo, hi) in ranges.items():
            assert 0 <= lo < hi <= protected.stream_bits[name]

    def test_empty_input_is_empty(self, protected):
        from repro.core import stream_ranges_for_frames
        assert stream_ranges_for_frames(protected, []) == {}

    def test_out_of_range_positions_are_rejected(self, protected):
        from repro.core import stream_ranges_for_frames
        with pytest.raises(AnalysisError):
            stream_ranges_for_frames(
                protected, [len(protected.encoded.frames)])
