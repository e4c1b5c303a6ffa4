"""Integration tests for the full encoder/decoder."""

import numpy as np
import pytest

from repro.codec import (
    Decoder,
    EncodedVideo,
    Encoder,
    EncoderConfig,
    EntropyCoder,
    FrameType,
)
from repro.errors import BitstreamError, EncoderError
from repro.metrics import video_psnr
from repro.video import SceneConfig, VideoSequence, frames_equal, synthesize_scene


class TestRoundTrip:
    def test_decode_matches_reconstruction(self, small_video,
                                           default_config):
        """Decode of a clean stream reproduces the encoder's closed-loop
        reconstruction bit for bit (tested via determinism of decode +
        quality sanity)."""
        encoded = Encoder(default_config).encode(small_video)
        decoded_once = Decoder().decode(encoded)
        decoded_twice = Decoder().decode(encoded)
        assert frames_equal(decoded_once, decoded_twice)

    def test_quality_reasonable(self, small_video, decoded_small):
        assert video_psnr(small_video, decoded_small) > 35.0

    def test_compression_achieved(self, small_video, encoded_small):
        raw_bits = small_video.total_pixels * 8
        assert encoded_small.payload_bits < raw_bits / 4

    def test_lower_crf_higher_quality_more_bits(self, small_video):
        coarse = Encoder(EncoderConfig(crf=32, gop_size=8)).encode(small_video)
        fine = Encoder(EncoderConfig(crf=16, gop_size=8)).encode(small_video)
        assert fine.payload_bits > coarse.payload_bits
        q_coarse = video_psnr(small_video, Decoder().decode(coarse))
        q_fine = video_psnr(small_video, Decoder().decode(fine))
        assert q_fine > q_coarse

    def test_geometry_preserved(self, small_video, decoded_small):
        assert decoded_small.width == small_video.width
        assert decoded_small.height == small_video.height
        assert len(decoded_small) == len(small_video)


class TestDeterminism:
    def test_encoding_is_deterministic(self, small_video, default_config):
        """Same input + config -> bit-identical stream (no hidden
        randomness anywhere in the encoder)."""
        a = Encoder(default_config).encode(small_video).serialize()
        b = Encoder(default_config).encode(small_video).serialize()
        assert a == b

    def test_suite_presets_all_encode(self):
        """Every synthetic preset round-trips at reasonable quality."""
        from repro.video import make_suite
        for name, video in make_suite(width=64, height=48, num_frames=4):
            encoded = Encoder(EncoderConfig(crf=26, gop_size=4)).encode(
                video)
            decoded = Decoder().decode(encoded)
            assert video_psnr(video, decoded) > 30.0, name


class TestVariants:
    @pytest.mark.parametrize("bframes", [0, 1, 2])
    def test_bframe_roundtrip(self, small_video, bframes):
        config = EncoderConfig(crf=26, gop_size=8, bframes=bframes)
        encoded = Encoder(config).encode(small_video)
        decoded = Decoder().decode(encoded)
        assert video_psnr(small_video, decoded) > 32.0

    @pytest.mark.parametrize("slices", [1, 2, 3])
    def test_slices_roundtrip(self, small_video, slices):
        config = EncoderConfig(crf=26, gop_size=8, slices=slices)
        encoded = Encoder(config).encode(small_video)
        decoded = Decoder().decode(encoded)
        assert video_psnr(small_video, decoded) > 32.0

    def test_cavlc_roundtrip_and_larger(self, small_video):
        cabac = Encoder(EncoderConfig(crf=26, gop_size=8)).encode(small_video)
        cavlc = Encoder(EncoderConfig(
            crf=26, gop_size=8,
            entropy_coder=EntropyCoder.CAVLC)).encode(small_video)
        assert video_psnr(small_video, Decoder().decode(cavlc)) > 32.0
        # CAVLC costs extra storage (the paper cites 10-15%).
        assert cavlc.payload_bits > cabac.payload_bits

    def test_slices_cost_storage(self, small_video):
        one = Encoder(EncoderConfig(crf=26, gop_size=8)).encode(small_video)
        three = Encoder(EncoderConfig(crf=26, gop_size=8,
                                      slices=3)).encode(small_video)
        assert three.payload_bits >= one.payload_bits

    def test_frame_types_follow_gop(self, small_video):
        encoded = Encoder(EncoderConfig(crf=26, gop_size=4,
                                        bframes=1)).encode(small_video)
        types = {f.header.display_index: f.header.frame_type
                 for f in encoded.frames}
        assert types[0] == FrameType.I
        assert types[4] == FrameType.I
        assert FrameType.B in types.values()

    def test_single_frame_video(self):
        video = synthesize_scene(SceneConfig(width=32, height=32,
                                             num_frames=1, seed=1))
        encoded = Encoder(EncoderConfig(crf=24)).encode(video)
        decoded = Decoder().decode(encoded)
        assert len(decoded) == 1
        assert video_psnr(video, decoded) > 30.0


class TestTrace:
    def test_trace_covers_all_macroblocks(self, encoded_small, small_video):
        trace = encoded_small.trace
        assert trace is not None
        assert len(trace.frames) == len(small_video)
        for frame in trace.frames:
            assert len(frame.macroblocks) == trace.macroblocks_per_frame

    def test_bit_ranges_monotone_within_frame(self, encoded_small):
        for frame in encoded_small.trace.frames:
            cursor = 0
            for mb in frame.macroblocks:
                assert mb.bit_start >= cursor
                assert mb.bit_end >= mb.bit_start
                cursor = mb.bit_end
            assert cursor <= frame.payload_bits

    def test_i_frames_have_no_interframe_deps(self, encoded_small):
        for frame in encoded_small.trace.frames:
            if frame.frame_type != FrameType.I:
                continue
            for mb in frame.macroblocks:
                for dep in mb.dependencies:
                    assert dep.source[0] == frame.coded_index

    def test_p_frames_reference_earlier_coded(self, encoded_small):
        for frame in encoded_small.trace.frames:
            for mb in frame.macroblocks:
                for dep in mb.dependencies:
                    assert dep.source[0] <= frame.coded_index


class TestCorruption:
    def test_any_single_byte_corruption_decodes(self, encoded_small):
        """Flipping any payload byte must never crash the decoder."""
        payloads = encoded_small.frame_payloads()
        rng = np.random.default_rng(3)
        for _ in range(20):
            frame_index = int(rng.integers(0, len(payloads)))
            if not payloads[frame_index]:
                continue
            position = int(rng.integers(0, len(payloads[frame_index])))
            damaged = [bytearray(p) for p in payloads]
            damaged[frame_index][position] ^= 0xFF
            corrupted = encoded_small.with_payloads(
                [bytes(p) for p in damaged])
            decoded = Decoder().decode(corrupted)
            assert len(decoded) == len(payloads)

    def test_all_zero_payloads_decode(self, encoded_small):
        zeroed = encoded_small.with_payloads(
            [bytes(len(p)) for p in encoded_small.frame_payloads()])
        decoded = Decoder().decode(zeroed)
        assert len(decoded) == len(encoded_small.frames)

    def test_early_flip_damages_more_than_late(self, medium_video,
                                               encoded_medium,
                                               decoded_medium):
        """The Figure 3 effect: early bits in a frame matter more."""
        payloads = encoded_medium.frame_payloads()
        target = 1  # first P-frame
        early = [bytearray(p) for p in payloads]
        early[target][1] ^= 0x10
        late = [bytearray(p) for p in payloads]
        late[target][-2] ^= 0x10
        psnr_early = video_psnr(
            decoded_medium,
            Decoder().decode(encoded_medium.with_payloads(
                [bytes(p) for p in early])))
        psnr_late = video_psnr(
            decoded_medium,
            Decoder().decode(encoded_medium.with_payloads(
                [bytes(p) for p in late])))
        assert psnr_early < psnr_late

    def test_error_stops_at_next_i_frame(self, medium_video):
        """Damage from a flip in GOP 1 must not reach GOP 2's frames."""
        config = EncoderConfig(crf=24, gop_size=6)
        encoded = Encoder(config).encode(medium_video)
        clean = Decoder().decode(encoded)
        payloads = encoded.frame_payloads()
        damaged = [bytearray(p) for p in payloads]
        damaged[1][0] ^= 0xFF  # P-frame of the first GOP
        decoded = Decoder().decode(
            encoded.with_payloads([bytes(p) for p in damaged]))
        # Frames of the second GOP (display >= 6) must be untouched.
        for display in range(6, len(medium_video)):
            assert np.array_equal(decoded[display], clean[display])

    def test_slices_confine_damage_rows(self, medium_video):
        """With 2 slices, a flip in the second slice must leave the
        first slice's rows of that frame intact. Deblocking is off so
        the in-loop filter's few-pixel smoothing across the slice
        boundary doesn't blur the entropy-layer containment claim."""
        config = EncoderConfig(crf=24, gop_size=len(medium_video), slices=2,
                               deblocking=False)
        encoded = Encoder(config).encode(medium_video)
        clean = Decoder().decode(encoded)
        frame = encoded.frames[1]
        first_slice_bytes = frame.header.slice_byte_lengths[0]
        damaged = [bytearray(p) for p in encoded.frame_payloads()]
        damaged[1][first_slice_bytes + 1] ^= 0xFF  # inside slice 2
        decoded = Decoder().decode(
            encoded.with_payloads([bytes(p) for p in damaged]))
        display = frame.header.display_index
        slice_rows = (medium_video.mb_rows // 2
                      + medium_video.mb_rows % 2) * 16
        assert np.array_equal(decoded[display][:slice_rows],
                              clean[display][:slice_rows])


class TestValidation:
    def test_empty_video_rejected(self, default_config):
        with pytest.raises(EncoderError):
            Encoder(default_config).encode(VideoSequence([]))

    def test_too_many_slices_rejected(self, small_video):
        config = EncoderConfig(crf=24, gop_size=8, slices=10)
        with pytest.raises(EncoderError):
            Encoder(config).encode(small_video)  # only 3 MB rows

    def test_frame_count_mismatch_rejected(self, encoded_small):
        broken = EncodedVideo(header=encoded_small.header,
                              frames=encoded_small.frames[:-1])
        with pytest.raises(BitstreamError):
            Decoder().decode(broken)
