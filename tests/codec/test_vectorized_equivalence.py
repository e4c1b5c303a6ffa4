"""Property tests: vectorized hot paths == scalar references, bit for bit.

Every batched numpy kernel introduced for throughput is checked against
the loop-level implementations in :mod:`repro.codec.reference` on
Hypothesis-generated inputs. These tests are the per-kernel counterpart
of the whole-pipeline net in ``test_golden_bitstreams.py``: a digest
mismatch says *something* diverged, a failure here says exactly which
kernel and on which input.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as npst

from repro.codec import batch as batch_module
from repro.codec import encoder as encoder_module
from repro.codec import reference as ref
from repro.codec.batch import (
    BatchFrameMotionSearch,
    assemble_gop_units,
    gop_unit_bounds,
)
from repro.codec.bitstream import BitReader, BitWriter
from repro.codec.cabac import CabacDecoder, CabacEncoder
from repro.codec.cavlc import CavlcDecoder, CavlcEncoder
from repro.codec.config import EncoderConfig, EntropyCoder
from repro.codec.contexts import DEFAULT_CONTEXT_MODEL
from repro.codec.decoder import Decoder
from repro.codec.deblock import (
    _filter_vertical_edges,
    deblock_frame,
    filter_thresholds,
)
from repro.codec.encoder import Encoder, encode_batch_with_recon
from repro.codec.entropy import MAX_EG_PREFIX, EntropyDecoder
from repro.codec.intra import choose_intra_mode
from repro.codec.motion import ENCODER_RECTS, pad_reference
from repro.codec.neighbors import FrameMbState
from repro.codec.reference import (
    FrameMotionSearch,
    MacroblockSearch,
    encode_scalar,
)
from repro.codec.ratecontrol import activity_qp_offset, frame_activity_offsets
from repro.codec.syntax import _contexts
from repro.codec.transform import (
    blockify,
    forward_transform,
    quantize,
    reconstruct_residual,
    reconstruct_residuals_many,
    transform_and_quantize,
    transform_and_quantize_many,
)
from repro.codec.types import (
    FrameType,
    MacroblockMode,
    MotionVector,
    PredictionDirection,
)
from repro.video.frame import VideoSequence

pixels = st.integers(min_value=0, max_value=255)


def frames(min_mbs: int = 1, max_mbs: int = 3):
    """Strategy: uint8 frames whose sides are 16 * [min_mbs, max_mbs]."""
    return st.integers(min_mbs, max_mbs).flatmap(
        lambda mb_rows: st.integers(min_mbs, max_mbs).flatmap(
            lambda mb_cols: npst.arrays(
                np.uint8, (16 * mb_rows, 16 * mb_cols),
                elements=pixels,
            )
        )
    )


# ----------------------------------------------------------------------
# Motion search
# ----------------------------------------------------------------------

class TestMotionSearchEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(data=st.data(), search_range=st.integers(1, 4),
           lam=st.floats(0.0, 8.0, allow_nan=False))
    def test_frame_search_matches_macroblock_oracle(self, data,
                                                    search_range, lam):
        current = data.draw(frames(max_mbs=2))
        reference = data.draw(
            npst.arrays(np.uint8, current.shape, elements=pixels))
        padded = pad_reference(reference, search_range)
        frame_search = FrameMotionSearch(current, padded, search_range,
                                         search_range, lam)
        mb_rows = current.shape[0] // 16
        mb_cols = current.shape[1] // 16
        for mb_row in range(mb_rows):
            for mb_col in range(mb_cols):
                oracle = MacroblockSearch(
                    current[16 * mb_row:16 * mb_row + 16,
                            16 * mb_col:16 * mb_col + 16],
                    padded, search_range, 16 * mb_row, 16 * mb_col,
                    search_range)
                table = frame_search.mb_table(mb_row, mb_col)
                for rect in ENCODER_RECTS:
                    want_mv, want_sad = oracle.best_mv(rect, lam)
                    got_mv, got_sad = table[
                        FrameMotionSearch.rect_column(rect)]
                    assert got_mv == want_mv
                    assert got_sad == want_sad

    @settings(max_examples=15, deadline=None)
    @given(data=st.data(), count=st.integers(1, 4),
           search_range=st.integers(1, 8),
           lam=st.sampled_from([0.0, 0.5, 2.0, 3.7]))
    def test_batched_search_matches_per_clip_search(self, data, count,
                                                    search_range, lam):
        current = data.draw(frames(max_mbs=3))
        currents = np.stack([current] + [
            data.draw(npst.arrays(np.uint8, current.shape,
                                  elements=pixels))
            for _ in range(count - 1)])
        padded = np.stack([
            pad_reference(data.draw(npst.arrays(
                np.uint8, current.shape, elements=pixels)), search_range)
            for _ in range(count)])
        # Bytes one clip needs per chunk: the int16 diffs of a tile
        # row, or the float64 rect costs of an MB row.
        candidates = (2 * search_range + 1) ** 2
        per_clip = max(2 * 4 * candidates * current.shape[1],
                       8 * (current.shape[1] // 16) * len(ENCODER_RECTS)
                       * candidates)
        # One clip and one tile row per chunk; two clips per chunk (a
        # ragged last chunk at odd counts); every clip and a whole MB
        # row at once. The chunking must not change a single winner.
        for budget in (1, 2 * per_clip, 1 << 30):
            with mock.patch.object(batch_module, "_SEARCH_BUDGET_BYTES",
                                   budget):
                batched = BatchFrameMotionSearch(
                    currents, padded, search_range, search_range, lam)
            for clip in range(count):
                single = FrameMotionSearch(currents[clip], padded[clip],
                                           search_range, search_range,
                                           lam)
                np.testing.assert_array_equal(batched._best_sad[clip],
                                              single._best_sad)
                np.testing.assert_array_equal(batched._best_flat[clip],
                                              single._best_flat)

    @settings(max_examples=10, deadline=None)
    @given(data=st.data(), search_range=st.integers(1, 2),
           lam=st.floats(0.0, 4.0, allow_nan=False))
    def test_macroblock_oracle_matches_exhaustive_loops(self, data,
                                                        search_range, lam):
        current = data.draw(
            npst.arrays(np.uint8, (16, 16), elements=pixels))
        reference = data.draw(
            npst.arrays(np.uint8, (16, 16), elements=pixels))
        padded = pad_reference(reference, search_range)
        oracle = MacroblockSearch(current, padded, search_range, 0, 0,
                                  search_range)
        for rect in ((0, 0, 16, 16), (0, 0, 8, 8), (8, 4, 4, 8)):
            want_mv, want_sad = ref.best_mv_scalar(
                current, padded, search_range, 0, 0, rect, search_range,
                lam)
            got_mv, got_sad = oracle.best_mv(rect, lam)
            assert got_mv == want_mv
            assert got_sad == want_sad


# ----------------------------------------------------------------------
# Intra mode selection
# ----------------------------------------------------------------------

class TestIntraEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), min_mb_row=st.integers(0, 1))
    def test_batched_mode_choice_matches_scalar_scan(self, data,
                                                     min_mb_row):
        recon = data.draw(frames(min_mbs=2, max_mbs=2))
        mb_rows = recon.shape[0] // 16
        mb_cols = recon.shape[1] // 16
        source = data.draw(
            npst.arrays(np.uint8, (16, 16), elements=pixels))
        mb_row = data.draw(st.integers(0, mb_rows - 1))
        mb_col = data.draw(st.integers(0, mb_cols - 1))
        want = ref.choose_intra_mode_scalar(source, recon, mb_row, mb_col,
                                            min_mb_row)
        got = choose_intra_mode(source, recon, mb_row, mb_col, min_mb_row)
        assert got[0] == want[0]
        assert got[2] == want[2]
        np.testing.assert_array_equal(got[1], want[1])


# ----------------------------------------------------------------------
# Transform / quantization
# ----------------------------------------------------------------------

class TestTransformEquivalence:
    @settings(max_examples=50, deadline=None)
    @given(block=npst.arrays(np.int32, (4, 4),
                             elements=st.integers(-255, 255)),
           qp=st.integers(0, 51))
    def test_forward_and_quantize_match_loops(self, block, qp):
        batched = quantize(forward_transform(block[np.newaxis]), qp)[0]
        scalar = ref.quantize_scalar(ref.forward_transform_scalar(block),
                                     qp)
        np.testing.assert_array_equal(batched, scalar)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), count=st.integers(1, 8))
    def test_many_levels_match_per_macroblock_path(self, data, count):
        residuals = data.draw(npst.arrays(
            np.int32, (count, 16, 16), elements=st.integers(-255, 255)))
        # Saturated blocks: every coefficient at its extreme magnitude.
        for index in data.draw(st.sets(st.integers(0, count - 1))):
            signs = data.draw(npst.arrays(
                np.int32, (16, 16), elements=st.sampled_from([-1, 1])))
            residuals[index] = 255 * (
                signs if data.draw(st.booleans())
                else signs[0, 0] * np.ones((16, 16), dtype=np.int32))
        qps = data.draw(st.lists(st.integers(0, 51), min_size=count,
                                 max_size=count))
        batched = transform_and_quantize_many(residuals, qps)
        assert batched.dtype == np.int32
        for index in range(count):
            np.testing.assert_array_equal(
                batched[index],
                transform_and_quantize(residuals[index], qps[index]))
            blocks = blockify(residuals[index])
            for block in range(16):
                np.testing.assert_array_equal(
                    batched[index, block],
                    ref.quantize_scalar(
                        ref.forward_transform_scalar(blocks[block]),
                        qps[index]))

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), count=st.integers(1, 4))
    def test_many_residuals_match_per_macroblock_path(self, data, count):
        stacks = data.draw(npst.arrays(
            np.int32, (count, 16, 4, 4), elements=st.integers(-64, 64)))
        qps = data.draw(st.lists(st.integers(0, 51), min_size=count,
                                 max_size=count))
        batched = reconstruct_residuals_many(stacks, qps)
        for index in range(count):
            expected = reconstruct_residual(stacks[index], qps[index])
            np.testing.assert_array_equal(batched[index], expected)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), count=st.integers(1, 5))
    def test_sparse_blocks_match_dense_einsum(self, data, count):
        stacks = data.draw(npst.arrays(
            np.int32, (count, 16, 4, 4), elements=st.integers(-64, 64)))
        coded = data.draw(npst.arrays(np.bool_, (count, 16)))
        stacks[~coded] = 0
        stacks[data.draw(st.integers(0, count - 1))] = 0
        qps = data.draw(st.lists(st.integers(0, 51), min_size=count,
                                 max_size=count))
        got = reconstruct_residuals_many(stacks, qps)
        want = ref.reconstruct_residuals_many_dense(stacks, qps)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    def test_all_zero_stack_reconstructs_to_zero(self):
        stacks = np.zeros((3, 16, 4, 4), dtype=np.int32)
        got = reconstruct_residuals_many(stacks, [0, 30, 51])
        want = ref.reconstruct_residuals_many_dense(stacks, [0, 30, 51])
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
        assert not got.any()

    @settings(max_examples=50, deadline=None)
    @given(levels=npst.arrays(np.int32, (4, 4),
                              elements=st.integers(-64, 64)),
           qp=st.integers(0, 51))
    def test_single_block_reconstruction_matches_loops(self, levels, qp):
        stacked = np.zeros((16, 4, 4), dtype=np.int32)
        stacked[0] = levels
        production = reconstruct_residual(stacked, qp)[:4, :4]
        scalar = ref.reconstruct_residual_block_scalar(levels, qp)
        np.testing.assert_array_equal(production, scalar)


# ----------------------------------------------------------------------
# Neighbor queries
# ----------------------------------------------------------------------

#: A cell of a random macroblock grid: None leaves it uncoded.
grid_cells = st.tuples(
    st.sampled_from([None, MacroblockMode.SKIP, MacroblockMode.INTER,
                     MacroblockMode.INTRA]),
    st.integers(-20, 20), st.integers(-20, 20), st.integers(0, 24))


class TestNeighborQueryEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), rows=st.integers(1, 4), cols=st.integers(1, 5))
    def test_queries_match_reference_rules(self, data, rows, cols):
        cells = data.draw(st.lists(grid_cells, min_size=rows * cols,
                                   max_size=rows * cols))
        state = FrameMbState(rows, cols)
        for index, (mode, dy, dx, nnz) in enumerate(cells):
            if mode is not None:
                state.record(index // cols, index % cols, mode,
                             MotionVector(dy, dx), 26, 0, nnz)
        # Slice starts inside the grid: rows above it are unavailable.
        min_mb_row = data.draw(st.integers(0, rows - 1))
        queries = (
            (FrameMbState.predict_mv, ref.predict_mv_reference),
            (FrameMbState.skip_context, ref.skip_context_reference),
            (FrameMbState.intra_context, ref.intra_context_reference),
            (FrameMbState.partition_context,
             ref.partition_context_reference),
            (FrameMbState.mvd_context, ref.mvd_context_reference),
            (FrameMbState.nnz_context, ref.nnz_context_reference),
        )
        for mb_row in range(min_mb_row, rows):
            for mb_col in range(cols):
                for lean, reference in queries:
                    assert (lean(state, mb_row, mb_col, min_mb_row)
                            == reference(state, mb_row, mb_col,
                                         min_mb_row)), lean.__name__


# ----------------------------------------------------------------------
# Deblocking
# ----------------------------------------------------------------------

class TestDeblockEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), qp=st.integers(16, 51))
    def test_vectorized_edges_match_pixel_loops(self, data, qp):
        frame = data.draw(frames(max_mbs=2))
        alpha, beta, clip_limit = filter_thresholds(qp)
        if alpha == 0:
            return
        vectorized = frame.astype(np.int16)
        _filter_vertical_edges(vectorized, alpha, beta, clip_limit)
        scalar = frame.astype(np.int16)
        ref.filter_vertical_edges_scalar(scalar, alpha, beta, clip_limit)
        np.testing.assert_array_equal(vectorized, scalar)

    @settings(max_examples=15, deadline=None)
    @given(data=st.data(), qp=st.integers(0, 51))
    def test_full_filter_matches_transposed_scalar_sweeps(self, data, qp):
        frame = data.draw(frames(max_mbs=2))
        got = deblock_frame(frame, qp)
        alpha, beta, clip_limit = filter_thresholds(qp)
        if alpha == 0:
            np.testing.assert_array_equal(got, frame)
            return
        working = frame.astype(np.int16)
        ref.filter_vertical_edges_scalar(working, alpha, beta, clip_limit)
        working = working.T.copy()
        ref.filter_vertical_edges_scalar(working, alpha, beta, clip_limit)
        np.testing.assert_array_equal(got, working.T.astype(np.uint8))


# ----------------------------------------------------------------------
# Entropy bulk paths
# ----------------------------------------------------------------------

bit_runs = st.lists(
    st.integers(0, 24).flatmap(
        lambda count: st.tuples(
            st.integers(0, (1 << count) - 1 if count else 0),
            st.just(count))),
    min_size=1, max_size=16)


class TestBulkBypassEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(runs=bit_runs)
    def test_cabac_bulk_bypass_roundtrip_matches_bitwise(self, runs):
        bulk = CabacEncoder(num_contexts=4)
        bitwise = CabacEncoder(num_contexts=4)
        for value, count in runs:
            bulk.encode_bypass_bits(value, count)
            ref.encode_bypass_bits_scalar(bitwise, value, count)
        payload = bulk.finish()
        assert payload == bitwise.finish()
        bulk_dec = CabacDecoder(payload, num_contexts=4)
        bit_dec = CabacDecoder(payload, num_contexts=4)
        for value, count in runs:
            assert bulk_dec.decode_bypass_bits(count) == value
            assert ref.decode_bypass_bits_scalar(bit_dec, count) == value

    @settings(max_examples=40, deadline=None)
    @given(runs=bit_runs)
    def test_cavlc_bulk_bypass_roundtrip_matches_bitwise(self, runs):
        bulk = CavlcEncoder()
        bitwise = CavlcEncoder()
        for value, count in runs:
            bulk.encode_bypass_bits(value, count)
            ref.encode_bypass_bits_scalar(bitwise, value, count)
        payload = bulk.finish()
        assert payload == bitwise.finish()
        bulk_dec = CavlcDecoder(payload)
        bit_dec = CavlcDecoder(payload)
        for value, count in runs:
            assert bulk_dec.decode_bypass_bits(count) == value
            assert ref.decode_bypass_bits_scalar(bit_dec, count) == value

    @settings(max_examples=40, deadline=None)
    @given(runs=bit_runs, tail=st.integers(0, 64))
    def test_bitstream_bulk_io_matches_bitwise(self, runs, tail):
        bulk = BitWriter()
        bitwise = BitWriter()
        for value, count in runs:
            bulk.write_bits(value, count)
            ref.write_bits_scalar(bitwise, value, count)
        assert bulk.bit_length == bitwise.bit_length
        payload = bulk.getvalue()
        assert payload == bitwise.getvalue()
        # Reads past the end must keep yielding zeros, bulk or not.
        bulk_reader = BitReader(payload)
        bit_reader = BitReader(payload)
        for value, count in runs:
            assert bulk_reader.read_bits(count) == value
            assert ref.read_bits_scalar(bit_reader, count) == value
        assert (bulk_reader.read_bits(tail)
                == ref.read_bits_scalar(bit_reader, tail))
        assert bulk_reader.bit_position == bit_reader.bit_position


# ----------------------------------------------------------------------
# Fused residual decode
# ----------------------------------------------------------------------

RESIDUAL = _contexts(DEFAULT_CONTEXT_MODEL).residual
NUM_CONTEXTS = DEFAULT_CONTEXT_MODEL.total_contexts

#: A zigzag coefficient: mostly zero, some small, a few past the level
#: group's truncated-unary cap (Exp-Golomb suffix).
coefficient = st.one_of(st.just(0), st.just(0), st.just(0),
                        st.integers(-9, 9), st.integers(-4000, 4000))

#: One macroblock's residual: cbp flags, 16 zigzag vectors, nnz variant.
macroblock_residuals = st.tuples(
    st.tuples(*[st.booleans()] * 4),
    st.lists(st.lists(coefficient, min_size=16, max_size=16),
             min_size=16, max_size=16),
    st.integers(0, 2))


def _encode_residuals(macroblocks) -> bytes:
    """Symbol-by-symbol encode of the residual grammar."""
    encoder = CabacEncoder(NUM_CONTEXTS)
    for cbp, vectors, nnz_variant in macroblocks:
        for quadrant in range(4):
            encoder.encode_flag(cbp[quadrant], RESIDUAL.cbp, quadrant)
        for quadrant in range(4):
            if not cbp[quadrant]:
                continue
            for offset in RESIDUAL.block_offsets[quadrant]:
                vector = vectors[offset >> 4]
                nonzero = 16 - vector.count(0)
                encoder.encode_uint(nonzero, RESIDUAL.nnz, nnz_variant)
                found = 0
                for position, value in enumerate(vector):
                    if found == nonzero:
                        break
                    if 16 - position != nonzero - found:
                        encoder.encode_flag(value != 0, RESIDUAL.sig,
                                            position)
                    if value:
                        encoder.encode_uint(
                            abs(value) - 1, RESIDUAL.level,
                            RESIDUAL.level_buckets[position])
                        encoder.encode_bypass(1 if value < 0 else 0)
                        found += 1
    return encoder.finish()


def _decoder_state(decoder) -> tuple:
    return (decoder.bits_consumed, decoder._range, decoder._code,
            decoder._pos, list(decoder._probs))


def _assert_fused_matches_generic(payload: bytes, nnz_variants,
                                  fused=None) -> list:
    """Decode ``payload`` macroblock by macroblock both ways; the
    outputs and the whole coder state must agree after each one."""
    fused = fused or CabacDecoder(payload, NUM_CONTEXTS)
    generic = CabacDecoder(payload, NUM_CONTEXTS)
    decoded = []
    for nnz_variant in nnz_variants:
        got = fused.decode_residual(RESIDUAL, nnz_variant)
        want = EntropyDecoder.decode_residual(generic, RESIDUAL,
                                              nnz_variant)
        assert got == want
        assert _decoder_state(fused) == _decoder_state(generic)
        decoded.append(got)
    return decoded


class _Eg0Spy(CabacDecoder):
    """Records every Exp-Golomb suffix value the fused path decodes."""

    def __init__(self, data, num_contexts):
        super().__init__(data, num_contexts)
        self.eg0_values = []

    def _decode_eg0_bypass(self):
        value = super()._decode_eg0_bypass()
        self.eg0_values.append(value)
        return value


class TestFusedResidualEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(macroblocks=st.lists(macroblock_residuals, min_size=1,
                                max_size=3))
    def test_clean_payload_matches_generic_and_roundtrips(self,
                                                          macroblocks):
        payload = _encode_residuals(macroblocks)
        decoded = _assert_fused_matches_generic(
            payload, [variant for _, _, variant in macroblocks])
        for (cbp, vectors, _), (got_cbp, positions, levels) in zip(
                macroblocks, decoded):
            assert got_cbp == cbp
            dense = [[0] * 16 for _ in range(16)]
            for position, level in zip(positions, levels):
                dense[position >> 4][position & 15] = level
            want = [vectors[index] if cbp[quadrant] else [0] * 16
                    for index, quadrant in enumerate(
                        (0, 0, 1, 1, 0, 0, 1, 1, 2, 2, 3, 3, 2, 2, 3, 3))]
            assert dense == want

    @settings(max_examples=40, deadline=None)
    @given(macroblocks=st.lists(macroblock_residuals, min_size=1,
                                max_size=2),
           data=st.data())
    def test_corrupted_and_truncated_payloads_match_generic(
            self, macroblocks, data):
        payload = bytearray(_encode_residuals(macroblocks))
        for bit in data.draw(st.lists(
                st.integers(0, 8 * len(payload) - 1), max_size=4)):
            payload[bit // 8] ^= 1 << (bit % 8)
        cut = data.draw(st.integers(0, len(payload)))
        variants = data.draw(st.lists(st.integers(0, 2), min_size=1,
                                      max_size=6))
        _assert_fused_matches_generic(bytes(payload[:cut]), variants)

    @settings(max_examples=40, deadline=None)
    @given(payload=st.binary(max_size=48),
           variants=st.lists(st.integers(0, 2), min_size=1, max_size=6))
    def test_random_payloads_match_generic(self, payload, variants):
        _assert_fused_matches_generic(payload, variants)

    @pytest.mark.parametrize("length", [0, 6, 40, 400])
    def test_saturated_payload_hits_eg_prefix_cap(self, length):
        # All-ones bytes keep the code register above every bound: the
        # nnz and level prefixes run into MAX_EG_PREFIX, and the short
        # payloads are read far past their end.
        payload = b"\xff" * length
        spy = _Eg0Spy(payload, NUM_CONTEXTS)
        _assert_fused_matches_generic(payload, [0, 1, 2, 2], fused=spy)
        if length:
            assert max(spy.eg0_values) >= (1 << MAX_EG_PREFIX) - 1


# ----------------------------------------------------------------------
# Encoder-side batched helpers
# ----------------------------------------------------------------------

class TestEncoderHelperEquivalence:
    @settings(max_examples=50, deadline=None)
    @given(coefficients=npst.arrays(np.int32, (16, 4, 4),
                                    elements=st.integers(-3, 3)))
    def test_coded_block_pattern_matches_loops(self, coefficients):
        got = batch_module._coded_block_patterns_many(coefficients[None])
        assert tuple(got[0].tolist()) == ref.coded_block_pattern_scalar(
            coefficients)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_frame_activity_offsets_match_per_macroblock_var(self, data):
        frame = data.draw(frames(max_mbs=3))
        offsets = frame_activity_offsets(frame)
        mb_rows = frame.shape[0] // 16
        mb_cols = frame.shape[1] // 16
        for mb_row in range(mb_rows):
            for mb_col in range(mb_cols):
                mb = frame[16 * mb_row:16 * mb_row + 16,
                           16 * mb_col:16 * mb_col + 16]
                assert offsets[mb_row, mb_col] == activity_qp_offset(mb)


# ----------------------------------------------------------------------
# Whole-pipeline batching: the encoder against the reference encoder
# ----------------------------------------------------------------------

def clip_stacks(count: int, min_frames: int = 2, max_frames: int = 5):
    """Strategy: ``count`` same-geometry uint8 clips as one array."""
    return st.tuples(
        st.integers(1, 2), st.integers(1, 2),
        st.integers(min_frames, max_frames),
    ).flatmap(
        lambda dims: npst.arrays(
            np.uint8,
            (count, dims[2], 16 * dims[0], 16 * dims[1]),
            elements=pixels,
        )
    )


def _texture(seed: int, height: int, width: int) -> np.ndarray:
    """Uniform noise: every displacement matches somewhere else worse,
    so the motion search locks onto the true shift."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(height, width), dtype=np.uint8)


def _coded_bframe_decisions(videos, config):
    """Batch-encode ``videos`` (asserting each stream equals the scalar
    reference encoder's) and return every B-frame macroblock decision
    coded."""
    with mock.patch.object(encoder_module, "encode_macroblock",
                           wraps=encoder_module.encode_macroblock) as spy:
        encodeds, recons = encode_batch_with_recon(videos, config)
    for video, encoded in zip(videos, encodeds):
        assert encoded.serialize() == encode_scalar(
            video, config).serialize()
    decisions = [call.args[3] for call in spy.call_args_list
                 if call.args[4] == FrameType.B]
    assert decisions
    return decisions, recons


def _intra_positions(frame_trace) -> set:
    """MB indices of a frame whose pixels come from that frame alone
    (intra prediction), read off the trace's dependencies."""
    return {mb.mb_index for mb in frame_trace.macroblocks
            if all(dep.source[0] == frame_trace.coded_index
                   for dep in mb.dependencies)}


class TestBatchEncoderEquivalence:
    """The encoder's contract is bit-for-bit equality with the
    per-macroblock reference :func:`encode_scalar`: same streams, same
    traces (``serialize`` does not cover them, so they are compared on
    their own) and the same reconstruction the decoder would produce
    from those streams."""

    @settings(max_examples=10, deadline=None)
    @given(data=st.data(), crf=st.integers(18, 42), gop=st.integers(2, 4),
           coder=st.sampled_from(list(EntropyCoder)))
    def test_batched_streams_and_recon_match_per_clip(self, data, crf,
                                                      gop, coder):
        count = data.draw(st.integers(1, 3))
        stack = data.draw(clip_stacks(count))
        bframes = data.draw(st.integers(0, min(2, gop - 1)))
        slices = data.draw(st.integers(1, stack.shape[2] // 16))
        videos = [VideoSequence.from_array(clip) for clip in stack]
        config = EncoderConfig(crf=crf, gop_size=gop, bframes=bframes,
                               slices=slices, entropy_coder=coder)
        encodeds, recons = encode_batch_with_recon(videos, config)
        for video, encoded, recon in zip(videos, encodeds, recons):
            want = encode_scalar(video, config)
            assert encoded.serialize() == want.serialize()
            assert encoded.trace == want.trace
            decoded = Decoder().decode(want).to_array()
            np.testing.assert_array_equal(recon, decoded)

    def test_mixed_geometries_keep_input_order(self):
        config = EncoderConfig(crf=26, gop_size=4, bframes=1)
        videos = [VideoSequence.from_array(np.stack(
            [_texture(seed + t, 16 * rows, 32) for t in range(3)]))
            for seed, rows in ((1, 2), (2, 1), (3, 2))]
        encodeds, recons = encode_batch_with_recon(videos, config)
        for video, encoded, recon in zip(videos, encodeds, recons):
            want = encode_scalar(video, config)
            assert encoded.serialize() == want.serialize()
            assert encoded.trace == want.trace
            np.testing.assert_array_equal(
                recon, Decoder().decode(want).to_array())

    def test_scene_cut_goes_intra_beside_a_panning_partner(self):
        # I0 P2 B1. The cut clip jumps to a flat scene at the B-frame
        # and to another at the P-frame, so no anchor predicts either
        # frame: its MBs go intra, most of them uncoded (a flat
        # neighbor predicts a flat block exactly). The partner pans one
        # texture, so the same positions stay inter — one batch mixes
        # frame-level inter coding with per-MB intra replacements.
        config = EncoderConfig(crf=28, gop_size=4, bframes=1)
        texture = _texture(7, 56, 72)
        pan = np.stack([texture[4:52, 4 + 2 * t:68 + 2 * t]
                        for t in range(3)])
        cut = np.stack([_texture(8, 48, 64),
                        np.full((48, 64), 200, dtype=np.uint8),
                        np.full((48, 64), 60, dtype=np.uint8)])
        videos = [VideoSequence.from_array(cut),
                  VideoSequence.from_array(pan)]
        with mock.patch.object(encoder_module, "encode_macroblock",
                               wraps=encoder_module.encode_macroblock) as spy:
            encodeds, recons = encode_batch_with_recon(videos, config)
        for video, encoded, recon in zip(videos, encodeds, recons):
            want = encode_scalar(video, config)
            assert encoded.serialize() == want.serialize()
            assert encoded.trace == want.trace
            np.testing.assert_array_equal(
                recon, Decoder().decode(want).to_array())
        cut_trace, pan_trace = (encoded.trace for encoded in encodeds)
        for frame_type in (FrameType.P, FrameType.B):
            cut_frame, pan_frame = (
                next(frame for frame in trace.frames
                     if frame.frame_type == frame_type)
                for trace in (cut_trace, pan_trace))
            all_mbs = set(range(len(cut_frame.macroblocks)))
            assert (_intra_positions(cut_frame)
                    & (all_mbs - _intra_positions(pan_frame))), frame_type
        uncoded_intra = [
            call.args[3] for call in spy.call_args_list
            if call.args[4] != FrameType.I
            and call.args[3].mode == MacroblockMode.INTRA
            and not any(call.args[3].cbp)]
        assert uncoded_intra

    @pytest.mark.parametrize("bi_penalty", [48.0, 0.0])
    def test_identical_anchors_keep_forward(self, bi_penalty):
        # I0 P2 B1 with equal anchors: every rect's forward and backward
        # candidates tie, and at bi_penalty 0 so does their average.
        # The scalar scan keeps forward on every tie.
        config = EncoderConfig(crf=28, gop_size=4, bframes=1,
                               deblocking=False, bi_penalty=bi_penalty)
        videos = []
        for seed in (1, 2):
            texture = _texture(seed, 56, 72)
            anchor = texture[4:52, 4:68]
            videos.append(VideoSequence.from_array(
                np.stack([anchor, texture[2:50, 5:69], anchor])))
        decisions, recons = _coded_bframe_decisions(videos, config)
        for recon in recons:
            np.testing.assert_array_equal(recon[0], recon[2])
        inter = [d for d in decisions if d.mode != MacroblockMode.INTRA]
        assert inter
        for decision in inter:
            for partition in decision.partitions:
                assert partition.direction == PredictionDirection.FORWARD
                assert partition.mv_backward is None

    def test_averaged_anchors_pick_bidirectional(self):
        # The B-frame is the rounded average of its two anchors, each
        # displaced differently: the bidirectional candidate (forward
        # mv, backward mv_backward) beats both single directions.
        config = EncoderConfig(crf=28, gop_size=4, bframes=1)
        videos = []
        for seed in (1, 2):
            first = _texture(seed, 56, 72)
            last = _texture(seed + 100, 56, 72)
            middle = (first[3:51, 6:70].astype(np.int32)
                      + last[6:54, 2:66] + 1) >> 1
            videos.append(VideoSequence.from_array(np.stack(
                [first[4:52, 4:68], middle.astype(np.uint8),
                 last[4:52, 4:68]])))
        decisions, _recons = _coded_bframe_decisions(videos, config)
        for decision in decisions:
            assert decision.mode == MacroblockMode.INTER
            for partition in decision.partitions:
                assert (partition.direction
                        == PredictionDirection.BIDIRECTIONAL)
                assert partition.mv == MotionVector(-1, 2)
                assert partition.mv_backward == MotionVector(2, -2)

    @settings(max_examples=6, deadline=None)
    @given(data=st.data(), crf=st.integers(20, 40), gop=st.integers(2, 4))
    def test_gop_unit_assembly_is_byte_identical(self, data, crf, gop):
        stack = data.draw(clip_stacks(1, min_frames=3, max_frames=9))
        video = VideoSequence.from_array(stack[0])
        config = EncoderConfig(crf=crf, gop_size=gop)
        whole = Encoder(config).encode(video).serialize()
        bounds = gop_unit_bounds(len(video), config)
        assert bounds[0][0] == 0 and bounds[-1][1] == len(video)
        units = [Encoder(config).encode(video.subsequence(start, stop))
                 for start, stop in bounds]
        stitched = assemble_gop_units(units, len(video))
        assert stitched.serialize() == whole
