"""Tests for macroblock syntax serialization.

The key contract — decode(encode(x)) == x with identical neighbor state
on both sides — is exercised over randomized decisions and both entropy
backends.
"""

import numpy as np
import pytest

from repro.codec import syntax
from repro.codec.cabac import CabacDecoder, CabacEncoder
from repro.codec.cavlc import CavlcDecoder, CavlcEncoder
from repro.codec.config import EncoderConfig
from repro.codec.contexts import DEFAULT_CONTEXT_MODEL
from repro.codec.encoder import Encoder
from repro.codec.neighbors import FrameMbState
from repro.codec.syntax import (
    encode_macroblock,
    finalize_macroblock,
    parse_macroblock,
    partition_rectangles,
    scatter_coefficients,
)
from repro.codec.types import (
    FrameType,
    InterPartition,
    IntraMode,
    MacroblockDecision,
    MacroblockMode,
    MotionVector,
    PartitionType,
    PredictionDirection,
    SubPartitionType,
)
from repro.video import SceneConfig, synthesize_scene

MODEL = DEFAULT_CONTEXT_MODEL
BACKENDS = [(CabacEncoder, CabacDecoder), (CavlcEncoder, CavlcDecoder)]


def _random_decision(rng, frame_type, pred_mv, prev_qp):
    mode_pick = rng.random()
    qp = int(np.clip(prev_qp + rng.integers(-2, 3), 0, 51))
    coefficients = rng.integers(-4, 5, (16, 4, 4)).astype(np.int32)
    # Sparsify: most coefficients are zero in practice.
    coefficients[rng.random((16, 4, 4)) < 0.8] = 0
    cbp = tuple(
        bool(np.any(coefficients[_quadrant_blocks(q)]))
        for q in range(4)
    )
    if frame_type != FrameType.I and mode_pick < 0.2:
        return MacroblockDecision(
            mode=MacroblockMode.SKIP, qp=prev_qp,
            partition_type=PartitionType.P16x16,
            partitions=[InterPartition(rect=(0, 0, 16, 16), mv=pred_mv)],
        )
    if frame_type == FrameType.I or mode_pick < 0.4:
        return MacroblockDecision(
            mode=MacroblockMode.INTRA, qp=qp,
            intra_mode=IntraMode(int(rng.integers(0, 4))),
            coefficients=coefficients, cbp=cbp,
        )
    ptype = PartitionType(int(rng.integers(0, 4)))
    sub_types = None
    if ptype == PartitionType.P8x8:
        sub_types = [SubPartitionType(int(rng.integers(0, 4)))
                     for _ in range(4)]
    partitions = []
    for rect in partition_rectangles(ptype, sub_types):
        direction = PredictionDirection.FORWARD
        mv_backward = None
        if frame_type == FrameType.B:
            direction = PredictionDirection(int(rng.integers(0, 3)))
            if direction == PredictionDirection.BIDIRECTIONAL:
                mv_backward = pred_mv + MotionVector(
                    int(rng.integers(-8, 9)), int(rng.integers(-8, 9)))
        partitions.append(InterPartition(
            rect=rect,
            mv=pred_mv + MotionVector(int(rng.integers(-8, 9)),
                                      int(rng.integers(-8, 9))),
            direction=direction,
            mv_backward=mv_backward,
        ))
    return MacroblockDecision(
        mode=MacroblockMode.INTER, qp=qp, partition_type=ptype,
        sub_types=sub_types, partitions=partitions,
        coefficients=coefficients, cbp=cbp,
    )


def _parse_dense(decoder, state, frame_type, row, col):
    """``parse_macroblock`` with the residual scattered into the
    decision's dense ``(16, 4, 4)`` coefficients (``None`` for a skip)."""
    decision, positions, levels = parse_macroblock(
        decoder, MODEL, state, frame_type, row, col, 0)
    if decision.mode != MacroblockMode.SKIP:
        decision.coefficients = scatter_coefficients(positions, levels, 1)[0]
    return decision


def _quadrant_blocks(quadrant):
    origins = ((0, 0), (0, 2), (2, 0), (2, 2))
    qy, qx = origins[quadrant]
    return [(qy + by) * 4 + (qx + bx) for by in range(2) for bx in range(2)]


def _decisions_equal(a, b):
    if a.mode != b.mode or a.qp != b.qp:
        return False
    if a.mode == MacroblockMode.INTRA:
        if a.intra_mode != b.intra_mode:
            return False
    elif a.mode == MacroblockMode.INTER:
        if a.partition_type != b.partition_type:
            return False
        if (a.sub_types or None) != (b.sub_types or None):
            return False
        for pa, pb in zip(a.partitions, b.partitions):
            if pa.rect != pb.rect or pa.mv != pb.mv \
                    or pa.direction != pb.direction \
                    or pa.mv_backward != pb.mv_backward:
                return False
    if a.mode != MacroblockMode.SKIP:
        if tuple(a.cbp) != tuple(b.cbp):
            return False
        coeff_a = a.coefficients if a.coefficients is not None else np.zeros(1)
        coeff_b = b.coefficients if b.coefficients is not None else np.zeros(1)
        # Compare only coded quadrants; uncoded ones decode as zero.
        for quadrant in range(4):
            if a.cbp[quadrant]:
                for index in _quadrant_blocks(quadrant):
                    if not np.array_equal(coeff_a[index], coeff_b[index]):
                        return False
    return True


class TestPartitionRectangles:
    def test_cover_macroblock_exactly(self):
        for ptype in PartitionType:
            sub_types = ([SubPartitionType.S4x4] * 4
                         if ptype == PartitionType.P8x8 else None)
            covered = np.zeros((16, 16), dtype=int)
            for oy, ox, h, w in partition_rectangles(ptype, sub_types):
                covered[oy:oy + h, ox:ox + w] += 1
            assert np.all(covered == 1)

    def test_p8x8_requires_subtypes(self):
        from repro.errors import EncoderError
        with pytest.raises(EncoderError):
            partition_rectangles(PartitionType.P8x8, None)

    def test_mixed_subtypes(self):
        rects = partition_rectangles(
            PartitionType.P8x8,
            [SubPartitionType.S8x8, SubPartitionType.S8x4,
             SubPartitionType.S4x8, SubPartitionType.S4x4])
        assert len(rects) == 1 + 2 + 2 + 4


@pytest.mark.parametrize("encoder_cls,decoder_cls", BACKENDS)
@pytest.mark.parametrize("frame_type",
                         [FrameType.I, FrameType.P, FrameType.B])
class TestMacroblockRoundTrip:
    def test_random_sequences(self, encoder_cls, decoder_cls, frame_type):
        rng = np.random.default_rng(99)
        rows, cols = 3, 4
        enc_state = FrameMbState(rows, cols)
        dec_state = FrameMbState(rows, cols)
        enc_state.start_slice(24)
        dec_state.start_slice(24)
        encoder = encoder_cls(MODEL.total_contexts)
        decisions = []
        for row in range(rows):
            for col in range(cols):
                pred = enc_state.predict_mv(row, col, 0)
                decision = _random_decision(rng, frame_type, pred,
                                            enc_state.prev_qp)
                decisions.append(decision)
                encode_macroblock(encoder, MODEL, enc_state, decision,
                                  frame_type, row, col, 0)
                finalize_macroblock(enc_state, decision, row, col)
        payload = encoder.finish()
        decoder = decoder_cls(payload, MODEL.total_contexts)
        index = 0
        for row in range(rows):
            for col in range(cols):
                decoded = _parse_dense(decoder, dec_state, frame_type,
                                       row, col)
                assert _decisions_equal(decisions[index], decoded), (
                    f"mismatch at MB ({row},{col}): "
                    f"{decisions[index]} vs {decoded}")
                finalize_macroblock(dec_state, decoded, row, col)
                index += 1
        # Neighbor state must agree bit for bit after the frame.
        assert np.array_equal(enc_state.modes, dec_state.modes)
        assert np.array_equal(enc_state.mvs, dec_state.mvs)
        assert np.array_equal(enc_state.nnz, dec_state.nnz)
        assert enc_state.prev_qp == dec_state.prev_qp


class TestCorruptionRobustness:
    @pytest.mark.parametrize("encoder_cls,decoder_cls", BACKENDS)
    def test_corrupted_stream_decodes_every_mb(self, encoder_cls,
                                               decoder_cls):
        rng = np.random.default_rng(7)
        rows, cols = 3, 4
        state = FrameMbState(rows, cols)
        state.start_slice(24)
        encoder = encoder_cls(MODEL.total_contexts)
        for row in range(rows):
            for col in range(cols):
                pred = state.predict_mv(row, col, 0)
                decision = _random_decision(rng, FrameType.P, pred,
                                            state.prev_qp)
                encode_macroblock(encoder, MODEL, state, decision,
                                  FrameType.P, row, col, 0)
                finalize_macroblock(state, decision, row, col)
        payload = bytearray(encoder.finish())
        for position in range(min(len(payload), 8)):
            corrupted = bytearray(payload)
            corrupted[position] ^= 0xA5
            dec_state = FrameMbState(rows, cols)
            dec_state.start_slice(24)
            decoder = decoder_cls(bytes(corrupted), MODEL.total_contexts)
            for row in range(rows):
                for col in range(cols):
                    decision = _parse_dense(decoder, dec_state,
                                            FrameType.P, row, col)
                    assert 0 <= decision.qp <= 51
                    finalize_macroblock(dec_state, decision, row, col)

    def test_i_frame_rejects_non_intra(self):
        from repro.errors import EncoderError
        encoder = CabacEncoder(MODEL.total_contexts)
        state = FrameMbState(2, 2)
        state.start_slice(24)
        decision = MacroblockDecision(
            mode=MacroblockMode.SKIP, qp=24,
            partitions=[InterPartition(rect=(0, 0, 16, 16),
                                       mv=MotionVector(0, 0))])
        with pytest.raises(EncoderError):
            encode_macroblock(encoder, MODEL, state, decision, FrameType.I,
                              0, 0, 0)


class TestBlockPlanCache:
    """The residual-plan memo is a bounded pure speedup: past its cap,
    blocks are planned on every use and never stored."""

    def test_capped_cache_keeps_streams_identical(self, monkeypatch):
        video = synthesize_scene(SceneConfig(width=48, height=32,
                                             num_frames=4, seed=5))
        config = EncoderConfig(crf=20, gop_size=4, bframes=1)
        monkeypatch.delattr(MODEL, "_block_plan_caches", raising=False)
        want = Encoder(config).encode(video).serialize()
        cap = 8
        assert max(len(c) for c in MODEL._block_plan_caches) > cap
        monkeypatch.setattr(syntax, "_PLAN_CACHE_LIMIT", cap)
        monkeypatch.delattr(MODEL, "_block_plan_caches")
        assert Encoder(config).encode(video).serialize() == want
        sizes = [len(c) for c in MODEL._block_plan_caches]
        assert max(sizes) == cap
        assert all(size <= cap for size in sizes)
