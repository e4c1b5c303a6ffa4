"""The video encoder.

Encodes raw luma video into an H.264-like bitstream with a closed
reconstruction loop (references are the *reconstructed* frames, exactly
what a decoder will see), while emitting the per-macroblock
:class:`~repro.codec.types.EncodingTrace` that VideoApp's dependency
analysis consumes: bit ranges and pixel-source dependencies.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import EncoderError
from ..obs import trace as obs_trace
from ..video.frame import MACROBLOCK_SIZE, VideoSequence
from .cabac import CabacEncoder
from .cavlc import CavlcEncoder
from .config import EncoderConfig, EntropyCoder
from .contexts import DEFAULT_CONTEXT_MODEL
from .deblock import deblock_frame
from .encoded import EncodedFrame, EncodedVideo, FrameHeader, VideoHeader
from .gop import FramePlan, plan_gop
from .intra import choose_intra_mode, intra_dependencies
from .motion import (
    FrameMotionSearch,
    compensate,
    pad_reference,
    reference_dependencies,
)
from .neighbors import FrameMbState
from .ratecontrol import frame_activity_offsets, frame_qp
from .reconstruct import ReferenceSet, build_prediction, reconstruct_macroblock
from .syntax import encode_macroblock, finalize_macroblock
from .transform import (
    MAX_QP,
    MIN_QP,
    reconstruct_residuals_many,
    transform_and_quantize,
)
from .types import (
    PARTITION_RECTS,
    QUADRANT_ORIGINS,
    SUBPARTITION_RECTS,
    DependencyRecord,
    EncodingTrace,
    FrameTrace,
    FrameType,
    InterPartition,
    MacroblockDecision,
    MacroblockMode,
    MacroblockTrace,
    PartitionType,
    PredictionDirection,
    SubPartitionType,
)


def slice_bands(mb_rows: int, slices: int) -> List[Tuple[int, int]]:
    """Split MB rows into ``slices`` horizontal bands [(start, end)...]."""
    if slices > mb_rows:
        raise EncoderError(
            f"cannot cut {mb_rows} MB rows into {slices} slices"
        )
    base = mb_rows // slices
    remainder = mb_rows % slices
    bands = []
    start = 0
    for index in range(slices):
        size = base + (1 if index < remainder else 0)
        bands.append((start, start + size))
        start += size
    return bands


class Encoder:
    """H.264-like encoder; see :class:`EncoderConfig` for knobs."""

    def __init__(self, config: Optional[EncoderConfig] = None) -> None:
        self.config = config or EncoderConfig()
        self._model = DEFAULT_CONTEXT_MODEL
        self._pad = self.config.search_range

    # -- public API --------------------------------------------------------

    def encode(self, video: VideoSequence) -> EncodedVideo:
        """Encode ``video``; the result carries the VideoApp trace."""
        if len(video) == 0:
            raise EncoderError("cannot encode an empty sequence")
        with obs_trace.span("encode", frames=len(video),
                            entropy=self.config.entropy_coder.name):
            return self._encode_sequence(video)

    def _encode_sequence(self, video: VideoSequence) -> EncodedVideo:
        config = self.config
        plans = plan_gop(len(video), config.gop_size, config.bframes)
        coded_of = {plan.display_index: plan.coded_index for plan in plans}
        mb_rows = video.mb_rows
        mb_cols = video.mb_cols
        if config.slices > mb_rows:
            raise EncoderError(
                f"slices ({config.slices}) exceed MB rows ({mb_rows})"
            )

        trace = EncodingTrace(mb_rows=mb_rows, mb_cols=mb_cols)
        reconstructed: Dict[int, np.ndarray] = {}
        padded: Dict[int, np.ndarray] = {}
        frames: List[EncodedFrame] = []
        for plan in plans:
            frame, frame_trace, recon = self._encode_frame(
                plan, video, padded, coded_of)
            frames.append(frame)
            trace.frames.append(frame_trace)
            reconstructed[plan.display_index] = recon
            padded[plan.display_index] = pad_reference(recon, self._pad)

        header = VideoHeader(
            width=video.width, height=video.height, num_frames=len(video),
            gop_size=config.gop_size, bframes=config.bframes,
            slices=config.slices, entropy_coder=config.entropy_coder,
            crf=config.crf, search_range=config.search_range, fps=video.fps,
            deblocking=config.deblocking,
        )
        return EncodedVideo(header=header, frames=frames, trace=trace)

    def reconstruct(self, video: VideoSequence) -> VideoSequence:
        """The encoder's own lossy reconstruction (decode of a clean
        stream), used as the paper's quality baseline ("coded video
        without bit flips")."""
        from .decoder import Decoder  # local import to avoid a cycle

        return Decoder().decode(self.encode(video))

    # -- per-frame encoding --------------------------------------------------

    def _new_entropy_encoder(self):
        if self.config.entropy_coder == EntropyCoder.CABAC:
            return CabacEncoder(self._model.total_contexts)
        return CavlcEncoder(self._model.total_contexts)

    def _references(self, plan: FramePlan,
                    padded: Dict[int, np.ndarray]) -> ReferenceSet:
        references: ReferenceSet = {}
        if plan.ref_forward is not None:
            references[PredictionDirection.FORWARD] = padded[plan.ref_forward]
        if plan.ref_backward is not None:
            references[PredictionDirection.BACKWARD] = padded[plan.ref_backward]
        return references

    def _encode_frame(self, plan: FramePlan, video: VideoSequence,
                      padded: Dict[int, np.ndarray],
                      coded_of: Dict[int, int]
                      ) -> Tuple[EncodedFrame, FrameTrace, np.ndarray]:
        with obs_trace.span("encode.frame", coded_index=plan.coded_index,
                            frame_type=plan.frame_type.name):
            stages = obs_trace.stage_clock()
            result = self._encode_frame_body(plan, video, padded, coded_of,
                                             stages)
            stages.emit()
            return result

    def _encode_frame_body(self, plan: FramePlan, video: VideoSequence,
                           padded: Dict[int, np.ndarray],
                           coded_of: Dict[int, int], stages
                           ) -> Tuple[EncodedFrame, FrameTrace, np.ndarray]:
        config = self.config
        source = video[plan.display_index]
        mb_rows, mb_cols = video.mb_rows, video.mb_cols
        base_qp = frame_qp(config.crf, plan.frame_type)
        references = self._references(plan, padded)
        ref_coded = {
            PredictionDirection.FORWARD:
                coded_of.get(plan.ref_forward, -1),
            PredictionDirection.BACKWARD:
                coded_of.get(plan.ref_backward, -1),
        }
        state = FrameMbState(mb_rows, mb_cols)
        qp_offsets = (frame_activity_offsets(source)
                      if config.adaptive_qp else None)
        searches: Dict[PredictionDirection, FrameMotionSearch] = {}
        if plan.frame_type != FrameType.I:
            # One batched full-search pass per reference serves every
            # macroblock and partition rectangle of this frame.
            with stages.time("encode.search"):
                searches = {
                    direction: FrameMotionSearch(
                        source, reference, self._pad, config.search_range,
                        config.mv_cost_lambda)
                    for direction, reference in references.items()
                }
        recon = np.zeros_like(source)
        slice_payloads: List[bytes] = []
        slice_starts: List[int] = []
        mb_traces: List[MacroblockTrace] = []
        offset_bits = 0
        for start_row, end_row in slice_bands(mb_rows, config.slices):
            encoder = self._new_entropy_encoder()
            state.start_slice(base_qp)
            slice_starts.append(start_row * mb_cols)
            for mb_row in range(start_row, end_row):
                for mb_col in range(mb_cols):
                    bit_start = offset_bits + encoder.bits_emitted
                    decision, deps = self._encode_macroblock(
                        encoder, plan, source, recon, references, ref_coded,
                        state, base_qp, mb_row, mb_col, start_row, stages,
                        searches, qp_offsets)
                    bit_end = offset_bits + encoder.bits_emitted
                    mb_traces.append(MacroblockTrace(
                        frame_coded_index=plan.coded_index,
                        mb_index=mb_row * mb_cols + mb_col,
                        bit_start=bit_start,
                        bit_end=bit_end,
                        dependencies=deps,
                    ))
            with stages.time("encode.entropy"):
                payload = encoder.finish()
            slice_payloads.append(payload)
            offset_bits += 8 * len(payload)

        if config.deblocking:
            # In-loop filter: the deblocked frame is what references and
            # viewers see; intra prediction above used unfiltered pixels.
            with stages.time("encode.deblock"):
                recon = deblock_frame(recon, base_qp)

        full_payload = b"".join(slice_payloads)
        header = FrameHeader(
            coded_index=plan.coded_index,
            display_index=plan.display_index,
            frame_type=plan.frame_type,
            base_qp=base_qp,
            ref_forward=plan.ref_forward,
            ref_backward=plan.ref_backward,
            slice_byte_lengths=[len(p) for p in slice_payloads],
        )
        frame_trace = FrameTrace(
            coded_index=plan.coded_index,
            display_index=plan.display_index,
            frame_type=plan.frame_type,
            payload_bits=8 * len(full_payload),
            slice_starts=slice_starts,
            macroblocks=mb_traces,
        )
        return (EncodedFrame(header=header, payload=full_payload),
                frame_trace, recon)

    # -- per-macroblock encoding ----------------------------------------------

    def _encode_macroblock(self, encoder, plan: FramePlan,
                           source: np.ndarray, recon: np.ndarray,
                           references: ReferenceSet,
                           ref_coded: Dict[PredictionDirection, int],
                           state: FrameMbState, base_qp: int,
                           mb_row: int, mb_col: int, min_mb_row: int,
                           stages=obs_trace.NULL_STAGE_CLOCK,
                           searches: Optional[Dict[PredictionDirection,
                                                   FrameMotionSearch]] = None,
                           qp_offsets: Optional[np.ndarray] = None
                           ) -> Tuple[MacroblockDecision,
                                      List[DependencyRecord]]:
        config = self.config
        top = mb_row * MACROBLOCK_SIZE
        left = mb_col * MACROBLOCK_SIZE
        current = source[top:top + MACROBLOCK_SIZE, left:left + MACROBLOCK_SIZE]
        if config.adaptive_qp and qp_offsets is None:
            qp_offsets = frame_activity_offsets(source)
        offset = (int(qp_offsets[mb_row, mb_col])
                  if qp_offsets is not None else 0)
        qp = min(max(base_qp + offset, MIN_QP), MAX_QP)
        pred_mv = state.predict_mv(mb_row, mb_col, min_mb_row)

        decision: Optional[MacroblockDecision] = None
        inter_cost = 0.0
        if plan.frame_type != FrameType.I:
            with stages.time("encode.inter"):
                if searches is None:
                    searches = {
                        direction: FrameMotionSearch(
                            source, reference, self._pad,
                            config.search_range, config.mv_cost_lambda)
                        for direction, reference in references.items()
                    }
                decision, inter_cost = self._decide_inter(
                    current, references, searches, mb_row, mb_col, qp)
        # Intra competes in inter frames too.
        with stages.time("encode.intra"):
            intra_mode, _pred, intra_sad = choose_intra_mode(
                current, recon, mb_row, mb_col, min_mb_row)
        if decision is None or intra_sad + config.intra_penalty < inter_cost:
            decision = MacroblockDecision(mode=MacroblockMode.INTRA, qp=qp,
                                          intra_mode=intra_mode)

        # Residual coding against the chosen prediction.
        with stages.time("encode.transform"):
            prediction = build_prediction(decision, recon, references,
                                          self._pad, mb_row, mb_col,
                                          min_mb_row)
            residual = current.astype(np.int32) - prediction.astype(np.int32)
            coefficients = transform_and_quantize(residual, decision.qp)
            cbp = self._coded_block_pattern(coefficients)
        decision.coefficients = coefficients
        decision.cbp = cbp

        # Skip conversion: inter 16x16, forward, predicted MV, no residual.
        if (plan.frame_type != FrameType.I
                and decision.mode == MacroblockMode.INTER
                and decision.partition_type == PartitionType.P16x16
                and decision.partitions[0].direction
                == PredictionDirection.FORWARD
                and decision.partitions[0].mv == pred_mv
                and not any(cbp)):
            decision = MacroblockDecision(
                mode=MacroblockMode.SKIP,
                qp=state.prev_qp,
                partition_type=PartitionType.P16x16,
                partitions=[InterPartition(rect=(0, 0, 16, 16), mv=pred_mv)],
            )
            prediction = build_prediction(decision, recon, references,
                                          self._pad, mb_row, mb_col,
                                          min_mb_row)

        with stages.time("encode.entropy"):
            encode_macroblock(encoder, self._model, state, decision,
                              plan.frame_type, mb_row, mb_col, min_mb_row)

        # Reconstruction (closed loop).
        with stages.time("encode.transform"):
            residual_pixels = None
            if decision.coefficients is not None and any(decision.cbp):
                residual_pixels = reconstruct_residuals_many(
                    decision.coefficients[np.newaxis], [decision.qp])[0]
            recon_mb = reconstruct_macroblock(decision, prediction,
                                              residual_pixels)
        recon[top:top + MACROBLOCK_SIZE, left:left + MACROBLOCK_SIZE] = recon_mb

        finalize_macroblock(state, decision, mb_row, mb_col)
        deps = self._dependencies(plan, decision, ref_coded, mb_row, mb_col,
                                  min_mb_row, source.shape)
        return decision, deps

    #: 4x4 coefficient-block indices composing each 8x8 quadrant.
    _QUADRANT_BLOCKS = np.array([
        [(qy // 4 + by) * 4 + (qx // 4 + bx)
         for by in range(2) for bx in range(2)]
        for qy, qx in QUADRANT_ORIGINS
    ])

    @staticmethod
    def _coded_block_pattern(coefficients: np.ndarray
                             ) -> Tuple[bool, bool, bool, bool]:
        block_coded = coefficients.reshape(16, 16).any(axis=1)
        flags = block_coded[Encoder._QUADRANT_BLOCKS].any(axis=1)
        return tuple(flags.tolist())  # type: ignore[return-value]

    # -- mode decisions -----------------------------------------------------

    def _decide_inter(self, current: np.ndarray, references: ReferenceSet,
                      searches: Dict[PredictionDirection, FrameMotionSearch],
                      mb_row: int, mb_col: int, qp: int
                      ) -> Tuple[MacroblockDecision, float]:
        """The best inter candidate of one MB and its cost; the caller
        lets intra compete against that cost."""
        config = self.config
        top = mb_row * MACROBLOCK_SIZE
        left = mb_col * MACROBLOCK_SIZE

        tables = {
            direction: searcher.mb_table(mb_row, mb_col)
            for direction, searcher in searches.items()
        }

        def best_for_rect(rect):
            """(mv, direction, cost, mv_backward) of the best candidate:
            forward, backward, or the bidirectional average."""
            column = FrameMotionSearch.rect_column(rect)
            per_direction = {}
            best = None
            for direction, table in tables.items():
                mv, sad = table[column]
                per_direction[direction] = mv
                if best is None or sad < best[2]:
                    best = (mv, direction, sad, None)
            if len(per_direction) == 2:
                # Bidirectional candidate: rounded average of the two
                # best single-direction blocks.
                oy, ox, height, width = rect
                current_rect = current[oy:oy + height, ox:ox + width]
                blocks = {}
                for direction, mv in per_direction.items():
                    blocks[direction] = compensate(
                        references[direction], self._pad, top, left, rect,
                        mv).astype(np.int32)
                averaged = (blocks[PredictionDirection.FORWARD]
                            + blocks[PredictionDirection.BACKWARD] + 1) >> 1
                sad_bi = float(np.abs(current_rect.astype(np.int32)
                                      - averaged).sum()) + config.bi_penalty
                if sad_bi < best[2]:
                    best = (per_direction[PredictionDirection.FORWARD],
                            PredictionDirection.BIDIRECTIONAL, sad_bi,
                            per_direction[PredictionDirection.BACKWARD])
            return best

        candidates = []  # (cost, partition_type, sub_types, partitions)
        for ptype in (PartitionType.P16x16, PartitionType.P16x8,
                      PartitionType.P8x16):
            rects = PARTITION_RECTS[ptype]
            parts = [best_for_rect(rect) for rect in rects]
            cost = (sum(p[2] for p in parts)
                    + config.partition_penalty * (len(rects) - 1))
            partitions = [
                InterPartition(rect=rect, mv=p[0], direction=p[1],
                               mv_backward=p[3])
                for rect, p in zip(rects, parts)
            ]
            candidates.append((cost, ptype, None, partitions))

        # P8x8: choose the best sub-layout per quadrant independently.
        sub_types: List[SubPartitionType] = []
        partitions8: List[InterPartition] = []
        total_cost = 0.0
        for qy, qx in QUADRANT_ORIGINS:
            best_quadrant = None
            for sub in SubPartitionType:
                rects = [(qy + oy, qx + ox, h, w)
                         for oy, ox, h, w in SUBPARTITION_RECTS[sub]]
                parts = [best_for_rect(rect) for rect in rects]
                cost = (sum(p[2] for p in parts)
                        + config.partition_penalty * len(rects))
                if best_quadrant is None or cost < best_quadrant[0]:
                    best_quadrant = (cost, sub, [
                        InterPartition(rect=rect, mv=p[0], direction=p[1],
                                       mv_backward=p[3])
                        for rect, p in zip(rects, parts)
                    ])
            assert best_quadrant is not None
            total_cost += best_quadrant[0]
            sub_types.append(best_quadrant[1])
            partitions8.extend(best_quadrant[2])
        candidates.append((total_cost - config.partition_penalty,
                           PartitionType.P8x8, sub_types, partitions8))

        best_cost, ptype, subs, partitions = min(candidates,
                                                 key=lambda c: c[0])
        return MacroblockDecision(
            mode=MacroblockMode.INTER, qp=qp, partition_type=ptype,
            sub_types=subs, partitions=partitions,
        ), best_cost

    # -- trace dependencies -----------------------------------------------

    def _dependencies(self, plan: FramePlan, decision: MacroblockDecision,
                      ref_coded: Dict[PredictionDirection, int],
                      mb_row: int, mb_col: int, min_mb_row: int,
                      frame_shape: Tuple[int, int]
                      ) -> List[DependencyRecord]:
        height, width = frame_shape
        mb_cols = width // MACROBLOCK_SIZE
        if decision.mode == MacroblockMode.INTRA:
            assert decision.intra_mode is not None
            return intra_dependencies(plan.coded_index, mb_row, mb_col,
                                      mb_cols, decision.intra_mode,
                                      min_mb_row)
        deps: List[DependencyRecord] = []
        top = mb_row * MACROBLOCK_SIZE
        left = mb_col * MACROBLOCK_SIZE
        for partition in decision.partitions:
            if partition.direction == PredictionDirection.BIDIRECTIONAL:
                # Each reference supplies half of every averaged pixel.
                assert partition.mv_backward is not None
                halves = [
                    (PredictionDirection.FORWARD, partition.mv),
                    (PredictionDirection.BACKWARD, partition.mv_backward),
                ]
                for direction, mv in halves:
                    for record in reference_dependencies(
                            ref_coded[direction], top, left,
                            partition.rect, mv, height, width, mb_cols):
                        deps.append(DependencyRecord(
                            source=record.source,
                            pixels=record.pixels / 2.0))
                continue
            deps.extend(reference_dependencies(
                ref_coded[partition.direction], top, left, partition.rect,
                partition.mv, height, width, mb_cols))
        return deps
