"""The video encoder.

Encodes raw luma video into an H.264-like bitstream with a closed
reconstruction loop (references are the *reconstructed* frames, exactly
what a decoder will see), while emitting the per-macroblock
:class:`~repro.codec.types.EncodingTrace` that VideoApp's dependency
analysis consumes: bit ranges and pixel-source dependencies.

There is one encoder. :meth:`Encoder.encode` is a one-clip
:func:`encode_batch_with_recon`, which stacks same-geometry clips on a
leading batch axis and drives them through the batched kernels of
:mod:`repro.codec.batch` in lockstep: one numpy call per stage per
macroblock position instead of one per clip, and the whole inter
decision once per frame. What stays per clip here is inherently
sequential Python: the intra-versus-inter compete, skip conversion,
entropy coding, neighbor state and trace dependencies. Streams, traces
and reconstructions are bitwise identical to the per-macroblock
reference encoder :func:`repro.codec.reference.encode_scalar`, the
oracle of ``tests/codec/test_vectorized_equivalence.py``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import EncoderError
from ..obs import trace as obs_trace
from ..video.frame import MACROBLOCK_SIZE, VideoSequence
from .batch import (
    BatchFrameMotionSearch,
    _BatchIntraChoice,
    _code_residuals,
    _FrameInterTables,
)
from .cabac import CabacEncoder
from .cavlc import CavlcEncoder
from .config import EncoderConfig, EntropyCoder
from .contexts import DEFAULT_CONTEXT_MODEL, ContextModel
from .deblock import deblock_frames
from .encoded import EncodedFrame, EncodedVideo, FrameHeader, VideoHeader
from .entropy import EntropyEncoder
from .gop import FramePlan, plan_gop
from .intra import intra_dependencies
from .motion import reference_dependencies
from .neighbors import FrameMbState
from .ratecontrol import frame_activity_offsets, frame_qp
from .syntax import encode_macroblock, finalize_macroblock
from .transform import MAX_QP, MIN_QP
from .types import (
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


def new_entropy_encoder(coder: EntropyCoder,
                        model: ContextModel) -> EntropyEncoder:
    """A fresh entropy coder of kind ``coder`` for one slice."""
    if coder == EntropyCoder.CABAC:
        return CabacEncoder(model.total_contexts)
    return CavlcEncoder(model.total_contexts)


def macroblock_dependencies(plan: FramePlan, decision: MacroblockDecision,
                            ref_coded: Dict[PredictionDirection, int],
                            mb_row: int, mb_col: int, min_mb_row: int,
                            frame_shape: Tuple[int, int]
                            ) -> List[DependencyRecord]:
    """The trace's pixel-source dependencies of one coded macroblock."""
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


class Encoder:
    """H.264-like encoder; see :class:`EncoderConfig` for knobs."""

    def __init__(self, config: Optional[EncoderConfig] = None) -> None:
        self.config = config or EncoderConfig()
        self._model = DEFAULT_CONTEXT_MODEL
        self._pad = self.config.search_range

    # -- public API --------------------------------------------------------

    def encode(self, video: VideoSequence) -> EncodedVideo:
        """Encode ``video``; the result carries the VideoApp trace."""
        encoded, _recons = self._encode_batch([video])
        return encoded[0]

    # -- geometry groups ---------------------------------------------------

    def _encode_batch(self, videos: Sequence[VideoSequence]
                      ) -> Tuple[List[EncodedVideo], List[np.ndarray]]:
        if not videos:
            raise EncoderError("cannot encode an empty batch")
        groups: Dict[Tuple[int, int, int], List[int]] = {}
        for index, video in enumerate(videos):
            if len(video) == 0:
                raise EncoderError("cannot encode an empty sequence")
            groups.setdefault((len(video), video.height, video.width),
                              []).append(index)
        encoded: List[Optional[EncodedVideo]] = [None] * len(videos)
        recons: List[Optional[np.ndarray]] = [None] * len(videos)
        for (frames, _height, _width), indices in groups.items():
            with obs_trace.span("encode", clips=len(indices), frames=frames,
                                entropy=self.config.entropy_coder.name):
                group_encoded, group_recons = self._encode_sequences(
                    [videos[index] for index in indices])
            for slot, index in enumerate(indices):
                encoded[index] = group_encoded[slot]
                recons[index] = group_recons[slot]
        return encoded, recons

    # -- batched sequence loop -------------------------------------------

    def _encode_sequences(self, videos: Sequence[VideoSequence]
                          ) -> Tuple[List[EncodedVideo], List[np.ndarray]]:
        config = self.config
        num_clips = len(videos)
        sources = np.stack([video.to_array() for video in videos])
        num_frames = sources.shape[1]
        mb_rows = videos[0].mb_rows
        mb_cols = videos[0].mb_cols
        if config.slices > mb_rows:
            raise EncoderError(
                f"slices ({config.slices}) exceed MB rows ({mb_rows})"
            )
        plans = plan_gop(num_frames, config.gop_size, config.bframes)
        coded_of = {plan.display_index: plan.coded_index for plan in plans}

        traces = [EncodingTrace(mb_rows=mb_rows, mb_cols=mb_cols)
                  for _ in range(num_clips)]
        frames_out: List[List[EncodedFrame]] = [[] for _ in range(num_clips)]
        recon_by_display: Dict[int, np.ndarray] = {}
        padded: Dict[int, np.ndarray] = {}
        for plan in plans:
            with obs_trace.span("encode.frame", coded_index=plan.coded_index,
                                frame_type=plan.frame_type.name,
                                batch=num_clips):
                stages = obs_trace.stage_clock()
                frame_list, trace_list, recon_stack = self._encode_frame(
                    plan, sources, padded, coded_of, mb_rows, mb_cols,
                    stages)
                stages.emit(batch=num_clips)
            for clip in range(num_clips):
                frames_out[clip].append(frame_list[clip])
                traces[clip].frames.append(trace_list[clip])
            recon_by_display[plan.display_index] = recon_stack
            padded[plan.display_index] = np.pad(
                recon_stack, ((0, 0), (self._pad, self._pad),
                              (self._pad, self._pad)), mode="edge")

        encoded: List[EncodedVideo] = []
        recons: List[np.ndarray] = []
        display_order = np.stack(
            [recon_by_display[d] for d in range(num_frames)], axis=1)
        for clip, video in enumerate(videos):
            header = VideoHeader(
                width=video.width, height=video.height,
                num_frames=num_frames, gop_size=config.gop_size,
                bframes=config.bframes, slices=config.slices,
                entropy_coder=config.entropy_coder, crf=config.crf,
                search_range=config.search_range, fps=video.fps,
                deblocking=config.deblocking,
            )
            encoded.append(EncodedVideo(header=header,
                                        frames=frames_out[clip],
                                        trace=traces[clip]))
            recons.append(display_order[clip])
        return encoded, recons

    # -- batched frame loop ----------------------------------------------

    def _encode_frame(self, plan: FramePlan, sources: np.ndarray,
                      padded: Dict[int, np.ndarray],
                      coded_of: Dict[int, int], mb_rows: int, mb_cols: int,
                      stages) -> Tuple[List[EncodedFrame],
                                       List[FrameTrace], np.ndarray]:
        config = self.config
        num_clips = sources.shape[0]
        source_stack = np.ascontiguousarray(
            sources[:, plan.display_index])
        base_qp = frame_qp(config.crf, plan.frame_type)
        references: Dict[PredictionDirection, np.ndarray] = {}
        if plan.ref_forward is not None:
            references[PredictionDirection.FORWARD] = padded[plan.ref_forward]
        if plan.ref_backward is not None:
            references[PredictionDirection.BACKWARD] = \
                padded[plan.ref_backward]
        ref_coded = {
            PredictionDirection.FORWARD:
                coded_of.get(plan.ref_forward, -1),
            PredictionDirection.BACKWARD:
                coded_of.get(plan.ref_backward, -1),
        }
        states = [FrameMbState(mb_rows, mb_cols) for _ in range(num_clips)]
        # (clip, MB) activity QPs: a function of the source alone.
        qp_grid = np.full((num_clips, mb_rows * mb_cols), base_qp)
        if config.adaptive_qp:
            for clip in range(num_clips):
                qp_grid[clip] = np.clip(
                    base_qp + frame_activity_offsets(source_stack[clip]),
                    MIN_QP, MAX_QP).reshape(-1)
        qp_lists: List[List[int]] = qp_grid.tolist()
        inter: Optional[_FrameInterTables] = None
        if plan.frame_type != FrameType.I:
            with stages.time("encode.search"):
                searches = {
                    direction: BatchFrameMotionSearch(
                        source_stack, stack, self._pad,
                        config.search_range, config.mv_cost_lambda)
                    for direction, stack in references.items()
                }
            # The entire per-MB inter mode decision collapses into
            # whole-frame numpy, and so does the inter residual.
            with stages.time("encode.inter"):
                inter = _FrameInterTables(
                    searches, source_stack, references, self._pad, config)
            with stages.time("encode.transform"):
                inter.code_residuals(qp_grid)

        recon_stack = np.zeros_like(source_stack)
        slice_payloads: List[List[bytes]] = [[] for _ in range(num_clips)]
        slice_starts: List[int] = []
        mb_traces: List[List[MacroblockTrace]] = [[] for _ in
                                                  range(num_clips)]
        offset_bits = [0] * num_clips
        for start_row, end_row in slice_bands(mb_rows, config.slices):
            encoders = [new_entropy_encoder(config.entropy_coder,
                                            self._model)
                        for _ in range(num_clips)]
            for state in states:
                state.start_slice(base_qp)
            slice_starts.append(start_row * mb_cols)
            for mb_row in range(start_row, end_row):
                for mb_col in range(mb_cols):
                    bit_starts = [offset_bits[clip]
                                  + encoders[clip].bits_emitted
                                  for clip in range(num_clips)]
                    deps_lists = self._encode_macroblocks(
                        plan, source_stack, recon_stack, ref_coded, states,
                        encoders, mb_row, mb_col, start_row, stages, inter,
                        qp_lists)
                    mb_index = mb_row * mb_cols + mb_col
                    for clip in range(num_clips):
                        mb_traces[clip].append(MacroblockTrace(
                            frame_coded_index=plan.coded_index,
                            mb_index=mb_index,
                            bit_start=bit_starts[clip],
                            bit_end=(offset_bits[clip]
                                     + encoders[clip].bits_emitted),
                            dependencies=deps_lists[clip],
                        ))
            with stages.time("encode.entropy"):
                for clip in range(num_clips):
                    payload = encoders[clip].finish()
                    slice_payloads[clip].append(payload)
                    offset_bits[clip] += 8 * len(payload)

        if config.deblocking:
            # In-loop filter: the deblocked frame is what references and
            # viewers see; intra prediction above used unfiltered pixels.
            with stages.time("encode.deblock"):
                recon_stack = deblock_frames(recon_stack, base_qp)

        frame_list: List[EncodedFrame] = []
        trace_list: List[FrameTrace] = []
        for clip in range(num_clips):
            full_payload = b"".join(slice_payloads[clip])
            header = FrameHeader(
                coded_index=plan.coded_index,
                display_index=plan.display_index,
                frame_type=plan.frame_type,
                base_qp=base_qp,
                ref_forward=plan.ref_forward,
                ref_backward=plan.ref_backward,
                slice_byte_lengths=[len(p) for p in slice_payloads[clip]],
            )
            frame_list.append(EncodedFrame(header=header,
                                           payload=full_payload))
            trace_list.append(FrameTrace(
                coded_index=plan.coded_index,
                display_index=plan.display_index,
                frame_type=plan.frame_type,
                payload_bits=8 * len(full_payload),
                slice_starts=list(slice_starts),
                macroblocks=mb_traces[clip],
            ))
        return frame_list, trace_list, recon_stack

    # -- lockstep macroblock step ----------------------------------------

    def _encode_macroblocks(self, plan: FramePlan, source_stack: np.ndarray,
                            recon_stack: np.ndarray,
                            ref_coded: Dict[PredictionDirection, int],
                            states: List[FrameMbState], encoders: List,
                            mb_row: int, mb_col: int, min_mb_row: int,
                            stages, inter: Optional[_FrameInterTables],
                            qp_lists: List[List[int]]) -> List[List]:
        """Code one MB position of every clip; returns each clip's trace
        dependencies. Only what reads the frame being reconstructed, or
        serial per-clip state, happens here: the inter candidates are
        already residual-coded (:meth:`_FrameInterTables.code_residuals`).
        """
        config = self.config
        num_clips = source_stack.shape[0]
        rows = slice(mb_row * MACROBLOCK_SIZE, (mb_row + 1) * MACROBLOCK_SIZE)
        cols = slice(mb_col * MACROBLOCK_SIZE, (mb_col + 1) * MACROBLOCK_SIZE)
        mb = mb_row * (source_stack.shape[2] // MACROBLOCK_SIZE) + mb_col
        current_stack = source_stack[:, rows, cols]
        qps = [qp_lists[clip][mb] for clip in range(num_clips)]

        with stages.time("encode.intra"):
            intra_choice = _BatchIntraChoice(
                current_stack, recon_stack, mb_row, mb_col, min_mb_row)
        decisions: List[MacroblockDecision] = []
        intra_clips: List[int] = []
        with stages.time("encode.intra" if inter is None
                         else "encode.inter"):
            for clip in range(num_clips):
                # Intra competes in inter frames too.
                if (inter is None
                        or intra_choice.sads[clip] + config.intra_penalty
                        < inter.best_cost[clip][mb]):
                    decisions.append(MacroblockDecision(
                        mode=MacroblockMode.INTRA, qp=qps[clip],
                        intra_mode=intra_choice.modes[clip]))
                    intra_clips.append(clip)
                else:
                    decision = inter.decision(clip, mb, qps[clip])
                    decision.coefficients = inter.levels[clip, mb]
                    decision.cbp = tuple(inter.cbps[clip][mb])
                    decisions.append(decision)

        # Intra clips replace the inter reconstruction with their own,
        # coded or not.
        with stages.time("encode.transform"):
            if inter is not None:
                recon_stack[:, rows, cols] = inter.recon[:, mb]
            if intra_clips:
                predictions = np.stack([
                    intra_choice.prediction(clip, decisions[clip].intra_mode)
                    for clip in intra_clips])
                levels, cbps, recon = _code_residuals(
                    current_stack[intra_clips], predictions,
                    [qps[clip] for clip in intra_clips])
                recon_stack[intra_clips, rows, cols] = recon
                for slot, flags in enumerate(cbps.tolist()):
                    decision = decisions[intra_clips[slot]]
                    decision.coefficients = levels[slot]
                    decision.cbp = tuple(flags)

        # Skip conversion: inter 16x16, forward, predicted MV, no
        # residual. The skip MB's prediction is the forward winner's,
        # already reconstructed.
        if inter is not None:
            for clip, decision in enumerate(decisions):
                if decision.mode != MacroblockMode.INTER:
                    continue
                pred_mv = states[clip].predict_mv(mb_row, mb_col, min_mb_row)
                if (decision.partition_type == PartitionType.P16x16
                        and decision.partitions[0].direction
                        == PredictionDirection.FORWARD
                        and decision.partitions[0].mv == pred_mv
                        and not any(decision.cbp)):
                    decisions[clip] = MacroblockDecision(
                        mode=MacroblockMode.SKIP,
                        qp=states[clip].prev_qp,
                        partition_type=PartitionType.P16x16,
                        partitions=[InterPartition(rect=(0, 0, 16, 16),
                                                   mv=pred_mv)],
                    )

        with stages.time("encode.entropy"):
            for clip, decision in enumerate(decisions):
                encode_macroblock(encoders[clip], self._model,
                                  states[clip], decision, plan.frame_type,
                                  mb_row, mb_col, min_mb_row)

        deps_lists = []
        frame_shape = source_stack.shape[1:]
        for clip, decision in enumerate(decisions):
            finalize_macroblock(states[clip], decision, mb_row, mb_col)
            deps_lists.append(macroblock_dependencies(
                plan, decision, ref_coded, mb_row, mb_col, min_mb_row,
                frame_shape))
        return deps_lists


def encode_batch_with_recon(videos: Sequence[VideoSequence],
                            config: Optional[EncoderConfig] = None
                            ) -> Tuple[List[EncodedVideo],
                                       List[np.ndarray]]:
    """Encode all clips, also returning each clip's reconstruction.

    The second element holds one ``(frames, H, W) uint8`` array per
    clip — the encoder's closed-loop reconstruction in display order,
    byte-identical to a clean decode of the stream. Callers measuring
    quality get it without paying for a decoder pass. Clips are grouped
    by geometry (frames, height, width); each group, a single clip
    included, is one lockstep batch, and the results come back in input
    order.
    """
    return Encoder(config)._encode_batch(videos)


def _encode_clean(video: VideoSequence, config: Optional[EncoderConfig] = None
                  ) -> Tuple[EncodedVideo, VideoSequence]:
    """``(encode, clean decode)`` of one clip from one encoder pass.

    The clean frames are the encoder's reconstruction, read-only and at
    the clip's fps, as a decoder's output is.
    """
    (encoded,), (recon,) = encode_batch_with_recon([video], config)
    # The deblocked frames are Fortran-order, and VideoSequence would
    # copy each one into a writable C-order frame.
    recon = np.ascontiguousarray(recon)
    recon.flags.writeable = False
    return encoded, VideoSequence.from_array(recon, fps=video.fps)
