"""Batched multi-clip encoding: the encode farm's codec kernel.

The paper's evaluation is Monte-Carlo campaigns of many *small* encodes
(Section 8 runs whole suites of short clips per operating point), and
profiles show a single encode spends most of its time in per-macroblock
Python — not in numpy. Process fan-out does not help on small hosts
(``BENCH_parallel_scaling.json``), so this module batches *across
clips* instead: N same-geometry clips are stacked on a leading batch
axis and driven through the vectorized kernels in lockstep, one numpy
call per stage per macroblock position instead of one per clip.

What batches (one call for all N clips):

* motion search — :class:`BatchFrameMotionSearch` streams the chunked
  SAD pipeline of :class:`~repro.codec.motion.FrameMotionSearch` with a
  leading clip axis;
* the whole inter mode decision of P- and B-frames — direction picks
  (forward, backward, or the bidirectional average) and partition costs
  for every macroblock of every clip come out of the stacked SAD tables
  with a few gathers and a handful of argmins (the scalar
  ``_decide_inter`` loop disappears);
* intra mode selection, the 4x4 transform/quantization, coefficient
  block patterns, reconstruction, and the deblocking filter.

What stays per clip: entropy coding, neighbor state, and trace
dependencies — inherently sequential Python that every clip needs
anyway. Because those consume *decisions*, and every batched stage
produces decisions bitwise identical to the scalar encoder's (integer
arithmetic batches exactly; the float stages reuse the exact-in-float
guarantees PR 4 established), the emitted streams and traces are
bitwise identical to per-clip :meth:`Encoder.encode` — enforced by
``tests/codec/test_vectorized_equivalence.py``.

Mixed-geometry inputs are grouped by geometry, and every group —
a single clip included — runs through the batched kernels.

GOP work units: with ``bframes == 0`` every GOP is self-contained, so
:func:`gop_unit_bounds` / :func:`assemble_gop_units` let a scheduler
encode GOP-sized slices of *different* clips in one batch and stitch
the unit streams back into a whole-clip stream that is byte-identical
to encoding the clip in one piece.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import EncoderError, GopStructureError
from ..obs import trace as obs_trace
from ..video.frame import MACROBLOCK_SIZE, VideoSequence
from .config import EncoderConfig
from .deblock import deblock_frames
from .encoded import EncodedFrame, EncodedVideo, FrameHeader, VideoHeader
from .encoder import Encoder, slice_bands
from .gop import FramePlan, plan_gop
from .motion import (
    _ENCODER_RECT_MASK,
    _RECT_COLUMN,
    _CHUNK_BUDGET_BYTES,
    ENCODER_RECTS,
    MB_SIZE,
    MotionVector,
)
from .neighbors import FrameMbState
from .ratecontrol import frame_activity_offsets, frame_qp
from .reconstruct import build_prediction
from .syntax import encode_macroblock, finalize_macroblock
from .transform import (
    MAX_QP,
    MIN_QP,
    reconstruct_residuals_many,
    transform_and_quantize_many,
)
from .types import (
    PARTITION_RECTS,
    QUADRANT_ORIGINS,
    SUBPARTITION_RECTS,
    EncodingTrace,
    FrameTrace,
    FrameType,
    InterPartition,
    IntraMode,
    MacroblockDecision,
    MacroblockMode,
    MacroblockTrace,
    PartitionType,
    PredictionDirection,
    SubPartitionType,
)


class BatchFrameMotionSearch:
    """Stacked :class:`~repro.codec.motion.FrameMotionSearch` for N clips.

    Runs the same chunked streaming pass over the displacement window
    with a leading clip axis: per chunk, one strided window view, one
    int16 abs-diff and tile reduction, and one float64 masked matmul
    cover every clip at once. Every intermediate is an exact integer in
    its dtype (tile SADs fit int16, rect SADs are exact in float64),
    and the first-minimum-within-chunk / strict-less-than
    cross-chunk merge makes results chunk-size invariant — so the
    per-clip SAD tables are bitwise identical to N separate
    :class:`FrameMotionSearch` passes.
    """

    def __init__(self, currents: np.ndarray, refs_padded: np.ndarray,
                 pad: int, search_range: int,
                 mv_cost_lambda: float) -> None:
        if pad < search_range:
            raise EncoderError(
                f"padding {pad} smaller than search range {search_range}"
            )
        num_clips, height, width = currents.shape
        if height % MB_SIZE or width % MB_SIZE:
            raise EncoderError(
                f"frame {height}x{width} is not macroblock-aligned"
            )
        self.search_range = search_range
        self._mb_cols = width // MB_SIZE
        diameter = 2 * search_range + 1
        self._diameter = diameter
        num_mbs = (height // MB_SIZE) * self._mb_cols
        # Rect SADs come out of a float64 BLAS matmul over 4x4 tile
        # SADs; every sum is an integer <= 65280, exact in float64.
        rect_mask = _ENCODER_RECT_MASK.T.astype(np.float64)
        source = currents.astype(np.int16)
        tile_rows = height // 4
        tile_cols = width // 4
        mb_rows_count = tile_rows // 4

        num_rects = _ENCODER_RECT_MASK.shape[1]
        offsets = np.abs(np.arange(-search_range, search_range + 1))
        penalty_flat = (mv_cost_lambda * (
            offsets[:, None] + offsets[None, :]).reshape(-1)
        ).astype(np.float64)
        band_full = refs_padded[
            :,
            pad - search_range:pad + search_range + height,
            pad - search_range:pad + search_range + width]

        # dy rows per chunk: the whole batch's buffers (~6 bytes per
        # candidate pixel) stay inside one cache budget, so wide batches
        # take one displacement row at a time (measured fastest at
        # batch 16 and 32). Chunk size never affects results — the
        # strict-< merge is chunk-invariant.
        row_bytes = 6 * num_clips * diameter * height * width
        chunk = max(1, min(diameter, _CHUNK_BUDGET_BYTES // row_bytes))

        best_cost = np.full((num_clips, num_mbs, num_rects), np.inf)
        best_sad = np.zeros((num_clips, num_mbs, num_rects),
                            dtype=np.float64)
        best_flat = np.zeros((num_clips, num_mbs, num_rects),
                             dtype=np.int64)
        for start in range(0, diameter, chunk):
            rows = min(chunk, diameter - start)
            dd = rows * diameter
            sub = band_full[:, start:start + rows - 1 + height, :]
            windows = np.lib.stride_tricks.sliding_window_view(
                sub, (height, width), axis=(1, 2))
            diff = source[:, None, None] - windows
            np.abs(diff, out=diff)
            # 4x4 tile SADs in int16 (at most 16 * 255): add each
            # tile's four rows, then its four columns. Plain slice adds
            # beat both a float32 matvec and a small-axis .sum() here.
            quads = diff.reshape(num_clips, dd, tile_rows, 4, width)
            row_sums = quads[:, :, :, 0] + quads[:, :, :, 1]
            row_sums += quads[:, :, :, 2]
            row_sums += quads[:, :, :, 3]
            cols = row_sums.reshape(num_clips, dd, tile_rows, tile_cols, 4)
            tiles = cols[..., 0] + cols[..., 1]
            tiles += cols[..., 2]
            tiles += cols[..., 3]
            # (clip, mb, tile, displacement): the displacement axis goes
            # last so the argmin below runs along contiguous memory.
            mb_tiles = tiles.reshape(
                num_clips, dd, mb_rows_count, 4, self._mb_cols, 4
            ).transpose(0, 2, 4, 3, 5, 1).reshape(
                num_clips, num_mbs, MB_SIZE, dd)
            sads = rect_mask @ mb_tiles.astype(np.float64)
            cost = sads + penalty_flat[start * diameter:
                                       start * diameter + dd]
            # First minimum within the chunk, strict < across chunks:
            # the scalar path's row-major flat argmin tie-breaking.
            pick = np.argmin(cost, axis=-1)
            picked = pick[..., None]
            chunk_cost = np.take_along_axis(cost, picked, axis=-1)[..., 0]
            chunk_sad = np.take_along_axis(sads, picked, axis=-1)[..., 0]
            better = chunk_cost < best_cost
            best_cost[better] = chunk_cost[better]
            best_sad[better] = chunk_sad[better]
            best_flat[better] = (start * diameter + pick)[better]
        self._best_sad = best_sad.astype(np.int64)
        self._best_flat = best_flat.astype(np.int32)


# -- vectorized inter decision tables -----------------------------------------

_P16x16_COL = _RECT_COLUMN[(0, 0, 16, 16)]
_P16x8_COLS = np.array([_RECT_COLUMN[r]
                        for r in PARTITION_RECTS[PartitionType.P16x8]])
_P8x16_COLS = np.array([_RECT_COLUMN[r]
                        for r in PARTITION_RECTS[PartitionType.P8x16]])


def _sub_layout_tables():
    """Padded (quadrant, sub-type, rect) column/validity tables."""
    cols = np.zeros((4, 4, 4), dtype=np.int64)
    valid = np.zeros((4, 4, 4), dtype=np.float64)
    counts = np.zeros((4, 4), dtype=np.float64)
    rects: List[List[List[Tuple[int, int, int, int]]]] = []
    for q, (qy, qx) in enumerate(QUADRANT_ORIGINS):
        by_sub: List[List[Tuple[int, int, int, int]]] = []
        for s, sub in enumerate(SubPartitionType):
            sub_rects = [(qy + oy, qx + ox, h, w)
                         for oy, ox, h, w in SUBPARTITION_RECTS[sub]]
            by_sub.append(sub_rects)
            counts[q, s] = len(sub_rects)
            for r, rect in enumerate(sub_rects):
                cols[q, s, r] = _RECT_COLUMN[rect]
                valid[q, s, r] = 1.0
        rects.append(by_sub)
    return cols, valid, counts, rects


_SUB_COLS, _SUB_VALID, _SUB_COUNTS, _SUB_RECTS = _sub_layout_tables()


def _rect_shape_groups():
    """:data:`ENCODER_RECTS` grouped by shape: ``[((height, width),
    columns, row offsets, column offsets), ...]``. Every partition
    layout tiles the macroblock, so each group covers 256 pixels."""
    groups: Dict[Tuple[int, int], List[int]] = {}
    for column, (_oy, _ox, height, width) in enumerate(ENCODER_RECTS):
        groups.setdefault((height, width), []).append(column)
    return [(shape, np.array(columns),
             np.array([ENCODER_RECTS[c][0] for c in columns]),
             np.array([ENCODER_RECTS[c][1] for c in columns]))
            for shape, columns in groups.items()]


_RECT_SHAPE_GROUPS = _rect_shape_groups()

#: Candidate order of the scalar decision loop (argmin tie-break order).
_PTYPE_ORDER = (PartitionType.P16x16, PartitionType.P16x8,
                PartitionType.P8x16, PartitionType.P8x8)
_SUBTYPE_ORDER = tuple(SubPartitionType)
_DIRECTIONS = tuple(PredictionDirection)


def _bidirectional_sads(source_stack: np.ndarray, forward_ref: np.ndarray,
                        backward_ref: np.ndarray,
                        forward: BatchFrameMotionSearch,
                        backward: BatchFrameMotionSearch,
                        pad: int) -> np.ndarray:
    """``(N, M, 41)`` SADs of every rect's bidirectional candidate.

    The candidate is the rounded average of the forward and backward
    winners' blocks, exactly what the scalar ``best_for_rect`` scores.
    Per rect shape, one fancy index into a sliding-window view of each
    padded reference gathers the winners' uint8 blocks for all (clip,
    MB, rect) triples at once. Winners lie within the search range and
    ``pad >= search_range``, so no block needs the clamping
    :func:`~repro.codec.motion.compensate` applies.
    """
    num_clips, height, width = source_stack.shape
    mb_rows, mb_cols = height // MB_SIZE, width // MB_SIZE
    num_mbs = mb_rows * mb_cols
    current = source_stack.reshape(
        num_clips, mb_rows, MB_SIZE, mb_cols, MB_SIZE
    ).transpose(0, 1, 3, 2, 4).reshape(
        num_clips, num_mbs, MB_SIZE, MB_SIZE).astype(np.int16)
    # Padded-reference origin of each MB at displacement (-R, -R): a
    # winner's flat index adds (dy + R, dx + R) back.
    origin = pad - forward.search_range
    mb_tops = origin + MB_SIZE * np.repeat(np.arange(mb_rows), mb_cols)
    mb_lefts = origin + MB_SIZE * np.tile(np.arange(mb_cols), mb_rows)
    clips = np.arange(num_clips)[:, None, None]
    displacements = [np.divmod(search._best_flat, search._diameter)
                     for search in (forward, backward)]
    sads = np.empty((num_clips, num_mbs, len(ENCODER_RECTS)),
                    dtype=np.int64)
    for shape, columns, oys, oxs in _RECT_SHAPE_GROUPS:
        rows = mb_tops[:, None] + oys  # (M, rects of this shape)
        cols = mb_lefts[:, None] + oxs
        blocks = [
            np.lib.stride_tricks.sliding_window_view(
                reference, shape, axis=(1, 2))[
                    clips, rows + dy[..., columns], cols + dx[..., columns]]
            for reference, (dy, dx) in zip((forward_ref, backward_ref),
                                           displacements)
        ]
        averaged = (blocks[0].astype(np.int16) + blocks[1] + 1) >> 1
        targets = np.lib.stride_tricks.sliding_window_view(
            current, shape, axis=(2, 3))[:, :, oys, oxs]
        sads[..., columns] = np.abs(targets - averaged).sum(axis=(3, 4))
    return sads


class _FrameInterTables:
    """All inter decisions of a batch's P- or B-frame, precomputed.

    From the stacked SAD tables ``(N, M, 41)`` of each reference this
    derives, in a few whole-frame numpy calls, exactly what the scalar
    ``Encoder._decide_inter`` computes per macroblock: each rect's
    direction (B-frames: forward by default, backward only if strictly
    lower, bidirectional only if strictly lower than that with
    ``bi_penalty`` included — the scalar ``best_for_rect`` scan), the
    winning partition layout, its cost, and the chosen sub-layouts.
    Candidate evaluation order (P16x16, P16x8, P8x16, P8x8; sub-types in
    enum order) matches the scalar strict-less-than scan, and every cost
    is an exact integer in float64 (SAD sums plus penalty products), so
    argmin reproduces the scalar tie-breaking bit for bit.
    """

    def __init__(self, searches: Dict[PredictionDirection,
                                      BatchFrameMotionSearch],
                 source_stack: np.ndarray,
                 references: Dict[PredictionDirection, np.ndarray],
                 pad: int, config: EncoderConfig) -> None:
        forward = searches[PredictionDirection.FORWARD]
        backward = searches.get(PredictionDirection.BACKWARD)
        sad = forward._best_sad.astype(np.float64)
        # Plain nested lists: the per-MB winner construction in the
        # lockstep loop indexes these heavily, and Python-level list
        # access beats array scalar reads there.
        self._directions: Optional[List[List[List[int]]]] = None
        self._back_flats: Optional[List[List[List[int]]]] = None
        if backward is not None:
            backward_sad = backward._best_sad.astype(np.float64)
            backward_wins = backward_sad < sad
            sad = np.where(backward_wins, backward_sad, sad)
            bi_cost = _bidirectional_sads(
                source_stack, references[PredictionDirection.FORWARD],
                references[PredictionDirection.BACKWARD], forward,
                backward, pad) + config.bi_penalty
            bi_wins = bi_cost < sad
            sad = np.where(bi_wins, bi_cost, sad)
            directions = np.where(
                bi_wins, int(PredictionDirection.BIDIRECTIONAL),
                np.where(backward_wins, int(PredictionDirection.BACKWARD),
                         int(PredictionDirection.FORWARD)))
            self._directions = directions.tolist()
            self._back_flats = backward._best_flat.tolist()
        pp = config.partition_penalty
        c16 = sad[..., _P16x16_COL]
        c168 = sad[..., _P16x8_COLS].sum(axis=-1) + pp
        c816 = sad[..., _P8x16_COLS].sum(axis=-1) + pp
        sub_costs = ((sad[..., _SUB_COLS] * _SUB_VALID).sum(axis=-1)
                     + pp * _SUB_COUNTS)          # (N, M, 4, 4)
        sub_pick = np.argmin(sub_costs, axis=-1)  # (N, M, 4)
        sub_best = np.take_along_axis(
            sub_costs, sub_pick[..., None], axis=-1)[..., 0]
        c88 = sub_best.sum(axis=-1) - pp
        candidates = np.stack([c16, c168, c816, c88], axis=-1)
        ptype_pick = np.argmin(candidates, axis=-1)  # (N, M)
        best_cost = np.take_along_axis(
            candidates, ptype_pick[..., None], axis=-1)[..., 0]

        self.best_cost: List[List[float]] = best_cost.tolist()
        self._ptype_pick: List[List[int]] = ptype_pick.tolist()
        self._sub_pick: List[List[List[int]]] = sub_pick.tolist()
        self._flats: List[List[List[int]]] = forward._best_flat.tolist()
        self._diameter = forward._diameter
        self._radius = forward.search_range

    def _mv(self, flat: int) -> MotionVector:
        return MotionVector(flat // self._diameter - self._radius,
                            flat % self._diameter - self._radius)

    def _partition(self, clip: int, mb: int,
                   rect: Tuple[int, int, int, int]) -> InterPartition:
        column = _RECT_COLUMN[rect]
        mv = self._mv(self._flats[clip][mb][column])
        if self._directions is None:
            return InterPartition(rect=rect, mv=mv)
        direction = _DIRECTIONS[self._directions[clip][mb][column]]
        if direction == PredictionDirection.FORWARD:
            return InterPartition(rect=rect, mv=mv)
        backward_mv = self._mv(self._back_flats[clip][mb][column])
        if direction == PredictionDirection.BACKWARD:
            return InterPartition(rect=rect, mv=backward_mv,
                                  direction=direction)
        return InterPartition(rect=rect, mv=mv, direction=direction,
                              mv_backward=backward_mv)

    def decision(self, clip: int, mb: int, qp: int) -> MacroblockDecision:
        """Materialize the winning inter decision (winner only — the
        losing candidates' partition objects are never built)."""
        ptype = _PTYPE_ORDER[self._ptype_pick[clip][mb]]
        sub_types: Optional[List[SubPartitionType]] = None
        if ptype == PartitionType.P8x8:
            sub_types = []
            partitions = []
            for q, s in enumerate(self._sub_pick[clip][mb]):
                sub_types.append(_SUBTYPE_ORDER[s])
                for rect in _SUB_RECTS[q][s]:
                    partitions.append(self._partition(clip, mb, rect))
        else:
            partitions = [self._partition(clip, mb, rect)
                          for rect in PARTITION_RECTS[ptype]]
        return MacroblockDecision(
            mode=MacroblockMode.INTER, qp=qp, partition_type=ptype,
            sub_types=sub_types, partitions=partitions,
        )


# -- batched intra selection --------------------------------------------------

class _BatchIntraChoice:
    """Intra mode selection for one MB position across all clips.

    Mirrors :func:`~repro.codec.intra.choose_intra_mode` with a leading
    clip axis: border SADs are integer sums, the DC value uses the same
    half-to-even rounding, and the PLANE gradient is the same integer
    shift arithmetic — so modes, SADs, and winner predictions are
    identical per clip. Availability (slice boundary, frame edge) is
    position-dependent only, hence uniform across the batch.
    """

    def __init__(self, current_stack: np.ndarray, recon_stack: np.ndarray,
                 mb_row: int, mb_col: int, min_mb_row: int) -> None:
        num_clips = current_stack.shape[0]
        top = mb_row * MB_SIZE
        left = mb_col * MB_SIZE
        has_above = mb_row > min_mb_row
        has_left = mb_col > 0
        current = current_stack.astype(np.int32)
        sad_flat = np.abs(current - 128).sum(axis=(1, 2), dtype=np.int64)

        above = (recon_stack[:, top - 1, left:left + MB_SIZE]
                 if has_above else None)
        left_col = (recon_stack[:, top:top + MB_SIZE, left - 1]
                    if has_left else None)
        self._above = above
        self._left = left_col

        if above is None and left_col is None:
            dc_values = np.full(num_clips, 128, dtype=np.int64)
            sad_dc = sad_flat
        else:
            totals = np.zeros(num_clips, dtype=np.int64)
            count = 0
            if above is not None:
                totals += above.astype(np.int64).sum(axis=1)
                count += MB_SIZE
            if left_col is not None:
                totals += left_col.astype(np.int64).sum(axis=1)
                count += MB_SIZE
            dc_values = np.rint(totals / count).astype(np.int64)
            sad_dc = np.abs(current - dc_values[:, None, None]).sum(
                axis=(1, 2), dtype=np.int64)
        sad_v = (sad_flat if above is None
                 else np.abs(current - above.astype(np.int32)[:, None, :]
                             ).sum(axis=(1, 2), dtype=np.int64))
        sad_h = (sad_flat if left_col is None
                 else np.abs(current - left_col.astype(np.int32)[:, :, None]
                             ).sum(axis=(1, 2), dtype=np.int64))
        planes: Optional[np.ndarray] = None
        if (above is None or left_col is None
                or mb_row == 0 or mb_col == 0):
            sad_p = sad_flat
        else:
            corner = recon_stack[:, top - 1, left - 1].astype(np.int64)
            above64 = above.astype(np.int64)
            left64 = left_col.astype(np.int64)
            above_ext = np.concatenate([corner[:, None], above64], axis=1)
            left_ext = np.concatenate([corner[:, None], left64], axis=1)
            taps = np.arange(1, 9, dtype=np.int64)
            h_grad = (taps * (above_ext[:, 8 + taps]
                              - above_ext[:, 8 - taps])).sum(axis=1)
            v_grad = (taps * (left_ext[:, 8 + taps]
                              - left_ext[:, 8 - taps])).sum(axis=1)
            slope_x = (5 * h_grad + 32) >> 6
            slope_y = (5 * v_grad + 32) >> 6
            base = 16 * (above64[:, 15] + left64[:, 15])
            xs = np.arange(MB_SIZE, dtype=np.int64) - 7
            plane = (base[:, None, None]
                     + slope_x[:, None, None] * xs[None, None, :]
                     + slope_y[:, None, None] * xs[None, :, None] + 16) >> 5
            planes = np.clip(plane, 0, 255).astype(np.uint8)
            sad_p = np.abs(current - planes.astype(np.int32)).sum(
                axis=(1, 2), dtype=np.int64)
        self._dc_values = dc_values
        self._planes = planes
        stacked = np.stack([sad_dc, sad_v, sad_h, sad_p], axis=1)
        picks = np.argmin(stacked, axis=1)  # first min, MODE_ORDER
        self.modes: List[IntraMode] = [
            (IntraMode.DC, IntraMode.VERTICAL, IntraMode.HORIZONTAL,
             IntraMode.PLANE)[p]
            for p in picks.tolist()
        ]
        self.sads: List[int] = np.take_along_axis(
            stacked, picks[:, None], axis=1)[:, 0].tolist()

    def prediction(self, clip: int, mode: IntraMode) -> np.ndarray:
        """The winner's 16x16 prediction — identical to
        :func:`~repro.codec.intra.predict_intra` for this mode."""
        if mode == IntraMode.VERTICAL:
            if self._above is None:
                return np.full((MB_SIZE, MB_SIZE), 128, dtype=np.uint8)
            return np.repeat(self._above[clip][np.newaxis, :], MB_SIZE,
                             axis=0)
        if mode == IntraMode.HORIZONTAL:
            if self._left is None:
                return np.full((MB_SIZE, MB_SIZE), 128, dtype=np.uint8)
            return np.repeat(self._left[clip][:, np.newaxis], MB_SIZE,
                             axis=1)
        if mode == IntraMode.PLANE:
            if self._planes is None:
                return np.full((MB_SIZE, MB_SIZE), 128, dtype=np.uint8)
            return self._planes[clip]
        return np.full((MB_SIZE, MB_SIZE),
                       np.uint8(self._dc_values[clip]), dtype=np.uint8)


#: 4x4 coefficient-block indices composing each 8x8 quadrant.
_QUADRANT_BLOCKS = Encoder._QUADRANT_BLOCKS


def _coded_block_patterns_many(levels: np.ndarray) -> np.ndarray:
    """(K, 16, 4, 4) levels -> (K, 4) per-quadrant coded flags."""
    block_coded = levels.reshape(levels.shape[0], 16, 16).any(axis=2)
    return block_coded[:, _QUADRANT_BLOCKS].any(axis=2)


class BatchEncoder:
    """Encodes clips in lockstep through the batched kernels, one stack
    per geometry; streams and traces are bitwise identical to per-clip
    :class:`~repro.codec.encoder.Encoder` output."""

    def __init__(self, config: Optional[EncoderConfig] = None) -> None:
        self.config = config or EncoderConfig()
        self._scalar = Encoder(self.config)
        self._model = self._scalar._model
        self._pad = self.config.search_range

    # -- public API -------------------------------------------------------

    def encode_batch(self, videos: Sequence[VideoSequence]
                     ) -> List[EncodedVideo]:
        """Encode all clips; one :class:`EncodedVideo` per input."""
        encoded, _recons = self.encode_batch_with_recon(videos)
        return encoded

    def encode_batch_with_recon(self, videos: Sequence[VideoSequence]
                                ) -> Tuple[List[EncodedVideo],
                                           List[np.ndarray]]:
        """Encode all clips, also returning each clip's reconstruction.

        The second element holds one ``(frames, H, W) uint8`` array per
        clip — the encoder's closed-loop reconstruction in display
        order, byte-identical to a clean decode of the stream. Callers
        measuring quality get it without paying for a decoder pass.
        Clips are grouped by geometry (frames, height, width); each
        group, a single clip included, is one lockstep batch, and the
        results come back in input order.
        """
        if not videos:
            raise EncoderError("cannot encode an empty batch")
        groups: Dict[Tuple[int, int, int], List[int]] = {}
        for index, video in enumerate(videos):
            groups.setdefault((len(video), video.height, video.width),
                              []).append(index)
        encoded: List[Optional[EncodedVideo]] = [None] * len(videos)
        recons: List[Optional[np.ndarray]] = [None] * len(videos)
        for (frames, _height, _width), indices in groups.items():
            if frames == 0:
                raise EncoderError("cannot encode an empty sequence")
            with obs_trace.span("encode.batch", clips=len(indices),
                                frames=frames,
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
        clip_references = [
            {direction: stack[clip] for direction, stack
             in references.items()}
            for clip in range(num_clips)
        ]
        ref_coded = {
            PredictionDirection.FORWARD:
                coded_of.get(plan.ref_forward, -1),
            PredictionDirection.BACKWARD:
                coded_of.get(plan.ref_backward, -1),
        }
        states = [FrameMbState(mb_rows, mb_cols) for _ in range(num_clips)]
        qp_offset_lists: Optional[List[List[List[int]]]] = None
        if config.adaptive_qp:
            qp_offset_lists = [
                frame_activity_offsets(source_stack[clip]).tolist()
                for clip in range(num_clips)
            ]
        inter_tables: Optional[_FrameInterTables] = None
        if plan.frame_type != FrameType.I:
            with stages.time("encode.inter"):
                # One search per reference; the entire per-MB scalar
                # mode decision collapses into whole-frame numpy.
                searches = {
                    direction: BatchFrameMotionSearch(
                        source_stack, stack, self._pad,
                        config.search_range, config.mv_cost_lambda)
                    for direction, stack in references.items()
                }
                inter_tables = _FrameInterTables(
                    searches, source_stack, references, self._pad, config)

        recon_stack = np.zeros_like(source_stack)
        slice_payloads: List[List[bytes]] = [[] for _ in range(num_clips)]
        slice_starts: List[int] = []
        mb_traces: List[List[MacroblockTrace]] = [[] for _ in
                                                  range(num_clips)]
        offset_bits = [0] * num_clips
        for start_row, end_row in slice_bands(mb_rows, config.slices):
            encoders = [self._scalar._new_entropy_encoder()
                        for _ in range(num_clips)]
            for state in states:
                state.start_slice(base_qp)
            slice_starts.append(start_row * mb_cols)
            for mb_row in range(start_row, end_row):
                for mb_col in range(mb_cols):
                    bit_starts = [offset_bits[clip]
                                  + encoders[clip].bits_emitted
                                  for clip in range(num_clips)]
                    decisions, deps_lists = self._encode_macroblocks(
                        plan, source_stack, recon_stack, clip_references,
                        ref_coded, states, encoders, base_qp, mb_row,
                        mb_col, start_row, stages, inter_tables,
                        qp_offset_lists)
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
                            clip_references: List[Dict],
                            ref_coded: Dict[PredictionDirection, int],
                            states: List[FrameMbState], encoders: List,
                            base_qp: int, mb_row: int, mb_col: int,
                            min_mb_row: int, stages,
                            inter_tables: Optional[_FrameInterTables],
                            qp_offset_lists) -> Tuple[List, List]:
        config = self.config
        num_clips = source_stack.shape[0]
        top = mb_row * MACROBLOCK_SIZE
        left = mb_col * MACROBLOCK_SIZE
        current_stack = source_stack[:, top:top + MACROBLOCK_SIZE,
                                     left:left + MACROBLOCK_SIZE]
        if qp_offset_lists is not None:
            qps = [min(max(base_qp + qp_offset_lists[clip][mb_row][mb_col],
                           MIN_QP), MAX_QP)
                   for clip in range(num_clips)]
        else:
            qps = [base_qp] * num_clips
        pred_mvs = [state.predict_mv(mb_row, mb_col, min_mb_row)
                    for state in states]

        decisions: List[MacroblockDecision] = []
        with stages.time("encode.intra" if inter_tables is None
                         else "encode.inter"):
            intra_choice = _BatchIntraChoice(
                current_stack, recon_stack, mb_row, mb_col, min_mb_row)
            mb = mb_row * (source_stack.shape[2] // MACROBLOCK_SIZE) + mb_col
            for clip in range(num_clips):
                # Intra competes in inter frames too.
                if (inter_tables is None
                        or intra_choice.sads[clip] + config.intra_penalty
                        < inter_tables.best_cost[clip][mb]):
                    decisions.append(MacroblockDecision(
                        mode=MacroblockMode.INTRA, qp=qps[clip],
                        intra_mode=intra_choice.modes[clip]))
                else:
                    decisions.append(
                        inter_tables.decision(clip, mb, qps[clip]))

        # Residual coding against the chosen predictions, batched.
        with stages.time("encode.transform"):
            predictions = np.empty_like(current_stack)
            for clip, decision in enumerate(decisions):
                if decision.mode == MacroblockMode.INTRA:
                    predictions[clip] = intra_choice.prediction(
                        clip, decision.intra_mode)
                else:
                    predictions[clip] = build_prediction(
                        decision, recon_stack[clip], clip_references[clip],
                        self._pad, mb_row, mb_col, min_mb_row)
            residuals = (current_stack.astype(np.int32)
                         - predictions.astype(np.int32))
            levels = transform_and_quantize_many(
                residuals, [d.qp for d in decisions])
            cbps = _coded_block_patterns_many(levels)
        cbp_rows = cbps.tolist()
        for clip, decision in enumerate(decisions):
            decision.coefficients = levels[clip]
            decision.cbp = tuple(cbp_rows[clip])

        # Skip conversion: inter 16x16, forward, predicted MV, no
        # residual — per clip, like the scalar encoder.
        if plan.frame_type != FrameType.I:
            for clip, decision in enumerate(decisions):
                if (decision.mode == MacroblockMode.INTER
                        and decision.partition_type == PartitionType.P16x16
                        and decision.partitions[0].direction
                        == PredictionDirection.FORWARD
                        and decision.partitions[0].mv == pred_mvs[clip]
                        and not any(decision.cbp)):
                    decision = MacroblockDecision(
                        mode=MacroblockMode.SKIP,
                        qp=states[clip].prev_qp,
                        partition_type=PartitionType.P16x16,
                        partitions=[InterPartition(rect=(0, 0, 16, 16),
                                                   mv=pred_mvs[clip])],
                    )
                    decisions[clip] = decision
                    predictions[clip] = build_prediction(
                        decision, recon_stack[clip], clip_references[clip],
                        self._pad, mb_row, mb_col, min_mb_row)

        with stages.time("encode.entropy"):
            for clip, decision in enumerate(decisions):
                encode_macroblock(encoders[clip], self._model,
                                  states[clip], decision, plan.frame_type,
                                  mb_row, mb_col, min_mb_row)

        # Reconstruction (closed loop), batched over the coded clips.
        with stages.time("encode.transform"):
            recon_mbs = predictions.copy()
            coded = [clip for clip, decision in enumerate(decisions)
                     if decision.coefficients is not None
                     and any(decision.cbp)]
            if coded:
                residual_pixels = reconstruct_residuals_many(
                    np.stack([decisions[clip].coefficients
                              for clip in coded]),
                    [decisions[clip].qp for clip in coded])
                combined = (predictions[coded].astype(np.int32)
                            + residual_pixels)
                recon_mbs[coded] = np.clip(combined, 0, 255).astype(
                    np.uint8)
        recon_stack[:, top:top + MACROBLOCK_SIZE,
                    left:left + MACROBLOCK_SIZE] = recon_mbs

        deps_lists = []
        frame_shape = source_stack.shape[1:]
        for clip, decision in enumerate(decisions):
            finalize_macroblock(states[clip], decision, mb_row, mb_col)
            deps_lists.append(self._scalar._dependencies(
                plan, decision, ref_coded, mb_row, mb_col, min_mb_row,
                frame_shape))
        return decisions, deps_lists


def encode_batch(videos: Sequence[VideoSequence],
                 config: Optional[EncoderConfig] = None
                 ) -> List[EncodedVideo]:
    """Encode clips in one batched pass per geometry.

    The module-level convenience entry point; see :class:`BatchEncoder`.
    """
    return BatchEncoder(config).encode_batch(videos)


def encode_batch_with_recon(videos: Sequence[VideoSequence],
                            config: Optional[EncoderConfig] = None
                            ) -> Tuple[List[EncodedVideo],
                                       List[np.ndarray]]:
    """Like :func:`encode_batch`, also returning per-clip
    reconstructions (``(frames, H, W) uint8`` each, display order)."""
    return BatchEncoder(config).encode_batch_with_recon(videos)


# -- GOP work units -----------------------------------------------------------

def gop_unit_bounds(num_frames: int, config: EncoderConfig
                    ) -> List[Tuple[int, int]]:
    """Display-index ranges ``[(start, stop), ...]`` of independent
    GOP work units.

    Only valid for ``bframes == 0``: every GOP then opens with an
    I-frame that resets all prediction and no frame references across
    the boundary, so each unit encodes to exactly the bytes the
    whole-clip encode produces for those frames. With B-frames a GOP's
    trailing B-frames reference the *next* GOP's anchor, so splitting
    is refused.
    """
    if num_frames < 1:
        raise EncoderError(f"num_frames must be >= 1, got {num_frames}")
    if config.bframes != 0:
        raise GopStructureError(
            f"GOP work units require bframes == 0 (B-frames straddle GOP "
            f"boundaries; got bframes={config.bframes}). Encode the clip "
            f"as one whole-clip unit instead — the farm does this "
            f"automatically.")
    gop = config.gop_size
    return [(start, min(start + gop, num_frames))
            for start in range(0, num_frames, gop)]


def assemble_gop_units(unit_encodes: Sequence[EncodedVideo],
                       num_frames: int) -> EncodedVideo:
    """Stitch per-GOP unit streams back into one whole-clip stream.

    ``unit_encodes`` must be the encodes of consecutive
    :func:`gop_unit_bounds` units, in order. Frame payloads are reused
    as-is; headers and traces are re-indexed by each unit's frame
    offset. The result is byte-identical (``serialize()``) to encoding
    the whole clip in one call — asserted by the equivalence tests.
    """
    if not unit_encodes:
        raise EncoderError("cannot assemble an empty unit list")
    first = unit_encodes[0].header
    frames: List[EncodedFrame] = []
    trace = EncodingTrace(mb_rows=first.height // MACROBLOCK_SIZE,
                          mb_cols=first.width // MACROBLOCK_SIZE)
    offset = 0
    for unit in unit_encodes:
        if unit.header.bframes != 0:
            raise EncoderError("GOP units require bframes == 0")
        for frame in unit.frames:
            fh = frame.header
            frames.append(EncodedFrame(
                header=FrameHeader(
                    coded_index=fh.coded_index + offset,
                    display_index=fh.display_index + offset,
                    frame_type=fh.frame_type,
                    base_qp=fh.base_qp,
                    ref_forward=(None if fh.ref_forward is None
                                 else fh.ref_forward + offset),
                    ref_backward=(None if fh.ref_backward is None
                                  else fh.ref_backward + offset),
                    slice_byte_lengths=list(fh.slice_byte_lengths),
                ),
                payload=frame.payload,
            ))
        if unit.trace is not None:
            for frame_trace in unit.trace.frames:
                trace.frames.append(FrameTrace(
                    coded_index=frame_trace.coded_index + offset,
                    display_index=frame_trace.display_index + offset,
                    frame_type=frame_trace.frame_type,
                    payload_bits=frame_trace.payload_bits,
                    slice_starts=list(frame_trace.slice_starts),
                    macroblocks=[
                        MacroblockTrace(
                            frame_coded_index=(mb.frame_coded_index
                                               + offset),
                            mb_index=mb.mb_index,
                            bit_start=mb.bit_start,
                            bit_end=mb.bit_end,
                            dependencies=[
                                type(dep)(
                                    source=(dep.source[0] + offset,
                                            dep.source[1]),
                                    pixels=dep.pixels)
                                for dep in mb.dependencies
                            ],
                        )
                        for mb in frame_trace.macroblocks
                    ],
                ))
        offset += len(unit.frames)
    if offset != num_frames:
        raise EncoderError(
            f"units cover {offset} frames, expected {num_frames}")
    header = VideoHeader(
        width=first.width, height=first.height, num_frames=num_frames,
        gop_size=first.gop_size, bframes=first.bframes,
        slices=first.slices, entropy_coder=first.entropy_coder,
        crf=first.crf, search_range=first.search_range, fps=first.fps,
        deblocking=first.deblocking,
    )
    has_traces = all(unit.trace is not None for unit in unit_encodes)
    return EncodedVideo(header=header, frames=frames,
                        trace=trace if has_traces else None)
