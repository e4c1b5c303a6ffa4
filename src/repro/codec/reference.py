"""Scalar references for the vectorized codec: kernels and the encoder.

Each function here is a deliberately naive, loop-level implementation of
a kernel that the production codec runs in batched numpy form, and
:func:`encode_scalar` is the per-macroblock encoder that the batched
:class:`~repro.codec.encoder.Encoder` replaced: one macroblock at a
time, its own motion searches (:class:`FrameMotionSearch` per frame,
:class:`MacroblockSearch` per macroblock), its own inter mode decision.
None of it is used on any encode/decode path — it exists so the
property tests in ``tests/codec/test_vectorized_equivalence.py`` can
assert, input by input, that vectorization changed only the speed of the
codec and not a single output bit. The references carry no spans and
no stage clocks.

Keep these boring. When a production kernel changes behaviour on
purpose, change the matching reference here in the same commit and
refresh the golden digests; if a test disagrees with its reference and
the change was *not* on purpose, the production kernel is wrong.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import EncoderError
from ..video.frame import MACROBLOCK_SIZE, VideoSequence
from .config import EncoderConfig
from .contexts import DEFAULT_CONTEXT_MODEL
from .deblock import deblock_frame
from .encoded import EncodedFrame, EncodedVideo, FrameHeader, VideoHeader
from .encoder import macroblock_dependencies, new_entropy_encoder, slice_bands
from .gop import FramePlan, plan_gop
from .intra import MODE_ORDER, choose_intra_mode, predict_intra
from .motion import (
    _ENCODER_RECT_MASK,
    _RECT_COLUMN,
    compensate,
    pad_reference,
)
from .neighbors import FrameMbState
from .ratecontrol import frame_activity_offsets, frame_qp
from .reconstruct import ReferenceSet, build_prediction, reconstruct_macroblock
from .syntax import encode_macroblock, finalize_macroblock
from .transform import (
    CF,
    MAX_QP,
    MIN_QP,
    SCALE,
    inverse_transform,
    quant_step,
    reconstruct_residuals_many,
    transform_and_quantize,
)
from .types import (
    MB_SIZE,
    PARTITION_RECTS,
    QUADRANT_ORIGINS,
    SUBPARTITION_RECTS,
    DependencyRecord,
    EncodingTrace,
    FrameTrace,
    FrameType,
    InterPartition,
    IntraMode,
    MacroblockDecision,
    MacroblockMode,
    MacroblockTrace,
    MotionVector,
    PartitionType,
    PredictionDirection,
    SubPartitionType,
)


def sad_scalar(block_a: np.ndarray, block_b: np.ndarray) -> int:
    """Sum of absolute differences via explicit Python loops."""
    total = 0
    rows, cols = block_a.shape
    for row in range(rows):
        for col in range(cols):
            total += abs(int(block_a[row, col]) - int(block_b[row, col]))
    return total


def best_mv_scalar(current: np.ndarray, ref_padded: np.ndarray, pad: int,
                   top: int, left: int,
                   rect: Tuple[int, int, int, int], search_range: int,
                   mv_cost_lambda: float) -> Tuple[MotionVector, float]:
    """Exhaustive scalar motion search for one partition rectangle.

    Scans displacements in row-major order keeping the first strict
    minimum — the tie-break contract every production search implements.
    """
    oy, ox, height, width = rect
    src = current[top + oy:top + oy + height, left + ox:left + ox + width]
    best_cost = None
    best = (MotionVector(0, 0), 0.0)
    for dy in range(-search_range, search_range + 1):
        for dx in range(-search_range, search_range + 1):
            row = top + oy + dy + pad
            col = left + ox + dx + pad
            candidate = ref_padded[row:row + height, col:col + width]
            sad = sad_scalar(src, candidate)
            cost = sad + mv_cost_lambda * (abs(dy) + abs(dx))
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best = (MotionVector(dy, dx), float(sad))
    return best


class MacroblockSearch:
    """SAD oracle for one macroblock against one padded reference.

    Args:
        current_mb: the 16x16 source block being encoded.
        ref_padded: reference frame padded by at least ``search_range``.
        pad: the padding amount used to build ``ref_padded``.
        top, left: pixel coordinates of the MB in the unpadded frame.
        search_range: displacement radius R; candidates span [-R, R]^2.
    """

    def __init__(self, current_mb: np.ndarray, ref_padded: np.ndarray,
                 pad: int, top: int, left: int, search_range: int) -> None:
        if pad < search_range:
            raise EncoderError(
                f"padding {pad} smaller than search range {search_range}"
            )
        self.search_range = search_range
        window_size = 2 * search_range + MB_SIZE
        row0 = top + pad - search_range
        col0 = left + pad - search_range
        window = ref_padded[row0:row0 + window_size,
                            col0:col0 + window_size].astype(np.int32)
        candidates = np.lib.stride_tricks.sliding_window_view(
            window, (MB_SIZE, MB_SIZE))
        diff = np.abs(candidates - current_mb.astype(np.int32))
        # Integral image over the in-block axes: any rectangle SAD for all
        # displacements via 4 gathers.
        integral = np.zeros(
            (diff.shape[0], diff.shape[1], MB_SIZE + 1, MB_SIZE + 1),
            dtype=np.int64,
        )
        integral[:, :, 1:, 1:] = diff.cumsum(axis=2).cumsum(axis=3)
        self._integral = integral

    def sad_grid(self, rect: Tuple[int, int, int, int]) -> np.ndarray:
        """SAD of partition ``rect`` for every displacement, shape (D, D)."""
        oy, ox, height, width = rect
        integral = self._integral
        return (
            integral[:, :, oy + height, ox + width]
            - integral[:, :, oy, ox + width]
            - integral[:, :, oy + height, ox]
            + integral[:, :, oy, ox]
        )

    def best_mv(self, rect: Tuple[int, int, int, int],
                mv_cost_lambda: float) -> Tuple[MotionVector, float]:
        """Lowest-cost displacement for a partition.

        Cost = SAD + lambda * (|dy| + |dx|), the bit-cost bias real
        encoders apply. Returns (motion vector, raw SAD at that vector).
        """
        grid = self.sad_grid(rect)
        radius = self.search_range
        offsets = np.abs(np.arange(-radius, radius + 1))
        penalty = mv_cost_lambda * (offsets[:, None] + offsets[None, :])
        cost = grid + penalty
        flat_index = int(np.argmin(cost))
        dy, dx = np.unravel_index(flat_index, cost.shape)
        mv = MotionVector(int(dy) - radius, int(dx) - radius)
        return mv, float(grid[dy, dx])


#: Summing vector for the 4-wide tile column reduction (BLAS matvec).
_TILE_ONES = np.ones((4, 1), dtype=np.float32)

#: Cache budget for one motion-search chunk's candidate-diff buffers.
_CHUNK_BUDGET_BYTES = 4 << 20


class FrameMotionSearch:
    """Batched full-search SAD oracle for every macroblock of a frame.

    Computes, in one streaming pass over the displacement window, the
    lowest-cost motion vector (cost = SAD + lambda * |mv|_1) and its raw
    SAD for all macroblocks and all :data:`~repro.codec.motion.ENCODER_RECTS` partition
    rectangles at once. Answers are bitwise identical to running
    :meth:`MacroblockSearch.best_mv` per macroblock and rectangle —
    including argmin tie-breaking, which both resolve to the first
    candidate in row-major displacement order.

    Args:
        current: the full frame being encoded (uint8, MB-aligned).
        ref_padded: reference frame padded by at least ``search_range``.
        pad: the padding amount used to build ``ref_padded``.
        search_range: displacement radius R; candidates span [-R, R]^2.
        mv_cost_lambda: SAD penalty per pixel of motion-vector deviation.
    """

    def __init__(self, current: np.ndarray, ref_padded: np.ndarray,
                 pad: int, search_range: int,
                 mv_cost_lambda: float) -> None:
        if pad < search_range:
            raise EncoderError(
                f"padding {pad} smaller than search range {search_range}"
            )
        height, width = current.shape
        if height % MB_SIZE or width % MB_SIZE:
            raise EncoderError(
                f"frame {height}x{width} is not macroblock-aligned"
            )
        self.search_range = search_range
        self._mb_cols = width // MB_SIZE
        diameter = 2 * search_range + 1
        self._diameter = diameter
        num_mbs = (height // MB_SIZE) * self._mb_cols
        # float64 mask routes the per-displacement rect reduction through
        # BLAS; tile SADs are <= 16*4080 so every sum is an exactly
        # representable integer and results match the int64 matmul bit
        # for bit.
        mask = _ENCODER_RECT_MASK.astype(np.float64)
        source = current.astype(np.int16)
        tile_rows = height // 4
        tile_cols = width // 4
        mb_rows_count = tile_rows // 4

        num_rects = _ENCODER_RECT_MASK.shape[1]
        offsets = np.abs(np.arange(-search_range, search_range + 1))
        penalty_flat = (mv_cost_lambda * (
            offsets[:, None] + offsets[None, :]).reshape(-1)
        ).astype(np.float64)
        band_full = ref_padded[
            pad - search_range:pad + search_range + height,
            pad - search_range:pad + search_range + width]

        # dy rows are processed in chunks sized to keep the per-chunk
        # diff buffers (int16 + float32 passes, ~6 bytes per candidate
        # pixel) inside a few MB of cache — full batching thrashes at
        # larger frames, a per-row loop pays numpy call overhead 2R+1
        # times.
        row_bytes = 6 * diameter * height * width
        chunk = max(1, min(diameter, _CHUNK_BUDGET_BYTES // row_bytes))

        best_cost = np.full((num_mbs, num_rects), np.inf)
        best_sad = np.zeros((num_mbs, num_rects), dtype=np.float64)
        best_flat = np.zeros((num_mbs, num_rects), dtype=np.int64)
        for start in range(0, diameter, chunk):
            rows = min(chunk, diameter - start)
            dd = rows * diameter
            # All (dy, dx) displacements of these dy rows at once:
            # windows is a strided (rows, D, height, width) view.
            sub = band_full[start:start + rows - 1 + height, :]
            windows = np.lib.stride_tricks.sliding_window_view(
                sub, (height, width))
            diff = np.abs(source[None, None] - windows)
            # 4-wide column sums via a BLAS matvec, then the 4-row sum:
            # per-pixel diffs are <= 255 and tile sums <= 4080, so
            # float32 holds every intermediate exactly and this is ~3x
            # faster than a strided integer reduction over both axes.
            col_sums = (
                diff.reshape(-1, 4).astype(np.float32) @ _TILE_ONES
            ).reshape(dd, tile_rows, 4, tile_cols)
            tiles = col_sums.sum(axis=2, dtype=np.float32)
            mb_tiles = tiles.reshape(
                dd, mb_rows_count, 4, self._mb_cols, 4
            ).transpose(0, 1, 3, 2, 4).reshape(dd, num_mbs, MB_SIZE)
            sads = mb_tiles.astype(np.float64) @ mask
            cost = sads + penalty_flat[start * diameter:
                                       start * diameter + dd, None, None]
            # First-minimum within the chunk (argmin over the flat
            # displacement axis), then strict < across chunks: together
            # that reproduces the scalar path's row-major flat argmin
            # tie-breaking exactly.
            pick = np.argmin(cost, axis=0)
            picked = np.expand_dims(pick, 0)
            chunk_cost = np.take_along_axis(cost, picked, axis=0)[0]
            chunk_sad = np.take_along_axis(sads, picked, axis=0)[0]
            better = chunk_cost < best_cost
            best_cost[better] = chunk_cost[better]
            best_sad[better] = chunk_sad[better]
            best_flat[better] = (start * diameter + pick)[better]
        self._best_sad = best_sad.astype(np.int64)
        self._best_flat = best_flat.astype(np.int32)

    def best(self, mb_row: int, mb_col: int,
             rect: Tuple[int, int, int, int]
             ) -> Tuple[MotionVector, float]:
        """Lowest-cost (motion vector, raw SAD) for one MB's rect."""
        mb = mb_row * self._mb_cols + mb_col
        column = _RECT_COLUMN[rect]
        flat = int(self._best_flat[mb, column])
        radius = self.search_range
        mv = MotionVector(flat // self._diameter - radius,
                          flat % self._diameter - radius)
        return mv, float(self._best_sad[mb, column])

    def mb_table(self, mb_row: int, mb_col: int
                 ) -> List[Tuple[MotionVector, float]]:
        """All of one MB's per-rect winners as plain Python values.

        Returns a list indexed by :data:`~repro.codec.motion.ENCODER_RECTS` position of
        (motion vector, raw SAD) pairs — one bulk fetch instead of 41
        array-scalar reads.
        """
        mb = mb_row * self._mb_cols + mb_col
        flats = self._best_flat[mb].tolist()
        sads = self._best_sad[mb].tolist()
        diameter = self._diameter
        radius = self.search_range
        return [
            (MotionVector(flat // diameter - radius,
                          flat % diameter - radius), float(sad))
            for flat, sad in zip(flats, sads)
        ]

    @staticmethod
    def rect_column(rect: Tuple[int, int, int, int]) -> int:
        """Index of ``rect`` in :data:`~repro.codec.motion.ENCODER_RECTS` (and
        :meth:`mb_table` output)."""
        return _RECT_COLUMN[rect]


def choose_intra_mode_scalar(source_mb: np.ndarray,
                             reconstructed: np.ndarray, mb_row: int,
                             mb_col: int, min_mb_row: int = 0
                             ) -> Tuple[IntraMode, np.ndarray, float]:
    """Strict-less-than scan over intra modes, one SAD at a time."""
    best_mode = None
    best_prediction = None
    best_sad = None
    for mode in MODE_ORDER:
        prediction = predict_intra(reconstructed, mb_row, mb_col, mode,
                                   min_mb_row)
        sad = float(sad_scalar(source_mb, prediction))
        if best_sad is None or sad < best_sad:
            best_mode, best_prediction, best_sad = mode, prediction, sad
    assert best_mode is not None and best_prediction is not None
    return best_mode, best_prediction, float(best_sad)


def forward_transform_scalar(block: np.ndarray) -> np.ndarray:
    """Integer transform of one 4x4 block: CF @ X @ CF^T, loop form."""
    x = block.astype(np.int64)
    out = np.zeros((4, 4), dtype=np.int64)
    for i in range(4):
        for l in range(4):  # noqa: E741 - matches the einsum subscript
            acc = 0
            for j in range(4):
                for k in range(4):
                    acc += int(CF[i, j]) * int(x[j, k]) * int(CF[l, k])
            out[i, l] = acc
    return out


def quantize_scalar(coefficients: np.ndarray, qp: int) -> np.ndarray:
    """Per-coefficient rounding against the scaled quantizer step."""
    step = quant_step(qp)
    out = np.zeros((4, 4), dtype=np.int32)
    for i in range(4):
        for j in range(4):
            out[i, j] = np.int32(np.rint(
                np.float64(coefficients[i, j]) / (step * SCALE[i, j])))
    return out


def reconstruct_residual_block_scalar(levels: np.ndarray,
                                      qp: int) -> np.ndarray:
    """Per-element dequantize, then a single-block inverse transform.

    Dequantization is scalarized (each output depends on exactly one
    level, so loop form is exact). The float inverse stays on the
    production ``inverse_transform`` einsum on purpose: a loop-form
    matrix product would associate the reduction differently and can
    drift by an ulp — the very hazard the vectorized code avoids by
    never re-deriving that kernel.
    """
    step = quant_step(qp)
    dequantized = np.zeros((4, 4), dtype=np.float64)
    for i in range(4):
        for j in range(4):
            dequantized[i, j] = (np.float64(levels[i, j]) * step
                                 * SCALE[i, j])
    return inverse_transform(dequantized[np.newaxis])[0]


def reconstruct_residuals_many_dense(levels_stack: np.ndarray,
                                     qps) -> np.ndarray:
    """(M, 16, 4, 4) levels -> (M, 16, 16) residuals, every block
    through the inverse einsum, zero or not."""
    stack = np.asarray(levels_stack)
    count = stack.shape[0]
    steps = np.array([quant_step(int(qp)) for qp in qps],
                     dtype=np.float64)
    dequantized = (stack.astype(np.float64)
                   * steps[:, None, None, None] * SCALE)
    blocks = inverse_transform(dequantized.reshape(count * 16, 4, 4))
    return (
        blocks.reshape(count, 4, 4, 4, 4)
        .transpose(0, 1, 3, 2, 4)
        .reshape(count, 16, 16)
    )


def deblock_edge_scalar(p1: int, p0: int, q0: int, q1: int, alpha: int,
                        beta: int, clip_limit: int) -> Tuple[int, int]:
    """H.264 normal filter for one pixel quadruple across an edge."""
    if not (abs(p0 - q0) < alpha and abs(p1 - p0) < beta
            and abs(q1 - q0) < beta):
        return p0, q0
    delta = ((q0 - p0) * 4 + (p1 - q1) + 4) >> 3
    delta = min(max(delta, -clip_limit), clip_limit)
    new_p0 = min(max(p0 + delta, 0), 255)
    new_q0 = min(max(q0 - delta, 0), 255)
    return new_p0, new_q0


def filter_vertical_edges_scalar(frame: np.ndarray, alpha: int, beta: int,
                                 clip_limit: int) -> None:
    """Pixel-at-a-time sweep over all vertical 4x4-grid edges, in place."""
    height, width = frame.shape
    for col in range(4, width, 4):
        for row in range(height):
            p1 = int(frame[row, col - 2])
            p0 = int(frame[row, col - 1])
            q0 = int(frame[row, col])
            q1 = int(frame[row, col + 1]) if col + 1 < width else q0
            new_p0, new_q0 = deblock_edge_scalar(p1, p0, q0, q1, alpha,
                                                 beta, clip_limit)
            frame[row, col - 1] = new_p0
            frame[row, col] = new_q0


def encode_bypass_bits_scalar(encoder, value: int, count: int) -> None:
    """MSB-first bit loop through ``encode_bypass`` (the bulk paths'
    contract)."""
    for shift in range(count - 1, -1, -1):
        encoder.encode_bypass((value >> shift) & 1)


def decode_bypass_bits_scalar(decoder, count: int) -> int:
    """Bit-at-a-time mirror of :func:`encode_bypass_bits_scalar`."""
    value = 0
    for _ in range(count):
        value = (value << 1) | decoder.decode_bypass()
    return value


def write_bits_scalar(writer, value: int, count: int) -> None:
    """MSB-first loop through ``BitWriter.write_bit``."""
    for shift in range(count - 1, -1, -1):
        writer.write_bit((value >> shift) & 1)


def read_bits_scalar(reader, count: int) -> int:
    """Bit-at-a-time mirror of :func:`write_bits_scalar`."""
    value = 0
    for _ in range(count):
        value = (value << 1) | reader.read_bit()
    return value


def coded_block_pattern_scalar(coefficients: np.ndarray
                               ) -> Tuple[bool, bool, bool, bool]:
    """Quadrant coded flags via explicit block loops."""
    flags: List[bool] = []
    for qy, qx in ((0, 0), (0, 8), (8, 0), (8, 8)):
        coded = False
        for by in range(2):
            for bx in range(2):
                index = (qy // 4 + by) * 4 + (qx // 4 + bx)
                if np.any(coefficients[index]):
                    coded = True
        flags.append(coded)
    return tuple(flags)  # type: ignore[return-value]


# ----------------------------------------------------------------------
# Neighbor queries: FrameMbState's context and prediction rules written
# out over its raw ``modes`` / ``mvs`` / ``nnz`` grids.
# ----------------------------------------------------------------------

def _available_ref(state, mb_row: int, mb_col: int,
                   min_mb_row: int) -> bool:
    return (
        min_mb_row <= mb_row < state.mb_rows
        and 0 <= mb_col < state.mb_cols
        and state.modes[mb_row][mb_col] != state.UNSET
    )


def _mode_at_ref(state, mb_row: int, mb_col: int,
                 min_mb_row: int) -> Optional[int]:
    if (min_mb_row <= mb_row < state.mb_rows
            and 0 <= mb_col < state.mb_cols):
        mode = state.modes[mb_row][mb_col]
        if mode != state.UNSET:
            return mode
    return None


def predict_mv_reference(state, mb_row: int, mb_col: int,
                         min_mb_row: int) -> MotionVector:
    """Median of A/B/C (C falling back to D), one-inter-neighbor rule."""
    positions = [
        (mb_row, mb_col - 1),       # A
        (mb_row - 1, mb_col),       # B
        (mb_row - 1, mb_col + 1),   # C
    ]
    if not _available_ref(state, *positions[2], min_mb_row):
        positions[2] = (mb_row - 1, mb_col - 1)  # D fallback
    candidates: List[MotionVector] = []
    inter_vectors: List[MotionVector] = []
    for row, col in positions:
        mode = _mode_at_ref(state, row, col, min_mb_row)
        if mode in (int(MacroblockMode.INTER), int(MacroblockMode.SKIP)):
            mv = state.mvs[row][col]
            vector = MotionVector(mv[0], mv[1])
            candidates.append(vector)
            inter_vectors.append(vector)
        else:
            candidates.append(MotionVector(0, 0))
    if not inter_vectors:
        return MotionVector(0, 0)
    if len(inter_vectors) == 1:
        return inter_vectors[0]
    dys = sorted(c.dy for c in candidates)
    dxs = sorted(c.dx for c in candidates)
    return MotionVector(dys[1], dxs[1])


def _neighbor_mode_count_ref(state, mb_row: int, mb_col: int,
                             min_mb_row: int, mode: MacroblockMode) -> int:
    modes = [
        _mode_at_ref(state, mb_row, mb_col - 1, min_mb_row),
        _mode_at_ref(state, mb_row - 1, mb_col, min_mb_row),
    ]
    return sum(1 for m in modes if m == int(mode))


def skip_context_reference(state, mb_row: int, mb_col: int,
                           min_mb_row: int) -> int:
    """Number of A/B neighbors coded as skip."""
    return _neighbor_mode_count_ref(state, mb_row, mb_col, min_mb_row,
                                    MacroblockMode.SKIP)


def intra_context_reference(state, mb_row: int, mb_col: int,
                            min_mb_row: int) -> int:
    """Number of A/B neighbors coded as intra."""
    return _neighbor_mode_count_ref(state, mb_row, mb_col, min_mb_row,
                                    MacroblockMode.INTRA)


def partition_context_reference(state, mb_row: int, mb_col: int,
                                min_mb_row: int) -> int:
    """Number of A/B neighbors coded as (non-skip) inter."""
    return _neighbor_mode_count_ref(state, mb_row, mb_col, min_mb_row,
                                    MacroblockMode.INTER)


def mvd_context_reference(state, mb_row: int, mb_col: int,
                          min_mb_row: int) -> int:
    """Bucket of the A/B neighbors' summed |mv|."""
    total = 0
    for row, col in ((mb_row, mb_col - 1), (mb_row - 1, mb_col)):
        if _available_ref(state, row, col, min_mb_row):
            mv = state.mvs[row][col]
            total += abs(mv[0]) + abs(mv[1])
    if total < 3:
        return 0
    if total < 32:
        return 1
    return 2


def nnz_context_reference(state, mb_row: int, mb_col: int,
                          min_mb_row: int) -> int:
    """Bucket of the A/B neighbors' summed nonzero-coefficient counts."""
    total = 0
    for row, col in ((mb_row, mb_col - 1), (mb_row - 1, mb_col)):
        if _available_ref(state, row, col, min_mb_row):
            total += state.nnz[row][col]
    if total == 0:
        return 0
    if total < 16:
        return 1
    return 2


# ----------------------------------------------------------------------
# The per-macroblock reference encoder
# ----------------------------------------------------------------------

def encode_scalar(video: VideoSequence,
                  config: Optional[EncoderConfig] = None) -> EncodedVideo:
    """Encode ``video`` one macroblock at a time.

    The oracle of :class:`~repro.codec.encoder.Encoder`: the same
    stream and trace, from a closed loop that codes each macroblock in
    full (intra choice, inter decision, residual, skip conversion,
    entropy coding, reconstruction) before it moves to the next.
    """
    config = config or EncoderConfig()
    if len(video) == 0:
        raise EncoderError("cannot encode an empty sequence")
    return _encode_sequence(video, config)


def _encode_sequence(video: VideoSequence,
                     config: EncoderConfig) -> EncodedVideo:
    plans = plan_gop(len(video), config.gop_size, config.bframes)
    coded_of = {plan.display_index: plan.coded_index for plan in plans}
    if config.slices > video.mb_rows:
        raise EncoderError(
            f"slices ({config.slices}) exceed MB rows ({video.mb_rows})"
        )
    trace = EncodingTrace(mb_rows=video.mb_rows, mb_cols=video.mb_cols)
    padded: Dict[int, np.ndarray] = {}
    frames: List[EncodedFrame] = []
    for plan in plans:
        frame, frame_trace, recon = _encode_frame_body(
            plan, video, padded, coded_of, config)
        frames.append(frame)
        trace.frames.append(frame_trace)
        padded[plan.display_index] = pad_reference(recon,
                                                   config.search_range)
    header = VideoHeader(
        width=video.width, height=video.height, num_frames=len(video),
        gop_size=config.gop_size, bframes=config.bframes,
        slices=config.slices, entropy_coder=config.entropy_coder,
        crf=config.crf, search_range=config.search_range, fps=video.fps,
        deblocking=config.deblocking,
    )
    return EncodedVideo(header=header, frames=frames, trace=trace)


def _references(plan: FramePlan,
                padded: Dict[int, np.ndarray]) -> ReferenceSet:
    references: ReferenceSet = {}
    if plan.ref_forward is not None:
        references[PredictionDirection.FORWARD] = padded[plan.ref_forward]
    if plan.ref_backward is not None:
        references[PredictionDirection.BACKWARD] = padded[plan.ref_backward]
    return references


def _encode_frame_body(plan: FramePlan, video: VideoSequence,
                       padded: Dict[int, np.ndarray],
                       coded_of: Dict[int, int], config: EncoderConfig
                       ) -> Tuple[EncodedFrame, FrameTrace, np.ndarray]:
    source = video[plan.display_index]
    mb_rows, mb_cols = video.mb_rows, video.mb_cols
    base_qp = frame_qp(config.crf, plan.frame_type)
    references = _references(plan, padded)
    ref_coded = {
        PredictionDirection.FORWARD:
            coded_of.get(plan.ref_forward, -1),
        PredictionDirection.BACKWARD:
            coded_of.get(plan.ref_backward, -1),
    }
    state = FrameMbState(mb_rows, mb_cols)
    qp_offsets = (frame_activity_offsets(source)
                  if config.adaptive_qp else None)
    # One full-search pass per reference serves every macroblock and
    # partition rectangle of this frame.
    searches = {
        direction: FrameMotionSearch(
            source, reference, config.search_range, config.search_range,
            config.mv_cost_lambda)
        for direction, reference in references.items()
    }
    recon = np.zeros_like(source)
    slice_payloads: List[bytes] = []
    slice_starts: List[int] = []
    mb_traces: List[MacroblockTrace] = []
    offset_bits = 0
    for start_row, end_row in slice_bands(mb_rows, config.slices):
        encoder = new_entropy_encoder(config.entropy_coder,
                                      DEFAULT_CONTEXT_MODEL)
        state.start_slice(base_qp)
        slice_starts.append(start_row * mb_cols)
        for mb_row in range(start_row, end_row):
            for mb_col in range(mb_cols):
                bit_start = offset_bits + encoder.bits_emitted
                deps = _encode_macroblock(
                    encoder, plan, source, recon, references, ref_coded,
                    state, base_qp, mb_row, mb_col, start_row, searches,
                    qp_offsets, config)
                mb_traces.append(MacroblockTrace(
                    frame_coded_index=plan.coded_index,
                    mb_index=mb_row * mb_cols + mb_col,
                    bit_start=bit_start,
                    bit_end=offset_bits + encoder.bits_emitted,
                    dependencies=deps,
                ))
        payload = encoder.finish()
        slice_payloads.append(payload)
        offset_bits += 8 * len(payload)

    if config.deblocking:
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


def _encode_macroblock(encoder, plan: FramePlan, source: np.ndarray,
                       recon: np.ndarray, references: ReferenceSet,
                       ref_coded: Dict[PredictionDirection, int],
                       state: FrameMbState, base_qp: int,
                       mb_row: int, mb_col: int, min_mb_row: int,
                       searches: Dict[PredictionDirection,
                                      FrameMotionSearch],
                       qp_offsets: Optional[np.ndarray],
                       config: EncoderConfig) -> List[DependencyRecord]:
    pad = config.search_range
    top = mb_row * MACROBLOCK_SIZE
    left = mb_col * MACROBLOCK_SIZE
    current = source[top:top + MACROBLOCK_SIZE, left:left + MACROBLOCK_SIZE]
    offset = (int(qp_offsets[mb_row, mb_col])
              if qp_offsets is not None else 0)
    qp = min(max(base_qp + offset, MIN_QP), MAX_QP)
    pred_mv = state.predict_mv(mb_row, mb_col, min_mb_row)

    decision: Optional[MacroblockDecision] = None
    inter_cost = 0.0
    if plan.frame_type != FrameType.I:
        decision, inter_cost = _decide_inter(
            current, references, searches, mb_row, mb_col, qp, config)
    # Intra competes in inter frames too.
    intra_mode, _pred, intra_sad = choose_intra_mode(
        current, recon, mb_row, mb_col, min_mb_row)
    if decision is None or intra_sad + config.intra_penalty < inter_cost:
        decision = MacroblockDecision(mode=MacroblockMode.INTRA, qp=qp,
                                      intra_mode=intra_mode)

    # Residual coding against the chosen prediction.
    prediction = build_prediction(decision, recon, references, pad,
                                  mb_row, mb_col, min_mb_row)
    residual = current.astype(np.int32) - prediction.astype(np.int32)
    decision.coefficients = transform_and_quantize(residual, decision.qp)
    decision.cbp = coded_block_pattern_scalar(decision.coefficients)

    # Skip conversion: inter 16x16, forward, predicted MV, no residual.
    if (plan.frame_type != FrameType.I
            and decision.mode == MacroblockMode.INTER
            and decision.partition_type == PartitionType.P16x16
            and decision.partitions[0].direction
            == PredictionDirection.FORWARD
            and decision.partitions[0].mv == pred_mv
            and not any(decision.cbp)):
        decision = MacroblockDecision(
            mode=MacroblockMode.SKIP,
            qp=state.prev_qp,
            partition_type=PartitionType.P16x16,
            partitions=[InterPartition(rect=(0, 0, 16, 16), mv=pred_mv)],
        )
        prediction = build_prediction(decision, recon, references, pad,
                                      mb_row, mb_col, min_mb_row)

    encode_macroblock(encoder, DEFAULT_CONTEXT_MODEL, state, decision,
                      plan.frame_type, mb_row, mb_col, min_mb_row)

    # Reconstruction (closed loop).
    residual_pixels = None
    if decision.coefficients is not None and any(decision.cbp):
        residual_pixels = reconstruct_residuals_many(
            decision.coefficients[np.newaxis], [decision.qp])[0]
    recon[top:top + MACROBLOCK_SIZE, left:left + MACROBLOCK_SIZE] = \
        reconstruct_macroblock(decision, prediction, residual_pixels)

    finalize_macroblock(state, decision, mb_row, mb_col)
    return macroblock_dependencies(plan, decision, ref_coded, mb_row,
                                   mb_col, min_mb_row, source.shape)


def _decide_inter(current: np.ndarray, references: ReferenceSet,
                  searches: Dict[PredictionDirection, FrameMotionSearch],
                  mb_row: int, mb_col: int, qp: int,
                  config: EncoderConfig
                  ) -> Tuple[MacroblockDecision, float]:
    """The best inter candidate of one MB and its cost; the caller
    lets intra compete against that cost."""
    top = mb_row * MACROBLOCK_SIZE
    left = mb_col * MACROBLOCK_SIZE
    tables = {
        direction: searcher.mb_table(mb_row, mb_col)
        for direction, searcher in searches.items()
    }

    def best_for_rect(rect):
        """(mv, direction, cost, mv_backward) of the best candidate:
        forward, backward, or the bidirectional average."""
        column = _RECT_COLUMN[rect]
        per_direction = {}
        best = None
        for direction, table in tables.items():
            mv, sad = table[column]
            per_direction[direction] = mv
            if best is None or sad < best[2]:
                best = (mv, direction, sad, None)
        if len(per_direction) == 2:
            # Bidirectional candidate: rounded average of the two best
            # single-direction blocks.
            oy, ox, height, width = rect
            current_rect = current[oy:oy + height, ox:ox + width]
            blocks = {}
            for direction, mv in per_direction.items():
                blocks[direction] = compensate(
                    references[direction], config.search_range, top, left,
                    rect, mv).astype(np.int32)
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

    best_cost, ptype, subs, partitions = min(candidates, key=lambda c: c[0])
    return MacroblockDecision(
        mode=MacroblockMode.INTER, qp=qp, partition_type=ptype,
        sub_types=subs, partitions=partitions,
    ), best_cost


__all__ = [
    "sad_scalar",
    "best_mv_scalar",
    "MacroblockSearch",
    "FrameMotionSearch",
    "choose_intra_mode_scalar",
    "forward_transform_scalar",
    "quantize_scalar",
    "reconstruct_residual_block_scalar",
    "reconstruct_residuals_many_dense",
    "deblock_edge_scalar",
    "filter_vertical_edges_scalar",
    "encode_bypass_bits_scalar",
    "decode_bypass_bits_scalar",
    "write_bits_scalar",
    "read_bits_scalar",
    "coded_block_pattern_scalar",
    "predict_mv_reference",
    "skip_context_reference",
    "intra_context_reference",
    "partition_context_reference",
    "mvd_context_reference",
    "nnz_context_reference",
    "encode_scalar",
]
