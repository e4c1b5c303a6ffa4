"""Scalar reference kernels for the vectorized codec hot paths.

Each function here is a deliberately naive, loop-level implementation of
a kernel that the production codec runs in batched numpy form. They are
*not* used on any encode/decode path — they exist so the property tests
in ``tests/codec/test_vectorized_equivalence.py`` can assert, input by
input, that vectorization changed only the speed of the codec and not a
single output bit.

Keep these boring. When a production kernel changes behaviour on
purpose, change the matching reference here in the same commit and
refresh the golden digests; if a test disagrees with its reference and
the change was *not* on purpose, the production kernel is wrong.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from .intra import MODE_ORDER, predict_intra
from .transform import CF, SCALE, inverse_transform, quant_step
from .types import IntraMode, MacroblockMode, MotionVector


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


__all__ = [
    "sad_scalar",
    "best_mv_scalar",
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
]
