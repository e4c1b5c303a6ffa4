"""Integer-pel motion estimation and compensation.

Three estimators share the same candidate geometry and produce bitwise
identical answers:

* :class:`MacroblockSearch` — the scalar reference. Per macroblock it
  builds a full absolute-difference tensor over the search window and
  answers SAD queries for any partition rectangle from a 2-D integral
  image. Retained for tests and as the equivalence oracle.
* :class:`FrameMotionSearch` — the per-frame search of the scalar
  :class:`~repro.codec.encoder.Encoder`. It streams over the
  displacement window once per (frame, reference) pair, reducing
  whole-frame absolute differences to 4x4 tile SADs and folding them
  into every macroblock's per-partition best-cost running minimum with
  one masked matmul per chunk of displacement rows. All of H.264's
  partition shapes are 4x4-tile aligned, so the 41 encoder rectangles
  come out of the same tile tensor for free.
* :class:`~repro.codec.batch.BatchFrameMotionSearch` — the hot path of
  ``encode_batch_with_recon`` (service ingest, corpus preloads, the
  encode farm), over a stack of clips. It walks the frame one
  macroblock row at a time instead, with the displacements ahead of x
  in its int16 difference tensor, and picks each rect's vector with
  one argmin over the whole window, so it needs no running minimum.

Compensation clamps the referenced region into the (edge-padded)
reference frame, which serves two purposes: unrestricted motion vectors
at frame edges during encoding, and crash-free handling of the garbage
motion vectors a corrupted bitstream decodes to.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..errors import EncoderError
from .types import (
    MB_SIZE,
    PARTITION_RECTS,
    QUADRANT_ORIGINS,
    SUBPARTITION_RECTS,
    DependencyRecord,
    MotionVector,
    PartitionType,
    SubPartitionType,
)


def pad_reference(frame: np.ndarray, pad: int) -> np.ndarray:
    """Edge-replicate a reference frame by ``pad`` pixels on all sides."""
    if pad < 1:
        raise EncoderError(f"pad must be >= 1, got {pad}")
    return np.pad(frame, pad, mode="edge")


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


def _encoder_rects() -> Tuple[Tuple[int, int, int, int], ...]:
    """Every partition rectangle the encoder's mode decision evaluates.

    16x16/16x8/8x16 at macroblock level plus all four sub-layouts of
    every 8x8 quadrant — 41 rectangles, each aligned to the 4x4 tile
    grid.
    """
    rects: List[Tuple[int, int, int, int]] = []
    for ptype in (PartitionType.P16x16, PartitionType.P16x8,
                  PartitionType.P8x16):
        rects.extend(PARTITION_RECTS[ptype])
    for qy, qx in QUADRANT_ORIGINS:
        for sub in SubPartitionType:
            for oy, ox, height, width in SUBPARTITION_RECTS[sub]:
                rects.append((qy + oy, qx + ox, height, width))
    return tuple(rects)


#: Canonical rectangle set served by :class:`FrameMotionSearch`.
ENCODER_RECTS = _encoder_rects()

#: rect -> column index into the batched SAD tables.
_RECT_COLUMN: Dict[Tuple[int, int, int, int], int] = {
    rect: i for i, rect in enumerate(ENCODER_RECTS)
}


def _rect_tile_mask(rects: Tuple[Tuple[int, int, int, int], ...]
                    ) -> np.ndarray:
    """(16, len(rects)) 0/1 matrix: which 4x4 tiles compose each rect."""
    mask = np.zeros((MB_SIZE, len(rects)), dtype=np.int64)
    for column, (oy, ox, height, width) in enumerate(rects):
        if oy % 4 or ox % 4 or height % 4 or width % 4:
            raise EncoderError(f"rect {(oy, ox, height, width)} is not "
                               f"aligned to the 4x4 tile grid")
        tiles = np.zeros((4, 4), dtype=np.int64)
        tiles[oy // 4:(oy + height) // 4, ox // 4:(ox + width) // 4] = 1
        mask[:, column] = tiles.reshape(MB_SIZE)
    return mask


_ENCODER_RECT_MASK = _rect_tile_mask(ENCODER_RECTS)

#: Summing vector for the 4-wide tile column reduction (BLAS matvec).
_TILE_ONES = np.ones((4, 1), dtype=np.float32)

#: Cache budget for one motion-search chunk's candidate-diff buffers.
_CHUNK_BUDGET_BYTES = 4 << 20


class FrameMotionSearch:
    """Batched full-search SAD oracle for every macroblock of a frame.

    Computes, in one streaming pass over the displacement window, the
    lowest-cost motion vector (cost = SAD + lambda * |mv|_1) and its raw
    SAD for all macroblocks and all :data:`ENCODER_RECTS` partition
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

        Returns a list indexed by :data:`ENCODER_RECTS` position of
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
        """Index of ``rect`` in :data:`ENCODER_RECTS` (and
        :meth:`mb_table` output)."""
        return _RECT_COLUMN[rect]


def compensate(ref_padded: np.ndarray, pad: int, top: int, left: int,
               rect: Tuple[int, int, int, int],
               mv: MotionVector) -> np.ndarray:
    """Fetch the motion-compensated prediction for one partition.

    The source rectangle is clamped into the padded reference, so any
    motion vector — including garbage decoded from a corrupted stream —
    yields a valid block.
    """
    oy, ox, height, width = rect
    padded_h, padded_w = ref_padded.shape
    src_row = top + oy + mv.dy + pad
    src_col = left + ox + mv.dx + pad
    src_row = min(max(src_row, 0), padded_h - height)
    src_col = min(max(src_col, 0), padded_w - width)
    return ref_padded[src_row:src_row + height, src_col:src_col + width]


def reference_dependencies(ref_coded_index: int, top: int, left: int,
                           rect: Tuple[int, int, int, int],
                           mv: MotionVector, frame_height: int,
                           frame_width: int,
                           mb_cols: int) -> List[DependencyRecord]:
    """Which reference MBs supply pixels to one compensated partition.

    Coordinates outside the frame (padding) are attributed to the edge
    MBs whose pixels the padding replicates. Returns one record per
    distinct source MB with the pixel count it contributes — the raw
    material for VideoApp's compensation edge weights (Section 4.1).
    """
    oy, ox, height, width = rect
    row_counts = _axis_mb_counts(top + oy + mv.dy, height, frame_height)
    col_counts = _axis_mb_counts(left + ox + mv.dx, width, frame_width)
    deps: List[DependencyRecord] = []
    for mb_row, row_pixels in row_counts:
        base = mb_row * mb_cols
        for mb_col, col_pixels in col_counts:
            deps.append(DependencyRecord(
                source=(ref_coded_index, base + mb_col),
                pixels=row_pixels * col_pixels,
            ))
    return deps


def _axis_mb_counts(start: int, length: int,
                    limit: int) -> List[Tuple[int, int]]:
    """Per-MB pixel counts of one clamped axis of a compensated rect.

    The ``length`` coordinates ``start..start+length-1`` are clamped
    into ``[0, limit)`` (padding replicates the edge pixels) and
    bucketed by :data:`MB_SIZE`. Returns ascending ``(mb index, count)``
    pairs — exactly the nonzero entries a clip/bincount over the same
    coordinates produces, without any small-array numpy overhead (this
    runs once per partition axis, i.e. hundreds of thousands of times
    per campaign).
    """
    below = min(max(-start, 0), length)
    above = min(max(start + length - limit, 0), length - below)
    counts: Dict[int, int] = {}
    if below:
        counts[0] = below
    position = start + below
    stop = start + length - above
    while position < stop:
        mb = position // MB_SIZE
        step = min(stop, (mb + 1) * MB_SIZE) - position
        counts[mb] = counts.get(mb, 0) + step
        position += step
    if above:
        edge = (limit - 1) // MB_SIZE
        counts[edge] = counts.get(edge, 0) + above
    return sorted(counts.items())
