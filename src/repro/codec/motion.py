"""Integer-pel motion geometry, compensation and trace dependencies.

The encoder's mode decision evaluates 41 partition rectangles per
macroblock (:data:`ENCODER_RECTS`): 16x16, 16x8 and 8x16 at macroblock
level plus every sub-layout of each 8x8 quadrant, all aligned to the
4x4 tile grid, so one tile-SAD tensor serves them all
(:data:`_ENCODER_RECT_MASK`). The production search over them is
:class:`~repro.codec.batch.BatchFrameMotionSearch`; the per-macroblock
and per-frame searches it must match bit for bit are the oracles
:class:`~repro.codec.reference.MacroblockSearch` and
:class:`~repro.codec.reference.FrameMotionSearch`.

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


#: Canonical rectangle set of the encoder's inter mode decision.
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
