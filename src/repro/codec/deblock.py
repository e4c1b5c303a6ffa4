"""In-loop deblocking filter (simplified H.264 normal filter).

Block-transform codecs produce visible discontinuities at block
boundaries; H.264 smooths them *in the coding loop*, so filtered frames
are also the motion-compensation references. This module applies the
standard normal-filter core on the 4x4 block grid:

For an edge between pixels ``p1 p0 | q0 q1``, when the step across the
edge is small enough to be a coding artifact rather than a real edge
(|p0-q0| < alpha(QP), side gradients < beta(QP)), the boundary pixels
move toward each other by a clipped delta — exactly H.264's
``delta = clip(((q0 - p0) * 4 + (p1 - q1) + 4) >> 3, -c, c)``.

The filter runs once per reconstructed frame (after all macroblocks,
before the frame is used as a reference or emitted), identically in the
encoder's reconstruction loop and the decoder. Intra prediction reads
*unfiltered* pixels, as in H.264.
"""

from __future__ import annotations

import functools

import numpy as np

#: Grid pitch of filtered edges (the transform block size).
_EDGE_STEP = 4


@functools.lru_cache(maxsize=32)
def _edge_columns(width: int) -> tuple:
    """Read-only gather indices of the vertical edges of a ``width``-wide
    frame: (q0, p1, p0, q1) columns, and whether every q1 lies inside
    the frame (always, when the width is a multiple of the pitch)."""
    columns = np.arange(_EDGE_STEP, width, _EDGE_STEP)
    indices = (columns, columns - 2, columns - 1,
               np.minimum(columns + 1, width - 1))
    for index in indices:
        index.setflags(write=False)
    return indices + (bool((columns + 1 < width).all()),)


def filter_thresholds(qp: int) -> tuple:
    """(alpha, beta, clip) thresholds for a given QP.

    Grow roughly like H.264's tables: exponential in QP for alpha, and
    slower for beta; at very low QP the filter turns itself off.
    """
    if qp < 16:
        return 0, 0, 0
    alpha = min(255, int(round(0.8 * (2.0 ** (qp / 6.0)) - 1.0)))
    beta = min(18, int(round(0.5 * qp - 7.0)))
    clip_limit = max(1, beta // 2)
    if alpha <= 0 or beta <= 0:
        return 0, 0, 0
    return alpha, beta, clip_limit


def _filter_vertical_edges(frame: np.ndarray, alpha: int, beta: int,
                           clip_limit: int) -> None:
    """Filter all vertical 4x4-grid edges of an int16 frame in place.

    Every edge is filtered in one batched gather/scatter: edges sit at a
    4-pixel pitch while each edge only reads columns [c-2, c+1] and
    writes [c-1, c], so no edge ever touches pixels another edge wrote
    and the batch is exactly equivalent to the left-to-right scalar
    sweep.

    ``frame`` may carry leading batch axes (``(..., H, W)``): the filter
    is purely per-row elementwise, so a stacked call is bitwise
    identical to filtering each frame alone.
    """
    columns, left2, left1, right1, interior = _edge_columns(frame.shape[-1])
    if columns.size == 0:
        return
    p1 = frame[..., left2]
    p0 = frame[..., left1]
    q0 = frame[..., columns]
    q1 = frame[..., right1]
    if not interior:
        # The last edge sits one pixel from the border: q1 = q0 there.
        q1 = np.where(columns + 1 < frame.shape[-1], q1, q0)
    active = ((np.abs(p0 - q0) < alpha)
              & (np.abs(p1 - p0) < beta)
              & (np.abs(q1 - q0) < beta))
    # np.minimum(np.maximum(...)) is np.clip without its per-call
    # Python overhead, which dominates on frames this small.
    delta = np.minimum(np.maximum(((q0 - p0) * 4 + (p1 - q1) + 4) >> 3,
                                  -clip_limit), clip_limit)
    frame[..., left1] = np.where(
        active, np.minimum(np.maximum(p0 + delta, 0), 255), p0)
    frame[..., columns] = np.where(
        active, np.minimum(np.maximum(q0 - delta, 0), 255), q0)


def deblock_frame(frame: np.ndarray, qp: int) -> np.ndarray:
    """Apply the deblocking filter to a reconstructed frame.

    Returns a new uint8 frame; the input is untouched. Vertical edges
    are filtered first, then horizontal ones (via transpose), matching
    the H.264 order.
    """
    alpha, beta, clip_limit = filter_thresholds(qp)
    if alpha == 0:
        return frame.copy()
    working = frame.astype(np.int16)
    _filter_vertical_edges(working, alpha, beta, clip_limit)
    working = working.T.copy()
    _filter_vertical_edges(working, alpha, beta, clip_limit)
    return working.T.astype(np.uint8)


def deblock_frames(frames: np.ndarray, qp: int) -> np.ndarray:
    """Apply :func:`deblock_frame` to a stack of frames at once.

    ``frames`` is ``(N, H, W)``; the result is bitwise identical to
    filtering each frame separately (the filter never reads across the
    batch axis). One numpy pass per edge direction for the whole stack.
    """
    alpha, beta, clip_limit = filter_thresholds(qp)
    if alpha == 0:
        return frames.copy()
    working = frames.astype(np.int16)
    _filter_vertical_edges(working, alpha, beta, clip_limit)
    working = working.swapaxes(-1, -2).copy()
    _filter_vertical_edges(working, alpha, beta, clip_limit)
    return working.swapaxes(-1, -2).astype(np.uint8)


def blockiness(frame: np.ndarray) -> float:
    """Mean absolute step across 4x4 grid edges (a blockiness proxy).

    Used by tests and experiments to verify the filter actually reduces
    grid-aligned discontinuities.
    """
    as_int = frame.astype(np.int32)
    col_edges = np.arange(_EDGE_STEP, frame.shape[1], _EDGE_STEP)
    row_edges = np.arange(_EDGE_STEP, frame.shape[0], _EDGE_STEP)
    vertical = np.abs(as_int[:, col_edges]
                      - as_int[:, col_edges - 1]).mean()
    horizontal = np.abs(as_int[row_edges, :]
                        - as_int[row_edges - 1, :]).mean()
    return float(0.5 * (vertical + horizontal))
