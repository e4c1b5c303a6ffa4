"""Batched encode kernels: N same-geometry clips in lockstep.

The paper's evaluation is Monte-Carlo campaigns of many *small* encodes
(Section 8 runs whole suites of short clips per operating point), and
profiles show a single encode spends most of its time in per-macroblock
Python — not in numpy. Process fan-out does not help on small hosts
(``BENCH_parallel_scaling.json``), so :class:`~repro.codec.encoder.Encoder`
batches *across clips* instead: N same-geometry clips are stacked on a
leading batch axis and driven through the kernels of this module, one
numpy call per stage per macroblock position instead of one per clip.
A single clip is a batch of one.

What batches, for all N clips at once:

* motion search — :class:`BatchFrameMotionSearch` walks each frame one
  macroblock row at a time, in chunks of tile rows and clips sized by
  a fixed byte budget, and picks every rect's motion vector with one
  argmin over the whole displacement window;
* everything inter, once per P- or B-frame — :class:`_FrameInterTables`
  makes the whole inter mode decision (direction picks and partition
  costs of every macroblock, from the stacked SAD tables) and then
  predicts, transforms, quantizes and reconstructs every (clip, MB)'s
  winning inter candidate in one pass. None of that reads the frame
  being reconstructed: an inter candidate needs only the source, the
  deblocked references and a QP derived from the source;
* per macroblock position: intra mode selection
  (:class:`_BatchIntraChoice`) and, for the clips that choose intra,
  their residual coding (:func:`_code_residuals`, which replaces the
  inter one); per frame, the deblocking filter.

Every kernel produces decisions bitwise identical to the per-macroblock
reference encoder :func:`repro.codec.reference.encode_scalar` (integer
arithmetic batches exactly; a float stage either holds only exactly
representable integers or repeats the scalar path's float operations
element for element) — enforced by
``tests/codec/test_vectorized_equivalence.py``.

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
from ..video.frame import MACROBLOCK_SIZE
from .config import EncoderConfig
from .encoded import EncodedFrame, EncodedVideo, FrameHeader, VideoHeader
from .motion import (
    _ENCODER_RECT_MASK,
    _RECT_COLUMN,
    ENCODER_RECTS,
    MB_SIZE,
    MotionVector,
)
from .transform import reconstruct_residuals_many, transform_and_quantize_many
from .types import (
    PARTITION_RECTS,
    QUADRANT_ORIGINS,
    SUBPARTITION_RECTS,
    EncodingTrace,
    FrameTrace,
    InterPartition,
    IntraMode,
    MacroblockDecision,
    MacroblockMode,
    MacroblockTrace,
    PartitionType,
    PredictionDirection,
    SubPartitionType,
)


#: Byte budget of one motion-search chunk: per clip chunk, the int16
#: candidate differences of its tile rows and the float64 rect costs of
#: one macroblock row. Chunks take as many clips (at least one) and
#: tile rows (one, two or a whole MB row) as fit, so transient memory
#: does not grow with the batch width. 256 KB to 1 MB measured alike.
_SEARCH_BUDGET_BYTES = 512 << 10


class BatchFrameMotionSearch:
    """Stacked :class:`~repro.codec.reference.FrameMotionSearch` for N clips.

    Walks the frame one macroblock row at a time, in chunks of tile
    rows. A chunk's int16 absolute differences are laid out as
    ``(clip, y, dy, dx, x)``, displacements ahead of x, so each 4x4
    tile's four rows sum with contiguous slab adds and its four columns
    with strided ones (a tile SAD is at most 4080, exact in int16).
    After each MB row, one float64 ``(41 x 16) @ (16 x D^2)`` matmul
    per (clip, MB) turns tile SADs into every encoder rect's SAD at
    every displacement (at most 65280, exact in float64); the
    motion-vector penalty is added and one argmin over all ``D^2``
    displacements in row-major order picks each rect's first minimum.
    That argmin is the scalar tie-break outright, so the per-clip
    tables are bitwise identical to N separate
    :class:`~repro.codec.reference.FrameMotionSearch` passes whatever
    the chunking.
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
        diameter = 2 * search_range + 1
        self._diameter = diameter
        candidates = diameter * diameter
        mb_rows, mb_cols = height // MB_SIZE, width // MB_SIZE
        tile_cols = width // 4
        num_rects = len(ENCODER_RECTS)
        rect_mask = _ENCODER_RECT_MASK.T.astype(np.float64)
        offsets = np.abs(np.arange(-search_range, search_range + 1))
        penalty = (mv_cost_lambda * (
            offsets[:, None] + offsets[None, :]).reshape(-1)
        ).astype(np.float64)
        source = currents.astype(np.int16)
        # Every candidate pixel lies in this band; int16 once, so the
        # subtract below has no mixed-dtype cast.
        band = refs_padded[
            :,
            pad - search_range:pad + search_range + height,
            pad - search_range:pad + search_range + width].astype(np.int16)

        # Per clip: the diffs of one tile row, the rect costs of one MB
        # row.
        tile_row_bytes = 2 * 4 * candidates * width
        rect_bytes = 8 * mb_cols * num_rects * candidates
        clip_chunk = max(1, min(num_clips, _SEARCH_BUDGET_BYTES
                                // max(tile_row_bytes, rect_bytes)))
        tile_chunk = 4
        while (tile_chunk > 1 and clip_chunk * tile_chunk * tile_row_bytes
               > _SEARCH_BUDGET_BYTES):
            tile_chunk //= 2
        pixel_rows = 4 * tile_chunk

        diff = np.empty((clip_chunk, pixel_rows, diameter, diameter, width),
                        dtype=np.int16)
        row_sums = np.empty((clip_chunk, tile_chunk, candidates * width),
                            dtype=np.int16)
        tiles = np.empty((clip_chunk, 4, candidates, tile_cols),
                         dtype=np.int16)
        mb_tiles = np.empty((clip_chunk, mb_cols, 4, 4, candidates))
        costs = np.empty((clip_chunk, mb_cols, num_rects, candidates))
        best_sad = np.empty((num_clips, mb_rows * mb_cols, num_rects),
                            dtype=np.int64)
        best_flat = np.empty((num_clips, mb_rows * mb_cols, num_rects),
                             dtype=np.int32)
        for first in range(0, num_clips, clip_chunk):
            count = min(clip_chunk, num_clips - first)
            clips = slice(first, first + count)
            chunk_diff = diff[:count]
            quads = chunk_diff.reshape(count, tile_chunk, 4, -1)
            chunk_rows = row_sums[:count]
            cols = chunk_rows.reshape(count, tile_chunk, candidates,
                                      tile_cols, 4)
            # (clip, MB, tile row, tile column, displacement) view of one
            # MB row's tile SADs, and its float64 copy.
            mb_view = tiles[:count].reshape(
                count, 4, candidates, mb_cols, 4).transpose(0, 3, 1, 4, 2)
            chunk_tiles = mb_tiles[:count]
            flat_tiles = chunk_tiles.reshape(count, mb_cols, MB_SIZE,
                                             candidates)
            chunk_costs = costs[:count]
            for mb_row in range(mb_rows):
                for tile_row in range(0, 4, tile_chunk):
                    top = MB_SIZE * mb_row + 4 * tile_row
                    windows = np.lib.stride_tricks.sliding_window_view(
                        band[clips, top:top + pixel_rows + diameter - 1],
                        (diameter, width), axis=(1, 2)
                    ).transpose(0, 1, 3, 2, 4)
                    np.subtract(source[clips, top:top + pixel_rows,
                                       None, None], windows, out=chunk_diff)
                    np.abs(chunk_diff, out=chunk_diff)
                    np.add(quads[:, :, 0], quads[:, :, 1], out=chunk_rows)
                    chunk_rows += quads[:, :, 2]
                    chunk_rows += quads[:, :, 3]
                    out = tiles[:count, tile_row:tile_row + tile_chunk]
                    np.add(cols[..., 0], cols[..., 1], out=out)
                    out += cols[..., 2]
                    out += cols[..., 3]
                np.copyto(chunk_tiles, mb_view)
                np.matmul(rect_mask, flat_tiles, out=chunk_costs)
                chunk_costs += penalty
                pick = np.argmin(chunk_costs, axis=-1)  # (clip, MB, rect)
                # Each winner's raw SAD, summed exactly from its tiles.
                picked_tiles = np.take_along_axis(
                    flat_tiles, pick[:, :, None, :], axis=-1)
                mbs = slice(mb_row * mb_cols, (mb_row + 1) * mb_cols)
                best_flat[clips, mbs] = pick
                best_sad[clips, mbs] = (picked_tiles
                                        * _ENCODER_RECT_MASK).sum(axis=2)
        self._best_sad = best_sad
        self._best_flat = best_flat


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


def _tile_cover_tables():
    """Which encoder rect covers each raster 4x4 tile of a macroblock.

    Returns ``(layout_cols, sub_cols, quadrant_of)``:
    ``layout_cols[p, t]`` is the :data:`ENCODER_RECTS` column of the
    rect covering tile ``t`` under ``_PTYPE_ORDER[p]`` (P8x8's row is
    unused), ``sub_cols[s, t]`` the one under sub-type
    ``_SUBTYPE_ORDER[s]`` of the quadrant holding tile ``t``, and
    ``quadrant_of[t]`` that quadrant's :data:`QUADRANT_ORIGINS` index.
    """
    def cover(rects) -> np.ndarray:
        columns = np.zeros(MB_SIZE, dtype=np.intp)
        for oy, ox, height, width in rects:
            for ty in range(oy // 4, (oy + height) // 4):
                for tx in range(ox // 4, (ox + width) // 4):
                    columns[4 * ty + tx] = _RECT_COLUMN[
                        (oy, ox, height, width)]
        return columns

    layout_cols = np.stack(
        [cover(PARTITION_RECTS[ptype]) for ptype in _PTYPE_ORDER[:3]]
        + [np.zeros(MB_SIZE, dtype=np.intp)])
    sub_cols = np.stack([
        cover([rect for quadrant in _SUB_RECTS for rect in quadrant[s]])
        for s in range(len(_SUBTYPE_ORDER))])
    quadrant_of = np.zeros(MB_SIZE, dtype=np.intp)
    for q, (qy, qx) in enumerate(QUADRANT_ORIGINS):
        for ty in range(qy // 4, qy // 4 + 2):
            quadrant_of[4 * ty + qx // 4:4 * ty + qx // 4 + 2] = q
    return layout_cols, sub_cols, quadrant_of


_LAYOUT_TILE_COLS, _SUB_TILE_COLS, _TILE_QUADRANT = _tile_cover_tables()

#: Offsets of each raster 4x4 tile inside its macroblock.
_TILE_TOPS = 4 * (np.arange(MB_SIZE) // 4)
_TILE_LEFTS = 4 * (np.arange(MB_SIZE) % 4)


def _displaced_blocks(reference: np.ndarray, shape: Tuple[int, int],
                      rows: np.ndarray, cols: np.ndarray,
                      flats: np.ndarray, diameter: int) -> np.ndarray:
    """uint8 blocks of ``shape`` from a padded ``(N, ...)`` reference
    stack at search winners' displacements.

    ``rows``/``cols`` are each block's top-left in the padded frame at
    displacement ``(-R, -R)``, and ``flats`` (leading axis: clip) the
    winners' row-major indices into the ``diameter``-wide window, which
    add ``(dy + R, dx + R)`` back. One fancy index into a sliding-window
    view gathers every block. Winners lie within the search range and
    ``pad >= search_range``, so no block needs the clamping
    :func:`~repro.codec.motion.compensate` applies.
    """
    dy, dx = np.divmod(flats, diameter)
    clips = np.arange(flats.shape[0]).reshape(
        (-1,) + (1,) * (flats.ndim - 1))
    return np.lib.stride_tricks.sliding_window_view(
        reference, shape, axis=(1, 2))[clips, rows + dy, cols + dx]


def _bidirectional_sads(source_mbs: np.ndarray, forward_ref: np.ndarray,
                        backward_ref: np.ndarray,
                        forward: BatchFrameMotionSearch,
                        backward: BatchFrameMotionSearch,
                        mb_tops: np.ndarray,
                        mb_lefts: np.ndarray) -> np.ndarray:
    """``(N, M, 41)`` SADs of every rect's bidirectional candidate.

    The candidate is the rounded average of the forward and backward
    winners' blocks, exactly what the scalar ``best_for_rect`` scores.
    Per rect shape, :func:`_displaced_blocks` gathers the winners'
    blocks of each reference for all (clip, MB, rect) triples at once.
    """
    current = source_mbs.astype(np.int16)
    sads = np.empty(current.shape[:2] + (len(ENCODER_RECTS),),
                    dtype=np.int64)
    for shape, columns, oys, oxs in _RECT_SHAPE_GROUPS:
        rows = mb_tops[:, None] + oys  # (M, rects of this shape)
        cols = mb_lefts[:, None] + oxs
        blocks = [
            _displaced_blocks(reference, shape, rows, cols,
                              search._best_flat[..., columns],
                              search._diameter)
            for reference, search in ((forward_ref, forward),
                                      (backward_ref, backward))
        ]
        averaged = (blocks[0].astype(np.int16) + blocks[1] + 1) >> 1
        targets = np.lib.stride_tricks.sliding_window_view(
            current, shape, axis=(2, 3))[:, :, oys, oxs]
        sads[..., columns] = np.abs(targets - averaged).sum(axis=(3, 4))
    return sads


def _code_residuals(currents: np.ndarray, predictions: np.ndarray,
                    qps) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Residual-code K macroblocks at once.

    ``currents`` and ``predictions`` are ``(K, 16, 16)`` uint8, ``qps``
    one QP per MB. Returns the ``(K, 16, 4, 4)`` levels, the ``(K, 4)``
    coded-quadrant flags and the ``(K, 16, 16)`` closed-loop
    reconstruction — per MB, what the reference encoder's transform and
    reconstruction steps produce.
    """
    residuals = currents.astype(np.int32) - predictions.astype(np.int32)
    levels = transform_and_quantize_many(residuals, qps)
    cbps = _coded_block_patterns_many(levels)
    recon = predictions.copy()
    coded = np.flatnonzero(cbps.any(axis=1))
    if coded.size:
        residual_pixels = reconstruct_residuals_many(
            levels[coded], np.asarray(qps)[coded])
        combined = predictions[coded].astype(np.int32) + residual_pixels
        recon[coded] = np.clip(combined, 0, 255).astype(np.uint8)
    return levels, cbps, recon


class _FrameInterTables:
    """All inter work of a batch's P- or B-frame, done once per frame.

    From the stacked SAD tables ``(N, M, 41)`` of each reference this
    derives, in a few whole-frame numpy calls, exactly what the
    reference encoder's ``_decide_inter`` computes per macroblock: each
    rect's direction (B-frames: forward by default, backward only if
    strictly lower, bidirectional only if strictly lower than that with
    ``bi_penalty`` included — the scalar ``best_for_rect`` scan), the
    winning partition layout, its cost, and the chosen sub-layouts.
    Candidate evaluation order (P16x16, P16x8, P8x16, P8x8; sub-types in
    enum order) matches the scalar strict-less-than scan, and every cost
    is an exact integer in float64 (SAD sums plus penalty products), so
    argmin reproduces the scalar tie-breaking bit for bit.

    :meth:`code_residuals` then residual-codes every (clip, MB)'s
    winning inter candidate in one pass. That is exact because an inter
    candidate reads only the source, the deblocked references and a
    source-derived QP — never the frame being reconstructed — so the
    lockstep loop is left with what does: the intra choice and compete,
    skip conversion, entropy coding and neighbor state.
    """

    def __init__(self, searches: Dict[PredictionDirection,
                                      BatchFrameMotionSearch],
                 source_stack: np.ndarray,
                 references: Dict[PredictionDirection, np.ndarray],
                 pad: int, config: EncoderConfig) -> None:
        forward = searches[PredictionDirection.FORWARD]
        backward = searches.get(PredictionDirection.BACKWARD)
        num_clips, height, width = source_stack.shape
        mb_rows, mb_cols = height // MB_SIZE, width // MB_SIZE
        self._source_mbs = source_stack.reshape(
            num_clips, mb_rows, MB_SIZE, mb_cols, MB_SIZE
        ).transpose(0, 1, 3, 2, 4).reshape(
            num_clips, mb_rows * mb_cols, MB_SIZE, MB_SIZE)
        # Padded-reference origin of each MB at displacement (-R, -R).
        origin = pad - forward.search_range
        self._mb_tops = origin + MB_SIZE * np.repeat(np.arange(mb_rows),
                                                     mb_cols)
        self._mb_lefts = origin + MB_SIZE * np.tile(np.arange(mb_cols),
                                                    mb_rows)
        self._searches = searches
        self._references = references
        sad = forward._best_sad.astype(np.float64)
        # Plain nested lists: the per-MB winner construction in the
        # lockstep loop indexes these heavily, and Python-level list
        # access beats array scalar reads there.
        self._directions: Optional[List[List[List[int]]]] = None
        self._back_flats: Optional[List[List[List[int]]]] = None
        self._direction_array: Optional[np.ndarray] = None
        if backward is not None:
            backward_sad = backward._best_sad.astype(np.float64)
            backward_wins = backward_sad < sad
            sad = np.where(backward_wins, backward_sad, sad)
            bi_cost = _bidirectional_sads(
                self._source_mbs, references[PredictionDirection.FORWARD],
                references[PredictionDirection.BACKWARD], forward,
                backward, self._mb_tops, self._mb_lefts) + config.bi_penalty
            bi_wins = bi_cost < sad
            sad = np.where(bi_wins, bi_cost, sad)
            directions = np.where(
                bi_wins, int(PredictionDirection.BIDIRECTIONAL),
                np.where(backward_wins, int(PredictionDirection.BACKWARD),
                         int(PredictionDirection.FORWARD)))
            self._direction_array = directions
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
        self._ptype_array = ptype_pick
        self._sub_array = sub_pick
        self._ptype_pick: List[List[int]] = ptype_pick.tolist()
        self._sub_pick: List[List[List[int]]] = sub_pick.tolist()
        self._flats: List[List[List[int]]] = forward._best_flat.tolist()
        self._diameter = forward._diameter
        self._radius = forward.search_range
        # Filled by code_residuals().
        self.levels: Optional[np.ndarray] = None
        self.cbps: Optional[List[List[List[bool]]]] = None
        self.recon: Optional[np.ndarray] = None

    def code_residuals(self, qps: np.ndarray) -> None:
        """Residual-code every (clip, MB)'s winning inter candidate.

        ``qps`` is the ``(N, M)`` grid of activity QPs. Sets ``levels``
        ``(N, M, 16, 4, 4)``, ``cbps`` (per clip, per MB, four coded
        flags) and ``recon`` ``(N, M, 16, 16)``, the reconstruction
        each MB gets if it stays inter (a skip MB included: its
        prediction is the 16x16 forward winner's, and it has no
        residual).
        """
        num_clips, num_mbs = qps.shape
        levels, cbps, recon = _code_residuals(
            self._source_mbs.reshape(-1, MB_SIZE, MB_SIZE),
            self._predictions().reshape(-1, MB_SIZE, MB_SIZE),
            qps.reshape(-1))
        self.levels = levels.reshape(num_clips, num_mbs, 16, 4, 4)
        self.cbps = cbps.reshape(num_clips, num_mbs, 4).tolist()
        self.recon = recon.reshape(num_clips, num_mbs, MB_SIZE, MB_SIZE)

    def _predictions(self) -> np.ndarray:
        """``(N, M, 16, 16)`` uint8 prediction of every winning inter
        decision — what :func:`~repro.codec.reconstruct.build_prediction`
        makes of :meth:`decision`, tile by tile.

        Each 4x4 tile takes the direction and motion vectors of the
        rect covering it in the winning layout; a bidirectional tile is
        the ``(f + b + 1) >> 1`` average of its two blocks.
        """
        columns = np.where(
            (self._ptype_array == _PTYPE_ORDER.index(PartitionType.P8x8)
             )[..., None],
            _SUB_TILE_COLS[self._sub_array[..., _TILE_QUADRANT],
                           np.arange(MB_SIZE)],
            _LAYOUT_TILE_COLS[self._ptype_array])  # (N, M, 16 tiles)
        rows = self._mb_tops[:, None] + _TILE_TOPS
        cols = self._mb_lefts[:, None] + _TILE_LEFTS

        def blocks(direction: PredictionDirection) -> np.ndarray:
            search = self._searches[direction]
            return _displaced_blocks(
                self._references[direction], (4, 4), rows, cols,
                np.take_along_axis(search._best_flat, columns, axis=-1),
                search._diameter)

        tiles = blocks(PredictionDirection.FORWARD)
        if self._direction_array is not None:
            backward = blocks(PredictionDirection.BACKWARD)
            averaged = ((tiles.astype(np.uint16) + backward + 1) >> 1
                        ).astype(np.uint8)
            directions = np.take_along_axis(
                self._direction_array, columns, axis=-1)[..., None, None]
            tiles = np.where(
                directions == int(PredictionDirection.FORWARD), tiles,
                np.where(directions == int(PredictionDirection.BACKWARD),
                         backward, averaged))
        num_clips, num_mbs = tiles.shape[:2]
        return tiles.reshape(num_clips, num_mbs, 4, 4, 4, 4).transpose(
            0, 1, 2, 4, 3, 5).reshape(num_clips, num_mbs, MB_SIZE, MB_SIZE)

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
_QUADRANT_BLOCKS = np.array([
    [(qy // 4 + by) * 4 + (qx // 4 + bx)
     for by in range(2) for bx in range(2)]
    for qy, qx in QUADRANT_ORIGINS
])


def _coded_block_patterns_many(levels: np.ndarray) -> np.ndarray:
    """(K, 16, 4, 4) levels -> (K, 4) per-quadrant coded flags."""
    block_coded = levels.reshape(levels.shape[0], 16, 16).any(axis=2)
    return block_coded[:, _QUADRANT_BLOCKS].any(axis=2)


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
