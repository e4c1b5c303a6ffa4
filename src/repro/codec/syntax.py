"""Macroblock syntax: the bitstream grammar.

``encode_macroblock`` and ``parse_macroblock`` are exact mirrors; they
walk the same element order, select the same contexts from the same
neighbor state, and use the same binarizations. All error-propagation
behaviour the paper studies emerges here: a flipped payload bit makes
the entropy decoder emit different bins, which changes decoded values,
which corrupts the neighbor state, which changes context selection and
metadata prediction for the rest of the slice.

Element order per macroblock:

1. ``skip_flag``                      (P/B frames only)
2. ``is_intra``                       (P/B, non-skip)
3. intra mode | partition tree + motion vector differences
4. delta-QP
5. coded block pattern (4 quadrant flags)
6. residual: per coded 4x4 block, nnz + significance map + levels
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import BitstreamError, EncoderError
from .contexts import ContextModel
from .entropy import (
    EntropyDecoder,
    EntropyEncoder,
    ResidualContexts,
    uint_bin_ops,
)
from .neighbors import FrameMbState
from .transform import (
    MAX_QP,
    MIN_QP,
    ZIGZAG_FLAT_INDEX,
    ZIGZAG_FLAT_INVERSE,
)
from .types import (
    PARTITION_RECTS,
    QUADRANT_ORIGINS,
    SUBPARTITION_RECTS,
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


def partition_rectangles(
    partition_type: PartitionType,
    sub_types: Optional[List[SubPartitionType]],
) -> List[Tuple[int, int, int, int]]:
    """Canonical (offset_y, offset_x, h, w) list for a partition layout."""
    if partition_type != PartitionType.P8x8:
        return list(PARTITION_RECTS[partition_type])
    if sub_types is None or len(sub_types) != 4:
        raise EncoderError("P8x8 requires exactly 4 sub-partition types")
    rects = []
    for (qy, qx), sub in zip(QUADRANT_ORIGINS, sub_types):
        for oy, ox, height, width in SUBPARTITION_RECTS[sub]:
            rects.append((qy + oy, qx + ox, height, width))
    return rects


#: Rectangle tuples of all 4**4 P8x8 sub-type layouts, keyed by the
#: sub-type tuple; the other layouts read ``PARTITION_RECTS`` directly.
_P8X8_RECTS: Dict[Tuple[SubPartitionType, ...],
                  Tuple[Tuple[int, int, int, int], ...]] = {
    subs: tuple(partition_rectangles(PartitionType.P8x8, list(subs)))
    for subs in itertools.product(SubPartitionType, repeat=4)
}


#: Map a quadrant index and in-quadrant block index to the MB-raster
#: index of its 4x4 coefficient block.
def _block_index(quadrant: int, block: int) -> int:
    qy, qx = QUADRANT_ORIGINS[quadrant]
    row = qy // 4 + block // 2
    col = qx // 4 + block % 2
    return row * 4 + col


def _level_bucket(position: int) -> int:
    if position == 0:
        return 0
    if position < 6:
        return 1
    return 2


#: ``_level_bucket`` for every scan position, as a table for the hot loop.
_LEVEL_BUCKETS = tuple(_level_bucket(position) for position in range(16))

#: Enum members by decoded value. The decoder clamps every value to its
#: group's range, which these tables cover, so indexing replaces the
#: far slower ``Enum(value)`` call.
_INTRA_MODES = tuple(IntraMode(value) for value in range(len(IntraMode)))
_PARTITION_TYPES = tuple(PartitionType(value)
                         for value in range(len(PartitionType)))
_SUB_TYPES = tuple(SubPartitionType(value)
                   for value in range(len(SubPartitionType)))
_DIRECTIONS = tuple(PredictionDirection(value)
                    for value in range(len(PredictionDirection)))

_FORWARD = PredictionDirection.FORWARD
_BIDIRECTIONAL = PredictionDirection.BIDIRECTIONAL
_FULL_RECT = PARTITION_RECTS[PartitionType.P16x16][0]
_ZERO_MV = MotionVector(0, 0)


class _SyntaxContexts:
    """A model's context groups, resolved once per model.

    The macroblock grammar reads a dozen groups per macroblock; looking
    each up by name per symbol is measurable at decode scale. Kept in
    the model's :attr:`~repro.codec.contexts.ContextModel.syntax_tables`
    by :func:`_contexts`.
    """

    _GROUPS = ("skip_flag", "is_intra", "intra_mode", "partition_type",
               "sub_type", "direction", "mvd_x", "mvd_y", "dqp")
    __slots__ = _GROUPS + ("residual",)

    def __init__(self, model: ContextModel) -> None:
        for name in self._GROUPS:
            setattr(self, name, model[name])
        self.residual = ResidualContexts(
            cbp=model["cbp"], nnz=model["nnz"], sig=model["sig"],
            level=model["level"],
            block_offsets=tuple(
                tuple(16 * _block_index(quadrant, block)
                      for block in range(4))
                for quadrant in range(4)),
            level_buckets=_LEVEL_BUCKETS,
        )


def _contexts(model: ContextModel) -> _SyntaxContexts:
    tables = model.syntax_tables
    resolved = tables.get("contexts")
    if resolved is None:
        resolved = tables["contexts"] = _SyntaxContexts(model)
    return resolved


def scatter_coefficients(positions: Sequence[int], levels: Sequence[int],
                         count: int) -> np.ndarray:
    """Sparse residual pairs -> ``(count, 16, 4, 4)`` int32 levels.

    ``positions`` index ``256 * macroblock + 16 * raster block + zigzag
    position`` (the :meth:`EntropyDecoder.decode_residual` layout, offset
    by 256 per macroblock); one scatter and one inverse zigzag serve any
    number of macroblocks.
    """
    flat = np.zeros(count * 256, dtype=np.int32)
    flat[positions] = levels
    return flat.reshape(count * 16, 16)[:, ZIGZAG_FLAT_INVERSE].reshape(
        count, 16, 4, 4)


# ----------------------------------------------------------------------
# Residual blocks
# ----------------------------------------------------------------------

#: Per-variant cap on cached whole-block plans. The memo lives on the
#: process-wide context model and never saturates on its own: new
#: residual patterns keep arriving (~100 per ingest-sized clip in the
#: largest variant), so an unbounded cache grows with every clip a
#: process encodes. Past the cap a block is planned on every use
#: (4-10 us, denser blocks cost more, against a 0.7 us hit); over 160
#: 64x48 and 48x32 clips the hit rate is 0.81 at this cap against
#: 0.84 unbounded.
_PLAN_CACHE_LIMIT = 1 << 10


def _block_ops(plan_cache, nnz_ops, sig_base, level_tables, level_group,
               vector: List[int]) -> List[int]:
    # ``vector`` is the block's zigzag scan as plain Python ints (the
    # caller gathers all 16 blocks of the MB in one indexing op) and the
    # op tables are hoisted out of the residual loop by the caller. The
    # whole block is planned as one bin string and the caller emits all
    # of a macroblock's blocks in a single ``encode_bins`` call —
    # identical bins, contexts, and order to symbol-by-symbol encoding,
    # without per-symbol dispatch. Bin strings depend only on the
    # values (never on coder state), so whole-block plans are memoized
    # by scan content: quantization collapses most blocks onto a small
    # set of sparse vectors.
    key = tuple(vector)
    ops = plan_cache.get(key)
    if ops is not None:
        return ops
    nonzero = 16 - vector.count(0)
    ops = list(nnz_ops[nonzero])
    append = ops.append
    extend = ops.extend
    found = 0
    for position in range(16):
        remaining = nonzero - found
        if remaining == 0:
            break
        value = vector[position]
        if 16 - position == remaining:
            significant = True  # implied: all remaining positions are set
        else:
            significant = value != 0
            append(((sig_base + position) << 1) | (1 if significant else 0))
        if significant:
            magnitude = abs(value) - 1
            table = level_tables[_LEVEL_BUCKETS[position]]
            if magnitude < len(table):
                extend(table[magnitude])
            else:
                # Rare large level: plan on the fly (validates range).
                if magnitude > level_group.max_value:
                    raise BitstreamError(
                        f"value {magnitude} exceeds group max "
                        f"{level_group.max_value}")
                extend(uint_bin_ops(
                    magnitude,
                    level_group.unary_ladder(_LEVEL_BUCKETS[position]),
                    level_group.tu_cap))
            append(-2 if value < 0 else -1)
            found += 1
    if len(plan_cache) < _PLAN_CACHE_LIMIT:
        plan_cache[key] = ops
    return ops


# ----------------------------------------------------------------------
# Macroblocks
# ----------------------------------------------------------------------

def encode_macroblock(enc: EntropyEncoder, model: ContextModel,
                      state: FrameMbState, decision: MacroblockDecision,
                      frame_type: FrameType, mb_row: int, mb_col: int,
                      min_mb_row: int) -> None:
    """Serialize one macroblock decision."""
    groups = _contexts(model)
    inter_frame = frame_type != FrameType.I
    if inter_frame:
        skip_variant = state.skip_context(mb_row, mb_col, min_mb_row)
        enc.encode_flag(decision.mode == MacroblockMode.SKIP,
                        groups.skip_flag, variant=skip_variant)
        if decision.mode == MacroblockMode.SKIP:
            return
        intra_variant = state.intra_context(mb_row, mb_col, min_mb_row)
        enc.encode_flag(decision.mode == MacroblockMode.INTRA,
                        groups.is_intra, variant=intra_variant)
    elif decision.mode != MacroblockMode.INTRA:
        raise EncoderError("I-frame macroblocks must be intra")

    if decision.mode == MacroblockMode.INTRA:
        enc.encode_uint(int(decision.intra_mode), groups.intra_mode)
    else:
        assert decision.partition_type is not None
        part_variant = state.partition_context(mb_row, mb_col, min_mb_row)
        enc.encode_uint(int(decision.partition_type),
                        groups.partition_type, variant=part_variant)
        if decision.partition_type == PartitionType.P8x8:
            assert decision.sub_types is not None
            for sub in decision.sub_types:
                enc.encode_uint(int(sub), groups.sub_type)
        pred_mv = state.predict_mv(mb_row, mb_col, min_mb_row)
        mvd_variant = state.mvd_context(mb_row, mb_col, min_mb_row)
        previous_direction = PredictionDirection.FORWARD
        for partition in decision.partitions:
            if frame_type == FrameType.B:
                variant = 0 if previous_direction == \
                    PredictionDirection.FORWARD else 1
                enc.encode_uint(int(partition.direction),
                                groups.direction, variant=variant)
                previous_direction = partition.direction
            mvd = partition.mv - pred_mv
            enc.encode_sint(mvd.dx, groups.mvd_x, variant=mvd_variant)
            enc.encode_sint(mvd.dy, groups.mvd_y, variant=mvd_variant)
            if partition.direction == PredictionDirection.BIDIRECTIONAL:
                assert partition.mv_backward is not None
                mvd_backward = partition.mv_backward - pred_mv
                enc.encode_sint(mvd_backward.dx, groups.mvd_x,
                                variant=mvd_variant)
                enc.encode_sint(mvd_backward.dy, groups.mvd_y,
                                variant=mvd_variant)

    dqp = decision.qp - state.prev_qp
    enc.encode_sint(dqp, groups.dqp, variant=state.dqp_context())

    residual = groups.residual
    for quadrant in range(4):
        enc.encode_flag(bool(decision.cbp[quadrant]), residual.cbp,
                        variant=quadrant)
    nnz_variant = state.nnz_context(mb_row, mb_col, min_mb_row)
    if decision.coefficients is not None:
        # Zigzag-scan all 16 blocks to plain Python ints in one gather.
        vectors = np.asarray(decision.coefficients).reshape(16, 16)[
            :, ZIGZAG_FLAT_INDEX].tolist()
        level_group = residual.level
        nnz_group = residual.nnz
        nnz_ops = nnz_group.uint_op_table(nnz_variant)
        sig_base = residual.sig.first_bin_context(0)
        level_tables = (level_group.uint_op_table(0),
                        level_group.uint_op_table(1),
                        level_group.uint_op_table(2))
        # Whole-block plan caches live on the model (one per nnz
        # variant — the plan's nnz prefix depends on it; everything
        # else in the plan is variant-independent).
        tables = model.syntax_tables
        caches = tables.get("block_plans")
        if caches is None:
            caches = tables["block_plans"] = tuple(
                {} for _ in range(nnz_group.variants))
        plan_cache = caches[nnz_variant]
        # All coded blocks of the MB go out in one encode_bins call:
        # the op streams concatenate exactly as the per-block calls
        # would have emitted them.
        combined: List[int] = []
        extend = combined.extend
        for quadrant in range(4):
            if not decision.cbp[quadrant]:
                continue
            for offset in residual.block_offsets[quadrant]:
                extend(_block_ops(plan_cache, nnz_ops, sig_base,
                                  level_tables, level_group,
                                  vectors[offset >> 4]))
        if combined:
            enc.encode_bins(combined)


def parse_macroblock(dec: EntropyDecoder, model: ContextModel,
                     state: FrameMbState, frame_type: FrameType,
                     mb_row: int, mb_col: int, min_mb_row: int
                     ) -> Tuple[MacroblockDecision, List[int], List[int]]:
    """Parse one macroblock; mirrors :func:`encode_macroblock` exactly.

    Returns ``(decision, positions, levels)``: the decision carries no
    ``coefficients``; the residual stays as the sparse pairs of
    :meth:`EntropyDecoder.decode_residual` (empty for a skip), so a
    frame decoder can scatter all of its macroblocks at once.

    Never fails on corrupted input: every decoded value is clamped to
    its legal range and every loop is bounded.
    """
    groups = _contexts(model)
    if frame_type != FrameType.I:
        if dec.decode_flag(groups.skip_flag, state.skip_context(
                mb_row, mb_col, min_mb_row)):
            return MacroblockDecision(
                mode=MacroblockMode.SKIP,
                qp=state.prev_qp,
                partition_type=PartitionType.P16x16,
                partitions=[InterPartition(
                    rect=_FULL_RECT,
                    mv=state.predict_mv(mb_row, mb_col, min_mb_row))],
            ), [], []
        is_intra = dec.decode_flag(groups.is_intra, state.intra_context(
            mb_row, mb_col, min_mb_row))
    else:
        is_intra = True

    intra_mode: Optional[IntraMode] = None
    partition_type: Optional[PartitionType] = None
    sub_types: Optional[List[SubPartitionType]] = None
    partitions: List[InterPartition] = []
    if is_intra:
        intra_mode = _INTRA_MODES[dec.decode_uint(groups.intra_mode)]
    else:
        partition_type = _PARTITION_TYPES[dec.decode_uint(
            groups.partition_type,
            state.partition_context(mb_row, mb_col, min_mb_row))]
        if partition_type == PartitionType.P8x8:
            sub_types = [_SUB_TYPES[dec.decode_uint(groups.sub_type)]
                         for _ in range(4)]
            rects = _P8X8_RECTS[tuple(sub_types)]
        else:
            rects = PARTITION_RECTS[partition_type]
        pred_mv = state.predict_mv(mb_row, mb_col, min_mb_row)
        pred_dy, pred_dx = pred_mv.dy, pred_mv.dx
        mvd_variant = state.mvd_context(mb_row, mb_col, min_mb_row)
        decode_sint = dec.decode_sint
        mvd_x_group = groups.mvd_x
        mvd_y_group = groups.mvd_y
        b_frame = frame_type == FrameType.B
        direction = _FORWARD
        for rect in rects:
            if b_frame:
                # Context: the previous partition's direction.
                direction = _DIRECTIONS[dec.decode_uint(
                    groups.direction, 0 if direction == _FORWARD else 1)]
            mvd_x = decode_sint(mvd_x_group, mvd_variant)
            mvd_y = decode_sint(mvd_y_group, mvd_variant)
            mv_backward = None
            if direction == _BIDIRECTIONAL:
                back_x = decode_sint(mvd_x_group, mvd_variant)
                back_y = decode_sint(mvd_y_group, mvd_variant)
                mv_backward = MotionVector(pred_dy + back_y,
                                           pred_dx + back_x)
            partitions.append(InterPartition(
                rect=rect,
                mv=MotionVector(pred_dy + mvd_y, pred_dx + mvd_x),
                direction=direction,
                mv_backward=mv_backward,
            ))

    dqp = dec.decode_sint(groups.dqp, state.dqp_context())
    qp = min(max(state.prev_qp + dqp, MIN_QP), MAX_QP)
    cbp, positions, levels = dec.decode_residual(
        groups.residual, state.nnz_context(mb_row, mb_col, min_mb_row))
    return MacroblockDecision(
        mode=MacroblockMode.INTRA if is_intra else MacroblockMode.INTER,
        qp=qp,
        intra_mode=intra_mode,
        partition_type=partition_type,
        sub_types=sub_types,
        partitions=partitions,
        cbp=cbp,  # type: ignore[arg-type]
    ), positions, levels


def finalize_macroblock(state: FrameMbState, decision: MacroblockDecision,
                        mb_row: int, mb_col: int,
                        nonzero: Optional[int] = None) -> None:
    """Update neighbor state after one MB; shared by encoder and decoder.

    ``nonzero`` is the macroblock's nonzero-coefficient count when the
    caller already knows it (a parse returns it as ``len(levels)``);
    otherwise it is counted from ``decision.coefficients``.
    """
    if decision.mode == MacroblockMode.INTRA:
        representative_mv = _ZERO_MV
    else:
        representative_mv = decision.partitions[0].mv
    if nonzero is None:
        nonzero = (0 if decision.coefficients is None
                   else int(np.count_nonzero(decision.coefficients)))
    dqp = 0 if decision.mode == MacroblockMode.SKIP else (
        decision.qp - state.prev_qp)
    state.record(mb_row, mb_col, decision.mode, representative_mv,
                 decision.qp, dqp, nonzero)
