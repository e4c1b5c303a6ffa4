"""Entropy-coding interface shared by the CABAC and CAVLC backends.

The syntax layer speaks three symbol kinds: context-coded flags,
context-coded unsigned integers (truncated-unary prefix + Exp-Golomb
bypass suffix, H.264's UEGk shape), and raw bypass bits (signs). Both
backends implement this interface; the CABAC backend uses the contexts
for adaptive probability modelling, the CAVLC backend ignores them and
emits static variable-length codes.

Decoders are hardened for corrupted input: every decoded integer is
clamped to its syntax element's legal range and every variable-length
loop is bounded, so decoding garbage terminates and yields in-range
values — exactly the "misinterpretation, not failure" behaviour the
paper's error study relies on.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Tuple

from ..errors import BitstreamError
from ..memo import Derived

#: Longest Exp-Golomb prefix a decoder will follow before giving up and
#: clamping. Bounds worst-case work on corrupted streams.
MAX_EG_PREFIX = 24

#: Largest value with a precomputed ``encode_bins`` op string in
#: :meth:`ContextGroup.uint_op_table`; larger values are planned on the
#: fly (they are rare: quantized levels are overwhelmingly small).
UINT_OP_TABLE_LIMIT = 128


def uint_bin_ops(value: int, ladder, tu_cap: int) -> tuple:
    """The ``encode_bins`` op string for one unsigned value.

    Same TU + EG0 binarization as :meth:`EntropyEncoder.encode_uint`:
    context bins are ``(ctx << 1) | bit``, bypass bins ``-1 - bit``.
    The op string depends only on the value and the group's ladder —
    never on coder state — which is what makes it precomputable.
    """
    if value < tu_cap:
        ops = [(ladder[position] << 1) | 1 for position in range(value)]
        ops.append(ladder[value] << 1)
        return tuple(ops)
    ops = [(ladder[position] << 1) | 1 for position in range(tu_cap)]
    shifted = value - tu_cap + 1
    length = shifted.bit_length() - 1
    if length > MAX_EG_PREFIX:
        raise BitstreamError(
            f"value {value - tu_cap} too large for EG0 suffix")
    pattern = ((((1 << length) - 1) << 1) << length) \
        | (shifted - (1 << length))
    ops.extend(-1 - ((pattern >> shift) & 1)
               for shift in range(2 * length, -1, -1))
    return tuple(ops)


@dataclass(frozen=True)
class ContextGroup(Derived):
    """A named block of adaptive contexts for one syntax element.

    Attributes:
        base: index of the group's first context in the backend's table.
        variants: number of alternative contexts for the *first* bin,
            selected from neighboring macroblock state (this is what
            makes the coder "context adaptive" across MBs and what
            propagates misinterpretation when state diverges).
        tail: contexts shared by subsequent truncated-unary bins.
        tu_cap: truncated-unary cap; magnitudes beyond it continue in a
            bypass Exp-Golomb suffix.
        max_value: decoder-side clamp for the element's legal range.

    Its ladders and op tables are cached properties, which pickles leave
    out: which entries exist depends on what the process has coded.
    """

    base: int
    variants: int = 1
    tail: int = 0
    tu_cap: int = 1
    max_value: int = 1

    @property
    def size(self) -> int:
        return self.variants + self.tail

    def first_bin_context(self, variant: int) -> int:
        if not 0 <= variant < self.variants:
            raise BitstreamError(
                f"context variant {variant} out of range 0..{self.variants - 1}"
            )
        return self.base + variant

    def tail_context(self, bin_index: int) -> int:
        """Context for unary bin ``bin_index`` (>= 1)."""
        if self.tail == 0:
            # Groups without tail contexts reuse the variant-0 context.
            return self.base
        return self.base + self.variants + min(bin_index - 1, self.tail - 1)

    @cached_property
    def _ladders(self) -> Tuple[tuple, ...]:
        return tuple(
            (self.first_bin_context(v),)
            + tuple(self.tail_context(index)
                    for index in range(1, self.tu_cap))
            for v in range(self.variants)
        )

    @cached_property
    def _uint_op_tables(self) -> Dict[int, tuple]:
        return {}

    def unary_ladder(self, variant: int) -> tuple:
        """Context index per truncated-unary bin position 0..tu_cap-1.

        The TU binarization selects contexts purely from the bin
        position — never from coder state — so the whole ladder is
        computed once per group and indexed in the backends' hot
        loops. ``ladder[b]`` serves both the ``1`` bin at position
        ``b`` and the terminating ``0`` bin of value ``b``. Cached on
        the instance because hashing the group per symbol costs more
        than the lookup it saves.
        """
        if not 0 <= variant < self.variants:
            raise BitstreamError(
                f"context variant {variant} out of range 0..{self.variants - 1}"
            )
        return self._ladders[variant]

    def uint_op_table(self, variant: int) -> tuple:
        """Precomputed ``encode_bins`` op strings for small values.

        ``table[v]`` is :func:`uint_bin_ops` for value ``v``, covering
        ``0..min(max_value, UINT_OP_TABLE_LIMIT)``; callers fall back to
        on-the-fly planning beyond the table. Cached on the instance
        like :meth:`unary_ladder`.
        """
        table = self._uint_op_tables.get(variant)
        if table is None:
            ladder = self.unary_ladder(variant)
            limit = min(self.max_value, UINT_OP_TABLE_LIMIT)
            table = self._uint_op_tables[variant] = tuple(
                uint_bin_ops(value, ladder, self.tu_cap)
                for value in range(limit + 1))
        return table


@dataclass(frozen=True)
class ResidualContexts:
    """The residual grammar of one macroblock, resolved for a backend.

    The syntax layer owns the layout and builds this once per context
    model; :meth:`EntropyDecoder.decode_residual` only follows the
    tables.

    Attributes:
        cbp: coded-block-pattern flags, variant = quadrant.
        nnz: per-block nonzero count, variant from neighbor density.
        sig: significance flag, variant = zigzag position.
        level: magnitude minus one, variant = ``level_buckets[position]``.
        block_offsets: per quadrant, ``16 * raster block index`` of its
            four 4x4 blocks in coding order.
        level_buckets: level-context variant per zigzag position.
        level_ladders: the level ladder per zigzag position (derived).
    """

    cbp: ContextGroup
    nnz: ContextGroup
    sig: ContextGroup
    level: ContextGroup
    block_offsets: Tuple[Tuple[int, ...], ...]
    level_buckets: Tuple[int, ...]
    level_ladders: Tuple[Tuple[int, ...], ...] = field(init=False)

    def __post_init__(self) -> None:
        # A block has 16 positions: its nonzero count, significance
        # contexts and level buckets must all cover exactly those.
        if (len(self.block_offsets) != 4 or self.cbp.variants < 4
                or self.nnz.max_value > 16 or self.sig.variants < 16
                or len(self.level_buckets) != 16):
            raise BitstreamError("context groups do not fit the "
                                 "4-quadrant, 16-position residual layout")
        object.__setattr__(self, "level_ladders", tuple(
            self.level.unary_ladder(bucket)
            for bucket in self.level_buckets))


class EntropyEncoder(abc.ABC):
    """Serializer of syntax symbols into a byte payload."""

    @abc.abstractmethod
    def encode_flag(self, value: bool, group: ContextGroup,
                    variant: int = 0) -> None:
        """Encode one binary flag."""

    @abc.abstractmethod
    def encode_bypass(self, bit: int) -> None:
        """Encode one equiprobable raw bit (signs)."""

    @abc.abstractmethod
    def _encode_context_bin(self, bit: int, ctx: int) -> None:
        """Encode one bin under the given context index."""

    @property
    @abc.abstractmethod
    def bits_emitted(self) -> int:
        """Bits flushed to the output so far (used for MB bit ranges)."""

    @abc.abstractmethod
    def finish(self) -> bytes:
        """Flush and return the complete payload."""

    # -- bulk bypass ----------------------------------------------------

    def encode_bypass_bits(self, value: int, count: int) -> None:
        """Encode ``count`` bypass bits of ``value``, MSB first.

        Backends override this with a batched path; the default loops,
        so overriding never changes the emitted stream — only the
        Python-level call overhead.
        """
        for shift in range(count - 1, -1, -1):
            self.encode_bypass((value >> shift) & 1)

    # -- planned bin strings -------------------------------------------

    def encode_bins(self, ops) -> None:
        """Encode a pre-planned bin string.

        ``ops`` holds one int per bin: a context bin is
        ``(ctx << 1) | bit``, a bypass bin is ``-1 - bit``. The syntax
        layer uses this to emit a whole residual block in one backend
        call. The default dispatches bin by bin, so backends overriding
        it with a batched loop (CABAC) never change the emitted stream —
        only the Python call overhead.
        """
        for op in ops:
            if op >= 0:
                self._encode_context_bin(op & 1, op >> 1)
            else:
                self.encode_bypass(-1 - op)

    # -- shared binarization -------------------------------------------

    def encode_uint(self, value: int, group: ContextGroup,
                    variant: int = 0) -> None:
        """Encode an unsigned integer with TU-prefix + EG0 bypass suffix."""
        if value < 0:
            raise BitstreamError(f"encode_uint got negative value {value}")
        if value > group.max_value:
            raise BitstreamError(
                f"value {value} exceeds group max {group.max_value}"
            )
        prefix = min(value, group.tu_cap)
        for bin_index in range(prefix):
            ctx = (group.first_bin_context(variant) if bin_index == 0
                   else group.tail_context(bin_index))
            self._encode_context_bin(1, ctx)
        if value < group.tu_cap:
            ctx = (group.first_bin_context(variant) if value == 0
                   else group.tail_context(value))
            self._encode_context_bin(0, ctx)
        else:
            self._encode_eg0_bypass(value - group.tu_cap)

    def encode_sint(self, value: int, group: ContextGroup,
                    variant: int = 0) -> None:
        """Encode a signed integer as magnitude + bypass sign."""
        magnitude = abs(value)
        self.encode_uint(magnitude, group, variant)
        if magnitude:
            self.encode_bypass(1 if value < 0 else 0)

    def _encode_eg0_bypass(self, value: int) -> None:
        """Order-0 Exp-Golomb in bypass bins.

        Emitted as one bulk bin string — ``length`` ones, a zero, then
        the ``length`` suffix bits — identical to bit-by-bit emission.
        """
        shifted = value + 1
        length = shifted.bit_length() - 1
        if length > MAX_EG_PREFIX:
            raise BitstreamError(f"value {value} too large for EG0 suffix")
        prefix = ((1 << length) - 1) << 1
        suffix = shifted - (1 << length)
        self.encode_bypass_bits((prefix << length) | suffix,
                                2 * length + 1)


class EntropyDecoder(abc.ABC):
    """Deserializer mirroring :class:`EntropyEncoder`."""

    @property
    @abc.abstractmethod
    def bits_consumed(self) -> int:
        """Upper bound on payload bits consumed so far.

        Used by the decoder's error-concealment salvage: macroblocks
        whose decode finished with ``bits_consumed`` at or before the
        first damaged bit provably never saw damaged input. Backends may
        over-report (the CABAC register reads ahead a few bytes), which
        only makes salvage conservative — never unsound.
        """
        ...

    @abc.abstractmethod
    def decode_flag(self, group: ContextGroup, variant: int = 0) -> bool:
        ...

    @abc.abstractmethod
    def decode_bypass(self) -> int:
        ...

    @abc.abstractmethod
    def _decode_context_bin(self, ctx: int) -> int:
        ...

    # -- bulk bypass ----------------------------------------------------

    def decode_bypass_bits(self, count: int) -> int:
        """Decode ``count`` bypass bits as one MSB-first integer.

        Mirror of :meth:`EntropyEncoder.encode_bypass_bits`; backends
        override it with a batched path that reads the same bits.
        """
        value = 0
        for _ in range(count):
            value = (value << 1) | self.decode_bypass()
        return value

    # -- shared binarization -------------------------------------------

    def decode_uint(self, group: ContextGroup, variant: int = 0) -> int:
        """Decode an unsigned integer; clamps to the group's legal range."""
        value = 0
        while value < group.tu_cap:
            ctx = (group.first_bin_context(variant) if value == 0
                   else group.tail_context(value))
            if not self._decode_context_bin(ctx):
                return min(value, group.max_value)
            value += 1
        value += self._decode_eg0_bypass()
        return min(value, group.max_value)

    def decode_residual(self, contexts: ResidualContexts, nnz_variant: int
                        ) -> Tuple[Tuple[bool, ...], List[int], List[int]]:
        """Decode one macroblock's coded block pattern and residual.

        Returns ``(cbp, positions, levels)``: the four quadrant flags,
        then one ``(position, level)`` pair per nonzero coefficient as
        two parallel lists, where ``position`` is ``16 * raster block
        index + zigzag position`` within the macroblock. Every decoded
        level is nonzero, so ``len(levels)`` is the macroblock's
        nonzero-coefficient count.

        This generic path decodes symbol by symbol through
        :meth:`decode_flag` / :meth:`decode_uint` / :meth:`decode_bypass`
        and is the reference a backend's fused override must match bin
        for bin.
        """
        cbp = tuple(self.decode_flag(contexts.cbp, variant=quadrant)
                    for quadrant in range(4))
        positions: List[int] = []
        levels: List[int] = []
        for quadrant in range(4):
            if not cbp[quadrant]:
                continue
            for offset in contexts.block_offsets[quadrant]:
                self._decode_block(contexts, nnz_variant, offset,
                                   positions, levels)
        return cbp, positions, levels

    def _decode_block(self, contexts: ResidualContexts, nnz_variant: int,
                      offset: int, positions: List[int],
                      levels: List[int]) -> None:
        """One 4x4 block: nnz, significance map, then magnitude + sign
        per significant position (the last ones implied by nnz)."""
        nonzero = self.decode_uint(contexts.nnz, variant=nnz_variant)
        found = 0
        for position in range(16):
            remaining = nonzero - found
            if remaining == 0:
                break
            if 16 - position == remaining:
                significant = True
            else:
                significant = self.decode_flag(contexts.sig,
                                               variant=position)
            if significant:
                magnitude = self.decode_uint(
                    contexts.level,
                    variant=contexts.level_buckets[position]) + 1
                if self.decode_bypass():
                    magnitude = -magnitude
                positions.append(offset + position)
                levels.append(magnitude)
                found += 1

    def decode_sint(self, group: ContextGroup, variant: int = 0) -> int:
        magnitude = self.decode_uint(group, variant)
        if magnitude and self.decode_bypass():
            return -magnitude
        return magnitude

    def _decode_eg0_bypass(self) -> int:
        length = 0
        while self.decode_bypass() and length < MAX_EG_PREFIX:
            length += 1
        suffix = self.decode_bypass_bits(length)
        return (1 << length) - 1 + suffix
