"""Context-adaptive binary arithmetic coding (CABAC-style).

A carry-aware binary range coder with per-context adaptive probabilities,
structurally equivalent to H.264's CABAC: syntax bins are coded under
adaptive contexts, equiprobable bins take a bypass path, and the coder
state is reset at every slice.

The probability estimator is the classic 11-bit shift-register update
(as used by LZMA's range coder) rather than H.264's 64-state table; both
adapt geometrically and both exhibit the error behaviour the paper
studies: a single flipped payload bit desynchronizes the decoder and
corrupts the adaptive contexts for the remainder of the slice.

Error hardening: the decoder reads zero bytes past the end of the
payload and clamps all decoded integers, so corrupted streams decode to
garbage — never to a crash or an unbounded loop.
"""

from __future__ import annotations

from typing import List, Tuple

from ..errors import BitstreamError
from .entropy import (
    MAX_EG_PREFIX,
    ContextGroup,
    EntropyDecoder,
    EntropyEncoder,
    ResidualContexts,
)

_PROB_BITS = 11
_PROB_ONE = 1 << _PROB_BITS          # 2048
_PROB_INIT = _PROB_ONE // 2          # p(0) = 0.5 initially
_MOVE_BITS = 5                       # adaptation rate
_TOP = 1 << 24
_MASK32 = 0xFFFFFFFF


class CabacEncoder(EntropyEncoder):
    """Binary range encoder with adaptive contexts."""

    def __init__(self, num_contexts: int) -> None:
        self._probs: List[int] = [_PROB_INIT] * num_contexts
        self._low = 0
        self._range = _MASK32
        self._cache = 0
        self._cache_size = 1
        self._out = bytearray()
        self._finished = False

    # -- range coder core ----------------------------------------------

    def _shift_low(self) -> None:
        if self._low < 0xFF000000 or self._low > _MASK32:
            carry = self._low >> 32
            self._out.append((self._cache + carry) & 0xFF)
            for _ in range(self._cache_size - 1):
                self._out.append((0xFF + carry) & 0xFF)
            self._cache = (self._low >> 24) & 0xFF
            self._cache_size = 0
        self._cache_size += 1
        self._low = (self._low << 8) & _MASK32

    def _encode_context_bin(self, bit: int, ctx: int) -> None:
        prob = self._probs[ctx]
        bound = (self._range >> _PROB_BITS) * prob
        if bit == 0:
            self._range = bound
            self._probs[ctx] = prob + ((_PROB_ONE - prob) >> _MOVE_BITS)
        else:
            self._low += bound
            self._range -= bound
            self._probs[ctx] = prob - (prob >> _MOVE_BITS)
        while self._range < _TOP:
            self._shift_low()
            self._range = (self._range << 8) & _MASK32

    def encode_bypass(self, bit: int) -> None:
        self._range >>= 1
        if bit:
            self._low += self._range
        while self._range < _TOP:
            self._shift_low()
            self._range = (self._range << 8) & _MASK32

    def encode_bypass_bits(self, value: int, count: int) -> None:
        # Same per-bit range-coder steps as encode_bypass, run in one
        # call to amortize Python dispatch over whole bin strings.
        for shift in range(count - 1, -1, -1):
            self._range >>= 1
            if (value >> shift) & 1:
                self._low += self._range
            while self._range < _TOP:
                self._shift_low()
                self._range = (self._range << 8) & _MASK32

    # -- EntropyEncoder interface ---------------------------------------

    def encode_flag(self, value: bool, group: ContextGroup,
                    variant: int = 0) -> None:
        # Single context bin, inlined: flags are the most frequent symbol
        # (skip / intra / cbp / sig) and the extra dispatch through
        # _encode_context_bin is measurable at batch-encode scale.
        ctx = group.first_bin_context(variant)
        prob = self._probs[ctx]
        bound = (self._range >> _PROB_BITS) * prob
        if value:
            self._low += bound
            self._range -= bound
            self._probs[ctx] = prob - (prob >> _MOVE_BITS)
        else:
            self._range = bound
            self._probs[ctx] = prob + ((_PROB_ONE - prob) >> _MOVE_BITS)
        while self._range < _TOP:
            self._shift_low()
            self._range = (self._range << 8) & _MASK32

    def encode_uint(self, value: int, group: ContextGroup,
                    variant: int = 0) -> None:
        """Specialized TU + EG0 encoder: same bins as the base-class
        implementation, emitted by one loop over local coder state.

        Entropy coding is the one per-clip stage the batch encoder
        cannot turn into numpy calls, and the generic path pays two-plus
        method calls per bin. Keeping ``low``/``range``/the byte cache
        in locals for the whole symbol cuts that to plain integer ops;
        the emitted stream is bit-for-bit identical (asserted by the
        CABAC equivalence tests against the base-class path).
        """
        if value < 0:
            raise BitstreamError(f"encode_uint got negative value {value}")
        if value > group.max_value:
            raise BitstreamError(
                f"value {value} exceeds group max {group.max_value}"
            )
        ladder = group.unary_ladder(variant)
        tu_cap = group.tu_cap
        probs = self._probs
        low = self._low
        rng = self._range
        cache = self._cache
        cache_size = self._cache_size
        out = self._out

        prefix = value if value < tu_cap else tu_cap
        for position in range(prefix):
            ctx = ladder[position]
            prob = probs[ctx]
            bound = (rng >> _PROB_BITS) * prob
            low += bound
            rng -= bound
            probs[ctx] = prob - (prob >> _MOVE_BITS)
            while rng < _TOP:
                if low < 0xFF000000 or low > _MASK32:
                    carry = low >> 32
                    out.append((cache + carry) & 0xFF)
                    for _ in range(cache_size - 1):
                        out.append((0xFF + carry) & 0xFF)
                    cache = (low >> 24) & 0xFF
                    cache_size = 0
                cache_size += 1
                low = (low << 8) & _MASK32
                rng = (rng << 8) & _MASK32
        if value < tu_cap:
            # Terminating zero bin of the truncated-unary prefix.
            ctx = ladder[value]
            prob = probs[ctx]
            bound = (rng >> _PROB_BITS) * prob
            rng = bound
            probs[ctx] = prob + ((_PROB_ONE - prob) >> _MOVE_BITS)
            while rng < _TOP:
                if low < 0xFF000000 or low > _MASK32:
                    carry = low >> 32
                    out.append((cache + carry) & 0xFF)
                    for _ in range(cache_size - 1):
                        out.append((0xFF + carry) & 0xFF)
                    cache = (low >> 24) & 0xFF
                    cache_size = 0
                cache_size += 1
                low = (low << 8) & _MASK32
                rng = (rng << 8) & _MASK32
        else:
            # EG0 bypass suffix: ``length`` ones, a zero, ``length``
            # suffix bits — the exact bulk bin string of
            # ``_encode_eg0_bypass``.
            shifted = value - tu_cap + 1
            length = shifted.bit_length() - 1
            if length > MAX_EG_PREFIX:
                raise BitstreamError(
                    f"value {value - tu_cap} too large for EG0 suffix")
            pattern = ((((1 << length) - 1) << 1) << length) \
                | (shifted - (1 << length))
            for shift in range(2 * length, -1, -1):
                rng >>= 1
                if (pattern >> shift) & 1:
                    low += rng
                while rng < _TOP:
                    if low < 0xFF000000 or low > _MASK32:
                        carry = low >> 32
                        out.append((cache + carry) & 0xFF)
                        for _ in range(cache_size - 1):
                            out.append((0xFF + carry) & 0xFF)
                        cache = (low >> 24) & 0xFF
                        cache_size = 0
                    cache_size += 1
                    low = (low << 8) & _MASK32
                    rng = (rng << 8) & _MASK32
        self._low = low
        self._range = rng
        self._cache = cache
        self._cache_size = cache_size

    def encode_bins(self, ops) -> None:
        """Batched mirror of the base-class ``encode_bins``.

        One loop over pre-planned bins with the whole coder state in
        locals; the bin arithmetic is exactly ``_encode_context_bin`` /
        ``encode_bypass``, so the stream is bit-for-bit identical to
        dispatching each bin through those methods.
        """
        probs = self._probs
        low = self._low
        rng = self._range
        cache = self._cache
        cache_size = self._cache_size
        out = self._out
        # Module constants as locals: this loop runs once per bin and
        # global loads are measurable at batch-encode scale.
        prob_bits = _PROB_BITS
        move_bits = _MOVE_BITS
        prob_one = _PROB_ONE
        top = _TOP
        mask32 = _MASK32
        for op in ops:
            if op >= 0:
                ctx = op >> 1
                prob = probs[ctx]
                bound = (rng >> prob_bits) * prob
                if op & 1:
                    low += bound
                    rng -= bound
                    probs[ctx] = prob - (prob >> move_bits)
                else:
                    rng = bound
                    probs[ctx] = prob + ((prob_one - prob) >> move_bits)
            else:
                rng >>= 1
                if op != -1:
                    low += rng
            while rng < top:
                if low < 0xFF000000 or low > mask32:
                    carry = low >> 32
                    out.append((cache + carry) & 0xFF)
                    for _ in range(cache_size - 1):
                        out.append((0xFF + carry) & 0xFF)
                    cache = (low >> 24) & 0xFF
                    cache_size = 0
                cache_size += 1
                low = (low << 8) & mask32
                rng = (rng << 8) & mask32
        self._low = low
        self._range = rng
        self._cache = cache
        self._cache_size = cache_size

    @property
    def bits_emitted(self) -> int:
        # The range coder buffers up to cache_size + 4 bytes internally;
        # reported positions therefore lag the bins by a few bytes, which
        # only blurs MB bit-range attribution, never stream correctness.
        return 8 * len(self._out)

    def finish(self) -> bytes:
        if not self._finished:
            for _ in range(5):
                self._shift_low()
            self._finished = True
        return bytes(self._out)


class CabacDecoder(EntropyDecoder):
    """Binary range decoder mirroring :class:`CabacEncoder`."""

    def __init__(self, data: bytes, num_contexts: int) -> None:
        self._data = data
        self._pos = 0
        self._probs: List[int] = [_PROB_INIT] * num_contexts
        self._range = _MASK32
        self._code = 0
        # The first byte is the encoder's spurious initial cache byte (0
        # for well-formed streams); masking keeps corrupted streams sane.
        for _ in range(5):
            self._code = ((self._code << 8) | self._next_byte()) & _MASK32

    @property
    def bits_consumed(self) -> int:
        # The range register reads ahead (5 bytes at init, then byte by
        # byte), so this over-reports actual consumption by up to a few
        # bytes — a conservative bound for concealment salvage.
        return 8 * self._pos

    def _next_byte(self) -> int:
        if self._pos >= len(self._data):
            self._pos += 1
            return 0
        byte = self._data[self._pos]
        self._pos += 1
        return byte

    def _decode_context_bin(self, ctx: int) -> int:
        prob = self._probs[ctx]
        bound = (self._range >> _PROB_BITS) * prob
        if self._code < bound:
            bit = 0
            self._range = bound
            self._probs[ctx] = prob + ((_PROB_ONE - prob) >> _MOVE_BITS)
        else:
            bit = 1
            self._code -= bound
            self._range -= bound
            self._probs[ctx] = prob - (prob >> _MOVE_BITS)
        while self._range < _TOP:
            self._code = ((self._code << 8) | self._next_byte()) & _MASK32
            self._range = (self._range << 8) & _MASK32
        return bit

    def decode_bypass(self) -> int:
        self._range >>= 1
        if self._code >= self._range:
            self._code -= self._range
            bit = 1
        else:
            bit = 0
        while self._range < _TOP:
            self._code = ((self._code << 8) | self._next_byte()) & _MASK32
            self._range = (self._range << 8) & _MASK32
        return bit

    def decode_bypass_bits(self, count: int) -> int:
        # Bulk mirror of decode_bypass; bit-for-bit the same reads.
        value = 0
        for _ in range(count):
            self._range >>= 1
            if self._code >= self._range:
                self._code -= self._range
                value = (value << 1) | 1
            else:
                value = value << 1
            while self._range < _TOP:
                self._code = (((self._code << 8) | self._next_byte())
                              & _MASK32)
                self._range = (self._range << 8) & _MASK32
        return value

    def decode_flag(self, group: ContextGroup, variant: int = 0) -> bool:
        # Inlined mirror of the encoder's flag fast path.
        ctx = group.first_bin_context(variant)
        prob = self._probs[ctx]
        bound = (self._range >> _PROB_BITS) * prob
        if self._code < bound:
            bit = False
            self._range = bound
            self._probs[ctx] = prob + ((_PROB_ONE - prob) >> _MOVE_BITS)
        else:
            bit = True
            self._code -= bound
            self._range -= bound
            self._probs[ctx] = prob - (prob >> _MOVE_BITS)
        while self._range < _TOP:
            self._code = ((self._code << 8) | self._next_byte()) & _MASK32
            self._range = (self._range << 8) & _MASK32
        return bit

    def decode_uint(self, group: ContextGroup, variant: int = 0) -> int:
        """Specialized mirror of :meth:`CabacEncoder.encode_uint`.

        Reads exactly the bins the generic base-class path reads (same
        contexts, same renormalization byte fetches), with the register
        state held in locals for the whole symbol. This is the decoder
        half of the entropy hot path; clean-stream decodes and corrupted
        -stream clamping behave identically to the base implementation.
        """
        ladder = group.unary_ladder(variant)
        tu_cap = group.tu_cap
        max_value = group.max_value
        probs = self._probs
        rng = self._range
        code = self._code
        data = self._data
        pos = self._pos
        data_len = len(data)

        value = 0
        terminated = False
        while value < tu_cap:
            ctx = ladder[value]
            prob = probs[ctx]
            bound = (rng >> _PROB_BITS) * prob
            if code < bound:
                rng = bound
                probs[ctx] = prob + ((_PROB_ONE - prob) >> _MOVE_BITS)
                bit = 0
            else:
                code -= bound
                rng -= bound
                probs[ctx] = prob - (prob >> _MOVE_BITS)
                bit = 1
            while rng < _TOP:
                byte = data[pos] if pos < data_len else 0
                pos += 1
                code = ((code << 8) | byte) & _MASK32
                rng = (rng << 8) & _MASK32
            if not bit:
                terminated = True
                break
            value += 1
        if not terminated:
            # EG0 bypass suffix: count the ones prefix (bounded), then
            # read that many suffix bits — the same bits the generic
            # ``_decode_eg0_bypass`` consumes.
            length = 0
            while True:
                rng >>= 1
                if code >= rng:
                    code -= rng
                    bit = 1
                else:
                    bit = 0
                while rng < _TOP:
                    byte = data[pos] if pos < data_len else 0
                    pos += 1
                    code = ((code << 8) | byte) & _MASK32
                    rng = (rng << 8) & _MASK32
                if not bit or length >= MAX_EG_PREFIX:
                    break
                length += 1
            suffix = 0
            for _ in range(length):
                rng >>= 1
                if code >= rng:
                    code -= rng
                    suffix = (suffix << 1) | 1
                else:
                    suffix <<= 1
                while rng < _TOP:
                    byte = data[pos] if pos < data_len else 0
                    pos += 1
                    code = ((code << 8) | byte) & _MASK32
                    rng = (rng << 8) & _MASK32
            value += (1 << length) - 1 + suffix
        self._range = rng
        self._code = code
        self._pos = pos
        return value if value < max_value else max_value

    def decode_residual(self, contexts: ResidualContexts, nnz_variant: int
                        ) -> Tuple[Tuple[bool, ...], List[int], List[int]]:
        """Fused mirror of :meth:`EntropyDecoder.decode_residual`.

        The decode-side counterpart of :meth:`CabacEncoder.encode_bins`:
        the four CBP flags and every coded block's nnz, significance
        map, levels and signs are decoded by one loop with the register
        state in locals, reading exactly the bins, contexts and
        renormalization bytes of the generic symbol-by-symbol path (the
        equivalence tests compare the two after every macroblock,
        corrupted payloads included). The rare Exp-Golomb suffix of a
        large nnz or level goes through the shared
        ``_decode_eg0_bypass`` with the registers written back first.
        """
        probs = self._probs
        rng = self._range
        code = self._code
        data = self._data
        pos = self._pos
        data_len = len(data)
        prob_bits = _PROB_BITS
        move_bits = _MOVE_BITS
        prob_one = _PROB_ONE
        top = _TOP
        mask32 = _MASK32

        cbp_base = contexts.cbp.first_bin_context(0)
        cbp = []
        for ctx in range(cbp_base, cbp_base + 4):
            prob = probs[ctx]
            bound = (rng >> prob_bits) * prob
            if code < bound:
                rng = bound
                probs[ctx] = prob + ((prob_one - prob) >> move_bits)
                cbp.append(False)
            else:
                code -= bound
                rng -= bound
                probs[ctx] = prob - (prob >> move_bits)
                cbp.append(True)
            while rng < top:
                byte = data[pos] if pos < data_len else 0
                pos += 1
                code = ((code << 8) | byte) & mask32
                rng = (rng << 8) & mask32

        positions: List[int] = []
        levels: List[int] = []
        if True in cbp:
            nnz_group = contexts.nnz
            nnz_ladder = nnz_group.unary_ladder(nnz_variant)
            nnz_cap = nnz_group.tu_cap
            nnz_max = nnz_group.max_value
            sig_base = contexts.sig.first_bin_context(0)
            level_cap = contexts.level.tu_cap
            level_max = contexts.level.max_value
            level_ladders = contexts.level_ladders
            for quadrant in range(4):
                if not cbp[quadrant]:
                    continue
                for offset in contexts.block_offsets[quadrant]:
                    # nnz: truncated-unary prefix, EG0 suffix at the cap.
                    nonzero = 0
                    while nonzero < nnz_cap:
                        ctx = nnz_ladder[nonzero]
                        prob = probs[ctx]
                        bound = (rng >> prob_bits) * prob
                        if code < bound:
                            rng = bound
                            probs[ctx] = prob + ((prob_one - prob)
                                                 >> move_bits)
                            bit = 0
                        else:
                            code -= bound
                            rng -= bound
                            probs[ctx] = prob - (prob >> move_bits)
                            bit = 1
                        while rng < top:
                            byte = data[pos] if pos < data_len else 0
                            pos += 1
                            code = ((code << 8) | byte) & mask32
                            rng = (rng << 8) & mask32
                        if not bit:
                            break
                        nonzero += 1
                    else:
                        self._range, self._code, self._pos = rng, code, pos
                        nonzero += self._decode_eg0_bypass()
                        rng, code, pos = self._range, self._code, self._pos
                    if nonzero > nnz_max:
                        nonzero = nnz_max

                    remaining = nonzero
                    position = 0
                    while remaining:
                        if 16 - position != remaining:
                            # Significance flag; the last ``remaining``
                            # positions are implied once they must all
                            # be set.
                            ctx = sig_base + position
                            prob = probs[ctx]
                            bound = (rng >> prob_bits) * prob
                            if code < bound:
                                rng = bound
                                probs[ctx] = prob + ((prob_one - prob)
                                                     >> move_bits)
                                bit = 0
                            else:
                                code -= bound
                                rng -= bound
                                probs[ctx] = prob - (prob >> move_bits)
                                bit = 1
                            while rng < top:
                                byte = data[pos] if pos < data_len else 0
                                pos += 1
                                code = ((code << 8) | byte) & mask32
                                rng = (rng << 8) & mask32
                            if not bit:
                                position += 1
                                continue
                        # Magnitude - 1: truncated unary, EG0 suffix.
                        ladder = level_ladders[position]
                        magnitude = 0
                        while magnitude < level_cap:
                            ctx = ladder[magnitude]
                            prob = probs[ctx]
                            bound = (rng >> prob_bits) * prob
                            if code < bound:
                                rng = bound
                                probs[ctx] = prob + ((prob_one - prob)
                                                     >> move_bits)
                                bit = 0
                            else:
                                code -= bound
                                rng -= bound
                                probs[ctx] = prob - (prob >> move_bits)
                                bit = 1
                            while rng < top:
                                byte = data[pos] if pos < data_len else 0
                                pos += 1
                                code = ((code << 8) | byte) & mask32
                                rng = (rng << 8) & mask32
                            if not bit:
                                break
                            magnitude += 1
                        else:
                            self._range, self._code, self._pos = \
                                rng, code, pos
                            magnitude += self._decode_eg0_bypass()
                            rng, code, pos = \
                                self._range, self._code, self._pos
                        if magnitude > level_max:
                            magnitude = level_max
                        magnitude += 1
                        # Sign: one bypass bin.
                        rng >>= 1
                        if code >= rng:
                            code -= rng
                            magnitude = -magnitude
                        while rng < top:
                            byte = data[pos] if pos < data_len else 0
                            pos += 1
                            code = ((code << 8) | byte) & mask32
                            rng = (rng << 8) & mask32
                        positions.append(offset + position)
                        levels.append(magnitude)
                        remaining -= 1
                        position += 1
        self._range = rng
        self._code = code
        self._pos = pos
        return tuple(cbp), positions, levels
