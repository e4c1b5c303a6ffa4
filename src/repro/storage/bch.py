"""Binary BCH codes: real encode/decode.

Systematic, shortened binary BCH codes over GF(2^10) (native length
1023). With 512 data bits, BCH-t adds exactly ``10*t`` parity bits —
reproducing the storage overheads of the paper's Figure 8 (BCH-6:
60/512 = 11.7% ... BCH-16: 160/512 = 31.3%).

Decoding is the textbook chain: syndromes -> Berlekamp–Massey ->
Chien search; errors are bit flips at the located positions (binary
code, no Forney magnitudes needed). ``decode`` reports failure when more
than ``t`` errors corrupted the block (detected by an inconsistent
locator), in which case the received bits are returned uncorrected —
modelling the paper's "uncorrectable error" events.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Tuple

import numpy as np

from ..errors import StorageError
from ..obs import trace as obs_trace
from .gf import GF2m


def _polynomial_remainder_bits(dividend: int, dividend_bits: int,
                               divisor: int, divisor_degree: int) -> int:
    """Remainder of GF(2) polynomial division, operands as Python ints.

    Bit i of an operand is the x^i coefficient.
    """
    remainder = dividend
    for shift in range(dividend_bits - 1, divisor_degree - 1, -1):
        if (remainder >> shift) & 1:
            remainder ^= divisor << (shift - divisor_degree)
    return remainder


@dataclass(frozen=True)
class DecodeResult:
    """Outcome of one block decode.

    Three outcomes are distinguishable:

    * ``success`` and the data is right — a clean or corrected block;
    * ``detected_uncorrectable`` — the decoder *knows* it failed (the
      locator was inconsistent: degree above ``t``, Chien search found
      fewer roots than the locator degree, or the residual syndromes
      did not vanish after correction) and returned the received data
      bits untouched, never a partial correction;
    * ``success`` but the data is wrong — a *silent miscorrection*
      (2t+1 or more raw errors landed on another codeword's correction
      sphere). Only a caller with ground truth can observe this; the
      exact-mode device counts them.
    """

    data: np.ndarray          #: corrected data bits (uint8 array)
    corrected_errors: int     #: number of bit flips undone
    success: bool             #: False when the error count exceeded t
    #: True when the decoder itself detected the failure and returned
    #: the received bits uncorrected (always equals ``not success`` for
    #: this decoder: every failure path is a detected one).
    detected_uncorrectable: bool = False


class BCHCode:
    """A shortened binary BCH code correcting up to ``t`` errors."""

    def __init__(self, t: int, data_bits: int = 512, m: int = 10) -> None:
        if t < 1:
            raise StorageError(f"t must be >= 1, got {t}")
        self.t = t
        self.data_bits = data_bits
        self.field = _shared_field(m)
        self.n_native = self.field.order  # 2^m - 1
        generator_int, degree = _build_generator(t, m)
        self.parity_bits = degree
        self._generator_int = generator_int
        if data_bits + self.parity_bits > self.n_native:
            raise StorageError(
                f"data_bits={data_bits} with t={t} exceeds native length "
                f"{self.n_native}"
            )

    @property
    def block_bits(self) -> int:
        """Total codeword size (data + parity)."""
        return self.data_bits + self.parity_bits

    @property
    def overhead(self) -> float:
        """Parity bits per data bit (the paper's 'storage overhead')."""
        return self.parity_bits / self.data_bits

    # -- encoding ------------------------------------------------------------

    def encode(self, data: np.ndarray) -> np.ndarray:
        """Systematic encode: returns ``data || parity`` as a bit array."""
        with obs_trace.span("bch.encode", t=self.t):
            return self._encode(data)

    def _encode(self, data: np.ndarray) -> np.ndarray:
        bits = np.asarray(data, dtype=np.uint8)
        if bits.shape != (self.data_bits,):
            raise StorageError(
                f"expected {self.data_bits} data bits, got {bits.shape}"
            )
        # Codeword c(x) = d(x) * x^parity + (d(x) * x^parity mod g(x)).
        # Bit order: data bit j is the coefficient of x^(block-1-j), so
        # the first data bit is the highest power (conventional layout).
        data_int = 0
        for bit in bits:
            data_int = (data_int << 1) | int(bit)
        shifted = data_int << self.parity_bits
        remainder = _polynomial_remainder_bits(
            shifted, self.block_bits, self._generator_int, self.parity_bits)
        parity = np.zeros(self.parity_bits, dtype=np.uint8)
        for j in range(self.parity_bits):
            parity[j] = (remainder >> (self.parity_bits - 1 - j)) & 1
        return np.concatenate([bits, parity])

    # -- decoding ------------------------------------------------------------

    def _syndromes(self, received: np.ndarray) -> List[int]:
        """S_j = r(alpha^j) for j = 1..2t, via the set bit positions."""
        positions = np.nonzero(received)[0]
        # Bit at array index i is the coefficient of x^(block-1-i).
        exponents_base = self.block_bits - 1 - positions
        syndromes = []
        for j in range(1, 2 * self.t + 1):
            if positions.size == 0:
                syndromes.append(0)
                continue
            terms = self.field.alpha_powers(exponents_base * j)
            value = 0
            for term in terms:
                value ^= int(term)
            syndromes.append(value)
        return syndromes

    def _berlekamp_massey(self, syndromes: List[int]) -> List[int]:
        """Error-locator polynomial sigma(x) from the syndrome sequence."""
        field = self.field
        sigma = [1]
        previous = [1]
        length = 0
        shift = 1
        previous_discrepancy = 1
        for step in range(2 * self.t):
            discrepancy = syndromes[step]
            for i in range(1, length + 1):
                if i < len(sigma) and sigma[i]:
                    discrepancy ^= field.multiply(sigma[i],
                                                  syndromes[step - i])
            if discrepancy == 0:
                shift += 1
                continue
            scale = field.divide(discrepancy, previous_discrepancy)
            candidate = list(sigma)
            needed = len(previous) + shift
            if needed > len(candidate):
                candidate.extend([0] * (needed - len(candidate)))
            for i, coefficient in enumerate(previous):
                if coefficient:
                    candidate[i + shift] ^= field.multiply(scale, coefficient)
            if 2 * length <= step:
                previous = list(sigma)
                previous_discrepancy = discrepancy
                length = step + 1 - length
                shift = 1
            else:
                shift += 1
            sigma = candidate
        return sigma

    def _chien_search(self, sigma: List[int]) -> List[int]:
        """All codeword bit positions whose inversion sigma locates."""
        degree = len(sigma) - 1
        field = self.field
        # Roots of sigma are alpha^(-e) for error exponents e; find all
        # j with sigma(alpha^j) == 0, then e = order - j. Evaluate
        # sigma at every alpha^j at once, one vector op per coefficient:
        # sigma_k * alpha^(j*k) = alpha^(log(sigma_k) + j*k).
        exponents = np.arange(field.order, dtype=np.int64)
        values = np.full(field.order, sigma[0], dtype=np.int64)
        for k in range(1, degree + 1):
            coefficient = sigma[k]
            if not coefficient:
                continue
            values ^= field.alpha_powers(
                exponents * k + _log_of(field, coefficient))
        roots = np.nonzero(values == 0)[0]
        positions = []
        for j in roots:
            error_exponent = (field.order - int(j)) % field.order
            position = self.block_bits - 1 - error_exponent
            if 0 <= position < self.block_bits:
                positions.append(position)
        return positions

    def decode(self, received: np.ndarray) -> DecodeResult:
        """Correct up to ``t`` bit errors in a received codeword."""
        with obs_trace.span("bch.decode", t=self.t):
            return self._decode(received)

    def _decode(self, received: np.ndarray) -> DecodeResult:
        bits = np.asarray(received, dtype=np.uint8).copy()
        if bits.shape != (self.block_bits,):
            raise StorageError(
                f"expected {self.block_bits} bits, got {bits.shape}"
            )
        syndromes = self._syndromes(bits)
        if not any(syndromes):
            return DecodeResult(bits[:self.data_bits], 0, True)
        sigma = self._berlekamp_massey(syndromes)
        degree = len(sigma) - 1
        while degree > 0 and sigma[degree] == 0:
            degree -= 1
        sigma = sigma[:degree + 1]
        positions = self._chien_search(sigma)
        if degree == 0 or degree > self.t or len(positions) != degree:
            # More than t errors, detected: a locator of impossible
            # degree, or a Chien search finding fewer roots than the
            # locator degree (sigma does not split over the field).
            # Never apply a partial correction — return bits unchanged.
            return DecodeResult(bits[:self.data_bits], 0, False,
                                detected_uncorrectable=True)
        for position in positions:
            bits[position] ^= 1
        # Verify: residual syndromes must vanish, otherwise the applied
        # correction was wrong — undo it and report detected failure.
        if any(self._syndromes(bits)):
            return DecodeResult(
                np.asarray(received, dtype=np.uint8)[:self.data_bits],
                0, False, detected_uncorrectable=True)
        return DecodeResult(bits[:self.data_bits], len(positions), True)


def _gf2_poly_multiply(a: List[int], b: List[int]) -> List[int]:
    """Multiply two binary polynomials (coefficient lists over GF(2))."""
    result = [0] * (len(a) + len(b) - 1)
    for i, coeff_a in enumerate(a):
        if coeff_a:
            for j, coeff_b in enumerate(b):
                if coeff_b:
                    result[i + j] ^= 1
    return result


def _log_of(field: GF2m, value: int) -> int:
    return int(field._log[value])  # noqa: SLF001 - intra-package helper


@lru_cache(maxsize=None)
def _shared_field(m: int) -> GF2m:
    return GF2m(m)


def _coset_representative(exponent: int, order: int) -> int:
    members = []
    current = exponent % order
    while current not in members:
        members.append(current)
        current = (current * 2) % order
    return min(members)


@lru_cache(maxsize=None)
def _build_generator(t: int, m: int) -> Tuple[int, int]:
    """LCM of minimal polynomials of alpha^1, alpha^3, ... alpha^(2t-1).

    Returns (bit-packed polynomial, degree). Cached per ``(t, m)`` — the
    generator does not depend on ``data_bits`` (shortening only drops
    leading data positions), so every ``BCHCode`` instantiation with the
    same field and correction strength reuses one construction.
    """
    field = _shared_field(m)
    seen = set()
    generator = [1]
    for i in range(1, 2 * t, 2):
        coset_rep = _coset_representative(i, field.order)
        if coset_rep in seen:
            continue
        seen.add(coset_rep)
        minimal = field.minimal_polynomial(i)
        generator = _gf2_poly_multiply(generator, minimal)
    generator_int = 0
    for degree, coefficient in enumerate(generator):
        if coefficient:
            generator_int |= 1 << degree
    return generator_int, len(generator) - 1


@lru_cache(maxsize=None)
def get_bch_code(t: int, data_bits: int = 512, m: int = 10) -> BCHCode:
    """Shared BCH codec instances (generator construction is costly)."""
    return BCHCode(t, data_bits=data_bits, m=m)
