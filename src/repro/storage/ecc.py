"""Error-correction scheme registry and analytic rates.

Reproduces the paper's Figure 8: BCH-X codes over 512-bit data blocks on
a substrate with raw bit error rate 1e-3, listing storage overhead
(10*X/512) and correction capability (the uncorrectable-block rate from
the binomial tail). The registry also carries the "no correction"
scheme (raw cells) and answers the per-importance-class lookups that
Table 1 and the density accounting need.

The codes are self-correcting: a BCH-X block protects its 512 data bits
*and* its own 10*X parity bits, so the binomial tail is taken over the
full block length — matching the paper's "which include both the data
block and the code metadata".
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..errors import StorageError

#: Raw bit error rate of the paper's 8-level PCM substrate.
DEFAULT_RAW_BER = 1e-3

#: Data block size the paper protects (bits).
DEFAULT_BLOCK_DATA_BITS = 512

#: Parity bits per corrected error for the GF(2^10) BCH family.
PARITY_BITS_PER_T = 10


@functools.lru_cache(maxsize=1 << 12)
def binomial_tail(n: int, p: float, t: int) -> float:
    """P[Binomial(n, p) > t], computed stably in log space.

    Memoized by ``(n, p, t)`` — for a block failure rate, by scheme and
    raw rate — since every coded device read asks for one and a store's
    reads ask for the same few. The memo is bounded (decay reads many
    ages), safe across threads, and module-level, so no pickle or copy
    carries it; ``binomial_tail.__wrapped__`` is the uncached sum.
    """
    if not 0.0 <= p <= 1.0:
        raise StorageError(f"probability {p} out of range")
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0 if t < n else 0.0
    # Sum the lower tail and subtract; for small p the upper tail is tiny,
    # so sum the upper tail directly instead (fewer, dominant terms).
    log_p = math.log(p)
    log_q = math.log1p(-p)
    total = 0.0
    for k in range(t + 1, n + 1):
        log_term = (math.lgamma(n + 1) - math.lgamma(k + 1)
                    - math.lgamma(n - k + 1) + k * log_p + (n - k) * log_q)
        term = math.exp(log_term)
        total += term
        if term < total * 1e-18:
            break
    return min(total, 1.0)


def conditional_error_count(n: int, p: float, t: int, u: float) -> int:
    """Sample ``K ~ Binomial(n, p)`` conditioned on ``K > t`` by inverse
    CDF, driven by the uniform variate ``u`` in ``[0, 1)``.

    This is the surviving-raw-error count of a failed ECC block: the
    analytic device already knows the block failed (that is what
    conditioning on ``K > t`` encodes), and ``u`` tells it *how badly*.
    At low raw BER the answer is almost surely ``t + 1`` (the dominant
    failure pattern); at high BER the conditional mass shifts upward —
    matching what the exact mode's physical round trip produces.

    Driving this from an externally supplied ``u`` (rather than drawing
    internally) lets the device reuse the same uniform that decided the
    failure event, keeping its RNG stream layout unchanged.
    """
    if not 0.0 <= u < 1.0:
        raise StorageError(f"conditional variate {u} out of [0, 1)")
    if not 0 <= t < n:
        raise StorageError(f"threshold t={t} out of range for n={n}")
    tail = binomial_tail(n, p, t)
    if tail <= 0.0:
        return t + 1
    log_p = math.log(p)
    log_q = math.log1p(-p)
    cumulative = 0.0
    for k in range(t + 1, n + 1):
        log_term = (math.lgamma(n + 1) - math.lgamma(k + 1)
                    - math.lgamma(n - k + 1) + k * log_p + (n - k) * log_q)
        cumulative += math.exp(log_term) / tail
        if cumulative > u:
            return k
    return n


@dataclass(frozen=True)
class ECCScheme:
    """One row of the paper's error-correction menu.

    ``t = 0`` denotes raw, uncorrected storage.
    """

    name: str
    t: int
    data_bits: int = DEFAULT_BLOCK_DATA_BITS

    @property
    def parity_bits(self) -> int:
        return PARITY_BITS_PER_T * self.t

    @property
    def block_bits(self) -> int:
        return self.data_bits + self.parity_bits

    @property
    def overhead(self) -> float:
        """Storage overhead: parity bits per data bit (Figure 8 left axis)."""
        return self.parity_bits / self.data_bits

    def block_failure_rate(self, raw_ber: float = DEFAULT_RAW_BER) -> float:
        """Probability a protected block ends up uncorrectable.

        This is the paper's "correction capability" (Figure 8 right
        axis) and the "error rate" column of Table 1: raw cells fail per
        bit at ``raw_ber``; coded blocks fail when more than ``t`` of
        their ``block_bits`` cells flip.
        """
        if self.t == 0:
            return raw_ber
        return binomial_tail(self.block_bits, raw_ber, self.t)

    def residual_bit_error_rate(self, raw_ber: float = DEFAULT_RAW_BER
                                ) -> float:
        """Expected uncorrected bit errors per stored data bit.

        Finer-grained than :meth:`block_failure_rate`: conditioned on a
        block failing, about ``t + 1`` raw errors survive.
        """
        if self.t == 0:
            return raw_ber
        return (self.block_failure_rate(raw_ber) * (self.t + 1)
                / self.block_bits)


#: The "no protection" scheme (raw substrate error rate).
NONE_SCHEME = ECCScheme(name="None", t=0)

#: Strongest scheme: the paper's precise storage (10^-16 with BCH-16).
PRECISE_SCHEME = ECCScheme(name="BCH-16", t=16)

#: The menu of Figure 8, plus raw storage.
SCHEME_MENU: List[ECCScheme] = [
    NONE_SCHEME,
    ECCScheme(name="BCH-6", t=6),
    ECCScheme(name="BCH-7", t=7),
    ECCScheme(name="BCH-8", t=8),
    ECCScheme(name="BCH-9", t=9),
    ECCScheme(name="BCH-10", t=10),
    ECCScheme(name="BCH-11", t=11),
    PRECISE_SCHEME,
]

_SCHEMES_BY_NAME: Dict[str, ECCScheme] = {s.name: s for s in SCHEME_MENU}


def scheme_by_name(name: str) -> ECCScheme:
    try:
        return _SCHEMES_BY_NAME[name]
    except KeyError:
        raise StorageError(
            f"unknown ECC scheme {name!r}; known: {sorted(_SCHEMES_BY_NAME)}"
        ) from None


def scheme_for_target_rate(target_rate: float,
                           raw_ber: float = DEFAULT_RAW_BER,
                           menu: Optional[List[ECCScheme]] = None
                           ) -> ECCScheme:
    """Weakest menu scheme achieving at most ``target_rate`` failures."""
    candidates = sorted(menu or SCHEME_MENU, key=lambda s: s.t)
    for scheme in candidates:
        if scheme.block_failure_rate(raw_ber) <= target_rate:
            return scheme
    raise StorageError(
        f"no scheme in the menu reaches failure rate {target_rate} "
        f"at raw BER {raw_ber}"
    )


def figure8_table(raw_ber: float = DEFAULT_RAW_BER) -> List[dict]:
    """The rows of the paper's Figure 8 (overhead and capability)."""
    rows = []
    for scheme in SCHEME_MENU:
        if scheme.t == 0:
            continue
        rows.append({
            "scheme": scheme.name,
            "t": scheme.t,
            "overhead_percent": 100.0 * scheme.overhead,
            "uncorrectable_rate": scheme.block_failure_rate(raw_ber),
        })
    return rows
