"""Multi-level cell (MLC) phase-change memory model.

Models the substrate of Guo et al. that the paper adopts (Sections 2.2
and 6.2): PCM cells whose resistance range is divided into 8 levels
(3 bits/cell, 3x the density of SLC), written with Gaussian programming
noise, and subject to upward resistance drift that grows
logarithmically with time. Drift is multiplicative on the stored analog
value — ``v(t) = v(0) * (1 + (c + delta) * log10(1 + t))`` — so it has
a deterministic component (mean drift, proportionally stronger for
higher-resistance levels) and a stochastic component (per-cell
drift-coefficient variation ``delta``), and it carries the programming
noise along with the signal. The read-time uncertainty of a cell
therefore grows with both its level and the time since it was written.

Three mitigations are modelled:

* **non-uniform level placement**: written levels are positioned so
  that (a) the *mean* drift is compensated exactly — drifted means land
  on the intended read-time targets at scrub time — and (b) read-time
  targets are spaced proportionally to each level's read-time noise,
  equalizing per-level error rates (the paper's "biasing the level
  ranges ... to equalize write/read error rates with drift error
  rates");
* **drift-aware read references**: reads at an arbitrary retention time
  use :meth:`MLCCellModel.thresholds_at`, which re-centers the decision
  thresholds on the drifted level means for that time, so
  :meth:`MLCCellModel.raw_bit_error_rate` is monotone non-decreasing in
  retention time (fresh cells read better, aged cells worse — never the
  other way around);
* **scrubbing**: cells are rewritten every ``scrub_interval_days``,
  bounding the accumulated stochastic drift (the rewrite cadence itself
  is enforced by the device layer's scrub policy; here the interval
  anchors the level placement).

With the default parameters the analytic raw bit error rate at the
3-month scrub point is ~1e-3, the paper's headline substrate figure.
Gray-coded level labels make a one-level misread cost exactly one bit
flip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from ..errors import StorageError


#: Raw bit error rates already derived, keyed by the cell parameters and
#: the age: every device read asks for one, and a store's reads ask for
#: the same few ages over and over. Decay and repair read many ages, so
#: a full memo starts over. Dictionary reads and writes are atomic, so
#: threads share it without a lock (two may derive the same rate, which
#: is the same float). It is module-level: no pickle or copy carries it.
_RATE_MEMO: Dict[Tuple, float] = {}
_RATE_MEMO_LIMIT = 1 << 12


def gray_code(index: int) -> int:
    """Binary-reflected Gray code of ``index``."""
    return index ^ (index >> 1)


def gray_decode(code: int) -> int:
    """Inverse of :func:`gray_code`."""
    value = code
    shift = 1
    while (code >> shift) > 0:
        value ^= code >> shift
        shift += 1
    return value


@dataclass
class MLCCellModel:
    """An L-level PCM cell population.

    The normalized resistance range is [0, 1]. A write targets a level
    position and lands at ``position + N(0, write_sigma / drift_gain)``.
    Between write and read (``t`` days apart) the stored analog value is
    multiplied by ``1 + (drift_coefficient + N(0, drift_sigma)) *
    log10(1+t)`` — deterministic mean drift plus per-cell variation,
    both proportionally stronger for higher-resistance levels, and both
    amplifying the programming noise along with the signal.

    ``write_sigma`` is parameterized in *scrub-read-time* units: the
    drift-amplified programming noise equals exactly ``write_sigma`` at
    the scrub read point, which anchors the historical calibration (the
    default model's raw BER at 90 days is bit-identical to the
    pre-retention-timeline model) while keeping the error rate monotone
    in retention time.

    Attributes:
        levels: number of resistance levels (8 in the paper).
        write_sigma: programming noise std-dev at the scrub read point
            (normalized units), calibrated so the default 8-level cell
            hits ~1e-3 raw BER at the 3-month scrub point (see
            :func:`calibrated_model`).
        drift_coefficient: mean log-time drift strength.
        drift_sigma: per-cell drift-coefficient spread; this is what
            makes longer scrub intervals costlier.
        scrub_interval_days: rewrite period bounding drift.
    """

    levels: int = 8
    write_sigma: float = 0.0229
    drift_coefficient: float = 0.02
    drift_sigma: float = 0.008
    scrub_interval_days: float = 90.0

    #: Target (written) level positions, optimized in __post_init__.
    level_positions: np.ndarray = field(init=False)
    #: Level means at scrub-time read (after deterministic drift).
    read_targets: np.ndarray = field(init=False)
    #: Read-time decision thresholds.
    read_thresholds: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if self.levels < 2 or self.levels & (self.levels - 1):
            raise StorageError(
                f"levels must be a power of two >= 2, got {self.levels}"
            )
        if self.write_sigma <= 0:
            raise StorageError("write_sigma must be positive")
        if self.drift_sigma < 0:
            raise StorageError("drift_sigma must be non-negative")
        self._optimize_levels()

    # -- placement ---------------------------------------------------------

    @property
    def bits_per_cell(self) -> int:
        return int(math.log2(self.levels))

    def _log_time(self, t_days: float) -> float:
        return math.log10(1.0 + max(t_days, 0.0))

    def _drift_gain(self) -> float:
        """Mean multiplicative drift at the scrub read point."""
        return 1.0 + self.drift_coefficient * self._log_time(
            self.scrub_interval_days)

    def _sigma_at(self, write_positions: np.ndarray,
                  t_days: float) -> np.ndarray:
        """Read-time std-dev per level after ``t_days`` of drift.

        Two terms: the programming noise, amplified multiplicatively by
        the mean drift (normalized so it equals ``write_sigma`` exactly
        at the scrub read point), and the stochastic drift spread from
        per-cell drift-coefficient variation.
        """
        log_t = self._log_time(t_days)
        amplified = (self.write_sigma
                     * (1.0 + self.drift_coefficient * log_t)
                     / self._drift_gain())
        spread = self.drift_sigma * write_positions * log_t
        return np.sqrt(amplified ** 2 + spread ** 2)

    def thresholds_at(self, t_days: Optional[float] = None) -> np.ndarray:
        """Drift-aware read thresholds for a read after ``t_days``.

        Re-centers the decision thresholds on the drifted level means at
        the requested retention time, splitting each gap in proportion
        to the two levels' read-time noise (the same rule the scrub-time
        placement uses). At the scrub point this returns the placement's
        own ``read_thresholds`` verbatim, so default reads are
        bit-identical to the fixed-threshold model.
        """
        if t_days is None:
            return self.read_thresholds
        t_days = float(t_days)
        if t_days == self.scrub_interval_days:
            return self.read_thresholds
        log_t = self._log_time(t_days)
        means = self.level_positions * (1.0
                                        + self.drift_coefficient * log_t)
        sigmas = self._sigma_at(self.level_positions, t_days)
        return (means[:-1] + (means[1:] - means[:-1])
                * sigmas[:-1] / (sigmas[:-1] + sigmas[1:]))

    def _optimize_levels(self) -> None:
        """Error-equalizing placement (Guo et al.'s biasing).

        Read-time targets are spaced proportionally to the sum of
        adjacent levels' read-time noise (fixed-point iteration), then
        written positions divide out the deterministic drift so the
        drifted means land exactly on the targets at scrub time.
        Thresholds split each gap in proportion to the two levels'
        noise, equalizing the two-sided tail probabilities.
        """
        gain = self._drift_gain()
        targets = np.linspace(0.0, 1.0, self.levels)
        for _ in range(25):
            write_positions = targets / gain
            sigmas = self._sigma_at(write_positions,
                                    self.scrub_interval_days)
            gaps = sigmas[:-1] + sigmas[1:]
            cumulative = np.concatenate([[0.0], np.cumsum(gaps)])
            targets = cumulative / cumulative[-1]
        self.read_targets = targets
        self.level_positions = targets / gain
        sigmas = self._sigma_at(self.level_positions,
                                self.scrub_interval_days)
        self.read_thresholds = (
            targets[:-1] + (targets[1:] - targets[:-1])
            * sigmas[:-1] / (sigmas[:-1] + sigmas[1:])
        )

    # -- analytic error rates -----------------------------------------------

    def level_error_rates(self, t_days: Optional[float] = None) -> np.ndarray:
        """Per-level misread probability after ``t_days`` of drift.

        Reads are drift-aware (see :meth:`thresholds_at`), so the rates
        are monotone non-decreasing in retention time.
        """
        if t_days is None:
            t_days = self.scrub_interval_days
        log_t = self._log_time(t_days)
        # Python floats round exactly as float64 scalars do, so the
        # scalar tails below are bit-identical to an elementwise numpy
        # evaluation of the same expressions, at a fraction of its cost.
        means = (self.level_positions
                 * (1.0 + self.drift_coefficient * log_t)).tolist()
        sigmas = self._sigma_at(self.level_positions, t_days).tolist()
        thresholds = self.thresholds_at(t_days).tolist()
        root2 = math.sqrt(2.0)
        rates = np.empty(self.levels)
        for index in range(self.levels):
            mean, sigma = means[index], sigmas[index]
            # Standard normal CDF of each tail: 0.5 * (1 + erf(z / sqrt 2)).
            below = (0.5 * (1.0 + math.erf(
                (thresholds[index - 1] - mean) / sigma / root2))
                if index > 0 else 0.0)
            above = (1.0 - 0.5 * (1.0 + math.erf(
                (thresholds[index] - mean) / sigma / root2))
                if index < self.levels - 1 else 0.0)
            rates[index] = below + above
        return rates

    def cell_error_rate(self, t_days: Optional[float] = None) -> float:
        """Mean misread probability across levels (uniform level usage)."""
        return float(np.mean(self.level_error_rates(t_days)))

    def raw_bit_error_rate(self, t_days: Optional[float] = None) -> float:
        """Bit error rate, assuming Gray coding (1 flip per misread).

        Derived once per cell parameters and age (see ``_RATE_MEMO``);
        a repeat returns the float the first call computed.
        """
        key = (self.levels, self.write_sigma, self.drift_coefficient,
               self.drift_sigma, self.scrub_interval_days, t_days)
        rate = _RATE_MEMO.get(key)
        if rate is None:
            rate = self.cell_error_rate(t_days) / self.bits_per_cell
            if len(_RATE_MEMO) >= _RATE_MEMO_LIMIT:
                _RATE_MEMO.clear()
            _RATE_MEMO[key] = rate
        return rate

    # -- Monte Carlo write/read ------------------------------------------------

    def write_and_read(self, bits: np.ndarray, rng: np.random.Generator,
                       t_days: Optional[float] = None) -> np.ndarray:
        """Store a bit array in cells and read it back with errors.

        ``bits`` length must be a multiple of ``bits_per_cell``.
        """
        bits = np.asarray(bits, dtype=np.uint8)
        per_cell = self.bits_per_cell
        if bits.size % per_cell:
            raise StorageError(
                f"bit count {bits.size} not a multiple of {per_cell}"
            )
        if t_days is None:
            t_days = self.scrub_interval_days
        log_t = self._log_time(t_days)
        groups = bits.reshape(-1, per_cell)
        weights = 1 << np.arange(per_cell - 1, -1, -1)
        values = groups @ weights
        gray_to_level = np.array(
            [gray_decode(v) for v in range(self.levels)])
        level_to_gray = np.array(
            [gray_code(v) for v in range(self.levels)])
        levels = gray_to_level[values]
        positions = self.level_positions[levels]
        # write_sigma is in scrub-read-time units; divide out the mean
        # drift gain to get the physical write-time magnitude.
        analog = positions + rng.normal(
            0.0, self.write_sigma / self._drift_gain(), size=levels.shape)
        drift_coeffs = self.drift_coefficient
        if self.drift_sigma > 0:
            drift_coeffs = rng.normal(self.drift_coefficient,
                                      self.drift_sigma, size=levels.shape)
        analog = analog * (1.0 + drift_coeffs * log_t)
        read_levels = np.searchsorted(self.thresholds_at(t_days), analog)
        read_values = level_to_gray[read_levels]
        out = ((read_values[:, None] >> np.arange(per_cell - 1, -1, -1))
               & 1).astype(np.uint8)
        return out.reshape(-1)

    # -- density -----------------------------------------------------------------

    def cells_for_bits(self, num_bits: int) -> int:
        """Cells needed to store ``num_bits`` raw bits."""
        return -(-num_bits // self.bits_per_cell)


def calibrated_model(target_raw_ber: float = 1e-3, levels: int = 8,
                     scrub_interval_days: float = 90.0,
                     drift_coefficient: float = 0.02,
                     drift_sigma: float = 0.008) -> MLCCellModel:
    """Binary-search ``write_sigma`` to hit a target raw BER at scrub time.

    This is the tuning loop a substrate designer runs: fix the scrub
    interval and density, then find the programming-noise level the
    error budget tolerates.
    """
    low, high = 1e-5, 0.5
    model = MLCCellModel(levels=levels,
                         scrub_interval_days=scrub_interval_days,
                         drift_coefficient=drift_coefficient,
                         drift_sigma=drift_sigma)
    for _ in range(80):
        mid = 0.5 * (low + high)
        model = MLCCellModel(levels=levels, write_sigma=mid,
                             drift_coefficient=drift_coefficient,
                             drift_sigma=drift_sigma,
                             scrub_interval_days=scrub_interval_days)
        if model.raw_bit_error_rate() > target_raw_ber:
            high = mid
        else:
            low = mid
    return model
