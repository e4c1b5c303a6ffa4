"""The approximate storage device: MLC cells + per-stream ECC.

Bytes go in; bytes come back, possibly with uncorrectable errors. Two
fidelity modes:

* **analytic** (default): per protected 512-bit block, draw an
  uncorrectable-failure event at the scheme's binomial-tail rate; failed
  blocks keep the conditional surviving-error count (``t + 1`` is the
  dominant pattern, but high raw BER shifts the mass upward, matching
  the exact mode). Raw streams flip bits at the substrate BER directly.
  This is what the paper's Monte Carlo does and it is fast enough for
  whole-video sweeps at any error rate.
* **exact**: every block physically round-trips — BCH-encode, write each
  bit group into the MLC cell model with noise and drift, read back,
  BCH-decode. Slow, but end-to-end real; used by tests to validate the
  analytic mode.

Both modes share the lifetime machinery:

* reads may happen at any retention time (``t_days``);
* a :class:`ScrubPolicy` models periodic rewrites that reset drift (the
  read sees only the drift accumulated since the last scrub) and are
  charged against a cell-write budget;
* blocks whose decode reports *detected-uncorrectable* enter a re-read
  **retry ladder** (fresh sense noise, up to ``read_retries`` attempts,
  ``REPRO_READ_RETRIES`` by default); blocks that exhaust it are
  escalated as :class:`UncorrectableBlock` ranges in the report — the
  device never silently returns corrected-looking data for them, the
  caller gets the raw received bits plus the damage map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..errors import StorageError
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..settings import resolve
from .bch import get_bch_code
from .ecc import ECCScheme, conditional_error_count
from .mlc import MLCCellModel

#: Chaos seam: :func:`repro.runtime.chaos.arm` installs a fault decider
#: here (and :func:`~repro.runtime.chaos.disarm` clears it) so the
#: storage layer never imports the runtime. ``None`` — the production
#: state — costs one identity check per coded read; armed, a faulted
#: read corrupts one extra block *and escalates it* (see
#: ``_chaos_damage``), so chaos can never make the device lie.
_CHAOS_READ_FAULT = None


@dataclass(frozen=True)
class ScrubPolicy:
    """Periodic rewrite policy bounding drift accumulation.

    Every ``interval_days`` the device rewrites all cells, which resets
    drift to zero (a fresh write) at the cost of one cell-write per
    cell. A read at retention time ``t`` therefore sees only
    ``t mod interval_days`` of drift, and ``floor(t / interval_days)``
    scrub rewrites have been charged to the write budget.
    """

    interval_days: float

    def __post_init__(self) -> None:
        if not (self.interval_days > 0
                and math.isfinite(self.interval_days)):
            raise StorageError(
                f"scrub interval must be a finite number of days > 0, "
                f"got {self.interval_days}")

    def drift_age(self, t_days: float) -> float:
        """Drift the cells carry when read at retention time ``t_days``."""
        return float(t_days) % self.interval_days

    def scrub_count(self, t_days: float) -> int:
        """Rewrites performed by retention time ``t_days``."""
        return int(float(t_days) // self.interval_days)


@dataclass(frozen=True)
class UncorrectableBlock:
    """One ECC block that stayed uncorrectable after the retry ladder.

    Coordinates are *data-bit* offsets into the byte string handed to
    ``store_and_read`` (parity bits are device-internal), so callers
    can map the damage into whatever the bytes encode.
    """

    block: int      #: block index within this store-and-read call
    bit_start: int  #: first damaged data bit (inclusive)
    bit_end: int    #: one past the last damaged data bit


@dataclass
class StorageReport:
    """Accounting of one store-and-read round trip."""

    data_bits: int
    stored_bits: int          #: data + parity actually written to cells
    cells_used: int
    blocks: int
    failed_blocks: int        #: blocks still uncorrectable after retries
    flipped_bits: int         #: uncorrected bit errors in returned data
    #: Retention time of the read in days (None = the model's nominal
    #: scrub-point read, the pre-lifetime-subsystem behaviour).
    retention_days: Optional[float] = None
    #: Drift the cells actually carried at read time (after scrubbing).
    drift_days: Optional[float] = None
    scrub_count: int = 0        #: scrub rewrites performed by read time
    scrub_cell_writes: int = 0  #: cell writes those scrubs cost
    retried_blocks: int = 0     #: blocks that entered the retry ladder
    retry_attempts: int = 0     #: total re-reads performed
    retry_successes: int = 0    #: blocks recovered by a re-read
    miscorrected_blocks: int = 0  #: silent miscorrections (exact mode)
    #: Blocks escalated after the retry ladder, as data-bit ranges.
    uncorrectable: Tuple[UncorrectableBlock, ...] = field(
        default_factory=tuple)


@dataclass
class _BlockStats:
    """Mutable per-call tally shared by the analytic and exact paths."""

    failed: int = 0
    flipped: int = 0
    retried: int = 0
    attempts: int = 0
    recovered: int = 0
    miscorrected: int = 0
    uncorrectable: List[UncorrectableBlock] = field(default_factory=list)


class ApproximateDevice:
    """MLC PCM array with selectable per-write ECC."""

    def __init__(self, cell_model: Optional[MLCCellModel] = None,
                 rng: Optional[np.random.Generator] = None,
                 exact: bool = False,
                 scrub: Optional[ScrubPolicy] = None,
                 read_retries: Optional[int] = None) -> None:
        self.cell_model = cell_model or MLCCellModel()
        self.rng = rng or np.random.default_rng()
        self.exact = exact
        self.scrub = scrub
        self.read_retries = resolve("REPRO_READ_RETRIES", read_retries)

    @property
    def raw_ber(self) -> float:
        return self.cell_model.raw_bit_error_rate()

    # -- accounting ----------------------------------------------------------

    def stored_bits(self, data_bits: int, scheme: ECCScheme) -> int:
        """Bits written to cells for ``data_bits`` of payload."""
        if scheme.t == 0:
            return data_bits
        blocks = -(-data_bits // scheme.data_bits)
        return data_bits + blocks * scheme.parity_bits

    def cells_used(self, data_bits: int, scheme: ECCScheme) -> int:
        return self.cell_model.cells_for_bits(
            self.stored_bits(data_bits, scheme))

    # -- retention -----------------------------------------------------------

    def _resolve_retention(self, t_days: Optional[float]
                           ) -> Tuple[Optional[float], float, int]:
        """(requested retention, drift age at read, scrubs performed).

        ``t_days=None`` is the legacy one-shot read at the cell model's
        nominal scrub age: no scrub accounting, bitwise identical to the
        pre-lifetime device.
        """
        if t_days is None:
            return None, self.cell_model.scrub_interval_days, 0
        t_days = float(t_days)
        if t_days < 0 or not math.isfinite(t_days):
            raise StorageError(
                f"retention time must be a finite number of days >= 0, "
                f"got {t_days}")
        if self.scrub is None:
            return t_days, t_days, 0
        return (t_days, self.scrub.drift_age(t_days),
                self.scrub.scrub_count(t_days))

    # -- the round trip -------------------------------------------------------

    def store_and_read(self, data: bytes, scheme: ECCScheme,
                       t_days: Optional[float] = None) -> tuple:
        """Write ``data`` under ``scheme`` and read it back at ``t_days``.

        Returns ``(read_back_bytes, StorageReport)``.
        """
        with obs_trace.span("ecc.store_read", scheme=scheme.name,
                            exact=self.exact, data_bytes=len(data),
                            t_days=t_days):
            return self._store_and_read(data, scheme, t_days)

    def _store_and_read(self, data: bytes, scheme: ECCScheme,
                        t_days: Optional[float]) -> tuple:
        retention, age, scrubs = self._resolve_retention(t_days)
        bits = bytes_to_bits(data)
        if scheme.t == 0:
            out_bits, flipped = self._raw_round_trip(bits, age)
            report = StorageReport(
                data_bits=bits.size, stored_bits=bits.size,
                cells_used=self.cell_model.cells_for_bits(bits.size),
                blocks=0, failed_blocks=0, flipped_bits=flipped,
                retention_days=retention, drift_days=age,
                scrub_count=scrubs,
                scrub_cell_writes=scrubs
                * self.cell_model.cells_for_bits(bits.size),
            )
            self._publish_metrics(report)
            return bits_to_bytes(out_bits), report
        if self.exact:
            out_bits, stats, blocks = self._exact_ecc(bits, scheme, age)
        else:
            out_bits, stats, blocks = self._analytic_ecc(bits, scheme, age)
        if _CHAOS_READ_FAULT is not None:
            self._chaos_damage(data, out_bits, stats, scheme, blocks)
        report = StorageReport(
            data_bits=bits.size,
            stored_bits=self.stored_bits(bits.size, scheme),
            cells_used=self.cells_used(bits.size, scheme),
            blocks=blocks, failed_blocks=stats.failed,
            flipped_bits=stats.flipped,
            retention_days=retention, drift_days=age,
            scrub_count=scrubs,
            scrub_cell_writes=scrubs * self.cells_used(bits.size, scheme),
            retried_blocks=stats.retried,
            retry_attempts=stats.attempts,
            retry_successes=stats.recovered,
            miscorrected_blocks=stats.miscorrected,
            uncorrectable=tuple(stats.uncorrectable),
        )
        self._publish_metrics(report)
        return bits_to_bytes(out_bits), report

    def _chaos_damage(self, data: bytes, out_bits: np.ndarray,
                      stats: _BlockStats, scheme: ECCScheme,
                      blocks: int) -> None:
        """Out-of-model read failure injected by an armed chaos policy.

        Extra blocks are corrupted with flips the ECC model never
        drew — and immediately escalated as uncorrectable, exactly like
        blocks that exhausted the retry ladder. A decision may span
        ``burst_blocks`` *contiguous* blocks (correlated damage: a worn
        region, a row-hammered neighbourhood), every one of which is
        escalated. The damage is therefore always visible in the
        report: chaos widens the failure surface but cannot produce
        silently corrected-looking data.
        """
        fault = _CHAOS_READ_FAULT
        if fault is None or blocks <= 0 or out_bits.size == 0:
            return
        decision = fault(data)
        if decision is None:
            return
        rng, flip_bits, burst_blocks = decision
        burst_blocks = max(1, min(int(burst_blocks), blocks))
        first = int(rng.integers(blocks))
        if first + burst_blocks > blocks:
            first = blocks - burst_blocks
        for block_index in range(first, first + burst_blocks):
            start = block_index * scheme.data_bits
            end = min(start + scheme.data_bits, out_bits.size)
            if end <= start:
                # Padding-only final block: damage the last real block.
                block_index = max(0,
                                  (out_bits.size - 1) // scheme.data_bits)
                start = block_index * scheme.data_bits
                end = out_bits.size
            flips = min(flip_bits, end - start)
            positions = start + rng.choice(end - start, size=flips,
                                           replace=False)
            out_bits[positions] ^= 1
            stats.flipped += int(flips)
            if all(u.block != block_index for u in stats.uncorrectable):
                self._escalate(stats, scheme, block_index, out_bits.size)

    @staticmethod
    def _publish_metrics(report: StorageReport) -> None:
        """Per-mitigation lifetime counters (exactly mergeable)."""
        if report.scrub_count:
            obs_metrics.counter("storage_scrubs_total").inc(
                report.scrub_count)
            obs_metrics.counter("storage_scrub_cell_writes_total").inc(
                report.scrub_cell_writes)
        if report.retry_attempts:
            obs_metrics.counter("storage_read_retries_total").inc(
                report.retry_attempts)
            obs_metrics.counter("storage_retry_recovered_total").inc(
                report.retry_successes)
        if report.failed_blocks:
            obs_metrics.counter("storage_uncorrectable_blocks_total").inc(
                report.failed_blocks)
        if report.miscorrected_blocks:
            obs_metrics.counter("storage_miscorrected_blocks_total").inc(
                report.miscorrected_blocks)

    # -- raw cells ------------------------------------------------------------

    def _raw_round_trip(self, bits: np.ndarray, age: float) -> tuple:
        if self.exact:
            per_cell = self.cell_model.bits_per_cell
            padding = (-bits.size) % per_cell
            padded = np.concatenate(
                [bits, np.zeros(padding, dtype=np.uint8)])
            read = self.cell_model.write_and_read(padded, self.rng,
                                                  t_days=age)
            out = read[:bits.size]
            return out, int(np.count_nonzero(out != bits))
        flips = self.rng.random(bits.size) \
            < self.cell_model.raw_bit_error_rate(age)
        out = bits ^ flips.astype(np.uint8)
        return out, int(np.count_nonzero(flips))

    # -- coded blocks ----------------------------------------------------------

    def _block_views(self, bits: np.ndarray, scheme: ECCScheme):
        blocks = -(-bits.size // scheme.data_bits)
        padded = np.concatenate([
            bits,
            np.zeros(blocks * scheme.data_bits - bits.size, dtype=np.uint8),
        ])
        return blocks, padded.reshape(blocks, scheme.data_bits)

    def _escalate(self, stats: _BlockStats, scheme: ECCScheme,
                  block_index: int, data_bits: int) -> None:
        """Record a block the retry ladder could not recover."""
        start = int(block_index) * scheme.data_bits
        end = min(start + scheme.data_bits, data_bits)
        stats.failed += 1
        stats.uncorrectable.append(
            UncorrectableBlock(block=int(block_index), bit_start=start,
                               bit_end=end))

    def _analytic_ecc(self, bits: np.ndarray, scheme: ECCScheme,
                      age: float) -> tuple:
        blocks, data = self._block_views(bits, scheme)
        raw_ber = self.cell_model.raw_bit_error_rate(age)
        failure_rate = scheme.block_failure_rate(raw_ber)
        uniforms = self.rng.random(blocks)
        failures = np.nonzero(uniforms < failure_rate)[0]
        out = data.copy()
        stats = _BlockStats()
        for block_index in failures:
            if self.read_retries > 0:
                # Re-read ladder: each re-sense is an independent draw
                # against the same failure rate.
                stats.retried += 1
                recovered = False
                for _attempt in range(self.read_retries):
                    stats.attempts += 1
                    if self.rng.random() >= failure_rate:
                        recovered = True
                        break
                if recovered:
                    stats.recovered += 1
                    continue
            # Conditioned on failure, the surviving raw-error count
            # follows Binomial(block_bits, raw_ber) given > t; reuse the
            # uniform that decided the failure (u / rate is Uniform(0,1)
            # conditionally) so the stream layout is unchanged. Only the
            # flips landing in the data portion are visible to the
            # caller.
            conditional_u = float(uniforms[block_index]) / failure_rate
            surviving = conditional_error_count(
                scheme.block_bits, raw_ber, scheme.t, conditional_u)
            error_positions = self.rng.choice(scheme.block_bits,
                                              size=surviving,
                                              replace=False)
            data_hits = error_positions[error_positions < scheme.data_bits]
            out[block_index, data_hits] ^= 1
            stats.flipped += data_hits.size
            self._escalate(stats, scheme, block_index, bits.size)
        return out.reshape(-1)[:bits.size], stats, blocks

    def _exact_ecc(self, bits: np.ndarray, scheme: ECCScheme,
                   age: float) -> tuple:
        code = get_bch_code(scheme.t, data_bits=scheme.data_bits)
        blocks, data = self._block_views(bits, scheme)
        per_cell = self.cell_model.bits_per_cell
        out = np.empty_like(data)
        stats = _BlockStats()
        for block_index in range(blocks):
            codeword = code.encode(data[block_index])
            padding = (-codeword.size) % per_cell
            padded = np.concatenate(
                [codeword, np.zeros(padding, dtype=np.uint8)])
            read = self.cell_model.write_and_read(padded, self.rng,
                                                  t_days=age)
            result = code.decode(read[:codeword.size])
            if result.detected_uncorrectable and self.read_retries > 0:
                stats.retried += 1
                for _attempt in range(self.read_retries):
                    stats.attempts += 1
                    reread = self.cell_model.write_and_read(
                        padded, self.rng, t_days=age)
                    retry = code.decode(reread[:codeword.size])
                    if not retry.detected_uncorrectable:
                        result = retry
                        stats.recovered += 1
                        break
            out[block_index] = result.data
            if result.detected_uncorrectable:
                self._escalate(stats, scheme, block_index, bits.size)
            elif not np.array_equal(result.data, data[block_index]):
                # Decode claimed success but the data is wrong: a
                # silent miscorrection, observable only with ground
                # truth.
                stats.miscorrected += 1
            stats.flipped += int(np.count_nonzero(
                result.data != data[block_index]))
        return out.reshape(-1)[:bits.size], stats, blocks


def bytes_to_bits(data: bytes) -> np.ndarray:
    """Byte string -> uint8 bit array, MSB-first."""
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8))


def bits_to_bytes(bits: np.ndarray) -> bytes:
    """uint8 bit array (multiple of 8) -> byte string."""
    if bits.size % 8:
        raise StorageError(f"bit count {bits.size} not a multiple of 8")
    return np.packbits(bits.astype(np.uint8)).tobytes()
