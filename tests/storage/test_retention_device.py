"""Lifetime behaviour of the device: retention reads, scrubbing, the
re-read retry ladder, and uncorrectable-block escalation.

The paper-faithful path (``t_days=None``, no scrub, no retries) is
pinned bitwise against the legacy behaviour; everything else layers on
top of it.
"""

import numpy as np
import pytest

from repro.errors import AnalysisError, StorageError
from repro.obs import metrics as obs_metrics
from repro.storage import (
    ApproximateDevice,
    MLCCellModel,
    ScrubPolicy,
    UncorrectableBlock,
    scheme_by_name,
)

RETRIES_ENV = "REPRO_READ_RETRIES"

#: Drift-dominated substrate: block failures become common within the
#: default decade grid, so every lifetime mechanism is observable.
DRIFTY = dict(write_sigma=0.012, drift_sigma=0.02)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def _payload(blocks, rng, scheme=None):
    scheme = scheme or scheme_by_name("BCH-6")
    size = scheme.data_bits * blocks // 8
    return bytes(rng.integers(0, 256, size, dtype=np.uint8))


class TestResolveReadRetries:
    def test_default_is_zero(self, monkeypatch):
        monkeypatch.delenv(RETRIES_ENV, raising=False)
        assert ApproximateDevice().read_retries == 0

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(RETRIES_ENV, "7")
        assert ApproximateDevice(read_retries=2).read_retries == 2

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(RETRIES_ENV, "3")
        assert ApproximateDevice().read_retries == 3

    @pytest.mark.parametrize("bad", ["three", "1.5", "-2"])
    def test_bad_env_rejected(self, monkeypatch, bad):
        monkeypatch.setenv(RETRIES_ENV, bad)
        with pytest.raises(AnalysisError):
            ApproximateDevice()

    def test_negative_explicit_rejected(self):
        with pytest.raises(AnalysisError):
            ApproximateDevice(read_retries=-1)


class TestScrubPolicy:
    def test_drift_age_and_count(self):
        policy = ScrubPolicy(interval_days=90.0)
        assert policy.drift_age(400.0) == pytest.approx(40.0)
        assert policy.scrub_count(400.0) == 4
        assert policy.drift_age(89.9) == pytest.approx(89.9)
        assert policy.scrub_count(89.9) == 0

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("inf"), float("nan")])
    def test_invalid_interval_rejected(self, bad):
        with pytest.raises(StorageError):
            ScrubPolicy(interval_days=bad)


class TestLegacyEquivalence:
    """``t_days=None`` must be bitwise the pre-lifetime device."""

    def test_none_matches_nominal_scrub_point_read(self):
        scheme = scheme_by_name("BCH-6")
        data = _payload(40, np.random.default_rng(0))
        legacy = ApproximateDevice(rng=np.random.default_rng(5))
        out_legacy, rep_legacy = legacy.store_and_read(data, scheme)
        aged = ApproximateDevice(rng=np.random.default_rng(5))
        out_aged, rep_aged = aged.store_and_read(
            data, scheme, t_days=aged.cell_model.scrub_interval_days)
        assert out_legacy == out_aged
        assert rep_legacy.failed_blocks == rep_aged.failed_blocks
        assert rep_legacy.retention_days is None
        assert rep_aged.retention_days == pytest.approx(
            aged.cell_model.scrub_interval_days)

    def test_legacy_report_has_no_lifetime_accounting(self, rng):
        device = ApproximateDevice(rng=rng)
        _out, report = device.store_and_read(
            _payload(4, rng), scheme_by_name("BCH-6"))
        assert report.scrub_count == 0
        assert report.scrub_cell_writes == 0
        assert report.retried_blocks == 0
        assert report.uncorrectable == ()

    def test_negative_retention_rejected(self, rng):
        device = ApproximateDevice(rng=rng)
        with pytest.raises(StorageError):
            device.store_and_read(_payload(1, rng),
                                  scheme_by_name("BCH-6"), t_days=-1.0)


class TestScrubbing:
    def test_scrub_accounting(self, rng):
        device = ApproximateDevice(
            cell_model=MLCCellModel(**DRIFTY), rng=rng,
            scrub=ScrubPolicy(interval_days=90.0))
        data = _payload(8, rng)
        _out, report = device.store_and_read(
            data, scheme_by_name("BCH-6"), t_days=400.0)
        assert report.retention_days == pytest.approx(400.0)
        assert report.drift_days == pytest.approx(40.0)
        assert report.scrub_count == 4
        assert report.scrub_cell_writes == 4 * report.cells_used

    def test_scrubbing_bounds_degradation(self):
        """At a decade, a 90-day scrub cadence reads like a 10-day-old
        write while the unscrubbed device reads a decade of drift."""
        scheme = scheme_by_name("BCH-6")
        data = _payload(120, np.random.default_rng(1))
        plain = ApproximateDevice(cell_model=MLCCellModel(**DRIFTY),
                                  rng=np.random.default_rng(9))
        _o, rep_plain = plain.store_and_read(data, scheme, t_days=3650.0)
        scrubbed = ApproximateDevice(cell_model=MLCCellModel(**DRIFTY),
                                     rng=np.random.default_rng(9),
                                     scrub=ScrubPolicy(interval_days=90.0))
        _o, rep_scrub = scrubbed.store_and_read(data, scheme, t_days=3650.0)
        assert rep_plain.failed_blocks > 0
        assert rep_scrub.failed_blocks < rep_plain.failed_blocks
        assert rep_scrub.drift_days == pytest.approx(3650.0 % 90.0)

    def test_unscrubbed_failures_monotone_in_retention(self):
        """Same seed => same uniforms, and the failure rate only climbs
        with drift, so the failed-block set is nested across the grid."""
        scheme = scheme_by_name("BCH-6")
        data = _payload(120, np.random.default_rng(2))
        failed = []
        for t in (90.0, 365.0, 1000.0, 3650.0):
            device = ApproximateDevice(cell_model=MLCCellModel(**DRIFTY),
                                       rng=np.random.default_rng(3))
            _out, report = device.store_and_read(data, scheme, t_days=t)
            failed.append(report.failed_blocks)
        assert failed == sorted(failed)
        assert failed[-1] > failed[0]

    def test_raw_streams_account_scrubs_too(self, rng):
        device = ApproximateDevice(
            cell_model=MLCCellModel(**DRIFTY), rng=rng,
            scrub=ScrubPolicy(interval_days=90.0))
        _out, report = device.store_and_read(
            bytes(1000), scheme_by_name("None"), t_days=270.0)
        assert report.scrub_count == 3
        assert report.scrub_cell_writes == 3 * report.cells_used


class TestRetryLadder:
    def _aged_read(self, retries, seed=7, blocks=150):
        device = ApproximateDevice(cell_model=MLCCellModel(**DRIFTY),
                                   rng=np.random.default_rng(seed),
                                   read_retries=retries)
        data = _payload(blocks, np.random.default_rng(4))
        return device.store_and_read(data, scheme_by_name("BCH-6"),
                                     t_days=3650.0)

    def test_retries_recover_blocks(self):
        _out, plain = self._aged_read(retries=0)
        _out, retried = self._aged_read(retries=3)
        assert plain.failed_blocks > 0
        assert plain.retried_blocks == 0
        # Block failure is ~a few percent here, so a single re-read
        # recovers the overwhelming majority of detected failures.
        assert retried.retried_blocks > 0
        assert retried.retry_successes > 0
        assert retried.failed_blocks < plain.failed_blocks

    def test_retry_accounting_is_consistent(self):
        _out, report = self._aged_read(retries=3)
        assert report.failed_blocks == (report.retried_blocks
                                        - report.retry_successes)
        assert report.retried_blocks <= report.retry_attempts \
            <= 3 * report.retried_blocks

    def test_exact_mode_retry_ladder(self):
        """Exact mode re-senses detected-uncorrectable blocks too.

        ~0.68 block-failure rate: marginal enough that a fresh sense
        often lands back under t errors, so the ladder visibly recovers.
        """
        noisy = MLCCellModel(write_sigma=0.035)
        scheme = scheme_by_name("BCH-6")
        data = _payload(25, np.random.default_rng(6))
        plain = ApproximateDevice(cell_model=noisy, exact=True,
                                  rng=np.random.default_rng(8))
        _o, rep_plain = plain.store_and_read(data, scheme)
        retried = ApproximateDevice(cell_model=noisy, exact=True,
                                    rng=np.random.default_rng(8),
                                    read_retries=4)
        _o, rep_retry = retried.store_and_read(data, scheme)
        assert rep_plain.failed_blocks > 0
        assert rep_retry.retried_blocks > 0
        assert rep_retry.retry_successes > 0
        assert rep_retry.failed_blocks < rep_plain.failed_blocks


class TestEscalation:
    def test_uncorrectable_ranges_cover_failed_blocks(self):
        scheme = scheme_by_name("BCH-6")
        data = _payload(120, np.random.default_rng(4))
        device = ApproximateDevice(cell_model=MLCCellModel(**DRIFTY),
                                   rng=np.random.default_rng(7))
        _out, report = device.store_and_read(data, scheme, t_days=3650.0)
        assert report.failed_blocks > 0
        assert len(report.uncorrectable) == report.failed_blocks
        for entry in report.uncorrectable:
            assert isinstance(entry, UncorrectableBlock)
            assert entry.bit_start == entry.block * scheme.data_bits
            assert entry.bit_end == min(entry.bit_start + scheme.data_bits,
                                        8 * len(data))
            assert entry.bit_start < entry.bit_end <= 8 * len(data)

    def test_exact_mode_never_masks_uncorrectable(self):
        """A detected-uncorrectable block is escalated and its returned
        bits are the raw received data — not a cleaned-up guess."""
        noisy = MLCCellModel(write_sigma=0.06)
        scheme = scheme_by_name("BCH-6")
        data = _payload(30, np.random.default_rng(5))
        device = ApproximateDevice(cell_model=noisy, exact=True,
                                   rng=np.random.default_rng(11))
        out, report = device.store_and_read(data, scheme)
        assert report.failed_blocks > 0
        assert len(report.uncorrectable) == report.failed_blocks
        assert out != data

    def test_counters_published(self, rng):
        registry = obs_metrics.get_registry()
        before = registry.snapshot()["counters"]
        data = _payload(120, np.random.default_rng(4))
        scheme = scheme_by_name("BCH-6")
        # Scrubbed read: scrub counters move (and suppress failures).
        scrubbed = ApproximateDevice(cell_model=MLCCellModel(**DRIFTY),
                                     rng=np.random.default_rng(7),
                                     scrub=ScrubPolicy(interval_days=90.0))
        scrubbed.store_and_read(data, scheme, t_days=3650.0)
        # Unscrubbed aged read with retries: retry + escalation counters.
        retried = ApproximateDevice(cell_model=MLCCellModel(**DRIFTY),
                                    rng=np.random.default_rng(7),
                                    read_retries=2)
        retried.store_and_read(data, scheme, t_days=3650.0)
        after = registry.snapshot()["counters"]

        def delta(name):
            return after.get(name, 0) - before.get(name, 0)

        assert delta("storage_scrubs_total") == 40
        assert delta("storage_scrub_cell_writes_total") > 0
        assert delta("storage_read_retries_total") > 0


class TestCrossModeFlips:
    """Satellite: analytic failed blocks must carry the same surviving
    flip statistics exact mode produces, not a hardwired t+1."""

    def test_analytic_flips_match_exact_distribution(self):
        """At high raw BER the surviving-error count conditioned on
        failure sits well above t+1; the analytic mode must reproduce
        that, matching exact mode's per-failed-block flip mass."""
        noisy = MLCCellModel(write_sigma=0.055)
        scheme = scheme_by_name("BCH-6")

        def flip_stats(exact, seeds, blocks):
            flips = failed = 0
            for seed in seeds:
                device = ApproximateDevice(
                    cell_model=noisy, exact=exact,
                    rng=np.random.default_rng(seed))
                data = _payload(blocks, np.random.default_rng(seed + 100))
                _out, report = device.store_and_read(data, scheme)
                if exact:
                    # Strip miscorrection flips: they belong to a
                    # different (success-claiming) population.
                    if report.miscorrected_blocks:
                        continue
                flips += report.flipped_bits
                failed += report.failed_blocks
            return flips, failed

        exact_flips, exact_failed = flip_stats(True, range(6), blocks=25)
        analytic_flips, analytic_failed = flip_stats(
            False, range(40), blocks=120)
        assert exact_failed >= 10
        assert analytic_failed >= 50
        exact_mean = exact_flips / exact_failed
        analytic_mean = analytic_flips / analytic_failed
        # Both means estimate E[data-visible flips | block failed] on
        # the same substrate; they must agree within sampling noise and
        # both must exceed the naive floor of t+1 scaled to the data
        # portion (the old analytic model pinned exactly there).
        floor = (scheme.t + 1) * scheme.data_bits / scheme.block_bits
        assert analytic_mean > floor * 1.15
        assert analytic_mean == pytest.approx(exact_mean, rel=0.30)
