"""Tests for the MLC PCM cell model."""

import math
import pickle
import struct
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import StorageError
from repro.storage import MLCCellModel, calibrated_model, gray_code, gray_decode
from repro.storage import mlc as mlc_module
from repro.storage.ecc import SCHEME_MENU, binomial_tail


class TestGrayCode:
    @given(st.integers(0, 255))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip(self, value):
        assert gray_decode(gray_code(value)) == value

    def test_adjacent_levels_differ_by_one_bit(self):
        for level in range(7):
            diff = gray_code(level) ^ gray_code(level + 1)
            assert bin(diff).count("1") == 1


class TestModelConstruction:
    def test_default_is_8_levels_3_bits(self):
        model = MLCCellModel()
        assert model.levels == 8
        assert model.bits_per_cell == 3

    def test_rejects_non_power_of_two(self):
        with pytest.raises(StorageError):
            MLCCellModel(levels=6)

    def test_rejects_bad_sigma(self):
        with pytest.raises(StorageError):
            MLCCellModel(write_sigma=0.0)

    def test_level_positions_monotone(self):
        model = MLCCellModel()
        assert np.all(np.diff(model.level_positions) > 0)
        assert np.all(np.diff(model.read_thresholds) > 0)

    def test_drift_compensation(self):
        """Written positions sit below their read-time targets so that
        mean drift carries them onto the targets at scrub time."""
        model = MLCCellModel()
        assert model.level_positions[-1] < 1.0
        drifted = model.level_positions + (
            model.drift_coefficient * model.level_positions
            * np.log10(1 + model.scrub_interval_days))
        assert np.allclose(drifted, model.read_targets, atol=1e-12)
        assert model.read_targets[0] == 0.0
        assert model.read_targets[-1] == pytest.approx(1.0)

    def test_scrub_interval_matters(self):
        """Stochastic drift accumulates: a lazier scrub schedule reads
        cells with more drift noise and a higher error rate."""
        weekly = MLCCellModel(scrub_interval_days=7.0)
        yearly = MLCCellModel(scrub_interval_days=365.0)
        assert weekly.raw_bit_error_rate() < yearly.raw_bit_error_rate()

    def test_error_equalization_across_levels(self):
        """Noise-proportional spacing equalizes inner-level error rates
        almost exactly (outer levels have one-sided tails)."""
        rates = MLCCellModel().level_error_rates()
        inner = rates[1:-1]
        assert inner.max() < inner.min() * 1.2


class TestErrorRates:
    def test_default_hits_paper_rber(self):
        """The paper's substrate: 8 levels, ~1e-3 raw BER at 3 months."""
        ber = MLCCellModel().raw_bit_error_rate()
        assert 5e-4 < ber < 2e-3

    def test_error_grows_with_time(self):
        model = MLCCellModel()
        assert model.raw_bit_error_rate(365.0) > model.raw_bit_error_rate(90.0)

    def test_drift_aware_reads_order_fresh_before_aged(self):
        """Reads use drift-aware thresholds (re-centered on the drifted
        means at the read time), so fresh cells always read better than
        scrub-aged cells, which read better than decade-aged ones."""
        model = MLCCellModel()
        at_scrub = model.raw_bit_error_rate()
        assert model.raw_bit_error_rate(0.0) < at_scrub
        assert at_scrub < model.raw_bit_error_rate(3650.0)

    def test_thresholds_at_scrub_point_are_the_placement_thresholds(self):
        """At the scrub read point the drift-aware thresholds are the
        placement's own thresholds, bit for bit — default reads are
        identical to the fixed-threshold model."""
        model = MLCCellModel()
        assert model.thresholds_at() is model.read_thresholds
        assert model.thresholds_at(model.scrub_interval_days) \
            is model.read_thresholds
        assert not np.array_equal(model.thresholds_at(0.0),
                                  model.read_thresholds)

    def test_fewer_levels_fewer_errors(self):
        dense = MLCCellModel(levels=8)
        sparse = MLCCellModel(levels=4)
        assert sparse.raw_bit_error_rate() < dense.raw_bit_error_rate()

    def test_level_rates_roughly_equalized(self):
        """Non-uniform placement equalizes per-level error rates; inner
        levels (two-sided) sit within ~2x of each other."""
        rates = MLCCellModel().level_error_rates()
        inner = rates[1:-1]
        assert inner.max() < inner.min() * 3

    def test_calibration(self):
        model = calibrated_model(target_raw_ber=1e-4)
        assert model.raw_bit_error_rate() == pytest.approx(1e-4, rel=0.05)


class TestMonteCarlo:
    def test_empirical_matches_analytic(self, rng):
        model = MLCCellModel()
        bits = rng.integers(0, 2, 3 * 100_000).astype(np.uint8)
        out = model.write_and_read(bits, rng)
        empirical = np.mean(bits != out)
        analytic = model.raw_bit_error_rate()
        assert empirical == pytest.approx(analytic, rel=0.5)

    def test_noiseless_read_is_exact(self, rng):
        model = MLCCellModel(write_sigma=1e-4, drift_coefficient=0.0)
        bits = rng.integers(0, 2, 3 * 1000).astype(np.uint8)
        assert np.array_equal(model.write_and_read(bits, rng), bits)

    def test_rejects_misaligned_bits(self, rng):
        model = MLCCellModel()
        with pytest.raises(StorageError):
            model.write_and_read(np.zeros(10, dtype=np.uint8), rng)

    def test_cells_for_bits(self):
        model = MLCCellModel()
        assert model.cells_for_bits(3) == 1
        assert model.cells_for_bits(4) == 2
        assert model.cells_for_bits(0) == 0


class TestRetentionDrift:
    """Drift behaviour over the retention timeline (the lifetime
    subsystem's substrate contract)."""

    #: A retention grid spanning fresh cells to a decade, straddling
    #: the default 90-day scrub point.
    T_GRID = (0.0, 0.25, 1.0, 3.0, 10.0, 30.0, 60.0, 90.0, 91.0,
              180.0, 365.0, 1000.0, 3650.0)

    @pytest.mark.parametrize("levels", [4, 8, 16])
    def test_raw_ber_monotone_in_retention_time(self, levels):
        """raw_bit_error_rate(t) never decreases as cells age."""
        model = MLCCellModel(levels=levels)
        rates = [model.raw_bit_error_rate(t) for t in self.T_GRID]
        for earlier, later in zip(rates, rates[1:]):
            assert later >= earlier

    @pytest.mark.parametrize("levels", [4, 8, 16])
    def test_raw_ber_matches_level_rate_aggregation(self, levels):
        """The scalar BER is exactly the uniform-usage mean of the
        per-level misread rates divided by the bits per cell."""
        model = MLCCellModel(levels=levels)
        for t in (0.0, 30.0, 90.0, 365.0, 3650.0):
            aggregated = (float(np.mean(model.level_error_rates(t)))
                          / model.bits_per_cell)
            assert model.raw_bit_error_rate(t) == aggregated

    @pytest.mark.parametrize("levels", [4, 8, 16])
    def test_default_rate_is_the_scrub_point_rate(self, levels):
        model = MLCCellModel(levels=levels)
        assert model.raw_bit_error_rate() == model.raw_bit_error_rate(
            model.scrub_interval_days)

    def test_monte_carlo_tracks_analytic_at_other_times(self, rng):
        """write_and_read honours t_days: aged reads show the aged
        analytic error rate, not the scrub-point one."""
        model = MLCCellModel()
        bits = rng.integers(0, 2, 3 * 120_000).astype(np.uint8)
        aged = model.write_and_read(bits, rng, t_days=3650.0)
        empirical = float(np.mean(bits != aged))
        assert empirical == pytest.approx(
            model.raw_bit_error_rate(3650.0), rel=0.5)
        assert empirical > 1.5 * model.raw_bit_error_rate()


def _vectorized_level_error_rates(model, t_days):
    """The level tails as the model evaluated them before its scalar
    form: one ``np.vectorize(math.erf)`` call per tail."""

    def phi(x):
        return 0.5 * (1.0 + np.vectorize(math.erf)(x / math.sqrt(2.0)))

    if t_days is None:
        t_days = model.scrub_interval_days
    log_t = model._log_time(t_days)
    means = model.level_positions * (1.0 + model.drift_coefficient * log_t)
    sigmas = model._sigma_at(model.level_positions, t_days)
    thresholds = model.thresholds_at(t_days)
    rates = np.empty(model.levels)
    for index in range(model.levels):
        low = thresholds[index - 1] if index > 0 else -math.inf
        high = thresholds[index] if index < model.levels - 1 else math.inf
        sigma = sigmas[index]
        below = (0.0 if low == -math.inf else
                 float(phi(np.array([(low - means[index]) / sigma]))[0]))
        above = (0.0 if high == math.inf else
                 1.0 - float(phi(np.array([(high - means[index])
                                           / sigma]))[0]))
        rates[index] = below + above
    return rates


class TestScalarTails:
    """Scalar ``math.erf`` tails are bit-identical to the vectorized
    reference: every device error draw compares against this rate."""

    AGES = (None, 0.0, 1.0, 30.0, 90.0, 300.0, 3e3, 3e4, 1e5, 3e5, 1e6,
            1e7)

    @pytest.mark.parametrize("model", [
        MLCCellModel(), MLCCellModel(levels=4), calibrated_model(1e-4)],
        ids=["default", "four_level", "calibrated_1e-4"])
    @pytest.mark.parametrize("t_days", AGES)
    def test_rates_match_the_vectorized_reference(self, model, t_days):
        reference = _vectorized_level_error_rates(model, t_days)
        rates = model.level_error_rates(t_days)
        assert rates.dtype == reference.dtype
        assert rates.tobytes() == reference.tobytes()
        raw = float(np.mean(reference)) / model.bits_per_cell
        assert model.raw_bit_error_rate(t_days) == raw

    @pytest.mark.parametrize("model", [
        MLCCellModel(), MLCCellModel(levels=4), calibrated_model(1e-4)],
        ids=["default", "four_level", "calibrated_1e-4"])
    def test_memoized_rates_equal_the_derivation(self, model):
        """The error-rate memos hand back the derivation's bytes, on a
        cold memo and on every repeat: the raw bit error rate per (cell
        parameters, age), each scheme's block failure rate per (scheme,
        rate)."""
        mlc_module._RATE_MEMO.clear()
        binomial_tail.cache_clear()
        for call in ("first", "repeat", "repeat"):
            for t_days in self.AGES:
                raw = model.raw_bit_error_rate(t_days)
                derived = model.cell_error_rate(t_days) / model.bits_per_cell
                assert struct.pack("<d", raw) == struct.pack("<d", derived)
                for scheme in SCHEME_MENU:
                    unmemoized = (raw if scheme.t == 0 else
                                  binomial_tail.__wrapped__(
                                      scheme.block_bits, raw, scheme.t))
                    assert struct.pack("<d", scheme.block_failure_rate(raw)) \
                        == struct.pack("<d", unmemoized)
        assert binomial_tail.cache_info().hits > 0

    def test_rate_memo_is_bounded_and_shared_by_threads(self, monkeypatch):
        monkeypatch.setattr(mlc_module, "_RATE_MEMO_LIMIT", 5)
        mlc_module._RATE_MEMO.clear()
        models = [MLCCellModel(), MLCCellModel(levels=4)]
        want = {(index, t_days):
                model.cell_error_rate(t_days) / model.bits_per_cell
                for index, model in enumerate(models)
                for t_days in self.AGES}
        errors = []

        def worker(seed):
            rng = np.random.default_rng(seed)
            for _ in range(400):
                index = int(rng.integers(len(models)))
                t_days = self.AGES[int(rng.integers(len(self.AGES)))]
                if models[index].raw_bit_error_rate(t_days) != \
                        want[index, t_days]:
                    errors.append((index, t_days))
                if len(mlc_module._RATE_MEMO) > 5:
                    errors.append("memo past its limit")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(seed,))
                       for seed in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert len(mlc_module._RATE_MEMO) <= 5

    def test_memos_stay_out_of_pickles(self):
        model = MLCCellModel()
        blob = pickle.dumps(model)
        for t_days in self.AGES:
            model.raw_bit_error_rate(t_days)
        assert pickle.dumps(model) == blob
        assert sorted(vars(pickle.loads(blob))) == [
            "drift_coefficient", "drift_sigma", "level_positions", "levels",
            "read_targets", "read_thresholds", "scrub_interval_days",
            "write_sigma"]
