"""Trial-engine behavior: determinism across worker counts + knobs.

The engine's core contract is that fanning a campaign out over worker
processes never changes a single number. These tests pin that contract
for the two refactored exhibit runners and for the low-level plumbing
(worker resolution, chunking, spec picklability, seed spawning).
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.analysis import quality_sweep, run_figure3
from repro.errors import AnalysisError
from repro.runtime import (
    TrialExecutor,
    TrialSpec,
    build_sweep_specs,
    default_chunksize,
    fork_available,
    spawn_trial_seeds,
)

WORKERS_ENV = "REPRO_NUM_WORKERS"

WORKER_COUNTS = (0, 1, 4)
RATES = (1e-3, 1e-2)
RUNS = 3


def _sweep(encoded, small_video, decoded_small, workers):
    return quality_sweep(encoded, small_video, decoded_small, None,
                         rates=RATES, runs=RUNS,
                         rng=np.random.default_rng(2024), workers=workers)


class TestSerialParallelEquivalence:
    def test_quality_sweep_bitwise_identical(self, encoded_small,
                                             small_video, decoded_small):
        results = [_sweep(encoded_small, small_video, decoded_small, w)
                   for w in WORKER_COUNTS]
        for workers, result in zip(WORKER_COUNTS[1:], results[1:]):
            assert result == results[0], (
                f"workers={workers} diverges from serial")
        # Bitwise identity of every aggregate, not just dataclass ==.
        for result in results[1:]:
            for a, b in zip(results[0].points, result.points):
                assert a.mean_change_db == b.mean_change_db
                assert a.max_loss_db == b.max_loss_db
                assert a.mean_flips == b.mean_flips

    def test_figure3_bitwise_identical(self, small_video, default_config):
        results = [run_figure3(small_video, default_config, max_frames=1,
                               workers=w)
                   for w in WORKER_COUNTS]
        for workers, result in zip(WORKER_COUNTS[1:], results[1:]):
            assert np.array_equal(result.psnr_grid, results[0].psnr_grid,
                                  equal_nan=True), (
                f"workers={workers} diverges from serial")
            assert np.array_equal(result.samples_grid,
                                  results[0].samples_grid)

    def test_stats_recorded_per_run(self, encoded_small, small_video,
                                    decoded_small):
        result = _sweep(encoded_small, small_video, decoded_small, 0)
        assert result.stats is not None
        assert result.stats.workers == 0
        assert result.stats.trials == len(RATES) * RUNS
        assert result.stats.trials_per_second > 0


class TestResolveWorkers:
    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "7")
        assert TrialExecutor(3).workers == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "5")
        assert TrialExecutor(None).workers == 5

    def test_unset_env_means_serial(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert TrialExecutor(None).workers == 0

    def test_empty_env_means_serial(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "")
        assert TrialExecutor(None).workers == 0

    def test_negative_rejected(self):
        with pytest.raises(AnalysisError):
            TrialExecutor(-1)

    def test_garbage_env_rejected(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "lots")
        with pytest.raises(AnalysisError):
            TrialExecutor(None)

    def test_negative_env_has_clear_message(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "-3")
        with pytest.raises(AnalysisError, match="REPRO_NUM_WORKERS"):
            TrialExecutor(None)

    def test_float_env_has_clear_message(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "2.5")
        with pytest.raises(AnalysisError, match="not an integer"):
            TrialExecutor(None)


class TestChunking:
    def test_small_batches_get_chunk_one(self):
        assert default_chunksize(3, workers=4) == 1

    def test_large_batches_split_four_per_worker(self):
        assert default_chunksize(160, workers=4) == 10

    def test_uneven_rounds_up(self):
        assert default_chunksize(17, workers=4) == 2


class TestSpecs:
    def test_trial_spec_picklable(self):
        spec = TrialSpec(index=0, kind="sweep", rate=1e-3,
                         seed=np.random.SeedSequence(7),
                         ranges_ref=0, force_at_least_one=True)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.index == spec.index
        assert clone.rate == spec.rate
        # Spawned generators from the shipped seed match the original's.
        ours = np.random.default_rng(spec.seed).integers(0, 1 << 30, 4)
        theirs = np.random.default_rng(clone.seed).integers(0, 1 << 30, 4)
        assert np.array_equal(ours, theirs)

    def test_build_sweep_specs_grid(self):
        specs = build_sweep_specs((1e-4, 1e-2), runs=3,
                                  rng=np.random.default_rng(0),
                                  ranges_ref=0, force_at_least_one=False)
        assert len(specs) == 6
        assert [s.index for s in specs] == list(range(6))
        assert [s.rate for s in specs] == [1e-4] * 3 + [1e-2] * 3

    def test_spawned_seeds_deterministic_and_distinct(self):
        first = spawn_trial_seeds(np.random.default_rng(9), 5)
        second = spawn_trial_seeds(np.random.default_rng(9), 5)
        states = {np.random.default_rng(s).integers(0, 1 << 62)
                  for s in first}
        assert len(states) == 5
        for a, b in zip(first, second):
            assert (np.random.default_rng(a).integers(0, 1 << 62)
                    == np.random.default_rng(b).integers(0, 1 << 62))


def test_fork_availability_reported():
    assert isinstance(fork_available(), bool)
