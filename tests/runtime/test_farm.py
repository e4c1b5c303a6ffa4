"""Encode-farm integration: the batched campaign == the per-clip pipeline.

The farm's whole contract is "same numbers, faster": GOP work units,
batched execution, a worker pool and journal resume must each be
invisible in the results. Every test here compares a farm configuration
against either the per-macroblock reference encoder
(:func:`~repro.codec.reference.encode_scalar`, one unit at a time) or
another farm configuration and demands equality.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.codec import EncoderConfig
from repro.codec.batch import gop_unit_bounds
from repro.codec.decoder import Decoder
from repro.codec.reference import encode_scalar
from repro.metrics.psnr import video_psnr
from repro.runtime import (
    ChaosPolicy,
    RunStats,
    TrialContext,
    arm_chaos,
    campaign_digest,
    disarm_chaos,
    fork_available,
)
from repro.runtime.farm import (
    build_encode_unit_specs,
    build_farm_context,
    encode_farm,
)
from repro.video.frame import VideoSequence

_CONFIG = EncoderConfig(crf=30, gop_size=4)


def _clips(count=3, width=32, height=32, frames=6, seed=7):
    rng = np.random.default_rng(seed)
    clips = []
    for _ in range(count):
        base = rng.integers(0, 220, size=(height, width), dtype=np.int32)
        stack = [np.clip(base + rng.integers(-25, 25, size=base.shape),
                         0, 255).astype(np.uint8)
                 for _ in range(frames)]
        clips.append(VideoSequence.from_array(np.stack(stack)))
    return clips


def _per_clip_reference(clips, config):
    """(bits, psnr) per clip via the reference encoder, unit by unit."""
    expected = []
    for clip in clips:
        bits = 0
        for start, stop in gop_unit_bounds(len(clip), config):
            unit = clip.subsequence(start, stop)
            bits += 8 * len(encode_scalar(unit, config).serialize())
        encoded = encode_scalar(clip, config)
        psnr = video_psnr(clip, Decoder().decode(encoded))
        expected.append((bits, psnr))
    return expected


class TestFarmMatchesPerClip:
    def test_bits_and_psnr_match_scalar_pipeline(self):
        clips = _clips()
        result = encode_farm(clips, _CONFIG, workers=0, batch_size=4)
        expected = _per_clip_reference(clips, _CONFIG)
        assert len(result.clips) == len(clips)
        for clip_result, (bits, psnr) in zip(result.clips, expected):
            assert clip_result.complete
            assert clip_result.bits == bits
            # Units partition the clip's frames, so the reassembled
            # frame-mean equals the whole-clip video_psnr exactly.
            assert clip_result.psnr_db == pytest.approx(psnr, abs=1e-9)

    def test_unit_count_matches_gop_bounds(self):
        clips = _clips(count=2, frames=9)
        result = encode_farm(clips, _CONFIG, workers=0)
        for clip, clip_result in zip(clips, result.clips):
            assert clip_result.units == len(
                gop_unit_bounds(len(clip), _CONFIG))


class TestFarmInvariances:
    """Execution knobs must never change the numbers."""

    def _run(self, clips, **kwargs):
        result = encode_farm(clips, _CONFIG, workers=0, **kwargs)
        return result.clips

    def test_batch_width_invariant(self):
        clips = _clips()
        narrow = self._run(clips, batch_size=2)
        wide = self._run(clips, batch_size=8)
        assert narrow == wide


@pytest.mark.skipif(not fork_available(),
                    reason="fork start method unavailable")
class TestFarmPool:
    def test_pool_campaign_pickles_no_context(self, monkeypatch):
        """Forked workers inherit the context: neither it nor a clip is
        pickled, so a pool that shipped the context by pickle (a
        ``spawn`` start, say) fails here."""
        pickled = {TrialContext: 0, VideoSequence: 0}

        def counting(self, protocol):
            pickled[type(self)] += 1
            return object.__reduce_ex__(self, protocol)

        for cls in pickled:
            monkeypatch.setattr(cls, "__reduce_ex__", counting)
        clips = _clips()
        serial = encode_farm(clips, _CONFIG, workers=0, batch_size=2)
        pooled = encode_farm(clips, _CONFIG, workers=2, batch_size=2)
        assert pooled.stats.workers == 2
        assert pickled == {TrialContext: 0, VideoSequence: 0}
        assert pooled.clips == serial.clips
        # The counter sees a pickle when one happens.
        pickle.dumps(build_farm_context(clips, _CONFIG))
        assert pickled[TrialContext] == 1
        assert pickled[VideoSequence] == len(clips)


class TestFarmSkipAndScale:
    """A failed unit is skipped and its clip scaled over the units that
    survived; every other clip is untouched."""

    @pytest.mark.parametrize("workers", [
        0,
        pytest.param(2, marks=pytest.mark.skipif(
            not fork_available(), reason="fork start method unavailable")),
    ])
    def test_one_failed_unit(self, workers):
        clips = _clips(count=2)
        clean = encode_farm(clips, _CONFIG, workers=0, batch_size=1)
        arm_chaos(ChaosPolicy(fail_trials=(0,)))
        try:
            farm = encode_farm(clips, _CONFIG, workers=workers,
                               batch_size=1)
        finally:
            disarm_chaos()
        assert farm.stats.failed == 1
        assert sum(clip.failed_units for clip in farm.clips) == 1
        lost, other = farm.clips
        assert lost.failed_units == 1
        assert lost.units == clean.clips[0].units
        assert other.complete
        assert (other.bits, other.psnr_db) == (clean.clips[1].bits,
                                               clean.clips[1].psnr_db)


class TestFarmJournalResume:
    def test_completed_farm_replays_from_journal(self, tmp_path):
        clips = _clips(count=2)
        journal = tmp_path / "farm.jsonl"
        first = encode_farm(clips, _CONFIG, workers=0, journal=journal)
        assert first.stats.resumed == 0
        second = encode_farm(clips, _CONFIG, workers=0, journal=journal)
        assert second.clips == first.clips
        assert second.stats.resumed == len(first.outcomes)

    def test_journal_digest_transport_independent(self):
        """Farm journals written before the clip transport went still
        resume: the digest hashes clip content, not the object holding
        the clips, and equals the one both earlier transports (by value
        and shared memory) computed for this corpus."""
        clips = _clips(count=2)
        specs = build_encode_unit_specs(clips, _CONFIG,
                                        np.random.default_rng(0))
        assert campaign_digest(specs, build_farm_context(clips, _CONFIG)) \
            == "068c6f856b824a84f2aa265a69f90eb8"


class TestFarmSpecs:
    def test_specs_are_clip_major_and_cover_all_frames(self):
        clips = _clips(count=2, frames=9)
        specs = build_encode_unit_specs(
            clips, _CONFIG, np.random.default_rng(0))
        cursor = 0
        for clip_index, clip in enumerate(clips):
            bounds = gop_unit_bounds(len(clip), _CONFIG)
            for start, stop in bounds:
                spec = specs[cursor]
                assert spec.clip_ref == clip_index
                assert (spec.unit_start, spec.unit_stop) == (start, stop)
                cursor += 1
            assert bounds[0][0] == 0
            assert bounds[-1][1] == len(clip)
        assert cursor == len(specs)

    def test_spec_seeds_are_distinct(self):
        clips = _clips(count=3, frames=8)
        specs = build_encode_unit_specs(
            clips, _CONFIG, np.random.default_rng(1))
        seeds = [spec.seed for spec in specs]
        assert len(set(seeds)) == len(seeds)

    def test_stats_shape(self):
        clips = _clips(count=2, frames=4)
        result = encode_farm(clips, _CONFIG, workers=0)
        assert isinstance(result.stats, RunStats)
        assert result.stats.trials == len(result.outcomes)


class TestBFrameFallback:
    """B-frame GOPs cannot split into independent units; the farm must
    fall back to whole-clip units instead of refusing the corpus."""

    _BCONFIG = EncoderConfig(crf=30, gop_size=4, bframes=1)

    def test_gop_unit_bounds_refuses_bframes_typed(self):
        from repro.errors import EncoderError, GopStructureError

        with pytest.raises(GopStructureError, match="B-frame"):
            gop_unit_bounds(8, self._BCONFIG)
        # Still catchable as the codec-layer base class.
        assert issubclass(GopStructureError, EncoderError)

    def test_clip_unit_bounds_falls_back_to_whole_clip(self):
        from repro.runtime.farm import clip_unit_bounds

        assert clip_unit_bounds(10, self._BCONFIG) == [(0, 10)]
        assert clip_unit_bounds(8, _CONFIG) == \
            gop_unit_bounds(8, _CONFIG)

    def test_farm_matches_scalar_on_bframe_corpus(self):
        clips = _clips(count=2, frames=6, seed=3)
        result = encode_farm(clips, self._BCONFIG, workers=0,
                             batch_size=4)
        for clip, clip_result in zip(clips, result.clips):
            encoded = encode_scalar(clip, self._BCONFIG)
            assert clip_result.complete
            assert clip_result.units == 1
            assert clip_result.bits == 8 * len(encoded.serialize())
            assert clip_result.psnr_db == pytest.approx(
                video_psnr(clip, Decoder().decode(encoded)), abs=1e-9)
