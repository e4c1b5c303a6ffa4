"""Encode-farm integration: the batched campaign == the per-clip pipeline.

The farm's whole contract is "same numbers, faster": GOP work units,
batched execution, shared-memory clip transport, and journal resume
must each be invisible in the results. Every test here compares a farm
configuration against either the per-macroblock reference encoder
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
from repro.runtime import RunStats
from repro.runtime.farm import (
    build_encode_unit_specs,
    encode_farm,
)
from repro.runtime.shm import SharedClipStore, pack_clips
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
        result = encode_farm(clips, _CONFIG, workers=0, batch_size=4,
                             use_shared_memory=False)
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
        result = encode_farm(clips, _CONFIG, workers=0,
                             use_shared_memory=False)
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
        narrow = self._run(clips, batch_size=2, use_shared_memory=False)
        wide = self._run(clips, batch_size=8, use_shared_memory=False)
        assert narrow == wide

    def test_shared_memory_invariant(self):
        clips = _clips()
        by_value = self._run(clips, use_shared_memory=False)
        by_segment = self._run(clips, use_shared_memory=True)
        assert by_value == by_segment


class TestFarmJournalResume:
    def test_completed_farm_replays_from_journal(self, tmp_path):
        clips = _clips(count=2)
        journal = tmp_path / "farm.jsonl"
        first = encode_farm(clips, _CONFIG, workers=0, journal=journal,
                            use_shared_memory=False)
        assert first.stats.resumed == 0
        second = encode_farm(clips, _CONFIG, workers=0, journal=journal,
                             use_shared_memory=False)
        assert second.clips == first.clips
        assert second.stats.resumed == len(first.outcomes)

    def test_journal_digest_transport_independent(self, tmp_path):
        """A journal written with by-value clips resumes a shared-memory
        run: digests hash clip content, not the transport wrapper."""
        clips = _clips(count=2)
        journal = tmp_path / "farm.jsonl"
        first = encode_farm(clips, _CONFIG, workers=0, journal=journal,
                            use_shared_memory=False)
        second = encode_farm(clips, _CONFIG, workers=0, journal=journal,
                             use_shared_memory=True)
        assert second.clips == first.clips
        assert second.stats.resumed == len(first.outcomes)


class TestSharedClipStore:
    def test_roundtrip_and_handle_size(self):
        clips = _clips(count=2, frames=4)
        store = pack_clips(clips, use_shared_memory=True)
        if not isinstance(store, SharedClipStore):
            pytest.skip("shared memory unavailable on this host")
        try:
            blob = pickle.dumps(store)
            # The handle ships the segment name and manifest, never the
            # frame bytes.
            assert len(blob) < 2048
            attached = pickle.loads(blob)
            assert attached.content_digest == store.content_digest
            assert len(attached) == len(clips)
            for clip, shared in zip(clips, attached):
                np.testing.assert_array_equal(clip.to_array(),
                                              shared.to_array())
            attached.close()
        finally:
            store.close()

    def test_pack_clips_disabled_returns_tuple(self):
        clips = _clips(count=2, frames=3)
        packed = pack_clips(clips, use_shared_memory=False)
        assert isinstance(packed, tuple)
        assert len(packed) == len(clips)

    def test_closed_store_refuses_attachment(self):
        clips = _clips(count=1, frames=3)
        store = pack_clips(clips, use_shared_memory=True)
        if not isinstance(store, SharedClipStore):
            pytest.skip("shared memory unavailable on this host")
        store.close()
        with pytest.raises(Exception):
            store[0].to_array()


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
        result = encode_farm(clips, _CONFIG, workers=0,
                             use_shared_memory=False)
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
                             batch_size=4, use_shared_memory=False)
        for clip, clip_result in zip(clips, result.clips):
            encoded = encode_scalar(clip, self._BCONFIG)
            assert clip_result.complete
            assert clip_result.units == 1
            assert clip_result.bits == 8 * len(encoded.serialize())
            assert clip_result.psnr_db == pytest.approx(
                video_psnr(clip, Decoder().decode(encoded)), abs=1e-9)


class TestSegmentLeaks:
    """Shared segments must never outlive their campaign."""

    @staticmethod
    def _shm_names():
        import pathlib

        root = pathlib.Path("/dev/shm")
        if not root.is_dir():
            pytest.skip("/dev/shm unavailable")
        return {p.name for p in root.iterdir()}

    def test_failed_pack_leaves_no_segment(self):
        pytest.importorskip("multiprocessing.shared_memory")

        class ExplodingStore(SharedClipStore):
            def __init__(self, *args, **kwargs):
                if kwargs.get("owner"):
                    raise RuntimeError("simulated pack failure")
                super().__init__(*args, **kwargs)

        before = self._shm_names()
        with pytest.raises(RuntimeError, match="simulated"):
            ExplodingStore.pack(_clips(count=1, frames=2))
        assert self._shm_names() <= before

    def test_owner_atexit_unlinks_on_plain_exit(self):
        pytest.importorskip("multiprocessing.shared_memory")
        import subprocess
        import sys

        # The child packs a store, prints the segment name, and exits
        # WITHOUT calling close(): the atexit hook must unlink.
        script = (
            "import numpy as np\n"
            "from repro.runtime.shm import SharedClipStore\n"
            "from repro.video.frame import VideoSequence\n"
            "clip = VideoSequence.from_array(\n"
            "    np.zeros((2, 32, 32), dtype=np.uint8))\n"
            "store = SharedClipStore.pack([clip])\n"
            "print(store.name)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        name = proc.stdout.strip()
        assert name
        assert name not in self._shm_names()
