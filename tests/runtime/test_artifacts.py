"""Artifact cache: content keying, hit/miss accounting, LRU, env gate."""

from __future__ import annotations

import numpy as np
import pytest

from repro.codec import EncoderConfig
from repro.runtime import ArtifactCache, content_key, session_cache
from repro.video import SceneConfig, VideoSequence, synthesize_scene

CACHE_ENV = "REPRO_ARTIFACT_CACHE"


def _tiny_video(seed):
    return synthesize_scene(SceneConfig(
        width=32, height=32, num_frames=2, seed=seed, num_objects=1))


class TestContentKey:
    def test_stable_for_identical_inputs(self):
        config = EncoderConfig(crf=24, gop_size=2)
        assert (content_key(_tiny_video(1), config)
                == content_key(_tiny_video(1), config))

    def test_sensitive_to_frames_and_config(self):
        config = EncoderConfig(crf=24, gop_size=2)
        base = content_key(_tiny_video(1), config)
        assert content_key(_tiny_video(2), config) != base
        assert content_key(_tiny_video(1),
                           EncoderConfig(crf=20, gop_size=2)) != base


class TestArtifactCache:
    def test_encode_hits_second_time(self):
        cache = ArtifactCache()
        video = _tiny_video(3)
        config = EncoderConfig(crf=24, gop_size=2)
        first = cache.encode(video, config)
        second = cache.encode(video, config)
        assert second is first
        assert (cache.hits, cache.misses) == (1, 1)

    def test_clean_decode_lazy_and_cached(self):
        cache = ArtifactCache()
        video = _tiny_video(3)
        config = EncoderConfig(crf=24, gop_size=2)
        first = cache.clean_decode(video, config)
        second = cache.clean_decode(video, config)
        assert second is first
        assert np.array_equal(first.frames[0], second.frames[0])

    def test_clean_decode_is_the_encoders_reconstruction(self,
                                                         monkeypatch):
        # The clean decode comes from the encoder's closed loop: no
        # decoder runs, and the frames equal a decode of the stream,
        # read-only and at the clip's frame rate, as a decoder's are.
        from repro.codec import Decoder

        cache = ArtifactCache()
        video = VideoSequence.from_array(_tiny_video(5).to_array(),
                                         fps=24.0)
        config = EncoderConfig(crf=24, gop_size=2, bframes=1)

        def refuse(*args, **kwargs):
            raise AssertionError("clean_decode ran the decoder")

        with monkeypatch.context() as patch:
            patch.setattr(Decoder, "decode", refuse)
            clean = cache.clean_decode(video, config)
        encoded = cache.encode(video, config)
        assert (cache.hits, cache.misses) == (1, 1)
        decoded = Decoder().decode(encoded)
        assert clean.fps == decoded.fps == 24.0
        assert np.array_equal(clean.to_array(), decoded.to_array())
        assert not any(frame.flags.writeable for frame in clean.frames)

    def test_lru_evicts_oldest(self):
        cache = ArtifactCache(max_entries=2)
        config = EncoderConfig(crf=24, gop_size=2)
        videos = [_tiny_video(seed) for seed in (1, 2, 3)]
        for video in videos:
            cache.encode(video, config)
        assert len(cache) == 2
        # Oldest (seed 1) was evicted: encoding it again is a miss.
        misses = cache.misses
        cache.encode(videos[0], config)
        assert cache.misses == misses + 1

    def test_disabled_cache_always_recomputes(self):
        cache = ArtifactCache(enabled=False)
        video = _tiny_video(4)
        config = EncoderConfig(crf=24, gop_size=2)
        first = cache.encode(video, config)
        second = cache.encode(video, config)
        assert second is not first
        assert len(cache) == 0


class TestSessionCache:
    def test_singleton(self):
        assert session_cache() is session_cache()

    def test_env_gate_toggles_enabled(self, monkeypatch):
        monkeypatch.setenv(CACHE_ENV, "0")
        assert session_cache().enabled is False
        monkeypatch.setenv(CACHE_ENV, "1")
        assert session_cache().enabled is True

    @pytest.mark.parametrize("word", ["false", "off", "no", "OFF"])
    def test_every_off_word_disables(self, monkeypatch, word):
        # The same words that turn REPRO_PROGRESS off.
        monkeypatch.setenv(CACHE_ENV, word)
        assert session_cache().enabled is False
        monkeypatch.delenv(CACHE_ENV)
        assert session_cache().enabled is True
