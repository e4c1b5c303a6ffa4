"""Tests for random-access frame reads through the object store.

``get_frame`` must serve the same pixels as a whole-clip ``get`` while
fetching only the frame's display GOP off the shards, caching decoded
GOPs, and running the same four-outcome failure ladder as the full read
path.
"""

import asyncio

import numpy as np
import pytest

from repro.codec import EncoderConfig
from repro.errors import AccessDeniedError, ServiceError
from repro.metrics import psnr
from repro.service import (
    CachedGop,
    GopCache,
    Keyring,
    ServiceFrontend,
    ShardPool,
    VideoObjectStore,
)
from repro.storage import MLCCellModel
from repro.video import SceneConfig, synthesize_scene

#: 12 frames at GOP 4 -> three display GOPs to seek across.
CONFIG = EncoderConfig(crf=30, gop_size=4, bframes=1)


def _clip(seed: int = 9):
    return synthesize_scene(SceneConfig(
        width=48, height=32, num_frames=12, seed=seed, num_objects=2))


def _quiet_pool(**kwargs):
    """A pool whose device essentially never flips a bit."""
    return ShardPool(count=3,
                     cell_model=MLCCellModel(write_sigma=1e-9), **kwargs)


def _store(seek_cache=16, **pool_kwargs):
    pool = pool_kwargs.pop("pool", None) or _quiet_pool(**pool_kwargs)
    store = VideoObjectStore(pool=pool, config=CONFIG,
                             keyring=Keyring(seed=5),
                             seek_cache=seek_cache)
    object_id = store.put("alice", _clip())
    return store, object_id


@pytest.fixture(scope="module")
def shared():
    return _store()


class TestCleanIdentity:
    def test_every_display_matches_the_full_read(self, shared):
        store, object_id = shared
        full = store.get("alice", object_id,
                         rng=np.random.default_rng(0))
        assert full.outcome == "clean"
        for display in range(store.record("alice", object_id).frames):
            result = store.get_frame("alice", object_id, display,
                                     rng=np.random.default_rng(display))
            assert result.outcome == "clean"
            assert np.array_equal(result.frame,
                                  full.video.frames[display]), \
                f"display {display} diverged from the full read"

    def test_partial_read_touches_a_strict_subset(self):
        store, object_id = _store(seek_cache=0)
        record = store.record("alice", object_id)
        result = store.get_frame("alice", object_id, 6,
                                 rng=np.random.default_rng(1))
        assert not result.cache_hit
        assert 0 < result.bytes_read < result.bytes_total
        assert 0 < result.frames_decoded < record.frames
        assert result.gop_anchor == 4  # display 6 lives in GOP [4, 8)


class TestGopCache:
    def test_same_gop_hits_the_cache(self):
        store, object_id = _store(seek_cache=2)
        cold = store.get_frame("alice", object_id, 1,
                               rng=np.random.default_rng(2))
        warm = store.get_frame("alice", object_id, 2,
                               rng=np.random.default_rng(3))
        assert not cold.cache_hit and warm.cache_hit
        assert warm.bytes_read == 0 and warm.frames_decoded == 0
        assert store.gop_cache.hits == 1
        assert np.array_equal(
            warm.frame,
            store.get("alice", object_id,
                      rng=np.random.default_rng(4)).video.frames[2])

    def test_lru_eviction_past_capacity(self):
        store, object_id = _store(seek_cache=2)
        for display in (0, 5, 9):  # three GOPs through a 2-entry cache
            store.get_frame("alice", object_id, display,
                            rng=np.random.default_rng(display))
        assert store.gop_cache.evictions >= 1
        again = store.get_frame("alice", object_id, 0,
                                rng=np.random.default_rng(7))
        assert not again.cache_hit  # GOP 0 was the LRU victim

    def test_invalidate_forces_a_cold_read(self):
        store, object_id = _store(seek_cache=4)
        store.get_frame("alice", object_id, 0,
                        rng=np.random.default_rng(0))
        store.gop_cache.invalidate("alice", object_id)
        result = store.get_frame("alice", object_id, 0,
                                 rng=np.random.default_rng(1))
        assert not result.cache_hit

    def test_zero_capacity_disables_caching(self):
        store, object_id = _store(seek_cache=0)
        for _ in range(2):
            result = store.get_frame("alice", object_id, 3,
                                     rng=np.random.default_rng(5))
            assert not result.cache_hit


class TestDamagedAdmission:
    """Concealed/refused GOPs are placeholders until repair: short TTL,
    evict-first, never LRU-pinned."""

    @staticmethod
    def _entry(outcome, anchor=0):
        return CachedGop(
            anchor_display=anchor,
            frames={anchor: np.zeros((4, 4), dtype=np.uint8)},
            outcome=outcome)

    def test_damaged_admission_gets_the_ttl(self):
        cache = GopCache(capacity=4, concealed_ttl=2)
        cache.put(("t", "o", 0), self._entry("concealed"))
        cache.put(("t", "o", 4), self._entry("clean", anchor=4))
        assert cache._entries[("t", "o", 0)].remaining_ttl == 2
        assert cache._entries[("t", "o", 4)].remaining_ttl is None

    def test_damaged_entry_expires_after_its_hits(self):
        cache = GopCache(capacity=4, concealed_ttl=1)
        cache.put(("t", "o", 0), self._entry("concealed"))
        assert cache.get(("t", "o", 0)) is not None  # the one TTL hit
        assert cache.get(("t", "o", 0)) is None  # expired -> re-fetch
        assert cache.expirations == 1
        assert ("t", "o", 0) not in cache._entries

    def test_refused_gops_expire_too(self):
        cache = GopCache(capacity=4, concealed_ttl=1)
        cache.put(("t", "o", 0), self._entry("refused"))
        assert cache.get(("t", "o", 0)).outcome == "refused"
        assert cache.get(("t", "o", 0)) is None

    def test_damaged_entries_evict_first(self):
        cache = GopCache(capacity=2, concealed_ttl=5)
        cache.put(("t", "o", 0), self._entry("clean"))
        cache.put(("t", "o", 4), self._entry("concealed", anchor=4))
        # The clean entry is older, but the damaged one is LRU-end.
        cache.put(("t", "o", 8), self._entry("clean", anchor=8))
        assert ("t", "o", 4) not in cache._entries
        assert ("t", "o", 0) in cache._entries

    def test_damaged_hits_do_not_refresh_recency(self):
        cache = GopCache(capacity=2, concealed_ttl=5)
        cache.put(("t", "o", 0), self._entry("concealed"))
        cache.put(("t", "o", 4), self._entry("clean", anchor=4))
        cache.get(("t", "o", 0))  # a hit, but stays evict-first
        cache.put(("t", "o", 8), self._entry("clean", anchor=8))
        assert ("t", "o", 0) not in cache._entries
        assert ("t", "o", 4) in cache._entries


class TestEscapeHatchAndErrors:
    def test_foreign_reader_is_denied(self, shared):
        store, object_id = shared
        with pytest.raises(AccessDeniedError):
            store.get_frame("alice", object_id, 0, reader="mallory")

    def test_out_of_range_display_is_rejected(self, shared):
        store, object_id = shared
        frames = store.record("alice", object_id).frames
        with pytest.raises(ServiceError):
            store.get_frame("alice", object_id, frames)
        with pytest.raises(ServiceError):
            store.get_frame("alice", object_id, -1)

    def test_unknown_object_is_rejected(self, shared):
        store, _ = shared
        with pytest.raises(ServiceError):
            store.get_frame("alice", "no-such-object", 0)


class TestDamageLadder:
    def test_heavily_aged_shards_conceal_not_crash(self):
        # No retries, a sky-high quarantine threshold, and a single
        # copy (no replica walk to escape to): uncorrectable damage
        # must surface as concealment through the partial path.
        pool = ShardPool(count=3, t_days=200000.0, read_retries=0,
                         quarantine_after=10**9)
        store = VideoObjectStore(pool=pool, config=CONFIG,
                                 keyring=Keyring(seed=5), seek_cache=0,
                                 replicas=1)
        object_id = store.put("alice", _clip())
        outcomes = set()
        for display in range(store.record("alice", object_id).frames):
            result = store.get_frame("alice", object_id, display,
                                     rng=np.random.default_rng(display))
            outcomes.add(result.outcome)
            if result.outcome != "refused":
                assert result.frame is not None
                assert result.frame.shape == (32, 48)
            if result.outcome == "concealed":
                assert result.concealed_streams
                assert np.isfinite(psnr(_clip().frames[display],
                                        result.frame))
        assert "concealed" in outcomes


class TestFrontend:
    def test_async_read_frame_round_trips(self, shared):
        store, object_id = shared

        async def run():
            frontend = ServiceFrontend(store, queue_depth=4)
            await frontend.start()
            result = await frontend.read_frame("alice", object_id, 3,
                                               rng=np.random.default_rng(3))
            await frontend.stop()
            return result

        result = asyncio.run(run())
        assert result.display == 3
        assert result.frame is not None
