"""Reads on one worker thread, cache hits on the event loop.

The front-end answers a frame read whose display GOP is cached on its
event loop and hands every other read to its one read worker. These
tests pin what that must not change: one submission per miss and none
per hit, the cache counters of a scripted read sequence, whole-GOP
frames equal to a full decode, and a worker that ``stop()`` retires.
They also stress the two structures both threads write: the GOP cache
and the audit trail.
"""

from __future__ import annotations

import asyncio
import copy
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import repro.codec.decoder as decoder_module
import repro.codec.encoded as encoded_module
from repro.codec import EncoderConfig
from repro.codec.decoder import Decoder
from repro.codec.encoder import Encoder
from repro.errors import ServiceOverloadError
from repro.service import (
    AuditLog,
    CachedGop,
    GopCache,
    Keyring,
    ServiceFrontend,
    ShardPool,
    VideoObjectStore,
)
from repro.storage import MLCCellModel
from repro.video import SceneConfig, synthesize_scene

from .test_manifest import GOLDEN_CLIPS

#: 12 frames at GOP 4: three display GOPs.
CONFIG = EncoderConfig(crf=30, gop_size=4, bframes=1)

#: Displays of a scripted frame-read sequence over those three GOPs.
SCRIPT = (0, 1, 2, 5, 6, 0, 9, 10, 1, 5, 3, 7, 11, 8, 4, 0, 0, 2, 6, 6, 9)

#: ``GopCache.stats()`` after :data:`SCRIPT` on the aged store below,
#: as the parent revision counted it with every read on an executor.
SCRIPT_STATS = {"size": 2, "capacity": 2, "hits": 9, "misses": 12,
                "evictions": 8, "expirations": 2}


def _clip():
    return synthesize_scene(SceneConfig(
        width=48, height=32, num_frames=12, seed=9, num_objects=2))


def _store(seek_cache: int = 4):
    pool = ShardPool(count=3, cell_model=MLCCellModel(write_sigma=1e-9))
    store = VideoObjectStore(pool=pool, config=CONFIG,
                             keyring=Keyring(seed=5), seek_cache=seek_cache)
    return store, store.put("alice", _clip())


def _aged_store():
    """Two-GOP cache over a single-copy store aged until reads conceal:
    damaged GOPs enter with a one-hit TTL and expire."""
    pool = ShardPool(count=3, t_days=200000.0, read_retries=0,
                     quarantine_after=10**9)
    store = VideoObjectStore(pool=pool, config=CONFIG,
                             keyring=Keyring(seed=5), seek_cache=2,
                             replicas=1)
    return store, store.put("alice", _clip())


class _Recording(ThreadPoolExecutor):
    """One worker thread that remembers every submission."""

    def __init__(self) -> None:
        super().__init__(max_workers=1)
        self.submitted = []

    def submit(self, fn, *args, **kwargs):
        self.submitted.append(fn)
        return super().submit(fn, *args, **kwargs)


async def _started(store) -> ServiceFrontend:
    frontend = ServiceFrontend(store)
    await frontend.start()
    return frontend


class TestFrontendReads:
    def test_a_hit_submits_nothing_and_a_miss_submits_once(self):
        store, object_id = _store()

        async def run():
            frontend = await _started(store)
            frontend._reads.shutdown()
            frontend._reads = recording = _Recording()
            miss = await frontend.read_frame(
                "alice", object_id, 1, rng=np.random.default_rng(1))
            after_miss = len(recording.submitted)
            hit = await frontend.read_frame(
                "alice", object_id, 2, rng=np.random.default_rng(2))
            await frontend.stop()
            return miss, hit, after_miss, len(recording.submitted)

        miss, hit, after_miss, after_hit = asyncio.run(run())
        assert not miss.cache_hit and hit.cache_hit
        assert after_miss == 1 and after_hit == 1
        assert [event.detail for event in store.audit.events("read_frame")
                ] == ["display=1 outcome=clean",
                      "display=2 outcome=clean cache_hit"]
        assert store.gop_cache.hits == 1 and store.gop_cache.misses == 1

    def test_scripted_reads_count_as_the_parent_did(self):
        store, object_id = _aged_store()
        twin = copy.deepcopy(store)
        direct = [twin.get_frame("alice", object_id, display,
                                 rng=np.random.default_rng(k))
                  for k, display in enumerate(SCRIPT)]

        async def run():
            frontend = await _started(store)
            served = [await frontend.read_frame(
                "alice", object_id, display, rng=np.random.default_rng(k))
                for k, display in enumerate(SCRIPT)]
            await frontend.stop()
            return served

        served = asyncio.run(run())
        assert store.gop_cache.stats() == SCRIPT_STATS
        assert twin.gop_cache.stats() == SCRIPT_STATS
        for got, want in zip(served, direct):
            assert (got.cache_hit, got.outcome) == (want.cache_hit,
                                                    want.outcome)
            assert np.array_equal(got.frame, want.frame)
        assert ([e.detail for e in store.audit.events("read_frame")]
                == [e.detail for e in twin.audit.events("read_frame")])

    def test_every_read_runs_on_one_worker_thread(self):
        store, object_id = _store(seek_cache=0)
        threads = set()
        get, get_frame = store.get, store.get_frame

        def spied(call):
            def wrapper(*args, **kwargs):
                threads.add(threading.current_thread())
                return call(*args, **kwargs)
            return wrapper

        store.get, store.get_frame = spied(get), spied(get_frame)

        async def run():
            frontend = await _started(store)
            await asyncio.gather(*(
                frontend.read_frame("alice", object_id, display,
                                    rng=np.random.default_rng(display))
                for display in range(6)), frontend.read(
                "alice", object_id, rng=np.random.default_rng(9)))
            await frontend.stop()

        asyncio.run(run())
        assert len(threads) == 1
        assert threading.main_thread() not in threads

    def test_stop_retires_the_read_worker(self):
        store, object_id = _store()

        async def run():
            frontend = await _started(store)
            await frontend.read_frame("alice", object_id, 5,
                                      rng=np.random.default_rng(5))
            worker = await asyncio.get_running_loop().run_in_executor(
                frontend._reads, threading.current_thread)
            await frontend.stop()
            return worker

        worker = asyncio.run(run())
        assert worker is not threading.main_thread()
        worker.join(timeout=10)
        assert not worker.is_alive()

    def test_reads_before_start_are_an_overload(self):
        store, object_id = _store()
        frontend = ServiceFrontend(store)
        with pytest.raises(ServiceOverloadError):
            asyncio.run(frontend.read("alice", object_id))
        with pytest.raises(ServiceOverloadError):
            asyncio.run(frontend.read_frame("alice", object_id, 0))
        assert len(store.audit.events("read_frame")) == 0


@pytest.fixture(params=sorted(GOLDEN_CLIPS))
def golden(request):
    scene, config = GOLDEN_CLIPS[request.param]
    return config, synthesize_scene(scene)


def test_a_seek_miss_walks_no_closure_and_decodes_like_decode(
        golden, monkeypatch):
    config, clip = golden
    want = Decoder().decode(Encoder(config).encode(clip))
    pool = ShardPool(count=3, cell_model=MLCCellModel(write_sigma=1e-9))
    store = VideoObjectStore(pool=pool, config=config,
                             keyring=Keyring(seed=5), seek_cache=0)
    object_id = store.put("alice", clip)
    calls = []

    def spy(name, original):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(decoder_module, "dependency_closure",
                        spy("dependency_closure",
                            decoder_module.dependency_closure))
    monkeypatch.setattr(encoded_module, "validate_seek_index",
                        spy("validate_seek_index",
                            encoded_module.validate_seek_index))
    for display in range(len(clip)):
        result = store.get_frame("alice", object_id, display,
                                 rng=np.random.default_rng(display))
        assert result.outcome == "clean" and not result.cache_hit
        assert np.array_equal(result.frame, want.frames[display])
    assert calls == []


def _thrash(interval: float, body) -> None:
    """Run ``body`` with a tiny switch interval, restored afterwards."""
    saved = sys.getswitchinterval()
    sys.setswitchinterval(interval)
    try:
        body()
    finally:
        sys.setswitchinterval(saved)


def _run_threads(targets, timeout: float = 60.0) -> None:
    """Start ``targets`` together, each on its own thread; join all."""
    barrier = threading.Barrier(len(targets))

    def together(target):
        def run():
            barrier.wait()
            target()
        return run

    threads = [threading.Thread(target=together(target))
               for target in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=timeout)
    assert not any(thread.is_alive() for thread in threads)


def test_loop_hits_race_worker_fills():
    # Three threads of each side raise the odds of a bad interleaving:
    # without the cache's lock this fails with lost counts, KeyErrors
    # and an over-full cache.
    cache = GopCache(capacity=4, concealed_ttl=2)
    keys = [("t", "o", 4 * k) for k in range(7)]
    rounds = 20000
    errors = []

    def loop_side():
        # The event loop's read: a hit, or the miss the worker counts.
        try:
            for i in range(rounds):
                key = keys[(5 * i) % len(keys)]
                if cache.hit(key) is None:
                    cache.get(key)
        except Exception as exc:  # reported below
            errors.append(exc)

    def worker_side():
        # The read worker: a miss's lookup, then the decoded GOP.
        try:
            for i in range(rounds):
                key = keys[(3 * i) % len(keys)]
                if cache.get(key) is None:
                    cache.put(key, CachedGop(
                        anchor_display=key[2], frames={},
                        outcome="concealed" if i % 4 == 0 else "clean"))
                assert len(cache) <= cache.capacity
        except Exception as exc:  # reported below
            errors.append(exc)

    _thrash(1e-6, lambda: _run_threads([loop_side, worker_side] * 3))
    assert errors == []
    stats = cache.stats()
    assert stats["hits"] + stats["misses"] == 6 * rounds
    assert stats["size"] <= stats["capacity"]


def test_audit_sequence_numbers_are_unique_under_threads():
    log = AuditLog()
    threads, calls = 4, 20000

    def recorder(tenant):
        return lambda: [log.record("read_frame", tenant, "object")
                        for _ in range(calls)]

    _thrash(1e-6, lambda: _run_threads(
        [recorder(f"tenant-{k}") for k in range(threads)]))
    seqs = [event.seq for event in log]
    assert len(seqs) == threads * calls
    assert sorted(seqs) == list(range(threads * calls))
