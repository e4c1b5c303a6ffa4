"""Tests for the async front-end: queueing, batching, backpressure."""

import asyncio

import numpy as np
import pytest

from repro.errors import ServiceOverloadError
from repro.service import (
    Keyring,
    ServiceFrontend,
    ShardPool,
    VideoObjectStore,
)
from repro.video import SceneConfig, synthesize_scene


def _clip(seed: int):
    return synthesize_scene(SceneConfig(
        width=48, height=32, num_frames=4, seed=seed))


def _store():
    return VideoObjectStore(pool=ShardPool(count=2),
                            keyring=Keyring(seed=5))


class TestIngest:
    def test_ingest_resolves_to_store_object(self):
        store = _store()

        async def run():
            frontend = ServiceFrontend(store, queue_depth=8,
                                       ingest_batch=4)
            await frontend.start()
            ids = await asyncio.gather(
                frontend.ingest("alice", _clip(1)),
                frontend.ingest("alice", _clip(2)),
                frontend.ingest("bob", _clip(3)))
            await frontend.stop()
            return ids

        ids = asyncio.run(run())
        assert len(set(ids)) == 3
        assert store.record("alice", ids[0]) is not None
        assert store.record("bob", ids[2]) is not None

    def test_queued_batch_matches_sequential_ingest(self):
        """Batched encode through the queue is bit-identical to
        ingesting one clip at a time (content addresses agree)."""
        batched, sequential = _store(), _store()

        async def run(frontend, clips):
            await frontend.start()
            ids = await asyncio.gather(
                *(frontend.ingest("alice", clip) for clip in clips))
            await frontend.stop()
            return list(ids)

        clips = [_clip(seed) for seed in (1, 2, 3, 4)]
        ids_batched = asyncio.run(run(
            ServiceFrontend(batched, queue_depth=8, ingest_batch=4),
            clips))
        ids_sequential = [sequential.put("alice", clip)
                          for clip in clips]
        assert ids_batched == ids_sequential

    def test_ingest_before_start_is_an_overload(self):
        frontend = ServiceFrontend(_store())
        with pytest.raises(ServiceOverloadError):
            asyncio.run(frontend.ingest("alice", _clip(1)))


class TestBackpressure:
    def test_full_queue_sheds_with_overload_error(self):
        store = _store()

        async def run():
            frontend = ServiceFrontend(store, queue_depth=1)
            # A queue with no worker draining it: the first ingest
            # occupies the single slot, the second must be shed.
            frontend._queue = asyncio.Queue(maxsize=1)
            first = asyncio.ensure_future(
                frontend.ingest("alice", _clip(1)))
            await asyncio.sleep(0)  # let it enqueue
            with pytest.raises(ServiceOverloadError):
                await frontend.ingest("alice", _clip(2))
            first.cancel()

        asyncio.run(run())
        assert store.audit.events("overload")


class TestReads:
    def test_read_through_frontend_matches_store(self):
        store = _store()
        object_id = store.put("alice", _clip(1))

        async def run():
            frontend = ServiceFrontend(store)
            await frontend.start()
            result = await frontend.read(
                "alice", object_id, rng=np.random.default_rng(0))
            await frontend.stop()
            return result

        direct = store.get("alice", object_id,
                           rng=np.random.default_rng(0))
        via_frontend = asyncio.run(run())
        assert via_frontend.outcome == direct.outcome
        assert np.array_equal(np.stack(via_frontend.video.frames),
                              np.stack(direct.video.frames))
