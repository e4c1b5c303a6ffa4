"""Defaults and bounds of the sizes set by arguments alone.

The service's and the encode farm's sizes are constructor (or
function) arguments where ``None`` means the default. These tests pin
every such default, and that an out-of-range value passed in, including
through a CLI flag, raises :class:`~repro.errors.ServiceError`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.codec import EncoderConfig
from repro.errors import ServiceError
from repro.runtime import DEFAULT_BATCH_SIZE, build_farm_context
from repro.service import ServiceFrontend, ShardPool, VideoObjectStore, \
    run_repair_pass
from repro.storage import scheme_by_name
from repro.video import SceneConfig, synthesize_scene


@pytest.fixture(autouse=True)
def no_replica_override(monkeypatch):
    monkeypatch.delenv("REPRO_SERVICE_REPLICAS", raising=False)


def test_shard_pool_defaults():
    pool = ShardPool()
    assert len(pool) == 4
    assert pool.ring.vnodes == 64
    for shard in pool.shards.values():
        assert shard.read_retries == 1
        assert shard.quarantine_after == 3
        assert shard.scrub is None


@pytest.mark.parametrize("kwargs", [{}, {"seek_cache": None,
                                         "replicas": None}])
def test_store_defaults(kwargs):
    store = VideoObjectStore(**kwargs)
    assert store.replicas == 2
    assert store.gop_cache.capacity == 16
    assert store.gop_cache.concealed_ttl == 1


def test_frontend_defaults():
    frontend = ServiceFrontend(VideoObjectStore())
    assert frontend.queue_depth == 64
    assert frontend.ingest_batch == 8
    assert frontend.retry_attempts == 3
    assert frontend.backoff_ms == 50
    assert frontend.backoff_delays() == [0.05, 0.1]


def test_shards_never_read_the_device_retry_variable(monkeypatch):
    monkeypatch.setenv("REPRO_READ_RETRIES", "not-a-number")
    shard = ShardPool().shards["shard-0"]
    shard.write("key", bytes(64))
    scheme = scheme_by_name("BCH-6")
    assert shard.read_range("key", scheme, np.random.default_rng(0), 0,
                            64)[0] == bytes(64)
    assert shard.rewrite("key", bytes(64), scheme) > 0


def test_repair_pass_drains_32_tickets_by_default():
    store = VideoObjectStore()
    for index in range(40):
        store.repair.enqueue("tenant", f"absent-{index}")
    report = run_repair_pass(store, scan=False)
    assert report.tickets_drained == 32
    assert store.repair.backlog() == 8


def test_encode_farm_defaults():
    clip = synthesize_scene(SceneConfig(width=32, height=32, num_frames=2,
                                        seed=5, num_objects=1))
    context = build_farm_context([clip], EncoderConfig())
    assert context.clips == (clip,)
    assert context.batch_size is None
    assert DEFAULT_BATCH_SIZE == 16


@pytest.mark.parametrize("build", [
    lambda: ShardPool(count=0),
    lambda: ShardPool(count=2.5),
    lambda: ShardPool(read_retries=-1),
    lambda: ShardPool(quarantine_after=0),
    lambda: ShardPool(scrub_days=0),
    lambda: ShardPool(vnodes=0),
    lambda: VideoObjectStore(replicas=0),
    lambda: VideoObjectStore(seek_cache=-1),
    lambda: ServiceFrontend(VideoObjectStore(), queue_depth=0),
    lambda: ServiceFrontend(VideoObjectStore(), ingest_batch=0),
    lambda: ServiceFrontend(VideoObjectStore(), retry_attempts=0),
    lambda: ServiceFrontend(VideoObjectStore(), backoff_ms=-1),
    lambda: ServiceFrontend(VideoObjectStore()).backoff_delays(attempts=0),
    lambda: run_repair_pass(VideoObjectStore(), limit=0),
], ids=["shards", "fractional_shards", "read_retries", "quarantine_after",
        "scrub_days", "vnodes", "replicas", "seek_cache", "queue_depth",
        "ingest_batch", "retry_attempts", "backoff_ms", "backoff_attempts",
        "repair_limit"])
def test_out_of_range_argument_raises(build):
    with pytest.raises(ServiceError):
        build()


@pytest.mark.parametrize("flag", [["--shards", "0"],
                                  ["--read-retries", "-1"],
                                  ["--replicas", "0"]])
def test_out_of_range_flag_raises(flag):
    with pytest.raises(ServiceError):
        main(["serve", "--demo", *flag])
