"""A GOP-cache miss works on its GOP's dependency closure only.

The seek fetch keeps each stream's decrypted window at its byte offset,
merges only the closure's payloads from those windows into the object's
zeroed template, and projects damage onto the closure's frames only.
Everything it hands the decoder must equal what the whole-stream merge
and damage map give at those positions: the windows placed into
zero-filled full-length streams, as the fetch built them before.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.codec import EncoderConfig
from repro.core import partition
from repro.service import Keyring, ShardPool, VideoObjectStore
from repro.service import store as store_module
from repro.video import SceneConfig, synthesize_scene

#: (frames, gop, bframes, replicas, age) -> (store, object id).
_STORES = {}


def _store(frames, gop, bframes, replicas, age):
    key = (frames, gop, bframes, replicas, age)
    if key not in _STORES:
        clip = synthesize_scene(SceneConfig(
            width=64, height=48, num_frames=frames, seed=frames))
        store = VideoObjectStore(
            pool=ShardPool(t_days=age), keyring=Keyring(seed=7),
            config=EncoderConfig(crf=28, gop_size=gop, bframes=bframes),
            replicas=replicas, seek_cache=0)
        _STORES[key] = (store, store.put("t", clip))
    return _STORES[key]


def _seek_fetches(monkeypatch, store, object_id, seed):
    """Every GOP plan's miss fetch, with what its merge and damage
    projection were handed: ``(plan, fetched, windows, damage)``."""
    seen = {}

    def merge(layout, streams, positions=None, **kwargs):
        seen["windows"] = dict(streams)
        return partition.merge_streams(layout, streams, positions, **kwargs)

    def project(layout, damage, positions=None, **kwargs):
        seen["damage"] = dict(damage)
        return partition.map_stream_damage(layout, damage, positions,
                                           **kwargs)

    monkeypatch.setattr(store_module, "merge_streams", merge)
    monkeypatch.setattr(store_module, "map_stream_damage", project)
    record = store.record("t", object_id)
    encryptor = store.keyring.encryptor("t")
    for anchor, plan in sorted(record.gop_plans.items()):
        seen.clear()
        windows = {name: (lo // 8, -(-hi // 8))
                   for name, (lo, hi) in plan.ranges.items()}
        fetched = store._fetch(record, encryptor,
                               np.random.default_rng([seed, anchor]),
                               windows, plan.positions)
        yield plan, fetched, seen.get("windows"), seen.get("damage", {})


def _full_streams(record, windows):
    """The windows placed into zero-filled full-length streams."""
    streams = {}
    for name, length in record.stream_lengths.items():
        buffer = bytearray(length)
        if name in windows:
            offset, data = windows[name]
            buffer[offset:offset + len(data)] = data
        streams[name] = bytes(buffer)
    return streams


@given(frames=st.integers(9, 26), gop=st.sampled_from([4, 8]),
       bframes=st.sampled_from([0, 1]), replicas=st.sampled_from([1, 2]),
       age=st.sampled_from([None, 1e5, 1e6]),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
def test_closure_merge_and_damage_equal_the_whole_stream_ones(
        monkeypatch, frames, gop, bframes, replicas, age, seed):
    store, object_id = _store(frames, gop, bframes, replicas, age)
    record = store.record("t", object_id)
    for plan, fetched, windows, damage in _seek_fetches(
            monkeypatch, store, object_id, seed):
        if fetched.container is None:
            continue
        positions = list(plan.positions)
        full = partition.merge_streams(record,
                                       _full_streams(record, windows))
        frames_out = fetched.container.frames
        assert len(frames_out) == record.frames
        for position, frame in enumerate(frames_out):
            assert frame.header is record.frame_headers[position]
            assert frame.payload == (
                full[position] if position in positions
                else bytes(record.frame_headers[position].payload_bytes))
        full_damage = (partition.map_stream_damage(record, damage)
                       if damage else {})
        assert fetched.frame_damage == {
            position: ranges for position, ranges in full_damage.items()
            if position in positions}


def test_aged_seeks_exercise_the_damage_projection(monkeypatch):
    """The property above sees damage: at 1e6 days most misses conceal."""
    store, object_id = _store(16, 4, 1, 1, 1e6)
    concealed = [fetched for _, fetched, _, damage in _seek_fetches(
        monkeypatch, store, object_id, 3) if damage]
    assert concealed
    assert all(fetched.outcome == "concealed" for fetched in concealed)
    assert any(fetched.frame_damage for fetched in concealed)


def test_a_miss_merges_the_windows_it_read(monkeypatch):
    """The merge is handed each window at its offset, exactly the bytes
    read, not a full-length stream."""
    store, object_id = _store(24, 8, 1, 2, None)
    record = store.record("t", object_id)
    for plan, fetched, windows, _ in _seek_fetches(
            monkeypatch, store, object_id, 1):
        assert set(windows) == set(plan.ranges)
        for name, (offset, data) in windows.items():
            lo, hi = plan.ranges[name]
            assert offset <= lo // 8 and offset + len(data) >= -(-hi // 8)
        assert sum(len(data) for _, data in windows.values()) == \
            fetched.bytes_read < sum(record.stream_lengths.values())
