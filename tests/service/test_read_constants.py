"""Reads reuse what does not change between requests.

The keyring hands out one encryptor per tenant, the encryptor derives
each stream's IV and CTR keystream once, and each manifest carries
every GOP's fetch plan. None of it may change an answer, outlive a
key's retirement, or reach a pickle (the campaign journal hashes store
pickles).
"""

from __future__ import annotations

import copy
import gc
import pickle
import sys
import threading

import numpy as np
import pytest

from repro.analysis.experiments import _slim_stored
from repro.codec import EncoderConfig
from repro.core import ApproximateVideoStore
import repro.crypto.streams as streams_module
from repro.crypto import CTR, StreamEncryptor, derive_stream_iv
from repro.crypto.aes import AES128
from repro.errors import StaleKeyError
from repro.runtime.journal import context_digest
from repro.runtime.trials import TrialContext
from repro.service import Keyring, ShardPool, VideoObjectStore
from repro.service import run_repair_pass
from repro.service import store as store_module
from repro.service.shards import QUARANTINED
from repro.video import SceneConfig, synthesize_scene

CONFIG = EncoderConfig(crf=28, gop_size=4, bframes=1)


def _clip(seed: int = 3):
    return synthesize_scene(SceneConfig(width=48, height=32, num_frames=8,
                                        seed=seed))


def _store(**kwargs) -> VideoObjectStore:
    return VideoObjectStore(pool=ShardPool(count=4),
                            keyring=Keyring(seed=5), config=CONFIG,
                            **kwargs)


def _rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


@pytest.fixture
def cipher_work(monkeypatch):
    """Counts of key expansions, scalar block encryptions (the IV
    derivation) and batched ones (CTR keystream derivation)."""
    counts = {"key_schedules": 0, "iv_derivations": 0,
              "keystream_derivations": 0}
    expand = AES128.__init__
    encrypt_block = AES128.encrypt_block
    encrypt_blocks = AES128.encrypt_blocks

    def counted_init(self, key):
        counts["key_schedules"] += 1
        expand(self, key)

    def counted_block(self, plaintext):
        counts["iv_derivations"] += 1
        return encrypt_block(self, plaintext)

    def counted_blocks(self, blocks):
        counts["keystream_derivations"] += 1
        return encrypt_blocks(self, blocks)

    monkeypatch.setattr(AES128, "__init__", counted_init)
    monkeypatch.setattr(AES128, "encrypt_block", counted_block)
    monkeypatch.setattr(AES128, "encrypt_blocks", counted_blocks)
    return counts


class TestWarmReadsDeriveNothing:
    def test_warm_get_and_get_frame_build_no_cipher_and_no_iv(
            self, cipher_work):
        store = _store(seek_cache=0)
        object_id = store.put("alice", _clip())
        streams = len(store.record("alice", object_id).stream_lengths)
        # The first use of the tenant's key pays for it, once, and the
        # put derives every stream's whole keystream.
        cold = {"key_schedules": 1, "iv_derivations": streams,
                "keystream_derivations": streams}
        assert cipher_work == cold
        for seed in range(3):
            assert store.get("alice", object_id,
                             rng=_rng(seed)).video is not None
            for display in (0, 5):
                result = store.get_frame("alice", object_id, display,
                                         rng=_rng(seed))
                assert not result.cache_hit and result.bytes_read > 0
        assert cipher_work == cold

    def test_seek_miss_uses_the_manifest_plan(self, monkeypatch):
        store = _store(seek_cache=0)
        object_id = store.put("alice", _clip())
        want = [store.get_frame("alice", object_id, display,
                                rng=_rng(display))
                for display in range(8)]

        def refuse(*args, **kwargs):
            raise AssertionError("seek rebuilt its plan")

        monkeypatch.setattr(store_module, "dependency_closure", refuse)
        monkeypatch.setattr(store_module, "stream_ranges_for_frames",
                            refuse)
        for display, expected in enumerate(want):
            got = store.get_frame("alice", object_id, display,
                                  rng=_rng(display))
            assert not got.cache_hit
            assert got.bytes_read == expected.bytes_read
            assert got.frames_decoded == expected.frames_decoded
            assert np.array_equal(got.frame, expected.frame)


class TestRetirementWithWarmCaches:
    def test_retired_key_refuses_warm_reads_and_writes(self):
        store = _store()
        object_id = store.put("alice", _clip())
        store.get("alice", object_id, rng=_rng())
        store.get_frame("alice", object_id, 5, rng=_rng())
        assert store.keyring._encryptors
        store.keyring.retire("alice")
        with pytest.raises(StaleKeyError):
            store.get("alice", object_id, rng=_rng())
        # A GOP-cache hit does not skip the check either.
        with pytest.raises(StaleKeyError):
            store.get_frame("alice", object_id, 5, rng=_rng())
        with pytest.raises(StaleKeyError):
            store.put("alice", _clip(4))


class TestPicklesIgnoreReads:
    def test_object_store_pickle_unchanged_by_reads(self):
        store = _store()
        alice_id = store.put("alice", _clip())
        bob_id = store.put("bob", _clip(4))
        assert sorted(vars(store)) == [
            "_decoder", "_records", "assignment", "audit", "config",
            "gop_cache", "keyring", "pool", "repair", "replicas"]
        blob = pickle.dumps(store)
        # What a read legitimately records: shard read counters, audit
        # trail, decoded GOPs, repair tickets. Put back, the store must
        # pickle as before.
        saved = {name: copy.deepcopy(getattr(store, name))
                 for name in ("pool", "audit", "gop_cache", "repair")}
        for seed in range(3):
            for tenant, object_id in (("alice", alice_id),
                                      ("bob", bob_id)):
                store.get(tenant, object_id, rng=_rng(seed))
                store.get_frame(tenant, object_id, 6, rng=_rng(seed))
        assert len(store.keyring._encryptors) == 2
        for name, value in saved.items():
            setattr(store, name, value)
        assert pickle.dumps(store) == blob
        # A keyring that never built an encryptor pickles alike.
        cold = Keyring(seed=5)
        for tenant in ("alice", "bob"):
            cold.add_tenant(tenant)
        store.keyring = cold
        assert pickle.dumps(store) == blob

    def test_state_after_warm_misses_is_the_pickled_state(self):
        """Miss templates, built hash rings and error-rate memos stay
        out of the store's, the pool's and the cell model's pickles and
        copies: the pickled state keys are the ones they always had."""
        store = _store(seek_cache=0)
        object_id = store.put("alice", _clip())
        store.pool.shard("shard-2").health = QUARANTINED
        run_repair_pass(store)
        for seed in range(2):
            for display in range(8):
                store.get_frame("alice", object_id, display,
                                rng=_rng(seed))
        record = store.record("alice", object_id)
        assert store_module._TEMPLATES[id(record)][0]() is record
        assert store.pool._rings

        def state(obj):
            return sorted(obj.__reduce_ex__(pickle.HIGHEST_PROTOCOL)[2])

        assert state(store) == [
            "_decoder", "_records", "assignment", "audit", "config",
            "gop_cache", "keyring", "pool", "repair", "replicas"]
        assert state(store.pool) == ["ring", "shards"]
        assert state(store.pool.shard("shard-0").cell_model) == [
            "drift_coefficient", "drift_sigma", "level_positions", "levels",
            "read_targets", "read_thresholds", "scrub_interval_days",
            "write_sigma"]
        copied = copy.deepcopy(store)
        assert copied.pool._rings == {}
        served = copied.get_frame("alice", object_id, 5, rng=_rng(0))
        assert np.array_equal(
            served.frame,
            store.get_frame("alice", object_id, 5, rng=_rng(0)).frame)
        # A copy's template is its own, and leaves with its record.
        copied_record = copied.record("alice", object_id)
        key = id(copied_record)
        assert store_module._TEMPLATES[key][0]() is copied_record
        del copied, copied_record
        gc.collect()
        assert key not in store_module._TEMPLATES

    def test_pipeline_store_with_encryptor_pickles_alike(self):
        key, master_iv = bytes(range(16)), bytes(range(16, 32))
        store = ApproximateVideoStore(
            config=CONFIG,
            encryptor=StreamEncryptor(key=key, master_iv=master_iv))
        clip = _clip()
        stored = store.put(clip)
        blob = pickle.dumps(store)
        context = TrialContext(reference=clip, store=store,
                               stored=_slim_stored(stored))
        before = context_digest(context)
        for seed in range(3):
            store.read(stored, rng=_rng(seed))
            store.read(stored, rng=_rng(seed), conceal=True, t_days=1e6)
        assert store.encryptor._memo._entries
        assert pickle.dumps(store) == blob
        assert context_digest(context) == before
        # A cold encryptor pickles the same bytes as the warm one.
        store.encryptor = StreamEncryptor(key=key, master_iv=master_iv)
        assert pickle.dumps(store) == blob


def test_threads_share_one_encryptor_and_one_mode_per_stream(monkeypatch):
    # Many threads race the first build of a tenant's encryptor and of
    # each stream's keystream, mixing whole-stream encrypts with
    # windowed decrypts. Every result must equal a memo-free CTR's, and
    # every thread must end up with the same encryptor. Under the real
    # budget the memo ends with one entry per stream; under a budget
    # that holds about two streams it evicts constantly, and a lost
    # update in the bookkeeping would break its byte count.
    key_material = Keyring(seed=9).add_tenant("alice")
    plaintext = bytes(range(256)) * 3
    stream_ids = range(6)
    references = {
        stream_id: CTR(key_material.key,
                       derive_stream_iv(key_material.master_iv, stream_id,
                                        key_material.key))
        for stream_id in stream_ids}
    sealed = {stream_id: mode.encrypt(plaintext)
              for stream_id, mode in references.items()}

    def worker(ring, seed, seen, errors):
        rng = np.random.default_rng(seed)
        try:
            encryptor = ring.encryptor("alice")
            seen.append(encryptor)
            memo = encryptor._memo
            for _ in range(20):
                stream_id = int(rng.integers(len(stream_ids)))
                if rng.random() < 0.3:
                    got = encryptor.encrypt_streams(
                        {stream_id: plaintext})[stream_id]
                    want = sealed[stream_id]
                else:
                    start = int(rng.integers(len(plaintext)))
                    end = int(rng.integers(start, len(plaintext) + 1))
                    got = encryptor.decrypt_at(
                        stream_id, sealed[stream_id][start:end], start)
                    want = plaintext[start:end]
                if got != want:
                    errors.append(stream_id)
                with memo._lock:
                    if memo.nbytes > memo.budget:
                        errors.append(f"{memo.nbytes} B held")
        except Exception as exc:  # reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for budget in (streams_module._KEYSTREAM_MEMO_BYTES,) * 3 + (
                2 * len(plaintext),) * 2:
            monkeypatch.setattr(streams_module, "_KEYSTREAM_MEMO_BYTES",
                                budget)
            ring = Keyring(seed=9)
            ring.add_tenant("alice")
            seen, errors = [], []
            threads = [threading.Thread(target=worker,
                                        args=(ring, seed, seen, errors))
                       for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            assert len(seen) == len(threads)
            assert all(encryptor is seen[0] for encryptor in seen)
            memo = seen[0]._memo
            assert memo.budget == budget
            assert memo.nbytes == sum(
                len(prefix) for _, prefix in memo._entries.values())
            assert memo.nbytes <= budget
            if budget == 2 * len(plaintext):
                assert len(memo._entries) <= 2
            else:
                assert len(memo._entries) == len(stream_ids)
    finally:
        sys.setswitchinterval(interval)
