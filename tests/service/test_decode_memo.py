"""The stores' view of the decoder's frame memo.

The object store scopes the memo by owning tenant, as the GOP cache
keys are scoped, and neither store carries memo entries in a pickle
(the campaign journal hashes store pickles) or a deep copy (perfbench's
decay workload copies its corpus every cycle).
"""

from __future__ import annotations

import copy
import pickle

import numpy as np

from repro.analysis.experiments import _slim_stored
from repro.codec import Decoder, EncoderConfig
from repro.core import ApproximateVideoStore
from repro.obs import metrics as obs_metrics
from repro.runtime.journal import context_digest
from repro.runtime.trials import TrialContext
from repro.service import Keyring, ShardPool, VideoObjectStore
from repro.video import SceneConfig, synthesize_scene

CONFIG = EncoderConfig(crf=28, gop_size=4, bframes=1)


def _clip():
    return synthesize_scene(SceneConfig(width=48, height=32, num_frames=8,
                                        seed=3))


def _store():
    return VideoObjectStore(pool=ShardPool(count=4),
                            keyring=Keyring(seed=5), config=CONFIG)


def _hits() -> int:
    return obs_metrics.counter("decode_frame_memo_hits_total").value


def _rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


def test_tenants_never_share_memo_entries():
    store = _store()
    clip = _clip()
    alice_id = store.put("alice", clip)
    bob_id = store.put("bob", clip)
    assert alice_id == bob_id
    # One device draw for both reads: CTR is positional, so the same
    # flips land on the same plaintext bits and both decodes see the
    # same payloads — content an unscoped memo would serve to bob.
    alice = store.get("alice", alice_id, rng=_rng())
    before = _hits()
    bob = store.get("bob", bob_id, rng=_rng())
    assert _hits() == before
    assert all(np.array_equal(a, b)
               for a, b in zip(alice.video.frames, bob.video.frames))
    # Within one tenant the memo does serve: bob's re-read and seek hit.
    store.get("bob", bob_id, rng=_rng())
    assert _hits() - before == len(clip)
    store.get_frame("bob", bob_id, 5, rng=_rng())
    assert _hits() - before > len(clip)


def test_object_store_pickle_carries_no_memo():
    store = _store()
    object_id = store.put("alice", _clip())
    for seed in range(3):
        store.get("alice", object_id, rng=_rng(seed))
        store.get_frame("alice", object_id, 6, rng=_rng(seed))
    assert len(store._decoder._memo._entries) > 0
    blob = pickle.dumps(store)
    store._decoder = Decoder(conceal_uncorrectable=True)
    assert pickle.dumps(store) == blob


def test_pipeline_store_pickle_unchanged_by_reads():
    store = ApproximateVideoStore(config=CONFIG)
    stored = store.put(_clip())
    blob = pickle.dumps(store)
    store.reconstruct(stored)
    for seed in range(3):
        store.read(stored, rng=_rng(seed))
    assert len(store._decoder._memo._entries) > 0
    assert pickle.dumps(store) == blob


def test_stored_read_context_digest_unchanged_by_reads():
    # The campaign journal hashes the store's pickle: reads (which fill
    # the decoder's memo) must not orphan a journal on resume.
    store = ApproximateVideoStore(config=CONFIG)
    clip = _clip()
    stored = store.put(clip)
    context = TrialContext(reference=clip, store=store,
                           stored=_slim_stored(stored))
    before = context_digest(context)
    for seed in range(3):
        store.read(stored, rng=_rng(seed), conceal=True, t_days=1e6)
    assert context_digest(context) == before


def test_deep_copy_after_reads_starts_cold():
    store = _store()
    object_id = store.put("alice", _clip())
    want = store.get("alice", object_id, rng=_rng(7))
    store.get_frame("alice", object_id, 2, rng=_rng(7))
    clone = copy.deepcopy(store)
    assert len(clone._decoder._memo._entries) == 0
    before = _hits()
    got = clone.get("alice", object_id, rng=_rng(7))
    assert _hits() == before
    assert all(np.array_equal(a, b)
               for a, b in zip(want.video.frames, got.video.frames))
