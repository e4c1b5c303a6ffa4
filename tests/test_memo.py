"""The memo module: one byte-bounded LRU and one rule for caches.

:class:`repro.memo.ByteMemo` keeps values by key under a byte budget,
evicts least recently used first, is shared by threads, and starts
empty in a forked child. These checks drive it directly, with byte
strings as values; ``tests/codec/test_frame_memo.py`` and
``tests/crypto/test_streams.py`` check the two memos built on it.

Every cache an object builds is a cached property of a
:class:`repro.memo.Derived` class, and no pickle or copy carries one
(campaign journals hash store pickles; a keystream is key material).
The checks at the end hold every such cache in ``src/repro`` to that
rule and keep hand-written pickle rules out of the package.
"""

from __future__ import annotations

import ast
import copy
import os
import pickle
import sys
import threading
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.codec import Decoder, Encoder, EncoderConfig
from repro.codec.cabac import CabacDecoder
from repro.codec.contexts import build_context_model
from repro.codec.entropy import ContextGroup
from repro.codec.neighbors import FrameMbState
from repro.codec.syntax import parse_macroblock
from repro.codec.types import FrameType
from repro.crypto import StreamEncryptor
from repro.memo import ByteMemo
from repro.obs import metrics as obs_metrics
from repro.service import Keyring, ShardPool, VideoObjectStore
from repro.service.shards import QUARANTINED
from repro.video import SceneConfig, synthesize_scene

PACKAGE = Path(repro.__file__).parent

#: The fork hook only the memo module may register.
HOOK = "register_at_fork"

#: The counter the memos below count evictions on.
EVICTIONS = "test_byte_memo_evictions_total"


def _memo(budget: int) -> ByteMemo:
    return ByteMemo(budget, len, EVICTIONS)


def _evictions() -> int:
    return obs_metrics.counter(EVICTIONS).value


def _consistent(memo: ByteMemo) -> bool:
    with memo._lock:
        return (memo.nbytes == sum(map(len, memo._entries.values()))
                and memo.nbytes <= memo.budget)


class TestPut:
    def test_keeps_the_larger_value_and_drops_one_that_adds_nothing(self):
        memo = _memo(100)
        memo.put("a", b"x" * 10)
        memo.put("a", b"y" * 20)
        assert memo.get("a") == b"y" * 20
        for smaller_or_equal in (b"z" * 20, b"z" * 5):
            memo.put("a", smaller_or_equal)
            assert memo.get("a") == b"y" * 20
        assert memo.nbytes == 20 and _consistent(memo)

    def test_a_value_over_the_budget_is_not_kept(self):
        memo = _memo(16)
        memo.put("fits", b"x" * 16)
        memo.put("big", b"x" * 17)
        assert memo.get("big") is None
        assert list(memo._entries) == ["fits"]
        assert memo.nbytes == 16 and _consistent(memo)

    def test_a_missing_key_reads_none(self):
        assert _memo(16).get("absent") is None


class TestEviction:
    def test_least_recently_used_leave_first_by_bytes(self):
        memo = _memo(30)
        for key in "abc":
            memo.put(key, key.encode() * 10)
        assert memo.get("a") == b"a" * 10  # now the most recently used
        before = _evictions()
        memo.put("d", b"d" * 15)  # 45 bytes: "b" then "c" must leave
        assert list(memo._entries) == ["a", "d"]
        assert _evictions() - before == 2
        assert memo.nbytes == 25 and _consistent(memo)

    def test_a_grown_value_evicts_others_not_itself(self):
        memo = _memo(30)
        memo.put("a", b"a" * 10)
        memo.put("b", b"b" * 10)
        before = _evictions()
        memo.put("a", b"a" * 25)
        assert list(memo._entries) == ["a"]
        assert _evictions() - before == 1
        assert memo.nbytes == 25 and _consistent(memo)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_starts_empty_with_a_free_lock():
    memo = _memo(100)
    memo.put("a", b"x" * 10)
    # As if another thread were inside the bookkeeping at the fork: the
    # child must not inherit the held lock.
    memo._lock.acquire()
    try:
        pid = os.fork()
        if pid == 0:  # pragma: no cover - runs in the child
            ok = (not memo._entries and memo.nbytes == 0
                  and memo._lock.acquire(timeout=5))
            os._exit(0 if ok else 1)
        _, status = os.waitpid(pid, 0)
    finally:
        memo._lock.release()
    assert os.waitstatus_to_exitcode(status) == 0
    assert memo.get("a") == b"x" * 10


def test_racing_threads_keep_the_byte_count():
    # Eight threads race puts and gets on a memo that holds a few values,
    # so nearly every put evicts: a lost update would break the count, a
    # torn eviction would raise.
    memo = _memo(512)
    values = [bytes(16 * blocks) for blocks in range(1, 17)]
    errors = []

    def work(seed: int) -> None:
        rng = np.random.default_rng(seed)
        try:
            for _ in range(4000):
                key = int(rng.integers(12))
                if rng.random() < 0.2:
                    memo.get(key)
                else:
                    memo.put(key, values[int(rng.integers(len(values)))])
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,))
                   for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert _consistent(memo)


def _fork_hooks(tree: ast.AST):
    """Lines that call ``os.register_at_fork`` (or a bare import of it)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == HOOK:
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and any(
                alias.name == HOOK for alias in node.names):
            yield node.lineno


def test_only_the_memo_module_registers_a_fork_hook():
    hooks = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        lines = list(_fork_hooks(ast.parse(path.read_text(),
                                           filename=str(path))))
        if lines:
            hooks[str(path.relative_to(PACKAGE))] = lines
    assert list(hooks) == ["memo.py"]


#: Classes that keep a hand-written pickle rule, and why.
OWN_PICKLE_RULE = {
    ("service/audit.py", "AuditLog"):
        "a lock must exist before its first concurrent use",
    ("service/cache.py", "GopCache"):
        "a lock must exist before its first concurrent use",
    ("core/pipeline.py", "ApproximateVideoStore"):
        "journal digests fold its reset keys (ROADMAP item 3)",
}


def _classes():
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                yield path.relative_to(PACKAGE).as_posix(), node


def _name(node: ast.AST) -> str:
    return node.attr if isinstance(node, ast.Attribute) else getattr(
        node, "id", "")


def _cached_properties(node: ast.ClassDef):
    for item in node.body:
        if isinstance(item, ast.FunctionDef) and any(
                _name(d) == "cached_property" for d in item.decorator_list):
            yield item.name


def test_only_the_memo_module_writes_a_pickle_rule():
    rules = {(path, node.name) for path, node in _classes()
             if path != "memo.py" and any(
                 isinstance(item, ast.FunctionDef)
                 and item.name in ("__getstate__", "__setstate__")
                 for item in node.body)}
    assert rules == set(OWN_PICKLE_RULE)


def test_every_cache_is_derived_state():
    offenders = [f"{path} {node.name}" for path, node in _classes()
                 if any(_cached_properties(node))
                 and "Derived" not in map(_name, node.bases)]
    assert offenders == []


CONFIG = EncoderConfig(crf=28, gop_size=4, bframes=1)


@lru_cache(maxsize=None)
def _clip():
    return synthesize_scene(SceneConfig(width=48, height=32, num_frames=8,
                                        seed=3))


def _decoder():
    decoder = Decoder(conceal_uncorrectable=True)
    return decoder, lambda: decoder.decode(Encoder(CONFIG).encode(_clip()))


def _encryptor():
    encryptor = StreamEncryptor(key=bytes(range(16)),
                                master_iv=bytes(range(16, 32)))
    return encryptor, lambda: encryptor.encrypt_streams({0: bytes(40)})


def _pool():
    pool = ShardPool(count=4)
    pool.shard("shard-1").health = QUARANTINED
    return pool, lambda: pool.place_n("key", 2, healthy_only=True)


def _keyring():
    ring = Keyring(seed=3)
    ring.add_tenant("alice")
    return ring, lambda: ring.encryptor("alice").encrypt_streams(
        {0: bytes(40)})


def _group():
    group = ContextGroup(base=4, variants=3, tail=7, tu_cap=8,
                         max_value=1 << 15)
    return group, lambda: group.uint_op_table(1)


def _model():
    model = build_context_model()
    return model, lambda: parse_macroblock(
        CabacDecoder(bytes(16), model.total_contexts), model,
        FrameMbState(1, 1), FrameType.P, 0, 0, 0)


def _record():
    store = VideoObjectStore(pool=ShardPool(count=4),
                             keyring=Keyring(seed=5), config=CONFIG)
    object_id = store.put("alice", _clip())
    return store.record("alice", object_id), lambda: store.get_frame(
        "alice", object_id, 5, rng=np.random.default_rng(0))


#: Every cache in ``src/repro``: (class.property, a fresh instance and
#: the call that fills the cache).
CACHES = [
    ("Decoder._memo", _decoder),
    ("StreamEncryptor._memo", _encryptor),
    ("ShardPool._rings", _pool),
    ("Keyring._encryptors", _keyring),
    ("ContextGroup._ladders", _group),
    ("ContextGroup._uint_op_tables", _group),
    ("ContextModel.syntax_tables", _model),
    ("ObjectRecord._template", _record),
]


def test_every_cache_is_checked_below():
    found = {f"{node.name}.{name}" for _, node in _classes()
             for name in _cached_properties(node)}
    assert found == {cache for cache, _ in CACHES}


@pytest.mark.parametrize("cache, make", CACHES,
                         ids=[cache for cache, _ in CACHES])
def test_caches_stay_out_of_pickles_and_copies(cache, make):
    name = cache.split(".")[1]
    instance, fill = make()
    fill()
    assert name in vars(instance)
    # A warm instance pickles to the bytes of a fresh one built alike.
    assert pickle.dumps(instance) == pickle.dumps(make()[0])
    for clone in (copy.deepcopy(instance),
                  pickle.loads(pickle.dumps(instance))):
        assert name not in vars(clone)
        # Used, the clone builds its own.
        assert getattr(clone, name) is not vars(instance)[name]
        assert name in vars(clone)
