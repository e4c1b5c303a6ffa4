"""The one byte-bounded LRU memo behind the frame and keystream memos.

:class:`repro.memo.ByteMemo` keeps values by key under a byte budget,
evicts least recently used first, is shared by threads, and starts
empty in a forked child. These checks drive it directly, with byte
strings as values; ``tests/codec/test_frame_memo.py`` and
``tests/crypto/test_streams.py`` check the two memos built on it.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.memo import ByteMemo
from repro.obs import metrics as obs_metrics

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
