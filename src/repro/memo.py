"""A byte-bounded LRU memo, shared by threads and cleared on fork.

Each :class:`~repro.codec.decoder.Decoder` keeps decoded frames by
content, and each :class:`~repro.crypto.streams.StreamEncryptor` the
CTR keystream prefixes it has derived, in a :class:`ByteMemo`. The lock
guards the bookkeeping only; the work that makes a value runs outside
it, so two threads may make the same value at once, and the put rule
makes that harmless: a value is kept unless it alone exceeds the budget
or the memo already holds one at least as large under its key. A forked
child starts every memo empty with a new lock, as a pickled copy would:
a lock another thread held at the fork would otherwise stay held there.
"""

from __future__ import annotations

import os
import threading
import weakref
from collections import OrderedDict
from typing import Any, Callable, Hashable, Optional

from .obs import metrics as obs_metrics


class ByteMemo:
    """Byte-bounded LRU of values; safe to share across threads.

    ``budget`` caps the bytes held, ``size`` gives a value's bytes, and
    ``evictions`` names the counter that counts values evicted to stay
    within the budget.
    """

    def __init__(self, budget: int, size: Callable[[Any], int],
                 evictions: str) -> None:
        self.budget = budget
        self._size = size
        self._evictions = evictions
        self.clear()
        _LIVE_MEMOS.add(self)

    def clear(self) -> None:
        """Drop every entry (and take a new lock)."""
        self.nbytes = 0
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Hashable) -> Optional[Any]:
        """The value under ``key`` (now the most recently used), or
        ``None``."""
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Keep ``value`` under ``key`` unless it exceeds the budget or
        the memo holds one at least as large there, evicting the least
        recently used entries past the budget."""
        nbytes = self._size(value)
        if nbytes > self.budget:
            return
        evicted = 0
        with self._lock:
            held = self._entries.get(key)
            held_bytes = 0 if held is None else self._size(held)
            if held is not None and held_bytes >= nbytes:
                return
            self._entries[key] = value
            self._entries.move_to_end(key)
            self.nbytes += nbytes - held_bytes
            while self.nbytes > self.budget:
                _, dropped = self._entries.popitem(last=False)
                self.nbytes -= self._size(dropped)
                evicted += 1
        if evicted:
            obs_metrics.counter(self._evictions).inc(evicted)


_LIVE_MEMOS: "weakref.WeakSet[ByteMemo]" = weakref.WeakSet()


def _clear_memos_after_fork() -> None:
    for memo in list(_LIVE_MEMOS):
        memo.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_clear_memos_after_fork)
