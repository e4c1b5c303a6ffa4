"""Shared-memory clip storage for the encode farm.

Campaign contexts ship to workers by pickling; for an encode farm whose
context is N raw clips, that re-serializes every frame byte into each
worker's pipe. :class:`SharedClipStore` packs the clips into one
``multiprocessing.shared_memory`` segment instead: the pickled handle
is a few hundred bytes (segment name + manifest + digest), and workers
map the same physical pages read-only-by-convention rather than
receiving copies.

Semantics:

* the store is an indexable of :class:`~repro.video.frame.VideoSequence`
  (``len`` / ``[i]``), interchangeable with a plain tuple of clips in
  ``TrialContext.clips``;
* ``content_digest`` identifies the pixel content, so campaign journals
  hash identically whether clips travel by value or by segment;
* attachment is lazy and cached per process (fork inherits the handle,
  spawn re-attaches by name), and the creating process unlinks the
  segment on :meth:`close` or interpreter exit;
* ``use_shared_memory=False`` disables the fast path: :func:`pack_clips`
  then returns a plain tuple, which every consumer handles identically.
"""

from __future__ import annotations

import atexit
import hashlib
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..errors import AnalysisError
from ..obs import metrics as obs_metrics
from ..video.frame import VideoSequence
from . import chaos

@dataclass(frozen=True)
class _ClipRecord:
    """Where one clip lives inside the segment."""

    offset: int
    shape: Tuple[int, int, int]
    fps: float


class SharedClipStore:
    """N clips in one shared-memory segment, pickled as a tiny handle.

    Build with :meth:`pack`; index like a tuple of
    :class:`VideoSequence`. The returned sequences hold numpy views
    into the mapped segment (zero-copy); callers must not mutate them.
    """

    def __init__(self, name: str, manifest: Tuple[_ClipRecord, ...],
                 content_digest: str, total_bytes: int,
                 segment=None, owner: bool = False) -> None:
        self.name = name
        self.manifest = manifest
        self.content_digest = content_digest
        self.total_bytes = total_bytes
        self._segment = segment
        self._owner = owner
        self._closed = False

    # -- construction ---------------------------------------------------

    @classmethod
    def pack(cls, clips: Sequence[VideoSequence]) -> "SharedClipStore":
        """Copy clips into a fresh shared segment owned by this process."""
        from multiprocessing import shared_memory

        arrays = [clip.to_array() for clip in clips]
        manifest: List[_ClipRecord] = []
        offset = 0
        digest = hashlib.sha256()
        for clip, array in zip(clips, arrays):
            if array.dtype != np.uint8:
                raise AnalysisError(
                    f"clip frames must be uint8, got {array.dtype}")
            manifest.append(_ClipRecord(offset, array.shape, clip.fps))
            digest.update(np.int64(array.shape).tobytes())
            digest.update(np.float64(clip.fps).tobytes())
            digest.update(array.tobytes())
            offset += array.nbytes
        segment = shared_memory.SharedMemory(create=True,
                                             size=max(1, offset))
        try:
            for record, array in zip(manifest, arrays):
                view = np.ndarray(record.shape, dtype=np.uint8,
                                  buffer=segment.buf, offset=record.offset)
                view[...] = array
            store = cls(segment.name, tuple(manifest), digest.hexdigest(),
                        offset, segment=segment, owner=True)
        except BaseException:
            # A half-packed segment must not outlive the failed pack:
            # callers (pack_clips) fall back to by-value clips, and a
            # leaked segment would survive until reboot.
            try:
                segment.close()
            except (OSError, BufferError):  # pragma: no cover - paranoia
                pass
            try:
                segment.unlink()
            except (FileNotFoundError, OSError):  # pragma: no cover
                pass
            raise
        obs_metrics.counter("shm_segments_created_total").inc()
        obs_metrics.counter("shm_clip_bytes_total").inc(offset)
        atexit.register(store.close)
        return store

    # -- pickling: ship the handle, not the bytes -----------------------

    def __getstate__(self) -> dict:
        return {
            "name": self.name,
            "manifest": self.manifest,
            "content_digest": self.content_digest,
            "total_bytes": self.total_bytes,
        }

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["name"], state["manifest"],
                      state["content_digest"], state["total_bytes"])

    # -- attachment -----------------------------------------------------

    def _attach(self):
        if self._closed:
            raise AnalysisError(
                f"shared clip segment {self.name!r} is closed")
        if self._segment is None:
            from multiprocessing import shared_memory

            self._segment = _attached_segment(self.name)
            if self._segment is None:
                segment = shared_memory.SharedMemory(name=self.name)
                _cache_segment(self.name, segment)
                self._segment = segment
                # Every byte mapped here is a byte that did not travel
                # through the worker pipe as pickled context.
                obs_metrics.counter("shm_pickle_bytes_avoided_total").inc(
                    self.total_bytes)
        return self._segment

    # -- container protocol --------------------------------------------

    def __len__(self) -> int:
        return len(self.manifest)

    def __getitem__(self, index: int) -> VideoSequence:
        if not -len(self.manifest) <= index < len(self.manifest):
            raise IndexError(index)
        if chaos._ACTIVE is not None:
            chaos.shm_access_fault(self.name, index)
        record = self.manifest[index]
        segment = self._attach()
        stack = np.ndarray(record.shape, dtype=np.uint8,
                           buffer=segment.buf, offset=record.offset)
        return VideoSequence.from_array(stack, fps=record.fps)

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Unmap; the owning process also unlinks the segment."""
        if self._closed:
            return
        self._closed = True
        segment = self._segment
        self._segment = None
        if segment is not None:
            _forget_segment(self.name)
            try:
                segment.close()
            except (OSError, BufferError):
                pass
            if self._owner:
                try:
                    segment.unlink()
                except (FileNotFoundError, OSError):
                    pass


#: Per-process attachment cache: one mapping per segment name no matter
#: how many handle copies unpickle (kept open for the process lifetime).
_ATTACHED: Dict[str, object] = {}


def _attached_segment(name: str):
    return _ATTACHED.get(name)


#: Whether the attachment-cache cleanup hook has been registered in
#: this process (forked children re-register lazily: the flag is True
#: but their inherited atexit stack still runs the handler).
_CLEANUP_REGISTERED = False


def _close_attached_segments() -> None:
    """Unmap every cached attachment at interpreter exit.

    Non-owning processes (pool workers) never unlink, but leaving the
    mappings open past interpreter teardown trips the multiprocessing
    resource tracker and — on abnormal-but-clean exits like
    ``sys.exit`` mid-campaign — can keep segments pinned after the
    owner unlinked them.
    """
    for name in list(_ATTACHED):
        segment = _ATTACHED.pop(name, None)
        if segment is None:
            continue
        try:
            segment.close()
        except (OSError, BufferError):  # pragma: no cover - teardown
            pass


def _cache_segment(name: str, segment) -> None:
    global _CLEANUP_REGISTERED
    if not _CLEANUP_REGISTERED:
        atexit.register(_close_attached_segments)
        _CLEANUP_REGISTERED = True
    _ATTACHED[name] = segment


def _forget_segment(name: str) -> None:
    _ATTACHED.pop(name, None)


def pack_clips(clips: Sequence[VideoSequence],
               use_shared_memory: bool = True):
    """Clips as a context-ready table: shared segment or plain tuple.

    Uses shared memory when ``use_shared_memory`` is set and falls back
    to a tuple on any packing failure — consumers index both
    identically.
    """
    if use_shared_memory:
        try:
            return SharedClipStore.pack(clips)
        except (ImportError, OSError, AnalysisError):
            pass
    return tuple(clips)
