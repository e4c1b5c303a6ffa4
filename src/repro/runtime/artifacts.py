"""Session-scoped cache of clean encode artifacts.

Nearly every experiment runner starts the same way: encode the probe
video, and take its clean decode as the quality reference. Encoding is
by far the most expensive single step of a campaign, yet the figure
runners historically each redid it. The cache keys artifacts by a
content hash of ``(video, EncoderConfig)`` so one campaign — or several
runners sharing a probe video — pays for the clean encode exactly once.
The clean decode is the encoder's own closed-loop reconstruction, which
equals a decode of the clean stream bit for bit, so nothing is decoded.

Cached objects are shared, not copied: treat them as immutable (every
library path that damages a stream already works on copies via
``EncodedVideo.with_payloads``). Set ``REPRO_ARTIFACT_CACHE`` to
``0``, ``false``, ``no`` or ``off`` to disable caching entirely.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import fields
from typing import Optional, Tuple

from ..codec.config import EncoderConfig
from ..codec.encoded import EncodedVideo
from ..codec.encoder import _encode_clean
from ..settings import resolve
from ..video.frame import VideoSequence


def content_key(video: VideoSequence, config: EncoderConfig) -> str:
    """Content hash of (raw frames, encoder settings)."""
    digest = hashlib.sha256()
    digest.update(f"{video.width}x{video.height}@{video.fps}".encode())
    for frame in video:
        digest.update(frame.tobytes())
    for field_ in fields(config):
        digest.update(f"|{field_.name}={getattr(config, field_.name)}"
                      .encode())
    return digest.hexdigest()


class ArtifactCache:
    """LRU cache of ``(EncodedVideo, clean decode)`` pairs."""

    def __init__(self, max_entries: int = 8, enabled: bool = True) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self.enabled = enabled
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[str, Tuple[EncodedVideo, VideoSequence]]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop every cached artifact (hit/miss counters retained)."""
        self._entries.clear()

    def _artifacts(self, video: VideoSequence, config: EncoderConfig
                   ) -> Tuple[EncodedVideo, VideoSequence]:
        if not self.enabled:
            return _encode_clean(video, config)
        key = content_key(video, config)
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            return entry
        self.misses += 1
        entry = _encode_clean(video, config)
        self._entries[key] = entry
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
        return entry

    def encode(self, video: VideoSequence,
               config: EncoderConfig) -> EncodedVideo:
        """Encode ``video`` (with trace), reusing a cached result."""
        return self._artifacts(video, config)[0]

    def clean_decode(self, video: VideoSequence,
                     config: EncoderConfig) -> VideoSequence:
        """Clean decode of the cached encode of ``video``."""
        return self._artifacts(video, config)[1]


_session_cache: Optional[ArtifactCache] = None


def session_cache() -> ArtifactCache:
    """The process-wide cache, switched by ``REPRO_ARTIFACT_CACHE`` on
    every call."""
    global _session_cache
    enabled = resolve("REPRO_ARTIFACT_CACHE")
    if _session_cache is None:
        _session_cache = ArtifactCache(enabled=enabled)
    else:
        _session_cache.enabled = enabled
    return _session_cache
