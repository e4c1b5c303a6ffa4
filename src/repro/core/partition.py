"""Bitstream partitioning into reliability streams (Sections 4.4, 5.3).

``partition_video`` splits an encoded video's frame payloads, segment by
segment (per the pivot tables), into one stream per ECC scheme; each
stream is later stored with exactly its scheme's protection.
``merge_streams`` is the exact inverse, reassembling frame payloads from
(possibly corrupted) streams — split followed by merge is the identity.

``merge_streams``, ``stream_ranges_for_frames`` and ``map_stream_damage``
read only a :class:`StreamLayout`: stream names, byte lengths and bit
counts, the pivot tables and the frame headers. A full
:class:`ProtectedVideo` is one; the service store's per-object manifest,
which keeps no payload bytes, is another.

A seek reads one dependency closure, not the object. :func:`frame_cursors`
derives, once per layout, where every frame's segments sit in the
streams; with those cursors a merge rebuilds a closure's payloads from
the stream windows that were fetched, and a damage projection touches
the closure's frames only, so neither grows with the clip.

Streams are bit-granular: segments need not align to bytes, so payloads
are unpacked to bit arrays for slicing and packed back afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from ..errors import AnalysisError
from ..codec.encoded import EncodedVideo, FrameHeader
from ..storage.density import DEFAULT_BITS_PER_CELL, DensityReport, density_report
from ..storage.ecc import ECCScheme, scheme_by_name
from .assignment import ClassAssignment
from .importance import ImportanceResult, macroblock_bits
from .pivots import FramePivots, build_frame_pivots, total_pivot_bits


def _unpack(payload: bytes) -> np.ndarray:
    return np.unpackbits(np.frombuffer(payload, dtype=np.uint8))


def _pack(bits: np.ndarray) -> bytes:
    return np.packbits(bits).tobytes()


class StreamLayout(Protocol):
    """The bit layout of a partitioned video, without its bytes."""

    @property
    def pivots(self) -> List[FramePivots]:
        """One pivot table per frame, coded order."""

    @property
    def stream_bits(self) -> Dict[str, int]:
        """Stream name -> exact (pre-padding) bit count."""

    @property
    def stream_lengths(self) -> Dict[str, int]:
        """Stream name -> byte length (``stream_bits`` padded)."""

    @property
    def frame_headers(self) -> List[FrameHeader]:
        """Precise frame headers, coded order; their slice lengths
        give every frame's payload size."""


@dataclass
class ProtectedVideo:
    """An encoded video partitioned into per-scheme reliability streams.

    ``streams[name]`` holds the concatenated payload segments assigned
    to scheme ``name``, zero-padded to a whole number of bytes;
    ``stream_bits[name]`` is the exact (pre-padding) bit count.
    """

    encoded: EncodedVideo
    pivots: List[FramePivots]
    assignment: ClassAssignment
    streams: Dict[str, bytes]
    stream_bits: Dict[str, int]

    @property
    def stream_lengths(self) -> Dict[str, int]:
        return {name: len(data) for name, data in self.streams.items()}

    @property
    def frame_headers(self) -> List[FrameHeader]:
        return [frame.header for frame in self.encoded.frames]

    @property
    def precise_bits(self) -> int:
        """All precise storage: container headers + pivot tables."""
        return self.encoded.header_bits + total_pivot_bits(self.pivots)

    def scheme_bit_map(self) -> Dict[ECCScheme, int]:
        return {scheme_by_name(name): bits
                for name, bits in self.stream_bits.items()}

    def density(self, total_pixels: int,
                bits_per_cell: int = DEFAULT_BITS_PER_CELL) -> DensityReport:
        """Cells/pixel accounting for this partitioned video."""
        return density_report(self.scheme_bit_map(), self.precise_bits,
                              total_pixels, bits_per_cell,
                              header_scheme=self.assignment.header_scheme)


def partition_video(encoded: EncodedVideo,
                    importance: ImportanceResult,
                    assignment: ClassAssignment,
                    pivots: Optional[List[FramePivots]] = None
                    ) -> ProtectedVideo:
    """Split an analyzed video into reliability streams."""
    if encoded.trace is None:
        raise AnalysisError("partitioning requires the encoder trace")
    mb_bits = macroblock_bits(encoded.trace, importance)
    if pivots is None:
        pivots = build_frame_pivots(encoded, mb_bits, assignment)
    collected: Dict[str, List[np.ndarray]] = {}
    for frame, table in zip(encoded.frames, pivots):
        bits = _unpack(frame.payload)
        for segment in table.segments:
            collected.setdefault(segment.scheme_name, []).append(
                bits[segment.start_bit:segment.end_bit])
    streams: Dict[str, bytes] = {}
    stream_bits: Dict[str, int] = {}
    for name, pieces in collected.items():
        joined = (np.concatenate(pieces) if pieces
                  else np.empty(0, dtype=np.uint8))
        stream_bits[name] = int(joined.size)
        streams[name] = _pack(joined)
    return ProtectedVideo(
        encoded=encoded, pivots=pivots, assignment=assignment,
        streams=streams, stream_bits=stream_bits,
    )


#: One frame's non-empty payload segment, placed: ``(stream name,
#: first stream bit, bit count, first payload bit)``.
PlacedSegment = Tuple[str, int, int, int]


@dataclass(frozen=True)
class FrameCursors:
    """Where every frame's payload segments sit in the streams.

    :func:`frame_cursors` derives it with one cursor sweep over the
    pivot tables; afterwards any frame's segments are a lookup, so work
    on a few frames never walks the frames before them.
    """

    #: Payload bytes per frame, coded order.
    sizes: Tuple[int, ...]
    #: Per frame, its non-empty segments in payload order.
    segments: Tuple[Tuple[PlacedSegment, ...], ...]


def frame_cursors(layout: StreamLayout) -> FrameCursors:
    """The :class:`FrameCursors` of ``layout`` (one sweep, O(frames))."""
    cursors: Dict[str, int] = {name: 0 for name in layout.stream_bits}
    placed: List[Tuple[PlacedSegment, ...]] = []
    for table in layout.pivots:
        frame: List[PlacedSegment] = []
        for segment in table.segments:
            cursor = cursors[segment.scheme_name]
            cursors[segment.scheme_name] = cursor + segment.bits
            if segment.bits:
                frame.append((segment.scheme_name, cursor, segment.bits,
                              segment.start_bit))
        placed.append(tuple(frame))
    return FrameCursors(
        sizes=tuple(header.payload_bytes for header in layout.frame_headers),
        segments=tuple(placed))


def merge_streams(layout: StreamLayout,
                  streams: Dict[str, bytes],
                  positions: Optional[Sequence[int]] = None, *,
                  cursors: Optional[FrameCursors] = None
                  ) -> List[bytes]:
    """Reassemble frame payloads from (possibly corrupted) streams.

    Pass a :class:`ProtectedVideo`'s own ``streams`` for the clean
    payloads, or the read-back streams from an approximate device to
    rebuild the corrupted payload set. Stream lengths must be unchanged
    — the device flips bits, it never resizes.

    ``positions`` (container positions, coded order) rebuilds only
    those frames; every other payload comes back as zero bytes of its
    size. ``None`` rebuilds every frame.

    With ``cursors`` (:func:`frame_cursors` of ``layout``) the merge
    reads stream *windows* and returns only the ``positions`` asked
    for, in that order, as a seek that decodes one dependency closure
    needs: ``streams`` then maps a stream name to ``(byte offset,
    bytes)``, a window that must cover the segments those frames hold
    in the stream, and streams they never touch may be absent. Its work
    follows the frames asked for, not the object.
    """
    if cursors is not None:
        return _merge_windows(
            cursors, streams,
            range(len(cursors.sizes)) if positions is None else positions)
    unpacked: Dict[str, np.ndarray] = {}
    cursors: Dict[str, int] = {}
    for name, length in layout.stream_lengths.items():
        corrupted = streams.get(name)
        if corrupted is None or len(corrupted) != length:
            raise AnalysisError(
                f"stream {name!r} missing or resized on read-back"
            )
        unpacked[name] = _unpack(corrupted)
        cursors[name] = 0
    wanted = None if positions is None else set(positions)
    payloads: List[bytes] = []
    for position, (header, table) in enumerate(zip(layout.frame_headers,
                                                   layout.pivots)):
        size = header.payload_bytes
        if wanted is not None and position not in wanted:
            for segment in table.segments:
                cursors[segment.scheme_name] += segment.bits
            payloads.append(bytes(size))
            continue
        bits = np.zeros(8 * size, dtype=np.uint8)
        for segment in table.segments:
            cursor = cursors[segment.scheme_name]
            piece = unpacked[segment.scheme_name][
                cursor:cursor + segment.bits]
            if piece.size != segment.bits:
                raise AnalysisError(
                    f"stream {segment.scheme_name!r} exhausted mid-merge"
                )
            bits[segment.start_bit:segment.end_bit] = piece
            cursors[segment.scheme_name] = cursor + segment.bits
        payloads.append(_pack(bits)[:size])
    return payloads


def _merge_windows(cursors: FrameCursors,
                   windows: Dict[str, Tuple[int, bytes]],
                   positions: Sequence[int]) -> List[bytes]:
    """``positions``' payloads from stream windows (see
    :func:`merge_streams`)."""
    unpacked = {name: (8 * offset, _unpack(data))
                for name, (offset, data) in windows.items()}
    payloads: List[bytes] = []
    for position in positions:
        if not 0 <= position < len(cursors.sizes):
            raise AnalysisError(
                f"frame position {position} outside the container")
        size = cursors.sizes[position]
        bits = np.zeros(8 * size, dtype=np.uint8)
        for name, cursor, count, start in cursors.segments[position]:
            origin, window = unpacked.get(name, (0, None))
            lo = cursor - origin
            if window is None or lo < 0 or lo + count > window.size:
                raise AnalysisError(
                    f"stream {name!r}: the window read does not cover "
                    f"frame {position}'s segment")
            bits[start:start + count] = window[lo:lo + count]
        payloads.append(_pack(bits)[:size])
    return payloads


def stream_ranges_for_frames(layout: StreamLayout,
                             frame_positions: Sequence[int]
                             ) -> Dict[str, Tuple[int, int]]:
    """Per-stream bit extents a set of frames' payloads live in.

    ``frame_positions`` are container positions (coded order). The
    return value maps each stream name to the half-open ``(bit_start,
    bit_end)`` range — in *stream* bit coordinates, the same coordinates
    :func:`map_stream_damage` consumes — covering every payload segment
    those frames contributed to the stream; streams the frames never
    touch are absent. The segments are the ones :func:`merge_streams`
    reassembles (:func:`frame_cursors`), so fetching exactly these
    ranges (padded to whatever block granularity the device needs) is
    sufficient to reassemble the requested frames' payloads.

    Positions need not be contiguous; the range per stream is the
    convex hull of the touched segments, which over-fetches only when
    the requested set skips frames — the random-access path requests
    dependency closures, which are nearly contiguous GOP spans.
    """
    wanted = set(int(p) for p in frame_positions)
    if not wanted:
        return {}
    for position in wanted:
        if not 0 <= position < len(layout.pivots):
            raise AnalysisError(
                f"frame position {position} outside the container")
    segments = frame_cursors(layout).segments
    ranges: Dict[str, Tuple[int, int]] = {}
    for frame_index in sorted(wanted):
        for name, cursor, count, _ in segments[frame_index]:
            lo, hi = ranges.get(name, (cursor, cursor + count))
            ranges[name] = (min(lo, cursor), max(hi, cursor + count))
    return ranges


def map_stream_damage(layout: StreamLayout,
                      damage: Dict[str, Sequence[Tuple[int, int]]],
                      positions: Optional[Sequence[int]] = None, *,
                      cursors: Optional[FrameCursors] = None
                      ) -> Dict[int, List[Tuple[int, int]]]:
    """Project per-stream damage intervals onto frame payloads.

    ``damage`` maps scheme name to half-open ``(bit_start, bit_end)``
    intervals in *stream* bit coordinates — exactly what the device's
    :class:`~repro.storage.device.UncorrectableBlock` reports describe.
    The return value maps frame index to sorted, coalesced half-open bit
    ranges in that frame's *payload* coordinates: the slices of the
    bitstream the decoder must treat as unreadable.

    ``positions`` projects onto those frames only (``None``: every
    frame), as a seek that decodes one dependency closure needs; with
    the layout's ``cursors`` (:func:`frame_cursors`) the frames outside
    them are not walked at all. The segments walked are the ones
    :func:`merge_streams` reassembles, so the mapping is consistent
    with how payloads are actually rebuilt.
    """
    per_stream: Dict[str, List[Tuple[int, int]]] = {}
    for name, intervals in damage.items():
        if name not in layout.stream_bits:
            raise AnalysisError(
                f"damage names unknown stream {name!r}")
        cleaned = sorted((int(a), int(b)) for a, b in intervals if b > a)
        if cleaned:
            per_stream[name] = cleaned
    if not per_stream:
        return {}
    if cursors is None:
        cursors = frame_cursors(layout)
    if positions is None:
        positions = range(len(cursors.segments))
    hit: Dict[int, List[Tuple[int, int]]] = {}
    for frame_index in positions:
        for name, cursor, count, start_bit in cursors.segments[frame_index]:
            for start, end in per_stream.get(name, ()):
                lo = max(start, cursor)
                hi = min(end, cursor + count)
                if lo < hi:
                    hit.setdefault(frame_index, []).append(
                        (start_bit + lo - cursor, start_bit + hi - cursor))
    merged: Dict[int, List[Tuple[int, int]]] = {}
    for frame_index, ranges in hit.items():
        ranges.sort()
        coalesced: List[Tuple[int, int]] = [ranges[0]]
        for start, end in ranges[1:]:
            last_start, last_end = coalesced[-1]
            if start <= last_end:
                coalesced[-1] = (last_start, max(last_end, end))
            else:
                coalesced.append((start, end))
        merged[frame_index] = coalesced
    return merged
