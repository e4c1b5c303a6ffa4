"""The content-addressed object store over the shard pool.

This is the service's heart: :class:`VideoObjectStore` turns raw clips
into placed ciphertext and turns placed ciphertext back into decoded
video, with an explicit, audited answer for *how good* that video is.

Write path (:meth:`VideoObjectStore.put_many`): clips are batch-encoded
(grouped by geometry so the vectorized kernel applies), importance-
analyzed, partitioned into reliability streams, encrypted under the
owning tenant's CTR key, and placed stream-by-stream onto the shard
pool's consistent-hash ring. The object id is the SHA-256 of the
serialized container, so identical content dedupes within a tenant.
A SHA-256 of every ciphertext stream is recorded at write time — the
integrity reference the read path checks against.

Read path (:meth:`VideoObjectStore.get`) — the four-outcome ladder:

* ``clean`` — no retries burned, no uncorrectable damage. Bit flips
  inside weakly protected streams are *expected* here — they are the
  approximation contract the paper sells, and they show up as quality
  movement, not as a failure outcome;
* ``corrected`` — the device retry ladder re-read detected-
  uncorrectable blocks back to health (``retry_successes > 0``);
* ``concealed`` — blocks stayed uncorrectable, and their stream
  coordinates were projected through the positional cipher into frame
  damage for the concealing decoder (never entropy-decoding known
  garbage);
* ``refused`` — the service will not serve the bytes: the read-back
  hash mismatches the write-time record while the device *claims* a
  clean read (the signature of silent miscorrection or substrate rot),
  the exact-ECC decoder reported miscorrected blocks, a
  precise-scheme stream carries uncorrectable damage, or a shard's
  blob has a size the manifest disagrees with.

Refusal is the invariant the loadgen's degradation exhibit leans on:
aged shards may force concealment, but never a silently wrong frame.

A whole read and a seek (:meth:`VideoObjectStore.get_frame`) run one
fetch over byte windows of the streams (every stream's full extent, or
one GOP's dependency closure) and merge them through the object's read
template, derived once per object.

The store keeps a manifest per object (:class:`ObjectRecord`) and no
copy of the clip, its payloads or its reconstruction, so every served
frame was decoded from bytes the shards returned. It does not measure
quality either: a caller that wants PSNR compares the served frames
with its own source clip.
"""

from __future__ import annotations

import hashlib
import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..codec.config import EncoderConfig
from ..codec.decoder import Decoder, dependency_closure
from ..codec.encoded import EncodedFrame, EncodedVideo, FrameHeader, \
    VideoHeader
from ..codec.encoder import encode_batch_with_recon
from ..codec.seek import SeekIndex
from ..core.assignment import PAPER_TABLE1, ClassAssignment
from ..core.importance import compute_importance
from ..core.partition import (
    FrameCursors,
    StreamLayout,
    frame_cursors,
    map_stream_damage,
    merge_streams,
    partition_video,
    stream_ranges_for_frames,
)
from ..core.pivots import FramePivots
from ..crypto.streams import stream_ids
from ..errors import ServiceError, TransientShardError
# Not called here: the store measures no quality. The name stays so a
# profiler that wraps ``repro.service.store.video_psnr`` (as it wraps
# the codec and core names above) still resolves and counts 0 calls.
from ..metrics.psnr import video_psnr  # noqa: F401
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..settings import argument, resolve
from ..storage.device import StorageReport
from ..storage.ecc import scheme_by_name
from ..video.frame import VideoSequence
from .audit import AuditLog
from .cache import CachedGop, GopCache
from .keyring import Keyring
from .repair import RepairQueue
from .shards import ShardPool

#: Read outcomes, from best to worst.
CLEAN = "clean"
CORRECTED = "corrected"
CONCEALED = "concealed"
REFUSED = "refused"


def object_id_for(serialized: bytes) -> str:
    """Content address of a serialized container: its SHA-256 hex."""
    return hashlib.sha256(serialized).hexdigest()


def stream_key(tenant: str, object_id: str, stream: str) -> str:
    """The placement-ring key of one stored reliability stream."""
    return f"{tenant}/{object_id}/{stream}"


@dataclass(frozen=True)
class GopPlan:
    """What a seek into one display GOP fetches and decodes.

    It depends on the manifest alone, so the store derives it once, at
    ingest, with the same helpers a seek miss would otherwise run.
    """

    #: First display frame (the GOP's anchor I frame).
    start: int
    #: One past the GOP's last display frame.
    stop: int
    #: Container positions (coded order) of the GOP's dependency
    #: closure: the frames the partial decode needs.
    positions: Tuple[int, ...]
    #: Stream name -> half-open stream-bit range those frames' payload
    #: segments span; streams they never touch are absent.
    ranges: Dict[str, Tuple[int, int]]


def plan_gops(encoded: EncodedVideo,
              layout: StreamLayout) -> Dict[int, GopPlan]:
    """Every display GOP's :class:`GopPlan`, keyed by anchor display."""
    index = encoded.seek_index_or_build()
    anchors = [entry.anchor_display for entry in index.gops]
    plans: Dict[int, GopPlan] = {}
    for start, stop in zip(anchors, anchors[1:] + [index.num_frames]):
        positions = dependency_closure(encoded, range(start, stop))
        ranges = stream_ranges_for_frames(layout, positions)
        plans[start] = GopPlan(
            start=int(start), stop=int(stop),
            positions=tuple(int(p) for p in positions),
            ranges={name: (int(lo), int(hi))
                    for name, (lo, hi) in ranges.items()})
    return plans


@dataclass
class ObjectRecord:
    """The manifest of one placed object: its precise storage only.

    The paper keeps headers and pivot tables precise and puts every
    payload bit on the approximate device (Sections 4.4, 5.3). The
    record holds exactly that precise part — video and frame headers,
    seek index, pivot tables, per-stream lengths and bit counts, and
    the per-GOP fetch plans derived from them — plus the write-time
    ciphertext hashes and replica chains. It holds no
    payload, stream or pixel bytes, so a read can only serve what the
    shards return. It is a :class:`~repro.core.partition.StreamLayout`:
    the core stream helpers read it as they read a full
    :class:`~repro.core.partition.ProtectedVideo`.
    """

    object_id: str
    tenant: str
    video_header: VideoHeader
    #: Coded order; their slice lengths give every payload's size.
    frame_headers: List[FrameHeader]
    seek_index: SeekIndex
    #: Anchor display -> fetch plan of that display GOP.
    gop_plans: Dict[int, GopPlan]
    pivots: List[FramePivots]
    #: Stream name -> exact (pre-padding) bit count.
    stream_bits: Dict[str, int]
    #: Stream name -> byte length as placed on the shards.
    stream_lengths: Dict[str, int]
    #: Write-time SHA-256 hex of each ciphertext stream.
    stream_sha: Dict[str, str]
    #: Stream name -> replica chain in ring order (element 0 is the
    #: primary): where the stream lives. Updated by the repair daemon
    #: as shards drain.
    replicas: Dict[str, Tuple[str, ...]]

    @property
    def frames(self) -> int:
        """Frames in the object."""
        return len(self.frame_headers)

    @property
    def total_bits(self) -> int:
        """Size of the serialized container: headers plus payloads."""
        return self.video_header.serialized_bits() + sum(
            header.serialized_bits() + 8 * header.payload_bytes
            for header in self.frame_headers)


class _ReadTemplate:
    """What every read of one object reuses: the ``cursors`` that place
    each frame's payload segments in the streams and, from the object's
    first read that serves only some frames, ``zeroed``, its frames with
    every payload zeroed. Derived from the manifest on the object's
    first read and kept beside the record (see :func:`_read_template`),
    so no pickle or copy of a store carries it.
    """

    def __init__(self, record: ObjectRecord) -> None:
        self.cursors: FrameCursors = frame_cursors(record)
        self.header = record.video_header
        self.frame_headers = record.frame_headers
        self.seek_index = record.seek_index
        self.zeroed: Optional[List[EncodedFrame]] = None

    def container(self, positions: Sequence[int],
                  payloads: Sequence[bytes]) -> EncodedVideo:
        """The container with ``payloads`` at ``positions`` (distinct
        container positions); every other frame's payload is zeros."""
        headers = self.frame_headers
        if len(positions) == len(headers):
            frames: List[Optional[EncodedFrame]] = [None] * len(headers)
        else:
            if self.zeroed is None:
                self.zeroed = [
                    EncodedFrame(header=header,
                                 payload=bytes(header.payload_bytes))
                    for header in headers]
            frames = list(self.zeroed)
        for position, payload in zip(positions, payloads):
            frames[position] = EncodedFrame(header=headers[position],
                                            payload=payload)
        return EncodedVideo(header=self.header, frames=frames,
                            seek_index=self.seek_index)


#: ``id(record)`` -> (weak reference to the record, its read template).
#: A side table rather than store or record state, so pickles and copies
#: carry no template; an entry leaves when its record is collected.
_TEMPLATES: Dict[int, Tuple["weakref.ref[ObjectRecord]", _ReadTemplate]] = {}


def _read_template(record: ObjectRecord) -> _ReadTemplate:
    """``record``'s :class:`_ReadTemplate`, derived on its first read."""
    key = id(record)
    entry = _TEMPLATES.get(key)
    if entry is not None and entry[0]() is record:
        return entry[1]
    template = _ReadTemplate(record)
    _TEMPLATES[key] = (
        weakref.ref(record, lambda _, key=key: _TEMPLATES.pop(key, None)),
        template)
    return template


@dataclass
class ReadResult:
    """One served read, classified.

    ``video`` is ``None`` exactly when ``outcome == "refused"`` — a
    refused read never hands back frames.
    """

    object_id: str
    tenant: str
    reader: str
    outcome: str
    video: Optional[VideoSequence] = None
    refusal_reason: str = ""
    #: Streams whose uncorrectable damage went to the concealer.
    concealed_streams: Tuple[str, ...] = ()
    flipped_bits: int = 0
    failed_blocks: int = 0
    retry_successes: int = 0
    reports: Dict[str, StorageReport] = field(default_factory=dict)
    #: Streams served by a non-primary replica (read escalation).
    escalated_streams: Tuple[str, ...] = ()


@dataclass
class FrameReadResult:
    """One served random-access frame read, classified.

    Same four-outcome ladder as :class:`ReadResult`; ``frame`` is
    ``None`` exactly when ``outcome == "refused"``.
    ``bytes_read``/``bytes_total`` expose the partial-read economics:
    how much ciphertext the seek actually pulled off the shards versus
    the object's full footprint.
    """

    object_id: str
    tenant: str
    reader: str
    display: int
    outcome: str
    frame: Optional[np.ndarray] = None
    refusal_reason: str = ""
    concealed_streams: Tuple[str, ...] = ()
    cache_hit: bool = False
    gop_anchor: int = 0
    frames_decoded: int = 0
    bytes_read: int = 0
    bytes_total: int = 0
    reports: Dict[str, StorageReport] = field(default_factory=dict)


@dataclass
class _Fetched:
    """One fetch's windows off the shards, judged.

    ``container`` is ``None`` exactly when ``outcome`` is refused;
    otherwise it holds the merged payloads (a seek's closure only),
    ready for the decoder together with ``frame_damage``.
    """

    outcome: str
    reports: Dict[str, StorageReport]
    refusal_reason: str = ""
    concealed_streams: Tuple[str, ...] = ()
    escalated_streams: Tuple[str, ...] = ()
    bytes_read: int = 0
    container: Optional[EncodedVideo] = None
    frame_damage: dict = field(default_factory=dict)


class VideoObjectStore:
    """Sharded, content-addressed, per-tenant-encrypted video store.

    ``seek_cache`` sizes the decoded-GOP cache (default 16 GOPs; 0
    disables it) and ``replicas`` the copies written per stream
    (default ``REPRO_SERVICE_REPLICAS``, else 2).
    """

    def __init__(self, pool: Optional[ShardPool] = None,
                 keyring: Optional[Keyring] = None,
                 config: Optional[EncoderConfig] = None,
                 assignment: ClassAssignment = PAPER_TABLE1,
                 audit: Optional[AuditLog] = None,
                 seek_cache: Optional[int] = None,
                 replicas: Optional[int] = None) -> None:
        self.pool = pool if pool is not None else ShardPool()
        self.keyring = keyring if keyring is not None else Keyring()
        self.config = config if config is not None else EncoderConfig()
        self.assignment = assignment
        # ``audit or ...`` would discard an *empty* log (len() == 0).
        self.audit = audit if audit is not None else AuditLog()
        self._records: Dict[Tuple[str, str], ObjectRecord] = {}
        self._decoder = Decoder(conceal_uncorrectable=True)
        self.gop_cache = GopCache(
            capacity=argument("seek_cache", seek_cache, 16, 0, ServiceError))
        #: Replicas written per stream (``REPRO_SERVICE_REPLICAS``),
        #: clamped to the pool width at placement time.
        self.replicas = resolve("REPRO_SERVICE_REPLICAS", replicas)
        #: Read-repair queue the background repair pass drains.
        self.repair = RepairQueue()

    # -- bookkeeping ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def record(self, tenant: str, object_id: str) -> ObjectRecord:
        """The record for ``(tenant, object_id)``; error if absent."""
        try:
            return self._records[(tenant, object_id)]
        except KeyError:
            raise ServiceError(
                f"tenant {tenant!r} has no object {object_id!r}"
            ) from None

    def objects(self, tenant: Optional[str] = None) -> List[ObjectRecord]:
        """All records, optionally one tenant's, in insertion order."""
        return [record for (owner, _), record in self._records.items()
                if tenant is None or owner == tenant]

    # -- write path -------------------------------------------------------

    def put_many(self, tenant: str,
                 videos: List[VideoSequence]) -> List[str]:
        """Ingest a batch of clips for ``tenant``; returns object ids.

        One batched encode covers every clip (the encoder groups them
        by geometry). Identical content dedupes against the tenant's
        existing objects without touching the shards again.
        """
        self.keyring.add_tenant(tenant)
        encryptor = self.keyring.encryptor(tenant)
        with obs_trace.span("service.ingest", tenant=tenant,
                            clips=len(videos)):
            if not videos:
                return []
            # The record keeps no reconstruction: a read's quality is
            # the caller's to measure against its own source.
            encodes, _ = encode_batch_with_recon(videos, self.config)
            return [self._place_one(tenant, encryptor, encoded)
                    for encoded in encodes]

    def put(self, tenant: str, video: VideoSequence) -> str:
        """Ingest one clip (see :meth:`put_many`)."""
        return self.put_many(tenant, [video])[0]

    def _place_one(self, tenant, encryptor, encoded) -> str:
        """Partition, encrypt, and place one encoded clip; record its
        manifest."""
        object_id = object_id_for(encoded.serialize())
        if (tenant, object_id) in self._records:
            obs_metrics.counter("service_ingest_dedupe_total").inc()
            self.audit.record("dedupe", tenant, object_id)
            return object_id
        importance = compute_importance(encoded.trace)
        protected = partition_video(encoded, importance, self.assignment)
        ids = stream_ids(protected.streams)
        ciphertext = encryptor.encrypt_streams(
            {i: protected.streams[name] for name, i in ids.items()})
        stream_sha: Dict[str, str] = {}
        replicas: Dict[str, Tuple[str, ...]] = {}
        for name, i in ids.items():
            key = stream_key(tenant, object_id, name)
            chain = self.pool.place_n(key, self.replicas)
            for shard in chain:
                shard.write(key, ciphertext[i])
            stream_sha[name] = hashlib.sha256(ciphertext[i]).hexdigest()
            replicas[name] = tuple(s.shard_id for s in chain)
        self._records[(tenant, object_id)] = ObjectRecord(
            object_id=object_id, tenant=tenant,
            video_header=encoded.header,
            frame_headers=protected.frame_headers,
            seek_index=encoded.seek_index_or_build(),
            gop_plans=plan_gops(encoded, protected),
            pivots=protected.pivots, stream_bits=protected.stream_bits,
            stream_lengths=protected.stream_lengths,
            stream_sha=stream_sha, replicas=replicas)
        obs_metrics.counter("service_ingest_objects_total").inc()
        self.audit.record(
            "ingest", tenant, object_id,
            detail=f"streams={len(ids)} "
                   f"shards={sorted(set(c[0] for c in replicas.values()))}")
        return object_id

    # -- read path --------------------------------------------------------

    def get(self, tenant: str, object_id: str,
            reader: Optional[str] = None,
            rng: Optional[np.random.Generator] = None) -> ReadResult:
        """Serve one object through the full failure ladder.

        A whole read is the seek's fetch with every stream's window set
        to its full extent, so it walks, judges and decrypts exactly as
        :meth:`get_frame` does, then decodes every frame.

        ``reader`` defaults to the owning tenant; a foreign reader must
        be on the owner's share list (:class:`~repro.errors.
        AccessDeniedError` otherwise) and always decrypts under the
        *owner's* key (:class:`~repro.errors.StaleKeyError` if that key
        was retired). ``rng`` seeds the device error draws — the
        loadgen passes one per planned operation so runs replay.
        """
        reader = reader if reader is not None else tenant
        record = self.record(tenant, object_id)
        with obs_trace.span("service.read", tenant=tenant,
                            reader=reader, object_id=object_id[:12]):
            encryptor = self._encryptor_for(tenant, reader, object_id)
            fetched = self._fetch(
                record, encryptor, rng or np.random.default_rng(),
                {name: (0, length)
                 for name, length in record.stream_lengths.items()},
                range(record.frames))
            reports = fetched.reports
            result = ReadResult(
                object_id=object_id, tenant=tenant, reader=reader,
                outcome=fetched.outcome,
                refusal_reason=fetched.refusal_reason,
                concealed_streams=fetched.concealed_streams,
                flipped_bits=sum(r.flipped_bits for r in reports.values()),
                failed_blocks=sum(r.failed_blocks
                                  for r in reports.values()),
                retry_successes=sum(r.retry_successes
                                    for r in reports.values()),
                reports=reports,
                escalated_streams=fetched.escalated_streams)
            if fetched.container is not None:
                result.video = self._decoder.decode(
                    fetched.container, fetched.frame_damage, scope=tenant)
        self.audit.record(
            "read", reader, object_id,
            detail=(f"outcome={result.outcome}"
                    + (f" reason={result.refusal_reason}"
                       if result.refusal_reason else "")))
        obs_metrics.counter(
            f"service_reads_{result.outcome}_total").inc()
        return result

    def get_frame(self, tenant: str, object_id: str, display: int,
                  reader: Optional[str] = None,
                  rng: Optional[np.random.Generator] = None
                  ) -> FrameReadResult:
        """Serve one display frame, reading only what the seek index
        says is needed.

        The read unit is the frame's display GOP: the seek index
        resolves ``display`` to its anchor I frame, the GOP's fetch
        plan names the container positions of its dependency closure,
        and only the ECC blocks carrying those frames' stream segments
        are pulled off the shards, decrypted in place (CTR counter
        jump), merged, and partially decoded. Decoded GOPs land in the
        store's LRU (:class:`~repro.service.cache.GopCache`), so
        scrubbing within a GOP hits memory.

        The fetch and its four-outcome ladder are :meth:`get`'s. A
        partial window cannot hash bytes it never fetched, so there
        silent-miscorrection refusal rides the per-block ECC verdicts;
        the integrity hash runs whenever an aligned window covers its
        whole stream, as every window of a whole read does.
        """
        return self._read_frame(tenant, object_id, display, reader, rng,
                                fetch=True)

    def cached_frame(self, tenant: str, object_id: str, display: int,
                     reader: Optional[str] = None
                     ) -> Optional[FrameReadResult]:
        """:meth:`get_frame` when the frame's display GOP is cached,
        else ``None``.

        A hit passes the same access check and is counted, audited and
        served exactly as :meth:`get_frame` serves it. A miss counts,
        audits and fetches nothing: the caller that still wants the
        frame calls :meth:`get_frame`, which counts it once. The
        front-end calls this on its event loop, so a hit never waits
        for a thread and a miss never runs there.
        """
        return self._read_frame(tenant, object_id, display, reader, None,
                                fetch=False)

    def _read_frame(self, tenant: str, object_id: str, display: int,
                    reader: Optional[str],
                    rng: Optional[np.random.Generator],
                    fetch: bool) -> Optional[FrameReadResult]:
        """A frame read; with ``fetch`` false a cache miss returns
        ``None`` before anything is counted or read."""
        reader = reader if reader is not None else tenant
        record = self.record(tenant, object_id)
        if not 0 <= display < record.frames:
            raise ServiceError(
                f"display {display} outside object "
                f"{object_id[:12]}'s 0..{record.frames - 1}")
        encryptor = self._encryptor_for(tenant, reader, object_id)
        plan = record.gop_plans[
            record.seek_index.gop_for_display(display).anchor_display]
        key = (tenant, object_id, plan.start)
        cached = (self.gop_cache.get if fetch else self.gop_cache.hit)(key)
        if cached is None and not fetch:
            return None
        with obs_trace.span("seek.get_frame", tenant=tenant,
                            reader=reader, object_id=object_id[:12],
                            display=display):
            if cached is None:
                result = self._frame_via_seek(
                    record, encryptor, reader, display, plan,
                    rng if rng is not None else np.random.default_rng())
            else:
                result = FrameReadResult(
                    object_id=object_id, tenant=tenant, reader=reader,
                    display=display, outcome=cached.outcome,
                    frame=cached.frames[display],
                    refusal_reason=cached.refusal_reason,
                    concealed_streams=cached.concealed_streams,
                    cache_hit=True, gop_anchor=plan.start,
                    bytes_total=sum(record.stream_lengths.values()))
        self.audit.record(
            "read_frame", reader, object_id,
            detail=(f"display={display} outcome={result.outcome}"
                    + (" cache_hit" if result.cache_hit else "")
                    + (f" reason={result.refusal_reason}"
                       if result.refusal_reason else "")))
        obs_metrics.counter(
            f"service_frame_reads_{result.outcome}_total").inc()
        return result

    def _encryptor_for(self, tenant: str, reader: str, object_id: str):
        """``tenant``'s encryptor once ``reader`` may read its objects;
        a denial is audited and counted before it propagates."""
        self.keyring.add_tenant(reader)
        try:
            self.keyring.check_read(tenant, reader)
            return self.keyring.encryptor(tenant)
        except ServiceError as exc:
            self.audit.record("denied", reader, object_id,
                              detail=str(exc))
            obs_metrics.counter("service_reads_denied_total").inc()
            raise

    def _frame_via_seek(self, record: ObjectRecord, encryptor,
                        reader: str, display: int, plan: GopPlan,
                        rng: np.random.Generator) -> FrameReadResult:
        """Partial read + partial decode of the frame's display GOP,
        which then enters the cache."""
        with obs_trace.span("seek.fetch", gop=plan.start,
                            frames=len(plan.positions)):
            fetched = self._fetch(
                record, encryptor, rng,
                {name: (lo_bit // 8, -(-hi_bit // 8))
                 for name, (lo_bit, hi_bit) in plan.ranges.items()},
                plan.positions)
        result = FrameReadResult(
            object_id=record.object_id, tenant=record.tenant,
            reader=reader, display=display, outcome=fetched.outcome,
            refusal_reason=fetched.refusal_reason,
            concealed_streams=fetched.concealed_streams,
            gop_anchor=plan.start, frames_decoded=len(plan.positions),
            bytes_read=fetched.bytes_read,
            bytes_total=sum(record.stream_lengths.values()),
            reports=fetched.reports)
        if fetched.container is None:
            return result
        gop = self._decoder.decode_range(
            fetched.container, plan.start, plan.stop, fetched.frame_damage,
            scope=record.tenant, positions=plan.positions)
        frames = {plan.start + k: frame
                  for k, frame in enumerate(gop.frames)}
        result.frame = frames[display]
        self.gop_cache.put(
            (record.tenant, record.object_id, plan.start),
            CachedGop(anchor_display=plan.start, frames=frames,
                      outcome=result.outcome,
                      refusal_reason=result.refusal_reason,
                      concealed_streams=result.concealed_streams))
        return result

    def _fetch(self, record: ObjectRecord, encryptor,
               rng: np.random.Generator,
               windows: Dict[str, Tuple[int, int]],
               positions: Sequence[int]) -> _Fetched:
        """Read, judge, decrypt and merge byte windows of the streams.

        ``windows`` maps a stream name to the half-open byte window to
        read (a whole read: every stream's full extent); streams it
        leaves out are not read. Streams run in sorted-name order with
        the ids :func:`~repro.crypto.streams.stream_ids` gives them at
        ingest, so a seeded rng yields one flip pattern per plan seed
        regardless of placement. Any stream that needed a retry, was
        damaged or refused, or came from a non-primary replica enqueues
        read-repair.

        ``positions`` (coded order) are the frames to serve: every
        frame for a whole read, a GOP plan's dependency closure for a
        seek. Only those frames are merged from the windows, at their
        byte offsets, and damage-mapped, through the object's
        :class:`_ReadTemplate`, so the work follows the frames served.
        """
        ids = stream_ids(record.stream_lengths)
        reads: Dict[str, Tuple[bytes, int]] = {}
        reports: Dict[str, StorageReport] = {}
        escalated: List[str] = []
        refusal = ""
        needs_repair = False
        for name in ids:
            if name not in windows:
                continue
            data, report, a_start, stream_refusal, index, rung = \
                self._walk_replicas(record, name, rng, *windows[name])
            if data is not None:
                reads[name] = (data, a_start)
                reports[name] = report
            if index > 0:
                escalated.append(name)
            needs_repair = needs_repair or rung > 0 or index > 0
            refusal = refusal or stream_refusal
        if needs_repair:
            self.repair.enqueue(record.tenant, record.object_id)
        fetched = _Fetched(
            outcome=REFUSED if refusal else CLEAN,
            refusal_reason=refusal, reports=reports,
            escalated_streams=tuple(escalated),
            bytes_read=sum(len(data) for data, _ in reads.values()))
        if refusal:
            return fetched
        plain: Dict[str, Tuple[int, bytes]] = {}
        damage: Dict[str, List[Tuple[int, int]]] = {}
        for name, stream_id in ids.items():
            if name not in reads:
                continue
            data, a_start = reads[name]
            plain[name] = (a_start,
                           encryptor.decrypt_at(stream_id, data, a_start))
            # Block coordinates survive the positional cipher: shift
            # them to stream bits, clamp off the byte padding.
            limit = record.stream_bits[name]
            shifted = [(min(8 * a_start + b.bit_start, limit),
                        min(8 * a_start + b.bit_end, limit))
                       for b in reports[name].uncorrectable]
            shifted = [(lo, hi) for lo, hi in shifted if hi > lo]
            if shifted:
                damage[name] = shifted
        template = _read_template(record)
        fetched.container = template.container(
            positions, merge_streams(record, plain, positions,
                                     cursors=template.cursors))
        if damage:
            fetched.frame_damage = map_stream_damage(
                record, damage, positions, cursors=template.cursors)
            fetched.outcome = CONCEALED
            fetched.concealed_streams = tuple(sorted(damage))
        elif sum(r.retry_successes for r in reports.values()) > 0:
            fetched.outcome = CORRECTED
        return fetched

    def _walk_replicas(self, record: ObjectRecord, name: str,
                       rng: np.random.Generator, lo_byte: int,
                       hi_byte: int):
        """Read ``[lo_byte, hi_byte)`` of stream ``name`` off its
        replica chain and keep the best rung.

        Replicas are read in ring order (primary first) and the walk
        stops at the first *clean* copy — a damaged or refused primary
        escalates to the next replica rather than straight to
        concealment or refusal. Returns ``(data, report,
        aligned_start, refusal, replica_index, rung)``; ``data`` and
        ``report`` are ``None`` only when no replica holds the stream.
        """
        key = stream_key(record.tenant, record.object_id, name)
        scheme = scheme_by_name(name)
        best = None
        flaked = 0
        for index, shard_id in enumerate(record.replicas[name]):
            shard = self.pool.shard(shard_id)
            if not shard.has(key):
                continue
            obs_metrics.counter("service_replica_reads_total").inc()
            try:
                data, report, a_start, a_end = shard.read_range(
                    key, scheme, rng, lo_byte, hi_byte)
            except TransientShardError:
                flaked += 1
                obs_metrics.counter(
                    "service_replica_read_faults_total").inc()
                continue
            refusal = self._refusal_for(record, name, data, report,
                                        a_start, a_end, hi_byte)
            rung = self._rung(refusal, report)
            if best is None or rung < best[5]:
                best = (data, report, a_start, refusal, index, rung)
            if rung == 0:
                break
        if best is None:
            if flaked:
                # An operational fault, not data damage: every replica
                # flaked mid-read. Retryable — let the front-end's
                # backoff ladder have it rather than refusing.
                raise TransientShardError(
                    f"stream {name}: all {flaked} readable replica(s) "
                    f"flaked")
            return (None, None, 0,
                    f"stream {name}: no replica holds the stream", 0, 3)
        if best[4] > 0:
            obs_metrics.counter("service_read_escalations_total").inc()
        return best

    @staticmethod
    def _rung(refusal: str, report: StorageReport) -> int:
        """Ladder rank of one replica read: 0 clean, 1 corrected,
        2 concealed-tier damage, 3 refused. Lower is better."""
        if refusal:
            return 3
        if report.uncorrectable:
            return 2
        if report.retry_successes > 0:
            return 1
        return 0

    def _refusal_for(self, record: ObjectRecord, name: str, data: bytes,
                     report: StorageReport, a_start: int, a_end: int,
                     hi_byte: int) -> str:
        """Refusal reason for one stream window's read, or ``""``.

        A window whose aligned end ``a_end`` falls short of the
        ``hi_byte`` asked for, or runs past the stream's manifest
        length, comes from a blob resized at rest and refuses.
        Miscorrected blocks refuse. A read the device reports clean is
        checked against the write-time SHA-256 when its aligned window
        ``[a_start, a_end)`` covers the whole stream. Uncorrectable
        blocks in the precise (header-scheme) stream refuse.
        """
        length = record.stream_lengths[name]
        if not hi_byte <= a_end <= length:
            return (f"stream {name}: blob size disagrees with the "
                    f"manifest")
        if report.miscorrected_blocks > 0:
            return (f"stream {name}: {report.miscorrected_blocks} "
                    f"silently miscorrected block(s)")
        whole = a_start == 0 and a_end >= length
        clean_claim = (report.flipped_bits == 0
                       and report.failed_blocks == 0)
        if whole and clean_claim:
            digest = hashlib.sha256(data).hexdigest()
            if digest != record.stream_sha[name]:
                return (f"stream {name}: integrity hash mismatch on a "
                        f"read the device reported clean")
        if (report.failed_blocks
                and name == self.assignment.header_scheme.name):
            return (f"stream {name}: uncorrectable damage in a "
                    f"precise-scheme stream")
        return ""
