"""The benchmark's four closed-loop workloads.

Every workload drives the service through its public surface:
:class:`ServiceFrontend` over :class:`VideoObjectStore` over
:class:`ShardPool`. Two client coroutines in one process each send
their next request only once the previous one has been answered (a
closed loop), and the event loop's default executor has as many
threads as the host has cores. Every clip the program sees was
synthesised from ``--seed`` before it was handed over, and every read
draws its device errors from an rng the benchmark derived from the
seed, so one seed always yields the same per-op answers.

* ``ingest`` — each client is one tenant uploading sessions of four
  same-geometry clips at once, then reading one of its own earlier
  objects back whole; both clients start each session together.
* ``playback`` — whole-object reads of uniformly drawn objects from a
  preloaded corpus at nominal age.
* ``seek`` — Zipf-popular objects, a uniform frame, ``read_frame`` there
  and on the next three frames. The corpus holds three times more GOPs
  than the decoded-GOP cache. A read's device errors are keyed by
  (object, GOP), so a cache hit serves exactly what a miss would have
  decoded and the digest does not depend on how the clients interleave.
* ``decay`` — a copy of an R=2 corpus aged through a fixed grid; at
  each age every object is read, one repair pass runs, and every object
  is read again.

Quality and density are measured from outside only: PSNR against the
benchmark's own source clips, cells from the blobs on the shards.
"""

from __future__ import annotations

import asyncio
import copy
import gc
import hashlib
import json
import os
import resource
import statistics
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.codec.config import EncoderConfig
from repro.errors import ReproError, ServiceOverloadError
from repro.service.frontend import ServiceFrontend
from repro.service.keyring import Keyring
from repro.service.shards import ShardPool
from repro.service.store import VideoObjectStore
from repro.storage.device import ApproximateDevice
from repro.storage.ecc import scheme_by_name
from repro.video.frame import VideoSequence
from repro.video.synthesis import SceneConfig, synthesize_scene

from . import ledger

WORKLOADS = ("ingest", "playback", "seek", "decay")
CLIENTS = 2
SESSION_CLIPS = 4
#: The one encoder configuration every workload shares.
ENCODER = {"crf": 28, "gop_size": 8, "bframes": 1}
OUTCOMES = ("clean", "corrected", "concealed", "refused")
#: Units of the report's named metrics, the names the workloads were
#: specified with (BENCHMARK.json lists the generic names every workload
#: reports).
NAMED_UNITS = {"setup_s": "s", "ingest_per_s": "clips/s",
               "ingest_p50_ms": "ms", "ingest_tail_ms": "ms",
               "read_per_s": "reads/s", "read_p50_ms": "ms",
               "read_tail_ms": "ms", "seek_per_s": "bursts/s",
               "seek_p50_ms": "ms", "seek_tail_ms": "ms",
               "error_rate": "fraction", "psnr_db": "dB",
               "cells_per_pixel": "cells/px", "peak_rss_mb": "MB"}
#: The op kind each workload's throughput and latency describe.
PRIMARY = {"ingest": "ingest", "playback": "read", "seek": "seek",
           "decay": "read"}
#: Seed-derivation words: workload tag, then the use of the draw.
_TAG = {name: index + 1 for index, name in enumerate(WORKLOADS)}
_CLIP, _PLAN, _DEVICE, _WARM, _RANK = 0, 1, 2, 3, 4

Geometry = Tuple[int, int, int]  # (width, height, frames)

#: Clip geometry of ingest client 0 and client 1.
INGEST_GEOMETRY: Tuple[Geometry, ...] = ((64, 48, 16), (48, 32, 16))
PLAYBACK_GEOMETRY: Geometry = (64, 48, 16)
SEEK_GEOMETRY: Geometry = (64, 48, 32)
SEEK_ZIPF = 0.6
#: Frames read after the one a seek jumps to.
SEEK_SCRUB = 3
DECAY_GEOMETRY: Geometry = (64, 48, 16)
DECAY_REPLICAS = 2


@dataclass(frozen=True)
class Scale:
    """Workload sizes. :data:`FULL` is the benchmark; :data:`SMOKE`
    keeps the same shape at a fraction of the cost, for tests."""

    #: Sessions generated per ingest client, five times what a 12 s
    #: run used; a timed run that uses them all fails its check.
    ingest_sessions: int = 48
    playback_corpus: int = 12
    seek_corpus: int = 12
    seek_warmup_bursts: int = 16
    decay_corpus: int = 6
    #: Retention ages (days) one decay cycle walks through, ascending.
    decay_ages: Tuple[float, ...] = (30.0, 300.0, 3e3, 3e4, 1e5, 3e5,
                                     1e6)
    warmup_reads: int = 2
    #: Set-ups per untraced run; ``setup_s`` is their median.
    setups: int = 3


FULL = Scale()
SMOKE = Scale(ingest_sessions=3, playback_corpus=3, seek_corpus=3,
              seek_warmup_bursts=2, decay_corpus=2,
              decay_ages=(3e5, 1e6), warmup_reads=1, setups=2)


#: Yardstick rate (loops/s) of the reference host that the timing
#: metrics are scaled to (see :func:`yardstick`).
REFERENCE_RATE = 4000.0
#: Windows a timed run is cut into, each scaled by its own yardsticks.
WINDOWS = 8

_YARD_BYTES = bytes(range(256)) * 8


def _yard_loop() -> int:
    """One yardstick loop: byte-wise Python arithmetic and a small numpy
    reduction, the two kinds of work on the service's hot paths."""
    acc = 0
    for value in _YARD_BYTES:
        acc = (acc * 31 + value) & 0xFFFFFFFF
    arr = np.frombuffer(_YARD_BYTES, dtype=np.uint8).astype(np.int64)
    return acc + int((arr * arr).sum())


def yardstick(seconds: float = 0.3) -> float:
    """Yardstick loops per second on this host, now, from as many
    threads as the workloads have clients.

    The host this benchmark runs on is shared, and its speed swings by
    tens of percent within seconds; how much two threads lose to
    handing the interpreter lock back and forth swings with it. The
    timing metrics are therefore reported at the reference host's
    speed, as the repository's own perf gates normalise by a yardstick:
    each set-up is scaled by the rate taken just before it, and each
    window of the run (see :class:`Context`) by the mean of the rates
    taken just before and just after it.
    """
    counts = [0] * CLIENTS
    start = time.perf_counter()
    deadline = start + seconds

    def spin(slot: int) -> None:
        while time.perf_counter() < deadline:
            _yard_loop()
            counts[slot] += 1

    threads = [threading.Thread(target=spin, args=(slot,))
               for slot in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return sum(counts) / (time.perf_counter() - start)


def _rng(*words: int) -> np.random.Generator:
    return np.random.default_rng([int(w) for w in words])


def make_clip(geometry: Geometry, *words: int) -> np.ndarray:
    """One synthetic source clip ``(frames, H, W) uint8``."""
    width, height, frames = geometry
    scene = synthesize_scene(SceneConfig(
        width=width, height=height, num_frames=frames,
        seed=int(_rng(*words).integers(1 << 31))))
    return np.stack(scene.frames)


def _sequence(clip: np.ndarray) -> VideoSequence:
    return VideoSequence(frames=list(clip))


def psnr_db(reference: np.ndarray, test: np.ndarray) -> float:
    """Mean per-frame PSNR (dB, capped at 100) of ``test`` against
    ``reference``; both ``(frames, H, W)`` uint8."""
    diff = reference.astype(np.float64) - test.astype(np.float64)
    mse = (diff * diff).reshape(len(diff), -1).mean(axis=1)
    with np.errstate(divide="ignore"):
        values = np.where(mse == 0.0, 100.0,
                          np.minimum(100.0, 10.0 * np.log10(255.0 ** 2
                                                            / mse)))
    return float(values.mean())


@dataclass
class Inputs:
    """Everything generated from the seed before the program runs."""

    #: Clips preloaded during set-up, with their owning tenant.
    corpus: List[Tuple[str, np.ndarray]]
    #: Ingest only: ``sessions[client][session]`` -> clips.
    sessions: List[List[List[np.ndarray]]] = field(default_factory=list)


def make_inputs(name: str, seed: int, scale: Scale) -> Inputs:
    """The workload's source clips for ``seed``."""
    tag = _TAG[name]
    if name == "ingest":
        corpus = [(f"tenant-{c}",
                   make_clip(INGEST_GEOMETRY[c], seed, tag, _WARM, c, k))
                  for c in range(CLIENTS) for k in range(SESSION_CLIPS)]
        sessions = [[[make_clip(INGEST_GEOMETRY[c], seed, tag, _CLIP, c,
                                s, k)
                      for k in range(SESSION_CLIPS)]
                     for s in range(scale.ingest_sessions)]
                    for c in range(CLIENTS)]
        return Inputs(corpus=corpus, sessions=sessions)
    geometry, count = {
        "playback": (PLAYBACK_GEOMETRY, scale.playback_corpus),
        "seek": (SEEK_GEOMETRY, scale.seek_corpus),
        "decay": (DECAY_GEOMETRY, scale.decay_corpus),
    }[name]
    return Inputs(corpus=[("tenant-0", make_clip(geometry, seed, tag,
                                                 _CLIP, k))
                          for k in range(count)])


@dataclass
class World:
    """One set-up service and the objects placed in it."""

    frontend: ServiceFrontend
    #: ``(tenant, object id, source clip)`` per preloaded object.
    objects: List[Tuple[str, str, np.ndarray]]
    #: Resident bytes per preloaded object (KB; traced set-up only).
    resident_kb: float = 0.0

    @property
    def store(self) -> VideoObjectStore:
        return self.frontend.store


@dataclass
class Op:
    """One completed client operation, as the benchmark saw it."""

    kind: str                   #: ``ingest`` | ``read`` | ``seek``
    key: Tuple[int, ...]        #: plan coordinates, unique per run
    object_id: str
    outcome: str                #: a read outcome, ``stored``, or error
    psnr: Optional[float] = None
    ms: float = 0.0
    escalated: int = 0
    cache_hits: int = 0
    frames: int = 0
    bytes_read: int = 0
    bytes_total: int = 0
    #: Index of the timed window the op completed in.
    window: int = 0


class Context:
    """Shared state of one measured run.

    A timed run is cut into windows of ``seconds / WINDOWS``. When a
    window's time is up, each client finishes the unit it is in and
    waits; once all are waiting, one :func:`yardstick` is taken with the
    service idle and the next window opens. The run ends at the first
    window boundary after ``seconds`` of window time. A budgeted run (the
    traced replay) has one window and no yardsticks.
    """

    def __init__(self, name: str, seed: int, scale: Scale, world: World,
                 seconds: float, budget: Optional[List[int]],
                 recorder: Optional[ledger.Recorder]) -> None:
        self.name = name
        self.seed = seed
        self.scale = scale
        self.world = world
        self.seconds = seconds
        self.budget = budget
        self.recorder = recorder
        self.ops: List[Op] = []
        self.errors: List[Op] = []
        self.bad: List[str] = []
        #: Units (sessions, ops or cycles) each client finished.
        self.units = [0] * (1 if name == "decay" else CLIENTS)
        #: Coroutines that call :meth:`more` (ingest and decay have one
        #: loop for all clients).
        self._callers = CLIENTS if name in ("playback", "seek") else 1
        self._op_ids = 0
        #: Objects the run stored (ingest), for the density figure.
        self.stored: Dict[str, np.ndarray] = {
            oid: clip for _, oid, clip in world.objects}
        #: Closed windows: ``(seconds, yardstick rate before, after)``.
        self.windows: List[Tuple[float, float, float]] = []
        self.window = 0
        self.running = False
        self._rate = 0.0
        self._opened = self._closes = self._excluded = 0.0
        self._waiting = 0
        self._gate = asyncio.Event()

    def open(self) -> None:
        """Take the first yardstick (timed runs) and open a window."""
        if self.budget is None:
            self._rate = yardstick()
        self._start()

    def _start(self) -> None:
        self.running = True
        self._excluded = 0.0
        self._opened = time.perf_counter()
        self._closes = self._opened + self.seconds / WINDOWS

    def close(self) -> None:
        """End the open window; a timed run takes a yardstick after it."""
        took = time.perf_counter() - self._opened - self._excluded
        rate = yardstick() if self.budget is None else 0.0
        self.windows.append((took, self._rate, rate))
        self._rate = rate
        self.running = False
        self.window += 1

    def exclude(self, seconds: float) -> None:
        """Take ``seconds`` of the benchmark's own work off the clock."""
        self._excluded += seconds

    @property
    def elapsed(self) -> float:
        return sum(took for took, _, _ in self.windows)

    async def more(self, unit: int) -> bool:
        """May client/cycle ``unit`` start another unit of work?"""
        if self.budget is not None:
            return self.units[unit] < self.budget[unit]
        if time.perf_counter() < self._closes:
            return True
        self._waiting += 1
        if self._waiting < self._callers:
            await self._gate.wait()
        else:
            self.close()
            self._waiting = 0
            if self.elapsed < self.seconds:
                self._start()
            gate, self._gate = self._gate, asyncio.Event()
            gate.set()
        return self.running

    def record(self, op: Op) -> None:
        """Keep a completed op, stamped with the window it ended in."""
        op.window = self.window
        self.ops.append(op)

    def new_op(self) -> int:
        """A fresh op id (ties spans on executor threads to the op)."""
        self._op_ids += 1
        return self._op_ids

    def handover(self, obj: object, op: int) -> None:
        """Register ``obj`` (an rng or clip) as op ``op``'s, now."""
        if self.recorder is not None:
            self.recorder.register(obj, op, time.perf_counter())

    def check_read(self, result, source: np.ndarray) -> Optional[float]:
        """Validate one whole-object read; its PSNR when served."""
        video = getattr(result, "video", None)
        if result.outcome not in OUTCOMES:
            self.bad.append(f"unknown outcome {result.outcome!r}")
            return None
        if result.outcome == "refused":
            if video is not None:
                self.bad.append("refused read carried frames")
            return None
        if video is None:
            self.bad.append(f"{result.outcome} read carried no frames")
            return None
        frames = np.stack(video.frames)
        if frames.shape != source.shape or frames.dtype != np.uint8:
            self.bad.append(f"read returned {frames.shape} "
                            f"{frames.dtype}, source is {source.shape}")
            return None
        return psnr_db(source, frames)


async def _timed_ingest(ctx: Context, op: int, tenant: str,
                        clip: np.ndarray):
    """``(object id or error label, seconds)`` for one clip."""
    sequence = _sequence(clip)
    ctx.handover(sequence, op)
    start = time.perf_counter()
    try:
        object_id = await ctx.world.frontend.ingest(tenant, sequence)
    except ServiceOverloadError:
        return "shed", time.perf_counter() - start
    except ReproError:
        return "raised", time.perf_counter() - start
    return object_id, time.perf_counter() - start


async def _read(ctx: Context, frontend: ServiceFrontend, key,
                tenant: str, object_id: str, source: np.ndarray,
                rng: np.random.Generator) -> None:
    """One whole-object read, timed, checked and recorded."""
    ctx.handover(rng, ctx.new_op())
    start = time.perf_counter()
    try:
        result = await frontend.read(tenant, object_id, rng=rng)
    except ReproError:
        ctx.errors.append(Op("read", key, object_id, "raised"))
        return
    ms = 1e3 * (time.perf_counter() - start)
    psnr = ctx.check_read(result, source)
    ctx.record(Op("read", key, object_id, result.outcome, psnr=psnr,
                  ms=ms, escalated=len(getattr(result, "escalated_streams",
                                               ()))))


async def _ingest_session(ctx: Context, client: int, session: int,
                          clips: List[np.ndarray],
                          own: List[Tuple[str, np.ndarray]],
                          plan: np.random.Generator) -> None:
    """Upload ``clips`` at once, await the ids, read one own object."""
    tenant = f"tenant-{client}"
    op = ctx.new_op()
    results = await asyncio.gather(
        *(_timed_ingest(ctx, op, tenant, clip) for clip in clips))
    for k, ((object_id, seconds), clip) in enumerate(zip(results, clips)):
        key = (client, session, k)
        if object_id in ("shed", "raised"):
            ctx.errors.append(Op("ingest", key, "", object_id))
            continue
        ctx.record(Op("ingest", key, object_id, "stored",
                      ms=1e3 * seconds))
        ctx.stored[object_id] = clip
    object_id, source = own[int(plan.random() * len(own))]
    await _read(ctx, ctx.world.frontend, (client, session, -1), tenant,
                object_id, source,
                _rng(ctx.seed, _TAG["ingest"], _DEVICE, client, session))
    own.extend((oid, clip) for (oid, _), clip in zip(results, clips)
               if oid not in ("shed", "raised"))
    ctx.units[client] += 1


async def _ingest_run(ctx: Context, inputs: Inputs) -> None:
    """Rounds in which every client runs one session; a round ends when
    the last client has read back.

    Left to drift, the two clients settle at random into one of two
    phases of the front-end's batching: both sessions in one worker
    batch, or each queued behind the other's encode. The phases differ
    by a third in latency, so whole runs landed in one or the other.
    Starting each session together gives every run the first phase:
    one batch of both sessions, tenant 0 encoded first, and tenant 0's
    read-after-write sharing the executor with tenant 1's encode.
    """
    tag = _TAG["ingest"]
    plans = [_rng(ctx.seed, tag, _PLAN, c) for c in range(CLIENTS)]
    own = [[(oid, clip) for owner, oid, clip in ctx.world.objects
            if owner == f"tenant-{c}"] for c in range(CLIENTS)]
    session = 0
    while await ctx.more(0):
        if session == ctx.scale.ingest_sessions:
            ctx.bad.append(f"ingest used all {session} pre-generated "
                           f"sessions before the run ended")
            return
        await asyncio.gather(*(
            _ingest_session(ctx, c, session, inputs.sessions[c][session],
                            own[c], plans[c])
            for c in range(CLIENTS)))
        session += 1


async def _playback_client(ctx: Context, client: int) -> None:
    tag = _TAG["playback"]
    plan = _rng(ctx.seed, tag, _PLAN, client)
    objects = ctx.world.objects
    index = 0
    while await ctx.more(client):
        tenant, object_id, source = objects[int(plan.integers(
            len(objects)))]
        await _read(ctx, ctx.world.frontend, (client, index), tenant,
                    object_id, source,
                    _rng(ctx.seed, tag, _DEVICE, client, index))
        index += 1
        ctx.units[client] += 1


def _zipf(count: int, exponent: float, seed: int) -> Tuple[np.ndarray,
                                                           np.ndarray]:
    """(object order by popularity, popularity weights)."""
    order = _rng(seed, _TAG["seek"], _RANK).permutation(count)
    weights = 1.0 / np.arange(1, count + 1) ** exponent
    return order, weights / weights.sum()


async def _seek_burst(ctx: Context, key, obj: int, start: int) -> None:
    """Jump to ``start`` and scrub on: one timed burst."""
    tenant, object_id, source = ctx.world.objects[obj]
    stop = min(start + 1 + SEEK_SCRUB, len(source))
    gop = ENCODER["gop_size"]
    op = ctx.new_op()
    results = []
    began = time.perf_counter()
    try:
        for display in range(start, stop):
            rng = _rng(ctx.seed, _TAG["seek"], _DEVICE, obj,
                       display // gop)
            ctx.handover(rng, op)
            results.append(await ctx.world.frontend.read_frame(
                tenant, object_id, display, rng=rng))
    except ReproError:
        ctx.errors.append(Op("seek", key, object_id, "raised"))
        return
    ms = 1e3 * (time.perf_counter() - began)
    worst = "clean"
    psnrs = []
    for display, result in zip(range(start, stop), results):
        frame = getattr(result, "frame", None)
        if result.outcome not in OUTCOMES:
            ctx.bad.append(f"unknown outcome {result.outcome!r}")
            continue
        worst = max(worst, result.outcome, key=OUTCOMES.index)
        if result.outcome == "refused":
            if frame is not None:
                ctx.bad.append("refused seek carried a frame")
            continue
        if frame is None or frame.shape != source.shape[1:] \
                or frame.dtype != np.uint8:
            ctx.bad.append(f"seek frame {display} has the wrong geometry")
            continue
        psnrs.append(psnr_db(source[display:display + 1], frame[None]))
    misses = [r for r in results if not getattr(r, "cache_hit", False)]
    ctx.record(Op(
        "seek", key, object_id, worst,
        psnr=float(np.mean(psnrs)) if psnrs else None, ms=ms,
        frames=len(results),
        cache_hits=sum(bool(getattr(r, "cache_hit", False))
                       for r in results),
        bytes_read=sum(getattr(r, "bytes_read", 0) for r in misses),
        bytes_total=sum(getattr(r, "bytes_total", 0) for r in misses)))


def _seek_plan(ctx: Context, words) -> Tuple[np.random.Generator,
                                             np.ndarray, np.ndarray]:
    order, weights = _zipf(len(ctx.world.objects), SEEK_ZIPF,
                           ctx.seed)
    return _rng(ctx.seed, _TAG["seek"], *words), order, weights


async def _seek_client(ctx: Context, client: int) -> None:
    plan, order, weights = _seek_plan(ctx, (_PLAN, client))
    frames = len(ctx.world.objects[0][2])
    index = 0
    while await ctx.more(client):
        obj = int(order[plan.choice(len(order), p=weights)])
        await _seek_burst(ctx, (client, index), obj,
                          int(plan.integers(frames)))
        index += 1
        ctx.units[client] += 1


async def _decay_cycle(ctx: Context, cycle: int,
                       pristine: VideoObjectStore) -> None:
    """One walk through the age grid on a copy of the corpus; making
    and retiring the copy is kept off the clock."""
    began = time.perf_counter()
    store = copy.deepcopy(pristine)
    frontend = ServiceFrontend(store)
    await frontend.start()
    ctx.exclude(time.perf_counter() - began)
    objects = ctx.world.objects

    async def reader(client: int, step: int, phase: int) -> None:
        for j in range(client, len(objects), CLIENTS):
            tenant, object_id, source = objects[j]
            await _read(ctx, frontend, (cycle, step, phase, j), tenant,
                        object_id, source,
                        _rng(ctx.seed, _TAG["decay"], _DEVICE, cycle,
                             step, phase, j))

    age_so_far = 0.0
    for step, age in enumerate(ctx.scale.decay_ages):
        store.pool.advance_all(age - age_so_far)
        age_so_far = age
        for phase in (0, 1):
            await asyncio.gather(*(reader(c, step, phase)
                                   for c in range(CLIENTS)))
            if phase == 0:
                await frontend.repair_pass()
    began = time.perf_counter()
    await frontend.stop()
    ctx.exclude(time.perf_counter() - began)


async def _decay_run(ctx: Context) -> None:
    cycle = 0
    while await ctx.more(0):
        await _decay_cycle(ctx, cycle, ctx.world.store)
        cycle += 1
        ctx.units[0] += 1


# -- set-up ------------------------------------------------------------------

async def setup(name: str, seed: int, scale: Scale, inputs: Inputs,
                measure_memory: bool = False) -> World:
    """Build pool, store and front-end, preload, warm up."""
    pool = ShardPool()
    store = VideoObjectStore(
        pool=pool, keyring=Keyring(seed=seed),
        config=EncoderConfig(**ENCODER),
        replicas=DECAY_REPLICAS if name == "decay" else None)
    frontend = ServiceFrontend(store)
    await frontend.start()
    if measure_memory:
        tracemalloc.start()
    sequences = [(tenant, _sequence(clip)) for tenant, clip in inputs.corpus]
    ids = await asyncio.gather(*(frontend.ingest(tenant, sequence)
                                 for tenant, sequence in sequences))
    world = World(frontend=frontend,
                  objects=[(tenant, oid, clip) for (tenant, clip), oid
                           in zip(inputs.corpus, ids)])
    if measure_memory:
        world.resident_kb = (tracemalloc.get_traced_memory()[0]
                             / 1024.0 / len(ids))
        tracemalloc.stop()
    await _warm_up(name, seed, scale, world)
    return world


async def _warm_up(name: str, seed: int, scale: Scale,
                   world: World) -> None:
    """Let lazy set-up finish (and, for seek, let the cache fill)."""
    ctx = Context(name, seed, scale, world, 0.0, None, None)
    tag = _TAG[name]
    if name == "seek":
        plan, order, weights = _seek_plan(ctx, (_WARM,))
        frames = len(world.objects[0][2])
        for burst in range(scale.seek_warmup_bursts):
            await _seek_burst(ctx, (burst,), int(order[plan.choice(
                len(order), p=weights)]), int(plan.integers(frames)))
    else:
        frontend = world.frontend
        if name == "decay":
            frontend = ServiceFrontend(copy.deepcopy(world.store))
            await frontend.start()
        for k in range(scale.warmup_reads):
            tenant, object_id, source = world.objects[
                k % len(world.objects)]
            await _read(ctx, frontend, (k,), tenant, object_id, source,
                        _rng(seed, tag, _WARM, k))
        if frontend is not world.frontend:
            await frontend.stop()
    if ctx.bad:
        raise RuntimeError(f"warm-up output check failed: {ctx.bad[0]}")


# -- measurement ---------------------------------------------------------------

@dataclass
class Measured:
    """One measured run of a workload."""

    ops: List[Op]
    errors: List[Op]
    bad: List[str]
    #: ``(seconds, yardstick rate before, after)`` per window.
    windows: List[Tuple[float, float, float]]
    units: List[int]
    digest: str
    cache: Dict[str, int]
    stored: Dict[str, np.ndarray]
    cells: int

    @property
    def elapsed(self) -> float:
        """Seconds of window time (yardsticks and pauses excluded)."""
        return sum(took for took, _, _ in self.windows)


def digest(ops: List[Op]) -> str:
    """SHA-256 over (kind, plan key, object, outcome, rounded PSNR) of
    every op, in plan order."""
    h = hashlib.sha256()
    for op in sorted(ops, key=lambda o: (o.kind, o.key)):
        h.update(json.dumps([op.kind, list(op.key), op.object_id,
                             op.outcome,
                             None if op.psnr is None
                             else round(op.psnr, 2)]).encode())
    return h.hexdigest()


#: ``GopCache.stats()`` counters whose run deltas the ledger reports.
_CACHE_COUNTERS = ("hits", "misses", "evictions", "expirations")


def _cache_stats(store) -> Dict[str, int]:
    stats = getattr(getattr(store, "gop_cache", None), "stats", None)
    if stats is None:
        return {}
    return {k: v for k, v in stats().items() if k in _CACHE_COUNTERS}


def stored_cells(pool) -> int:
    """MLC cells of every blob on every shard, all replicas included."""
    cells = 0
    for shard in pool.shards.values():
        device = ApproximateDevice(cell_model=shard.cell_model)
        for key, blob in shard.blobs.items():
            scheme = scheme_by_name(key.rsplit("/", 1)[-1])
            cells += device.cells_used(8 * len(blob), scheme)
    return cells


async def measure(name: str, seed: int, scale: Scale, world: World,
                  inputs: Inputs, seconds: float,
                  budget: Optional[List[int]] = None,
                  recorder: Optional[ledger.Recorder] = None) -> Measured:
    """Run the workload's clients for ``seconds`` (or, with ``budget``,
    for exactly that many units per client)."""
    ctx = Context(name, seed, scale, world, seconds, budget, recorder)
    before = _cache_stats(world.store)
    ctx.open()
    if name == "decay":
        await _decay_run(ctx)
    elif name == "ingest":
        await _ingest_run(ctx, inputs)
    else:
        client = _playback_client if name == "playback" else _seek_client
        await asyncio.gather(*(client(ctx, c) for c in range(CLIENTS)))
    if ctx.running:
        ctx.close()
    after = _cache_stats(world.store)
    return Measured(
        ops=ctx.ops, errors=ctx.errors, bad=ctx.bad, windows=ctx.windows,
        units=list(ctx.units), digest=digest(ctx.ops),
        cache={k: after[k] - before.get(k, 0) for k in after},
        stored=ctx.stored, cells=stored_cells(world.store.pool))


# -- reporting -----------------------------------------------------------------

def tail(samples: List[float]) -> Tuple[float, float]:
    """``(value, percentile)`` of the highest percentile with at least
    ten samples beyond it. Below 21 samples that percentile would sit
    under the median, so the tail is then the maximum (percentile 100)."""
    ordered = sorted(samples)
    if len(ordered) < 21:
        return ordered[-1], 100.0
    index = len(ordered) - 11
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def _latency(prefix: str, samples: List[float], elapsed: float,
             out: Dict[str, float], notes: Dict[str, object]) -> None:
    out[f"{prefix}_per_s"] = len(samples) / elapsed
    out[f"{prefix}_p50_ms"] = statistics.median(samples)
    value, pct = tail(samples)
    out[f"{prefix}_tail_ms"] = value
    notes[f"{prefix}_tail_percentile"] = round(pct, 2)
    notes[f"{prefix}_samples"] = len(samples)


def end_to_end(name: str, run: Measured,
               setups: List[Tuple[float, float]], peak_mb: float
               ) -> Tuple[Dict[str, float], Dict[str, float],
                          Dict[str, object]]:
    """``(end-to-end metrics, named metrics, notes)`` of one run;
    ``setups`` holds ``(seconds, yardstick rate just before)`` each.

    Named metrics are as measured. The end-to-end times are at the
    reference host's speed: each set-up is scaled by the rate taken just
    before it, each op's latency and each window's length by the mean of
    the rates taken on either side of its window.
    """
    speeds = [(before + after) / 2.0 / REFERENCE_RATE
              for _, before, after in run.windows]
    named: Dict[str, float] = {
        "setup_s": statistics.median(took for took, _ in setups)}
    notes: Dict[str, object] = {"setups": setups, "windows": run.windows,
                                "host_speed": statistics.median(speeds)}
    for kind in ("ingest", "read", "seek"):
        samples = [op.ms for op in run.ops if op.kind == kind]
        if samples:
            _latency(kind, samples, run.elapsed, named, notes)
    refused = sum(op.outcome == "refused" for op in run.ops)
    attempted = len(run.ops) + len(run.errors)
    named["error_rate"] = (len(run.errors) + refused) / max(1, attempted)
    served = [op.psnr for op in run.ops if op.psnr is not None]
    named["psnr_db"] = float(np.mean(served)) if served else 0.0
    pixels = sum(clip.size for clip in run.stored.values())
    named["cells_per_pixel"] = run.cells / pixels if pixels else 0.0
    named["peak_rss_mb"] = peak_mb
    metrics = {"setup_s": statistics.median(
        took * rate / REFERENCE_RATE for took, rate in setups)}
    # Without ops these stay absent; the runner then fails the run
    # instead of publishing a made-up value.
    primary = [op for op in run.ops if op.kind == PRIMARY[name]]
    if primary:
        scaled = [op.ms * speeds[op.window] for op in primary]
        metrics["ops_per_s"] = len(primary) / sum(
            took * speed for (took, _, _), speed in zip(run.windows, speeds))
        metrics["op_p50_ms"] = statistics.median(scaled)
        metrics["op_tail_ms"] = tail(scaled)[0]
    for key in ("psnr_db", "cells_per_pixel", "peak_rss_mb"):
        metrics[key] = named[key]
    outcomes = {o: sum(op.outcome == o for op in run.ops)
                for o in OUTCOMES}
    notes.update(outcomes=outcomes,
                 shed=sum(op.outcome == "shed" for op in run.errors),
                 raised=sum(op.outcome == "raised" for op in run.errors),
                 elapsed_s=run.elapsed, units=run.units)
    seeks = [op for op in run.ops if op.kind == "seek"]
    if seeks:
        frames = sum(op.frames for op in seeks)
        notes["seek_cache_hit_share"] = (
            sum(op.cache_hits for op in seeks) / frames)
    return metrics, named, notes


def outside_layers(run: Measured, world: World) -> Dict[str, float]:
    """Per-layer figures read from results and the store's own
    counters, not from spans."""
    ops = max(1, len(run.ops))
    reads = [op for op in run.ops if op.kind in ("read", "seek")]
    out = {f"store.outcome.{o}": sum(op.outcome == o for op in reads)
           / max(1, len(reads)) for o in OUTCOMES}
    out["store.escalated_streams"] = (
        sum(op.escalated for op in run.ops) / ops)
    out["store.resident_kb_per_object"] = world.resident_kb
    out["frontend.shed.calls"] = (
        sum(op.outcome == "shed" for op in run.errors) / ops)
    seeks = [op for op in run.ops if op.kind == "seek"]
    total = sum(op.bytes_total for op in seeks)
    out["shards.seek_read_fraction"] = (
        sum(op.bytes_read for op in seeks) / total if total else 0.0)
    lookups = run.cache.get("hits", 0) + run.cache.get("misses", 0)
    out["cache.hit_rate"] = (run.cache.get("hits", 0) / lookups
                             if lookups else 0.0)
    out["cache.evictions"] = run.cache.get("evictions", 0) / ops
    out["cache.expirations"] = run.cache.get("expirations", 0) / ops
    return out


def resolved_config(world: World) -> Dict[str, object]:
    """The service knobs as the built objects resolved them."""
    store = world.store
    pool = store.pool
    shard = next(iter(pool.shards.values()))
    cache = getattr(store, "gop_cache", None)
    return {
        "shards": len(pool.shards),
        "replicas": getattr(store, "replicas", None),
        "read_retries": getattr(shard, "read_retries", None),
        "gop_cache_capacity": getattr(cache, "capacity", None),
        "ingest_batch": getattr(world.frontend, "ingest_batch", None),
        "queue_depth": getattr(world.frontend, "queue_depth", None),
        "retry_attempts": getattr(world.frontend, "retry_attempts", None),
        "encoder": dict(ENCODER),
    }


def sizes(name: str, scale: Scale, world: World) -> Dict[str, object]:
    """Clip geometry and corpus size against the cache capacity."""
    clip = world.objects[0][2]
    gops = sum(-(-len(c) // ENCODER["gop_size"])
               for _, _, c in world.objects)
    cache = getattr(world.store, "gop_cache", None)
    out: Dict[str, object] = {
        "clients": CLIENTS,
        "clip_geometry": {"frames": clip.shape[0], "height": clip.shape[1],
                          "width": clip.shape[2]},
        "corpus_objects": len(world.objects),
        "corpus_gops": gops,
        "gop_cache_capacity": getattr(cache, "capacity", None),
    }
    if name == "ingest":
        out["session_clips"] = SESSION_CLIPS
        out["client_geometry"] = [list(g) for g in INGEST_GEOMETRY]
    if name == "seek":
        out["zipf_exponent"] = SEEK_ZIPF
        out["scrub_frames"] = SEEK_SCRUB
    if name == "decay":
        out["ages_days"] = list(scale.decay_ages)
        out["replicas"] = DECAY_REPLICAS
    return out


# -- one invocation ----------------------------------------------------------

async def _untraced(name: str, seed: int, scale: Scale, inputs: Inputs,
                    seconds: float, setups: int):
    """Set up, measure, then set up ``setups - 1`` more times for the
    set-up time alone. Returns the measured world and run, ``(seconds,
    yardstick rate just before)`` per set-up, and the peak RSS (MB) of
    the first set-up plus run."""

    async def timed_setup():
        rate = yardstick()
        began = time.perf_counter()
        world = await setup(name, seed, scale, inputs)
        return world, (time.perf_counter() - began, rate)

    world, first = await timed_setup()
    gc.collect()
    run = await measure(name, seed, scale, world, inputs, seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    times = [first]
    for attempt in range(setups - 1):
        gc.collect()
        extra, took = await timed_setup()
        times.append(took)
        await extra.frontend.stop()
    return world, run, times, peak_mb


async def _traced(name: str, seed: int, scale: Scale, inputs: Inputs,
                  budget: List[int]):
    gc.collect()
    world = await setup(name, seed, scale, inputs, measure_memory=True)
    gc.collect()
    recorder = ledger.Recorder()
    patches, absent = ledger.install(recorder)
    try:
        run = await measure(name, seed, scale, world, inputs, 0.0,
                            budget=budget, recorder=recorder)
    finally:
        ledger.restore(patches)
    return world, run, recorder, absent


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: Scale = FULL,
                 spans_path: Optional[str] = None) -> Dict[str, object]:
    """Run one workload; returns the full report.

    Untraced: set up ``scale.setups`` times, measure for ``seconds``.
    Traced: one untraced set-up and run, then a traced set-up that
    repeats exactly the same ops, so both per-op digests must match.
    """
    inputs = make_inputs(name, seed, scale)

    async def main() -> Dict[str, object]:
        loop = asyncio.get_running_loop()
        executor = ThreadPoolExecutor(max_workers=os.cpu_count() or 1)
        loop.set_default_executor(executor)
        world, run, times, peak_mb = await _untraced(
            name, seed, scale, inputs, seconds,
            1 if trace else scale.setups)
        report: Dict[str, object] = {
            "workload": name, "seed": seed, "trace": int(trace),
            "config": resolved_config(world),
            "sizes": sizes(name, scale, world),
        }
        metrics, named, notes = end_to_end(name, run, times, peak_mb)
        report.update(metrics=metrics, named=named, notes=notes,
                      digest=run.digest)
        bad = list(run.bad)
        await world.frontend.stop()
        del world
        if trace:
            traced_world, traced, recorder, absent = await _traced(
                name, seed, scale, inputs, run.units)
            bad.extend(traced.bad)
            if traced.digest != run.digest:
                bad.append("per-op digest differs between the untraced "
                           "and traced runs")
            layers = ledger.ledger(recorder, len(traced.ops))
            layers.update(outside_layers(traced, traced_world))
            layers["trace.overhead"] = (
                traced.elapsed / run.elapsed - 1.0 if run.elapsed else 0.0)
            report.update(layers=layers, absent=absent,
                          traced_digest=traced.digest,
                          traced_elapsed_s=traced.elapsed)
            if spans_path is not None:
                ledger.write_spans(recorder, spans_path)
            await traced_world.frontend.stop()
        report["attempted"] = len(run.ops) + len(run.errors)
        report["failed"] = (len(run.errors)
                            + notes["outcomes"]["refused"])
        report["bad"] = bad
        executor.shutdown(wait=True)
        return report

    return asyncio.run(main())
