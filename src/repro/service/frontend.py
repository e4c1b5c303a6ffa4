"""Async front-end: a bounded ingest queue in front of the store.

:class:`ServiceFrontend` is the service's admission layer. Ingests do
not encode inline — they park the clip on a bounded queue and await a
future; a single worker coroutine drains the queue in batches of up to
``ingest_batch`` clips and hands each batch (grouped by tenant) to
:meth:`~repro.service.store.VideoObjectStore.put_many`, which routes
same-geometry clips through the vectorized encode kernel on the event
loop's default executor, as a repair pass does.

Reads bypass the queue and stay responsive while an encode batch is in
flight. They run on one read worker thread that the front-end starts
and stops: read work is Python that holds the interpreter lock, so a
second read thread would only add lock hand-offs. A frame read whose
display GOP is already decoded is answered on the event loop itself
(:meth:`~repro.service.store.VideoObjectStore.cached_frame`): a hit
is a few tens of microseconds of work, a fraction of what the two
thread hops to a worker and back would cost it. Every miss goes to the
read worker.

Backpressure is explicit: when the queue is full the front-end sheds
the ingest with :class:`~repro.errors.ServiceOverloadError` instead of
buffering without bound — the ``queue overflow`` failure mode in
docs/SERVICE.md. Queue depth is exported continuously as the
``service_queue_depth`` gauge.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Awaitable, Callable, List, Optional, Tuple

import numpy as np

from ..errors import ServiceError, ServiceOverloadError, \
    TransientShardError
from ..obs import metrics as obs_metrics
from ..settings import argument
from ..video.frame import VideoSequence
from .repair import RepairPassReport, run_repair_pass
from .store import FrameReadResult, ReadResult, VideoObjectStore

#: One queued ingest: (tenant, clip, future resolving to the object id).
_QueueItem = Tuple[str, VideoSequence, "asyncio.Future"]


class ServiceFrontend:
    """Bounded-queue async facade over a :class:`VideoObjectStore`."""

    def __init__(self, store: Optional[VideoObjectStore] = None,
                 queue_depth: Optional[int] = None,
                 ingest_batch: Optional[int] = None,
                 retry_attempts: Optional[int] = None,
                 backoff_ms: Optional[int] = None,
                 repair_interval_s: Optional[float] = None) -> None:
        # ``store or ...`` would discard an *empty* store (len() == 0).
        self.store = store if store is not None else VideoObjectStore()
        self.queue_depth = argument("queue_depth", queue_depth, 64, 1,
                                    ServiceError)
        self.ingest_batch = argument("ingest_batch", ingest_batch, 8, 1,
                                     ServiceError)
        self.retry_attempts = argument("retry_attempts", retry_attempts,
                                       3, 1, ServiceError)
        self.backoff_ms = argument("backoff_ms", backoff_ms, 50, 0,
                                   ServiceError)
        #: Seconds between background repair passes; ``None`` disables
        #: the daemon task (repair still runs via :meth:`repair_pass`).
        self.repair_interval_s = repair_interval_s
        self._queue: Optional[asyncio.Queue] = None
        self._worker: Optional[asyncio.Task] = None
        self._repair_daemon: Optional[asyncio.Task] = None
        #: The one thread that serves reads; exists while started.
        self._reads: Optional[ThreadPoolExecutor] = None

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> None:
        """Create the queue and launch the ingest worker, the read
        worker (and, when ``repair_interval_s`` is set, the background
        repair daemon)."""
        if self._worker is not None:
            return
        self._reads = ThreadPoolExecutor(max_workers=1,
                                         thread_name_prefix="repro-read")
        self._queue = asyncio.Queue(maxsize=self.queue_depth)
        self._worker = asyncio.create_task(self._ingest_worker())
        if self.repair_interval_s is not None:
            self._repair_daemon = asyncio.create_task(
                self._repair_loop())

    async def stop(self) -> None:
        """Drain every queued ingest, then retire the workers; the read
        worker finishes the reads already handed to it."""
        if self._worker is None:
            return
        await self._queue.join()
        for task in (self._worker, self._repair_daemon):
            if task is None:
                continue
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._reads.shutdown(wait=True)
        self._reads = None
        self._worker = None
        self._repair_daemon = None
        self._queue = None
        obs_metrics.gauge("service_queue_depth").set(0)

    # -- client surface ---------------------------------------------------

    async def ingest(self, tenant: str, video: VideoSequence) -> str:
        """Queue one clip for encoding; resolves to its object id.

        Raises :class:`ServiceOverloadError` immediately when the
        queue is full — callers retry with backoff or drop the clip.
        """
        if self._queue is None:
            raise ServiceOverloadError(
                "front-end is not started; call start() first")
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        try:
            self._queue.put_nowait((tenant, video, future))
        except asyncio.QueueFull:
            obs_metrics.counter("service_overload_total").inc()
            self.store.audit.record("overload", tenant,
                                    detail=f"queue full "
                                           f"({self.queue_depth})")
            raise ServiceOverloadError(
                f"ingest queue full ({self.queue_depth} clips); "
                f"shedding the request") from None
        obs_metrics.gauge("service_queue_depth").set(
            self._queue.qsize())
        return await future

    async def read(self, tenant: str, object_id: str,
                   reader: Optional[str] = None,
                   rng: Optional[np.random.Generator] = None
                   ) -> ReadResult:
        """Serve one whole-object read on the read worker.

        Raises :class:`ServiceOverloadError` before :meth:`start`.
        """
        return await asyncio.get_running_loop().run_in_executor(
            self._read_worker(),
            partial(self.store.get, tenant, object_id, reader=reader,
                    rng=rng))

    async def read_frame(self, tenant: str, object_id: str,
                         display: int, reader: Optional[str] = None,
                         rng: Optional[np.random.Generator] = None
                         ) -> FrameReadResult:
        """Serve one random-access frame: a GOP-cache hit on the event
        loop, a miss on the read worker.

        Either way the read passes the store's access check and is
        counted and audited once. A hit returns without suspending, as
        :meth:`asyncio.Queue.get` does when an item is ready, so a
        caller looping over hits alone should yield to the loop now and
        then. Raises :class:`ServiceOverloadError` before :meth:`start`.
        """
        reads = self._read_worker()
        hit = self.store.cached_frame(tenant, object_id, display,
                                      reader=reader)
        if hit is not None:
            return hit
        return await asyncio.get_running_loop().run_in_executor(
            reads, partial(self.store.get_frame, tenant, object_id,
                           display, reader=reader, rng=rng))

    def _read_worker(self) -> ThreadPoolExecutor:
        if self._reads is None:
            raise ServiceOverloadError(
                "front-end is not started; call start() first")
        return self._reads

    # -- retry / backoff --------------------------------------------------

    def backoff_delays(self, attempts: Optional[int] = None,
                       backoff_ms: Optional[int] = None) -> List[float]:
        """The deterministic backoff schedule, in seconds.

        ``attempts`` total tries yield ``attempts - 1`` sleeps of
        ``backoff_ms * 2^i`` milliseconds — no jitter, so a retried
        run replays bit-identically (the fleet-desynchronization role
        of jitter is meaningless in a single-process simulation).
        """
        attempts = argument("attempts", attempts, self.retry_attempts, 1,
                            ServiceError)
        base = argument("backoff_ms", backoff_ms, self.backoff_ms, 0,
                        ServiceError)
        return [base * (2 ** i) / 1000.0 for i in range(attempts - 1)]

    async def read_with_retry(
            self, tenant: str, object_id: str,
            reader: Optional[str] = None,
            rng: Optional[np.random.Generator] = None,
            sleep: Optional[Callable[[float], Awaitable]] = None
    ) -> ReadResult:
        """:meth:`read` under the bounded backoff ladder.

        Retries only :class:`TransientShardError` (every readable
        replica of a stream flaked) — a refusal is an answer, not a
        fault, and is never retried. Each retry re-reads with the same
        ``rng``, whose stream has advanced, so the chaos flake schedule
        decides whether the retry lands. ``sleep`` is injectable so
        tests drive a fake clock.
        """
        sleep = sleep if sleep is not None else asyncio.sleep
        delays = self.backoff_delays()
        for delay in delays + [None]:
            try:
                return await self.read(tenant, object_id, reader=reader,
                                       rng=rng)
            except TransientShardError:
                obs_metrics.counter("service_read_retries_total").inc()
                if delay is None:
                    obs_metrics.counter(
                        "service_read_retries_exhausted_total").inc()
                    raise
                await sleep(delay)

    # -- repair -----------------------------------------------------------

    async def repair_pass(self, limit: Optional[int] = None,
                          scan: bool = True) -> RepairPassReport:
        """Run one repair-daemon iteration off the event loop."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            None, partial(run_repair_pass, self.store, limit=limit,
                          scan=scan))

    async def _repair_loop(self) -> None:
        """The background repair daemon: one pass per interval."""
        while True:
            await asyncio.sleep(self.repair_interval_s)
            await self.repair_pass()

    # -- worker -----------------------------------------------------------

    async def _ingest_worker(self) -> None:
        """Drain the queue forever, encoding in tenant-grouped batches."""
        loop = asyncio.get_running_loop()
        while True:
            batch: List[_QueueItem] = [await self._queue.get()]
            while (len(batch) < self.ingest_batch
                   and not self._queue.empty()):
                batch.append(self._queue.get_nowait())
            obs_metrics.gauge("service_queue_depth").set(
                self._queue.qsize())
            by_tenant: dict = {}
            for item in batch:
                by_tenant.setdefault(item[0], []).append(item)
            for tenant, items in by_tenant.items():
                clips = [video for _, video, _ in items]
                try:
                    ids = await loop.run_in_executor(
                        None, self.store.put_many, tenant, clips)
                    for (_, _, future), object_id in zip(items, ids):
                        if not future.cancelled():
                            future.set_result(object_id)
                except Exception as exc:  # propagate to every waiter
                    for _, _, future in items:
                        if not future.cancelled():
                            future.set_exception(exc)
            for _ in batch:
                self._queue.task_done()
