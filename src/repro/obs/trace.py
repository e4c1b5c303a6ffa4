"""Span-based tracing for campaigns and the codec pipeline.

A *span* is one timed region of work — ``encode``, ``decode.frame``,
``inject``, ``bch.decode`` — with a name, a monotonic start/duration,
an owning process id, and a parent, forming a tree::

    with trace.span("trial", kind="sweep", index=3):
        with trace.span("inject"):
            ...
        with trace.span("decode"):
            ...

Design constraints (see docs/OBSERVABILITY.md):

* **Zero cost when disabled.** Tracing is off by default; every
  instrumentation site calls :func:`span`, which returns a shared no-op
  context manager after a single module-global ``None`` check. No
  objects are allocated, no clocks are read.
* **Observational only.** Spans record wall-clock facts about a run;
  they are never folded into seeds, digests, or results, so a traced
  campaign is bitwise identical to an untraced one.
* **Fork-friendly.** ``time.perf_counter`` is ``CLOCK_MONOTONIC`` on
  the POSIX platforms where the executor forks workers, so timestamps
  from parent and children share one clock. Worker-side buffers are
  drained and shipped back over the existing trial-result channel (see
  :mod:`repro.runtime.executor`) and merged with :meth:`Tracer.absorb`;
  per-span ``pid`` keeps the processes apart in the merged view.
* **Single-threaded spans.** The span stack is per-process, not
  per-thread: trials, the encoder, and the decoder all run on one
  thread. (Metrics, by contrast, are safe to publish from anywhere.)

Two export formats:

* :func:`write_jsonl` — one JSON object per span, the raw record;
* :func:`to_chrome_trace` / :func:`write_chrome_trace` — the Chrome
  trace-event format, loadable in ``chrome://tracing`` or Perfetto
  (https://ui.perfetto.dev), with one track per process.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Union

@dataclass
class SpanRecord:
    """One finished span. Picklable: records cross the worker channel."""

    name: str                     #: stage name, dot-separated namespace
    start: float                  #: ``time.perf_counter()`` at entry
    duration: float               #: seconds, >= 0
    span_id: int                  #: unique within ``pid``
    parent_id: Optional[int]      #: enclosing span's id (None = root)
    pid: int                      #: process that recorded the span
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def end(self) -> float:
        """``start + duration`` (perf-counter seconds)."""
        return self.start + self.duration


class _ActiveSpan:
    """A span currently on the stack; mutable until it closes."""

    __slots__ = ("name", "start", "span_id", "parent_id", "attrs",
                 "synth_cursor")

    def __init__(self, name: str, start: float, span_id: int,
                 parent_id: Optional[int], attrs: Dict[str, Any]) -> None:
        self.name = name
        self.start = start
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs = attrs
        #: Placement cursor for synthetic :meth:`Tracer.aggregate`
        #: children, seconds past ``start``.
        self.synth_cursor = 0.0


class _SpanContext:
    """Context manager produced by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_name", "_attrs", "_active")

    def __init__(self, tracer: "Tracer", name: str,
                 attrs: Dict[str, Any]) -> None:
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self._active: Optional[_ActiveSpan] = None

    def __enter__(self) -> _ActiveSpan:
        self._active = self._tracer._push(self._name, self._attrs)
        return self._active

    def __exit__(self, *exc_info) -> bool:
        self._tracer._pop(self._active)
        return False


class _NullSpan:
    """Shared no-op context manager: the disabled-tracer fast path."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> bool:
        return False


#: The one instance every disabled :func:`span` call returns.
NULL_SPAN = _NullSpan()


class Tracer:
    """Collects spans for one process into an in-memory buffer.

    Use the module-level :func:`enable`/:func:`span` API rather than
    instantiating directly; a ``Tracer`` is per-process state.
    """

    def __init__(self) -> None:
        self.records: List[SpanRecord] = []
        self._stack: List[_ActiveSpan] = []
        self._next_id = 0
        self._pid = os.getpid()

    # -- recording --------------------------------------------------------

    def span(self, name: str, **attrs: Any) -> _SpanContext:
        """A context manager timing one region as a child of the
        current span."""
        return _SpanContext(self, name, attrs)

    def _push(self, name: str, attrs: Dict[str, Any]) -> _ActiveSpan:
        parent_id = self._stack[-1].span_id if self._stack else None
        active = _ActiveSpan(name, time.perf_counter(), self._next_id,
                             parent_id, attrs)
        self._next_id += 1
        self._stack.append(active)
        return active

    def _pop(self, active: Optional[_ActiveSpan]) -> None:
        end = time.perf_counter()
        # Tolerate a corrupted stack (a span leaked across an exception
        # boundary) by popping down to the span being closed.
        while self._stack:
            top = self._stack.pop()
            self.records.append(SpanRecord(
                name=top.name, start=top.start,
                duration=max(0.0, end - top.start), span_id=top.span_id,
                parent_id=top.parent_id, pid=self._pid, attrs=top.attrs))
            if top is active:
                break

    def aggregate(self, name: str, seconds: float, count: int = 1,
                  **attrs: Any) -> None:
        """Record an *aggregate* span: summed time of many tiny regions.

        Per-macroblock stages (intra search, transform, entropy coding)
        are far too hot for one span each; instead callers accumulate
        their seconds with ``perf_counter`` and emit one synthetic child
        span per stage per frame. Aggregates are placed sequentially
        from the parent's start (they represent summed, interleaved
        time, not a contiguous interval) and carry
        ``attrs["aggregate"] = True`` plus the sample ``count``.
        """
        parent = self._stack[-1] if self._stack else None
        start = (parent.start + parent.synth_cursor if parent is not None
                 else time.perf_counter() - seconds)
        if parent is not None:
            parent.synth_cursor += seconds
        merged = {"aggregate": True, "count": count}
        merged.update(attrs)
        self.records.append(SpanRecord(
            name=name, start=start, duration=max(0.0, seconds),
            span_id=self._next_id,
            parent_id=parent.span_id if parent is not None else None,
            pid=self._pid, attrs=merged))
        self._next_id += 1

    # -- buffers ----------------------------------------------------------

    def drain(self) -> List[SpanRecord]:
        """Return and clear the buffered spans (open spans stay open)."""
        records, self.records = self.records, []
        return records

    def absorb(self, records: Iterable[SpanRecord]) -> None:
        """Merge spans drained from another process into this buffer."""
        self.records.extend(records)

    def reset_after_fork(self) -> None:
        """Called in a freshly forked worker: drop state copied from the
        parent (its buffered spans and open stack) and re-pin the pid."""
        self.records = []
        self._stack = []
        self._pid = os.getpid()


class StageClock:
    """Accumulates seconds per stage name for too-hot-to-span regions.

    The encoder runs four stages per macroblock; a span per stage per
    macroblock would dwarf the work being measured. Instead the caller
    times each region with :meth:`time` (a cheap context manager that
    only exists while tracing is on), and :meth:`emit` turns the
    accumulated totals into one :func:`aggregate` span per stage::

        stages = StageClock() if trace.enabled() else None
        for macroblock in frame:
            with stages.time("encode.transform"):
                ...
        if stages is not None:
            stages.emit()
    """

    __slots__ = ("totals", "counts")

    def __init__(self) -> None:
        self.totals: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}

    def time(self, name: str) -> "_StageTimer":
        """Context manager adding the region's seconds to ``name``."""
        return _StageTimer(self, name)

    def add(self, name: str, seconds: float, count: int = 1) -> None:
        """Accumulate ``seconds`` (and ``count`` samples) for ``name``."""
        self.totals[name] = self.totals.get(name, 0.0) + seconds
        self.counts[name] = self.counts.get(name, 0) + count

    def emit(self, **attrs: Any) -> None:
        """Emit one aggregate span per accumulated stage, then reset."""
        for name, seconds in self.totals.items():
            aggregate(name, seconds, count=self.counts[name], **attrs)
        self.totals.clear()
        self.counts.clear()


class _NullStageClock:
    """No-op stand-in for :class:`StageClock` when tracing is off."""

    __slots__ = ()

    def time(self, name: str) -> _NullSpan:
        """Return the shared no-op context manager."""
        return NULL_SPAN

    def add(self, name: str, seconds: float, count: int = 1) -> None:
        """Discard the sample."""

    def emit(self, **attrs: Any) -> None:
        """Nothing accumulated, nothing to emit."""


#: The one instance every disabled :func:`stage_clock` call returns.
NULL_STAGE_CLOCK = _NullStageClock()


def stage_clock() -> Union[StageClock, _NullStageClock]:
    """A fresh :class:`StageClock` when tracing is enabled, the shared
    no-op clock otherwise — callers never need an ``enabled()`` branch."""
    return StageClock() if _tracer is not None else NULL_STAGE_CLOCK


class _StageTimer:
    """The context manager :meth:`StageClock.time` hands out."""

    __slots__ = ("_clock", "_name", "_start")

    def __init__(self, clock: StageClock, name: str) -> None:
        self._clock = clock
        self._name = name
        self._start = 0.0

    def __enter__(self) -> None:
        self._start = time.perf_counter()
        return None

    def __exit__(self, *exc_info) -> bool:
        self._clock.add(self._name, time.perf_counter() - self._start)
        return False


_tracer: Optional[Tracer] = None


def enable() -> Tracer:
    """Turn tracing on for this process; idempotent."""
    global _tracer
    if _tracer is None:
        _tracer = Tracer()
    return _tracer


def disable() -> None:
    """Turn tracing off and discard the tracer (buffer included)."""
    global _tracer
    _tracer = None


def enabled() -> bool:
    """True when a tracer is installed in this process."""
    return _tracer is not None


def active() -> Optional[Tracer]:
    """The installed tracer, or None when tracing is disabled."""
    return _tracer


def span(name: str, **attrs: Any) -> Union[_SpanContext, _NullSpan]:
    """Module-level instrumentation point: time a region when tracing
    is enabled, do nothing (one ``None`` check) when it is not.

    The context manager yields the active span (mutate ``.attrs`` to
    attach facts learned inside the region) or ``None`` when disabled.
    """
    tracer = _tracer
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, **attrs)


def aggregate(name: str, seconds: float, count: int = 1,
              **attrs: Any) -> None:
    """Module-level :meth:`Tracer.aggregate`; no-op when disabled."""
    tracer = _tracer
    if tracer is not None:
        tracer.aggregate(name, seconds, count, **attrs)


# -- export ---------------------------------------------------------------


def spans_to_jsonl(records: Iterable[SpanRecord]) -> str:
    """Render spans as JSONL, one object per line."""
    lines = []
    for record in records:
        lines.append(json.dumps({
            "name": record.name,
            "start": record.start,
            "duration": record.duration,
            "span_id": record.span_id,
            "parent_id": record.parent_id,
            "pid": record.pid,
            "attrs": record.attrs,
        }, sort_keys=True, default=str))
    return "\n".join(lines) + ("\n" if lines else "")


def write_jsonl(path: Union[str, Path],
                records: Iterable[SpanRecord]) -> None:
    """Write spans as JSONL to ``path``."""
    Path(path).write_text(spans_to_jsonl(records), encoding="utf-8")


def to_chrome_trace(records: Iterable[SpanRecord],
                    process_name: str = "repro") -> Dict[str, Any]:
    """Convert spans to the Chrome trace-event format.

    Each span becomes one complete (``ph: "X"``) event with microsecond
    timestamps; each recording process gets its own named track. The
    result loads in ``chrome://tracing`` and Perfetto.
    """
    records = list(records)
    events: List[Dict[str, Any]] = []
    for pid in sorted({r.pid for r in records}):
        events.append({
            "ph": "M", "pid": pid, "tid": 0,
            "name": "process_name",
            "args": {"name": f"{process_name} pid {pid}"},
        })
    for record in records:
        args = {key: _jsonable(value)
                for key, value in record.attrs.items()}
        args["span_id"] = record.span_id
        if record.parent_id is not None:
            args["parent_id"] = record.parent_id
        events.append({
            "ph": "X",
            "name": record.name,
            "pid": record.pid,
            "tid": 0,
            "ts": record.start * 1e6,
            "dur": record.duration * 1e6,
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: Union[str, Path],
                       records: Iterable[SpanRecord],
                       process_name: str = "repro") -> None:
    """Write spans as a Chrome-trace JSON file to ``path``."""
    payload = to_chrome_trace(records, process_name=process_name)
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)
