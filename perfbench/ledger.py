"""Outside-in per-layer ledger: spans recorded around the library's
public functions, from the benchmark's own files.

:func:`install` patches each wrapped name where its caller looks it up
(for example ``repro.service.store.encode_batch_with_recon``, or a
class attribute such as ``Decoder.decode``) and returns the patches so
:func:`restore` can put every original back. A name that a later
revision removed or moved is recorded as absent instead of failing the
run.

Spans live on per-thread stacks and carry name, start, end, parent and
op id. ``run_in_executor`` does not carry context variables, so the op
id of a root span is recovered from the per-op ``rng`` or clip object
the benchmark passed in (registered with :meth:`Recorder.register`);
nested spans inherit it. A span's self time is its own time minus its
children's, split into busy (thread CPU) and wait (wall minus CPU:
time spent waiting on the interpreter lock or the executor).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

# Extractors receive ``(arguments, result)``: the bound call arguments
# by parameter name and the return value. A KeyError/AttributeError
# from one (a renamed parameter or field) drops that figure only.
Extract = Callable[[Dict[str, object], object], float]


def _nbytes(name: str) -> Extract:
    return lambda a, r: len(a[name])


def _stream_bytes(a, r) -> float:
    return sum(len(v) for v in a["streams"].values())


def _result_bytes(a, r) -> float:
    return len(r[0])


def _report_fields(a, r) -> Dict[str, float]:
    report = r[1]
    return {name: getattr(report, name)
            for name in ("retry_attempts", "retry_successes",
                         "failed_blocks", "flipped_bits")}


def _repair_fields(a, r) -> Dict[str, float]:
    return {"objects_repaired": r.objects_repaired,
            "streams_rewritten": r.streams_rewritten,
            "cell_writes": r.cell_writes,
            "unrepairable": r.unrepairable_streams}


@dataclass(frozen=True)
class Wrap:
    """One wrapped public name: where it is looked up, how to label it."""

    layer: str
    label: str
    module: str
    attr: str                       #: ``name`` or ``Class.name``
    kb: Optional[Extract] = None    #: bytes moved by one call
    extra: Optional[Callable[[Dict[str, object], object],
                             Dict[str, float]]] = None


WRAPS: Tuple[Wrap, ...] = (
    Wrap("store", "put_many", "repro.service.store",
         "VideoObjectStore.put_many"),
    Wrap("store", "get", "repro.service.store", "VideoObjectStore.get"),
    Wrap("store", "get_frame", "repro.service.store",
         "VideoObjectStore.get_frame"),
    Wrap("codec", "encode_batch_with_recon", "repro.service.store",
         "encode_batch_with_recon",
         extra=lambda a, r: {"clips": len(a["videos"])}),
    Wrap("codec", "decode", "repro.codec.decoder", "Decoder.decode"),
    Wrap("codec", "decode_range", "repro.codec.decoder",
         "Decoder.decode_range",
         extra=lambda a, r: {"frames": a["stop"] - a["start"]}),
    Wrap("codec", "dependency_closure", "repro.service.store",
         "dependency_closure"),
    Wrap("crypto", "encrypt_streams", "repro.crypto.streams",
         "StreamEncryptor.encrypt_streams", kb=_stream_bytes),
    Wrap("crypto", "decrypt_streams", "repro.crypto.streams",
         "StreamEncryptor.decrypt_streams", kb=_stream_bytes),
    Wrap("crypto", "decrypt_at", "repro.crypto.streams",
         "StreamEncryptor.decrypt_at", kb=_nbytes("data")),
    Wrap("core", "compute_importance", "repro.service.store",
         "compute_importance"),
    Wrap("core", "partition_video", "repro.service.store",
         "partition_video"),
    Wrap("core", "merge_streams", "repro.service.store", "merge_streams"),
    Wrap("core", "map_stream_damage", "repro.service.store",
         "map_stream_damage"),
    Wrap("core", "stream_ranges_for_frames", "repro.service.store",
         "stream_ranges_for_frames"),
    Wrap("shards", "read", "repro.service.shards", "Shard.read",
         kb=_result_bytes, extra=lambda a, r: {"key": a["key"]}),
    Wrap("shards", "read_range", "repro.service.shards", "Shard.read_range",
         kb=_result_bytes, extra=lambda a, r: {"key": a["key"]}),
    Wrap("shards", "write", "repro.service.shards", "Shard.write",
         kb=_nbytes("data")),
    Wrap("storage", "store_and_read", "repro.storage.device",
         "ApproximateDevice.store_and_read", kb=_nbytes("data"),
         extra=_report_fields),
    Wrap("cache", "get", "repro.service.cache", "GopCache.get"),
    Wrap("cache", "put", "repro.service.cache", "GopCache.put"),
    Wrap("repair", "run_repair_pass", "repro.service.frontend",
         "run_repair_pass", extra=_repair_fields),
    Wrap("metrics", "video_psnr", "repro.service.store", "video_psnr"),
)

#: Spans of one client-facing store read (whole object or one frame).
STORE_READS = ("store.get", "store.get_frame")

#: Layers in report order; ``frontend`` and ``trace`` are derived.
LAYERS = ("frontend", "store", "codec", "crypto", "core", "shards",
          "storage", "cache", "repair", "metrics")


@dataclass
class Span:
    """One finished call of a wrapped function."""

    index: int
    name: str
    op: Optional[int]
    parent: Optional[int]           #: index of the parent span
    thread: int
    start: float
    end: float
    self_wall: float
    self_cpu: float
    cpu: float                      #: inclusive thread CPU
    kb: float = 0.0
    extra: Dict[str, object] = field(default_factory=dict)


class _Open:
    __slots__ = ("index", "name", "op", "parent", "start", "cpu0",
                 "child_wall", "child_cpu")

    def __init__(self, index, name, op, parent, start, cpu0):
        self.index = index
        self.name = name
        self.op = op
        self.parent = parent
        self.start = start
        self.cpu0 = cpu0
        self.child_wall = 0.0
        self.child_cpu = 0.0


class Recorder:
    """In-memory span store shared by every wrapper of one traced run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next = 0
        #: ``id(obj) -> op id`` for the rng / clip objects of each op.
        self._ops: Dict[int, int] = {}
        #: ``id(obj) -> perf_counter`` when the client handed it over.
        self._handed: Dict[int, float] = {}
        self._keep: List[object] = []
        #: Queue wait of each clip (submit -> ``put_many`` entry), s.
        self.ingest_waits: List[float] = []
        #: Executor wait of each read call (call -> store entry), s.
        self.read_waits: List[float] = []
        self.batch_sizes: List[int] = []

    def register(self, obj: object, op: int, handed: float) -> None:
        """Tie ``obj`` (an rng or clip) to op ``op``, handed over at
        ``handed``. The recorder keeps ``obj`` alive so its id is never
        reused by another object during the run."""
        self._keep.append(obj)
        self._ops[id(obj)] = op
        self._handed[id(obj)] = handed

    def _find(self, values) -> List[object]:
        found = []
        for value in values:
            if id(value) in self._ops:
                found.append(value)
            elif isinstance(value, (list, tuple)):
                found.extend(v for v in value if id(v) in self._ops)
        return found

    def wrap(self, spec: Wrap, func: Callable) -> Callable:
        """``func`` wrapped so each call records one span."""
        recorder = self
        name = f"{spec.layer}.{spec.label}"
        signature = inspect.signature(func)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            now = time.perf_counter()
            stack = getattr(recorder._local, "stack", None)
            if stack is None:
                stack = recorder._local.stack = []
            parent = stack[-1] if stack else None
            if parent is not None:
                op = parent.op
            else:
                owners = recorder._find(list(args) + list(kwargs.values()))
                op = recorder._ops[id(owners[0])] if owners else None
                recorder._note_handover(spec, owners, now)
            with recorder._lock:
                index = recorder._next
                recorder._next += 1
            frame = _Open(index, name, op,
                          parent.index if parent else None, now,
                          time.thread_time())
            stack.append(frame)
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                stack.pop()
                cpu = time.thread_time() - frame.cpu0
                end = time.perf_counter()
                wall = end - frame.start
                if parent is not None:
                    parent.child_wall += wall
                    parent.child_cpu += cpu
                span = Span(index=frame.index, name=name, op=op,
                            parent=frame.parent,
                            thread=threading.get_ident(),
                            start=frame.start, end=end,
                            self_wall=wall - frame.child_wall,
                            self_cpu=cpu - frame.child_cpu, cpu=cpu)
                if spec.kb is not None or spec.extra is not None:
                    recorder._measure(spec, signature, span, args, kwargs,
                                      result)
                recorder.spans.append(span)

        traced.perfbench_span = name
        return traced

    def _note_handover(self, spec: Wrap, owners, now: float) -> None:
        """Front-end waits, seen where the handed-over objects arrive."""
        if spec.label == "put_many":
            self.batch_sizes.append(len(owners))
            self.ingest_waits.extend(now - self._handed[id(o)]
                                     for o in owners)
        elif spec.label in ("get", "get_frame") and owners:
            self.read_waits.append(now - self._handed[id(owners[0])])

    @staticmethod
    def _measure(spec, signature, span, args, kwargs, result) -> None:
        try:
            arguments = signature.bind(*args, **kwargs).arguments
        except TypeError:
            return
        try:
            if spec.kb is not None:
                span.kb = spec.kb(arguments, result) / 1024.0
            if spec.extra is not None:
                span.extra = spec.extra(arguments, result)
        except (KeyError, AttributeError, TypeError, IndexError):
            span.extra = {"unmeasured": True}


@dataclass
class Patch:
    """One installed wrapper and what it replaced."""

    spec: Wrap
    owner: object
    attr: str
    original: object


def _resolve(spec: Wrap):
    """``(owner, attr, raw attribute)`` for ``spec``, or ``None``."""
    try:
        owner = importlib.import_module(spec.module)
    except ImportError:
        return None
    *path, attr = spec.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    raw = (owner.__dict__.get(attr) if isinstance(owner, type)
           else getattr(owner, attr, None))
    if not inspect.isfunction(raw):
        return None
    return owner, attr, raw


def install(recorder: Recorder,
            wraps: Tuple[Wrap, ...] = WRAPS) -> Tuple[List[Patch], List[str]]:
    """Patch every resolvable name; returns ``(patches, absent)``.

    Only public names are wrapped: a private helper is free to change
    shape between revisions, so the ledger never depends on one.
    """
    private = [f"{w.module}.{w.attr}" for w in wraps
               if any(part.startswith("_") for part in w.attr.split("."))]
    if private:
        raise ValueError(f"refusing to wrap private names: {private}")
    patches: List[Patch] = []
    absent: List[str] = []
    for spec in wraps:
        found = _resolve(spec)
        if found is None:
            absent.append(f"{spec.module}.{spec.attr}")
            continue
        owner, attr, raw = found
        setattr(owner, attr, recorder.wrap(spec, raw))
        patches.append(Patch(spec, owner, attr, raw))
    return patches, absent


def restore(patches: List[Patch]) -> None:
    """Put every patched name back, last patch first."""
    for patch in reversed(patches):
        setattr(patch.owner, patch.attr, patch.original)


def patched_names(wraps: Tuple[Wrap, ...] = WRAPS) -> List[str]:
    """Wrapped names whose current value is not the library's own."""
    left = []
    for spec in wraps:
        found = _resolve(spec)
        if found is not None and hasattr(found[2], "perfbench_span"):
            left.append(f"{spec.module}.{spec.attr}")
    return left


def ledger(recorder: Recorder, completed_ops: int) -> Dict[str, float]:
    """Per-layer metrics of one traced run.

    Per-function ``calls``, ``busy_ms``, ``wait_ms`` and ``kb`` are
    totals divided by ``completed_ops``; so are the layer roll-ups and
    the repair counters. Ratios and per-event means are stated as such.
    """
    per_op = 1.0 / max(1, completed_ops)
    out: Dict[str, float] = {}
    totals: Dict[str, List[float]] = {}
    kb_layers = set()
    for spec in WRAPS:
        totals[f"{spec.layer}.{spec.label}"] = [0, 0.0, 0.0, 0.0]
        if spec.kb is not None:
            kb_layers.add(f"{spec.layer}.{spec.label}")
    sums: Dict[str, float] = {}
    # Shard reads of one stream within one store read are the replicas
    # that read walked. Grouping by op instead would count a seek
    # burst's second GOP of the same stream as an escalation.
    names = {span.index: span.name for span in recorder.spans}
    reads_per_stream: Dict[Tuple[int, str], int] = {}
    root_cpu = inner_cpu = 0.0
    for span in recorder.spans:
        row = totals[span.name]
        row[0] += 1
        row[1] += span.self_cpu
        row[2] += max(0.0, span.self_wall - span.self_cpu)
        row[3] += span.kb
        for key, value in span.extra.items():
            if isinstance(value, (int, float)):
                sums[f"{span.name}.{key}"] = (
                    sums.get(f"{span.name}.{key}", 0.0) + float(value))
        if span.name in ("shards.read", "shards.read_range") \
                and "key" in span.extra \
                and names.get(span.parent) in STORE_READS:
            pair = (span.parent, span.extra["key"])
            reads_per_stream[pair] = reads_per_stream.get(pair, 0) + 1
        if span.parent is None:
            root_cpu += span.cpu
        if not span.name.startswith("store."):
            inner_cpu += span.self_cpu
    layer_busy: Dict[str, float] = {}
    layer_wait: Dict[str, float] = {}
    for name, (calls, busy, wait, kb) in totals.items():
        layer = name.split(".", 1)[0]
        out[f"{name}.calls"] = calls * per_op
        out[f"{name}.busy_ms"] = 1e3 * busy * per_op
        out[f"{name}.wait_ms"] = 1e3 * wait * per_op
        if name in kb_layers:
            out[f"{name}.kb"] = kb * per_op
        layer_busy[layer] = layer_busy.get(layer, 0.0) + busy
        layer_wait[layer] = layer_wait.get(layer, 0.0) + wait
    for layer in LAYERS:
        if layer == "frontend":
            continue
        out[f"{layer}.busy_ms"] = 1e3 * layer_busy.get(layer, 0.0) * per_op
        out[f"{layer}.wait_ms"] = 1e3 * layer_wait.get(layer, 0.0) * per_op

    def mean(values) -> float:
        return float(sum(values) / len(values)) if values else 0.0

    encodes = totals["codec.encode_batch_with_recon"][0]
    out["codec.encode_batch_with_recon.clips_per_call"] = (
        sums.get("codec.encode_batch_with_recon.clips", 0.0)
        / max(1, encodes))
    decodes = totals["codec.decode_range"][0]
    out["codec.decode_range.frames"] = (
        sums.get("codec.decode_range.frames", 0.0) / max(1, decodes))
    for key in ("retry_attempts", "retry_successes", "failed_blocks",
                "flipped_bits"):
        out[f"storage.{key}"] = sums.get(
            f"storage.store_and_read.{key}", 0.0) * per_op
    for key in ("objects_repaired", "streams_rewritten", "cell_writes",
                "unrepairable"):
        out[f"repair.{key}"] = sums.get(
            f"repair.run_repair_pass.{key}", 0.0) * per_op
    out["shards.replica_reads_per_stream"] = (
        sum(reads_per_stream.values()) / len(reads_per_stream)
        if reads_per_stream else 0.0)
    out["frontend.ingest.wait_ms"] = 1e3 * mean(recorder.ingest_waits)
    out["frontend.ingest.batch_clips"] = mean(recorder.batch_sizes)
    out["frontend.read.wait_ms"] = 1e3 * mean(recorder.read_waits)
    out["frontend.wait_ms"] = 1e3 * (sum(recorder.ingest_waits)
                                     + sum(recorder.read_waits)) * per_op
    out["trace.coverage"] = inner_cpu / root_cpu if root_cpu else 0.0
    return out


def write_spans(recorder: Recorder, path) -> None:
    """Dump every span as one JSON line (the raw trace behind the
    ledger)."""
    with open(path, "w") as handle:
        for span in recorder.spans:
            handle.write(json.dumps({
                "index": span.index, "name": span.name, "op": span.op,
                "parent": span.parent,
                "thread": span.thread, "start": round(span.start, 7),
                "end": round(span.end, 7),
                "self_wall": round(span.self_wall, 7),
                "self_cpu": round(span.self_cpu, 7),
                "kb": round(span.kb, 3),
                "extra": {k: v for k, v in span.extra.items()
                          if isinstance(v, (int, float, str, bool))},
            }) + "\n")
