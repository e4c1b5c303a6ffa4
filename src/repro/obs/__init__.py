"""Observability: tracing spans, a metrics registry, live progress.

A lightweight, dependency-free subsystem the rest of the library
publishes into (see docs/OBSERVABILITY.md):

* :mod:`repro.obs.trace` — span-based tracer with parent/child nesting,
  per-process buffers merged across the worker-pool boundary, JSONL and
  Chrome-trace (``chrome://tracing`` / Perfetto) export;
* :mod:`repro.obs.metrics` — counters, gauges, and histograms with
  fixed bucket boundaries so cross-process merges are exact;
* :mod:`repro.obs.progress` — a terminal progress reporter for
  campaigns (trials/s, ETA, failure counts), gated behind
  ``--progress``/``REPRO_PROGRESS``.

Everything here is observational: enabling or disabling any of it never
changes a campaign's numbers, and with tracing disabled every
instrumentation site reduces to a single module-global ``None`` check.
"""

from .metrics import (
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    gauge,
    get_registry,
    histogram,
    reset_registry,
)
from .progress import ProgressReporter, format_eta
from .trace import (
    NULL_SPAN,
    NULL_STAGE_CLOCK,
    SpanRecord,
    StageClock,
    Tracer,
    active,
    aggregate,
    disable,
    enable,
    enabled,
    span,
    spans_to_jsonl,
    stage_clock,
    to_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)

__all__ = [
    "Counter",
    "DEFAULT_TIME_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "NULL_STAGE_CLOCK",
    "ProgressReporter",
    "SpanRecord",
    "StageClock",
    "Tracer",
    "active",
    "aggregate",
    "counter",
    "disable",
    "enable",
    "enabled",
    "format_eta",
    "gauge",
    "get_registry",
    "histogram",
    "reset_registry",
    "span",
    "spans_to_jsonl",
    "stage_clock",
    "to_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
]
