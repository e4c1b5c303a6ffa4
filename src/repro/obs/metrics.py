"""Metrics registry: counters, gauges, and exactly-mergeable histograms.

Where spans (:mod:`repro.obs.trace`) answer "where did the time go",
metrics answer "how much happened": trials run, watchdogs expired,
journal records written, fuzz contract violations. The runtime layers
(:class:`~repro.runtime.trials.RunStats` publication, the journal, the
watchdog, the fuzz harness) publish into one process-wide registry.

Three instrument kinds:

* :class:`Counter` — monotonically increasing count; merges by sum.
* :class:`Gauge` — last-written value; merges last-writer-wins.
* :class:`Histogram` — observation counts in **fixed** bucket
  boundaries plus an exact total count and a sum. Because boundaries
  are fixed at creation and never rebalanced, merging two histograms is
  *exact*: bucket counts add integer-wise, so a campaign's merged
  worker histograms equal the histogram a single process would have
  recorded (bucket-for-bucket; only the float ``sum`` is subject to
  addition order).

Worker processes :meth:`MetricsRegistry.drain` their registry into a
picklable snapshot that crosses the executor's trial-result channel and
is :meth:`MetricsRegistry.merge`-d by the parent — mirroring the span
pipeline, with the same guarantee that none of it perturbs results.
"""

from __future__ import annotations

from bisect import bisect_left
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import AnalysisError

#: Default histogram boundaries for durations in seconds: log-ish spacing
#: from 1 ms to 1 min, the range a trial stage plausibly occupies.
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise AnalysisError(
                f"counter {self.name!r} cannot decrease (inc {amount})")
        self.value += amount


class Gauge:
    """A point-in-time value; the last write wins (merges included)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = float(value)


class Histogram:
    """Observation counts over fixed bucket boundaries.

    ``boundaries`` are upper bounds: an observation lands in the first
    bucket whose boundary is >= the value; values above the last
    boundary land in the implicit overflow bucket. ``counts`` therefore
    has ``len(boundaries) + 1`` entries.
    """

    __slots__ = ("name", "boundaries", "counts", "count", "sum")

    def __init__(self, name: str,
                 boundaries: Sequence[float] = DEFAULT_TIME_BUCKETS) -> None:
        ordered = tuple(float(b) for b in boundaries)
        if not ordered:
            raise AnalysisError(f"histogram {name!r} needs >= 1 boundary")
        if list(ordered) != sorted(set(ordered)):
            raise AnalysisError(
                f"histogram {name!r} boundaries must be strictly "
                f"increasing, got {ordered}")
        self.name = name
        self.boundaries = ordered
        self.counts: List[int] = [0] * (len(ordered) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.counts[bisect_left(self.boundaries, value)] += 1
        self.count += 1
        self.sum += value

    @property
    def mean(self) -> float:
        """Mean of all observations (0.0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    def merge(self, boundaries: Sequence[float], counts: Sequence[int],
              count: int, total: float) -> None:
        """Fold another histogram's state in; boundaries must match
        exactly (that is what makes the merge exact)."""
        if tuple(float(b) for b in boundaries) != self.boundaries:
            raise AnalysisError(
                f"histogram {self.name!r}: cannot merge boundaries "
                f"{tuple(boundaries)} into {self.boundaries}")
        if len(counts) != len(self.counts):
            raise AnalysisError(
                f"histogram {self.name!r}: bucket count mismatch")
        for index, bucket in enumerate(counts):
            self.counts[index] += int(bucket)
        self.count += int(count)
        self.sum += float(total)


class MetricsRegistry:
    """Get-or-create registry of named instruments for one process."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- instruments ------------------------------------------------------

    def counter(self, name: str) -> Counter:
        """The counter called ``name``, created on first use."""
        instrument = self._counters.get(name)
        if instrument is None:
            self._check_free(name)
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name``, created on first use."""
        instrument = self._gauges.get(name)
        if instrument is None:
            self._check_free(name)
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str,
                  boundaries: Sequence[float] = DEFAULT_TIME_BUCKETS
                  ) -> Histogram:
        """The histogram called ``name``, created on first use.

        Re-requesting an existing histogram with different boundaries
        is an error — fixed boundaries are the exact-merge contract.
        """
        instrument = self._histograms.get(name)
        if instrument is None:
            self._check_free(name)
            instrument = self._histograms[name] = Histogram(name, boundaries)
        elif instrument.boundaries != tuple(float(b) for b in boundaries):
            raise AnalysisError(
                f"histogram {name!r} already exists with boundaries "
                f"{instrument.boundaries}")
        return instrument

    def _check_free(self, name: str) -> None:
        if (name in self._counters or name in self._gauges
                or name in self._histograms):
            raise AnalysisError(
                f"metric name {name!r} already used by another "
                f"instrument kind")

    # -- snapshots --------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """A picklable, JSON-friendly copy of every instrument."""
        return {
            "counters": {n: c.value for n, c in self._counters.items()},
            "gauges": {n: g.value for n, g in self._gauges.items()},
            "histograms": {
                n: {"boundaries": list(h.boundaries),
                    "counts": list(h.counts),
                    "count": h.count,
                    "sum": h.sum}
                for n, h in self._histograms.items()
            },
        }

    def drain(self) -> Dict[str, Any]:
        """Snapshot then reset — the worker side of the merge channel."""
        snap = self.snapshot()
        self.reset()
        return snap

    def merge(self, snapshot: Dict[str, Any]) -> None:
        """Fold a :meth:`snapshot`/:meth:`drain` payload into this
        registry (counters add, gauges last-write-wins, histograms
        merge exactly)."""
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(int(value))
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, state in snapshot.get("histograms", {}).items():
            self.histogram(name, state["boundaries"]).merge(
                state["boundaries"], state["counts"], state["count"],
                state["sum"])

    def reset(self) -> None:
        """Drop every instrument (used after a drain, and by tests)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()


_registry: Optional[MetricsRegistry] = None


def get_registry() -> MetricsRegistry:
    """The process-wide registry, created on first use."""
    global _registry
    if _registry is None:
        _registry = MetricsRegistry()
    return _registry


def counter(name: str) -> Counter:
    """Module-level shorthand for ``get_registry().counter(name)``."""
    return get_registry().counter(name)


def gauge(name: str) -> Gauge:
    """Module-level shorthand for ``get_registry().gauge(name)``."""
    return get_registry().gauge(name)


def histogram(name: str,
              boundaries: Sequence[float] = DEFAULT_TIME_BUCKETS
              ) -> Histogram:
    """Module-level shorthand for ``get_registry().histogram(...)``."""
    return get_registry().histogram(name, boundaries)


@contextmanager
def counter_deltas(*names: str) -> Iterator[Dict[str, int]]:
    """Yield a dict that, once the block exits (raising or not), maps
    each named counter to how far the block moved it (0 if untouched)."""
    before = get_registry().snapshot()["counters"]
    deltas: Dict[str, int] = {}
    try:
        yield deltas
    finally:
        after = get_registry().snapshot()["counters"]
        deltas.update((name, int(after.get(name, 0))
                       - int(before.get(name, 0))) for name in names)


def reset_registry() -> None:
    """Reset the process-wide registry (forked workers, tests)."""
    if _registry is not None:
        _registry.reset()
