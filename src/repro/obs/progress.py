"""Terminal progress reporting for long campaigns.

A thousand-trial Monte Carlo campaign can run for minutes with nothing
on the terminal; :class:`ProgressReporter` renders a single
carriage-return-refreshed status line while it runs::

    sweep:  37/48 trials (77%)  12.3 trials/s  eta 0:01  \
[rate 1e-05] [2 failed, 1 retried]

and a final summary line when the campaign finishes. The executor feeds
it (see :meth:`~repro.runtime.executor.TrialExecutor.run_with_stats`);
nothing here touches randomness or results.

Progress is opt-in, gated by ``--progress`` on the CLI or the
``REPRO_PROGRESS`` environment variable (any value except ``0``,
``false``, ``no``, ``off`` or empty enables it). Rendering is throttled to
``min_interval`` seconds except for fault events (failures, retries,
pool restarts), which always repaint so degradation is visible the
moment it happens.
"""

from __future__ import annotations

import sys
import time
from typing import IO, Optional

from ..errors import AnalysisError


def format_eta(seconds: float) -> str:
    """``m:ss`` (or ``h:mm:ss``) rendering of a non-negative ETA."""
    seconds = max(0, int(seconds))
    hours, remainder = divmod(seconds, 3600)
    minutes, secs = divmod(remainder, 60)
    if hours:
        return f"{hours}:{minutes:02d}:{secs:02d}"
    return f"{minutes}:{secs:02d}"


class ProgressReporter:
    """Renders campaign progress as one refreshing terminal line.

    Args:
        total: number of trials the campaign will run.
        stream: where to render (default ``sys.stderr``; tests pass a
            ``StringIO``).
        label: prefix for the line, e.g. the campaign kind.
        min_interval: minimum seconds between repaints (fault events
            bypass the throttle).
    """

    def __init__(self, total: int, stream: Optional[IO[str]] = None,
                 label: str = "campaign",
                 min_interval: float = 0.1) -> None:
        if total < 0:
            raise AnalysisError(f"total must be >= 0, got {total}")
        self.total = total
        self.stream = stream if stream is not None else sys.stderr
        self.label = label
        self.min_interval = min_interval
        self.completed = 0
        self.failed = 0
        self.retried = 0
        self.resumed = 0
        self.pool_restarts = 0
        self.current = ""       #: label of the latest finished work item
        self._started = time.perf_counter()
        self._last_render = 0.0
        self._line_width = 0
        self._finished = False

    # -- event feed -------------------------------------------------------

    def begin(self, resumed: int = 0) -> None:
        """Start the clock; ``resumed`` trials were restored from a
        journal and count as already completed."""
        self.resumed = resumed
        self.completed = resumed
        self._started = time.perf_counter()
        self.render(force=True)

    def trial_finished(self, ok: bool, label: str = "") -> None:
        """One trial reached a final outcome (result or quarantine)."""
        self.completed += 1
        if label:
            self.current = label
        if not ok:
            self.failed += 1
        self.render(force=not ok)

    def note_retry(self, count: int = 1) -> None:
        """Chunks were resubmitted after a crash or hang."""
        self.retried += count
        self.render(force=True)

    def note_pool_restart(self) -> None:
        """The worker pool died and was respawned."""
        self.pool_restarts += 1
        self.render(force=True)

    # -- rendering --------------------------------------------------------

    def render(self, force: bool = False) -> None:
        """Repaint the status line (throttled unless ``force``)."""
        if self._finished:
            return
        now = time.perf_counter()
        if not force and now - self._last_render < self.min_interval:
            return
        self._last_render = now
        self._paint(self._compose(now))

    def finish(self, stats=None) -> None:
        """Clear the live line and print one final summary line."""
        if self._finished:
            return
        self._finished = True
        now = time.perf_counter()
        summary = self._compose(now, final=True)
        self._paint(summary)
        self.stream.write("\n")
        self.stream.flush()

    def _compose(self, now: float, final: bool = False) -> str:
        elapsed = max(now - self._started, 1e-9)
        fresh = self.completed - self.resumed  # actually executed
        rate = fresh / elapsed
        parts = [f"{self.label}: {self.completed}/{self.total} trials"]
        if self.total:
            parts.append(f"({100 * self.completed // self.total}%)")
        parts.append(f"{rate:.1f} trials/s")
        if final:
            parts.append(f"in {elapsed:.1f}s")
        elif rate > 0 and self.total > self.completed:
            remaining = (self.total - self.completed) / rate
            parts.append(f"eta {format_eta(remaining)}")
        if self.current and not final:
            parts.append(f"[{self.current}]")
        faults = []
        if self.resumed:
            faults.append(f"{self.resumed} resumed")
        if self.failed:
            faults.append(f"{self.failed} failed")
        if self.retried:
            faults.append(f"{self.retried} retried")
        if self.pool_restarts:
            faults.append(f"{self.pool_restarts} pool restarts")
        if faults:
            parts.append("[" + ", ".join(faults) + "]")
        return "  ".join(parts)

    def _paint(self, line: str) -> None:
        pad = max(0, self._line_width - len(line))
        self._line_width = len(line)
        self.stream.write("\r" + line + " " * pad)
        self.stream.flush()
