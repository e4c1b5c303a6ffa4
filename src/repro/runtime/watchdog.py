"""Per-trial wall-clock watchdogs.

A corrupted bitstream can drive the arithmetic decoder into a
pathological (but still terminating) path that takes orders of magnitude
longer than a clean decode. Campaigns of hundreds of trials cannot
afford one such trial stalling a worker, so every trial may run under a
*deadline*: a wall-clock budget enforced in the executing process via
``signal.setitimer``/``SIGALRM``, which interrupts pure-Python work at
the next bytecode boundary and raises :class:`~repro.errors.TrialTimeout`.

Two layers of enforcement exist:

* :func:`trial_deadline` — the in-process alarm used by both the serial
  path and every pool worker; cheap, precise, and able to keep the
  worker alive (the trial fails, the worker moves on);
* the executor's parent-side budget (see ``executor.py``) — a backstop
  for *hard* hangs the alarm cannot break (native code, or a trial that
  swallows the timeout), which kills and respawns the pool.

Deadlines are opt-in: ``0`` (the default when ``REPRO_TRIAL_TIMEOUT`` is
unset) means no watchdog. SIGALRM only works in a main thread on a
POSIX platform; elsewhere :func:`trial_deadline` degrades to a no-op and
only the parent-side backstop applies.
"""

from __future__ import annotations

import signal
import threading
from contextlib import contextmanager
from typing import Iterator

from ..errors import TrialTimeout
from ..obs import metrics as obs_metrics

def alarm_capable() -> bool:
    """True when this thread can arm a ``SIGALRM`` deadline.

    Requires a POSIX itimer *and* the main thread (CPython only delivers
    signals there).
    """
    return (hasattr(signal, "SIGALRM") and hasattr(signal, "setitimer")
            and threading.current_thread() is threading.main_thread())


@contextmanager
def trial_deadline(seconds: float, what: str = "trial") -> Iterator[bool]:
    """Run the enclosed block under a wall-clock budget.

    Raises :class:`TrialTimeout` from inside the block when the budget
    expires. Yields ``True`` when a deadline is actually armed, ``False``
    when it degrades to a no-op (``seconds`` falsy, or the platform /
    thread cannot take SIGALRM). The previous handler and timer are
    always restored.
    """
    if not seconds or not alarm_capable():
        yield False
        return

    def _on_alarm(signum, frame):
        obs_metrics.counter("watchdog_expired_total").inc()
        raise TrialTimeout(
            f"{what} exceeded its {seconds:.3g}s wall-clock budget")

    obs_metrics.counter("watchdog_armed_total").inc()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield True
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def run_with_deadline(fn, seconds: float, what: str = "call"):
    """Call ``fn()`` under :func:`trial_deadline`."""
    with trial_deadline(seconds, what=what):
        return fn()
