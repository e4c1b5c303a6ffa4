"""Append-only audit log for the serving layer.

Every externally visible action of the store — an ingest accepted, an
object placed, a read served (and *how*: clean, corrected, concealed,
refused), an access denial, a shard quarantine — lands here as one
:class:`AuditEvent`. The log is deliberately **wall-clock free**:
events carry a monotonic sequence number instead of a timestamp, so
two replays of the same seeded loadgen plan produce byte-identical
audit trails and the run digest can cover them.

The log is in-memory and bounded only by the run; operators export it
with :meth:`AuditLog.to_jsonl` (the ``audit`` command of ``repro
serve`` prints exactly that).
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from typing import Iterator, List, Optional

from ..obs import metrics as obs_metrics


@dataclass(frozen=True)
class AuditEvent:
    """One audited action.

    ``detail`` is a short human-readable clause (outcome, shard id,
    denial reason) — structured enough to grep, loose enough to stay
    one line.
    """

    seq: int
    kind: str
    tenant: str
    object_id: str
    detail: str = ""

    def to_json(self) -> str:
        """The event as one compact JSON line."""
        return json.dumps(
            {"seq": self.seq, "kind": self.kind, "tenant": self.tenant,
             "object_id": self.object_id, "detail": self.detail},
            sort_keys=True)


class AuditLog:
    """An append-only, replay-stable event trail.

    Reads record from the front-end's event loop and its read worker
    at once, so a lock makes each event's ``seq`` its place in the
    trail. The lock stays out of pickles and deep copies.
    """

    def __init__(self) -> None:
        self._events: List[AuditEvent] = []
        self._lock = threading.Lock()

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def record(self, kind: str, tenant: str, object_id: str = "",
               detail: str = "") -> AuditEvent:
        """Append one event and bump the matching audit counter."""
        with self._lock:
            event = AuditEvent(seq=len(self._events), kind=kind,
                               tenant=tenant, object_id=object_id,
                               detail=detail)
            self._events.append(event)
        obs_metrics.counter("service_audit_events_total").inc()
        return event

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[AuditEvent]:
        return iter(self._events)

    def events(self, kind: Optional[str] = None) -> List[AuditEvent]:
        """All events, optionally filtered by ``kind``."""
        if kind is None:
            return list(self._events)
        return [e for e in self._events if e.kind == kind]

    def to_jsonl(self) -> str:
        """The full trail as JSON lines (trailing newline included)."""
        if not self._events:
            return ""
        return "\n".join(e.to_json() for e in self._events) + "\n"
