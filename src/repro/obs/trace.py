"""Bounded, deterministic event tracing for the Time Warp kernel.

A :class:`TraceBuffer` is a ring buffer of structured events the engine
emits at its decision points (batch execution, message routing,
rollbacks, GVT rounds, throttle transitions).  It exists to answer the
question the aggregate counters cannot: *why did this run roll back?*
A dump is a JSONL stream ordered by emission sequence number, which —
because the kernel itself is deterministic — is bit-identical across
runs with the same inputs.

Determinism contract: events carry only modeled quantities (virtual
times, modeled wall seconds, LP/machine ids, serials) — never host
time.  The buffer is bounded (default 65 536 events); once full, the
oldest events are dropped and ``dropped`` counts them, so tracing a
long run costs bounded memory and the *tail* of the trace — where a
rollback cascade ends — is always retained.

The event vocabulary is documented in ``docs/observability.md`` and
mirrored in :data:`TRACE_EVENT_KINDS`.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

__all__ = ["TraceEvent", "TraceBuffer", "TRACE_EVENT_KINDS"]


#: kind -> one-line meaning (the trace format registry)
TRACE_EVENT_KINDS: dict[str, str] = {
    "exec": "one LP executed one timestamp batch",
    "send": "a message was routed between machines (sign -1 = anti)",
    "rollback": "a straggler or anti-message rolled an LP back",
    "gvt": "one GVT round completed (new estimate + fossil sweep)",
    "throttle": "the GVT-stall emergency throttle engaged or released",
}


@dataclass(frozen=True)
class TraceEvent:
    """One trace record.

    Attributes
    ----------
    seq:
        Emission sequence number (monotone across the run, including
        dropped events — gaps reveal ring-buffer eviction).
    kind:
        One of :data:`TRACE_EVENT_KINDS`.
    fields:
        Kind-specific payload; modeled quantities only.
    """

    seq: int
    kind: str
    fields: dict

    def to_json(self) -> str:
        """Canonical single-line JSON (sorted keys, no whitespace)."""
        doc = {"seq": self.seq, "kind": self.kind, **self.fields}
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))


class TraceBuffer:
    """Bounded ring buffer of :class:`TraceEvent` records.

    Parameters
    ----------
    capacity:
        Maximum retained events; older events are evicted first.

    Pass an instance to :class:`~repro.sim.timewarp.TimeWarpEngine`
    (or ``run_partitioned(..., trace=...)``) to capture a kernel trace;
    ``None`` (the default everywhere) keeps tracing fully disabled at
    zero cost.
    """

    __slots__ = ("capacity", "_events", "_seq", "dropped")

    def __init__(self, capacity: int = 65536) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._events: deque[TraceEvent] = deque(maxlen=capacity)
        self._seq = 0
        #: events evicted by the ring bound
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def emit(self, kind: str, **fields) -> None:
        """Append one event (oldest evicted when full)."""
        if kind not in TRACE_EVENT_KINDS:
            raise ValueError(
                f"unknown trace event kind {kind!r}; "
                f"known: {', '.join(sorted(TRACE_EVENT_KINDS))}"
            )
        if len(self._events) == self.capacity:
            self.dropped += 1
        self._events.append(TraceEvent(self._seq, kind, fields))
        self._seq += 1

    def events(self, kind: str | None = None) -> list[TraceEvent]:
        """Retained events, optionally filtered by kind."""
        if kind is None:
            return list(self._events)
        return [e for e in self._events if e.kind == kind]

    def to_jsonl(self) -> str:
        """The retained events as a JSONL string (one event per line,
        newline-terminated, canonical key order — byte-identical across
        identical runs and to what :meth:`dump` writes)."""
        return "".join(e.to_json() + "\n" for e in self._events)

    def dump(self, path: str | Path) -> int:
        """Write the JSONL trace to ``path``; returns events written."""
        Path(path).write_text(self.to_jsonl())
        return len(self._events)
