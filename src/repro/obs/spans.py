"""Hierarchical spans and cross-process worker telemetry.

PR 1's :class:`~repro.obs.recorder.MetricsRecorder` keeps *flat* phase
totals — enough for "how long did refinement take" but blind to
structure (which phase contained which) and to the worker processes the
repo fans work out to (the (k, b) candidates of `repro.core.presim`, the
repo's one process pool).  This module adds both without touching the flat contract:

* :class:`SpanRecorder` — a drop-in :class:`MetricsRecorder` subclass
  whose :meth:`~SpanRecorder.phase` context manager *additionally*
  maintains a span tree: every phase entry opens a :class:`Span` whose
  parent is the innermost open span, so nested ``recorder.phase()``
  calls become parent links.  Flat phase totals, counters and maxima
  behave exactly as before — existing callers see no difference.
* :func:`worker_telemetry` / :func:`export_telemetry` /
  :func:`merge_telemetry` — the cross-process protocol: a pool task
  creates a mini-recorder on its own lane, instruments its work, and
  returns :func:`export_telemetry`'s plain-dict payload with its
  result; the driver folds payloads back with :func:`merge_telemetry`
  **in deterministic task-index order**, re-basing span ids and
  attaching worker roots under the driver's innermost open span.
* :func:`validate_spans` — the span-tree invariants (ids strictly
  increasing, parents resolve to earlier spans, child intervals inside
  their parent within a clock-skew tolerance) enforced by the
  timeline exporter (:func:`repro.obs.timeline.chrome_trace`) on every
  document it renders, and by the test suite.

Determinism contract
--------------------
Span *structure* — names, parent links, per-name counts — is purely a
function of the instrumented control flow, so the merged telemetry of a
parallel run is structurally identical at any worker count (the same
per-task mini-recorder is created whether a task runs in-process or in
a pool worker).  Span *timestamps* are host wall clock
(:func:`time.time`, comparable across processes on one host) and live
in the volatile ``spans`` channel of a metrics document, which
:func:`repro.obs.metrics.strip_volatile` removes — so the canonical
dump stays byte-identical across worker counts while the timeline
exporter (:mod:`repro.obs.timeline`) still gets real per-lane timings.
"""

from __future__ import annotations

import multiprocessing
import re
import time
from dataclasses import dataclass

from ..errors import MetricsError
from .recorder import MetricsRecorder, Recorder

__all__ = [
    "Span",
    "SpanRecorder",
    "worker_lane",
    "worker_telemetry",
    "export_telemetry",
    "merge_telemetry",
    "validate_spans",
    "span_depths",
]

#: default tolerance (seconds) for cross-process interval containment —
#: workers stamp spans with their own ``time.time()`` calls, so parent
#: and child clocks can disagree by scheduler-quantum noise
DEFAULT_SKEW_TOLERANCE = 0.010


@dataclass
class Span:
    """One bracketed interval of the span tree.

    ``sid`` is the open-order index (list position in the recorder),
    ``parent`` the sid of the enclosing span (``None`` for roots),
    ``lane`` the process lane that executed it (``"main"`` for the
    driver, ``"worker-N"`` for pool processes), and ``t0``/``t1`` are
    host wall-clock seconds (``t1`` is ``None`` while the span is
    open).
    """

    sid: int
    parent: int | None
    name: str
    lane: str
    t0: float
    t1: float | None = None

    def to_row(self) -> dict:
        """The metrics-document ``spans`` entry (scalar dict)."""
        return {"sid": self.sid, "parent": self.parent, "name": self.name,
                "lane": self.lane, "t0": self.t0, "t1": self.t1}


class _SpanPhase:
    """Phase context that opens/closes a span and keeps the flat
    accounting of the plain :class:`MetricsRecorder` phase."""

    __slots__ = ("_recorder", "_name", "_t0", "_span")

    def __init__(self, recorder: "SpanRecorder", name: str) -> None:
        self._recorder = recorder
        self._name = name
        self._t0 = 0.0
        self._span: Span | None = None

    def __enter__(self):
        rec = self._recorder
        self._t0 = rec._clock()
        self._span = rec._open_span(self._name)
        return self

    def __exit__(self, *exc):
        rec = self._recorder
        rec._close_span(self._span)
        rec.absorb_phase(self._name, 1, rec._clock() - self._t0)
        return False


class SpanRecorder(MetricsRecorder):
    """A :class:`MetricsRecorder` that also builds a span tree.

    Parameters
    ----------
    clock:
        Seconds source for the flat ``host_seconds`` phase totals
        (defaults to :func:`time.perf_counter`, as before).
    span_clock:
        Seconds source for span timestamps.  Defaults to
        :func:`time.time` — an epoch clock shared by every process on
        the host, so driver and worker spans land on one comparable
        timeline.  Tests inject fake clocks for exact trees.
    lane:
        This recorder's lane label; the driver uses ``"main"``, pool
        tasks use :func:`worker_lane`.
    """

    __slots__ = ("spans", "lane", "_stack", "_span_clock")

    def __init__(self, clock=time.perf_counter, span_clock=time.time,
                 lane: str = "main") -> None:
        super().__init__(clock=clock)
        #: every span ever opened, in open order (sid == list index)
        self.spans: list[Span] = []
        self.lane = lane
        self._stack: list[Span] = []
        self._span_clock = span_clock

    # -- span mechanics ---------------------------------------------------

    def phase(self, name: str) -> _SpanPhase:
        return _SpanPhase(self, name)

    def _open_span(self, name: str) -> Span:
        parent = self._stack[-1].sid if self._stack else None
        span = Span(sid=len(self.spans), parent=parent, name=name,
                    lane=self.lane, t0=self._span_clock())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close_span(self, span: Span) -> None:
        span.t1 = self._span_clock()
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        else:  # pragma: no cover - phases are context managers, so
            # mismatched exits only happen on generator abuse
            self._stack = [s for s in self._stack if s is not span]

    @property
    def current_span(self) -> Span | None:
        """The innermost open span (merge-attachment point)."""
        return self._stack[-1] if self._stack else None

    def adopt_spans(self, rows: list[dict]) -> None:
        """Graft exported span rows (a worker payload's) into this
        tree: ids are re-based to fresh sids in row order and worker
        roots become children of the innermost open span, so the merged
        tree has no orphans.  Caller guarantees deterministic call
        order (task-index order)."""
        attach = self.current_span.sid if self._stack else None
        remap: dict[int, int] = {}
        for row in rows:
            old = row["sid"]
            parent = row["parent"]
            span = Span(
                sid=len(self.spans),
                parent=remap[parent] if parent is not None else attach,
                name=row["name"],
                lane=row["lane"],
                t0=row["t0"],
                t1=row["t1"],
            )
            self.spans.append(span)
            remap[old] = span.sid

    # -- export -----------------------------------------------------------

    def span_rows(self) -> list[dict]:
        """Completed spans as metrics-document rows (open spans are
        skipped — at export time, after the instrumented run, every
        span should be closed)."""
        closed = {s.sid for s in self.spans if s.t1 is not None}
        return [s.to_row() for s in self.spans
                if s.t1 is not None
                and (s.parent is None or s.parent in closed)]

    def as_counters(self) -> dict[str, int | float]:
        """Flat deterministic view, extended with the structural span
        quantities ``obs.span.count`` (completed spans, driver + merged
        worker lanes) and ``obs.span.depth.max`` (deepest nesting) —
        both functions of control flow only, identical at any worker
        count."""
        out = super().as_counters()
        rows = self.span_rows()
        if rows:
            out["obs.span.count"] = len(rows)
            out["obs.span.depth.max"] = max(span_depths(rows).values())
        return dict(sorted(out.items()))


def worker_lane() -> str:
    """The current process's lane label.

    The driver process reports ``"main"``; pool workers map their
    multiprocessing process name (``ForkProcess-3``,
    ``SpawnProcess-12``) to a stable ``worker-N`` label — one lane per
    worker process, the timeline exporter's track key.
    """
    proc = multiprocessing.current_process()
    if proc.name == "MainProcess":
        return "main"
    match = re.search(r"(\d+)$", proc.name)
    return f"worker-{match.group(1)}" if match else proc.name


def worker_telemetry(lane: str | None = None) -> SpanRecorder:
    """A mini-recorder for one pool task (lane defaults to
    :func:`worker_lane`)."""
    return SpanRecorder(lane=lane if lane is not None else worker_lane())


def export_telemetry(recorder: SpanRecorder) -> dict:
    """Flatten a mini-recorder into a plain picklable payload that
    rides back with the task result.

    Shape::

        {"counters": {...}, "maxima": {...},
         "phases": {name: [calls, host_seconds]},
         "spans": [{"sid": ..., "parent": ..., ...}, ...]}
    """
    return {
        "counters": dict(recorder.counters),
        "maxima": dict(recorder.maxima),
        "phases": {name: [stats.calls, stats.host_seconds]
                   for name, stats in recorder.phases.items()},
        "spans": recorder.span_rows(),
    }


def merge_telemetry(recorder: Recorder, payload: dict | None) -> None:
    """Fold one task's exported payload into the driver's recorder.

    Counters and phase call counts sum, maxima take the running max —
    so totals equal what a serial in-process run records — and spans
    are grafted under the driver's innermost open span (span-capable
    recorders only; a plain :class:`MetricsRecorder` merges the flat
    channels and drops the tree).  Callers must invoke this in
    task-index order: that order is what makes the merged document
    byte-identical at any worker count.
    """
    if payload is None or not recorder.enabled:
        return
    for name, value in payload.get("counters", {}).items():
        recorder.incr(name, value)
    for name, value in payload.get("maxima", {}).items():
        recorder.observe_max(name, value)
    if isinstance(recorder, MetricsRecorder):
        for name, (calls, host_seconds) in payload.get("phases", {}).items():
            recorder.absorb_phase(name, calls, host_seconds)
    if isinstance(recorder, SpanRecorder):
        recorder.adopt_spans(payload.get("spans", []))


def span_depths(rows: list[dict]) -> dict[int, int]:
    """Nesting depth per sid (roots at 1); assumes parents precede
    children, as :func:`validate_spans` enforces."""
    depths: dict[int, int] = {}
    for row in rows:
        parent = row["parent"]
        depths[row["sid"]] = 1 if parent is None else depths[parent] + 1
    return depths


def validate_spans(rows: list[dict], *,
                   tolerance: float = DEFAULT_SKEW_TOLERANCE) -> list[dict]:
    """Check the span-tree invariants; returns ``rows`` on success.

    * sids strictly increase (open order is list order);
    * every parent resolves to an *earlier* span — no orphans, no
      cycles, children open after their parents;
    * intervals are well-formed (``t1 >= t0``) and each child interval
      lies inside its parent's within ``tolerance`` seconds (worker
      clocks are the host's epoch clock, but independent ``time.time``
      calls can disagree by scheduler noise).

    Raises :class:`~repro.errors.MetricsError` naming the first
    offending span.
    """
    last_sid = -1
    by_sid: dict[int, dict] = {}
    for i, row in enumerate(rows):
        sid = row.get("sid")
        if not isinstance(sid, int) or sid <= last_sid:
            raise MetricsError(
                f"span[{i}]: sid {sid!r} does not increase past {last_sid}")
        last_sid = sid
        parent = row.get("parent")
        if parent is not None and parent not in by_sid:
            raise MetricsError(
                f"span[{i}] (sid {sid}): orphan — parent {parent!r} is not "
                f"an earlier span")
        t0, t1 = row.get("t0"), row.get("t1")
        if not isinstance(t0, (int, float)) or not isinstance(t1, (int, float)):
            raise MetricsError(
                f"span[{i}] (sid {sid}): t0/t1 must be numbers, "
                f"got {t0!r}/{t1!r}")
        if t1 < t0:
            raise MetricsError(
                f"span[{i}] (sid {sid}): t1 {t1} precedes t0 {t0}")
        if parent is not None:
            pt = by_sid[parent]
            if t0 < pt["t0"] - tolerance or t1 > pt["t1"] + tolerance:
                raise MetricsError(
                    f"span[{i}] (sid {sid}, {row.get('name')!r}): interval "
                    f"[{t0}, {t1}] escapes parent {parent} "
                    f"[{pt['t0']}, {pt['t1']}] beyond tolerance {tolerance}")
        by_sid[sid] = row
    return rows
