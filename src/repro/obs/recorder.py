"""Metric recorders: the write side of the observability layer.

Instrumented code (the partitioner, the Time Warp kernel, the bench
harness) talks to a :class:`Recorder` and never decides *whether*
anything is recorded — that choice belongs to the caller, who passes
either the shared :data:`NULL_RECORDER` (every method is a ``pass``;
instrumentation costs one attribute call) or a :class:`MetricsRecorder`
that accumulates counters and maxima and keeps every phase as a
:class:`Span` — the one store of phase data: flat per-phase totals
(:attr:`MetricsRecorder.phases`) are derived from the closed spans, so
they cannot disagree with the tree.  Export goes through
:mod:`repro.obs.metrics`.

Determinism contract
--------------------
Counters, maxima and phase *call counts* may only be fed modeled or
structural quantities (event counts, cut sizes, modeled seconds), so
two runs with identical inputs produce identical values — the property
the determinism tests pin.  Span timestamps and the phase durations
derived from them are host wall clock, quarantined in the volatile
``spans`` / ``host_timings`` channels that the canonical JSON dump
excludes (see :func:`repro.obs.metrics.metrics_document`).

Metric names are dotted lowercase paths (``tw.rollbacks``,
``part.fm.moves``); the well-known ones are listed in
:data:`repro.obs.registry.METRIC_REGISTRY` and documented in
``docs/observability.md``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

__all__ = ["Recorder", "MetricsRecorder", "PhaseStats", "Span",
           "NULL_RECORDER"]


@dataclass
class PhaseStats:
    """Totals of one named phase, derived from its closed spans.

    ``calls`` is deterministic (it counts phase entries); ``host_seconds``
    is host wall time and therefore excluded from deterministic dumps.
    """

    calls: int = 0
    host_seconds: float = 0.0


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


class Recorder:
    """Base interface; every method is a no-op.

    The interface is deliberately tiny — three verbs cover the whole
    codebase, plus one for host-dependent values:

    * :meth:`incr` — add to a monotone counter;
    * :meth:`observe_max` — track the maximum of a quantity;
    * :meth:`phase` — context manager bracketing one named phase
      (a :class:`MetricsRecorder` opens a :class:`Span` for it);
    * :meth:`record_host` — one quarantined host value (RSS, CPU).
    """

    __slots__ = ()

    #: False for the null recorder — lets hot loops skip building
    #: expensive arguments (``if rec.enabled: rec.incr(...)``).
    enabled = False

    def incr(self, name: str, value: int | float = 1) -> None:
        """Add ``value`` to counter ``name`` (creating it at 0)."""

    def observe_max(self, name: str, value: int | float) -> None:
        """Record ``value`` if it exceeds the current maximum of ``name``."""

    def phase(self, name: str) -> "_PhaseContext":
        """Context manager entering phase ``name``."""
        return _NULL_PHASE

    def record_host(self, name: str, value: float) -> None:
        """Record one host-dependent value under ``name``."""


class _PhaseContext:
    """Null phase context (shared singleton)."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_PHASE = _PhaseContext()

#: Shared no-op recorder — the default for every instrumented function.
NULL_RECORDER = Recorder()


class _Phase:
    """Phase context: opens a span on entry, closes it on exit."""

    __slots__ = ("_recorder", "_name", "_span")

    def __init__(self, recorder: "MetricsRecorder", name: str) -> None:
        self._recorder = recorder
        self._name = name
        self._span: Span | None = None

    def __enter__(self):
        rec = self._recorder
        stack = rec._stack
        self._span = span = Span(
            sid=len(rec.spans), parent=stack[-1].sid if stack else None,
            name=self._name, lane=rec.lane, t0=rec._clock())
        rec.spans.append(span)
        stack.append(span)
        return self

    def __exit__(self, *exc):
        rec, span = self._recorder, self._span
        span.t1 = rec._clock()
        if rec._stack and rec._stack[-1] is span:
            rec._stack.pop()
        else:  # pragma: no cover - phases are context managers, so
            # mismatched exits only happen on generator abuse
            rec._stack = [s for s in rec._stack if s is not span]
        return False


class MetricsRecorder(Recorder):
    """Accumulating recorder backing the metrics JSON export.

    Every :meth:`phase` opens a :class:`Span` whose parent is the
    innermost open span, so nested ``recorder.phase()`` calls become
    parent links; :attr:`phases` derives the flat per-name totals from
    the closed spans.  Span timestamps come from :func:`time.time` —
    an epoch clock shared by every process on the host, so driver and
    worker spans land on one comparable timeline.

    Parameters
    ----------
    lane:
        This recorder's lane label; the driver uses ``"main"``, pool
        tasks use :func:`repro.obs.spans.worker_lane`.
    """

    __slots__ = ("counters", "maxima", "host_values", "spans", "lane",
                 "_stack", "_clock")

    enabled = True

    def __init__(self, lane: str = "main") -> None:
        #: monotone counters, name -> value
        self.counters: dict[str, int | float] = {}
        #: running maxima, name -> value
        self.maxima: dict[str, int | float] = {}
        #: free-form host-dependent values (resource-sampler output,
        #: worker wall seconds) — quarantined with phase host seconds
        #: in the ``host_timings`` channel, never in counters
        self.host_values: dict[str, float] = {}
        #: every span ever opened, in open order (sid == list index)
        self.spans: list[Span] = []
        self.lane = lane
        self._stack: list[Span] = []
        self._clock = time.time

    def incr(self, name: str, value: int | float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def observe_max(self, name: str, value: int | float) -> None:
        cur = self.maxima.get(name)
        if cur is None or value > cur:
            self.maxima[name] = value

    def phase(self, name: str) -> _Phase:
        return _Phase(self, name)

    def record_host(self, name: str, value: float) -> None:
        """Record one host-dependent value (RSS, CPU seconds, worker
        wall) under ``name``.  Host values share the quarantined
        ``host_timings`` export channel with phase wall seconds and are
        never part of the deterministic counter view."""
        self.host_values[name] = float(value)

    @property
    def phases(self) -> dict[str, PhaseStats]:
        """Per-name totals of the closed spans: entry count and summed
        wall seconds (``t1 - t0``)."""
        out: dict[str, PhaseStats] = {}
        for span in self.spans:
            if span.t1 is not None:
                stats = out.setdefault(span.name, PhaseStats())
                stats.calls += 1
                stats.host_seconds += span.t1 - span.t0
        return out

    def adopt_spans(self, rows: list[dict]) -> None:
        """Graft exported span rows (a worker payload's) into this
        tree: ids are re-based to fresh sids in row order and worker
        roots become children of the innermost open span, so the merged
        tree has no orphans.  Caller guarantees deterministic call
        order (task-index order)."""
        attach = self._stack[-1].sid if self._stack else None
        remap: dict[int, int] = {}
        for row in rows:
            parent = row["parent"]
            span = Span(
                sid=len(self.spans),
                parent=remap[parent] if parent is not None else attach,
                name=row["name"], lane=row["lane"], t0=row["t0"],
                t1=row["t1"])
            self.spans.append(span)
            remap[row["sid"]] = span.sid

    # -- export -----------------------------------------------------------

    def span_rows(self) -> list[dict]:
        """Spans that are closed and whose every ancestor is closed, as
        metrics-document rows — at export time, after the instrumented
        run, that is every span."""
        exported: set[int] = set()
        rows = []
        for span in self.spans:  # parents precede children
            if span.t1 is not None and (span.parent is None
                                        or span.parent in exported):
                exported.add(span.sid)
                rows.append(span.to_row())
        return rows

    def as_counters(self) -> dict[str, int | float]:
        """Deterministic flat view: counters, maxima (suffixed
        ``.max``) and phase call counts (suffixed ``.calls``), merged
        into one sorted mapping — the shape
        :func:`repro.obs.metrics.metrics_document` consumes."""
        out: dict[str, int | float] = dict(self.counters)
        for name, v in self.maxima.items():
            out[f"{name}.max"] = v
        for name, stats in self.phases.items():
            out[f"{name}.calls"] = stats.calls
        return dict(sorted(out.items()))

    def host_timings(self) -> dict[str, float]:
        """Host wall seconds per phase plus any :meth:`record_host`
        values — profiling only, never part of the deterministic
        metrics dump."""
        out = {name: stats.host_seconds for name, stats in self.phases.items()}
        out.update(self.host_values)
        return dict(sorted(out.items()))
