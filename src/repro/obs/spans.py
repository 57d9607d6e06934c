"""Cross-process worker telemetry and the span-tree invariants.

Every phase a :class:`~repro.obs.recorder.MetricsRecorder` records is a
:class:`~repro.obs.recorder.Span` — nested ``recorder.phase()`` calls
become parent links, and the flat per-phase totals are derived from the
closed spans.  This module carries that tree across the worker
processes the repo fans work out to (the (k, b) candidates of
`repro.core.presim`, the repo's one process pool) and checks its shape:

* :func:`worker_telemetry` / :func:`export_telemetry` /
  :func:`merge_telemetry` — the cross-process protocol: a pool task
  creates a mini-recorder on its own lane, instruments its work, and
  returns :func:`export_telemetry`'s plain-dict payload (counters,
  maxima, spans) with its result; the driver folds payloads back with
  :func:`merge_telemetry` **in deterministic task-index order**,
  re-basing span ids and attaching worker roots under the driver's
  innermost open span — the merged spans carry the workers' phase
  totals.
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

from ..errors import MetricsError
from .recorder import MetricsRecorder, Recorder, Span

__all__ = [
    "Span",
    "worker_lane",
    "worker_telemetry",
    "export_telemetry",
    "merge_telemetry",
    "validate_spans",
    "span_depths",
]

#: tolerance (seconds) for cross-process interval containment —
#: workers stamp spans with their own ``time.time()`` calls, so parent
#: and child clocks can disagree by scheduler-quantum noise
DEFAULT_SKEW_TOLERANCE = 0.010


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


def worker_telemetry() -> MetricsRecorder:
    """A mini-recorder for one pool task, on its :func:`worker_lane`."""
    return MetricsRecorder(lane=worker_lane())


def export_telemetry(recorder: MetricsRecorder) -> dict:
    """Flatten a mini-recorder into a plain picklable payload that
    rides back with the task result.

    Shape::

        {"counters": {...}, "maxima": {...},
         "spans": [{"sid": ..., "parent": ..., ...}, ...]}
    """
    return {
        "counters": dict(recorder.counters),
        "maxima": dict(recorder.maxima),
        "spans": recorder.span_rows(),
    }


def merge_telemetry(recorder: Recorder, payload: dict | None) -> None:
    """Fold one task's exported payload into the driver's recorder.

    Counters sum and maxima take the running max — so totals equal what
    a serial in-process run records — and spans are grafted under the
    driver's innermost open span, which carries the worker's phase
    totals into the driver's.  Callers must invoke this in task-index
    order: that order is what makes the merged document byte-identical
    at any worker count.
    """
    if payload is None or not recorder.enabled:
        return
    for name, value in payload["counters"].items():
        recorder.incr(name, value)
    for name, value in payload["maxima"].items():
        recorder.observe_max(name, value)
    recorder.adopt_spans(payload["spans"])


def span_depths(rows: list[dict]) -> dict[int, int]:
    """Nesting depth per sid (roots at 1); assumes parents precede
    children, as :func:`validate_spans` enforces."""
    depths: dict[int, int] = {}
    for row in rows:
        parent = row["parent"]
        depths[row["sid"]] = 1 if parent is None else depths[parent] + 1
    return depths


def validate_spans(rows: list[dict]) -> list[dict]:
    """Check the span-tree invariants; returns ``rows`` on success.

    * sids strictly increase (open order is list order);
    * every parent resolves to an *earlier* span — no orphans, no
      cycles, children open after their parents;
    * intervals are well-formed (``t1 >= t0``) and each child interval
      lies inside its parent's within :data:`DEFAULT_SKEW_TOLERANCE`
      seconds (worker clocks are the host's epoch clock, but
      independent ``time.time`` calls can disagree by scheduler noise).

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
            if (t0 < pt["t0"] - DEFAULT_SKEW_TOLERANCE
                    or t1 > pt["t1"] + DEFAULT_SKEW_TOLERANCE):
                raise MetricsError(
                    f"span[{i}] (sid {sid}, {row.get('name')!r}): interval "
                    f"[{t0}, {t1}] escapes parent {parent} "
                    f"[{pt['t0']}, {pt['t1']}] beyond tolerance "
                    f"{DEFAULT_SKEW_TOLERANCE}")
        by_sid[sid] = row
    return rows
