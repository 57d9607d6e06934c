"""Chrome-trace / Perfetto timeline export for span trees.

Converts the ``spans`` channel of a metrics document (built by
:class:`repro.obs.recorder.MetricsRecorder`) into the Chrome Trace Event JSON
object format — loadable in https://ui.perfetto.dev or
``chrome://tracing``.  Each span becomes one complete (``"X"``) event;
lanes (the driver's ``main`` plus one ``worker-N`` per pool process)
become named threads of a single ``repro`` process, so worker activity
renders as parallel tracks under the driver's span tree.

The exporter is read-only and host-facing: it consumes the *volatile*
``spans`` field, so timeline output is expected to differ between runs
(wall timestamps) even when the deterministic document body is
byte-identical.  CLI entry point: ``repro obs timeline metrics.json -o
trace.json``.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..errors import MetricsError
from .spans import validate_spans

__all__ = ["chrome_trace", "write_chrome_trace"]

#: Chrome trace events use microsecond timestamps
_US = 1_000_000.0


def _lane_order(rows: list[dict]) -> list[str]:
    """Lanes in first-appearance order, ``main`` always first (tid 0)."""
    lanes: list[str] = []
    for row in rows:
        lane = row["lane"]
        if lane not in lanes:
            lanes.append(lane)
    if "main" in lanes:
        lanes.remove("main")
        lanes.insert(0, "main")
    return lanes


def chrome_trace(doc: dict) -> dict:
    """Build a Chrome-trace object from a metrics document with spans.

    Returns ``{"traceEvents": [...]}`` — metadata (``"M"``) events
    naming the process and one thread per lane, followed by one
    complete (``"X"``) event per span with ``ts``/``dur`` in
    microseconds relative to the earliest span start.  Raises
    :class:`~repro.errors.MetricsError` when the document carries no
    spans (run the producing command with ``--metrics``, e.g.
    ``repro psim``/``partition``/``sweep``).
    """
    rows = doc.get("spans")
    if not rows:
        raise MetricsError(
            f"metrics document {doc.get('name')!r} has no spans — "
            f"re-run the producing command with --metrics to capture a "
            f"span tree, then export its timeline")
    validate_spans(rows)
    lanes = _lane_order(rows)
    tid = {lane: i for i, lane in enumerate(lanes)}
    name = doc.get("name", "repro")
    events: list[dict] = [{
        "ph": "M", "name": "process_name", "pid": 1, "tid": 0,
        "args": {"name": f"repro:{name}"},
    }]
    for lane in lanes:
        events.append({
            "ph": "M", "name": "thread_name", "pid": 1, "tid": tid[lane],
            "args": {"name": lane},
        })
        events.append({
            "ph": "M", "name": "thread_sort_index", "pid": 1,
            "tid": tid[lane], "args": {"sort_index": tid[lane]},
        })
    t_origin = min(row["t0"] for row in rows)
    for row in rows:
        events.append({
            "ph": "X",
            "name": row["name"],
            "cat": "span",
            "pid": 1,
            "tid": tid[row["lane"]],
            "ts": round((row["t0"] - t_origin) * _US, 3),
            "dur": round((row["t1"] - row["t0"]) * _US, 3),
            "args": {"sid": row["sid"], "parent": row["parent"]},
        })
    return {"traceEvents": events,
            "displayTimeUnit": "ms",
            "metadata": {"source": "repro obs timeline",
                         "document": name}}


def write_chrome_trace(path: str | Path, doc: dict) -> Path:
    """Export ``doc``'s spans to ``path`` as Chrome-trace JSON."""
    path = Path(path)
    path.write_text(json.dumps(chrome_trace(doc), indent=1) + "\n")
    return path
