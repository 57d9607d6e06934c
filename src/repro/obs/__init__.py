"""repro.obs — the unified observability layer.

One subsystem owns every measurement concern of the reproduction:

* :mod:`repro.obs.recorder` — counters, maxima and phases behind a
  :class:`Recorder` interface; :data:`NULL_RECORDER` makes all
  instrumentation zero-cost when off.  :class:`MetricsRecorder`, the
  one recording class, keeps every phase as a :class:`Span` and
  derives the flat per-phase totals from the closed spans.
* :mod:`repro.obs.trace` — a bounded, deterministic event ring buffer
  (:class:`TraceBuffer`) the Time Warp kernel can dump as JSONL to
  debug rollback cascades.
* :mod:`repro.obs.metrics` — schema-versioned JSON metrics documents:
  build (:func:`metrics_document`), validate (:func:`validate_metrics`),
  canonical write/read, and :func:`strip_volatile` for byte-exact
  determinism comparisons.
* :mod:`repro.obs.registry` — the metric-name and trace-field
  registries rendered in ``docs/observability.md`` and enforced by the
  test suite.
* :mod:`repro.obs.analyze` — trace analyzers: rollback hotspots,
  cascade reconstruction, message-locality matrix, GVT progress.
* :mod:`repro.obs.report` — :func:`analyze_run` packaging every
  analyzer into a deterministic markdown :class:`RunReport`.
* :mod:`repro.obs.diffing` — :func:`diff_metrics` run comparison and
  the CI regression gate (thresholds per registry name).
* :mod:`repro.obs.progress` — :class:`ProgressHeartbeat`, the
  throttled live status line for long Time Warp runs (off by default).
* :mod:`repro.obs.spans` — the worker-telemetry export/merge protocol
  that keeps parallel runs byte-identical to serial ones, and the
  span-tree invariants (:func:`validate_spans`).
* :mod:`repro.obs.timeline` — Chrome-trace/Perfetto export of a
  document's span tree (``repro obs timeline``), one track per lane.
* :mod:`repro.obs.sampler` — :class:`ResourceSampler`, a background
  ``/proc`` poller (peak RSS, CPU, children) whose values land in the
  quarantined host channel only.

Design rules (enforced by tests):

1. **Zero cost when off** — every instrumented function defaults to
   :data:`NULL_RECORDER`/no trace; results are bit-identical with
   observability on or off.
2. **Deterministic** — counters, traces and metric JSON carry modeled
   or structural quantities only; ``generated_at`` (and the opt-in
   ``host_timings``) are the sole wall-clock fields, stamped outside
   the deterministic core.

Quickstart::

    from repro.obs import MetricsRecorder, TraceBuffer, metrics_document

    rec, trace = MetricsRecorder(), TraceBuffer()
    report = run_partitioned(..., recorder=rec, trace=trace)
    doc = metrics_document("my_run", kind="run", recorder=rec)
    trace.dump("trace.jsonl")
"""

from .recorder import (
    Recorder,
    MetricsRecorder,
    PhaseStats,
    NULL_RECORDER,
)
from .trace import TraceBuffer, TraceEvent, TRACE_EVENT_KINDS
from .metrics import (
    METRICS_SCHEMA_VERSION,
    VOLATILE_FIELDS,
    MetricsError,
    metrics_document,
    validate_metrics,
    dumps_metrics,
    write_metrics,
    read_metrics,
    strip_volatile,
    counters_view,
)
from .registry import (
    METRIC_REGISTRY,
    PHASE_REGISTRY,
    HOST_VALUE_REGISTRY,
    TRACE_FIELD_REGISTRY,
    is_registered,
)
from .spans import (
    Span,
    worker_lane,
    worker_telemetry,
    export_telemetry,
    merge_telemetry,
    validate_spans,
    span_depths,
)
from .timeline import chrome_trace, write_chrome_trace
from .sampler import ResourceSampler
from .analyze import (
    GVT_DONE,
    Cascade,
    GvtProgress,
    Hotspot,
    LocalityMatrix,
    StallInterval,
    TraceError,
    gvt_progress,
    load_trace,
    message_locality,
    parse_trace,
    reconstruct_cascades,
    rollback_hotspots,
)
from .report import RunReport, analyze_run
from .diffing import (
    DEFAULT_THRESHOLD,
    DEFAULT_THRESHOLDS,
    HIGHER_IS_BETTER,
    NEUTRAL_METRICS,
    DiffResult,
    MetricDelta,
    diff_metrics,
    gate_directories,
)
from .progress import ProgressHeartbeat

#: former name of :class:`MetricsRecorder`, kept for the pipeline
#: benchmark runner (``benchmarks/pipeline/run.py``), which imports it
SpanRecorder = MetricsRecorder

__all__ = [
    "Recorder",
    "MetricsRecorder",
    "PhaseStats",
    "NULL_RECORDER",
    "TraceBuffer",
    "TraceEvent",
    "TRACE_EVENT_KINDS",
    "METRICS_SCHEMA_VERSION",
    "VOLATILE_FIELDS",
    "MetricsError",
    "metrics_document",
    "validate_metrics",
    "dumps_metrics",
    "write_metrics",
    "read_metrics",
    "strip_volatile",
    "counters_view",
    "METRIC_REGISTRY",
    "PHASE_REGISTRY",
    "HOST_VALUE_REGISTRY",
    "TRACE_FIELD_REGISTRY",
    "is_registered",
    # spans / timeline / sampler
    "Span",
    "SpanRecorder",
    "worker_lane",
    "worker_telemetry",
    "export_telemetry",
    "merge_telemetry",
    "validate_spans",
    "span_depths",
    "chrome_trace",
    "write_chrome_trace",
    "ResourceSampler",
    # analysis
    "GVT_DONE",
    "TraceError",
    "load_trace",
    "parse_trace",
    "Hotspot",
    "rollback_hotspots",
    "Cascade",
    "reconstruct_cascades",
    "LocalityMatrix",
    "message_locality",
    "StallInterval",
    "GvtProgress",
    "gvt_progress",
    "RunReport",
    "analyze_run",
    # diffing / regression gate
    "DEFAULT_THRESHOLD",
    "DEFAULT_THRESHOLDS",
    "HIGHER_IS_BETTER",
    "NEUTRAL_METRICS",
    "MetricDelta",
    "DiffResult",
    "diff_metrics",
    "gate_directories",
    # progress
    "ProgressHeartbeat",
]
