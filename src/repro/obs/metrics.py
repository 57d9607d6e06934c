"""Schema-versioned metrics documents: the JSON read/write side.

Every machine-readable result this repository produces — bench outputs
(``benchmarks/out/BENCH_<name>.json``), CLI ``--metrics`` dumps, sweep
exports — is one *metrics document*: a plain JSON object validated by
:func:`validate_metrics` against schema version
:data:`METRICS_SCHEMA_VERSION`.  The schema is documented for humans in
``docs/observability.md``; this module is its executable form (no
external jsonschema dependency).

Document shape (version 1)::

    {
      "schema_version": 1,
      "name":         "table3_presim",          # required, non-empty
      "kind":         "bench",                  # bench | run | partition | sweep | custom
      "generated_at": "2026-08-06T12:00:00Z",   # or null; the ONLY
                                                #   non-deterministic field
      "params":   {"circuit": "viterbi-single", "seed": 1},   # scalars
      "counters": {"tw.rollbacks": 12, "part.cut_size": 77},  # numbers
      "rows":   [{"k": 2, "b": 7.5, "cut": 33}, ...],         # optional
      "series": {"b=2.5": [1, 2, 3], ...},                    # optional
      "host_timings": {"partition.fm": 0.8}                   # optional,
                                                #   excluded by default
    }

Determinism: with the same inputs and seed, every field except
``generated_at`` (and the opt-in ``host_timings``) must be identical
run to run; :func:`strip_volatile` removes exactly those two so tests
and the freshness gate can compare documents byte-for-byte after
:func:`dumps_metrics` (canonical form: sorted keys, two-space indent,
trailing newline).
"""

from __future__ import annotations

import json
from pathlib import Path

from ..errors import MetricsError
from .recorder import MetricsRecorder
from .spans import span_depths

__all__ = [
    "METRICS_SCHEMA_VERSION",
    "VOLATILE_FIELDS",
    "metrics_document",
    "validate_metrics",
    "dumps_metrics",
    "write_metrics",
    "read_metrics",
    "strip_volatile",
    "counters_view",
]

#: current metrics document schema version (bump on breaking change)
METRICS_SCHEMA_VERSION = 1

#: the host-dependent fields excluded from every cross-run comparison:
#: ``generated_at`` is a wall-clock stamp, ``host_timings`` holds host
#: wall seconds, and ``spans`` carries wall-clock span intervals (the
#: timeline channel) — all differ between identical runs.  Anything
#: comparing documents (``strip_volatile``, ``repro.obs.diffing``) must
#: go through this list, never hard-code it.
#: Span *structure* stays comparable through the deterministic
#: ``obs.span.count`` / ``obs.span.depth.max`` counters.
VOLATILE_FIELDS = ("generated_at", "host_timings", "spans")

_SCALAR = (str, int, float, bool, type(None))
_KINDS = ("bench", "run", "partition", "sweep", "custom")


def metrics_document(
    name: str,
    *,
    kind: str = "bench",
    params: dict | None = None,
    counters: dict | None = None,
    rows: list[dict] | None = None,
    series: dict[str, list] | None = None,
    recorder: MetricsRecorder | None = None,
    generated_at: str | None = None,
    include_host_timings: bool = False,
) -> dict:
    """Assemble and validate one metrics document.

    Parameters
    ----------
    name:
        Document name; benches use their output stem (the JSON lands in
        ``BENCH_<name>.json``).
    kind:
        One of ``bench``, ``run``, ``partition``, ``sweep``, ``custom``.
    params:
        Input parameters that determine the result (circuit, seed, k,
        b, ...) — scalar values only.
    counters:
        Deterministic named numbers; merged over ``recorder``'s view
        when both are given (explicit counters win).
    rows / series:
        Optional tabular / figure payloads.
    recorder:
        A :class:`~repro.obs.recorder.MetricsRecorder` whose counters,
        maxima and phase call counts are folded into ``counters`` (and,
        when ``include_host_timings``, its host wall times into
        ``host_timings``).  Its completed span tree becomes the
        volatile ``spans`` field — the :mod:`repro.obs.timeline`
        exporter's input — and, when it is non-empty, the structural
        counters ``obs.span.count`` (embedded spans) and
        ``obs.span.depth.max`` (deepest nesting), both functions of
        control flow only, identical at any worker count.
    generated_at:
        Timestamp string stamped by the caller *outside* the
        deterministic core; ``None`` omits wall-clock provenance.

    Returns the validated document (a plain dict, ready for
    :func:`write_metrics`).
    """
    merged: dict[str, int | float] = {}
    spans: list[dict] = []
    if recorder is not None:
        merged.update(recorder.as_counters())
        spans = recorder.span_rows()
    if spans:
        merged["obs.span.count"] = len(spans)
        merged["obs.span.depth.max"] = max(span_depths(spans).values())
    if counters:
        merged.update(counters)
    doc: dict = {
        "schema_version": METRICS_SCHEMA_VERSION,
        "name": name,
        "kind": kind,
        "generated_at": generated_at,
        "params": dict(sorted((params or {}).items())),
        "counters": dict(sorted(merged.items())),
    }
    if rows is not None:
        doc["rows"] = rows
    if series is not None:
        doc["series"] = {k: list(v) for k, v in sorted(series.items())}
    if include_host_timings and recorder is not None:
        doc["host_timings"] = recorder.host_timings()
    if spans:
        doc["spans"] = spans
    validate_metrics(doc)
    return doc


def _fail(path: str, message: str) -> None:
    raise MetricsError(f"invalid metrics document at {path}: {message}")


def validate_metrics(doc: object) -> dict:
    """Validate a metrics document; returns it on success.

    Raises :class:`~repro.errors.MetricsError` with a field path on the
    first violation — the error message is the debugging surface, so it
    always names what was found.
    """
    if not isinstance(doc, dict):
        _fail("$", f"expected an object, got {type(doc).__name__}")
    version = doc.get("schema_version")
    if version != METRICS_SCHEMA_VERSION:
        _fail("$.schema_version",
              f"expected {METRICS_SCHEMA_VERSION}, got {version!r}")
    name = doc.get("name")
    if not isinstance(name, str) or not name:
        _fail("$.name", f"expected a non-empty string, got {name!r}")
    kind = doc.get("kind")
    if kind not in _KINDS:
        _fail("$.kind", f"expected one of {_KINDS}, got {kind!r}")
    if "generated_at" not in doc:
        _fail("$.generated_at", "missing (use null when not stamped)")
    gen = doc["generated_at"]
    if gen is not None and not isinstance(gen, str):
        _fail("$.generated_at", f"expected string or null, got {gen!r}")
    params = doc.get("params")
    if not isinstance(params, dict):
        _fail("$.params", f"expected an object, got {type(params).__name__}")
    for k, v in params.items():
        if not isinstance(v, _SCALAR):
            _fail(f"$.params.{k}", f"expected a scalar, got {type(v).__name__}")
    counters = doc.get("counters")
    if not isinstance(counters, dict):
        _fail("$.counters", f"expected an object, got {type(counters).__name__}")
    for k, v in counters.items():
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            _fail(f"$.counters.{k}",
                  f"expected a number, got {type(v).__name__}")
    if "rows" in doc:
        rows = doc["rows"]
        if not isinstance(rows, list):
            _fail("$.rows", f"expected a list, got {type(rows).__name__}")
        for i, row in enumerate(rows):
            if not isinstance(row, dict):
                _fail(f"$.rows[{i}]",
                      f"expected an object, got {type(row).__name__}")
            for k, v in row.items():
                if not isinstance(v, _SCALAR):
                    _fail(f"$.rows[{i}].{k}",
                          f"expected a scalar, got {type(v).__name__}")
    if "series" in doc:
        series = doc["series"]
        if not isinstance(series, dict):
            _fail("$.series", f"expected an object, got {type(series).__name__}")
        for k, vs in series.items():
            if not isinstance(vs, list):
                _fail(f"$.series.{k}",
                      f"expected a list, got {type(vs).__name__}")
            for i, v in enumerate(vs):
                if isinstance(v, bool) or not isinstance(v, (int, float)):
                    _fail(f"$.series.{k}[{i}]",
                          f"expected a number, got {type(v).__name__}")
    if "host_timings" in doc:
        timings = doc["host_timings"]
        if not isinstance(timings, dict):
            _fail("$.host_timings",
                  f"expected an object, got {type(timings).__name__}")
        for k, v in timings.items():
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                _fail(f"$.host_timings.{k}",
                      f"expected a number, got {type(v).__name__}")
    if "spans" in doc:
        spans = doc["spans"]
        if not isinstance(spans, list):
            _fail("$.spans", f"expected a list, got {type(spans).__name__}")
        span_keys = {"sid", "parent", "name", "lane", "t0", "t1"}
        for i, span in enumerate(spans):
            if not isinstance(span, dict):
                _fail(f"$.spans[{i}]",
                      f"expected an object, got {type(span).__name__}")
            if set(span) != span_keys:
                _fail(f"$.spans[{i}]",
                      f"expected exactly keys {sorted(span_keys)}, "
                      f"got {sorted(span)}")
            if not isinstance(span["sid"], int) or isinstance(span["sid"], bool):
                _fail(f"$.spans[{i}].sid",
                      f"expected an int, got {span['sid']!r}")
            parent = span["parent"]
            if parent is not None and (
                    not isinstance(parent, int) or isinstance(parent, bool)):
                _fail(f"$.spans[{i}].parent",
                      f"expected an int or null, got {parent!r}")
            for key in ("name", "lane"):
                if not isinstance(span[key], str) or not span[key]:
                    _fail(f"$.spans[{i}].{key}",
                          f"expected a non-empty string, got {span[key]!r}")
            for key in ("t0", "t1"):
                v = span[key]
                if isinstance(v, bool) or not isinstance(v, (int, float)):
                    _fail(f"$.spans[{i}].{key}",
                          f"expected a number, got {v!r}")
    known = {"schema_version", "name", "kind", "generated_at", "params",
             "counters", "rows", "series", "host_timings", "spans"}
    extra = set(doc) - known
    if extra:
        _fail("$", f"unknown fields {sorted(extra)}")
    return doc


def dumps_metrics(doc: dict) -> str:
    """Canonical serialization: validated, sorted keys, two-space
    indent, trailing newline — byte-identical for identical documents."""
    validate_metrics(doc)
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def write_metrics(path: str | Path, doc: dict) -> Path:
    """Validate ``doc`` and write it canonically to ``path``."""
    path = Path(path)
    path.write_text(dumps_metrics(doc))
    return path


def read_metrics(path: str | Path) -> dict:
    """Load and validate a metrics document from ``path``."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise MetricsError(f"{path} is not valid JSON: {exc}") from exc
    return validate_metrics(doc)


def strip_volatile(doc: dict) -> dict:
    """Copy of ``doc`` with its non-deterministic fields neutralized:
    every :data:`VOLATILE_FIELDS` entry removed, then ``generated_at``
    normalized to null (the key stays so the result still validates).
    This is the form determinism tests, the freshness gate and the
    regression gate (:mod:`repro.obs.diffing`) compare."""
    out = {k: v for k, v in doc.items() if k not in VOLATILE_FIELDS}
    out["generated_at"] = None
    return out


def counters_view(doc: dict) -> dict[str, int | float]:
    """Diff-safe accessor: the document's counters as a fresh plain
    dict, independent of the document object and guaranteed free of
    volatile content (counters never hold host quantities by schema
    rule; this accessor is the single read path the regression gate
    uses, so that guarantee is enforced in one place)."""
    counters = doc.get("counters")
    if not isinstance(counters, dict):
        raise MetricsError(
            f"invalid metrics document at $.counters: expected an object, "
            f"got {type(counters).__name__}"
        )
    return dict(counters)
