"""Shared state for the benchmark suite.

The paper's tables build on each other (Table 4 selects from Table 3,
Table 5 and Figures 5-7 consume the selections), so expensive artifacts
are computed once per pytest session and cached here.  Every benchmark
prints its rows (run with ``-s`` to see them live) and also writes them
under ``benchmarks/out/`` so results survive the run.
"""

from __future__ import annotations

import functools
import re
from datetime import datetime, timezone
from pathlib import Path

from repro.bench import (
    ExperimentConfig,
    table1_cutsize_design,
    table3_presim,
    table5_full_sim,
)
from repro.obs import metrics_document, validate_metrics, write_metrics
from repro.obs.sampler import ResourceSampler

#: the benchmark workload: a single scaled Viterbi decoder — one
#: decoder like the paper's (no trivially separable channels), with the
#: heavyweight SMU super-gates that make the balance factor bite
CFG = ExperimentConfig(
    circuit="viterbi-single",
    presim_vectors=60,
    full_vectors=600,
    seed=1,
)

OUT_DIR = Path(__file__).parent / "out"


@functools.lru_cache(maxsize=1)
def _sampler() -> ResourceSampler:
    """Process-wide resource sampler, started on first use.

    Every study that goes through :func:`emit` gets the same
    ``obs.sampler.*`` peak-RSS / CPU readings in its ``host_timings``
    — one background thread for the whole benchmark process instead of
    each study hand-rolling (or forgetting) its own sampler.  Peaks are
    monotone (VmHWM is a lifetime high-water mark), so later studies
    report the process peak up to their emit time.
    """
    return ResourceSampler().start()


def emit(
    name: str,
    text: str,
    *,
    params: dict | None = None,
    counters: dict | None = None,
    rows: list[dict] | None = None,
    series: dict[str, list] | None = None,
    host_timings: dict[str, float] | None = None,
    recorder=None,
) -> None:
    """Print a result block and persist it under benchmarks/out/.

    The text lands in ``<name>.txt`` as before; when any of ``params``
    / ``counters`` / ``rows`` / ``series`` / ``recorder`` is given, a
    schema-validated metrics document (see :mod:`repro.obs.metrics`) is
    written next to it as ``BENCH_<name>.json``.  Everything but the
    ``generated_at`` stamp is deterministic for a fixed seed, so
    ``make_experiments_md.py --check`` can diff reruns byte-for-byte
    after :func:`repro.obs.strip_volatile`.  Host wall measurements
    (non-deterministic by nature) belong in ``host_timings`` — the
    quarantined channel ``strip_volatile`` removes before comparison —
    never in ``counters`` or ``rows``.

    A ``recorder`` (``MetricsRecorder``) folds its counters/maxima/
    phase calls into the document's deterministic counters and
    contributes the volatile ``spans`` timeline, which ``repro obs
    timeline BENCH_<name>.json`` exports for Perfetto.  Its host phase
    walls merge into ``host_timings`` (explicit keys win).
    """
    print()
    print(text)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}.txt").write_text(text + "\n")
    if (params is None and counters is None and rows is None
            and series is None and host_timings is None
            and recorder is None):
        return
    base_params = {
        "circuit": CFG.circuit,
        "presim_vectors": CFG.presim_vectors,
        "full_vectors": CFG.full_vectors,
        "seed": CFG.seed,
    }
    base_params.update(params or {})
    merged_counters = {"bench.rows": len(rows)} if rows is not None else {}
    merged_counters.update(counters or {})
    doc = metrics_document(
        name,
        kind="bench",
        params=base_params,
        counters=merged_counters,
        rows=rows,
        series=series,
        recorder=recorder,
        generated_at=datetime.now(timezone.utc).isoformat(timespec="seconds"),
    )
    merged_timings = dict(recorder.host_timings()) if recorder is not None else {}
    sampler = _sampler()
    sampler._sample_once()
    merged_timings.update(sampler.as_host_values())
    merged_timings.update(host_timings or {})
    if merged_timings:
        doc["host_timings"] = {
            k: float(v) for k, v in sorted(merged_timings.items())
        }
        validate_metrics(doc)
    write_metrics(OUT_DIR / f"BENCH_{name}.json", doc)


def _scalar(value):
    """Coerce numpy scalars to plain Python for JSON serialization."""
    if isinstance(value, (str, bytes)):
        return value
    item = getattr(value, "item", None)
    return item() if callable(item) else value


def table_rows(headers: list[str], rows: list[list]) -> list[dict]:
    """Convert ``format_table``-style headers + list rows into metrics
    document row dicts (snake_case keys, plain scalar values)."""
    keys = [re.sub(r"[^a-z0-9]+", "_", h.lower()).strip("_") for h in headers]
    return [dict(zip(keys, (_scalar(v) for v in row))) for row in rows]


@functools.lru_cache(maxsize=1)
def design_rows():
    return table1_cutsize_design(CFG)


@functools.lru_cache(maxsize=1)
def presim_study():
    return table3_presim(CFG)


@functools.lru_cache(maxsize=1)
def full_sim_rows():
    return table5_full_sim(CFG, presim_study())
