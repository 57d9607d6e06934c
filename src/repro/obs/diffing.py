"""Run comparison and the regression gate.

Two schema-v1 metrics documents (:mod:`repro.obs.metrics`) with the
same params describe the same experiment; because every counter is
deterministic, *any* difference between them is a behavioural change.
:func:`diff_metrics` computes per-metric relative deltas and classifies
each as an improvement, a regression, or neutral, using the badness
direction tables below; :class:`DiffResult` renders a deterministic
report and a machine-readable verdict so CI can fail on, e.g., a >10 %
``tw.rollbacks`` or ``part.cut_size`` regression
(``repro obs diff --fail-on-regression``, or
``benchmarks/make_experiments_md.py --check --baseline DIR``).

Direction tables: most registered counters are *work* or *overhead*
(rollbacks, messages, cut size, wall time) — more is worse.
:data:`HIGHER_IS_BETTER` lists the exceptions (speedup, balance,
passed checks); :data:`NEUTRAL_METRICS` lists quantities fixed by the
workload or purely descriptive (committed events, row counts), which
are reported but never gate.  Every name in these tables must exist in
:mod:`repro.obs.registry` — the test suite enforces it.

Volatile fields (``generated_at``, ``host_timings``) never participate:
both documents pass through
:func:`repro.obs.metrics.strip_volatile` first, so two runs of the
same code always diff empty (the ``diff_metrics(x, x) == []``
property the tests pin).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from ..errors import MetricsError
from .metrics import counters_view, read_metrics, strip_volatile

__all__ = [
    "HIGHER_IS_BETTER",
    "NEUTRAL_METRICS",
    "DEFAULT_THRESHOLD",
    "DEFAULT_THRESHOLDS",
    "MetricDelta",
    "DiffResult",
    "diff_metrics",
    "gate_directories",
]

#: registered metrics where a larger value is the *good* direction
HIGHER_IS_BETTER = frozenset({
    "tw.speedup",
    "part.balanced",
    "bench.shape_checks_passed",
    "bench.runs_saved",
    "part.fm.gain",
    "part.ml.uncoarsen_gain",
})

#: registered metrics fixed by the workload or purely descriptive —
#: reported when they change (a changed workload is worth seeing) but
#: never counted as regressions
NEUTRAL_METRICS = frozenset({
    "bench.rows",
    "bench.brute_force_runs",
    "bench.heuristic_runs",
    "seq.gate_evals",
    "seq.wall_time",
    "tw.committed_events",
    "tw.env_messages",
    "part.cone.cones",
    "part.cone.roots",
    "part.cone.orphan_vertices",
    # partition-core instrumentation: counts of work *done by* the
    # vectorized bookkeeping — descriptive throughput quantities, not
    # quality signals; deterministic for a fixed seed so they diff
    # byte-for-byte but never gate
    "part.core.lambda_hits",
    "part.core.gain_batches",
    "part.core.gain_batch_vertices",
    "part.core.boundary_batches",
    # work behind part.fm.moves: how many moves the passes executed to
    # retain those, and how many passes the locked-cut bound cut short
    "part.fm.executed",
    "part.fm.bound_stops",
    # multilevel hierarchy shape: fixed by the workload + config, not
    # quality signals (part.ml.initial_cut / level_cut / refine_rounds
    # stay directional and gate normally)
    "part.ml.levels",
    "part.ml.coarse_vertices",
    "part.ml.matched_pairs",
    "part.ml.match_weight",
    "part.ml.reduction",
    "part.ml.initial_candidates",
    # which side of the step kernel served the work: a dispatch
    # outcome, not a quality signal (more scalar gates is the *faster*
    # split below ~100 updates per batch — docs/performance.md)
    "sim.kernel.batches",
    "sim.kernel.batch_gates",
    "sim.kernel.scalar_gates",
})

#: default relative-delta gate: a directional metric moving more than
#: this fraction in its bad direction is a regression
DEFAULT_THRESHOLD = 0.10

#: per-name threshold overrides (looser gates for noisy quantities);
#: names must be registered
DEFAULT_THRESHOLDS: dict[str, float] = {
    # checkpoint memory tracks peak footprint — spiky under small
    # scheduling shifts, gate loosely
    "tw.peak_checkpoint_bytes": 0.25,
    # straggler depth is a maximum, inherently jumpy
    "tw.straggler_depth.max": 0.50,
}


@dataclass(frozen=True)
class MetricDelta:
    """One changed counter.

    ``rel_delta`` is ``(new - old) / |old|``, or ``None`` when the old
    value is zero (any appearance from zero in the bad direction
    regresses regardless of threshold).  ``direction`` is ``"better"``,
    ``"worse"`` or ``"neutral"``; ``regressed`` is ``direction ==
    "worse"`` past the metric's threshold.
    """

    name: str
    old: float
    new: float
    abs_delta: float
    rel_delta: float | None
    direction: str
    threshold: float
    regressed: bool

    def describe(self) -> str:
        """One deterministic report line."""
        rel = f"{self.rel_delta:+.1%}" if self.rel_delta is not None else "new!=0"
        flag = {"worse": "REGRESSED" if self.regressed else "worse",
                "better": "better", "neutral": "neutral"}[self.direction]
        return (f"{self.name}: {_fmt(self.old)} -> {_fmt(self.new)} "
                f"({rel}, {flag})")


def _fmt(v: float) -> str:
    return f"{v:g}"


@dataclass(frozen=True)
class DiffResult:
    """Everything :func:`diff_metrics` found.

    ``deltas`` holds only *changed* counters; identical documents give
    an empty tuple.  ``added``/``removed`` are counters present in only
    one document; ``param_changes`` lists params that differ — when
    non-empty, the two documents describe different experiments and the
    deltas should be read with that in mind.
    """

    old_name: str
    new_name: str
    deltas: tuple[MetricDelta, ...]
    added: tuple[str, ...]
    removed: tuple[str, ...]
    param_changes: tuple[str, ...]

    @property
    def regressions(self) -> tuple[MetricDelta, ...]:
        return tuple(d for d in self.deltas if d.regressed)

    @property
    def has_regressions(self) -> bool:
        return bool(self.regressions)

    @property
    def improvements(self) -> tuple[MetricDelta, ...]:
        return tuple(d for d in self.deltas if d.direction == "better")

    def verdict(self) -> dict:
        """Machine-readable summary (JSON-serializable) for CI."""
        return {
            "old": self.old_name,
            "new": self.new_name,
            "changed": len(self.deltas),
            "added": list(self.added),
            "removed": list(self.removed),
            "param_changes": list(self.param_changes),
            "regressions": [d.name for d in self.regressions],
            "improvements": [d.name for d in self.improvements],
            "ok": not self.has_regressions,
        }

    def render(self) -> str:
        """Deterministic plain-text report."""
        lines = [f"metrics diff: {self.old_name} -> {self.new_name}"]
        if self.param_changes:
            lines.append("  params differ: " + ", ".join(self.param_changes)
                         + " (comparing different experiments?)")
        if not self.deltas and not self.added and not self.removed:
            lines.append("  no deltas: documents are identical "
                         "(modulo volatile fields)")
            return "\n".join(lines) + "\n"
        for d in self.deltas:
            lines.append("  " + d.describe())
        for name in self.added:
            lines.append(f"  {name}: (absent) -> present")
        for name in self.removed:
            lines.append(f"  {name}: present -> (absent)")
        n_reg = len(self.regressions)
        lines.append(f"  {len(self.deltas)} changed, {n_reg} regression"
                     + ("" if n_reg == 1 else "s"))
        return "\n".join(lines) + "\n"


def diff_metrics(
    old: dict,
    new: dict,
    *,
    thresholds: dict[str, float] | None = None,
    default_threshold: float = DEFAULT_THRESHOLD,
) -> DiffResult:
    """Compare two metrics documents counter by counter.

    Parameters
    ----------
    old / new:
        Validated schema-v1 documents (volatile fields are stripped
        here, callers need not bother).
    thresholds:
        Per-name relative-threshold overrides, layered over
        :data:`DEFAULT_THRESHOLDS` then :data:`DEFAULT_THRESHOLD`.
    """
    old = strip_volatile(old)
    new = strip_volatile(new)
    merged_thresholds = dict(DEFAULT_THRESHOLDS)
    if thresholds:
        merged_thresholds.update(thresholds)
    old_c = counters_view(old)
    new_c = counters_view(new)
    deltas: list[MetricDelta] = []
    for name in sorted(set(old_c) & set(new_c)):
        o, n = old_c[name], new_c[name]
        if o == n:
            continue
        abs_delta = n - o
        rel = abs_delta / abs(o) if o != 0 else None
        if name in NEUTRAL_METRICS:
            direction = "neutral"
        elif (n > o) != (name in HIGHER_IS_BETTER):
            direction = "worse"
        else:
            direction = "better"
        threshold = merged_thresholds.get(name, default_threshold)
        regressed = direction == "worse" and (
            rel is None or abs(rel) > threshold
        )
        deltas.append(MetricDelta(
            name=name, old=o, new=n, abs_delta=abs_delta, rel_delta=rel,
            direction=direction, threshold=threshold, regressed=regressed,
        ))
    params_old = old.get("params", {})
    params_new = new.get("params", {})
    param_changes = tuple(sorted(
        k for k in set(params_old) | set(params_new)
        if params_old.get(k) != params_new.get(k)
    ))
    return DiffResult(
        old_name=old.get("name", "?"),
        new_name=new.get("name", "?"),
        deltas=tuple(deltas),
        added=tuple(sorted(set(new_c) - set(old_c))),
        removed=tuple(sorted(set(old_c) - set(new_c))),
        param_changes=param_changes,
    )


def gate_directories(
    baseline_dir: str | Path, current_dir: str | Path
) -> tuple[list[str], bool]:
    """Regression-gate every ``BENCH_*.json`` metrics document in
    ``current_dir`` against its same-named baseline in ``baseline_dir``,
    at the per-metric :data:`DEFAULT_THRESHOLDS`.

    Returns ``(messages, ok)``: one message per regressed metric,
    invalid document, or document missing a baseline counterpart
    (missing baselines are reported but do not fail the gate — new
    benchmarks are not regressions).  ``ok`` is False iff any metric
    regressed or a document failed validation.
    """
    baseline_dir, current_dir = Path(baseline_dir), Path(current_dir)
    messages: list[str] = []
    ok = True
    for cur_path in sorted(current_dir.glob("BENCH_*.json")):
        base_path = baseline_dir / cur_path.name
        if not base_path.exists():
            messages.append(f"{cur_path.name}: no baseline (new benchmark?)")
            continue
        try:
            base = read_metrics(base_path)
            cur = read_metrics(cur_path)
        except MetricsError as exc:
            messages.append(str(exc))
            ok = False
            continue
        result = diff_metrics(base, cur)
        for d in result.regressions:
            messages.append(f"{cur_path.name}: {d.describe()}")
            ok = False
    return messages, ok
