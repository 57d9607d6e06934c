"""Run reports: a trace + metrics document rendered as a diagnosis.

:func:`analyze_run` drives every analyzer in :mod:`repro.obs.analyze`
over one run's artifacts (the JSONL trace and, optionally, its metrics
document) and packages the results as a :class:`RunReport`, whose
:meth:`~RunReport.render` produces a deterministic markdown report:
identical inputs give byte-identical text, so a report can itself be
golden-tested or diffed between runs.

The report speaks the registry's language — every quantity it names is
a ``docs/observability.md`` metric (``tw.rollbacks``,
``part.cut_size``, ...) or trace field, so a reader can jump from any
line of the report to the definition of what it measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .analyze import (
    Cascade,
    GvtProgress,
    Hotspot,
    LocalityMatrix,
    gvt_progress,
    message_locality,
    reconstruct_cascades,
    rollback_hotspots,
    trace_dropped,
)
from .metrics import counters_view, strip_volatile

__all__ = ["RunReport", "analyze_run"]

#: counters surfaced in the report's summary table, in render order;
#: the test suite asserts each is registered (no docs/report drift)
_SUMMARY_COUNTERS = (
    "tw.processed_events",
    "tw.committed_events",
    "tw.rollbacks",
    "tw.rolled_back_events",
    "tw.messages_sent",
    "tw.anti_messages_sent",
    "tw.gvt_rounds",
    "tw.straggler_depth.max",
    "tw.wall_time",
    "tw.speedup",
    "part.cut_size",
    "obs.trace.dropped",
)


@dataclass
class RunReport:
    """Everything :func:`analyze_run` derived from one run.

    ``commit_efficiency`` is committed over processed events (1.0 means
    no work was ever rolled back); ``None`` when no metrics document
    was supplied and the trace alone cannot recover totals (a bounded
    ring may have evicted early events).
    """

    name: str
    params: dict
    counters: dict
    trace_events: int
    hotspots: list[Hotspot] = field(default_factory=list)
    cascades: list[Cascade] = field(default_factory=list)
    locality: LocalityMatrix | None = None
    gvt: GvtProgress | None = None
    commit_efficiency: float | None = None
    #: events the bounded ring evicted before the dump — from the
    #: metrics document's ``obs.trace.dropped`` counter when available,
    #: else inferred from the first surviving sequence number
    trace_dropped: int = 0

    def render(self) -> str:
        """Deterministic markdown report (byte-identical for identical
        inputs)."""
        lines = [f"# Run report: {self.name}", ""]
        if self.params:
            lines.append("params: " + ", ".join(
                f"{k}={v}" for k, v in sorted(self.params.items())) )
            lines.append("")
        lines.append(f"trace events analyzed: {self.trace_events}")
        if self.trace_dropped:
            lines.append("")
            lines.append(
                f"**WARNING: trace truncated** — the bounded ring evicted "
                f"{self.trace_dropped} oldest event(s) "
                f"(`obs.trace.dropped`); trace-derived tables below "
                f"undercount the run's start (raise `--trace-capacity`)")
        lines.append("")

        if self.counters:
            lines += ["## Counters", "", "| metric | value |", "|---|---|"]
            for name in _SUMMARY_COUNTERS:
                if name in self.counters:
                    lines.append(f"| `{name}` | {self.counters[name]:g} |")
            lines.append("")
        if self.commit_efficiency is not None:
            lines.append(f"commit efficiency (`tw.committed_events` / "
                         f"`tw.processed_events`): "
                         f"{self.commit_efficiency:.4f}")
            lines.append("")

        lines.append("## Rollback hotspots")
        lines.append("")
        if self.hotspots:
            lines += ["| lp | partition | rollbacks | share | undone | "
                      "antis | max depth |",
                      "|---|---|---|---|---|---|---|"]
            for h in self.hotspots:
                lines.append(
                    f"| {h.lp} | {h.partition} | {h.rollbacks} | "
                    f"{h.share:.1%} | {h.undone} | {h.antis} | "
                    f"{h.max_depth} |")
        else:
            lines.append("no rollbacks in trace (`tw.rollbacks` "
                         "territory is clean)")
        lines.append("")

        lines.append("## Rollback cascades")
        lines.append("")
        if self.cascades:
            lines += ["| root seq | culprit lp | culprit partition | depth "
                      "| width | size | lps |",
                      "|---|---|---|---|---|---|---|"]
            for c in self.cascades:
                lps = ",".join(str(lp) for lp in c.lps)
                lines.append(
                    f"| {c.root_seq} | {c.culprit_lp} | "
                    f"{c.culprit_partition} | {c.depth} | {c.width} | "
                    f"{c.size} | {lps} |")
        else:
            lines.append("no cascades reconstructed")
        lines.append("")

        lines.append("## Message locality (positive messages, "
                     "by partition)")
        lines.append("")
        loc = self.locality
        if loc is not None and loc.k > 0:
            header = "| src \\ dst | " + " | ".join(
                str(j) for j in range(loc.k)) + " |"
            lines += [header, "|---" * (loc.k + 1) + "|"]
            for i, row in enumerate(loc.counts):
                lines.append(f"| {i} | " + " | ".join(
                    str(v) for v in row) + " |")
            lines.append("")
            lines.append(
                f"local {loc.local_messages} / total {loc.total_messages} "
                f"({loc.local_fraction:.1%} local), "
                f"{loc.remote_messages} remote "
                f"(`tw.messages_sent` territory; compare against the "
                f"partitioner's `part.cut_size`), "
                f"{loc.anti_messages} antis")
        else:
            lines.append("no inter-LP messages in trace")
        lines.append("")

        lines.append("## GVT progress")
        lines.append("")
        g = self.gvt
        if g is not None and g.rounds:
            done = "yes" if g.completed else "no"
            lines.append(
                f"rounds {g.rounds} (`tw.gvt_rounds`), first GVT "
                f"{g.first_gvt}, final {g.final_gvt}, completed {done}, "
                f"advance rate {g.advance_rate:.3f} ticks/round")
            if g.stalls:
                lines.append("")
                lines.append("stall windows (no GVT advance):")
                for s in g.stalls:
                    lines.append(
                        f"- rounds {s.start_round}-{s.end_round} "
                        f"({s.rounds} stalled) at gvt={s.gvt}")
            else:
                lines.append("no stall windows")
        else:
            lines.append("no gvt events in trace")
        lines.append("")
        return "\n".join(lines)


def analyze_run(
    events: list[dict],
    metrics: dict | None = None,
    *,
    top: int = 5,
) -> RunReport:
    """Run every analyzer over one run's trace (and optional metrics).

    Parameters
    ----------
    events:
        Parsed trace events (:func:`repro.obs.analyze.load_trace`).
    metrics:
        The run's metrics document, for totals the bounded trace cannot
        carry (volatile fields are ignored here, so reports are
        byte-identical across re-runs).
    top:
        Hotspot ranking length.
    """
    name = "trace"
    params: dict = {}
    counters: dict = {}
    commit_efficiency = None
    dropped = trace_dropped(events)
    if metrics is not None:
        doc = strip_volatile(metrics)
        name = doc.get("name", name)
        params = dict(doc.get("params", {}))
        counters = counters_view(doc)
        processed = counters.get("tw.processed_events")
        committed = counters.get("tw.committed_events")
        if processed:
            commit_efficiency = committed / processed if committed is not None else None
        # the counter is authoritative when the run recorded it — the
        # seq-gap inference only covers metrics-less traces
        if "obs.trace.dropped" in counters:
            dropped = int(counters["obs.trace.dropped"])
    return RunReport(
        name=name,
        params=params,
        counters=counters,
        trace_events=len(events),
        hotspots=rollback_hotspots(events, top=top),
        cascades=reconstruct_cascades(events),
        locality=message_locality(events),
        gvt=gvt_progress(events),
        commit_efficiency=commit_efficiency,
        trace_dropped=dropped,
    )
