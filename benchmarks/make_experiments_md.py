"""Assemble EXPERIMENTS.md from the benchmark outputs.

Run the benchmark suite first (it writes ``benchmarks/out/*.txt`` and
the machine-readable ``benchmarks/out/BENCH_*.json`` metrics documents),
then::

    python benchmarks/make_experiments_md.py            # regenerate
    python benchmarks/make_experiments_md.py --check    # CI freshness gate

``--check`` rebuilds the document in memory, validates every metrics
JSON against the schema (``repro.obs.validate_metrics``) and against the
registries (every counter and host value must be registered), and exits
non-zero if the committed EXPERIMENTS.md differs from what the current
outputs would produce — i.e. someone changed a benchmark without
regenerating the document.

``--check --baseline DIR`` additionally runs the regression gate
(``repro.obs.diffing``): every ``BENCH_*.json`` under ``benchmarks/out``
is compared against its same-named counterpart in ``DIR`` and the check
exits non-zero when any registered metric moved past its threshold in
the bad direction (>10 % more ``tw.rollbacks``, a larger
``part.cut_size``, a smaller ``tw.speedup``, ...).  The intended CI
flow — the checked-in documents are the baseline::

    git stash -- benchmarks/out && cp -r benchmarks/out /tmp/baseline \\
        && git stash pop          # or: git worktree / a clean checkout
    pytest benchmarks/ --benchmark-only -s        # fresh run
    python benchmarks/make_experiments_md.py --check --baseline /tmp/baseline

The document records paper-vs-measured for every table and figure plus
the ablations, with the scaling context needed to read the comparison.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

try:
    from repro.obs import MetricsError, gate_directories, read_metrics
except ImportError:  # direct script run without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).parent.parent / "src"))
    from repro.obs import MetricsError, gate_directories, read_metrics
from repro.obs.registry import HOST_VALUE_REGISTRY, is_registered

OUT = Path(__file__).parent / "out"
TARGET = Path(__file__).parent.parent / "EXPERIMENTS.md"

HEADER = """\
# EXPERIMENTS — paper vs measured

Reproduction of every table and figure in the evaluation section of
*"A Multiway Partitioning Algorithm for Parallel Gate Level Verilog
Simulation"* (Li & Tropper, ICPP 2008).  Regenerate everything with::

    pytest benchmarks/ --benchmark-only -s
    python benchmarks/make_experiments_md.py

## Scaling context (read this first)

| | paper | this reproduction |
|---|---|---|
| circuit | RPI synthesized Viterbi decoder, 388 modules, ~1.2 M gates | synthetic hierarchical Viterbi (`viterbi-single`): 1 decoder, 40 top-level instances, 4 322 gates; Table 2 runs on `viterbi-paper-single`, 1 decoder with the paper's 388 instances and 91 306 gates (partitioning only) |
| platform | 4x AMD Athlon 1 GHz / 512 MB, 1 Gb Ethernet, MPICH, DVS+OOCTW | deterministic virtual cluster: 2 µs/event, 40 µs/message sender CPU, 120 µs latency; Clustered Time Warp kernel |
| vectors | 10 000 pre-sim / 1 000 000 full | 60 pre-sim / 600 full (same 10:1 ratio family, laptop-scale) |
| timing | wall-clock seconds on hardware | modeled seconds (bit-reproducible) |

Absolute cut sizes scale with circuit size and absolute times with the
cost model; the reproduction targets are the paper's *qualitative
results*: who wins, what trends in b and k, where the optimum sits.
Each section below embeds the mechanical shape checks
(`repro.bench.shape_checks_*`) that encode those claims.

Every parallel run in these experiments is verified against the
sequential oracle: identical final net values and identical committed
event counts.
"""

SECTIONS = [
    ("Table 1 — design-driven cut size", "table1_cutsize_design",
     "Paper: cut falls ~5x from b=2.5 to b=15 at every k (2428 -> 513 at "
     "k=2) and rises with k. Measured: same trends; the 'flattened' column "
     "shows where the balance constraint forced super-gate flattening."),
    ("Table 2 — a flat multilevel partitioner on the flattened netlist",
     "table2_cutsize_hmetis",
     "Paper: hMetis sits at ~2670-3195, nearly flat in b, ~4.5x above "
     "Table 1 everywhere.  Measured on viterbi-paper-single — the "
     "paper's 388 instances as one decoder, 91 306 gates — against the "
     "repo's own multilevel k-way engine "
     "(multilevel_kway_partition, refiner=fm) on the flat netlist, "
     "with the design-driven cut of the same circuit beside it: the "
     "design-driven cut is lower in aggregate (1.33x, not ~4.5x: the "
     "paper's gap is not reproduced) and at 17 of 18 points, and both "
     "sides meet Formula 1 everywhere.  The design-driven cut does not "
     "fall as b relaxes here: at this module count the balance "
     "constraint never forces a flattening.  "
     "Why these rows moved: they used to be measured on the 4k-gate "
     "viterbi-single against a separate hMetis-style "
     "recursive-bisection partitioner, since deleted.  At that scale "
     "the repo's own engine cuts less than the design-driven algorithm "
     "(1049 vs 1215 in aggregate, 0 Formula-1 violations), so the "
     "4k-gate table cannot carry the paper's claim, and the deleted "
     "comparator only passed it by being weaker (1294, 5 violations)."),
    ("Table 3 — pre-simulation time and speedup per (k, b)",
     "table3_presim",
     "Paper: b=2.5 is always worst (0.44-0.69 speedup, slower than "
     "sequential); the best point is k=4 at 1.96. Measured: the best "
     "point is k=4, b=10 at 2.04, but two shape checks fail and are "
     "reported, not reworded: b=2.5 is no longer the worst column, and "
     "k=3's best (1.45) sits below k=2's (1.64).  "
     "Why these rows moved: the Time Warp runs now take one LP per "
     "machine share (the paper's Clustered Time Warp; to_simulation()) "
     "instead of one per visible node (42-49 LPs), and state saving is "
     "charged per checkpoint byte (ClusterSpec.save_cost); the "
     "partitions and the cut column are unchanged.  A tight b flattens "
     "super-gates into more visible nodes, and as separate LPs on one "
     "machine they rolled each other back: k=4, b=2.5 made 13 823 "
     "messages and 2 073 rollbacks per node, 5 268 and 302 per machine, "
     "so the b=2.5 column rose from 0.90 / 1.10 / 1.09 to 1.15 / 1.45 / "
     "1.61.  A machine-sized LP rolls back a whole share: at k=3, "
     "b>=5 (cut 58) rollbacks fell 329 -> 144 but the events they undid "
     "doubled, 86 326 -> 174 015, and the speedup fell 1.57 -> 1.35.  "
     "At k=2, b>=10 (cut 18, no rollback either way) it is level "
     "(1.51 -> 1.50)."),
    ("Table 4 — best partition per machine count", "table4_best",
     "Paper winners: (k=2, b=12.5), (k=3, b=10), (k=4, b=7.5). Measured "
     "winners: (k=2, b=7.5), (k=3, b=2.5), (k=4, b=10).  The k=3 winner "
     "is the tightest balance, so the assert that no winner sits at "
     "b=2.5 fails and is reported.  Why these rows moved: the Table 3 "
     "rows they select from moved (one LP per machine share, state "
     "saving priced; see Table 3): k=2's winner went b=10 -> 7.5 "
     "(1.51 -> 1.64), k=3's b=5 -> 2.5 (1.57 -> 1.45), k=4 stayed at "
     "b=10 (1.72 -> 2.04)."),
    ("Table 5 — full simulation on the winners", "table5_full_sim",
     "Paper: full-run speedups 1.65/1.79/1.91, slightly below the "
     "pre-simulation predictions. Measured: 1.65 / 1.35 / 1.97, tracking "
     "the pre-simulation predictions within 0.1, but not growing with "
     "k: k=3 is the weakest.  Why these rows moved: new Table 4 winners "
     "(k=2 b=7.5, k=3 b=2.5) and one LP per machine share with state "
     "saving priced (was 1.53 / 1.60 / 1.71; see Table 3)."),
    ("Figure 5 — simulation time vs machines", "fig5_sim_time",
     "Paper: monotone decrease with visibly diminishing returns from "
     "k=2 to k=4 (hierarchy destroyed as the circuit is divided more "
     "finely). Measured: not monotone — k=3 (3.84 s) is slower than "
     "k=2 (3.14 s), so the shape check fails and is reported.  Why the "
     "points moved: they are Table 5's walls (was 3.40 / 3.25 / 3.04 "
     "s; one LP per machine share, state saving priced)."),
    ("Figure 6 — messages vs machines (per b)", "fig6_messages",
     "Paper: message counts grow with machine count and shrink as b "
     "relaxes. Measured: same ordering; the tight-b series dominates.  "
     "Why every count fell (1.7-4x): with one LP per machine share a "
     "changed boundary net is sent once per reading machine, where "
     "one LP per visible node sent it once per reading LP (k=2, b=10: "
     "3 776 -> 944)."),
    ("Figure 7 — rollbacks vs machines (per b)", "fig7_rollbacks",
     "Paper: rollbacks up to ~1.8e4, growing with machines, shrinking "
     "with b. Measured: same shape at reproduction scale.  Why every "
     "count fell (2.3-16x): LPs on one machine no longer roll each other "
     "back — a machine's share is one LP, so only cross-machine "
     "stragglers count (k=4, b=2.5: 2 143 -> 302); each rollback now "
     "undoes more work (see Table 3)."),
    ("Heuristic pre-simulation (Figure 3 / §3.4)", "heuristic_presim",
     "Paper: two pre-simulation runs sufficed for their circuit; the "
     "heuristic can be trapped in local minima. Measured: runs saved and "
     "the speedup gap vs the brute-force envelope.  The best speedup "
     "moved 1.72 -> 2.04 at the same point (one LP per machine share, "
     "state saving priced; see Table 3); runs and gap did not."),
    ("Ablation — pairing strategies (§3.1.1)", "ablation_pairing",
     "The paper lists random/exhaustive/cut/gain pairing without "
     "numbers; measured: exhaustive pairing is never worse than random. "
     "Its cost is a host wall, kept with the others in the document's "
     "host_timings (the table's time column moved there, so a "
     "regeneration reproduces the table byte for byte)."),
    ("Ablation — cone vs random initial partition (§3.3)",
     "ablation_initial",
     "Cone partitioning seeds FM with input-to-output concurrency; "
     "measured against a random initial assignment after identical "
     "refinement."),
    ("Ablation — super-gate flattening (§3.2)", "ablation_flattening",
     "With flattening disabled, tight b is simply infeasible at module "
     "granularity; enabled, the algorithm trades cut for feasibility."),
    ("Ablation — lazy vs aggressive cancellation (kernel)",
     "ablation_cancellation",
     "Not in the paper: on a deterministic cluster, lazy cancellation "
     "suppresses identical re-sends; committed work is identical by "
     "construction.  Why the rows moved: one LP per machine share, "
     "state saving priced.  The gap widened (lazy 1.46 -> 1.66, "
     "aggressive 1.43 -> 1.13): a machine-sized LP re-sends its whole "
     "boundary on re-execution, and aggressive cancellation cancels "
     "and re-sends all of it (2 771 anti-messages, was 420)."),
    ("Paper-scale partitioning (1.2 M gates)", "paper_scale",
     "The paper's headline at the paper's *gate* count: viterbi-xl "
     "(1.2 M gates, 984 instances) parsed as Verilog text so the "
     "hierarchy survives, partitioned design-driven as ~1 000 weighted "
     "visible nodes, beside the cut the flat multilevel engine reached "
     "on the same gates as anonymous vertices (read from the committed "
     "scale-ladder document, not re-run).  Asserted: every row "
     "balanced, and design below flat at the ladder's k.  The circuit "
     "has four independent channels, so its k=2 / k=4 rows are cut 4 "
     "by construction; k=3 and k=8 are the rows that test the "
     "algorithm.  Why the 388-instance table moved: Table 1 against "
     "Table 2 at the paper's module count is now the Table 2 section, "
     "on the single-decoder viterbi-paper-single.  It used to run here "
     "on the four-channel viterbi-paper, whose '25x at k=4' compared "
     "cut 4 against cut 100 at a k that divides the channel count — "
     "a construction artifact, not the algorithm.  Walls and the peak "
     "RSS (measured in a fresh process, gated below 512 MB) are host "
     "facts, kept in the document's host_timings and out of the "
     "table."),
    ("Extension — multilevel vs direct k-way at scale", "multilevel",
     "Not in the paper: the production multilevel engine "
     "(docs/multilevel.md) against a direct k-way comparator with the "
     "identical LPT seeding and FM budget, on a deterministic "
     "100k-vertex netlist-shaped hypergraph.  One gate is asserted: "
     "the multilevel cut beats or matches direct at equal Formula-1 "
     "balance; the assignment sha256 column pins the partitions "
     "themselves.  Walls live in the quarantined host_timings "
     "channel."),
    ("Extension — batch data-parallel refinement vs heap FM",
     "batch_refine",
     "Not in the paper: the whole-boundary batch refiner "
     "(docs/refinement.md, `--refiner batch`) against heap FM, both "
     "driven by the multilevel engine on the same 100k-vertex "
     "hypergraph as the multilevel extension.  Two gates are "
     "asserted: the batch cut lands within 5% of FM's at equal "
     "Formula-1 balance — on the medians over seeds 1-3, because one "
     "seed's ratio is a chaotic draw; the table's last line states "
     "the verdict — and the batch refiner's synchronous round count "
     "stays an order of magnitude below FM's sequential move count at "
     "every seed (the structural speedup — vector width replaces "
     "move-by-move dependency); the sha256 column pins all six "
     "partitions.  Walls live in the quarantined host_timings "
     "channel."),
    ("Extension — million-gate scale ladder", "scale_ladder",
     "Not in the paper's experiments but its premise: the original "
     "circuit is ~1.2M gates.  The ladder builds, hypergraphs and "
     "partitions five streamed rungs (10k -> 100k Viterbi, ~119k NoC "
     "fabric, ~124k memory controller, 1.2M Viterbi XL) entirely "
     "array-native — no Verilog text, no object netlist — one fresh "
     "process per rung so peak RSS is per-rung truth.  Two gates are "
     "asserted: build RSS overhead stays under 160 bytes per pin on "
     "every million-pin rung (the O(pins) claim), and every rung "
     "reaches a balanced k=8 partition.  Deterministic columns gate "
     "byte-for-byte; walls and RSS live in the quarantined "
     "host_timings channel.  One seed's cut is a chaotic draw, so "
     "`cut med8`, the median over seeds 1-8, is the column to compare "
     "across revisions (`-` on the XL rung, too large to partition "
     "eight more times).  See docs/performance.md, sections "
     "'Coarsening' and 'Scale ladder'."),
    ("Ablation — direct pairwise vs recursive bipartitioning (§3.1.1)",
     "ablation_direct_vs_recursive",
     "The paper chose the direct algorithm over recursion.  Measured: "
     "recursion only ever undercuts the direct algorithm by violating "
     "Formula 1 (e.g. loads [6, 1066, 308, 16] on the CPU workload); "
     "wherever it stays feasible the direct algorithm matches it."),
    ("Extension — activity-based load metric (the paper's future work)",
     "ext_load_metric",
     "The paper's conclusion names the gate-count load metric as 'not "
     "entirely adequate'; this extension balances profiled gate "
     "activity instead and compares the resulting speedups.  Why the "
     "rows moved: one LP per machine share, state saving priced; "
     "messages and rollbacks fell for the reasons under Figures 6-7.  "
     "Activity balancing now wins at k=2 (1.62 against 1.52) and still "
     "loses at k=4 (1.55 against 2.05)."),
    ("Extension — dynamic kernel policies",
     "ext_dynamic",
     "Adaptive checkpointing (part of the paper's 'responsive to "
     "changes in processor loads') edges the static run, 2.09 against "
     "2.04.  Load-driven LP migration and its 'skewed' placement rows "
     "are gone with the feature: with one LP per machine share a "
     "machine never had an LP to hand away (0 migrations), and moving "
     "the shares off machine 0 only relabelled the good placement "
     "(the same 2.04).  Their asserts were deleted with what they "
     "measured, not loosened.  Every LP now keeps its machine for the "
     "whole run, as on the paper's testbed.  On one LP per visible "
     "node, before machine-share LPs: static 1.72, migration 1.41 "
     "(39 moves), skewed 0.99 rescued to 1.40 (30 moves)."),
    ("Extension — Time Warp vs conservative simulation",
     "ext_conservative",
     "Why DVS is optimistic: Time Warp lands near an idealized "
     "zero-overhead conservative bound (k=2 and k=4 within 4 %; k=3 "
     "1.35 against 2.05).  Why the rows moved: one LP per machine "
     "share, state saving priced.  The null-message estimate counts "
     "channels between LPs, so with k LPs it fell from 0.1M to under "
     "0.05M and the CMB estimate rose from 0.34-0.47 to 1.43-1.71: "
     "the assert that Time Warp beats it by 2x fails and is reported."),
    ("Extension — second workload (the paper's planned Sparc design)",
     "second_workload",
     "The paper planned to repeat the study on a synthesized CPU.  "
     "Measured on the CPU-shaped generator against the flat multilevel "
     "k-way engine (the Table 2 comparator): the design-driven cut is "
     "the lower one at k=2 and loses ground at k>=3, where the "
     "datapath's natural min-cut runs along bit slices across module "
     "boundaries — an honest limit of hierarchy-aware partitioning.  "
     "Both partitioners meet Formula 1 at every k.  The multilevel "
     "columns moved when the comparator changed from the deleted "
     "hMetis-style partitioner (37 / 71 / 89) to the multilevel engine "
     "(43 / 49 / 53).  The simulation columns moved with one LP per "
     "machine share and state saving priced: speedups 0.95 / 0.39 / "
     "0.41 -> 1.03 / 0.75 / 1.02, rollbacks 77 / 1 446 / 1 393 -> 35 / "
     "167 / 126."),
]


def unregistered_names(doc: dict) -> list[str]:
    """The counters and host values of a metrics document that no
    registry names.  A scale-ladder counter is checked without its
    ``rung.<name>.`` prefix; a ``host_timings`` key is a host value when
    its two-segment family holds one (``obs.sampler.*``), and the rest
    are the benchmark's own walls."""
    families = {".".join(n.split(".")[:2]) for n in HOST_VALUE_REGISTRY}
    counters = [name for name in doc["counters"]
                if not is_registered(re.sub(r"^rung\.[^.]+\.", "", name))]
    hosts = [name for name in doc.get("host_timings", {})
             if ".".join(name.split(".")[:2]) in families
             and name not in HOST_VALUE_REGISTRY]
    return sorted(counters + hosts)


def _metrics_note(stem: str, errors: list[str]) -> str | None:
    """One deterministic line describing a section's BENCH JSON, or
    ``None`` when the benchmark emitted no metrics document."""
    path = OUT / f"BENCH_{stem}.json"
    if not path.exists():
        return None
    try:
        doc = read_metrics(path)
    except MetricsError as exc:
        errors.append(str(exc))
        return f"*(metrics document `{path.name}` failed validation)*\n"
    errors.extend(f"{path.name}: unregistered counter or host value "
                  f"`{name}`" for name in unregistered_names(doc))
    bits = [f"schema v{doc['schema_version']}",
            f"{len(doc['counters'])} counters"]
    if "rows" in doc:
        bits.append(f"{len(doc['rows'])} rows")
    if "series" in doc:
        bits.append(f"{len(doc['series'])} series")
    return (f"Machine-readable: `benchmarks/out/{path.name}` "
            f"({', '.join(bits)}).\n")


def build_document(errors: list[str] | None = None) -> tuple[str, list[str]]:
    """Assemble the EXPERIMENTS.md text; returns (text, missing stems)."""
    errors = errors if errors is not None else []
    parts = [HEADER]
    missing = []
    for title, stem, commentary in SECTIONS:
        path = OUT / f"{stem}.txt"
        parts.append(f"\n## {title}\n")
        parts.append(commentary + "\n")
        if path.exists():
            parts.append("```text\n" + path.read_text().rstrip() + "\n```\n")
        else:
            missing.append(stem)
            parts.append("*(benchmark output missing — run the suite first)*\n")
        note = _metrics_note(stem, errors)
        if note is not None:
            parts.append(note)
    return "\n".join(parts), missing


def run_regression_gate(baseline: Path) -> int:
    """Compare every BENCH_*.json in OUT against ``baseline``; 0 if ok."""
    messages, ok = gate_directories(baseline, OUT)
    for line in messages:
        print(line)
    if not ok:
        print(f"error: regression gate failed against baseline {baseline}",
              file=sys.stderr)
        return 1
    print(f"regression gate passed against baseline {baseline}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Assemble EXPERIMENTS.md from benchmarks/out")
    parser.add_argument(
        "--check", action="store_true",
        help="verify EXPERIMENTS.md is fresh instead of rewriting it")
    parser.add_argument(
        "--baseline", type=Path, metavar="DIR", default=None,
        help="with --check: also gate benchmarks/out/BENCH_*.json against "
             "the same-named baseline documents in DIR (repro.obs.diffing)")
    args = parser.parse_args(argv)
    if args.baseline is not None and not args.check:
        parser.error("--baseline requires --check")
    errors: list[str] = []
    text, missing = build_document(errors)
    if errors:
        for e in errors:
            print(f"error: {e}", file=sys.stderr)
        return 1
    if args.check:
        if not TARGET.exists():
            print(f"error: {TARGET} does not exist; run without --check "
                  "to generate it", file=sys.stderr)
            return 1
        if TARGET.read_text() != text:
            print(f"error: {TARGET} is stale — regenerate it with "
                  f"'python {Path(__file__).name}'", file=sys.stderr)
            return 1
        print(f"{TARGET} is up to date")
        if missing:
            print("missing sections:", ", ".join(missing))
        if args.baseline is not None:
            return run_regression_gate(args.baseline)
        return 0
    TARGET.write_text(text)
    print(f"wrote {TARGET}")
    if missing:
        print("missing sections:", ", ".join(missing))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
