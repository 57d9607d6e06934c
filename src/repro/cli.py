"""Command-line interface: ``python -m repro <command>``.

Commands mirror the library's pipeline so the whole flow is scriptable
without writing Python:

* ``circuits`` — list the generated workload registry
* ``generate`` — emit a registry circuit as Verilog text
* ``info`` — compile a Verilog file, report size and hierarchy
* ``partition`` — partition a design (design-driven / multilevel / random)
* ``simulate`` — sequential reference simulation with random vectors
* ``psim`` — partition + parallel (Time Warp) simulation with speedup
* ``search`` — pre-simulation (k, b) selection, brute force or heuristic
* ``sweep`` — the full (k, b) pre-simulation grid as a table
* ``obs`` — trace analysis & regression gates: ``report`` / ``diff`` /
  ``hotspots`` / ``timeline`` over ``--trace`` / ``--metrics`` artifacts

``--metrics`` runs record every phase as a span, so their
documents carry a ``spans`` timeline (one lane per worker process) that
``obs timeline`` exports as Chrome-trace JSON for Perfetto; add
``--sample-resources`` to quarantine peak RSS / CPU readings in the
``host_timings`` channel.  See docs/observability.md.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path

from . import __version__
from .errors import ConfigError, ReproError

__all__ = ["main", "build_parser"]


def _option(*flags, **keywords) -> argparse.ArgumentParser:
    """A parent parser holding one option that several verbs share
    (a group of two adds its second argument to the returned parser)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*flags, **keywords)
    return parent


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="Design-driven multiway partitioning for parallel "
        "gate-level Verilog simulation (Li & Tropper, ICPP 2008).",
    )
    p.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    # the option groups the verbs share; the three whose default or
    # choices differ by verb are built per use
    source = _option("file", type=Path,
                     help="Verilog file, circuit:NAME (generated text, "
                          "parsed) or stream:NAME (the same circuit built "
                          "without text: same hierarchy and names)")
    source.add_argument("--top", default=None)
    kb = _option("-k", type=int, default=2, help="number of partitions")
    kb.add_argument("-b", type=float, default=10.0, help="balance factor (%%)")
    refiner = _option(
        "--refiner", choices=("fm", "batch"), default="fm",
        help="refinement engine of the partitioning step: heap FM or the "
             "data-parallel batch refiner (see docs/refinement.md)")
    metrics = _option(
        "--metrics", type=Path, default=None, metavar="PATH",
        help="write a schema-versioned metrics JSON document (the run's "
             "counters, rows and spans timeline; see docs/observability.md)")
    sampler = _option(
        "--sample-resources", action="store_true",
        help="sample /proc on a background thread during the run (peak "
             "RSS, CPU, child processes); readings land in the "
             "host_timings channel")

    def seed(default=0):
        return _option("--seed", type=int, default=default)

    def vectors(default):
        return _option("--vectors", type=int, default=default)

    def algorithm(*extra):
        return _option("--algorithm", default="design",
                       choices=("design", "multilevel") + extra,
                       help="partition backend (default: design)")

    sub.add_parser("circuits", help="list generated workload circuits")

    g = sub.add_parser("generate", help="emit a registry circuit as Verilog")
    g.add_argument("name")

    i = sub.add_parser("info", parents=[source],
                       help="compile a Verilog file and report stats")
    i.add_argument("--tree", action="store_true", help="print the instance tree")
    i.add_argument("--stats", action="store_true",
                   help="structural analysis (depth, locality, fanout)")

    pa = sub.add_parser(
        "partition", help="partition a design",
        parents=[source, kb, seed(), algorithm("random"), refiner,
                 metrics, sampler])
    pa.add_argument("--pairing", default="gain",
                    choices=("random", "exhaustive", "cut", "gain"))
    pa.add_argument("--assignment-out", type=Path, default=None,
                    help="write '<gate name> <partition>' lines here")
    pa.add_argument("--save", type=Path, default=None,
                    help="save the partition as reusable JSON "
                         "(design algorithm only)")

    o = sub.add_parser("optimize", parents=[source],
                       help="constant-prop + dead-gate cleanup")
    o.add_argument("-o", "--output", type=Path, default=None,
                   help="write the optimized flat Verilog here")

    sub.add_parser("simulate", parents=[source, vectors(100), seed()],
                   help="sequential reference simulation")

    ps = sub.add_parser(
        "psim", help="partition + parallel Time Warp simulation",
        parents=[source, kb, vectors(100), seed(), refiner, metrics,
                 sampler])
    ps.add_argument("--aggressive", action="store_true",
                    help="classic aggressive cancellation instead of lazy")
    ps.add_argument("--partition", type=Path, default=None,
                    help="reuse a partition saved with 'partition --save'")
    ps.add_argument("--conservative", action="store_true",
                    help="idealized conservative mode (no rollbacks)")
    ps.add_argument("--trace", type=Path, default=None, metavar="PATH",
                    help="dump the kernel's bounded event trace as JSONL "
                         "(exec/send/rollback/gvt/throttle events)")
    ps.add_argument("--trace-capacity", type=int, default=65536,
                    help="event-trace ring-buffer size (default: 65536; "
                         "oldest events drop first)")
    ps.add_argument("--progress", action="store_true",
                    help="print a throttled live status line to stderr "
                         "(GVT, events/sec, rollback rate); never "
                         "changes results")

    sw = sub.add_parser(
        "sweep", help="full (k, b) grid, optionally across processes",
        parents=[source, vectors(40), seed(1), algorithm(), refiner,
                 sampler])
    sw.add_argument("--ks", default="2,3,4",
                    help="comma-separated machine counts")
    sw.add_argument("--bs", default="2.5,5,7.5,10,12.5,15",
                    help="comma-separated balance factors")
    sw.add_argument("--workers", type=int, default=None,
                    help="grid process count (default: REPRO_WORKERS env "
                         "or serial)")
    sw.add_argument("--metrics-out", dest="metrics", type=Path, default=None,
                    metavar="PATH",
                    help="write the grid as a schema-versioned metrics "
                         "JSON document (kind=sweep, one row per point, "
                         "per-point telemetry merged in grid order)")

    se = sub.add_parser(
        "search", help="pre-simulation (k, b) selection",
        parents=[source, vectors(50), seed(), algorithm(), refiner,
                 metrics, sampler])
    se.add_argument("--max-k", type=int, default=4)
    se.add_argument("--heuristic", action="store_true",
                    help="use the paper's Figure-3 search")
    se.add_argument("--presim-workers", type=int, default=None,
                    metavar="N",
                    help="worker processes fanning out the (k, b) "
                         "candidates; any count yields the identical "
                         "study (default: REPRO_WORKERS env or serial)")

    ob = sub.add_parser("obs", help="trace analysis & regression gates")
    obsub = ob.add_subparsers(dest="obs_command", required=True)

    orp = obsub.add_parser(
        "report", help="full run diagnosis from a trace (+ metrics)")
    orp.add_argument("trace", type=Path, help="JSONL trace (psim --trace)")
    orp.add_argument("metrics", type=Path, nargs="?", default=None,
                     help="metrics JSON of the same run (psim --metrics)")
    orp.add_argument("--top", type=int, default=5,
                     help="hotspot ranking length (default: 5)")

    od = obsub.add_parser(
        "diff", help="compare two metrics documents; optionally gate")
    od.add_argument("old", type=Path, help="baseline metrics JSON")
    od.add_argument("new", type=Path, help="candidate metrics JSON")
    od.add_argument("--threshold", action="append", default=[],
                    metavar="NAME=FRACTION",
                    help="per-metric relative regression threshold "
                         "(repeatable), e.g. tw.rollbacks=0.25")
    od.add_argument("--default-threshold", type=float, default=None,
                    metavar="FRACTION",
                    help="threshold for metrics without an override "
                         "(default: 0.10)")
    od.add_argument("--fail-on-regression", action="store_true",
                    help="exit non-zero when any metric regressed "
                         "past its threshold")
    od.add_argument("--json", action="store_true",
                    help="print the machine-readable verdict instead "
                         "of the text report")

    oh = obsub.add_parser(
        "hotspots", help="rank LPs by rollback concentration")
    oh.add_argument("trace", type=Path, help="JSONL trace (psim --trace)")
    oh.add_argument("--top", type=int, default=10,
                    help="ranking length (default: 10)")

    ot = obsub.add_parser(
        "timeline",
        help="export a metrics document's spans as Chrome-trace JSON "
             "(open in Perfetto or chrome://tracing)")
    ot.add_argument("metrics", type=Path,
                    help="metrics JSON carrying a spans field (any "
                         "--metrics run records one)")
    ot.add_argument("-o", "--output", type=Path, default=None,
                    metavar="PATH",
                    help="trace output path (default: metrics path with "
                         "a .trace.json suffix)")
    return p


def _load(args) -> "object":
    """Resolve the ``file`` argument to a netlist: a Verilog path or
    ``circuit:NAME`` (the text registry), both parsed, or ``stream:NAME``
    (the array-native registry: no text round-trip, the quick route to
    ``stream:viterbi-xl``) — the same netlist, hierarchy and names."""
    spec = str(args.file)
    if spec.startswith("stream:"):
        from .circuits import load_stream_circuit

        return load_stream_circuit(spec[len("stream:"):])
    if spec.startswith("circuit:"):
        from .circuits import load_circuit

        return load_circuit(spec[len("circuit:"):])
    from .verilog import compile_verilog

    return compile_verilog(args.file.read_text(), top=args.top)


def _recorder_for(args):
    """A recording recorder when the verb was asked for a metrics
    document, the shared no-op otherwise."""
    from .obs import NULL_RECORDER, MetricsRecorder

    return MetricsRecorder() if args.metrics is not None else NULL_RECORDER


@contextmanager
def _sampling(args, recorder, out):
    """Sample /proc around the block when ``--sample-resources`` asked
    for it: readings are quarantined as host values on ``recorder`` (a
    no-op for the null recorder) and summarised in one line — host
    numbers never enter the deterministic counters."""
    if not args.sample_resources:
        yield
        return
    from .obs import ResourceSampler

    with ResourceSampler() as sampler:
        yield
    sampler.record_into(recorder)
    vals = sampler.as_host_values()
    out.write(f"resources : peak_rss={vals['obs.sampler.peak_rss_kb']:.0f} kB "
              f"cpu={vals['obs.sampler.cpu_seconds']:.2f} s "
              f"children(peak)={vals['obs.sampler.children.peak']:.0f}\n")


def _write_metrics(args, out, label, kind, params, counters, recorder,
                   rows=None) -> None:
    """Write the verb's metrics document when one was asked for.

    ``generated_at`` is wall-clock provenance — the only
    non-deterministic field a document carries (docs/observability.md).
    """
    if args.metrics is None:
        return
    from datetime import datetime, timezone

    from .obs import metrics_document, write_metrics

    doc = metrics_document(
        args.command,
        kind=kind,
        params={"file": str(args.file), **params},
        counters=counters,
        rows=rows,
        recorder=recorder,
        generated_at=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        include_host_timings=True,
    )
    write_metrics(args.metrics, doc)
    out.write(f"{label}{args.metrics}\n")


def _cmd_circuits(args, out) -> int:
    from .circuits import available_circuits, load_circuit

    for name in available_circuits():
        netlist = load_circuit(name)
        out.write(f"{name:16s} {netlist.num_gates:>7d} gates "
                  f"{len(netlist.hierarchy.children):>4d} instances\n")
    return 0


def _cmd_generate(args, out) -> int:
    from .circuits import circuit_source

    out.write(circuit_source(args.name))
    return 0


def _cmd_info(args, out) -> int:
    from .sim.logic import flip_flop_mask

    netlist = _load(args)
    out.write(f"top module : {netlist.top}\n")
    out.write(f"gates      : {netlist.num_gates}\n")
    out.write(f"nets       : {netlist.num_nets}\n")
    out.write(f"inputs     : {len(netlist.inputs)}\n")
    out.write(f"outputs    : {len(netlist.outputs)}\n")
    out.write(f"flip-flops : {int(flip_flop_mask(netlist).sum())}\n")
    out.write(f"instances  : {len(netlist.hierarchy.children)} (top level)\n")
    undriven = netlist.undriven_nets()
    if undriven:
        out.write(f"undriven   : {len(undriven)} nets (simulate as X)\n")
    if args.stats:
        from .hypergraph import analyze_netlist

        out.write("\n" + analyze_netlist(netlist).summary() + "\n")
    if args.tree:
        for node in netlist.hierarchy.walk():
            indent = "  " * len(node.path)
            out.write(f"{indent}{node.name} [{node.module}] "
                      f"{node.total_gates} gates\n")
    return 0


def _cmd_partition(args, out) -> int:
    design = args.algorithm == "design"
    if args.save is not None and not design:
        raise ConfigError("--save requires --algorithm design")
    netlist = _load(args)
    recorder = _recorder_for(args)
    counters = {}
    with _sampling(args, recorder, out):
        if args.algorithm == "random":  # the CLI-only floor: no result object
            from .core import random_partition
            from .hypergraph import flat_hypergraph
            from .hypergraph.metrics import hyperedge_cut, part_weights

            hg = flat_hypergraph(netlist)
            gate_assignment = random_partition(hg, args.k, seed=args.seed)
            cut = hyperedge_cut(hg, gate_assignment)
            loads = part_weights(hg, gate_assignment, args.k).tolist()
            out.write("algorithm : random (flat netlist)\n")
        else:
            from .core import partition_netlist

            r = partition_netlist(
                netlist, args.k, args.b, args.algorithm, seed=args.seed,
                pairing=args.pairing, refiner=args.refiner, recorder=recorder,
            )
            cut, loads = r.cut_size, r.part_weights.tolist()
            gate_assignment = r.gate_assignment()
            counters["part.balanced"] = int(r.balanced)
            if design:
                out.write(f"algorithm : design-driven (pairing={args.pairing}, "
                          f"refiner={args.refiner})\n")
                out.write(f"balanced  : {r.balanced} "
                          f"(flatten steps: {r.flatten_steps})\n")
            else:
                out.write("algorithm : multilevel (coarsen + k-way "
                          f"uncoarsening, refiner={args.refiner})\n")
                out.write(f"balanced  : {r.balanced} (levels: {r.levels}, "
                          f"coarsest: {r.coarse_vertices})\n")
            if args.save is not None:
                from .core import save_partition

                save_partition(r, args.save)
                out.write(f"saved      {args.save}\n")
    out.write(f"k={args.k} b={args.b}\n")
    out.write(f"cut size  : {cut}\n")
    out.write(f"loads     : {loads}\n")
    if args.assignment_out is not None:
        args.assignment_out.write_text("".join(
            f"{name} {int(p)}\n"
            for name, p in zip(netlist.gate_names, gate_assignment)))
        out.write(f"wrote      {args.assignment_out}\n")
    _write_metrics(
        args, out, "metrics    ", "partition",
        {"algorithm": args.algorithm, "k": args.k, "b": args.b,
         "seed": args.seed, "pairing": args.pairing, "refiner": args.refiner},
        {"part.cut_size": int(cut), **counters}, recorder)
    return 0


def _cmd_optimize(args, out) -> int:
    from .verilog import optimize_netlist, write_netlist_verilog

    netlist = _load(args)
    optimized, stats = optimize_netlist(netlist)
    out.write(stats.summary() + "\n")
    if args.output is not None:
        args.output.write_text(write_netlist_verilog(optimized))
        out.write(f"wrote {args.output}\n")
    return 0


def _load_with_vectors(args):
    """The netlist plus the verb's seeded random stimulus."""
    from .circuits import random_vectors

    netlist = _load(args)
    return netlist, random_vectors(netlist, args.vectors, seed=args.seed)


def _cmd_simulate(args, out) -> int:
    from .sim import SequentialSimulator, compile_circuit
    from .sim.logic import value_name

    netlist, events = _load_with_vectors(args)
    sim = SequentialSimulator(compile_circuit(netlist))
    sim.add_inputs(events)
    stats = sim.run()
    out.write(f"vectors      : {args.vectors}\n")
    out.write(f"gate events  : {stats.gate_evals}\n")
    out.write(f"net events   : {stats.net_events}\n")
    out.write(f"end time     : {stats.end_time}\n")
    values = "".join(value_name(v) for v in reversed(sim.output_values()))
    out.write(f"final outputs: {values} (MSB first)\n")
    return 0


def _cmd_psim(args, out) -> int:
    from .sim import ClusterSpec, TimeWarpConfig, compile_circuit, run_partitioned

    recorder = _recorder_for(args)
    trace = None
    if args.trace is not None:
        from .obs import TraceBuffer

        if args.trace_capacity < 1:
            raise ConfigError(
                f"--trace-capacity must be >= 1, got {args.trace_capacity}")
        trace = TraceBuffer(capacity=args.trace_capacity)
    progress = None
    if args.progress:
        from .obs import ProgressHeartbeat

        progress = ProgressHeartbeat()  # stderr, throttled

    netlist, events = _load_with_vectors(args)
    with _sampling(args, recorder, out):
        if args.partition is not None:
            from .core import load_partition

            part = load_partition(args.partition, netlist)
            out.write(f"loaded partition {args.partition} "
                      f"(k={part.k}, b={part.b})\n")
        else:
            from .core import partition_netlist

            part = partition_netlist(netlist, args.k, args.b, seed=args.seed,
                                     refiner=args.refiner, recorder=recorder)
        clusters, machines = part.to_simulation()
        report = run_partitioned(
            compile_circuit(netlist), clusters, machines, events,
            ClusterSpec(num_machines=part.k),
            TimeWarpConfig(lazy_cancellation=not args.aggressive,
                           conservative=args.conservative),
            recorder=recorder,
            trace=trace,
            progress=progress,
        )
        if progress is not None:
            progress.close()
    out.write(f"k={part.k} b={part.b} cut={part.cut_size} "
              f"balanced={part.balanced}\n")
    out.write(f"sequential time : {report.sequential_wall_time:.6f} s (modeled)\n")
    out.write(f"parallel time   : {report.parallel_wall_time:.6f} s (modeled)\n")
    out.write(f"speedup         : {report.speedup:.2f}\n")
    out.write(f"messages        : {report.messages} "
              f"(+{report.anti_messages} anti)\n")
    out.write(f"rollbacks       : {report.rollbacks} "
              f"({report.rolled_back_events} events undone)\n")
    out.write(f"verified        : {report.verified}\n")
    _write_metrics(
        args, out, "metrics         : ", "run",
        {"k": part.k, "b": part.b, "vectors": args.vectors,
         "seed": args.seed, "refiner": args.refiner,
         "lazy_cancellation": not args.aggressive,
         "conservative": args.conservative},
        {"part.cut_size": part.cut_size, "part.balanced": int(part.balanced)},
        recorder)
    if trace is not None:
        written = trace.dump(args.trace)
        dropped = f" ({trace.dropped} dropped)" if trace.dropped else ""
        out.write(f"trace           : {args.trace} "
                  f"({written} events{dropped})\n")
    return 0


def _presim_study(args, out, search, workers, **grid):
    """Run one pre-simulation search of :mod:`repro.core.presim` for
    ``sweep`` / ``search``; returns ``(study, recorder)``."""
    netlist, events = _load_with_vectors(args)
    recorder = _recorder_for(args)
    with _sampling(args, recorder, out):
        study = search(
            netlist, events, seed=args.seed, workers=workers,
            algorithm=args.algorithm, refiner=args.refiner,
            recorder=recorder, **grid)
    return study, recorder


def _write_study(args, out, study, recorder, params, counters) -> None:
    """The ``kind=sweep`` document both grid verbs write: one row per
    evaluated point, the points' telemetry merged in by the search."""
    _write_metrics(
        args, out, "metrics: ", "sweep",
        {**params, "vectors": args.vectors, "seed": args.seed,
         "algorithm": args.algorithm, "refiner": args.refiner},
        {"bench.rows": len(study.points), **counters}, recorder,
        rows=[p.to_row() for p in study.points])


def _cmd_sweep(args, out) -> int:
    from .bench import format_table
    from .core import brute_force_presim

    study, recorder = _presim_study(
        args, out, brute_force_presim, args.workers,
        ks=tuple(int(x) for x in args.ks.split(",")),
        bs=tuple(float(x) for x in args.bs.split(",")))
    out.write(format_table(
        ["k", "b", "cut", "balanced", "time (s)", "speedup", "msgs",
         "rollbacks"],
        [[p.k, p.b, p.cut_size, p.balanced, f"{p.sim_time:.6f}",
          f"{p.speedup:.2f}", p.messages, p.rollbacks]
         for p in study.points],
        title=f"(k, b) sweep: {args.file} ({args.vectors} vectors)",
    ) + "\n")
    # the table's rule: first of equals in grid order (study.best
    # breaks speedup ties toward small k, then large b)
    best = max(study.points, key=lambda p: p.speedup)
    out.write(f"\nbest: k={best.k} b={best.b} speedup={best.speedup:.2f}\n")
    _write_study(args, out, study, recorder,
                 {"ks": args.ks, "bs": args.bs}, {})
    return 0


def _cmd_search(args, out) -> int:
    from .core import brute_force_presim, heuristic_presim

    if args.heuristic:
        search, grid = heuristic_presim, {"max_k": args.max_k}
    else:
        search, grid = brute_force_presim, {"ks": range(2, args.max_k + 1)}
    study, recorder = _presim_study(args, out, search, args.presim_workers,
                                    **grid)
    for p in study.points:
        out.write(f"k={p.k} b={p.b:<5} cut={p.cut_size:<6} "
                  f"time={p.sim_time:.6f}s speedup={p.speedup:.2f}\n")
    best = study.best
    out.write(f"\nbest: k={best.k} b={best.b} "
              f"(speedup {best.speedup:.2f}, {study.runs} runs)\n")
    _write_study(args, out, study, recorder,
                 {"max_k": args.max_k, "heuristic": args.heuristic},
                 {"bench.best_k": best.k, "bench.best_b": best.b})
    return 0


def _parse_thresholds(pairs: list[str]) -> dict[str, float]:
    """Parse repeated ``--threshold NAME=FRACTION`` arguments."""
    out: dict[str, float] = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise ConfigError(
                f"--threshold expects NAME=FRACTION, got {pair!r}")
        try:
            out[name] = float(value)
        except ValueError:
            raise ConfigError(
                f"--threshold {name}: {value!r} is not a number") from None
    return out


def _cmd_obs_report(args, out) -> int:
    from .obs import analyze_run, load_trace, read_metrics

    events = load_trace(args.trace)
    metrics = read_metrics(args.metrics) if args.metrics is not None else None
    out.write(analyze_run(events, metrics, top=args.top).render())
    return 0


def _cmd_obs_diff(args, out) -> int:
    import json as _json

    from .obs import DEFAULT_THRESHOLD, diff_metrics, read_metrics

    result = diff_metrics(
        read_metrics(args.old),
        read_metrics(args.new),
        thresholds=_parse_thresholds(args.threshold),
        default_threshold=(args.default_threshold
                           if args.default_threshold is not None
                           else DEFAULT_THRESHOLD),
    )
    if args.json:
        out.write(_json.dumps(result.verdict(), indent=2, sort_keys=True)
                  + "\n")
    else:
        out.write(result.render())
    if args.fail_on_regression and result.has_regressions:
        return 1
    return 0


def _cmd_obs_hotspots(args, out) -> int:
    from .obs import load_trace, rollback_hotspots

    hotspots = rollback_hotspots(load_trace(args.trace), top=args.top)
    if not hotspots:
        out.write("no rollbacks in trace\n")
        return 0
    out.write(f"{'lp':>5} {'part':>5} {'rollbacks':>10} {'share':>7} "
              f"{'undone':>7} {'antis':>6} {'depth':>6}\n")
    for h in hotspots:
        out.write(f"{h.lp:>5} {h.partition:>5} {h.rollbacks:>10} "
                  f"{h.share:>6.1%} {h.undone:>7} {h.antis:>6} "
                  f"{h.max_depth:>6}\n")
    return 0


def _cmd_obs_timeline(args, out) -> int:
    from .obs import read_metrics, write_chrome_trace

    doc = read_metrics(args.metrics)
    output = args.output or args.metrics.with_suffix(".trace.json")
    write_chrome_trace(output, doc)
    spans = doc.get("spans", [])
    lanes = {row["lane"] for row in spans}
    out.write(f"timeline: {output} ({len(spans)} spans, "
              f"{len(lanes)} lanes)\n")
    return 0


_OBS_COMMANDS = {
    "report": _cmd_obs_report,
    "diff": _cmd_obs_diff,
    "hotspots": _cmd_obs_hotspots,
    "timeline": _cmd_obs_timeline,
}


def _cmd_obs(args, out) -> int:
    return _OBS_COMMANDS[args.obs_command](args, out)


_COMMANDS = {
    "circuits": _cmd_circuits,
    "generate": _cmd_generate,
    "info": _cmd_info,
    "partition": _cmd_partition,
    "optimize": _cmd_optimize,
    "simulate": _cmd_simulate,
    "psim": _cmd_psim,
    "sweep": _cmd_sweep,
    "search": _cmd_search,
    "obs": _cmd_obs,
}


def main(argv: list[str] | None = None, out=None) -> int:
    """CLI entry point; returns a process exit code."""
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args, out)
    except (ReproError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
