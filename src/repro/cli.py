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
* ``obs`` — trace analysis & regression gates: ``report`` / ``diff`` /
  ``hotspots`` / ``timeline`` / ``selfcheck`` over ``--trace`` /
  ``--metrics`` artifacts

``--metrics`` runs record under a span-capable recorder, so their
documents carry a ``spans`` timeline (one lane per worker process) that
``obs timeline`` exports as Chrome-trace JSON for Perfetto; add
``--sample-resources`` to quarantine peak RSS / CPU readings in the
``host_timings`` channel.  See docs/observability.md.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .errors import ReproError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="Design-driven multiway partitioning for parallel "
        "gate-level Verilog simulation (Li & Tropper, ICPP 2008).",
    )
    p.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("circuits", help="list generated workload circuits")

    g = sub.add_parser("generate", help="emit a registry circuit as Verilog")
    g.add_argument("name")

    i = sub.add_parser("info", help="compile a Verilog file and report stats")
    i.add_argument("file", type=Path)
    i.add_argument("--top", default=None)
    i.add_argument("--tree", action="store_true", help="print the instance tree")
    i.add_argument("--stats", action="store_true",
                   help="structural analysis (depth, locality, fanout)")

    pa = sub.add_parser("partition", help="partition a design")
    pa.add_argument("file", type=Path)
    pa.add_argument("-k", type=int, default=2, help="number of partitions")
    pa.add_argument("-b", type=float, default=10.0, help="balance factor (%%)")
    pa.add_argument("--top", default=None)
    pa.add_argument("--seed", type=int, default=0)
    pa.add_argument(
        "--algorithm",
        choices=("design", "multilevel", "random"),
        default="design",
    )
    pa.add_argument("--pairing", default="gain",
                    choices=("random", "exhaustive", "cut", "gain"))
    pa.add_argument("--refiner", choices=("fm", "batch"), default="fm",
                    help="refinement engine: heap FM or the data-parallel "
                         "batch refiner (design and multilevel algorithms; "
                         "see docs/refinement.md)")
    pa.add_argument("--assignment-out", type=Path, default=None,
                    help="write '<gate name> <partition>' lines here")
    pa.add_argument("--save", type=Path, default=None,
                    help="save the partition as reusable JSON "
                         "(design algorithm only)")
    pa.add_argument("--metrics", type=Path, default=None, metavar="PATH",
                    help="write a schema-versioned metrics JSON document "
                         "(part.* counters + spans timeline; see "
                         "docs/observability.md)")
    pa.add_argument("--sample-resources", action="store_true",
                    help="sample /proc on a background thread while "
                         "partitioning (peak RSS, CPU, child processes); "
                         "readings land in the host_timings channel")

    o = sub.add_parser("optimize", help="constant-prop + dead-gate cleanup")
    o.add_argument("file", type=Path)
    o.add_argument("--top", default=None)
    o.add_argument("-o", "--output", type=Path, default=None,
                   help="write the optimized flat Verilog here")

    s = sub.add_parser("simulate", help="sequential reference simulation")
    s.add_argument("file", type=Path)
    s.add_argument("--top", default=None)
    s.add_argument("--vectors", type=int, default=100)
    s.add_argument("--seed", type=int, default=0)

    ps = sub.add_parser("psim", help="partition + parallel Time Warp simulation")
    ps.add_argument("file", type=Path)
    ps.add_argument("-k", type=int, default=2)
    ps.add_argument("-b", type=float, default=10.0)
    ps.add_argument("--top", default=None)
    ps.add_argument("--vectors", type=int, default=100)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--aggressive", action="store_true",
                    help="classic aggressive cancellation instead of lazy")
    ps.add_argument("--partition", type=Path, default=None,
                    help="reuse a partition saved with 'partition --save'")
    ps.add_argument("--refiner", choices=("fm", "batch"), default="fm",
                    help="refinement engine for the partitioning step "
                         "(see docs/refinement.md)")
    ps.add_argument("--conservative", action="store_true",
                    help="idealized conservative mode (no rollbacks)")
    ps.add_argument("--metrics", type=Path, default=None, metavar="PATH",
                    help="write a schema-versioned metrics JSON document "
                         "(part.*/tw.*/seq.* counters + spans timeline; "
                         "see docs/observability.md)")
    ps.add_argument("--sample-resources", action="store_true",
                    help="sample /proc on a background thread during the "
                         "run (peak RSS, CPU, child processes); readings "
                         "land in the host_timings channel")
    ps.add_argument("--trace", type=Path, default=None, metavar="PATH",
                    help="dump the kernel's bounded event trace as JSONL "
                         "(exec/send/rollback/gvt/migrate events)")
    ps.add_argument("--trace-capacity", type=int, default=65536,
                    help="event-trace ring-buffer size (default: 65536; "
                         "oldest events drop first)")
    ps.add_argument("--progress", action="store_true",
                    help="print a throttled live status line to stderr "
                         "(GVT, events/sec, rollback rate); never "
                         "changes results")

    sw = sub.add_parser("sweep", help="full (k, b) grid, optionally "
                                      "across processes")
    sw.add_argument("file", type=Path)
    sw.add_argument("--top", default=None)
    sw.add_argument("--ks", default="2,3,4",
                    help="comma-separated machine counts")
    sw.add_argument("--bs", default="2.5,5,7.5,10,12.5,15",
                    help="comma-separated balance factors")
    sw.add_argument("--vectors", type=int, default=40)
    sw.add_argument("--seed", type=int, default=1)
    sw.add_argument("--workers", type=int, default=None,
                    help="grid process count (default: REPRO_WORKERS env "
                         "or serial)")
    sw.add_argument("--algorithm", choices=("design", "multilevel"),
                    default="design",
                    help="partition backend per grid cell "
                         "(default: design)")
    sw.add_argument("--refiner", choices=("fm", "batch"), default="fm",
                    help="refinement engine per grid cell "
                         "(see docs/refinement.md)")
    sw.add_argument("--metrics-out", type=Path, default=None, metavar="PATH",
                    help="write the grid as a schema-versioned metrics "
                         "JSON document (kind=sweep, with per-cell "
                         "telemetry merged in deterministic grid order)")
    sw.add_argument("--sample-resources", action="store_true",
                    help="sample /proc on a background thread during the "
                         "sweep (peak RSS, CPU, child processes); readings "
                         "land in the host_timings channel")

    se = sub.add_parser("search", help="pre-simulation (k, b) selection")
    se.add_argument("file", type=Path)
    se.add_argument("--top", default=None)
    se.add_argument("--max-k", type=int, default=4)
    se.add_argument("--vectors", type=int, default=50)
    se.add_argument("--seed", type=int, default=0)
    se.add_argument("--heuristic", action="store_true",
                    help="use the paper's Figure-3 search")
    se.add_argument("--algorithm", choices=("design", "multilevel"),
                    default="design",
                    help="partition backend per (k, b) candidate "
                         "(default: design)")
    se.add_argument("--refiner", choices=("fm", "batch"), default="fm",
                    help="refinement engine per candidate partition "
                         "(see docs/refinement.md)")
    se.add_argument("--presim-workers", type=int, default=None,
                    metavar="N",
                    help="worker processes fanning out the (k, b) "
                         "candidates; any count yields the identical "
                         "study (default: REPRO_WORKERS env or serial)")
    se.add_argument("--metrics", type=Path, default=None, metavar="PATH",
                    help="write the study as a schema-versioned metrics "
                         "JSON document (kind=sweep, one row per "
                         "evaluated point, per-point telemetry merged)")
    se.add_argument("--sample-resources", action="store_true",
                    help="sample /proc on a background thread during the "
                         "search (peak RSS, CPU, child processes); "
                         "readings land in the host_timings channel")

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

    obsub.add_parser(
        "selfcheck",
        help="fast smoke test of every analyzer, the span layer and "
             "the timeline exporter on built-in artifacts")
    return p


def _load(args) -> "object":
    """Resolve the ``file`` argument to a netlist.

    Three spellings: a Verilog path (parsed through the full front
    end), ``circuit:NAME`` (the text registry, still parsed), or
    ``stream:NAME`` (the array-native registry — returns a
    :class:`~repro.verilog.netlist_csr.NetlistCSR` with no Verilog
    text round-trip; the only practical route to the million-gate
    scale-ladder circuits like ``stream:viterbi-xl``).
    """
    from .verilog import compile_verilog

    spec = str(args.file)
    if spec.startswith("circuit:"):
        from .circuits import load_circuit

        return load_circuit(spec[len("circuit:"):])
    if spec.startswith("stream:"):
        from .circuits import load_stream_circuit

        return load_stream_circuit(spec[len("stream:"):])
    text = args.file.read_text()
    return compile_verilog(text, top=args.top)


def _stamp() -> str:
    """Wall-clock provenance for metrics documents — the only
    non-deterministic field they carry (see docs/observability.md)."""
    from datetime import datetime, timezone

    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _start_sampler(args):
    """Begin /proc resource sampling when ``--sample-resources`` asked
    for it; returns the running sampler or None."""
    if not getattr(args, "sample_resources", False):
        return None
    from .obs import ResourceSampler

    sampler = ResourceSampler()
    sampler.start()
    return sampler


def _finish_sampler(sampler, recorder, out) -> None:
    """Stop the sampler, quarantine its readings as host values on
    ``recorder`` (a no-op for the null recorder) and print a one-line
    summary — host numbers never enter the deterministic counters."""
    if sampler is None:
        return
    sampler.stop()
    sampler.record_into(recorder)
    vals = sampler.as_host_values()
    out.write(f"resources : peak_rss={vals['obs.sampler.peak_rss_kb']:.0f} kB "
              f"cpu={vals['obs.sampler.cpu_seconds']:.2f} s "
              f"children(peak)={vals['obs.sampler.children.peak']:.0f}\n")


def _cmd_circuits(args, out) -> int:
    from .circuits import available_circuits, load_circuit

    for name in available_circuits():
        netlist = load_circuit(name)
        out.write(
            f"{name:16s} {netlist.num_gates:>7d} gates "
            f"{len(netlist.hierarchy.children):>4d} instances\n"
        )
    return 0


def _cmd_generate(args, out) -> int:
    from .circuits import circuit_source

    out.write(circuit_source(args.name))
    return 0


def _cmd_info(args, out) -> int:
    from .verilog.netlist_csr import NetlistCSR

    netlist = _load(args)
    if isinstance(netlist, NetlistCSR):
        out.write(f"top module : {netlist.top}\n")
        out.write(f"gates      : {netlist.num_gates}\n")
        out.write(f"nets       : {netlist.num_nets}\n")
        out.write(f"pins       : {netlist.num_pins}\n")
        out.write(f"inputs     : {len(netlist.inputs)}\n")
        out.write(f"outputs    : {len(netlist.outputs)}\n")
        out.write("form       : array-native (no hierarchy/name strings)\n")
        return 0
    out.write(f"top module : {netlist.top}\n")
    out.write(f"gates      : {netlist.num_gates}\n")
    out.write(f"nets       : {netlist.num_nets}\n")
    out.write(f"inputs     : {len(netlist.inputs)}\n")
    out.write(f"outputs    : {len(netlist.outputs)}\n")
    out.write(f"flip-flops : {len(netlist.sequential_gates())}\n")
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
    from .verilog.netlist_csr import NetlistCSR

    netlist = _load(args)
    if args.save is not None and args.algorithm != "design":
        print("error: --save requires --algorithm design", file=sys.stderr)
        return 1
    if isinstance(netlist, NetlistCSR) and args.algorithm == "design":
        print("error: --algorithm design needs the hierarchical object "
              "model; stream: circuits carry none (use multilevel or "
              "random)", file=sys.stderr)
        return 1
    recorder = None
    if args.metrics is not None:
        from .obs import SpanRecorder

        recorder = SpanRecorder()
    sampler = _start_sampler(args)
    if args.algorithm == "design":
        from .core import design_driven_partition
        from .obs import NULL_RECORDER

        r = design_driven_partition(
            netlist, k=args.k, b=args.b, seed=args.seed, pairing=args.pairing,
            refiner=args.refiner,
            recorder=recorder if recorder is not None else NULL_RECORDER,
        )
        cut, loads = r.cut_size, r.part_weights.tolist()
        out.write(f"algorithm : design-driven (pairing={args.pairing}, "
                  f"refiner={args.refiner})\n")
        out.write(f"balanced  : {r.balanced} (flatten steps: {r.flatten_steps})\n")
        gate_assignment = r.gate_assignment()
        if args.save is not None:
            from .core import save_partition

            save_partition(r, args.save)
            out.write(f"saved      {args.save}\n")
    elif args.algorithm == "multilevel":
        from .core import multilevel_flat_partition
        from .obs import NULL_RECORDER

        r = multilevel_flat_partition(
            netlist, args.k, args.b, seed=args.seed, refiner=args.refiner,
            recorder=recorder if recorder is not None else NULL_RECORDER,
        )
        cut, loads = r.cut_size, r.part_weights.tolist()
        gate_assignment = r.gate_assignment()
        out.write(f"algorithm : multilevel (coarsen + k-way uncoarsening, "
                  f"refiner={args.refiner})\n")
        out.write(f"balanced  : {r.balanced} "
                  f"(levels: {r.levels}, coarsest: {r.coarse_vertices})\n")
    else:
        from .baselines import random_partition
        from .hypergraph import flat_hypergraph
        from .hypergraph.metrics import hyperedge_cut
        from .hypergraph.metrics import part_weights as pw

        hg = flat_hypergraph(netlist)
        gate_assignment = random_partition(hg, args.k, seed=args.seed)
        cut = hyperedge_cut(hg, gate_assignment)
        loads = pw(hg, gate_assignment, args.k).tolist()
        out.write(f"algorithm : {args.algorithm} (flat netlist)\n")
    _finish_sampler(sampler, recorder, out)
    out.write(f"k={args.k} b={args.b}\n")
    out.write(f"cut size  : {cut}\n")
    out.write(f"loads     : {loads}\n")
    if args.assignment_out is not None:
        if isinstance(netlist, NetlistCSR):
            # streamed circuits carry no name strings; g<gid> is stable
            lines = [
                f"{netlist.gate_name(g)} {int(p)}"
                for g, p in enumerate(gate_assignment)
            ]
        else:
            lines = [
                f"{netlist.gates[g].name} {int(p)}"
                for g, p in enumerate(gate_assignment)
            ]
        args.assignment_out.write_text("\n".join(lines) + "\n")
        out.write(f"wrote      {args.assignment_out}\n")
    if args.metrics is not None:
        from .obs import metrics_document, write_metrics

        counters = {"part.cut_size": int(cut)}
        if args.algorithm in ("design", "multilevel"):
            counters["part.balanced"] = int(r.balanced)
        doc = metrics_document(
            "partition",
            kind="partition",
            params={"file": str(args.file), "algorithm": args.algorithm,
                    "k": args.k, "b": args.b, "seed": args.seed,
                    "pairing": args.pairing, "refiner": args.refiner},
            counters=counters,
            recorder=recorder,
            generated_at=_stamp(),
            include_host_timings=True,
        )
        write_metrics(args.metrics, doc)
        out.write(f"metrics    {args.metrics}\n")
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


def _cmd_simulate(args, out) -> int:
    from .circuits import random_vectors
    from .sim import SequentialSimulator, compile_circuit
    from .sim.logic import value_name

    netlist = _load(args)
    events = random_vectors(netlist, args.vectors, seed=args.seed)
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
    from .circuits import random_vectors
    from .core import design_driven_partition
    from .obs import NULL_RECORDER
    from .sim import ClusterSpec, TimeWarpConfig, compile_circuit, run_partitioned

    recorder = NULL_RECORDER
    if args.metrics is not None:
        from .obs import SpanRecorder

        recorder = SpanRecorder()
    trace = None
    if args.trace is not None:
        from .errors import ConfigError
        from .obs import TraceBuffer

        if args.trace_capacity < 1:
            raise ConfigError(
                f"--trace-capacity must be >= 1, got {args.trace_capacity}"
            )
        trace = TraceBuffer(capacity=args.trace_capacity)
    progress = None
    if args.progress:
        from .obs import ProgressHeartbeat

        progress = ProgressHeartbeat()  # stderr, throttled

    netlist = _load(args)
    events = random_vectors(netlist, args.vectors, seed=args.seed)
    sampler = _start_sampler(args)
    if args.partition is not None:
        from .core import load_partition

        part = load_partition(args.partition, netlist)
        k = part.k
        out.write(f"loaded partition {args.partition} (k={k}, b={part.b})\n")
    else:
        part = design_driven_partition(netlist, k=args.k, b=args.b,
                                       seed=args.seed,
                                       refiner=args.refiner,
                                       recorder=recorder)
        k = args.k
    clusters, machines = part.to_simulation()
    report = run_partitioned(
        compile_circuit(netlist), clusters, machines, events,
        ClusterSpec(num_machines=k),
        TimeWarpConfig(
            lazy_cancellation=not args.aggressive,
            conservative=args.conservative,
        ),
        recorder=recorder,
        trace=trace,
        progress=progress,
    )
    if progress is not None:
        progress.close()
    _finish_sampler(sampler, recorder, out)
    out.write(f"k={k} b={part.b} cut={part.cut_size} "
              f"balanced={part.balanced}\n")
    out.write(f"sequential time : {report.sequential_wall_time:.6f} s (modeled)\n")
    out.write(f"parallel time   : {report.parallel_wall_time:.6f} s (modeled)\n")
    out.write(f"speedup         : {report.speedup:.2f}\n")
    out.write(f"messages        : {report.messages} "
              f"(+{report.anti_messages} anti)\n")
    out.write(f"rollbacks       : {report.rollbacks} "
              f"({report.rolled_back_events} events undone)\n")
    out.write(f"verified        : {report.verified}\n")
    if args.metrics is not None:
        from .obs import metrics_document, write_metrics

        doc = metrics_document(
            "psim",
            kind="run",
            params={"file": str(args.file), "k": k, "b": part.b,
                    "vectors": args.vectors, "seed": args.seed,
                    "refiner": args.refiner,
                    "lazy_cancellation": not args.aggressive,
                    "conservative": args.conservative},
            counters={"part.cut_size": part.cut_size,
                      "part.balanced": int(part.balanced)},
            recorder=recorder,
            generated_at=_stamp(),
            include_host_timings=True,
        )
        write_metrics(args.metrics, doc)
        out.write(f"metrics         : {args.metrics}\n")
    if trace is not None:
        written = trace.dump(args.trace)
        dropped = f" ({trace.dropped} dropped)" if trace.dropped else ""
        out.write(f"trace           : {args.trace} "
                  f"({written} events{dropped})\n")
    return 0


def _cmd_sweep(args, out) -> int:
    from .bench import format_table, run_presim_grid
    from .obs import NULL_RECORDER

    recorder = NULL_RECORDER
    if args.metrics_out is not None:
        from .obs import SpanRecorder

        recorder = SpanRecorder()
    source = args.file.read_text()
    ks = tuple(int(x) for x in args.ks.split(","))
    bs = tuple(float(x) for x in args.bs.split(","))
    sampler = _start_sampler(args)
    cells = run_presim_grid(
        source, ks=ks, bs=bs, n_vectors=args.vectors, seed=args.seed,
        top=args.top, workers=args.workers,
        algorithm=args.algorithm,
        refiner=args.refiner,
        recorder=recorder,
    )
    _finish_sampler(sampler, recorder, out)
    out.write(format_table(
        ["k", "b", "cut", "balanced", "time (s)", "speedup", "msgs",
         "rollbacks"],
        [[c.k, c.b, c.cut_size, c.balanced, f"{c.sim_time:.6f}",
          f"{c.speedup:.2f}", c.messages, c.rollbacks] for c in cells],
        title=f"(k, b) sweep: {args.file} ({args.vectors} vectors)",
    ) + "\n")
    best = max(cells, key=lambda c: c.speedup)
    out.write(f"\nbest: k={best.k} b={best.b} speedup={best.speedup:.2f}\n")
    if args.metrics_out is not None:
        from .obs import metrics_document, write_metrics

        doc = metrics_document(
            "sweep",
            kind="sweep",
            params={"file": str(args.file), "ks": args.ks, "bs": args.bs,
                    "vectors": args.vectors, "seed": args.seed,
                    "algorithm": args.algorithm, "refiner": args.refiner},
            counters={"bench.rows": len(cells)},
            rows=[c.to_row() for c in cells],
            recorder=recorder,
            generated_at=_stamp(),
            include_host_timings=True,
        )
        write_metrics(args.metrics_out, doc)
        out.write(f"metrics: {args.metrics_out}\n")
    return 0


def _cmd_search(args, out) -> int:
    from .circuits import random_vectors
    from .core import brute_force_presim, heuristic_presim
    from .obs import NULL_RECORDER

    recorder = NULL_RECORDER
    if args.metrics is not None:
        from .obs import SpanRecorder

        recorder = SpanRecorder()
    netlist = _load(args)
    events = random_vectors(netlist, args.vectors, seed=args.seed)
    sampler = _start_sampler(args)
    if args.heuristic:
        study = heuristic_presim(netlist, events, max_k=args.max_k,
                                 seed=args.seed,
                                 workers=args.presim_workers,
                                 algorithm=args.algorithm,
                                 refiner=args.refiner,
                                 recorder=recorder)
    else:
        study = brute_force_presim(
            netlist, events, ks=tuple(range(2, args.max_k + 1)),
            seed=args.seed,
            workers=args.presim_workers, algorithm=args.algorithm,
            refiner=args.refiner, recorder=recorder,
        )
    _finish_sampler(sampler, recorder, out)
    for p in study.points:
        out.write(f"k={p.k} b={p.b:<5} cut={p.cut_size:<6} "
                  f"time={p.sim_time:.6f}s speedup={p.speedup:.2f}\n")
    best = study.best
    out.write(f"\nbest: k={best.k} b={best.b} "
              f"(speedup {best.speedup:.2f}, {study.runs} runs)\n")
    if args.metrics is not None:
        from .obs import metrics_document, write_metrics

        doc = metrics_document(
            "search",
            kind="sweep",
            params={"file": str(args.file), "max_k": args.max_k,
                    "vectors": args.vectors, "seed": args.seed,
                    "heuristic": args.heuristic,
                    "algorithm": args.algorithm,
                    "refiner": args.refiner},
            counters={"bench.rows": len(study.points),
                      "bench.best_k": best.k, "bench.best_b": best.b},
            rows=[{"k": p.k, "b": p.b, "cut": p.cut_size,
                   "balanced": p.balanced, "sim_time": p.sim_time,
                   "speedup": p.speedup, "messages": p.messages,
                   "rollbacks": p.rollbacks} for p in study.points],
            recorder=recorder,
            generated_at=_stamp(),
            include_host_timings=True,
        )
        write_metrics(args.metrics, doc)
        out.write(f"metrics: {args.metrics}\n")
    return 0


def _parse_thresholds(pairs: list[str]) -> dict[str, float]:
    """Parse repeated ``--threshold NAME=FRACTION`` arguments."""
    from .errors import ConfigError

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
    output = args.output
    if output is None:
        output = args.metrics.with_suffix(".trace.json")
    write_chrome_trace(output, doc)
    spans = doc.get("spans", [])
    lanes = {row["lane"] for row in spans}
    out.write(f"timeline: {output} ({len(spans)} spans, "
              f"{len(lanes)} lanes)\n")
    return 0


def _cmd_obs_selfcheck(args, out) -> int:
    """Exercise every analyzer on built-in synthetic artifacts.

    A fast, dependency-free smoke path (also run by the test suite):
    each check uses a hand-built trace or document with a known answer,
    so a failure localizes the broken analyzer immediately.
    """
    from .errors import ReproError
    from .obs import (
        TraceBuffer,
        analyze_run,
        diff_metrics,
        gvt_progress,
        message_locality,
        metrics_document,
        parse_trace,
        reconstruct_cascades,
        rollback_hotspots,
    )

    checks = 0

    def check(label: str, ok: bool) -> None:
        nonlocal checks
        if not ok:
            raise ReproError(f"obs selfcheck failed: {label}")
        checks += 1

    buf = TraceBuffer()
    buf.emit("send", src_machine=0, dst_machine=1, src_lp=0, dst_lp=1,
             src_partition=0, dst_partition=1, net=3, recv_time=10,
             sign=1, uid=7, local=False, wall=0.1)
    buf.emit("send", src_machine=1, dst_machine=1, src_lp=1, dst_lp=2,
             src_partition=1, dst_partition=1, net=4, recv_time=11,
             sign=-1, uid=3, local=True, wall=0.2)
    buf.emit("rollback", machine=1, lp=1, partition=1, straggler_vt=10,
             straggler_src=0, src_partition=0, straggler_uid=7, sign=1,
             restored_to=8, undone=5, antis=1, depth=2, wall=0.2)
    buf.emit("rollback", machine=1, lp=2, partition=1, straggler_vt=11,
             straggler_src=1, src_partition=1, straggler_uid=3, sign=-1,
             restored_to=9, undone=2, antis=0, depth=1, wall=0.3)
    buf.emit("gvt", round=1, gvt=5, checkpoint_bytes=64)
    buf.emit("gvt", round=2, gvt=5, checkpoint_bytes=64)
    buf.emit("gvt", round=3, gvt=9, checkpoint_bytes=48)
    events = parse_trace(buf.to_jsonl())

    cascades = reconstruct_cascades(events)
    check("cascade count", len(cascades) == 1)
    check("cascade shape", (cascades[0].depth, cascades[0].width,
                            cascades[0].culprit_lp) == (2, 1, 0))
    hotspots = rollback_hotspots(events)
    check("hotspot ranking", [h.lp for h in hotspots] == [1, 2])
    loc = message_locality(events)
    check("locality matrix", loc.counts == ((0, 1), (0, 0))
          and loc.anti_messages == 1)
    gvt = gvt_progress(events)
    check("gvt stalls", len(gvt.stalls) == 1
          and gvt.stalls[0].rounds == 1)

    doc = metrics_document(
        "selfcheck", kind="custom",
        counters={"tw.rollbacks": 4, "tw.processed_events": 100,
                  "tw.committed_events": 90})
    check("identity diff is empty", not diff_metrics(doc, doc).deltas)
    doctored = {**doc, "counters": {**doc["counters"], "tw.rollbacks": 5}}
    check("inflated rollbacks regress",
          diff_metrics(doc, doctored).has_regressions)
    check("report is deterministic",
          analyze_run(events, doc).render() == analyze_run(
              parse_trace(buf.to_jsonl()), doc).render())

    # --- span layer: nesting, merge, validation, timeline export ---
    from .errors import MetricsError
    from .obs import (
        SpanRecorder,
        chrome_trace,
        export_telemetry,
        merge_telemetry,
        validate_spans,
    )

    tick = iter(x * 0.5 for x in range(100))
    wall = iter(x / 10.0 for x in range(100))
    srec = SpanRecorder(clock=lambda: next(tick),
                        span_clock=lambda: next(wall))
    with srec.phase("sweep.cell"):
        with srec.phase("presim.partition"):
            pass
        # a worker-side mini-recorder, exported and merged back the way
        # the pool paths do it; its wall clock sits inside the driver's
        # open presim.simulate window so containment holds
        wwall = iter([0.32, 0.38])
        wrec = SpanRecorder(clock=lambda: 0.0,
                            span_clock=lambda: next(wwall),
                            lane="worker-1")
        with wrec.phase("refine.pair"):
            wrec.incr("part.fm.moves", 2)
        payload = export_telemetry(wrec)
        with srec.phase("presim.simulate"):
            merge_telemetry(srec, payload)
    rows = srec.span_rows()
    validate_spans(rows)
    scounters = srec.as_counters()
    check("span count", scounters["obs.span.count"] == 4)
    check("span nesting depth", scounters["obs.span.depth.max"] == 3)
    check("merged worker counter", scounters["part.fm.moves"] == 2)
    check("adopted span keeps its lane and gains a parent",
          any(r["lane"] == "worker-1" and r["parent"] is not None
              for r in rows))
    try:
        validate_spans([{"sid": 1, "parent": 99, "name": "x",
                         "lane": "main", "t0": 0.0, "t1": 1.0}])
        orphan_rejected = False
    except MetricsError:
        orphan_rejected = True
    check("orphan span rejected", orphan_rejected)

    sdoc = metrics_document("selfcheck", kind="custom", recorder=srec)
    trace_json = chrome_trace(sdoc)
    slices = [e for e in trace_json["traceEvents"] if e.get("ph") == "X"]
    check("timeline slice per span", len(slices) == len(rows))
    check("timeline lane per worker",
          len({e["tid"] for e in slices}) == 2)

    small = TraceBuffer(capacity=2)
    for r in range(3):
        small.emit("gvt", round=r, gvt=r, checkpoint_bytes=0)
    check("ring drop counter", small.dropped == 1)
    devents = parse_trace(small.to_jsonl())
    check("dropped inferred from surviving seqs",
          analyze_run(devents).trace_dropped == 1)
    ddoc = metrics_document(
        "selfcheck", kind="custom",
        counters={"obs.trace.dropped": small.dropped})
    check("report flags truncation",
          "trace truncated" in analyze_run(devents, ddoc).render())

    out.write(f"obs selfcheck: ok ({checks} checks)\n")
    return 0


_OBS_COMMANDS = {
    "report": _cmd_obs_report,
    "diff": _cmd_obs_diff,
    "hotspots": _cmd_obs_hotspots,
    "timeline": _cmd_obs_timeline,
    "selfcheck": _cmd_obs_selfcheck,
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
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
