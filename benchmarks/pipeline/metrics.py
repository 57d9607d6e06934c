"""Metric and workload declarations of the pipeline benchmark.

This table is the single source for ``BENCHMARK.json`` (``manifest()``
renders it; ``test_pipeline_bench.py`` fails when the committed file
drifts) and for the README tables.  Every per-layer metric names, in
``moves``, the end-to-end metric and workload an optimisation of it
should move — written down *before* measuring, so a later PR's claim
can be checked against it (choosing-metrics guide, section 3).
"""

from __future__ import annotations

#: seconds one contract run measures (``--seconds`` from the driver)
RUN_SECONDS = 20

#: (name, why) — names are fixed; later issues quote them
WORKLOADS: list[tuple[str, str]] = [
    ("viterbi_flow",
     "paper's whole flow on viterbi-single (4322 gates): front end, "
     "heuristic (k,b) presim search, verified Time Warp full run; "
     "simulation ~94% of the pass, partitioning ~3%"),
    ("ladder_100k",
     "array-native path at 100k gates: streamed hypergraph + multilevel "
     "8-way with batch refinement; batch_refine ~78%, coarsening ~21%, "
     "no simulation, no Verilog text"),
    ("hier_93k",
     "object-netlist path at 93k gates: parse + elaborate viterbi-paper, "
     "design-driven multiway at k=4 and k=8 (heap FM, PartitionState "
     "scalar path), compile; front end ~20%"),
    ("sim_forward_noc",
     "Time Warp doing almost only forward execution (noc-bench, 8% of "
     "events rolled back): LP agenda, gate evaluation, fossil collection"),
    ("sim_rollback_cpu",
     "Time Warp dominated by rollback (cpu8, 60% of events rolled back): "
     "checkpoint restore, lazy cancellation, anti-messages, routing"),
]

#: (name, unit, better, bound, definition) — defined, non-zero and
#: seed-steady on every workload, as the driver's contract requires
END_TO_END: list[tuple[str, str, str, float, str]] = [
    ("setup_s", "s", "lower", 0.25,
     "process start to inputs ready: import of the repro layers once, "
     "plus the median of 5 input generations (Verilog text / streamed "
     "netlist / stimulus); outside every timed pass"),
    ("wall_s", "s", "lower", 0.25,
     "median wall of one full pass of the workload's pipeline"),
    ("cpu_s", "s", "lower", 0.25,
     "median user+sys CPU of the same pass (time.process_time)"),
    ("peak_rss_mb", "MB", "lower", 0.10,
     "highest VmHWM a pass reached (the high-water mark is reset after "
     "every host-speed sample, so the kernel's temporaries do not count)"),
]

_PARTITIONED = ("ladder_100k", "hier_93k")
_SIMULATED = ("viterbi_flow", "sim_forward_noc", "sim_rollback_cpu")

#: The issue's nine end-to-end metrics with the issue's bounds: (name,
#: metric of a run it is taken from, better, kind of bound, bound,
#: workloads that have the stage — None for all).  The suite (``run.py``
#: alone) reports them per workload, and ``--compare`` holds two suite
#: documents to these bounds, not to the looser ones above, which are
#: what the driver can enforce on a single 20 s run.
SUITE_END_TO_END: list[tuple[str, str, str, str, float, tuple | None]] = [
    ("setup_s", "setup_s", "lower", "abs", 0.10, None),
    ("wall_s", "wall_s", "lower", "rel", 0.10, None),
    ("cpu_s", "cpu_s", "lower", "rel", 0.10, None),
    ("peak_rss_mb", "peak_rss_mb", "lower", "rel", 0.05, None),
    ("gates_per_s", "gates_per_s", "higher", "rel", 0.10, _PARTITIONED),
    ("events_per_s", "events_per_s", "higher", "rel", 0.10, _SIMULATED),
    ("cut", "cut", "lower", "exact", 0.0, None),
    ("modeled_speedup", "modeled_speedup", "higher", "exact", 0.0, _SIMULATED),
    ("checks_failed", "bench.checks_failed", "lower", "exact", 0.0, None),
]

_ALL = "every workload"
_SIM = "{}, {} and {}".format(*_SIMULATED)
_NONE_SIZE = "none: input size, fixed by the workload"
_NONE_IDENT = "none: exact result identity; must not change for a host-speed-only change"

#: (name, unit, better, moves)
PER_LAYER: list[tuple[str, str, str, str]] = [
    # -- quality and throughput a user sees, but which exist only on
    # -- some workloads or vary with the seed, so they carry no bound
    ("gates_per_s", "gates/s", "higher",
     "wall_s on ladder_100k and hier_93k (gates / (hypergraph build + partition))"),
    ("events_per_s", "events/s", "higher",
     f"wall_s on {_SIM} (committed events / full Time Warp run wall)"),
    ("cut", "edges", "lower", _NONE_IDENT),
    ("modeled_speedup", "ratio", "higher", _NONE_IDENT),
    # -- circuits
    ("circuits.generate_s", "s", "lower", "setup_s on viterbi_flow, hier_93k, sim_forward_noc and sim_rollback_cpu"),
    ("circuits.stream_build_s", "s", "lower", "setup_s on ladder_100k"),
    ("circuits.vectors_s", "s", "lower", f"setup_s on {_SIM}"),
    ("circuits.gates", "gates", "lower", _NONE_SIZE),
    ("circuits.input_events", "events", "lower", _NONE_SIZE),
    # -- verilog
    ("verilog.parse_s", "s", "lower", "wall_s on hier_93k (~12%); <1% elsewhere"),
    ("verilog.elaborate_s", "s", "lower", "wall_s on hier_93k (~8%); <1% elsewhere"),
    ("verilog.src_bytes", "bytes", "lower", _NONE_SIZE),
    ("verilog.gates", "gates", "lower", _NONE_SIZE),
    ("verilog.bytes_per_s", "bytes/s", "higher", "wall_s on hier_93k"),
    # -- hypergraph
    ("hypergraph.build_s", "s", "lower",
     "wall_s and gates_per_s on ladder_100k and hier_93k"),
    ("hypergraph.vertices", "count", "lower", _NONE_SIZE),
    ("hypergraph.edges", "count", "lower", _NONE_SIZE),
    ("hypergraph.pins", "count", "lower", _NONE_SIZE),
    ("hypergraph.bytes_per_pin", "B/pin", "lower",
     "peak_rss_mb on ladder_100k and hier_93k"),
    # -- core.multiway
    ("core.multiway.partition_s", "s", "lower",
     "wall_s and gates_per_s on hier_93k (~70%); <2% on the sim workloads"),
    ("core.multiway.initial_s", "s", "lower", "wall_s on hier_93k"),
    ("core.multiway.refine_s", "s", "lower", "wall_s on hier_93k (~65%)"),
    ("core.multiway.flatten_s", "s", "lower",
     "wall_s on hier_93k once balance forces flattening (0 steps today)"),
    ("core.multiway.rebalance_s", "s", "lower", "wall_s on hier_93k (<1%)"),
    ("core.multiway.fm_passes", "count", "lower", "wall_s on hier_93k"),
    ("core.multiway.fm_moves", "count", "lower", "wall_s on hier_93k"),
    ("core.multiway.lambda_hits", "count", "lower", "wall_s on hier_93k"),
    ("core.multiway.flatten_steps", "count", "lower", "wall_s on hier_93k"),
    ("core.multiway.cut", "edges", "lower", _NONE_IDENT),
    # -- core.multilevel
    ("core.multilevel.partition_s", "s", "lower",
     "wall_s and gates_per_s on ladder_100k (~97%)"),
    ("core.multilevel.coarsen_s", "s", "lower", "wall_s on ladder_100k (~17%)"),
    ("core.multilevel.initial_s", "s", "lower", "wall_s on ladder_100k (<2%)"),
    ("core.multilevel.uncoarsen_s", "s", "lower", "wall_s on ladder_100k (~80%)"),
    ("core.multilevel.levels", "count", "lower", "wall_s on ladder_100k"),
    ("core.multilevel.coarse_vertices", "count", "lower", "wall_s on ladder_100k"),
    ("core.multilevel.matched_pairs", "count", "higher", "wall_s on ladder_100k"),
    # -- core.batch_refine
    ("core.batch_refine.refine_s", "s", "lower",
     "wall_s and gates_per_s on ladder_100k (~80%); nothing on hier_93k"),
    ("core.batch_refine.rounds", "count", "lower", "wall_s on ladder_100k"),
    ("core.batch_refine.moves", "count", "higher", "wall_s on ladder_100k"),
    ("core.batch_refine.candidates", "count", "lower", "wall_s on ladder_100k"),
    ("core.batch_refine.gathered", "count", "lower", "wall_s on ladder_100k"),
    ("core.batch_refine.apply_ratio", "ratio", "higher",
     "wall_s on ladder_100k (moves / candidates: useful / attempted)"),
    # -- core.presim
    ("core.presim.search_s", "s", "lower", "wall_s on viterbi_flow (~50%)"),
    ("core.presim.points", "count", "lower", "wall_s on viterbi_flow"),
    ("core.presim.point_s", "s", "lower", "wall_s on viterbi_flow"),
    ("core.presim.partition_s", "s", "lower", "wall_s on viterbi_flow (<3%)"),
    ("core.presim.simulate_s", "s", "lower", "wall_s on viterbi_flow (~40%)"),
    ("core.presim.best_k", "count", "lower", _NONE_IDENT),
    ("core.presim.best_b", "%", "lower", _NONE_IDENT),
    # -- sim.compiled
    ("sim.compiled.compile_s", "s", "lower",
     "wall_s on hier_93k (~3%); <1% on the sim workloads"),
    ("sim.compiled.gates", "gates", "lower", _NONE_SIZE),
    # -- sim.sequential
    ("sim.sequential.run_s", "s", "lower",
     "wall_s on sim_forward_noc (~32%), viterbi_flow (~10%), sim_rollback_cpu (~12%)"),
    ("sim.sequential.gate_evals", "events", "lower", _NONE_IDENT),
    ("sim.sequential.evals_per_s", "events/s", "higher", "wall_s on sim_forward_noc"),
    # -- sim.timewarp (the full run only; presim trial runs are core.presim.simulate_s)
    ("sim.timewarp.total_s", "s", "lower", f"wall_s and events_per_s on {_SIM}"),
    ("sim.timewarp.load_s", "s", "lower", f"events_per_s on {_SIM}"),
    ("sim.timewarp.run_s", "s", "lower",
     "events_per_s: forward-path change on sim_forward_noc and viterbi_flow, "
     "rollback/cancellation change on sim_rollback_cpu"),
    ("sim.timewarp.verify_s", "s", "lower", f"events_per_s on {_SIM}"),
    ("sim.timewarp.processed_events", "events", "lower", _NONE_IDENT),
    ("sim.timewarp.committed_events", "events", "lower", _NONE_IDENT),
    ("sim.timewarp.efficiency", "ratio", "higher",
     "events_per_s = processed_per_s x efficiency, on sim_rollback_cpu most"),
    ("sim.timewarp.processed_per_s", "events/s", "higher", f"events_per_s on {_SIM}"),
    ("sim.timewarp.rollbacks", "count", "lower", _NONE_IDENT),
    ("sim.timewarp.rolled_back_events", "events", "lower", _NONE_IDENT),
    ("sim.timewarp.messages", "count", "lower", _NONE_IDENT),
    ("sim.timewarp.anti_messages", "count", "lower", _NONE_IDENT),
    ("sim.timewarp.gvt_rounds", "count", "lower", _NONE_IDENT),
    ("sim.timewarp.peak_checkpoint_bytes", "bytes", "lower",
     "peak_rss_mb on sim_rollback_cpu and sim_forward_noc"),
    ("sim.timewarp.kernel_batch_gates", "events", "higher", f"events_per_s on {_SIM}"),
    ("sim.timewarp.kernel_scalar_gates", "events", "lower", f"events_per_s on {_SIM}"),
    # -- obs
    ("obs.trace_overhead_pct", "%", "lower",
     "none: the cost of looking; budget 2% on ladder_100k, reported not gated"),
    ("obs.spans", "count", "lower", "none: size of the traced pass's span tree"),
    ("obs.span_depth", "count", "lower", "none: deepest nesting of the span tree"),
    # -- bench: noise and identity bookkeeping
    ("bench.import_s", "s", "lower", f"setup_s on {_ALL}"),
    ("bench.cold_wall_s", "s", "lower", "none: first pass of the process, excluded from medians"),
    ("bench.traced_wall_s", "s", "lower",
     "none: wall of the traced pass the layer times come from; the self_s "
     "of all layers sum to it"),
    ("bench.passes", "count", "higher", "none: measured passes behind each median"),
    ("bench.wall_iqr_pct", "%", "lower", "none: quartile spread of the untraced pass walls"),
    ("bench.loadavg_1m", "ratio", "lower", "none: host load when the run ended"),
    ("bench.host_speed", "ratio", "higher",
     "none: median over the run's untraced passes of the factor a pass's "
     "times are multiplied by and its rates divided by (reference kernel "
     "time / mean kernel time measured just before and after the pass)"),
    ("bench.host_speed_samples", "count", "higher", "none: kernel samples taken in the run"),
    ("bench.checks", "count", "higher", "none: output checks attempted"),
    ("bench.checks_failed", "count", "lower", "none: output checks failed; must stay 0"),
    ("bench.result_digest48", "hash", "lower",
     "none: first 48 bits of the sha256 over assignments, cuts, event counts "
     "and final net values; identical for identical results"),
]

#: span-tree self time per layer, from the traced pass
LAYERS = [
    "verilog", "hypergraph", "core.multiway", "core.multilevel",
    "core.batch_refine", "core.presim", "sim.compiled", "sim.sequential",
    "sim.timewarp", "bench",
]
PER_LAYER += [
    (f"{layer}.self_s", "s", "lower",
     f"wall_s on {_ALL} whose pipeline enters the layer; the self times "
     f"of all layers sum to the traced pass's wall")
    for layer in LAYERS
]


def manifest() -> dict:
    """The ``BENCHMARK.json`` document this table declares."""
    return {
        "command": ["python3", "benchmarks/pipeline/run.py"],
        "paths": ["benchmarks/pipeline"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": d, "bound": b}
            for n, u, d, b, _ in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": d} for n, u, d, _ in PER_LAYER
        ],
    }


if __name__ == "__main__":
    import json

    print(json.dumps(manifest(), indent=2))
