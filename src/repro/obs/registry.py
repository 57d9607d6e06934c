"""Metric name registry: every well-known counter in one place.

Names are dotted lowercase paths grouped by subsystem prefix —
``part.*`` for the partitioner, ``tw.*`` for the Time Warp kernel,
``seq.*`` for the sequential baseline, ``bench.*`` for harness-level
quantities.  Two derived suffixes are conventions, not separate
registrations: ``<name>.max`` (a running maximum recorded via
:meth:`~repro.obs.recorder.Recorder.observe_max`) and
``<phase>.calls`` (phase entry counts).

The registry is documentation-with-teeth: ``docs/observability.md``
renders it, and the test suite asserts that every counter the
instrumented code emits is registered here (or is a derived suffix of a
registered name), so a metric cannot silently drift out of the docs.
"""

from __future__ import annotations

__all__ = [
    "METRIC_REGISTRY",
    "PHASE_REGISTRY",
    "HOST_VALUE_REGISTRY",
    "TRACE_FIELD_REGISTRY",
    "is_registered",
]

#: counter / maximum names -> one-line meaning
METRIC_REGISTRY: dict[str, str] = {
    # -- partitioner (repro.core) -----------------------------------------
    "part.cone.cones": "input cones discovered by cone partitioning",
    "part.cone.roots": "clusters fed directly by a primary input",
    "part.cone.orphan_vertices": "vertices unreachable from any input, packed last",
    "part.pairing.rounds": "pairing rounds requested by the multiway driver",
    "part.pairing.pairs": "partition pairs handed to FM across all rounds",
    "part.fm.passes": "FM passes executed (all pairs, all rounds)",
    "part.fm.moves": "vertex moves retained after best-prefix rollback",
    "part.fm.gain": "total realized cut gain across all FM passes",
    "part.fm.executed": "vertex moves FM passes made on their working sets, whether or not the best prefix retained them",
    "part.fm.bound_stops": "FM passes the locked-cut bound ended: stopped before the last free vertex, or skipped before the gain fill",
    "part.fm.rebalance_moves": "vertices moved by balance repair (rebalance_pair)",
    "part.core.lambda_hits": "edges examined through the λ cache: per gain query, per edge of a vertex an FM pass decides (one walk moves its pin and locks its side), per critical edge walked by FM's delta update",
    "part.core.gain_batches": "batch move_gains() queries answered by the vectorized core",
    "part.core.gain_batch_vertices": "total vertices evaluated across batch gain queries",
    "part.core.boundary_batches": "vectorized pair-boundary extractions (pairing + FM fills)",
    "part.batch.rounds": "gather/select/apply rounds executed by batch refinement",
    "part.batch.moves": "vertex moves applied by batch refinement",
    "part.batch.gain": "total realized cut gain of applied move batches",
    "part.batch.candidates": "positive-gain move candidates across all batch rounds",
    "part.batch.conflicts": "candidates dropped by the one-destination-per-hyperedge race",
    "part.batch.balance_dropped": "candidates dropped by the prefix-sum weight filters",
    "part.batch.boundary": "boundary vertices gathered in one round (use .max)",
    "part.batch.gathered": "boundary vertices re-scored: moved, or on an edge whose empty/single-pin block pattern changed",
    "part.batch.kicks": "perturbation attempts at the greedy fixpoint (rollback on no gain)",
    "part.ml.levels": "coarsening levels built by the multilevel engine",
    "part.ml.coarse_vertices": "vertex count of the coarsest hypergraph",
    "part.ml.matched_pairs": "vertices merged into another cluster across all coarsening levels (fine - coarse; name kept from pair matching)",
    "part.ml.match_weight": "summed heavy-edge rating of the accepted cluster joins",
    "part.ml.reduction": "finest/coarsest vertex-count ratio of the hierarchy (use .max)",
    "part.ml.initial_candidates": "coarsest-level initial k-way candidates evaluated",
    "part.ml.initial_cut": "cut of the winning coarsest-level initial partition",
    "part.ml.level_cut": "cut after refining one level (use .max for the hierarchy peak)",
    "part.ml.refine_rounds": "pairing+FM improvement rounds across all multilevel levels",
    "part.ml.uncoarsen_gain": "cut improvement realized during uncoarsening refinement",
    "part.build.gates": "gates (hypergraph vertices) seen by the streamed build",
    "part.build.nets": "nets (constants included) seen by the streamed build",
    "part.build.pins": "gate input pins consumed by the streamed build",
    "part.build.edges": "hyperedges kept (nets touching >= 2 distinct gates)",
    "part.build.edge_pins": "pin incidences stored in the hyperedge CSR",
    "part.flatten.steps": "super-gates flattened to meet Formula 1",
    "part.redistribute.calls": "load-redistribution repairs attempted",
    "part.rounds": "pairing+FM improvement rounds until stability",
    "part.cut_size": "final hyperedge cut of the partition",
    "part.balanced": "1 when Formula 1 was met, else 0",
    # -- Time Warp kernel (repro.sim) -------------------------------------
    "tw.messages_sent": "positive inter-machine messages transmitted",
    "tw.anti_messages_sent": "anti-messages transmitted (cancellations)",
    "tw.env_messages": "stimulus messages pre-loaded from the environment LP",
    "tw.processed_events": "gate events processed (including later-undone work)",
    "tw.committed_events": "gate events surviving rollback (== sequential count)",
    "tw.rollbacks": "rollback episodes across all LPs",
    "tw.rolled_back_events": "gate events undone by rollbacks",
    "tw.straggler_depth": "virtual-time depth of a straggler below LP time (use .max)",
    "tw.gvt_rounds": "GVT computation / fossil-collection rounds",
    "tw.peak_checkpoint_bytes": "peak total checkpoint memory across LPs",
    "tw.wall_time": "modeled parallel wall time (max machine clock, seconds)",
    "tw.speedup": "modeled sequential wall over modeled parallel wall",
    # -- step kernel dispatch (repro.sim.kernel) ---------------------------
    "sim.kernel.batches": "LP batches the step kernel ran as array passes",
    "sim.kernel.batch_gates": "gate evals done on the step kernel's array side",
    "sim.kernel.scalar_gates": "gate evals done on the step kernel's scalar side",
    # -- sequential baseline ----------------------------------------------
    "seq.gate_evals": "gate events of the sequential reference run",
    "seq.wall_time": "modeled sequential wall time (seconds)",
    # -- streamed circuit construction (repro.circuits.stream) -------------
    "circ.gates": "gates emitted by the array-native circuit generator",
    "circ.nets": "nets allocated by the array-native circuit generator",
    "circ.pins": "gate input pins emitted by the array-native generator",
    "circ.stamps": "template instances stamped by the array-native generator",
    # -- bench harness ----------------------------------------------------
    "bench.rows": "result rows produced by the benchmark",
    "bench.best_k": "winning machine count selected by a (k, b) search",
    "bench.best_b": "winning balance factor selected by a (k, b) search",
    "bench.shape_checks_passed": "qualitative paper claims that held",
    "bench.brute_force_runs": "pre-simulation cells evaluated by brute force",
    "bench.heuristic_runs": "cells the Figure-3 heuristic actually ran",
    "bench.runs_saved": "pre-simulation runs the heuristic avoided",
    # -- observability self-metrics (repro.obs) ----------------------------
    "obs.trace.dropped": "oldest trace events evicted by ring-buffer wrap",
    "obs.span.count": "completed spans in the merged span tree (all lanes)",
    "obs.span.depth": "deepest span nesting in the merged tree (use .max)",
}

#: phase names (recorded as "<name>.calls" in counter views and as host
#: wall seconds in the opt-in host_timings channel)
PHASE_REGISTRY: dict[str, str] = {
    "partition.coarsen": "multilevel sub-round clustering + projection (all levels)",
    "partition.initial": "initial partition construction (cone, random, "
                         "or coarsest-level greedy candidates)",
    "partition.uncoarsen": "multilevel projection + per-level refinement",
    "partition.refine": "one pairing + pairwise-FM improvement cycle",
    "partition.batch_refine": "one batch data-parallel refinement call, "
                              "gather to fixpoint",
    "partition.flatten": "super-gate flattening + assignment carry-over",
    "partition.rebalance": "load redistribution / final balance repair",
    "refine.pair": "one pairwise-FM task (one pair of one round)",
    "presim.point": "one pre-simulation (k, b) grid point, end to end",
    "presim.partition": "the partitioning step of one pre-sim point",
    "presim.simulate": "the Time Warp step of one pre-sim point",
    "tw.load": "stimulus/event loading before the Time Warp main loop",
    "tw.run": "the Time Warp main loop, load to termination",
    "tw.verify": "committed-state verification against the oracle",
    "seq.run": "the sequential reference simulation",
}


#: host-only value names (recorded via
#: :meth:`~repro.obs.recorder.MetricsRecorder.record_host`, exported in
#: the quarantined ``host_timings`` channel).  These are intentionally
#: *not* accepted by :func:`is_registered`: they must never appear in
#: the deterministic counter body, and the test suite pins that.
HOST_VALUE_REGISTRY: dict[str, str] = {
    "obs.sampler.peak_rss_kb": "peak resident set size (VmHWM) sampled, kB",
    "obs.sampler.cpu_seconds": "user+system CPU of the process and reaped "
                               "children at the last sample",
    "obs.sampler.children.peak": "peak live worker child processes observed",
}


#: trace event payload fields per kind — the executable form of the
#: "Trace format" table in ``docs/observability.md``.  The kernel may
#: only emit registered fields and the analyzers
#: (:mod:`repro.obs.analyze`) may only read registered fields; the
#: test suite pins both directions, so emitters, analyzers and docs
#: cannot drift apart.
TRACE_FIELD_REGISTRY: dict[str, dict[str, str]] = {
    "exec": {
        "machine": "host machine id",
        "lp": "executing LP id",
        "wall": "sender machine modeled wall seconds after the batch",
    },
    "send": {
        "src_machine": "sending machine id",
        "dst_machine": "receiving machine id",
        "src_lp": "sending LP id (-1 = environment stimulus)",
        "dst_lp": "receiving LP id",
        "net": "boundary net the message carries",
        "recv_time": "virtual receive time",
        "sign": "+1 positive message, -1 anti-message",
        "uid": "sender-serial message uid (annihilation key)",
        "wall": "sender machine modeled wall seconds at send",
    },
    "rollback": {
        "machine": "host machine id of the victim LP",
        "lp": "victim LP id",
        "straggler_vt": "receive time of the culprit message",
        "straggler_src": "culprit sender LP (-1 = environment)",
        "straggler_machine": "culprit sender's machine (-1 = environment)",
        "straggler_uid": "culprit message uid (links to its send event)",
        "sign": "+1 straggler, -1 anti-message induced",
        "undone": "gate events the rollback undid",
        "antis": "anti-messages the rollback injected",
        "depth": "straggler depth below the LP's local virtual time",
        "wall": "victim machine modeled wall seconds after the rollback",
    },
    "gvt": {
        "round": "GVT round number",
        "gvt": "new GVT estimate (2^62 = everything committed)",
    },
    "throttle": {
        "engaged": "1 when the emergency clamp engaged, 0 on release",
        "gvt": "GVT estimate at the transition",
    },
}


def is_registered(name: str) -> bool:
    """Whether ``name`` is a registered metric, a registered phase's
    ``.calls`` counter, or a registered metric's ``.max`` maximum."""
    if name in METRIC_REGISTRY:
        return True
    if name.endswith(".max") and name[:-4] in METRIC_REGISTRY:
        return True
    if name.endswith(".calls") and name[:-6] in PHASE_REGISTRY:
        return True
    return False
