#!/usr/bin/env python
"""Profile one partitioner call: flat multilevel or design-driven.

``--algorithm multilevel`` (default) runs cProfile over one
``multilevel_kway_partition`` call on a named stream circuit (the
scale-ladder workload shape: streamed array-native build, batch
refiner); ``--algorithm multiway`` parses and elaborates a named text
circuit and profiles ``design_driven_partition`` on its top-level
hierarchy (the pipeline benchmark's ``hier_93k`` shape: a few hundred
fat super-gates, heap FM).  Either way it prints the top functions, the
recorder's per-phase wall breakdown, for multilevel one line per
coarsening level (vertices -> clusters, sub-rounds run, joins proposed /
dropped by the conflict rule / dropped by the cap — the result's
``level_joins``, i.e. the hierarchy the profiled call built — then the
host milliseconds of that level's ``_cluster_level`` and
``project_hypergraph`` calls, and, where the batch refiner ran, a
refinement line: the boundary at the level's first scoring, how many of
its vertices lie on a net with 1 < λ < k (the only ones the gain
kernel's per-target product reaches), and the host milliseconds in
``PartitionState.move_gains_matrix`` and in the kicks
(``repro.core.batch_refine._kick``, the re-scoring it triggers
excluded) — all taken from a second run with those kernels wrapped, so
the cProfile numbers stay unwrapped; that run also traces allocations
with :mod:`tracemalloc` and ends each level line with the MB live
before the level's refine and the peak MB during it, counted from the
run's start, so the input hypergraph is not in them — the tracing
slows allocation-heavy kernels, so the gain kernel's and the kicks'
host ms read higher than untraced; the tool exits with an error when
a wrapped kernel the run should reach records no call), and — where
FM ran — how many moves its passes tried on their working sets against
how many the best prefixes committed to the state, and how many passes
the locked-cut bound ended, or — where the batch refiner ran — how
many vertices it re-scored per round and per applied move.  This is the before/after
evidence harness for partitioner kernel work — the peer of
``tools/profile_sim.py`` on the partitioning side
(docs/performance.md records the numbers it moved).

Examples::

    PYTHONPATH=src python tools/profile_partition.py
    PYTHONPATH=src python tools/profile_partition.py \\
        --circuit viterbi-s10k --k 4 --top 30
    PYTHONPATH=src python tools/profile_partition.py --refiner fm \\
        --sort tottime
    PYTHONPATH=src python tools/profile_partition.py --algorithm multiway \\
        --k 4
"""

from __future__ import annotations

import argparse
import cProfile
import importlib
import pstats
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import repro.core.multilevel as multilevel_mod  # noqa: E402
from repro.circuits import load_circuit, load_stream_circuit  # noqa: E402
from repro.core import (  # noqa: E402
    design_driven_partition,
    multilevel_kway_partition,
)
from repro.core.batch_refine import REFINERS, BoundaryGains  # noqa: E402
from repro.hypergraph import Clustering, PartitionState  # noqa: E402
from repro.hypergraph.build import streamed_flat_hypergraph  # noqa: E402
from repro.obs import NULL_RECORDER, MetricsRecorder  # noqa: E402

#: (``repro.core`` re-exports the function under the module's own name)
batch_refine_mod = importlib.import_module("repro.core.batch_refine")

#: default circuit per algorithm (stream registry / text registry)
DEFAULT_CIRCUIT = {"multilevel": "viterbi-s100k", "multiway": "viterbi-paper"}

#: the coarsening kernels timed per call, as ``repro.core.multilevel``
#: calls them
LEVEL_KERNELS = ("_cluster_level", "project_hypergraph")

#: the batch refiner's kernels timed per level: (owner, function, the
#: hypergraph its first argument scores — its vertex count names the
#: level)
REFINE_KERNELS = (
    (PartitionState, "move_gains_matrix", lambda state: state.hg),
    (batch_refine_mod, "_kick", lambda cache: cache.state.hg),
)


def _mid_lambda_vertices(state: PartitionState, vertices: np.ndarray) -> int:
    """How many of ``vertices`` lie on a net with 1 < λ < k."""
    edges, deg = state.hg.vertices_edges(vertices)
    lam = state.edge_lambda[edges]
    mid = (lam > 1) & (lam < state.k)
    return len(np.unique(np.repeat(vertices, deg)[mid]))


def _wrapped_run(run):
    """One more run with :data:`LEVEL_KERNELS` and
    :data:`REFINE_KERNELS` wrapped, under :mod:`tracemalloc`.  Returns
    ``(calls, by_size, boundary, memory)``: host milliseconds per call
    of each coarsening kernel, finest level first (a last call past the
    hierarchy's levels is the one the stall guard rejected); host
    milliseconds of each refinement kernel summed per hypergraph vertex
    count; per vertex count the boundary that the first
    :meth:`BoundaryGains.refresh` scored, with how many of its vertices
    lie on a 1 < λ < k net; and per vertex count the traced MB live
    when its first ``_refine_level`` began and the highest traced MB
    during any of its refines."""
    calls: dict[str, list[float]] = {name: [] for name in LEVEL_KERNELS}
    by_size: dict[str, dict[int, float]] = {
        name: defaultdict(float) for _, name, _ in REFINE_KERNELS}
    boundary: dict[int, tuple[int, int]] = {}
    memory: dict[int, tuple[float, float]] = {}
    saved = [(multilevel_mod, name, getattr(multilevel_mod, name))
             for name in LEVEL_KERNELS + ("_refine_level",)]
    saved += [(owner, name, getattr(owner, name))
              for owner, name, _ in REFINE_KERNELS]
    saved.append((BoundaryGains, "refresh", BoundaryGains.refresh))

    def per_call(name, inner):
        def call(*args):
            t0 = time.perf_counter()
            result = inner(*args)
            calls[name].append((time.perf_counter() - t0) * 1e3)
            return result
        return call

    def per_size(name, inner, graph):
        def call(first, *args):
            t0 = time.perf_counter()
            result = inner(first, *args)
            by_size[name][graph(first).num_vertices] += \
                (time.perf_counter() - t0) * 1e3
            return result
        return call

    def first_scoring(inner):
        def call(self, vertices):
            n = self.state.hg.num_vertices
            if n not in boundary:
                boundary[n] = (len(vertices),
                               _mid_lambda_vertices(self.state, vertices))
            return inner(self, vertices)
        return call

    def traced(inner):
        def call(state, *args):
            live = tracemalloc.get_traced_memory()[0] / 2**20
            tracemalloc.reset_peak()
            result = inner(state, *args)
            peak = tracemalloc.get_traced_memory()[1] / 2**20
            n = state.hg.num_vertices
            first_live, top = memory.get(n, (live, 0.0))
            memory[n] = (first_live, max(top, peak))
            return result
        return call

    for name in LEVEL_KERNELS:
        setattr(multilevel_mod, name,
                per_call(name, getattr(multilevel_mod, name)))
    for owner, name, graph in REFINE_KERNELS:
        setattr(owner, name, per_size(name, getattr(owner, name), graph))
    BoundaryGains.refresh = first_scoring(BoundaryGains.refresh)
    multilevel_mod._refine_level = traced(multilevel_mod._refine_level)
    tracemalloc.start()
    try:
        run()
    finally:
        tracemalloc.stop()
        for owner, name, func in saved:
            setattr(owner, name, func)
    return calls, by_size, boundary, memory


def _unseen_kernels(calls, by_size, boundary, memory, refiner: str,
                    levels: int) -> list[str]:
    """Wrapped kernels the second run never called — a wrapper that no
    longer intercepts its kernel (renamed, moved, or bound by a direct
    import) would otherwise print zeros as if measured."""
    seen = {"_cluster_level": calls["_cluster_level"],
            "_refine_level": memory}
    if levels:
        seen["project_hypergraph"] = calls["project_hypergraph"]
    if refiner == "batch":
        seen.update((name, by_size[name]) for _, name, _ in REFINE_KERNELS)
        seen["BoundaryGains.refresh"] = boundary
    return [name for name, got in seen.items() if not got]


def _refine_line(n: int, by_size, boundary) -> str:
    """The refinement summary of the level whose hypergraph has ``n``
    vertices ("" where the batch refiner never scored it)."""
    if n not in boundary:
        return ""
    size, mid = boundary[n]
    gains_ms, kick_ms = (by_size[name].get(n, 0.0)
                         for _, name, _ in REFINE_KERNELS)
    return (f"refinement: boundary {size} at first scoring, {mid} on a "
            f"1<λ<k net; host ms: gain kernel {gains_ms:.1f}, "
            f"kicks {kick_ms:.1f}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="cProfile one partitioner call")
    parser.add_argument("--algorithm", default="multilevel",
                        choices=sorted(DEFAULT_CIRCUIT),
                        help="multilevel: flat k-way on a stream circuit; "
                             "multiway: design-driven on a text circuit's "
                             "hierarchy (default: %(default)s)")
    parser.add_argument("--circuit", default=None,
                        help="circuit registry name (default: "
                             + ", ".join(f"{c} for {a}" for a, c
                                         in sorted(DEFAULT_CIRCUIT.items()))
                             + ")")
    parser.add_argument("--k", type=int, default=8,
                        help="partition count (default: %(default)s)")
    parser.add_argument("--b", type=float, default=5.0,
                        help="Formula-1 balance factor "
                             "(default: %(default)s)")
    parser.add_argument("--seed", type=int, default=1,
                        help="sub-round order / initial-fill seed")
    parser.add_argument("--refiner", default="batch", choices=REFINERS,
                        help="multilevel's per-level refiner; multiway "
                             "always runs heap FM (default: %(default)s)")
    parser.add_argument("--top", type=int, default=25,
                        help="functions to print")
    parser.add_argument("--sort", default="cumulative",
                        choices=("cumulative", "tottime", "calls"),
                        help="pstats sort order")
    args = parser.parse_args(argv)

    circuit = args.circuit or DEFAULT_CIRCUIT[args.algorithm]
    rec = MetricsRecorder()
    prof = cProfile.Profile()
    if args.algorithm == "multiway":
        netlist = load_circuit(circuit)
        clustering = Clustering.top_level(netlist)
        hg = clustering.hypergraph()
        print(f"circuit={circuit} gates={netlist.num_gates} "
              f"vertices={hg.num_vertices} edges={hg.num_edges} "
              f"pins={hg.num_pins} k={args.k} b={args.b}")
        result = prof.runcall(
            design_driven_partition, clustering, args.k, args.b,
            seed=args.seed, recorder=rec,
        )
        summary = (f"cut={result.cut_size} balanced={result.balanced} "
                   f"flatten_steps={result.flatten_steps} "
                   f"rounds={result.fm_rounds}")
    else:
        csr = load_stream_circuit(circuit)
        hg = streamed_flat_hypergraph(csr)
        print(f"circuit={circuit} gates={csr.num_gates} "
              f"edges={hg.num_edges} pins={hg.num_pins} "
              f"k={args.k} b={args.b} refiner={args.refiner}")

        def run(recorder=NULL_RECORDER):
            return multilevel_kway_partition(
                hg, args.k, args.b, seed=args.seed, recorder=recorder,
                refiner=args.refiner,
            )

        result = prof.runcall(run, rec)
        summary = (f"cut={result.cut_size} balanced={result.balanced} "
                   f"levels={result.levels} rounds={result.refine_rounds}")
    stats = pstats.Stats(prof, stream=sys.stdout)
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.top)

    print(summary)
    if args.algorithm == "multilevel":
        calls, by_size, boundary, memory = _wrapped_run(run)
        unseen = _unseen_kernels(calls, by_size, boundary, memory,
                                 args.refiner, result.levels)
        if unseen:
            raise SystemExit(f"the wrapped {', '.join(unseen)} recorded "
                             f"zero calls: the multilevel loop no longer "
                             f"calls them through the patched names")
        cluster_ms, project_ms = (calls[name] for name in LEVEL_KERNELS)
        for i, (fine, coarse, sub_rounds, proposed, conflict, cap) in \
                enumerate(result.level_joins):
            live, peak = memory[fine]
            print(f"level {i:2d}: {fine:8d} -> {coarse:8d} clusters, "
                  f"{sub_rounds} sub-rounds, {proposed} joins proposed, "
                  f"{conflict} dropped by conflict, {cap} by the cap; "
                  f"host ms: clustering {cluster_ms[i]:.1f}, "
                  f"projection {project_ms[i]:.1f}; traced MB: "
                  f"{live:.1f} live before refine, {peak:.1f} peak during")
            if line := _refine_line(fine, by_size, boundary):
                print(f"          {line}")
        if len(cluster_ms) > result.levels:
            print(f"level the stall guard rejected: host ms: clustering "
                  f"{cluster_ms[-1]:.1f}, projection {project_ms[-1]:.1f}")
        if line := _refine_line(result.coarse_vertices, by_size, boundary):
            print(f"coarsest ({result.coarse_vertices} vertices, every "
                  f"initial candidate): {line}")
        print(f"coarsening host ms, all calls: clustering "
              f"{sum(cluster_ms):.1f}, projection {sum(project_ms):.1f}")
        if boundary:
            gains_ms, kick_ms = (sum(by_size[name].values())
                                 for _, name, _ in REFINE_KERNELS)
            print(f"refinement host ms, all calls: gain kernel "
                  f"{gains_ms:.1f}, kicks {kick_ms:.1f}")
    counters = rec.as_counters()
    if counters.get("part.fm.passes"):
        print(f"fm: {counters['part.fm.passes']} passes "
              f"(part.fm.bound_stops={counters['part.fm.bound_stops']} "
              f"ended by the locked-cut bound), "
              f"part.fm.executed={counters['part.fm.executed']} moves tried "
              f"pass-locally, part.fm.moves={counters['part.fm.moves']} "
              f"committed, part.core.lambda_hits="
              f"{counters['part.core.lambda_hits']} (gain fills + one walk "
              f"per decided vertex + critical edges)")
    if "part.batch.rounds" in counters:
        rounds = counters["part.batch.rounds"]
        moves = counters["part.batch.moves"]
        gathered = counters.get("part.batch.gathered", 0)
        print(f"batch: {rounds} rounds, {moves} moves, "
              f"part.batch.boundary.max="
              f"{counters.get('part.batch.boundary.max', 0)}, "
              f"part.batch.gathered={gathered} re-scored "
              f"({gathered / max(rounds, 1):.1f}/round, "
              f"{gathered / max(moves, 1):.1f}/move)")
    print("phase walls:")
    for phase, wall in rec.host_timings().items():
        if phase.startswith("partition."):
            print(f"  {phase:>26}: {wall:8.3f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
