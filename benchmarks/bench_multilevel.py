"""Extension: multilevel vs direct k-way at 100k-vertex scale.

The multilevel engine (docs/multilevel.md) exists for exactly one
reason: flat FM refinement loses its global view as hypergraphs grow,
while coarsening preserves it.  This benchmark makes that claim
load-bearing on a deterministic synthetic hypergraph of 100 000
weighted vertices (sliding local windows, wide block nets, sparse
long-range pairs: the shape of a flat gate netlist):

* **quality gate** — the multilevel cut must beat or match the direct
  k-way comparator at equal Formula-1 balance (same LPT seeding, same
  FM budget; the only difference is the hierarchy), asserted;
* **digest** — the sha256 of each assignment is printed, so the
  partition itself gates byte-for-byte with the rows;
* **wall time** — host seconds per engine land in the quarantined
  ``host_timings`` channel; every table row is deterministic and gates
  byte-for-byte under ``make_experiments_md.py --check --baseline``.
"""

import hashlib
import os

import numpy as np

from _shared import CFG, emit, table_rows

from repro.bench import format_table
from repro.core import direct_kway_partition, multilevel_kway_partition
from repro.hypergraph import Hypergraph, hyperedge_cut
from repro.obs import MetricsRecorder

N_VERTICES = 100_000
K = 4
B = 10.0


def build_hypergraph(n: int = N_VERTICES, seed: int = 9) -> Hypergraph:
    """Deterministic netlist-shaped hypergraph: overlapping 3-pin
    windows (local logic), 20-pin block nets (buses/clock regions),
    and n/20 random 2-pin long wires; vertex weights 1..3."""
    rng = np.random.default_rng(seed)
    weights = rng.integers(1, 4, n).tolist()
    edges = []
    for i in range(0, n - 3, 2):
        edges.append([i, i + 1, i + 2])
    for s in range(0, n, 20):
        edges.append(list(range(s, min(s + 20, n))))
    for a, b in rng.integers(0, n, size=(n // 20, 2)).tolist():
        if a != b:
            edges.append([a, b])
    return Hypergraph.from_edges(weights, edges)


def test_multilevel_vs_direct_at_scale(benchmark):
    hg = build_hypergraph()

    def sweep():
        ml_rec = MetricsRecorder()
        ml = multilevel_kway_partition(hg, K, B, seed=CFG.seed,
                                       recorder=ml_rec)
        direct_rec = MetricsRecorder()
        direct = direct_kway_partition(hg, K, B, seed=CFG.seed,
                                       recorder=direct_rec)
        return ml, ml_rec, direct, direct_rec

    ml, ml_rec, direct, direct_rec = benchmark.pedantic(sweep, rounds=1,
                                                        iterations=1)

    rows = [
        [name, r.cut_size, r.balanced, r.levels, r.coarse_vertices,
         r.initial_cut,
         hashlib.sha256(r.assignment.tobytes()).hexdigest()[:12]]
        for name, r in (("multilevel", ml), ("direct", direct))
    ]
    host_timings = {
        "multilevel": sum(ml_rec.host_timings().values()),
        "direct": sum(direct_rec.host_timings().values()),
    }

    headers = ["engine", "cut", "balanced", "levels", "coarsest",
               "initial cut", "sha256[:12]"]
    counters = ml_rec.as_counters()
    emit(
        "multilevel",
        format_table(
            headers, rows,
            title=(
                f"Multilevel vs direct k-way "
                f"({hg.num_vertices} vertices, {hg.num_edges} edges; "
                f"k={K}, b={B}; host cores: {os.cpu_count()})"
            ),
        ),
        rows=table_rows(headers, rows),
        params={"circuit": "synthetic-100k", "vertices": hg.num_vertices,
                "edges": hg.num_edges, "k": K, "b": B,
                "host_cpus": os.cpu_count() or 1},
        counters={
            "part.cut_size": ml.cut_size,
            "part.balanced": int(ml.balanced),
            "part.ml.levels": counters["part.ml.levels"],
            "part.ml.coarse_vertices": counters["part.ml.coarse_vertices"],
            "part.ml.initial_cut": counters["part.ml.initial_cut"],
            "part.ml.refine_rounds": counters["part.ml.refine_rounds"],
            "part.ml.uncoarsen_gain": counters["part.ml.uncoarsen_gain"],
        },
        host_timings=host_timings,
    )

    # oracle: the reported cut is the recomputed cut
    assert ml.cut_size == hyperedge_cut(hg, ml.assignment)

    # quality gate: beat or match direct multiway at equal balance
    assert ml.balanced and direct.balanced
    assert ml.cut_size <= direct.cut_size, (
        f"multilevel cut {ml.cut_size} lost to direct {direct.cut_size}"
    )
