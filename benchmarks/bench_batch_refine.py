"""Extension: batch data-parallel refinement vs heap FM at 100k scale.

The batch refiner (docs/refinement.md) exists to replace heap FM's
sequential move loop with whole-boundary gather/select/apply rounds.
This benchmark makes its two claims load-bearing on the same
100k-vertex netlist-shaped hypergraph as ``bench_multilevel.py``, both
refiners driven through the multilevel engine with identical config:

* **quality gate** — the batch refiner's cut must land within 5% of
  heap FM's at equal Formula-1 balance, asserted;
* **structural speedup gate** — the batch refiner's synchronous step
  count (``part.batch.rounds``, its critical path) must be at least an
  order of magnitude below FM's sequential move count
  (``part.fm.moves``), asserted — vector width replaces move-by-move
  dependency.

The sha256 of each assignment is printed, so the partitions themselves
gate byte-for-byte with the rows.

Host seconds land in the quarantined ``host_timings`` channel; every
table row is deterministic and gates byte-for-byte under
``make_experiments_md.py --check --baseline``.
"""

import hashlib
import os

from _shared import CFG, emit, table_rows

from bench_multilevel import build_hypergraph
from repro.bench import format_table
from repro.core import multilevel_kway_partition
from repro.hypergraph import hyperedge_cut
from repro.obs import MetricsRecorder

K = 4
B = 10.0
#: the quality gate: batch cut <= QUALITY_MARGIN * fm cut
QUALITY_MARGIN = 1.05
#: the structural gate: fm moves >= STRUCTURAL_FACTOR * batch rounds
STRUCTURAL_FACTOR = 10


def test_batch_refine_vs_fm_at_scale(benchmark):
    hg = build_hypergraph()

    def sweep():
        batch_rec = MetricsRecorder()
        batch = multilevel_kway_partition(hg, K, B, seed=CFG.seed,
                                          refiner="batch",
                                          recorder=batch_rec)
        fm_rec = MetricsRecorder()
        fm = multilevel_kway_partition(hg, K, B, seed=CFG.seed,
                                       refiner="fm", recorder=fm_rec)
        return batch, batch_rec, fm, fm_rec

    batch, batch_rec, fm, fm_rec = benchmark.pedantic(sweep, rounds=1,
                                                      iterations=1)

    batch_counters = batch_rec.as_counters()
    batch_rounds = batch_counters["part.batch.rounds"]
    fm_moves = fm_rec.as_counters()["part.fm.moves"]
    rows = [
        [name, r.cut_size, r.balanced, steps,
         hashlib.sha256(r.assignment.tobytes()).hexdigest()[:12]]
        for name, r, steps in (("batch", batch, batch_rounds),
                               ("fm", fm, fm_moves))
    ]
    host_timings = {
        "batch": sum(batch_rec.host_timings().values()),
        "fm": sum(fm_rec.host_timings().values()),
    }

    headers = ["refiner", "cut", "balanced", "steps (rounds/moves)",
               "sha256[:12]"]
    emit(
        "batch_refine",
        format_table(
            headers, rows,
            title=(
                f"Batch refinement vs heap FM under multilevel "
                f"({hg.num_vertices} vertices, {hg.num_edges} edges; "
                f"k={K}, b={B}; host cores: {os.cpu_count()})"
            ),
        ),
        rows=table_rows(headers, rows),
        params={"circuit": "synthetic-100k", "vertices": hg.num_vertices,
                "edges": hg.num_edges, "k": K, "b": B,
                "quality_margin": QUALITY_MARGIN,
                "host_cpus": os.cpu_count() or 1},
        counters={
            "part.cut_size": batch.cut_size,
            "part.balanced": int(batch.balanced),
            "part.batch.rounds": batch_rounds,
            "part.batch.moves": batch_counters["part.batch.moves"],
            "part.batch.gain": batch_counters["part.batch.gain"],
            "part.batch.kicks": batch_counters["part.batch.kicks"],
            "part.batch.candidates": batch_counters["part.batch.candidates"],
            "part.batch.conflicts": batch_counters["part.batch.conflicts"],
            "part.batch.balance_dropped":
                batch_counters["part.batch.balance_dropped"],
            "part.batch.boundary.max":
                batch_counters["part.batch.boundary.max"],
            "part.batch.gathered": batch_counters["part.batch.gathered"],
            "part.fm.moves": fm_moves,
        },
        host_timings=host_timings,
    )

    # oracle: the reported cuts are the recomputed cuts
    assert batch.cut_size == hyperedge_cut(hg, batch.assignment)
    assert fm.cut_size == hyperedge_cut(hg, fm.assignment)

    # quality gate: within 5% of heap FM's cut at equal balance
    assert batch.balanced and fm.balanced
    assert batch.cut_size <= int(QUALITY_MARGIN * fm.cut_size), (
        f"batch cut {batch.cut_size} more than "
        f"{QUALITY_MARGIN:.0%} of fm cut {fm.cut_size}"
    )

    # structural speedup gate: the batch critical path (synchronous
    # rounds) is an order of magnitude below FM's sequential move count
    assert fm_moves >= STRUCTURAL_FACTOR * batch_rounds, (
        f"no structural speedup: fm moves {fm_moves} vs "
        f"batch rounds {batch_rounds}"
    )
