"""Extension: batch data-parallel refinement vs heap FM at 100k scale.

The batch refiner (docs/refinement.md) exists to replace heap FM's
sequential move loop with whole-boundary gather/select/apply rounds.
This benchmark makes its two claims load-bearing on the same
100k-vertex netlist-shaped hypergraph as ``bench_multilevel.py``, both
refiners driven through the multilevel engine with identical config:

* **quality gate** — the batch refiner's cut must land within 5% of
  heap FM's at equal Formula-1 balance, asserted on the *medians over
  seeds 1-3*: one seed's ratio is a chaotic draw (2% to 11% on this
  graph), so all three pairs are printed and the medians gate.  The
  emitted text states the verdict, and the assert comes last so a miss
  does not hide the gates below.  It is a miss today (~6%): ROADMAP,
  "Batch refiner's gap to heap FM" — the 5% is the claim under test
  and is not this file's to move;
* **structural speedup gate** — the batch refiner's synchronous step
  count (``part.batch.rounds``, its critical path) must be at least an
  order of magnitude below FM's sequential move count
  (``part.fm.moves``), asserted at every seed — vector width replaces
  move-by-move dependency.

The sha256 of each assignment is printed, so the partitions themselves
gate byte-for-byte with the rows.

Host seconds land in the quarantined ``host_timings`` channel; every
table row is deterministic and gates byte-for-byte under
``make_experiments_md.py --check --baseline``.
"""

import hashlib
import os
import statistics

from _shared import CFG, emit, table_rows

from bench_multilevel import build_hypergraph
from repro.bench import format_table
from repro.core import multilevel_kway_partition
from repro.hypergraph import hyperedge_cut
from repro.obs import MetricsRecorder

K = 4
B = 10.0
#: the quality gate compares median cuts over these seeds; the emitted
#: counters are the first seed's (``CFG.seed``)
SEEDS = (1, 2, 3)
#: the quality gate: batch cut <= QUALITY_MARGIN * fm cut
QUALITY_MARGIN = 1.05
#: the structural gate: fm moves >= STRUCTURAL_FACTOR * batch rounds
STRUCTURAL_FACTOR = 10


#: each refiner's step counter: its critical path
STEPS = {"batch": "part.batch.rounds", "fm": "part.fm.moves"}


def test_batch_refine_vs_fm_at_scale(benchmark):
    hg = build_hypergraph()
    assert SEEDS[0] == CFG.seed

    def sweep():
        """``{refiner: [(result, recorder) per seed]}``."""
        runs = {refiner: [] for refiner in STEPS}
        for seed in SEEDS:
            for refiner, out in runs.items():
                rec = MetricsRecorder()
                out.append((multilevel_kway_partition(
                    hg, K, B, seed=seed, refiner=refiner, recorder=rec), rec))
        return runs

    runs = benchmark.pedantic(sweep, rounds=1, iterations=1)

    steps = {refiner: [rec.as_counters()[STEPS[refiner]] for _, rec in out]
             for refiner, out in runs.items()}
    median_cut = {refiner: statistics.median(r.cut_size for r, _ in out)
                  for refiner, out in runs.items()}
    rows = []
    for i, seed in enumerate(SEEDS):
        for refiner, out in runs.items():
            r = out[i][0]
            rows.append([
                refiner, seed, r.cut_size, r.balanced, steps[refiner][i],
                hashlib.sha256(r.assignment.tobytes()).hexdigest()[:12]])
    host_timings = {
        refiner: sum(sum(rec.host_timings().values()) for _, rec in out)
        for refiner, out in runs.items()
    }
    batch, batch_rec = runs["batch"][0]
    batch_counters = batch_rec.as_counters()

    headers = ["refiner", "seed", "cut", "balanced", "steps (rounds/moves)",
               "sha256[:12]"]
    text = format_table(
        headers, rows,
        title=(
            f"Batch refinement vs heap FM under multilevel "
            f"({hg.num_vertices} vertices, {hg.num_edges} edges; "
            f"k={K}, b={B}; host cores: {os.cpu_count()})"
        ),
    )
    quality_met = median_cut["batch"] <= int(QUALITY_MARGIN * median_cut["fm"])
    text += (f"\nmedian cut over seeds {SEEDS}: "
             f"batch {median_cut['batch']}, fm {median_cut['fm']} "
             f"(gate: batch <= {QUALITY_MARGIN} x fm: "
             f"{'met' if quality_met else 'NOT MET'})")
    emit(
        "batch_refine",
        text,
        rows=table_rows(headers, rows),
        params={"circuit": "synthetic-100k", "vertices": hg.num_vertices,
                "edges": hg.num_edges, "k": K, "b": B,
                "quality_margin": QUALITY_MARGIN,
                "seeds": ",".join(map(str, SEEDS)),
                "host_cpus": os.cpu_count() or 1},
        counters={
            "part.cut_size": batch.cut_size,
            "part.balanced": int(batch.balanced),
            "part.batch.rounds": batch_counters["part.batch.rounds"],
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
            "part.fm.moves": steps["fm"][0],
        },
        host_timings=host_timings,
    )

    for refiner, out in runs.items():
        for seed, (r, _) in zip(SEEDS, out):
            # oracle: the reported cuts are the recomputed cuts
            assert r.cut_size == hyperedge_cut(hg, r.assignment)
            assert r.balanced, (
                f"{refiner} seed {seed} missed Formula 1 balance")

    # structural speedup gate: the batch critical path (synchronous
    # rounds) is an order of magnitude below FM's sequential move count
    for seed, batch_rounds, fm_moves in zip(SEEDS, steps["batch"],
                                            steps["fm"]):
        assert fm_moves >= STRUCTURAL_FACTOR * batch_rounds, (
            f"no structural speedup at seed {seed}: fm moves {fm_moves} "
            f"vs batch rounds {batch_rounds}"
        )

    # quality gate, last: median cut within 5% of heap FM's at equal
    # balance
    assert quality_met, (
        f"batch median cut {median_cut['batch']} more than "
        f"{QUALITY_MARGIN:.0%} of fm median cut {median_cut['fm']}"
    )
