"""Heuristic pre-simulation (Figure 3) vs the brute-force sweep.

Paper §3.4: the heuristic sweeps b upward from 7.5 per k, abandoning a
k on the first non-improving speedup; it saves runs but "could be
trapped in the local minimum".  This benchmark measures both the saving
and the quality gap.
"""

from _shared import CFG, emit, presim_study

from repro.bench import format_kv, heuristic_vs_brute_force


def test_heuristic_vs_brute_force(benchmark):
    def compute():
        return heuristic_vs_brute_force(CFG, brute=presim_study())

    comp = benchmark.pedantic(compute, rounds=1, iterations=1)
    block = format_kv(
        {
            "brute-force runs": comp.brute.runs,
            "heuristic runs": comp.heuristic.runs,
            "runs saved": comp.runs_saved,
            "brute-force best": f"(k={comp.brute.best.k}, b={comp.brute.best.b}) "
                                 f"speedup {comp.brute.best.speedup:.2f}",
            "heuristic best": f"(k={comp.heuristic.best.k}, b={comp.heuristic.best.b}) "
                               f"speedup {comp.heuristic.best.speedup:.2f}",
            "speedup gap (local-minimum cost)": f"{comp.speedup_gap:.3f}",
        },
        title="Heuristic (Fig 3) vs brute-force pre-simulation",
    )
    emit(
        "heuristic_presim",
        block,
        counters={
            "bench.brute_force_runs": comp.brute.runs,
            "bench.heuristic_runs": comp.heuristic.runs,
            "bench.runs_saved": comp.runs_saved,
        },
        rows=[
            {"method": "brute", "k": comp.brute.best.k, "b": comp.brute.best.b,
             "speedup": comp.brute.best.speedup},
            {"method": "heuristic", "k": comp.heuristic.best.k,
             "b": comp.heuristic.best.b, "speedup": comp.heuristic.best.speedup},
        ],
    )
    assert comp.heuristic.runs <= comp.brute.runs
    assert comp.speedup_gap >= -1e-9  # brute force is the envelope
