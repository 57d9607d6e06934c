"""Ablation — pairing strategies (paper §3.1.1).

The paper lists random (fast, poor), exhaustive (slow, escapes local
minima), cut-based, and gain-based pairing; it does not publish a
comparison table.  This benchmark produces one: final cut per strategy
on the Table-1 workload.  Each strategy's wall time is a host fact and
lives in the document's ``host_timings``, not in the committed table.
"""

import time

from _shared import CFG, emit, table_rows

from repro.bench import format_table
from repro.circuits import load_circuit
from repro.core import design_driven_partition


def test_pairing_strategies(benchmark):
    netlist = load_circuit(CFG.circuit)

    def sweep():
        rows = []
        walls = {}
        for strategy in ("random", "cut", "gain", "exhaustive"):
            t0 = time.perf_counter()
            r = design_driven_partition(
                netlist, k=4, b=7.5, seed=CFG.seed, pairing=strategy
            )
            walls[f"pairing.{strategy}"] = time.perf_counter() - t0
            rows.append([strategy, r.cut_size, r.balanced])
        return rows, walls

    rows, walls = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit(
        "ablation_pairing",
        format_table(
            ["pairing", "cut", "balanced"],
            rows,
            title=f"Ablation: pairing strategy (k=4, b=7.5, {CFG.circuit})",
        ),
        rows=table_rows(["pairing", "cut", "balanced"], rows),
        params={"k": 4, "b": 7.5},
        host_timings=walls,
    )
    cuts = {r[0]: r[1] for r in rows}
    # exhaustive search must not lose to random pairing
    assert cuts["exhaustive"] <= cuts["random"]
