"""Generalization — the paper's planned second workload.

The paper's future work: experiment "on a large, realistic design"
synthesized from an open-source Sparc RTL.  This benchmark runs the
Table 1/2 comparison and a k-sweep speedup study on the CPU-shaped
workload (`cpu8`): register file, ALU, control ROM, pipeline registers
— a module mix very different from the Viterbi decoder's.
"""

from _shared import CFG, emit, table_rows

from repro.bench import format_table
from repro.circuits import load_circuit, natural_schedule, random_vectors
from repro.core import design_driven_partition, multilevel_kway_partition
from repro.hypergraph import flat_hypergraph
from repro.sim import ClusterSpec, compile_circuit, run_partitioned, run_sequential_baseline

CIRCUIT = "cpu8"


def test_second_workload(benchmark):
    netlist = load_circuit(CIRCUIT)
    circuit = compile_circuit(netlist)
    flat = flat_hypergraph(netlist)
    events = random_vectors(
        netlist, 30, seed=CFG.seed, schedule=natural_schedule(netlist)
    )

    def sweep():
        sequential, _ = run_sequential_baseline(
            circuit, events, ClusterSpec(num_machines=1)
        )
        rows = []
        for k in (2, 3, 4):
            d = design_driven_partition(netlist, k=k, b=10.0, seed=CFG.seed)
            ml = multilevel_kway_partition(flat, k, 10.0, seed=CFG.seed,
                                           refiner="fm")
            clusters, machines = d.to_simulation()
            rep = run_partitioned(
                circuit, clusters, machines, events,
                ClusterSpec(num_machines=k), sequential=sequential,
            )
            rows.append([k, d.cut_size, d.balanced, ml.cut_size, ml.balanced,
                         f"{rep.speedup:.2f}", rep.messages, rep.rollbacks])
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    headers = ["k", "design cut", "balanced", "multilevel cut",
               "multilevel balanced", "speedup", "msgs", "rollbacks"]
    emit(
        "second_workload",
        format_table(
            headers,
            rows,
            title=f"Second workload ({CIRCUIT}: {netlist.num_gates} gates, "
                  f"b=10) — design-driven vs multilevel-on-flat",
        )
        + "\n\nReading: a bit-sliced CPU datapath is the hierarchy-aware "
        "algorithm's hard case — the natural min-cut runs along bit "
        "slices, *across* module boundaries, so the flat multilevel "
        "partitioner beats the module-granularity cut at k>=3; the "
        "design-driven cut is the lower one only at k=2.  Both meet "
        "Formula 1 at every k.  Speedups near 1 at every k (below it at "
        "k=3) reflect the workload, not the partitioner: a small in-order "
        "CPU serializes on its register file and PC chain.",
        rows=table_rows(headers, rows),
        params={"circuit": CIRCUIT, "b": 10.0,
                "num_gates": netlist.num_gates},
    )
    # contracts that must generalize: feasibility everywhere, parity on
    # the natural 2-way split, and no blow-up vs the flat comparator
    assert all(r[2] for r in rows)
    assert rows[0][1] <= rows[0][3]
    assert sum(r[1] for r in rows) <= 1.5 * sum(r[3] for r in rows)
