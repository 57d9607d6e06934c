"""Extension — adaptive checkpointing (the paper's responsiveness goal).

Classic Time Warp state-saving tuning on top of the static partition:
at every GVT round an LP that rolled back halves its checkpoint
interval, one that ran clean doubles it.  Measured on the
pre-simulation winner against the same run with a fixed interval.
Every LP keeps its partitioner-assigned machine for the whole run, as
on the paper's Clustered Time Warp testbed.
"""

from _shared import CFG, emit, table_rows

from repro.bench import format_table
from repro.circuits import load_circuit, random_vectors
from repro.core import design_driven_partition
from repro.sim import ClusterSpec, TimeWarpConfig, compile_circuit, run_partitioned


def test_dynamic_policies(benchmark):
    netlist = load_circuit(CFG.circuit)
    circuit = compile_circuit(netlist)
    events = random_vectors(netlist, CFG.presim_vectors, seed=CFG.seed)
    part = design_driven_partition(netlist, k=4, b=10.0, seed=CFG.seed)
    clusters, placement = part.to_simulation()

    scenarios = [
        ("static", TimeWarpConfig()),
        ("adaptive ckpt", TimeWarpConfig(adaptive_checkpointing=True)),
    ]

    def sweep():
        rows = []
        for name, config in scenarios:
            rep = run_partitioned(
                circuit, clusters, list(placement), events,
                ClusterSpec(num_machines=4), config,
            )
            rows.append(
                [name, f"{rep.speedup:.2f}", rep.rollbacks,
                 f"{rep.run_stats.peak_checkpoint_bytes // 1024}K"]
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    headers = ["scenario", "speedup", "rollbacks", "peak ckpt"]
    emit(
        "ext_dynamic",
        format_table(
            headers,
            rows,
            title=f"Extension: dynamic kernel policies (k=4, b=10, {CFG.circuit})",
        ),
        rows=table_rows(headers, rows),
        params={"k": 4, "b": 10.0},
    )
    by_name = {r[0]: r for r in rows}
    # adaptive checkpointing keeps results comparable on a good layout
    assert float(by_name["adaptive ckpt"][1]) > 0
