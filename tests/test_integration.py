"""Full-pipeline integration tests across multiple workloads.

Each scenario walks the complete paper flow: Verilog text → parse →
elaborate → hierarchy clustering → design-driven partition → Time Warp
simulation verified against the sequential oracle — plus the flat
comparator path (flat hypergraph → multilevel k-way partition).
"""

import pytest

from repro.circuits import load_circuit, random_vectors
from repro.core import (
    BalanceConstraint,
    design_driven_partition,
    multilevel_kway_partition,
)
from repro.hypergraph import flat_hypergraph, hyperedge_cut
from repro.sim import ClusterSpec, compile_circuit, run_partitioned


@pytest.mark.parametrize(
    "circuit,k,b",
    [
        ("pipeline4", 2, 10.0),
        ("pipeline8", 4, 10.0),
        ("mesh3x3", 3, 15.0),
        ("viterbi-test", 2, 10.0),
        ("viterbi-test", 4, 15.0),
        ("lfsr16", 2, 25.0),
    ],
)
def test_full_flow(circuit, k, b):
    netlist = load_circuit(circuit)
    events = random_vectors(netlist, 12, seed=3)
    part = design_driven_partition(netlist, k=k, b=b, seed=1)
    assert part.part_weights.sum() == netlist.num_gates
    clusters, machines = part.to_simulation()
    report = run_partitioned(
        compile_circuit(netlist), clusters, machines, events,
        ClusterSpec(num_machines=k),
    )
    assert report.verified
    assert report.committed_events == report.seq_stats.gate_evals
    assert report.parallel_wall_time > 0


def test_baseline_flow_matches_metrics():
    netlist = load_circuit("mesh3x3")
    hg = flat_hypergraph(netlist)
    r = multilevel_kway_partition(hg, 3, 10.0, seed=0, refiner="fm")
    assert r.cut_size == hyperedge_cut(hg, r.assignment)


def test_partition_then_simulate_consistency_across_seeds():
    """Different partition seeds give different layouts but identical
    committed simulation results."""
    netlist = load_circuit("viterbi-test")
    circuit = compile_circuit(netlist)
    events = random_vectors(netlist, 10, seed=9)
    reference = None
    for seed in (1, 2, 3):
        part = design_driven_partition(netlist, k=3, b=15.0, seed=seed)
        clusters, machines = part.to_simulation()
        report = run_partitioned(
            circuit, clusters, machines, events, ClusterSpec(num_machines=3)
        )
        assert report.verified
        if reference is None:
            reference = report.committed_events
        else:
            assert report.committed_events == reference


def test_balance_constraint_integration():
    """A loose constraint is reported satisfied; results stay valid."""
    netlist = load_circuit("pipeline8")
    r = design_driven_partition(netlist, k=2, b=15.0, seed=0)
    assert r.balanced
    assert BalanceConstraint(2, 15.0).satisfied(r.part_weights)


def test_speedup_improves_with_k_on_parallel_workload():
    """The mesh has ample concurrency: k=4 must beat k=1 wall time."""
    netlist = load_circuit("mesh4x4")
    circuit = compile_circuit(netlist)
    events = random_vectors(netlist, 25, seed=5)
    walls = {}
    for k in (1, 4):
        part = design_driven_partition(netlist, k=k, b=15.0, seed=1)
        clusters, machines = part.to_simulation()
        report = run_partitioned(
            circuit, clusters, machines, events, ClusterSpec(num_machines=k)
        )
        walls[k] = report.parallel_wall_time
    assert walls[4] < walls[1]
