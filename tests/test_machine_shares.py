"""One cluster LP per machine share: what every partition result's
``to_simulation()`` hands the Time Warp engine.

For each circuit and k, and for a variant of the partition that leaves
one machine empty, the groups are exactly the non-empty machines (ids
ascending, gates ascending), they cover every gate once, and the run on
them verifies against the sequential simulator with as many committed
events as it evaluated gates.
"""

import dataclasses

import numpy as np
import pytest

from repro.circuits import load_circuit, random_vectors
from repro.core import partition_netlist
from repro.sim import (
    ClusterSpec,
    TimeWarpConfig,
    compile_circuit,
    run_partitioned,
    run_sequential_baseline,
)

CIRCUITS = ("viterbi-test", "noc-test", "cpu-test")
VECTORS = 8


@pytest.fixture(scope="module", params=CIRCUITS)
def design(request):
    netlist = load_circuit(request.param)
    circuit = compile_circuit(netlist)
    events = random_vectors(netlist, VECTORS, seed=3)
    seq, _ = run_sequential_baseline(circuit, events, ClusterSpec(num_machines=1))
    return netlist, circuit, events, seq


def _emptied(result, machine: int):
    """``result`` with ``machine``'s share handed to machine 0."""
    assignment = np.where(result.assignment == machine, 0, result.assignment)
    return dataclasses.replace(result, assignment=assignment)


def _check_shares(result, num_gates: int):
    gate_part = np.asarray(result.gate_assignment())
    clusters, machines = result.to_simulation()
    non_empty = sorted(set(gate_part.tolist()))
    assert machines == non_empty  # one group per non-empty machine
    for gates, machine in zip(clusters, machines):
        assert (np.diff(gates) > 0).all()
        assert (gate_part[gates] == machine).all()
    covered = np.concatenate(clusters)
    assert np.array_equal(np.sort(covered), np.arange(num_gates))
    return clusters, machines


@pytest.mark.parametrize("algorithm", ["design", "multilevel"])
@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("empty", [False, True], ids=["full", "one-empty"])
def test_one_lp_per_non_empty_machine(design, algorithm, k, empty):
    netlist, circuit, events, seq = design
    result = partition_netlist(netlist, k, 10.0, algorithm=algorithm, seed=1)
    if empty:
        result = _emptied(result, k - 1)
    clusters, machines = _check_shares(result, netlist.num_gates)
    assert len(machines) == (k - 1 if empty else k)
    report = run_partitioned(
        circuit, clusters, machines, events, ClusterSpec(num_machines=k),
        TimeWarpConfig(gvt_interval=32), sequential=seq,
    )
    assert report.verified
    assert report.committed_events == seq.stats.gate_evals
    assert len(report.run_stats.lps) == len(machines)
