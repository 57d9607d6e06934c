"""Deep verification: committed change streams match entry-for-entry.

Final-value equivalence can in principle hide compensating errors;
comparing the full committed (time, net, value) history cannot.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import load_circuit, random_logic_verilog, random_vectors
from repro.errors import SimulationError
from repro.hypergraph import Clustering
from repro.sim import (
    ClusterSpec,
    SequentialSimulator,
    TimeWarpConfig,
    TimeWarpEngine,
    compile_circuit,
)
from repro.verilog import compile_verilog


def run_deep(netlist, circuit, events, k, clustering=None, **config_kw):
    """Run ``clustering`` (default: the netlist's visible nodes) dealt
    round-robin onto ``k`` machines and check its committed change
    stream against the sequential one."""
    seq = SequentialSimulator(circuit, record_changes=True)
    seq.add_inputs(events)
    seq.run()
    clustering = clustering or Clustering.top_level(netlist)
    clusters = clustering.gate_clusters()
    lp_machine = [i % k for i in range(len(clusters))]
    eng = TimeWarpEngine(
        circuit, clusters, lp_machine, ClusterSpec(num_machines=k),
        TimeWarpConfig(record_changes=True, checkpoint_interval=3,
                       gvt_interval=30, **config_kw),
    )
    eng.load_inputs(events)
    eng.run()
    eng.verify_change_stream(seq)
    return eng, seq


class TestDeepOracle:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_pipeadd(self, pipeadd, pipeadd_circuit, pipeadd_events, k):
        run_deep(pipeadd, pipeadd_circuit, pipeadd_events, k)

    def test_viterbi(self, viterbi_test, viterbi_test_circuit):
        events = random_vectors(viterbi_test, 12, seed=8)
        run_deep(viterbi_test, viterbi_test_circuit, events, 3)

    @pytest.mark.parametrize("lazy", [True, False])
    def test_both_cancellation_modes(self, pipeadd, pipeadd_circuit,
                                     pipeadd_events, lazy):
        run_deep(pipeadd, pipeadd_circuit, pipeadd_events, 3,
                 lazy_cancellation=lazy)

    @pytest.mark.parametrize("conservative", [False, True],
                             ids=["optimistic", "conservative"])
    def test_one_lp_per_gate(self, conservative):
        # a large LP fleet: every machine scans well over a hundred LPs
        # per pick (pipeline runs host one LP per machine)
        netlist = load_circuit("cpu-test")
        circuit = compile_circuit(netlist)
        events = random_vectors(netlist, 12, seed=8)
        eng, seq = run_deep(netlist, circuit, events, 3,
                            clustering=Clustering.flat(netlist),
                            conservative=conservative)
        assert len(eng.lps) == netlist.num_gates > 3 * 100
        assert eng.stats.committed_events == seq.stats.gate_evals > 0
        if conservative:
            assert eng.stats.rollbacks == 0

    def test_requires_flag_on_engine(self, pipeadd, pipeadd_circuit,
                                     pipeadd_events):
        clusters = Clustering.top_level(pipeadd).gate_clusters()
        eng = TimeWarpEngine(
            pipeadd_circuit, clusters, [0] * len(clusters),
            ClusterSpec(num_machines=1), TimeWarpConfig(),
        )
        eng.load_inputs(pipeadd_events)
        eng.run()
        with pytest.raises(SimulationError, match="record_changes"):
            eng.committed_changes()

    def test_requires_flag_on_reference(self, pipeadd, pipeadd_circuit,
                                        pipeadd_events):
        seq = SequentialSimulator(pipeadd_circuit)
        seq.add_inputs(pipeadd_events)
        seq.run()
        clusters = Clustering.top_level(pipeadd).gate_clusters()
        eng = TimeWarpEngine(
            pipeadd_circuit, clusters, [0] * len(clusters),
            ClusterSpec(num_machines=1),
            TimeWarpConfig(record_changes=True),
        )
        eng.load_inputs(pipeadd_events)
        eng.run()
        with pytest.raises(SimulationError, match="reference"):
            eng.verify_change_stream(seq)

    @given(st.integers(0, 5000), st.integers(1, 4))
    @settings(max_examples=15, deadline=None)
    def test_random_circuits(self, seed, k):
        nl = compile_verilog(random_logic_verilog(40, 6, seed=seed))
        cc = compile_circuit(nl)
        events = random_vectors(nl, 6, seed=seed + 1)
        rng = np.random.default_rng(seed)
        n_clusters = max(k, 6)
        memb = rng.integers(0, n_clusters, size=nl.num_gates)
        clusters = [
            [g for g in range(nl.num_gates) if memb[g] == c]
            for c in range(n_clusters)
        ]
        clusters = [c for c in clusters if c]
        seq = SequentialSimulator(cc, record_changes=True)
        seq.add_inputs(events)
        seq.run()
        eng = TimeWarpEngine(
            cc, clusters, [i % k for i in range(len(clusters))],
            ClusterSpec(num_machines=k),
            TimeWarpConfig(record_changes=True, checkpoint_interval=2,
                           gvt_interval=25),
        )
        eng.load_inputs(events)
        eng.run()
        eng.verify_change_stream(seq)
