"""Time Warp engine: equivalence with the sequential oracle.

The central invariant: for ANY circuit, ANY clustering, ANY machine
assignment, and ANY kernel configuration, the committed results of the
optimistic parallel run equal the sequential simulation — same final
net values AND the same number of committed gate events.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import random_logic_verilog, random_vectors
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


def run_both(netlist, circuit, clusters, lp_machine, events, spec=None, config=None):
    seq = SequentialSimulator(circuit)
    seq.add_inputs(events)
    seq.run()
    spec = spec or ClusterSpec(num_machines=max(lp_machine) + 1)
    config = config or TimeWarpConfig(checkpoint_interval=3, gvt_interval=40)
    eng = TimeWarpEngine(circuit, clusters, lp_machine, spec, config)
    eng.load_inputs(events)
    stats = eng.run()
    eng.verify_against_sequential(seq)
    assert stats.committed_events == seq.stats.gate_evals
    return seq, eng, stats


def hierarchy_clusters(netlist):
    return Clustering.top_level(netlist).gate_clusters()


class TestEquivalence:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_pipeadd_all_k(self, pipeadd, pipeadd_circuit, pipeadd_events, k):
        clusters = hierarchy_clusters(pipeadd)
        lp_machine = [i % k for i in range(len(clusters))]
        run_both(pipeadd, pipeadd_circuit, clusters, lp_machine, pipeadd_events)

    @pytest.mark.parametrize("lazy", [True, False])
    def test_both_cancellation_modes(self, pipeadd, pipeadd_circuit, pipeadd_events, lazy):
        clusters = hierarchy_clusters(pipeadd)
        lp_machine = [i % 3 for i in range(len(clusters))]
        config = TimeWarpConfig(
            checkpoint_interval=2, gvt_interval=30, lazy_cancellation=lazy
        )
        run_both(pipeadd, pipeadd_circuit, clusters, lp_machine, pipeadd_events,
                 config=config)

    @pytest.mark.parametrize("ci", [1, 4, 16])
    def test_checkpoint_intervals(self, pipeadd, pipeadd_circuit, pipeadd_events, ci):
        clusters = hierarchy_clusters(pipeadd)
        lp_machine = [i % 2 for i in range(len(clusters))]
        config = TimeWarpConfig(checkpoint_interval=ci, gvt_interval=25)
        run_both(pipeadd, pipeadd_circuit, clusters, lp_machine, pipeadd_events,
                 config=config)

    @pytest.mark.parametrize("window", [None, 8, 64])
    def test_optimism_windows(self, pipeadd, pipeadd_circuit, pipeadd_events, window):
        clusters = hierarchy_clusters(pipeadd)
        lp_machine = [i % 2 for i in range(len(clusters))]
        config = TimeWarpConfig(gvt_interval=30, optimism_window=window)
        run_both(pipeadd, pipeadd_circuit, clusters, lp_machine, pipeadd_events,
                 config=config)

    def test_viterbi(self, viterbi_test, viterbi_test_circuit):
        events = random_vectors(viterbi_test, 15, seed=3)
        clusters = hierarchy_clusters(viterbi_test)
        lp_machine = [i % 4 for i in range(len(clusters))]
        run_both(viterbi_test, viterbi_test_circuit, clusters, lp_machine, events)

    def test_gate_per_lp_partitioning(self, adder4, adder4_circuit):
        """The flattened extreme: one LP per gate."""
        events = random_vectors(adder4, 10, seed=1)
        clusters = [[g] for g in range(adder4.num_gates)]
        lp_machine = [g % 3 for g in range(adder4.num_gates)]
        run_both(adder4, adder4_circuit, clusters, lp_machine, events)


class TestStatsInvariants:
    def test_one_machine_no_messages(self, pipeadd, pipeadd_circuit, pipeadd_events):
        clusters = hierarchy_clusters(pipeadd)
        seq, eng, stats = run_both(
            pipeadd, pipeadd_circuit, clusters, [0] * len(clusters), pipeadd_events
        )
        assert stats.messages == 0
        assert stats.anti_messages == 0

    def test_wall_time_positive_and_bounded(self, pipeadd, pipeadd_circuit, pipeadd_events):
        clusters = hierarchy_clusters(pipeadd)
        lp_machine = [i % 2 for i in range(len(clusters))]
        seq, eng, stats = run_both(
            pipeadd, pipeadd_circuit, clusters, lp_machine, pipeadd_events
        )
        assert stats.wall_time > 0
        # parallel wall cannot beat perfect speedup on committed work
        spec = ClusterSpec(num_machines=2)
        ideal = stats.committed_events * spec.event_cost / 2
        assert stats.wall_time >= ideal * 0.999

    def test_processed_at_least_committed(self, pipeadd, pipeadd_circuit, pipeadd_events):
        clusters = hierarchy_clusters(pipeadd)
        lp_machine = [i % 3 for i in range(len(clusters))]
        _, _, stats = run_both(
            pipeadd, pipeadd_circuit, clusters, lp_machine, pipeadd_events
        )
        assert stats.processed_events >= stats.committed_events
        assert stats.rolled_back_events == stats.processed_events - stats.committed_events

    def test_determinism(self, pipeadd, pipeadd_circuit, pipeadd_events):
        clusters = hierarchy_clusters(pipeadd)
        lp_machine = [i % 2 for i in range(len(clusters))]

        def once():
            eng = TimeWarpEngine(
                pipeadd_circuit, clusters, lp_machine, ClusterSpec(num_machines=2),
                TimeWarpConfig(checkpoint_interval=3, gvt_interval=40),
            )
            eng.load_inputs(pipeadd_events)
            s = eng.run()
            return (s.messages, s.rollbacks, s.processed_events, s.wall_time)

        assert once() == once()

    def test_machine_stats_sum(self, pipeadd, pipeadd_circuit, pipeadd_events):
        clusters = hierarchy_clusters(pipeadd)
        lp_machine = [i % 2 for i in range(len(clusters))]
        _, _, stats = run_both(
            pipeadd, pipeadd_circuit, clusters, lp_machine, pipeadd_events
        )
        assert sum(m.gate_evals for m in stats.machines) == stats.processed_events
        assert sum(m.rollbacks for m in stats.machines) == stats.rollbacks
        assert stats.wall_time == max(m.wall_time for m in stats.machines)

    def test_env_messages_counted(self, pipeadd, pipeadd_circuit, pipeadd_events):
        clusters = hierarchy_clusters(pipeadd)
        _, _, stats = run_both(
            pipeadd, pipeadd_circuit, clusters, [0] * len(clusters), pipeadd_events
        )
        assert stats.env_messages > 0


class TestValidation:
    def test_cluster_count_mismatch(self, pipeadd_circuit):
        with pytest.raises(SimulationError, match="machine assignments"):
            TimeWarpEngine(pipeadd_circuit, [[0]], [0, 1], ClusterSpec(num_machines=2))

    def test_incomplete_cover(self, pipeadd_circuit):
        with pytest.raises(SimulationError, match="cover"):
            TimeWarpEngine(pipeadd_circuit, [[0, 1]], [0], ClusterSpec(num_machines=1))

    def test_duplicate_gate(self, pipeadd_circuit):
        n = pipeadd_circuit.num_gates
        clusters = [list(range(n)), [0]]
        with pytest.raises(SimulationError, match="two clusters"):
            TimeWarpEngine(pipeadd_circuit, clusters, [0, 0], ClusterSpec(num_machines=1))

    def test_machine_out_of_range(self, pipeadd_circuit):
        n = pipeadd_circuit.num_gates
        with pytest.raises(SimulationError, match="out of range"):
            TimeWarpEngine(
                pipeadd_circuit, [list(range(n))], [5], ClusterSpec(num_machines=2)
            )


class TestQuiescentUnconfirmedDrain:
    """Regression: a quiescent LP still owing anti-messages for
    unconfirmed (lazily cancelled) sends must have them delivered
    before termination — otherwise the receiver keeps a stale positive.

    The LFSR's global feedback loop with per-gate LPs, lazy
    cancellation, and a multi-batch checkpoint interval reproduced the
    leak (the final GVT round used to flush the antis after the driver
    loop had already exited)."""

    @pytest.mark.parametrize("seed", [1, 3, 5, 9])
    def test_lfsr_feedback_loop(self, seed):
        from repro.circuits import lfsr_verilog, load_circuit
        from repro.core import design_driven_partition

        nl = load_circuit("lfsr16")
        cc = compile_circuit(nl)
        events = random_vectors(nl, 12, seed=seed)
        part = design_driven_partition(nl, k=2, b=25.0, seed=1)
        clusters, lpm = part.to_simulation()
        config = TimeWarpConfig(
            checkpoint_interval=2, gvt_interval=256,
            lazy_cancellation=True, optimism_window=128,
        )
        run_both(nl, cc, clusters, lpm, events, config=config)


@st.composite
def random_scenario(draw):
    seed = draw(st.integers(0, 10_000))
    n_gates = draw(st.integers(10, 60))
    k = draw(st.integers(1, 4))
    n_clusters = draw(st.integers(k, min(n_gates, 10)))
    lazy = draw(st.booleans())
    ci = draw(st.sampled_from([1, 3, 7]))
    return seed, n_gates, k, n_clusters, lazy, ci


class TestPropertyEquivalence:
    @given(random_scenario())
    @settings(max_examples=25, deadline=None)
    def test_random_circuit_random_partition(self, scenario):
        seed, n_gates, k, n_clusters, lazy, ci = scenario
        src = random_logic_verilog(n_gates, 6, seed=seed)
        nl = compile_verilog(src)
        cc = compile_circuit(nl)
        events = random_vectors(nl, 8, seed=seed + 1)
        rng = np.random.default_rng(seed + 2)
        membership = rng.integers(0, n_clusters, size=nl.num_gates)
        clusters = [
            [g for g in range(nl.num_gates) if membership[g] == c]
            for c in range(n_clusters)
        ]
        clusters = [c for c in clusters if c]
        lp_machine = [i % k for i in range(len(clusters))]
        config = TimeWarpConfig(
            checkpoint_interval=ci, gvt_interval=20, lazy_cancellation=lazy
        )
        run_both(nl, cc, clusters, lp_machine, events, config=config)


class TestStreamedCircuitDivergence:
    """A divergence report on a streamed circuit names nets by their
    hierarchical names and is a :class:`SimulationError`."""

    @pytest.fixture(scope="class")
    def engines(self):
        from repro.circuits import load_stream_circuit
        from repro.sim.events import InputEvent

        csr = load_stream_circuit("memctrl-bench")
        circuit = compile_circuit(csr)
        events = [
            InputEvent(t, net, (t + i) % 2)
            for t in range(0, 40, 8)
            for i, net in enumerate(csr.inputs.tolist())
        ]
        seq = SequentialSimulator(circuit, record_changes=True)
        seq.add_inputs(events)
        seq.run()
        half = csr.num_gates // 2
        eng = TimeWarpEngine(
            circuit, [range(half), range(half, csr.num_gates)], [0, 1],
            ClusterSpec(num_machines=2), TimeWarpConfig(record_changes=True),
        )
        eng.load_inputs(events)
        eng.run()
        eng.verify_change_stream(seq)
        return seq, eng

    def test_final_values(self, engines):
        seq, eng = engines
        values = eng.lps[0].values
        saved = values.copy()
        values[:] = (values + 1) % 3
        try:
            with pytest.raises(SimulationError, match=r"divergence on net '\w"):
                eng.verify_against_sequential(seq)
        finally:
            values[:] = saved

    def test_change_stream(self, engines):
        seq, eng = engines
        log = eng.lps[0]._change_log
        t, net, value = log[-1]
        log[-1] = (t, net, (value + 1) % 3)
        try:
            with pytest.raises(SimulationError, match=r"\(t=\d+, \w"):
                eng.verify_change_stream(seq)
        finally:
            log[-1] = (t, net, value)
