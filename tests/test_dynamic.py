"""Dynamic extension: adaptive checkpointing.

The invariant that matters: every dynamic policy preserves exact
equivalence with the sequential oracle — these knobs may only move
wall-clock time, never results.
"""

import pytest

from repro.circuits import load_circuit, random_vectors
from repro.hypergraph import Clustering
from repro.sim import (
    ClusterSpec,
    SequentialSimulator,
    TimeWarpConfig,
    TimeWarpEngine,
    compile_circuit,
)


def run_config(netlist, circuit, events, k, config):
    clusters = Clustering.top_level(netlist).gate_clusters()
    lp_machine = [i % k for i in range(len(clusters))]
    seq = SequentialSimulator(circuit)
    seq.add_inputs(events)
    seq.run()
    eng = TimeWarpEngine(circuit, clusters, lp_machine,
                         ClusterSpec(num_machines=k), config)
    eng.load_inputs(events)
    stats = eng.run()
    eng.verify_against_sequential(seq)
    assert stats.committed_events == seq.stats.gate_evals
    return eng, stats


class TestAdaptiveCheckpointing:
    def test_equivalence_preserved(self, pipeadd, pipeadd_circuit, pipeadd_events):
        config = TimeWarpConfig(
            checkpoint_interval=4, gvt_interval=30,
            adaptive_checkpointing=True, max_checkpoint_interval=32,
        )
        run_config(pipeadd, pipeadd_circuit, pipeadd_events, 3, config)

    def test_intervals_actually_adapt(self, viterbi_test, viterbi_test_circuit):
        events = random_vectors(viterbi_test, 20, seed=2)
        config = TimeWarpConfig(
            checkpoint_interval=4, gvt_interval=20,
            adaptive_checkpointing=True, max_checkpoint_interval=64,
        )
        eng, _ = run_config(
            viterbi_test, viterbi_test_circuit, events, 3, config
        )
        intervals = {lp.checkpoint_interval for lp in eng.lps}
        assert intervals != {4}, "no LP ever adapted its interval"

    def test_config_validation(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="max_checkpoint_interval"):
            TimeWarpConfig(checkpoint_interval=16, max_checkpoint_interval=8)


class TestStressMatrix:
    """Every policy combination preserves the oracle equivalence."""

    @pytest.mark.parametrize("adaptive", [False, True])
    @pytest.mark.parametrize("lazy", [False, True])
    def test_policy_square(self, viterbi_test, viterbi_test_circuit,
                           adaptive, lazy):
        events = random_vectors(viterbi_test, 12, seed=6)
        config = TimeWarpConfig(
            checkpoint_interval=3, gvt_interval=20,
            lazy_cancellation=lazy, adaptive_checkpointing=adaptive,
        )
        run_config(viterbi_test, viterbi_test_circuit, events, 3, config)
