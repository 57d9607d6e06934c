"""run_partitioned façade and SimulationReport contents."""

import pytest

from repro.hypergraph import Clustering
from repro.sim import (
    ClusterSpec,
    TimeWarpConfig,
    compile_circuit,
    run_partitioned,
    run_sequential_baseline,
)


def setup(pipeadd, pipeadd_events, k=2):
    clusters = Clustering.top_level(pipeadd).gate_clusters()
    lp_machine = [i % k for i in range(len(clusters))]
    return clusters, lp_machine


class TestRunPartitioned:
    def test_report_fields(self, pipeadd, pipeadd_events):
        clusters, lpm = setup(pipeadd, pipeadd_events)
        rep = run_partitioned(
            pipeadd, clusters, lpm, pipeadd_events, ClusterSpec(num_machines=2)
        )
        assert rep.num_machines == 2
        assert rep.parallel_wall_time > 0
        assert rep.sequential_wall_time > 0
        assert rep.speedup == pytest.approx(
            rep.sequential_wall_time / rep.parallel_wall_time
        )
        assert rep.verified
        assert rep.committed_events == rep.seq_stats.gate_evals

    def test_accepts_compiled_circuit(self, pipeadd, pipeadd_circuit, pipeadd_events):
        clusters, lpm = setup(pipeadd, pipeadd_events)
        rep = run_partitioned(
            pipeadd_circuit, clusters, lpm, pipeadd_events,
            ClusterSpec(num_machines=2),
        )
        assert rep.verified

    def test_reuses_sequential_baseline(self, pipeadd, pipeadd_circuit, pipeadd_events):
        seq, wall = run_sequential_baseline(
            pipeadd_circuit, pipeadd_events, ClusterSpec(num_machines=1)
        )
        clusters, lpm = setup(pipeadd, pipeadd_events)
        rep = run_partitioned(
            pipeadd_circuit, clusters, lpm, pipeadd_events,
            ClusterSpec(num_machines=2), sequential=seq,
        )
        assert rep.sequential_wall_time == pytest.approx(wall)

    def test_single_machine_speedup_near_one(self, pipeadd, pipeadd_events):
        clusters, lpm = setup(pipeadd, pipeadd_events, k=1)
        rep = run_partitioned(
            pipeadd, clusters, lpm, pipeadd_events, ClusterSpec(num_machines=1)
        )
        # same cost model, no messages: wall == seq wall (batch min-cost
        # rounding can only slow it)
        assert 0.5 < rep.speedup <= 1.0 + 1e-9

    def test_stats_summary_text(self, pipeadd, pipeadd_events):
        clusters, lpm = setup(pipeadd, pipeadd_events)
        rep = run_partitioned(
            pipeadd, clusters, lpm, pipeadd_events, ClusterSpec(num_machines=2)
        )
        text = rep.run_stats.summary()
        assert "k=2" in text and "speedup" in text
