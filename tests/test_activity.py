"""Activity-based load metric (the paper's future-work extension)."""

import numpy as np
import pytest

from repro.circuits import random_vectors
from repro.core import (
    activity_clustering,
    design_driven_partition,
    profile_activity,
)
from repro.errors import PartitionError
from repro.hypergraph import Clustering


class TestProfileActivity:
    def test_shape_and_floor(self, pipeadd, pipeadd_events):
        w = profile_activity(pipeadd, pipeadd_events)
        assert len(w) == pipeadd.num_gates
        assert (w >= 1).all()

    def test_matches_sequential_counts(self, pipeadd, pipeadd_events):
        from repro.sim import SequentialSimulator, compile_circuit

        sim = SequentialSimulator(compile_circuit(pipeadd), record_activity=True)
        sim.add_inputs(pipeadd_events)
        sim.run()
        w = profile_activity(pipeadd, pipeadd_events)
        # raw counts plus one, so a never-active gate still weighs 1
        assert (w == sim.stats.activity + 1).all()

    def test_active_gates_weigh_more(self, pipeadd, pipeadd_events):
        w = profile_activity(pipeadd, pipeadd_events)
        assert w.max() > w.min()


class TestWeightedClustering:
    def test_cluster_weights_are_activity_sums(self, pipeadd, pipeadd_events):
        c = activity_clustering(pipeadd, pipeadd_events)
        w = profile_activity(pipeadd, pipeadd_events)
        for cl in c.clusters:
            assert cl.weight == sum(int(w[g]) for g in cl.gate_ids)

    def test_hypergraph_total_weight(self, pipeadd, pipeadd_events):
        c = activity_clustering(pipeadd, pipeadd_events)
        w = profile_activity(pipeadd, pipeadd_events)
        assert c.hypergraph().total_weight == int(w.sum())

    def test_flatten_preserves_weights(self, pipeadd, pipeadd_events):
        c = activity_clustering(pipeadd, pipeadd_events)
        idx = c.largest_super_gate()
        total = sum(cl.weight for cl in c.clusters)
        c2 = c.flatten(idx)
        assert sum(cl.weight for cl in c2.clusters) == total
        assert c2.gate_weights is c.gate_weights

    def test_bad_weight_length_rejected(self, pipeadd):
        with pytest.raises(PartitionError, match="entries"):
            Clustering.top_level(pipeadd, gate_weights=np.ones(3, dtype=np.int64))

    def test_zero_weights_rejected(self, pipeadd):
        with pytest.raises(PartitionError, match=">= 1"):
            Clustering.top_level(
                pipeadd, gate_weights=np.zeros(pipeadd.num_gates, dtype=np.int64)
            )


class TestWeightedPartitioning:
    def test_partition_balances_activity(self, viterbi_test):
        events = random_vectors(viterbi_test, 10, seed=4)
        c = activity_clustering(viterbi_test, events)
        r = design_driven_partition(c, k=2, b=15.0, seed=1)
        # loads are measured in activity units now
        assert r.part_weights.sum() == c.hypergraph().total_weight
        if r.balanced:
            total = int(r.part_weights.sum())
            lo = total * (0.5 - 0.15)
            hi = total * (0.5 + 0.15)
            assert all(lo - 1e-9 <= w <= hi + 1e-9 for w in r.part_weights)

    def test_weighted_vs_unweighted_differ(self, viterbi_test):
        events = random_vectors(viterbi_test, 10, seed=4)
        weighted = design_driven_partition(
            activity_clustering(viterbi_test, events), k=2, b=10.0, seed=1
        )
        plain = design_driven_partition(viterbi_test, k=2, b=10.0, seed=1)
        # sanity: both valid; typically different loads in gate terms
        assert weighted.part_weights.sum() != plain.part_weights.sum()
