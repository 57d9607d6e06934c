"""Design-driven multiway partitioning: end-to-end algorithm tests."""

import hashlib

import numpy as np
import pytest

from repro.core import BalanceConstraint, design_driven_partition
from repro.errors import PartitionError
from repro.hypergraph import Clustering, hyperedge_cut
from repro.obs import MetricsRecorder


class TestBasicContracts:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_valid_result(self, viterbi_test, k):
        r = design_driven_partition(viterbi_test, k=k, b=10.0, seed=1)
        assert r.k == k
        assert len(r.assignment) == len(r.clustering)
        assert r.part_weights.sum() == viterbi_test.num_gates
        # reported cut matches an independent recomputation
        assert r.cut_size == hyperedge_cut(r.clustering.hypergraph(), r.assignment)

    def test_balanced_flag_truthful(self, viterbi_test):
        r = design_driven_partition(viterbi_test, k=3, b=10.0, seed=1)
        c = BalanceConstraint(3, 10.0)
        assert r.balanced == c.satisfied(r.part_weights)

    def test_gate_assignment_covers_all(self, viterbi_test):
        r = design_driven_partition(viterbi_test, k=2, b=10.0, seed=1)
        ga = r.gate_assignment()
        assert len(ga) == viterbi_test.num_gates
        assert set(np.unique(ga)) <= {0, 1}

    def test_to_simulation_consistent(self, viterbi_test):
        r = design_driven_partition(viterbi_test, k=2, b=10.0, seed=1)
        clusters, lpm = r.to_simulation()
        assert len(clusters) == len(lpm)
        gates = sorted(g for cl in clusters for g in cl)
        assert gates == list(range(viterbi_test.num_gates))

    def test_deterministic(self, viterbi_test):
        r1 = design_driven_partition(viterbi_test, k=3, b=7.5, seed=9)
        r2 = design_driven_partition(viterbi_test, k=3, b=7.5, seed=9)
        assert r1.cut_size == r2.cut_size
        assert (r1.assignment == r2.assignment).all()

    def test_accepts_prebuilt_clustering(self, viterbi_test):
        c = Clustering.top_level(viterbi_test)
        r = design_driven_partition(c, k=2, b=10.0, seed=1)
        assert r.part_weights.sum() == viterbi_test.num_gates

    def test_history_recorded(self, viterbi_test):
        r = design_driven_partition(viterbi_test, k=2, b=10.0, seed=1)
        assert any("cone initial" in h for h in r.history)
        assert any("fm stable" in h for h in r.history)


class TestFlattening:
    def test_tight_balance_forces_flattening(self, viterbi_test):
        """At very tight b the test circuit's modules are too coarse."""
        loose = design_driven_partition(viterbi_test, k=4, b=15.0, seed=1)
        tight = design_driven_partition(viterbi_test, k=4, b=1.0, seed=1)
        assert tight.flatten_steps >= loose.flatten_steps
        # flattening refines the clustering
        assert len(tight.clustering) >= len(loose.clustering)

    def test_flattened_partition_still_covers(self, viterbi_test):
        r = design_driven_partition(viterbi_test, k=4, b=1.0, seed=1)
        gates = sorted(g for cl in r.clustering.gate_clusters() for g in cl)
        assert gates == list(range(viterbi_test.num_gates))

    @pytest.mark.parametrize("pairing", ["random", "exhaustive", "cut", "gain"])
    def test_all_pairing_strategies_work(self, viterbi_test, pairing):
        r = design_driven_partition(viterbi_test, k=3, b=10.0, seed=1, pairing=pairing)
        assert r.part_weights.sum() == viterbi_test.num_gates

    # viterbi-test has 16 visible nodes and 386 gates; at b=10 Formula 1's
    # lower bound is 0 from k=10 up, so empty parts are admissible there —
    # the tighter b of the last three cases makes it positive
    @pytest.mark.parametrize("k,b", [(17, 10.0), (20, 10.0), (64, 10.0),
                                     (17, 2.5), (20, 2.5), (64, 1.0)])
    def test_more_partitions_than_visible_nodes(self, viterbi_test, k, b):
        assert len(Clustering.top_level(viterbi_test)) == 16
        rec = MetricsRecorder()
        r = design_driven_partition(viterbi_test, k=k, b=b, seed=1,
                                    recorder=rec)
        assert len(r.clustering) >= k
        assert r.history[0].startswith("flatten step 1:")
        assert r.flatten_steps == rec.counters["part.flatten.steps"] >= 1
        gates = sorted(g for cl in r.clustering.gate_clusters() for g in cl)
        assert gates == list(range(viterbi_test.num_gates))
        loads = np.bincount(r.gate_assignment(), minlength=k)
        assert len(loads) == k and loads.tolist() == r.part_weights.tolist()
        constraint = BalanceConstraint(k, b)
        assert r.balanced == constraint.satisfied(loads)
        if constraint.bounds(viterbi_test.num_gates)[0] > 0:
            assert r.balanced and (loads > 0).all()

    def test_k_up_to_visible_nodes_unchanged_and_k_past_gates_rejected(
            self, viterbi_test):
        r = design_driven_partition(viterbi_test, k=16, b=10.0, seed=1)
        assert r.history[0].startswith("cone initial")
        assert hashlib.sha256(r.gate_assignment().tobytes()).hexdigest() == (
            "45f874b9afbc670105292709d1fb9080"
            "9277fcb46a8e023757343ff0042e8dce")
        with pytest.raises(PartitionError, match="387 partitions from 386 gates"):
            design_driven_partition(viterbi_test, k=387, b=10.0)
        # an exhausted flatten budget leaves the grains too coarse
        with pytest.raises(PartitionError, match="17 partitions from 16 vertices"):
            design_driven_partition(viterbi_test, k=17, b=10.0,
                                    max_flatten_steps=0)


class TestQualityTrends:
    def test_cut_no_worse_with_looser_balance(self, viterbi_test):
        """The paper's Table 1 trend: larger b admits smaller cuts.

        Heuristics are not strictly monotone; require the loosest
        setting to be at least as good as the tightest.
        """
        tight = design_driven_partition(viterbi_test, k=2, b=2.5, seed=1)
        loose = design_driven_partition(viterbi_test, k=2, b=15.0, seed=1)
        assert loose.cut_size <= tight.cut_size

    def test_cut_grows_with_k(self, viterbi_test):
        """More partitions can only cut more (Table 1 trend)."""
        c2 = design_driven_partition(viterbi_test, k=2, b=10.0, seed=1).cut_size
        c4 = design_driven_partition(viterbi_test, k=4, b=10.0, seed=1).cut_size
        assert c4 >= c2

    def test_beats_random_assignment(self, viterbi_test):
        from repro.core import random_partition
        from repro.hypergraph import hierarchy_hypergraph

        hg = hierarchy_hypergraph(viterbi_test)
        rand_cut = hyperedge_cut(hg, random_partition(hg, 3, seed=2))
        r = design_driven_partition(viterbi_test, k=3, b=10.0, seed=1)
        assert r.cut_size <= rand_cut

    def test_k1_trivial(self, viterbi_test):
        r = design_driven_partition(viterbi_test, k=1, b=10.0, seed=1)
        assert r.cut_size == 0
        assert r.balanced

