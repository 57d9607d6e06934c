"""Table 2's flat comparators: the random floor and the multilevel k-way
engine on the flattened netlist."""

import hashlib
import io

import numpy as np
import pytest

from repro.cli import main
from repro.core import (
    design_driven_partition,
    multilevel_kway_partition,
    random_partition,
)
from repro.errors import PartitionError
from repro.hypergraph import Hypergraph, flat_hypergraph, hyperedge_cut


class TestMultilevel:
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_valid_kway(self, viterbi_test, k):
        hg = flat_hypergraph(viterbi_test)
        r = multilevel_kway_partition(hg, k, b=10.0, seed=1, refiner="fm")
        assert len(np.unique(r.assignment)) == k
        assert r.part_weights.sum() == hg.total_weight
        assert r.cut_size == hyperedge_cut(hg, r.assignment)

    def test_beats_random(self, viterbi_test):
        hg = flat_hypergraph(viterbi_test)
        ml = multilevel_kway_partition(hg, 3, b=10.0, seed=1, refiner="fm")
        rd = hyperedge_cut(hg, random_partition(hg, 3, seed=1))
        assert ml.cut_size < rd

    def test_k_too_large(self):
        hg = Hypergraph.from_edges([1, 1], [[0, 1]])
        with pytest.raises(PartitionError):
            multilevel_kway_partition(hg, 5, b=10.0, refiner="fm")

    def test_deterministic(self, viterbi_test):
        hg = flat_hypergraph(viterbi_test)
        a = multilevel_kway_partition(hg, 3, b=10.0, seed=4, refiner="fm")
        b = multilevel_kway_partition(hg, 3, b=10.0, seed=4, refiner="fm")
        assert (a.assignment == b.assignment).all()


class TestRandomPartition:
    def test_balanced(self):
        hg = Hypergraph.from_edges([1] * 12, [[i, i + 1] for i in range(11)])
        a = random_partition(hg, 3, seed=0)
        w = np.bincount(a, weights=hg.vertex_weight, minlength=3)
        assert w.max() - w.min() <= 1

    def test_bad_k(self):
        hg = Hypergraph.from_edges([1], [])
        with pytest.raises(PartitionError):
            random_partition(hg, 2)

    def test_random_initial_golden(self, viterbi_test):
        """``initial="random"`` gives the partition it gave before
        ``random_partition`` moved into ``repro.core``."""
        r = design_driven_partition(viterbi_test, k=3, b=10, seed=2,
                                    initial="random")
        digest = hashlib.sha256(
            np.ascontiguousarray(r.assignment, dtype=np.int64).tobytes()
        ).hexdigest()
        assert digest == (
            "a1ff6d89d2698fb9ab6d4274667fce9815054a831521a20cd499740aee1ab42d"
        )

    def test_cli_random_golden(self):
        out = io.StringIO()
        code = main(["partition", "circuit:viterbi-test", "-k", "3",
                     "--algorithm", "random"], out=out)
        assert code == 0
        assert out.getvalue() == (
            "algorithm : random (flat netlist)\n"
            "k=3 b=10.0\n"
            "cut size  : 290\n"
            "loads     : [129, 129, 128]\n"
        )
