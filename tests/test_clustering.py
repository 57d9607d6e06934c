"""Clustering (visible nodes / super-gates) and hypergraph builders."""

import numpy as np
import pytest

from repro.circuits import load_circuit
from repro.errors import PartitionError
from repro.hypergraph import Clustering, flat_hypergraph, hierarchy_hypergraph
from repro.hypergraph.partition_state import PartitionState
from repro.verilog import NetlistBuilder, compile_verilog
from tests.clustering_oracle import flatten_sequence, tree_clustering


class TestTopLevel:
    def test_visible_nodes(self, adder4):
        c = Clustering.top_level(adder4)
        # 4 fa instances, no top-level gates
        assert len(c) == 4
        names = {cl.name for cl in c.clusters}
        assert names == {"f0", "f1", "f2", "f3"}
        assert all(cl.weight == 5 for cl in c.clusters)

    def test_mixed_gates_and_instances(self, pipeadd):
        c = Clustering.top_level(pipeadd)
        supers = [cl for cl in c.clusters if cl.is_super_gate]
        singles = [cl for cl in c.clusters if not cl.is_super_gate]
        assert len(supers) == 4   # fa instances
        assert len(singles) == 14  # top-level dffr gates
        assert sum(cl.weight for cl in c.clusters) == pipeadd.num_gates

    def test_gate_cover_exact(self, viterbi_test):
        c = Clustering.top_level(viterbi_test)
        gates = sorted(g for cl in c.gate_clusters() for g in cl)
        assert gates == list(range(viterbi_test.num_gates))


class TestFlat:
    def test_one_gate_per_cluster(self, adder4):
        c = Clustering.flat(adder4)
        assert len(c) == adder4.num_gates
        assert all(cl.weight == 1 for cl in c.clusters)
        assert not any(cl.is_super_gate for cl in c.clusters)


class TestFlatten:
    def test_flatten_replaces_super_gate(self, adder4):
        c = Clustering.top_level(adder4)
        idx = next(i for i, cl in enumerate(c.clusters) if cl.is_super_gate)
        before_weight = c.clusters[idx].weight
        c2 = c.flatten(idx)
        # fa -> 1 'or' gate + 2 ha instances
        assert len(c2) == len(c) + 2
        new = c2.clusters[idx : idx + 3]
        assert sum(cl.weight for cl in new) == before_weight
        assert sum(cl.weight for cl in c2.clusters) == adder4.num_gates

    def test_flatten_plain_gate_rejected(self, pipeadd):
        c = Clustering.top_level(pipeadd)
        idx = next(i for i, cl in enumerate(c.clusters) if not cl.is_super_gate)
        with pytest.raises(PartitionError, match="plain gate"):
            c.flatten(idx)

    def test_flatten_to_bottom(self, adder4):
        c = Clustering.top_level(adder4)
        while True:
            idx = c.largest_super_gate()
            if idx is None:
                break
            c = c.flatten(idx)
        assert len(c) == adder4.num_gates

    def test_largest_super_gate_among(self, pipeadd):
        c = Clustering.top_level(pipeadd)
        supers = [i for i, cl in enumerate(c.clusters) if cl.is_super_gate]
        assert c.largest_super_gate(among=supers[:1]) == supers[0]
        singles = [i for i, cl in enumerate(c.clusters) if not cl.is_super_gate]
        assert c.largest_super_gate(among=singles) is None


class TestHypergraphs:
    def test_hierarchy_smaller_than_flat(self, viterbi_test):
        hh = hierarchy_hypergraph(viterbi_test)
        fh = flat_hypergraph(viterbi_test)
        assert hh.num_vertices < fh.num_vertices
        assert hh.total_weight == fh.total_weight == viterbi_test.num_gates

    def test_hierarchy_edges_are_cross_module_nets(self, adder4):
        hh = hierarchy_hypergraph(adder4)
        # only the carry chain crosses fa instances (PI/PO nets touch one)
        assert hh.num_vertices == 4
        for e in range(hh.num_edges):
            assert hh.edge_size(e) >= 2

    def test_flat_edges_match_nets(self, adder4):
        fh = flat_hypergraph(adder4)
        assert fh.num_vertices == 20
        # every multi-gate net appears
        assert fh.num_edges > 0

    def test_hypergraph_cached(self, adder4):
        c = Clustering.top_level(adder4)
        assert c.hypergraph() is c.hypergraph()

    def test_incomplete_cover_rejected(self, adder4):
        with pytest.raises(PartitionError, match="covers 1 of 20"):
            Clustering(adder4, np.zeros(1, dtype=np.int64), ["only"])
        with pytest.raises(PartitionError, match="vertex 1 .'none'. holds no gate"):
            Clustering(adder4, np.zeros(20, dtype=np.int64), ["all", "none"])
        for stray in (2, -1):
            gate_cluster = np.arange(20) % 2
            gate_cluster[3] = stray
            with pytest.raises(
                PartitionError, match=f"vertex {stray} out of range.* 2 vertices"
            ):
                Clustering(adder4, gate_cluster, ["a", "b"])


def _unordered_netlist():
    """Builder netlist whose gate ids are not in hierarchy preorder:
    gates of ``u`` / ``u.v`` / ``w.x`` / the top level interleave, ``w``
    has no direct gate and ``u.v.leaf`` holds a single one."""
    nb = NetlistBuilder("unordered")
    a, b = nb.input("a"), nb.input("b")
    n = [nb.net(f"n{i}") for i in range(9)]
    nb.gate("and", (a, b), n[0], name="g0", path=("u", "v"))
    nb.gate("not", (n[0],), n[1], name="g1")
    nb.gate("or", (n[1], a), n[2], name="g2", path=("w", "x"))
    nb.gate("not", (n[2],), n[3], name="g3", path=("u",))
    nb.gate("xor", (n[3], n[0]), n[4], name="g4", path=("u", "v", "leaf"))
    nb.gate("buf", (n[4],), n[5], name="g5", path=("w", "x"))
    nb.gate("nand", (n[5], n[1]), n[6], name="g6", path=("u", "v"))
    nb.gate("not", (n[6],), n[7], name="g7")
    nb.gate("and", (n[7], n[2]), n[8], name="g8", path=("u",))
    nb.output_net(n[8])
    return nb.build()


EMPTY_WRAPPER_SRC = """
module nothing (a); input a; endmodule
module pair (y, a); output y; input a;
  wire t; not (t, a); not (y, t); nothing hollow (a);
endmodule
module top (o, i); output o; input i;
  wire w; pair p (w, i); nothing idle (i); pair q (o, w);
endmodule
"""


class TestTreeOracle:
    """The array clustering against the per-gate walk of the HierNode
    tree (``tests/clustering_oracle.py``) over random flatten sequences."""

    @pytest.fixture(
        scope="class",
        params=["pipeadd", "viterbi-test", "noc-test", "cpu-test",
                "unordered", "empty-wrapper"],
    )
    def netlist(self, request, pipeadd):
        if request.param == "pipeadd":
            return pipeadd
        if request.param == "unordered":
            nl = _unordered_netlist()
            assert (np.diff(nl.gate_node) < 0).any()
            return nl
        if request.param == "empty-wrapper":
            return compile_verilog(EMPTY_WRAPPER_SRC)
        return load_circuit(request.param)

    @pytest.mark.parametrize("seed", range(3))
    def test_flatten_sequences(self, netlist, seed):
        rng = np.random.default_rng(seed)
        weights = None if seed == 0 else rng.integers(1, 5, netlist.num_gates)
        before = None
        for clustering, opened in flatten_sequence(netlist, seed, 8, weights):
            gate_cluster, names, vertex_weights, is_super, nodes = tree_clustering(
                netlist, opened, weights
            )
            assert clustering.gate_cluster.tolist() == gate_cluster
            assert clustering.names == names
            assert clustering.weights.tolist() == vertex_weights
            assert clustering.is_super_gate.tolist() == is_super
            assert [c.node for c in clustering.clusters] == nodes
            assert [c.is_super_gate for c in clustering.clusters] == is_super
            for vertex, gate_ids in enumerate(clustering.gate_clusters()):
                assert gate_ids.tolist() == [
                    g for g, v in enumerate(gate_cluster) if v == vertex
                ]
            if before is None:
                assert clustering.parent is None
            else:
                # each new vertex lies inside the old vertex `parent` names
                assert clustering.parent.tolist() == [
                    int(before.gate_cluster[gate_ids[0]])
                    for gate_ids in clustering.gate_clusters()
                ]
                k = min(3, len(before))
                part = rng.integers(0, k, len(before))
                old = PartitionState(before.hypergraph(), k, part)
                new = PartitionState(
                    clustering.hypergraph(), k, part[clustering.parent]
                )
                assert new.cut_size == old.cut_size
                assert new.part_weight.tolist() == old.part_weight.tolist()
            before = clustering

    def test_subtree_is_a_node_range(self, netlist):
        nodes = netlist.nodes
        assert nodes == list(netlist.hierarchy.walk())
        for i, node in enumerate(nodes):
            end = int(netlist.subtree_end[i])
            assert nodes[i:end] == list(node.walk())
            inside = (netlist.gate_node >= i) & (netlist.gate_node < end)
            assert node.total_gates == np.count_nonzero(inside)


class TestSizingBugs:
    """Each failed at the parent of the PR that made the clustering an
    array (a negative-index splice, two bare IndexErrors, a silent
    truncation)."""

    @pytest.mark.parametrize("index", [-1, 4, 99])
    def test_flatten_out_of_range_vertex(self, adder4, index):
        c = Clustering.top_level(adder4)
        with pytest.raises(
            PartitionError, match=f"vertex {index} out of range.* 4 vertices"
        ):
            c.flatten(index)

    @pytest.mark.parametrize("among", [[99], [0, -1], np.array([4])])
    def test_largest_super_gate_out_of_range_vertex(self, adder4, among):
        c = Clustering.top_level(adder4)
        with pytest.raises(PartitionError, match="out of range.* 4 vertices"):
            c.largest_super_gate(among=among)

    def test_fractional_gate_weights_rejected(self):
        nl = compile_verilog(
            "module two (y, a); output y; input a; wire t;"
            " not (t, a); not (y, t); endmodule\n"
            "module top (o, i); output o; input i; wire w, v;"
            " two u (w, i); not (v, w); not (o, v); endmodule"
        )
        assert nl.num_gates == 4
        with pytest.raises(PartitionError, match="must be integers, got 1.5 for gate 0"):
            Clustering.top_level(nl, np.array([1.5, 2, 1, 1]))
        with pytest.raises(PartitionError, match="must be integers"):
            Clustering.flat(nl, [1, 1, float("nan"), 1])
        # integer-valued weights of any type weigh as before
        for weights in ([1, 1, 2, 3], np.array([1.0, 1.0, 2.0, 3.0]),
                        np.array([1, 1, 2, 3], dtype=np.int32)):
            c = Clustering.top_level(nl, weights)
            assert dict(zip(c.names, c.weights.tolist())) == {
                "u": 5, "_g0": 1, "_g1": 1,
            }
