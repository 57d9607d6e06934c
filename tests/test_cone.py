"""Cone partitioning (initial-partition phase)."""

import random

import numpy as np
import pytest

from repro.circuits import available_circuits, load_circuit
from repro.core import cone_partition, input_cones, build_cluster_dag
from repro.core.cone import _ListOrder, _reach
from repro.errors import PartitionError
from repro.hypergraph import Clustering
from repro.obs import MetricsRecorder
from tests.netlist_rows import net_sinks


def _net_walk_dag(clustering):
    """The cluster DAG straight from the netlist, one net at a time —
    the definition ``build_cluster_dag`` is held to."""
    netlist = clustering.netlist
    gate_cluster = {gid: ci for ci, cluster in enumerate(clustering.clusters)
                    for gid in cluster.gate_ids}
    inputs = set(netlist.inputs)
    net_driver = netlist.net_driver.tolist()
    sinks = net_sinks(netlist)
    succ = [set() for _ in clustering.clusters]
    roots = set()
    for nid in range(netlist.num_nets):
        driver = net_driver[nid]
        readers = {gate_cluster[gid] for gid in sinks[nid]}
        if driver >= 0:
            succ[gate_cluster[driver]] |= readers - {gate_cluster[driver]}
        elif nid in inputs:
            roots |= readers
    return [sorted(s) for s in succ], sorted(roots)


class TestClusterDag:
    @pytest.mark.parametrize("name", available_circuits())
    def test_equals_net_walk_on_every_registered_circuit(self, name):
        netlist = load_circuit(name)
        top = Clustering.top_level(netlist)
        views = [top]
        target = top.largest_super_gate()
        if target is not None:
            views.append(top.flatten(target))
        if netlist.num_gates <= 5000:
            views.append(Clustering.flat(netlist))
        for view in views:
            assert build_cluster_dag(view) == _net_walk_dag(view)

    def test_roots_counter_is_the_root_count(self, viterbi_test):
        c = Clustering.top_level(viterbi_test)
        rec = MetricsRecorder()
        cone_partition(c, 3, recorder=rec)
        _, roots = build_cluster_dag(c)
        assert rec.as_counters()["part.cone.roots"] == len(roots) > 0

    def test_adder_carry_chain(self, adder4):
        c = Clustering.top_level(adder4)
        succ, roots = build_cluster_dag(c)
        # fa instances chain via carries: f0 -> f1 -> f2 -> f3
        names = [cl.name for cl in c.clusters]
        idx = {n: i for i, n in enumerate(names)}
        assert idx["f1"] in succ[idx["f0"]]
        assert idx["f3"] in succ[idx["f2"]]
        assert succ[idx["f3"]] == []
        # every fa reads a primary input
        assert set(roots) == set(range(4))

    def test_no_self_loops(self, pipeadd):
        c = Clustering.top_level(pipeadd)
        succ, _ = build_cluster_dag(c)
        for i, s in enumerate(succ):
            assert i not in s


class TestCones:
    def test_cones_cover_reachable(self, adder4):
        c = Clustering.top_level(adder4)
        cones = input_cones(c)
        covered = set()
        for cone in cones:
            covered.update(cone)
        assert covered == set(range(len(c)))

    def test_cones_sorted_heaviest_first(self, adder4):
        c = Clustering.top_level(adder4)
        cones = input_cones(c)
        weights = [c.clusters[i].weight for i in range(len(c))]
        sizes = [sum(weights[v] for v in cone) for cone in cones]
        assert sizes == sorted(sizes, reverse=True)

    def test_cone_is_downstream_closure(self, adder4):
        c = Clustering.top_level(adder4)
        succ, _ = build_cluster_dag(c)
        for cone in input_cones(c):
            cone_set = set(cone)
            for v in cone:
                for nxt in succ[v]:
                    assert nxt in cone_set


class TestConePartition:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_valid_partition(self, viterbi_test, k):
        c = Clustering.top_level(viterbi_test)
        state = cone_partition(c, k)
        assert state.k == k
        assert (state.part >= 0).all() and (state.part < k).all()
        assert state.part_weight.sum() == viterbi_test.num_gates

    def test_no_empty_partition_on_reasonable_input(self, viterbi_test):
        c = Clustering.top_level(viterbi_test)
        state = cone_partition(c, 4)
        assert (state.part_weight > 0).all()

    def test_deterministic_for_seed(self, viterbi_test):
        c = Clustering.top_level(viterbi_test)
        a = cone_partition(c, 3, seed=5).part
        b = cone_partition(c, 3, seed=5).part
        assert (a == b).all()

    def test_too_many_parts(self, adder4):
        c = Clustering.top_level(adder4)
        with pytest.raises(PartitionError, match="cannot make"):
            cone_partition(c, 99)

    def test_loads_roughly_balanced(self, viterbi_test):
        c = Clustering.top_level(viterbi_test)
        state = cone_partition(c, 2)
        total = viterbi_test.num_gates
        # the ideal-spill rule keeps loads within one max-cluster of ideal
        max_cluster = max(cl.weight for cl in c.clusters)
        assert abs(int(state.part_weight[0]) - total / 2) <= max_cluster + total * 0.05


def _bfs_cones(clustering):
    """One breadth-first search per root — the definition the bitset
    closure is held to, ties broken the same way."""
    succ, roots = build_cluster_dag(clustering)
    weights = clustering.weights.tolist()
    cones = []
    for root in roots:
        seen, frontier = {root}, [root]
        while frontier:
            v = frontier.pop()
            for w in succ[v]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        cones.append(sorted(seen))
    return sorted(cones, key=lambda cone: (-sum(weights[c] for c in cone), cone))


@pytest.mark.parametrize("name", ["counter8", "lfsr16", "cpu-test", "mul4",
                                  "noc-test", "memctrl-test"])
def test_cones_equal_one_search_per_root_on_flat_views(name):
    """Flat views have register loops: the strongly connected components
    the closure condenses."""
    c = Clustering.flat(load_circuit(name))
    assert input_cones(c) == _bfs_cones(c)


def test_bitsets_rank_as_their_ascending_lists():
    """Equal-weight cones are ranked by their bitsets exactly as their
    ascending cluster lists would be, prefixes and empty sets included."""
    rng = random.Random(3)
    sets = [0, 1, 2, 3, 0b1010, 0b1011]
    sets += [rng.getrandbits(rng.randint(1, 12)) for _ in range(300)]
    as_list = lambda bits: [i for i in range(bits.bit_length()) if bits >> i & 1]
    assert sorted(sets, key=_ListOrder) == sorted(sets, key=as_list)


@pytest.mark.parametrize("name", ["lfsr16", "cpu-test"])
def test_reach_keeps_only_the_roots_bitsets(name):
    """Every other vertex's bitset is dropped once its readers closed;
    a root's is its breadth-first closure."""
    c = Clustering.flat(load_circuit(name))
    succ, roots = build_cluster_dag(c)
    reach = _reach(succ, roots)
    assert not any(reach[v] for v in set(range(len(succ))) - set(roots))
    for root in roots:
        seen, frontier = {root}, [root]
        while frontier:
            for w in succ[frontier.pop()]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        assert reach[root] == sum(1 << v for v in seen)
