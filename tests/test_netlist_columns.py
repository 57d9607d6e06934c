"""The columnar netlist: one construction route, shared array kernels,
label propagation.

A :class:`Netlist` stores arrays (``netlist``) plus names and the
instance tree, and gets them through one call,
:meth:`Netlist.adopt_columns`.  These tests pin (a) that the elaborator's
columns are exactly what :class:`NetlistBuilder` produces when the same
circuit is wired through it gate by gate, (b) the cluster-hypergraph
kernel against a set-per-net oracle, (c) the elaborator's label
propagation against a plain union-find, and (d) that a netlist survives
pickling.
"""

from __future__ import annotations

import pickle
import random

import numpy as np
import pytest

from repro.circuits import CIRCUITS, load_circuit, random_vectors
from repro.errors import ElaborationError, NetlistError
from repro.hypergraph import Clustering
from repro.sim.compiled import compile_circuit
from repro.verilog import NetlistBuilder, compile_verilog
from repro.verilog.elaborate import component_min
from repro.verilog.netlist import _NUM_CONST_NETS, CONST_NAMES, Netlist
from tests.clustering_oracle import flatten_sequence
from tests.netlist_rows import gate_rows, net_sinks
from tests.test_elaborate import _netlist_digest


def _replay(nl: Netlist) -> Netlist:
    """The same circuit wired through :class:`NetlistBuilder` one net and
    one gate at a time, read from the columns only (module names, which
    the builder does not take, are copied onto the replayed tree)."""
    nb = NetlistBuilder(nl.top)
    inputs = set(nl.inputs)
    for nid, name in enumerate(nl.net_names[3:], start=3):
        (nb.input if nid in inputs else nb.net)(name)
    for _, gtype, name, path, pins, output in gate_rows(nl):
        local = name[len(".".join(path)) + 1:] if path else name
        nb.gate(gtype, pins, output, name=local, path=path)
    for nid in nl.outputs:
        nb.output_net(nid)
    out = nb.build()
    for src, dst in zip(nl.nodes, out.nodes, strict=True):
        dst.module = src.module
    return out


class TestViewsEqualReplay:
    """The builder route is the oracle of the elaborator's columns."""

    @pytest.mark.parametrize("name", sorted(CIRCUITS))
    def test_views_and_lowered_columns(self, name):
        nl = load_circuit(name)
        replay = _replay(nl)
        assert _netlist_digest(nl) == _netlist_digest(replay)
        a, b = nl, replay
        assert a.gate_types == b.gate_types
        for column in ("gate_code", "gate_output", "pin_ptr", "pin_net",
                       "inputs", "outputs", "net_driver"):
            assert np.array_equal(getattr(a, column), getattr(b, column)), column
        assert np.array_equal(nl.gate_node, replay.gate_node)
        assert np.array_equal(nl.subtree_end, replay.subtree_end)


def _oracle(clustering: Clustering):
    """One set per net: (pins per edge, driver cluster per edge)."""
    nl = clustering.netlist
    where = {g: ci for ci, c in enumerate(clustering.clusters) for g in c.gate_ids}
    touched = [set() for _ in range(nl.num_nets)]
    drivers = [-1] * nl.num_nets
    for gid, _, _, _, inputs, output in gate_rows(nl):
        drivers[output] = where[gid]
        touched[output].add(where[gid])
        for nid in inputs:
            touched[nid].add(where[gid])
    spanning = [n for n in range(nl.num_nets) if len(touched[n]) > 1]
    return (
        [sorted(touched[n]) for n in spanning],
        [drivers[n] for n in spanning],
    )


def _corner_netlist() -> Netlist:
    nb = NetlistBuilder("corner")
    a, b = nb.input("a"), nb.input("b")
    loop, twice, y = nb.net("loop"), nb.net("twice"), nb.net("y")
    floating = nb.net("floating")
    nb.gate("nand", (a, loop), loop, name="self")       # reads its own output
    nb.gate("and", (b, b), twice, name="dup", path=("u",))  # one net on two pins
    nb.gate("or", (loop, twice, floating), y, name="g", path=("u", "v"))
    nb.gate("buf", (floating,), nb.net("z"), name="h")  # undriven net, two readers
    nb.output_net(y)
    return nb.build()


class TestClusterHypergraphOracle:
    @pytest.fixture(
        scope="class", params=["cpu8", "noc-bench", "viterbi-single", "corner"]
    )
    def netlist(self, request):
        if request.param == "corner":
            return _corner_netlist()
        return load_circuit(request.param)

    def _check(self, clustering: Clustering):
        hg = clustering.hypergraph()
        pins, drivers = _oracle(clustering)
        assert hg.edge_pins_lists() == pins
        assert clustering.edge_drivers() == drivers
        assert hg.vertex_weight.tolist() == [c.weight for c in clustering.clusters]

    def test_top_level(self, netlist):
        self._check(Clustering.top_level(netlist))

    def test_flat(self, netlist):
        self._check(Clustering.flat(netlist))

    def test_flattened_once(self, netlist):
        top = Clustering.top_level(netlist)
        self._check(top.flatten(top.largest_super_gate()))

    @pytest.mark.parametrize("seed", range(2))
    def test_flatten_sequences(self, netlist, seed):
        # the sequences tests/test_clustering.py holds to the tree oracle
        for clustering, _ in flatten_sequence(netlist, seed, 6):
            self._check(clustering)


def test_gateless_netlist_goes_through_every_array_consumer():
    nb = NetlistBuilder("empty")
    nb.input("a")
    nl = nb.build()
    for clustering in (Clustering.top_level(nl), Clustering.flat(nl)):
        assert clustering.hypergraph().num_edges == 0
        assert clustering.edge_drivers() == []
    assert compile_circuit(nl).num_gates == 0
    assert random_vectors(nl, 1)[0].net == nl.inputs[0]
    assert gate_rows(nl) == []
    assert (nl.net_driver.tolist(), net_sinks(nl)) == ([-1] * 4, [[]] * 4)


def _union_find_min(n, pairs):
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        parent[max(ra, rb)] = min(ra, rb)
    return [find(x) for x in range(n)]


class TestLabelPropagation:
    def _check(self, n, pairs):
        a = np.array([p[0] for p in pairs], dtype=np.int64)
        b = np.array([p[1] for p in pairs], dtype=np.int64)
        labels, _ = component_min(n, a, b)
        assert labels.tolist() == _union_find_min(n, pairs)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_pairs(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(1, 400)
        pairs = [
            (rng.randrange(n), rng.randrange(n))
            for _ in range(rng.randrange(0, 2 * n))
        ]
        self._check(n, pairs)

    @pytest.mark.parametrize(
        "order", ["ascending", "descending", "shuffled", "permuted ids"]
    )
    def test_long_chain(self, order):
        n = 3000
        ids = list(range(n))
        if order == "permuted ids":
            random.Random(1).shuffle(ids)
        pairs = [(ids[i + 1], ids[i]) for i in range(n - 1)]
        if order == "descending":
            pairs.reverse()
        elif order == "shuffled":
            random.Random(0).shuffle(pairs)
        self._check(n, pairs)

    def test_chain_of_stars_and_no_pairs(self):
        hubs = list(range(0, 900, 30))
        pairs = [(h + j, h) for h in hubs for j in range(1, 30)]
        pairs += [(b, a) for a, b in zip(hubs, hubs[1:])][::-1]
        self._check(900, pairs)
        self._check(5, [])

    def test_merged_constants_are_rejected(self):
        with pytest.raises(ElaborationError) as exc:
            compile_verilog(
                "module t (); supply0 a; supply1 b; assign a = b; endmodule"
            )
        assert str(exc.value) == "constant nets were merged together"


@pytest.mark.parametrize("name", ["adder8", "cpu-test", "viterbi-test"])
def test_pickle_round_trip_keeps_the_netlist(name):
    nl = load_circuit(name)
    clone = pickle.loads(pickle.dumps(nl))
    assert _netlist_digest(clone) == _netlist_digest(nl)
    assert np.array_equal(clone.pin_net, nl.pin_net)


class TestPrimitiveTable:
    """``Netlist.validate`` holds array-built netlists to the same
    type and arity rules the parser holds Verilog text to."""

    @staticmethod
    def _gates(*gates: tuple[str, int]) -> Netlist:
        """``gates`` ((type, input count) each) over primary inputs
        ``3, 4, ...``, handed to ``adopt_columns`` as raw columns."""
        counts = [n for _, n in gates]
        types = tuple(dict.fromkeys(gtype for gtype, _ in gates))
        num_nets = _NUM_CONST_NETS + max(counts) + len(gates)
        pin_ptr = np.zeros(len(gates) + 1, dtype=np.int64)
        np.cumsum(counts, out=pin_ptr[1:])
        netlist = Netlist("t")
        netlist.adopt_columns(
            [*CONST_NAMES, *(f"n{i}" for i in range(3, num_nets)),
             *(f"g{i}" for i in range(len(gates)))],
            np.array([[0, 0, num_nets]]), np.zeros((1, 3), dtype=np.int64),
            np.arange(num_nets), types,
            np.array([types.index(gtype) for gtype, _ in gates], dtype=np.int16),
            num_nets - len(gates) + np.arange(len(gates)), pin_ptr,
            np.concatenate([_NUM_CONST_NETS + np.arange(n) for n in counts]),
            _NUM_CONST_NETS + np.arange(max(counts)), np.zeros(0, dtype=np.int64),
        )
        return netlist

    @classmethod
    def _one_gate(cls, gtype: str, n_inputs: int) -> Netlist:
        return cls._gates((gtype, n_inputs))

    @pytest.mark.parametrize("gtype, n_inputs", [
        ("not", 2), ("buf", 2), ("and", 1), ("xor", 1),
        ("dff", 3), ("dffr", 2), ("dffe", 4),
    ])
    def test_wrong_arity_rejected(self, gtype, n_inputs):
        with pytest.raises(NetlistError, match=rf"gate 0 \({gtype}\) has "
                                               rf"{n_inputs} inputs"):
            self._one_gate(gtype, n_inputs)

    def test_unknown_type_rejected(self):
        with pytest.raises(NetlistError, match="gate 0 has unknown type 'bogus'"):
            self._one_gate("bogus", 1)

    @pytest.mark.parametrize("gtype, n_inputs", [
        ("not", 1), ("and", 2), ("nand", 5), ("dff", 2), ("dffr", 3),
    ])
    def test_legal_arity_accepted(self, gtype, n_inputs):
        assert self._one_gate(gtype, n_inputs).num_gates == 1

    def test_first_offending_gate_is_named(self):
        with pytest.raises(NetlistError, match=r"gate 1 \(and\) has 1 inputs"):
            self._gates(("and", 3), ("and", 1))
