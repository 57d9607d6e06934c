"""Netlist model internals not covered elsewhere."""

import numpy as np
import pytest

from repro.errors import NetlistError
from repro.verilog import CONST0, NetlistBuilder, compile_verilog
from repro.verilog.netlist import Netlist


class TestNetlistChecks:
    def test_gate_cannot_drive_constant(self):
        nl = Netlist("t")
        a = nl.add_net("a")
        with pytest.raises(NetlistError, match="constant"):
            nl.add_gate("buf", "g", (), (a,), CONST0)

    def test_gate_on_missing_net_is_a_netlist_error(self):
        nl = Netlist("t")
        a, y = nl.add_net("a"), nl.add_net("y")
        with pytest.raises(NetlistError, match=r"gate 'g' references bad net 99"):
            nl.add_gate("and", "g", (), (a, 99), y)
        with pytest.raises(NetlistError, match=r"gate 'h' references bad net -1"):
            nl.add_gate("buf", "h", (), (a,), -1)
        assert nl.num_gates == 0 and nl.net_sinks[a] == []

    def test_gate_on_missing_hierarchy_path_is_a_netlist_error(self):
        nl = Netlist("t")
        a, y = nl.add_net("a"), nl.add_net("y")
        nl.add_gate("buf", "u.g", ("u",), (a,), y)
        with pytest.raises(
            NetlistError,
            match=r"gate 'u\.g' has path \('u',\), which names no hierarchy node",
        ):
            nl.finalize()

    def test_driver_and_sinks_indexed(self, adder4):
        for gate in adder4.gates:
            assert adder4.driver_of(gate.output) == gate.gid
            for nid in gate.inputs:
                assert gate.gid in adder4.sinks_of(nid)

    def test_walk_is_depth_first_self_first(self, adder4):
        names = [n.name for n in adder4.hierarchy.walk()]
        assert names[0] == "top"
        # each fa is followed immediately by its ha children
        i = names.index("f0")
        assert set(names[i + 1 : i + 3]) == {"u1", "u2"}

    def test_sequential_gates_listing(self, pipeadd):
        seq = pipeadd.sequential_gates()
        assert len(seq) == 14
        assert all(g.gtype == "dffr" for g in seq)

    def test_repr_contains_counts(self, adder4):
        text = repr(adder4)
        assert "gates=20" in text

    def test_builder_hierarchy_nesting(self):
        nb = NetlistBuilder("t")
        a = nb.input("a")
        y1, y2 = nb.net(), nb.net()
        nb.gate("not", (a,), y1, path=("outer", "inner"))
        nb.gate("not", (y1,), y2, path=("outer",))
        nl = nb.build()
        outer = nl.hierarchy.children["outer"]
        assert outer.total_gates == 2
        assert outer.children["inner"].total_gates == 1
        assert np.flatnonzero(nl.gate_node == nl.nodes.index(outer)).tolist() == [1]


class TestGateRecord:
    def test_paths_prefix_names(self, adder4):
        for gate in adder4.gates:
            if gate.path:
                assert gate.name.startswith(".".join(gate.path))

    def test_gate_is_frozen(self, adder4):
        with pytest.raises(AttributeError):
            adder4.gates[0].gtype = "or"  # type: ignore[misc]
