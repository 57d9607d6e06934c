"""Netlist model internals not covered elsewhere."""

import numpy as np
import pytest

from repro.errors import NetlistError
from repro.verilog import CONST0, NetlistBuilder
from repro.verilog.netlist import Netlist
from tests.netlist_rows import flip_flops, gate_rows, net_sinks


class TestNetlistChecks:
    def test_gate_cannot_drive_constant(self):
        nb = NetlistBuilder("t")
        a = nb.input("a")
        nb.gate("buf", (a,), CONST0, name="g")
        with pytest.raises(NetlistError, match="gate 'g' drives a constant net"):
            nb.build()

    def test_gate_on_missing_net_is_a_netlist_error(self):
        nb = NetlistBuilder("t")
        a, y = nb.input("a"), nb.net("y")
        with pytest.raises(NetlistError, match=r"gate 'g' references bad net 99"):
            nb.gate("and", (a, 99), y, name="g")
        with pytest.raises(NetlistError, match=r"gate 'h' references bad net -1"):
            nb.gate("buf", (a,), -1, name="h")
        nl = nb.build()
        assert nl.num_gates == 0 and nl.fanout()[0][a + 1] == 0

    def test_double_driver_is_reported_by_build(self):
        nb = NetlistBuilder("t")
        a, y = nb.input("a"), nb.net("y")
        nb.gate("buf", (a,), y, name="g")
        nb.gate("not", (a,), y, name="h", path=("u",))
        with pytest.raises(
            NetlistError, match=r"^net 'y' driven by both gate 'g' and 'u\.h'$"
        ):
            nb.build()

    def test_driver_and_sinks_indexed(self, adder4):
        csr = adder4
        sinks = net_sinks(csr)
        for gid, _, _, _, inputs, output in gate_rows(adder4):
            assert csr.net_driver[output] == gid
            for nid in inputs:
                assert gid in sinks[nid]

    def test_walk_is_depth_first_self_first(self, adder4):
        names = [n.name for n in adder4.hierarchy.walk()]
        assert names[0] == "top"
        # each fa is followed immediately by its ha children
        i = names.index("f0")
        assert set(names[i + 1 : i + 3]) == {"u1", "u2"}

    def test_sequential_gates_listing(self, pipeadd):
        assert flip_flops(pipeadd) == 14
        assert {row[1] for row in gate_rows(pipeadd)
                if row[1].startswith("dff")} == {"dffr"}

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

    def test_empty_netlist_is_the_constants(self):
        nl = Netlist("t")
        assert (nl.num_nets, nl.num_gates, nl.inputs.tolist(), nl.outputs.tolist()) == (3, 0, [], [])
        assert nl.num_nets == 3 and nl.hierarchy.total_gates == 0


class TestGateRecord:
    def test_paths_prefix_names(self, adder4):
        for _, _, name, path, _, _ in gate_rows(adder4):
            if path:
                assert name.startswith(".".join(path))
