"""Netlist optimizer: folding correctness + simulation equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import random_logic_verilog, random_vectors
from repro.sim import InputEvent, SequentialSimulator, compile_circuit
from repro.verilog import compile_verilog
from repro.verilog.optimize import optimize_netlist
from tests.netlist_rows import flip_flops, gate_rows


def outputs_after(netlist, events):
    sim = SequentialSimulator(compile_circuit(netlist))
    sim.add_inputs(events)
    sim.run()
    return sim.output_values()


class TestFolding:
    def test_constant_and_folds(self):
        nl = compile_verilog(
            "module t (o, a); output o; input a; and (o, a, 1'b0); endmodule"
        )
        opt, stats = optimize_netlist(nl)
        assert opt.num_gates == 0
        assert stats.const_folded == 1
        assert outputs_after(opt, [InputEvent(0, opt.inputs[0], 1)]) == [0]

    def test_neutral_constant_not_folded(self):
        """and(a, 1) is not constant; the conservative passes keep it."""
        nl = compile_verilog(
            "module t (o, a); output o; input a; and (o, a, 1'b1); endmodule"
        )
        opt, _ = optimize_netlist(nl)
        assert opt.num_gates == 1

    def test_buffer_chain_collapses(self):
        nl = compile_verilog(
            """
            module t (o, a); output o; input a;
              wire m1, m2;
              buf (m1, a); buf (m2, m1); buf (o, m2);
            endmodule
            """
        )
        opt, stats = optimize_netlist(nl)
        assert opt.num_gates == 0
        assert stats.buffers_collapsed == 3
        assert outputs_after(opt, [InputEvent(0, opt.inputs[0], 1)]) == [1]

    def test_transitive_constant_wave(self):
        nl = compile_verilog(
            """
            module t (o, a); output o; input a;
              wire m1, m2;
              nor (m1, 1'b1, a);     // = 0
              or (m2, m1, 1'b0);     // = 0
              xor (o, m2, a);        // = a, but xor isn't folded: 1 gate
            endmodule
            """
        )
        opt, stats = optimize_netlist(nl)
        assert stats.const_folded >= 2
        assert opt.num_gates == 1
        assert outputs_after(opt, [InputEvent(0, opt.inputs[0], 1)]) == [1]

    def test_dead_logic_removed(self):
        nl = compile_verilog(
            """
            module t (o, a, b); output o; input a, b;
              wire unused;
              xor (unused, a, b);   // observable by nothing
              and (o, a, b);
            endmodule
            """
        )
        opt, stats = optimize_netlist(nl)
        assert stats.dead_removed == 1
        assert opt.num_gates == 1

    def test_dead_flipflop_removed(self):
        nl = compile_verilog(
            """
            module t (o, a, clk); output o; input a, clk;
              wire q;
              dff (q, a, clk);      // state nobody reads
              buf (o, a);
            endmodule
            """
        )
        opt, stats = optimize_netlist(nl)
        assert stats.dead_removed == 1
        assert opt.num_gates == 0  # the buf collapsed too

    def test_live_flipflop_kept(self, pipeadd):
        opt, stats = optimize_netlist(pipeadd)
        assert flip_flops(opt) == flip_flops(pipeadd)

    def test_hierarchy_preserved(self, pipeadd):
        opt, _ = optimize_netlist(pipeadd)
        assert set(opt.hierarchy.children) <= set(pipeadd.hierarchy.children)
        for gid, _, _, path, _, _ in gate_rows(opt):
            node = opt.hierarchy
            for name in path:
                node = node.children[name]
            assert opt.gate_node[gid] == opt.nodes.index(node)

    def test_stats_summary(self, pipeadd):
        _, stats = optimize_netlist(pipeadd)
        text = stats.summary()
        assert "gates" in text and str(stats.gates_after) in text


class TestEquivalence:
    @pytest.mark.parametrize("name", ["adder4", "pipeadd", "viterbi"])
    def test_fixture_circuits(self, name, adder4, pipeadd, viterbi_test):
        nl = {"adder4": adder4, "pipeadd": pipeadd, "viterbi": viterbi_test}[name]
        opt, _ = optimize_netlist(nl)
        events = random_vectors(nl, 12, seed=5)
        name_map = {opt.net_name(n): n for n in opt.inputs}
        remapped = [
            InputEvent(e.time, name_map[nl.net_name(e.net)], e.value)
            for e in events
        ]
        assert outputs_after(nl, events) == outputs_after(opt, remapped)

    @given(st.integers(0, 10_000), st.integers(20, 100))
    @settings(max_examples=30, deadline=None)
    def test_random_circuits(self, seed, n_gates):
        nl = compile_verilog(random_logic_verilog(n_gates, 6, seed=seed))
        opt, stats = optimize_netlist(nl)
        assert stats.gates_after <= stats.gates_before
        events = random_vectors(nl, 6, seed=seed + 1)
        name_map = {opt.net_name(n): n for n in opt.inputs}
        remapped = [
            InputEvent(e.time, name_map[nl.net_name(e.net)], e.value)
            for e in events
        ]
        assert outputs_after(nl, events) == outputs_after(opt, remapped)
