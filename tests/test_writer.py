"""Writer round-trip tests, including a property-based AST round trip."""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import load_circuit, random_vectors
from repro.sim import InputEvent, SequentialSimulator, compile_circuit
from repro.verilog import (
    compile_verilog,
    optimize_netlist,
    parse_source,
    write_netlist_verilog,
    write_source,
)
from repro.verilog import ast
from repro.verilog.writer import format_expr
from tests.netlist_rows import flip_flops

GOLDENS = Path(__file__).resolve().parent / "goldens"


class TestFormatExpr:
    def test_identifier(self):
        assert format_expr(ast.Identifier("foo")) == "foo"

    def test_keyword_escaped(self):
        assert format_expr(ast.Identifier("wire")) == "\\wire "

    def test_dotted_escaped(self):
        assert format_expr(ast.Identifier("a.b")) == "\\a.b "

    def test_bit_select(self):
        assert format_expr(ast.BitSelect("v", 3)) == "v[3]"

    def test_part_select(self):
        assert format_expr(ast.PartSelect("v", 7, 4)) == "v[7:4]"

    def test_concat(self):
        e = ast.Concat((ast.Identifier("a"), ast.BitSelect("b", 0)))
        assert format_expr(e) == "{a, b[0]}"

    def test_literal_msb_first(self):
        assert format_expr(ast.Literal((0, 1))) == "2'b10"

    def test_literal_with_x(self):
        assert format_expr(ast.Literal((2, 1))) == "2'b1x"


class TestSourceRoundTrip:
    def test_simple(self, adder4):
        src = parse_source(open_text())
        text = write_source(src)
        src2 = parse_source(text)
        assert set(src2.modules) == set(src.modules)
        nl1 = compile_verilog(open_text())
        nl2 = compile_verilog(text)
        assert nl1.num_gates == nl2.num_gates
        assert nl1.num_nets == nl2.num_nets

    def test_netlist_roundtrip(self, adder4):
        text = write_netlist_verilog(adder4)
        nl2 = compile_verilog(text)
        assert nl2.num_gates == adder4.num_gates
        assert len(nl2.inputs) == len(adder4.inputs)
        assert len(nl2.outputs) == len(adder4.outputs)

    def test_netlist_roundtrip_with_constants(self):
        nl = compile_verilog(
            """
            module t (o); output o;
              supply1 vdd; wire a;
              and (o, vdd, a);
              buf (a, 1'b0);
            endmodule
            """
        )
        text = write_netlist_verilog(nl)
        nl2 = compile_verilog(text)
        assert nl2.num_gates == nl.num_gates

    def test_sequential_netlist_roundtrip(self, pipeadd):
        text = write_netlist_verilog(pipeadd)
        nl2 = compile_verilog(text)
        assert nl2.num_gates == pipeadd.num_gates
        assert flip_flops(nl2) == flip_flops(pipeadd)


def _outputs_after(netlist, events):
    sim = SequentialSimulator(compile_circuit(netlist))
    sim.add_inputs(events)
    sim.run()
    return sim.output_values()


def _assert_round_trip(nl):
    """The written text re-parses to a netlist with the same ports that
    simulates equal on random vectors."""
    back = compile_verilog(write_netlist_verilog(nl))
    assert back.num_gates == nl.num_gates
    assert (len(back.inputs), len(back.outputs)) == (len(nl.inputs), len(nl.outputs))
    for seed in range(3):
        events = random_vectors(nl, 8, seed=seed)
        # inputs are matched by position: the port order is the netlist's
        where = {n: m for n, m in zip(nl.inputs, back.inputs)}
        moved = [InputEvent(e.time, where[e.net], e.value) for e in events]
        assert _outputs_after(back, moved) == _outputs_after(nl, events)


class TestSpecialOutputs:
    """Output bits that are an input, a repeat or a constant get ports of
    their own (each once read back as ``duplicate port declaration`` or
    as X)."""

    def test_output_aliased_to_input(self):
        nl = compile_verilog(
            "module t (a, y, z); input a; output y, z;"
            " assign y = a; not (z, a); endmodule"
        )
        assert nl.outputs[0] == nl.inputs[0]
        _assert_round_trip(nl)

    def test_two_outputs_on_one_net(self):
        nl = compile_verilog(
            "module t (a, b, y, z); input a, b; output y, z;"
            " and (y, a, b); assign z = y; endmodule"
        )
        assert nl.outputs[0] == nl.outputs[1]
        _assert_round_trip(nl)

    def test_output_folded_to_a_constant(self):
        nl = compile_verilog(
            "module t (a, y, z, w); input a; output y, z, w;"
            " and (y, a, 1'b0); or (z, a, 1'b1); xor (w, a, y); endmodule"
        )
        opt, _ = optimize_netlist(nl)
        assert opt.outputs[:2].tolist() == [0, 1]  # CONST0, CONST1
        _assert_round_trip(opt)
        text = write_netlist_verilog(opt)
        assert "assign _out0 = 1'b0;" in text and "assign _out1 = 1'b1;" in text

    def test_port_names_avoid_net_names(self):
        nl = compile_verilog(
            "module t (a, y, z); input a; output y, z; wire _out1;"
            " not (_out1, a); and (y, _out1, a); assign z = y; endmodule"
        )
        assert nl.net_names[nl.outputs[1]] == "y"
        text = write_netlist_verilog(nl)
        assert "output __out1;" in text
        _assert_round_trip(nl)


class TestOptimizedGolden:
    """``repro optimize circuit:viterbi-test -o`` output, diffed byte for
    byte and re-elaborated."""

    def test_matches_committed_file(self):
        opt, _ = optimize_netlist(load_circuit("viterbi-test"))
        text = write_netlist_verilog(opt)
        assert text == (GOLDENS / "viterbi-test.opt.v.ok").read_text()
        back = compile_verilog(text)
        assert (back.num_gates, len(back.inputs), len(back.outputs)) == (
            opt.num_gates, len(opt.inputs), len(opt.outputs))


def open_text():
    from tests.conftest import ADDER4_SRC

    return ADDER4_SRC


# -- property-based: random module AST -> text -> parse -> identical AST ----

_ident = st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True)


@st.composite
def random_module(draw):
    name = draw(_ident)
    n_nets = draw(st.integers(2, 8))
    nets = [f"n{i}" for i in range(n_nets)]
    m = ast.Module(name="m_" + name)
    for net in nets:
        width = draw(st.integers(1, 4))
        rng = None if width == 1 else ast.Range(width - 1, 0)
        m.net_decls[net] = ast.NetDecl(net, rng)
    n_gates = draw(st.integers(0, 6))
    for g in range(n_gates):
        gt = draw(st.sampled_from(["and", "or", "nand", "xor", "not", "buf"]))
        n_in = 1 if gt in ("not", "buf") else draw(st.integers(2, 3))
        scalars = [n for n in nets if m.net_decls[n].range is None]
        vectors = [n for n in nets if m.net_decls[n].range is not None]

        def term():
            if vectors and draw(st.booleans()):
                v = draw(st.sampled_from(vectors))
                return ast.BitSelect(v, draw(st.integers(0, m.net_decls[v].range.msb)))
            if scalars:
                return ast.Identifier(draw(st.sampled_from(scalars)))
            v = draw(st.sampled_from(vectors))
            return ast.BitSelect(v, 0)

        m.gates.append(
            ast.GateInst(gt, f"g{g}", tuple(term() for _ in range(n_in + 1)))
        )
    return m


@given(random_module())
@settings(max_examples=60, deadline=None)
def test_ast_roundtrip(module):
    src = ast.Source()
    src.add(module)
    text = write_source(src)
    parsed = parse_source(text)
    back = parsed.modules[module.name]
    assert back.name == module.name
    assert set(back.net_decls) == set(module.net_decls)
    assert len(back.gates) == len(module.gates)
    for g1, g2 in zip(module.gates, back.gates):
        assert g1.gtype == g2.gtype
        assert g1.name == g2.name
        assert g1.terminals == g2.terminals
