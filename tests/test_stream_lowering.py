"""Lowering a recorded top module onto cell templates.

:func:`repro.circuits.stream.lower_module` reads the record a
:class:`~repro.circuits._vlog.ModuleWriter` keeps and builds the
:class:`Netlist` the text path would elaborate from
:meth:`~repro.circuits._vlog.ModuleWriter.emit` — gate for gate, with
primary I/O in port order.  What the record can say but the lowering
cannot express ends in an :class:`ElaborationError`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits._vlog import ModuleWriter
from repro.circuits.stream import ModuleTemplate, StreamBuilder, lower_module
from repro.errors import ElaborationError
from repro.verilog import compile_verilog, parse_source
from tests.test_stream_circuits import assert_stream_equivalent


def _cell() -> str:
    """3-bit cell: y = a & b per bit, plus a registered OR of a."""
    m = ModuleWriter("cell")
    a = m.input("a", 3)
    b = m.input("b", 3)
    clk = m.input("clk")[0]
    y = m.output("y", 3)
    q = m.output("q")[0]
    for i in range(3):
        m.gate("and", y[i], a[i], b[i])
    t = m.wire("t")[0]
    m.gate("or", t, a[0], a[1], a[2])
    m.dff(q, t, clk)
    return m.emit()


def _top() -> ModuleWriter:
    """Own gates of mixed type and arity around three cell instances,
    one gate recorded between them; whole-bus, bit-select, constant
    and concatenation connections; a wire declared after its use."""
    m = ModuleWriter("top")
    clk = m.input("clk")[0]
    x = m.input("x", 3)
    out = m.output("out", 2)
    w = m.wire("w", 3)
    v = m.wire("v", 3)
    m.wire("r", 2)
    q = m.wire("q", 2)
    m.wire("s")
    m.wire("p", 3)
    m.gate("not", w[0], x[0])
    m.gate("not", w[1], x[1])
    m.gate("xor", w[2], x[2], "1'b1")
    m.gate("and", out[0], q[0], q[1], "late")
    m.instance("cell", "u0", {"a": "x", "b": "{1'b0, w[1], x[2]}",
                              "clk": clk, "y": "v", "q": "q[0]"})
    m.instance("cell", "u1", {"a": "w", "b": "x", "clk": clk,
                              "y": "{s, r[1], r[0]}", "q": "q[1]"})
    m.gate("buf", out[1], v[2])
    m.instance("cell", "u2", {"a": "v", "b": "x", "clk": clk,
                              "y": "p", "q": "late"})
    m.wire("late")
    return m


def _lower(top: ModuleWriter):
    return lower_module(top, _cell())


def _template() -> ModuleTemplate:
    return ModuleTemplate.from_source(parse_source(_cell()), "cell")


def test_lowered_matches_elaborated_text():
    top = _top()
    parsed = compile_verilog(_cell() + "\n" + top.emit())
    assert_stream_equivalent(parsed, _lower(top))


def test_declaration_order_sets_net_ids_and_primary_io():
    csr = _lower(_top())
    # clk, x[0..2], out[0..1] are the first declared nets after the
    # three constants
    assert csr.inputs.tolist() == [3, 4, 5, 6]
    assert csr.outputs.tolist() == [7, 8]


def test_own_gates_come_first_in_body_order():
    top = _top()
    csr = _lower(top)
    own = [csr.gate_type(g) for g in range(len(top.gates))]
    assert own == ["not", "not", "xor", "and", "buf"]
    assert csr.gate_inputs(2).tolist() == [6, 1]  # x[2], 1'b1


def test_concatenation_is_msb_first():
    top = _top()
    csr = _lower(top)
    # u0's first gate is and(y[0], a[0], b[0]); b = {1'b0, w[1], x[2]}
    # so b[0] is x[2] (net 6) and b[2] the constant 0
    first = len(top.gates)
    assert csr.gate_type(first) == "and"
    assert csr.gate_inputs(first).tolist() == [4, 6]
    assert csr.gate_inputs(first + 2).tolist() == [6, 0]


def test_consecutive_instances_stamp_as_one_block(monkeypatch):
    # the gate recorded between u1 and u2 is hoisted ahead of every
    # instance, so all three instances are one run of one cell
    blocks = []
    stamp = StreamBuilder.stamp

    def counting(self, template, port_nets):
        blocks.append(len(port_nets))
        stamp(self, template, port_nets)

    monkeypatch.setattr(StreamBuilder, "stamp", counting)
    _lower(_top())
    assert blocks == [3]


def test_merged_stamp_equals_separate_stamps():
    cell = _template()
    rows = np.arange(3, 3 + 2 * cell.num_ports, dtype=np.int64).reshape(2, -1)
    built = []
    for blocks in ([rows], [rows[:1], rows[1:]]):
        b = StreamBuilder("t")
        b.nets(rows.size)
        for block in blocks:
            b.stamp(cell, block)
        built.append(b.build())
    one, two = built
    assert one.num_nets == two.num_nets
    for col in ("gate_code", "gate_output", "pin_ptr", "pin_net"):
        assert np.array_equal(getattr(one, col), getattr(two, col))


def test_template_keeps_port_list():
    cell = _template()
    assert cell.ports == (("a", 3), ("b", 3), ("clk", 1), ("y", 3), ("q", 1))
    assert sum(w for _, w in cell.ports) == cell.num_ports


# -- what the lowering refuses ------------------------------------------------


def _simple(connections: dict[str, str], *, cell: str = "cell") -> ModuleWriter:
    m = ModuleWriter("top")
    m.input("clk")
    m.input("x", 3)
    m.wire("y", 3)
    m.wire("q")
    m.instance(cell, "u0", connections)
    return m


GOOD = {"a": "x", "b": "x", "clk": "clk", "y": "y", "q": "q"}


def test_simple_top_lowers():
    assert _lower(_simple(dict(GOOD))).num_gates == 5


def test_range_select_rejected():
    with pytest.raises(ElaborationError, match="range select"):
        _lower(_simple({**GOOD, "a": "x[2:0]"}))


def test_unknown_cell_rejected():
    with pytest.raises(ElaborationError, match="unknown cell 'nope'"):
        _lower(_simple(dict(GOOD), cell="nope"))


def test_unconnected_port_rejected():
    conns = dict(GOOD)
    del conns["clk"]
    with pytest.raises(ElaborationError, match="'clk' of u0 .* unconnected"):
        _lower(_simple(conns))


def test_unknown_port_rejected():
    with pytest.raises(ElaborationError, match="no port 'z'"):
        _lower(_simple({**GOOD, "z": "clk"}))


def test_width_mismatch_rejected():
    with pytest.raises(ElaborationError, match="u0.a is 3 bits"):
        _lower(_simple({**GOOD, "a": "{x[0], x[1]}"}))


def test_undeclared_net_rejected():
    with pytest.raises(ElaborationError, match="names no declared net"):
        _lower(_simple({**GOOD, "b": "ghost"}))


def test_select_past_width_rejected():
    with pytest.raises(ElaborationError, match="selects past"):
        _lower(_simple({**GOOD, "q": "x[3]"}))


def test_duplicate_declaration_rejected():
    m = _simple(dict(GOOD))
    m.wire("y")
    with pytest.raises(ElaborationError, match="'y' declared twice"):
        _lower(m)


def test_wide_gate_terminal_rejected():
    m = _simple(dict(GOOD))
    m.gate("buf", "q", "x")
    with pytest.raises(ElaborationError, match="gate terminal 'x' is 3 bits"):
        _lower(m)
