"""Streamed-vs-parsed equivalence for the array-native circuit path.

The tentpole claim of the streamed construction
(:mod:`repro.circuits.stream`): for every family that exists in both
registries, the :class:`Netlist` emitted directly matches the
netlist parsed from the generated Verilog **gate for gate** — same
gate count, same type and arity at every gate index, and a consistent
net-id bijection covering primary I/O positionally.  On top of that,
the chunked hypergraph build must be bit-identical to the object-model
build, and the compiled-circuit arrays must match between the two
construction paths.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits import (
    STREAM_CIRCUITS,
    load_circuit,
    load_stream_circuit,
)
from repro.circuits.memctrl import MemCtrlConfig, memctrl_stream, memctrl_verilog
from repro.circuits.noc import NocConfig, noc_stream, noc_verilog
from repro.circuits._vlog import ModuleWriter
from repro.circuits.stream import lower_module
from repro.circuits.viterbi import ViterbiConfig, viterbi_stream, viterbi_verilog
from repro.errors import ConfigError, ElaborationError
from repro.hypergraph.build import flat_hypergraph, streamed_flat_hypergraph
from repro.sim.compiled import compile_circuit
from repro.verilog import CONST0, compile_verilog
from repro.verilog.netlist import _NUM_CONST_NETS
from repro.verilog.netlist import Netlist
from tests.netlist_rows import gate_rows

#: small configs of the three streamed families — cheap enough that the
#: full bijection check runs in tier-1 time
SMALL = {
    "viterbi": (
        viterbi_verilog,
        viterbi_stream,
        ViterbiConfig(channels=1, states=4, traceback=6, width=4, smu_cols=3),
    ),
    "noc": (noc_verilog, noc_stream, NocConfig(rows=2, cols=3, width=3)),
    "memctrl": (
        memctrl_verilog,
        memctrl_stream,
        MemCtrlConfig(banks=4, abits=3, width=3, queue=2),
    ),
}


def assert_stream_equivalent(netlist, csr) -> np.ndarray:
    """Gate-for-gate equivalence via a net-id bijection.

    Gate ``i`` of the parsed netlist must be gate ``i`` of the stream
    (same type, same arity), and the pairing of their output/input nets
    must form a single consistent bijection that also maps primary I/O
    positionally and pins the three constant nets to themselves.
    Returns the bijection, parsed net id -> streamed net id.
    """
    assert csr.num_gates == netlist.num_gates
    assert csr.num_nets == netlist.num_nets
    fwd = np.full(netlist.num_nets, -1, dtype=np.int64)  # parsed -> stream
    rev = np.full(csr.num_nets, -1, dtype=np.int64)

    def bind(a: int, b: int) -> None:
        if fwd[a] == -1:
            assert rev[b] == -1, f"net {b} bound twice on the stream side"
            fwd[a] = b
            rev[b] = a
        else:
            assert fwd[a] == b and rev[b] == a

    for c in range(_NUM_CONST_NETS):
        bind(c, c)
    for gid, gtype, _, _, inputs, output in gate_rows(netlist):
        assert gtype == csr.gate_type(gid), f"gate {gid} type differs"
        spins = csr.gate_inputs(gid)
        assert len(inputs) == len(spins), f"gate {gid} arity differs"
        bind(output, int(csr.gate_output[gid]))
        for a, b in zip(inputs, spins.tolist()):
            bind(a, b)
    assert len(netlist.inputs) == len(csr.inputs)
    assert len(netlist.outputs) == len(csr.outputs)
    for a, b in zip(netlist.inputs, csr.inputs.tolist()):
        bind(a, b)
    for a, b in zip(netlist.outputs, csr.outputs.tolist()):
        bind(a, b)
    assert (fwd >= 0).all(), "some parsed net has no streamed counterpart"
    assert (rev >= 0).all(), "some streamed net has no parsed counterpart"
    return fwd


@pytest.mark.parametrize("family", sorted(SMALL))
def test_streamed_matches_parsed(family):
    text_fn, stream_fn, cfg = SMALL[family]
    netlist = compile_verilog(text_fn(cfg))
    csr = stream_fn(cfg)
    assert_stream_equivalent(netlist, csr)


@pytest.mark.parametrize("family", sorted(SMALL))
def test_streamed_hypergraph_bit_identical(family):
    """Chunked build == object build, array for array."""
    text_fn, stream_fn, cfg = SMALL[family]
    netlist = compile_verilog(text_fn(cfg))
    a = flat_hypergraph(netlist)
    b = streamed_flat_hypergraph(netlist)
    assert np.array_equal(a._edge_ptr, b._edge_ptr)
    assert np.array_equal(a._edge_pins, b._edge_pins)
    assert np.array_equal(a.vertex_weight, b.vertex_weight)
    assert np.array_equal(a.edge_weight, b.edge_weight)
    # the public dispatch takes the streamed path for a Netlist
    c = flat_hypergraph(netlist)
    assert np.array_equal(a._edge_ptr, c._edge_ptr)
    assert np.array_equal(a._edge_pins, c._edge_pins)


def test_stream_registry_names_resolve():
    for name in STREAM_CIRCUITS:
        if "xl" in name or "scale" in name or "s100k" in name:
            continue  # big rungs belong to the bench, not tier-1
        csr = load_stream_circuit(name)
        assert isinstance(csr, Netlist)
        assert csr.num_gates > 0


def test_stream_registry_twins_equivalent():
    """Names present in both registries describe the same circuit."""
    for name in ("noc-test", "memctrl-test", "viterbi-test"):
        assert_stream_equivalent(load_circuit(name), load_stream_circuit(name))


def test_unknown_stream_circuit_raises():
    with pytest.raises(ConfigError, match="unknown stream circuit"):
        load_stream_circuit("nope")


def test_builder_records_circ_counters():
    from repro.obs import MetricsRecorder
    from repro.obs.registry import is_registered

    cell = "module c (o, i); output o; input i; buf (o, i); endmodule\n"
    m = ModuleWriter("top")
    m.input("a")
    m.output("y", 4)
    for i in range(4):
        m.instance("c", f"u{i}", {"i": "a", "o": f"y[{i}]"})
    rec = MetricsRecorder()
    csr = lower_module(m, cell, recorder=rec)
    assert csr.num_gates == 4
    assert rec.counters["circ.gates"] == 4
    assert rec.counters["circ.nets"] == csr.num_nets
    assert rec.counters["circ.pins"] == 4
    assert rec.counters["circ.stamps"] == 4
    assert all(is_registered(k) for k in rec.counters)


def test_streamed_build_records_part_build_counters():
    from repro.obs import MetricsRecorder
    from repro.obs.registry import is_registered

    _, stream_fn, cfg = SMALL["noc"]
    csr = stream_fn(cfg)
    rec = MetricsRecorder()
    hg = streamed_flat_hypergraph(csr, recorder=rec)
    assert rec.counters["part.build.gates"] == hg.num_vertices
    assert rec.counters["part.build.edges"] == hg.num_edges
    assert rec.counters["part.build.edge_pins"] == hg.num_pins
    assert rec.counters["part.build.pins"] == csr.num_pins
    assert all(is_registered(k) for k in rec.counters)


#: every array column of a netlist, ``net_driver`` included
COLUMNS = ("gate_code", "gate_output", "pin_ptr", "pin_net", "inputs",
           "outputs", "net_driver", "gate_node", "subtree_end")


#: every column of the compiled circuit the simulators read
COMPILED_COLUMNS = ("gate_code", "gate_output", "pin_offsets", "pin_net",
                    "sink_offsets", "sink_gate", "initial_values")


def _tree(nl) -> list[tuple]:
    return [(n.name, n.module, n.path, n.total_gates, list(n.children))
            for n in nl.nodes]


#: cells the stream path refused while it stamped standalone cell
#: elaborations positionally: two port bits on one net, and an output
#: port tied to a constant
ALIAS_CELL = "module alias (a, b); input a; output b; assign b = a; endmodule\n"
TIE_CELL = ("module tie (y, z, a); output y, z; input a;"
            " assign y = 1'b0; not g (z, a); endmodule\n")


def assert_identical(text, stream):
    """Same columns, same hierarchy, same gate and net names."""
    assert (stream.top, stream.gate_types, stream.num_nets) == \
        (text.top, text.gate_types, text.num_nets)
    for column in COLUMNS:
        assert np.array_equal(getattr(stream, column), getattr(text, column)), column
    assert _tree(stream) == _tree(text)
    assert stream.gate_names == text.gate_names
    assert stream.net_names == text.net_names


def _lowers_like_text(cells: str, top: ModuleWriter):
    """With ports declared first, the lowered record is the elaborated
    text column for column and name for name."""
    stream = lower_module(top, cells)
    assert_identical(compile_verilog(cells + top.emit()), stream)
    return stream


def test_cell_aliasing_two_ports_lowers_like_text():
    m = ModuleWriter("top")
    m.input("a")
    m.output("o", 2)
    m.wire("w", 2)
    m.instance("alias", "u0", {"a": "a", "b": "w[0]"})
    m.instance("alias", "u1", {"a": "w[0]", "b": "w[1]"})
    m.gate("and", "o[0]", "w[1]", "a")
    m.gate("not", "o[1]", "w[0]")
    nl = _lowers_like_text(ALIAS_CELL, m)
    # a, w[0], w[1] and both cells' ports are one net, the input's
    assert nl.gate_inputs(0).tolist() == [nl.inputs[0]] * 2


def test_cell_tying_an_output_to_a_constant_lowers_like_text():
    m = ModuleWriter("top")
    m.input("a")
    m.output("o", 2)
    m.wire("w", 2)
    m.wire("v", 2)
    m.instance("tie", "u0", {"y": "w[0]", "z": "w[1]", "a": "a"})
    m.instance("tie", "u1", {"y": "v[0]", "z": "v[1]", "a": "w[1]"})
    m.gate("and", "o[0]", "w[0]", "v[1]")
    m.gate("or", "o[1]", "v[0]", "a")
    nl = _lowers_like_text(TIE_CELL, m)
    assert nl.gate_inputs(0)[0] == nl.gate_inputs(1)[0] == CONST0


@pytest.mark.parametrize("name", ["noc-test", "noc-bench", "memctrl-test",
                                  "memctrl-bench"])
def test_stream_equals_text(name):
    """Same columns, same hierarchy, same gate and net names."""
    text, stream = load_circuit(name), load_stream_circuit(name)
    assert_identical(text, stream)
    a, b = compile_circuit(text), compile_circuit(stream)
    for column in COMPILED_COLUMNS:
        assert np.array_equal(getattr(a, column), getattr(b, column)), column
    assert np.array_equal(a.table.pins, b.table.pins)
    assert np.array_equal(a.table.fan_gate, b.table.fan_gate)
    assert a.max_arity == b.max_arity
    assert a.inputs == b.inputs and a.outputs == b.outputs


@pytest.mark.parametrize("name", ["viterbi-test", "viterbi-bench"])
def test_stream_names_match_text_under_bijection(name):
    """Viterbi's streamed nets are numbered differently; gate for gate
    and net for net under the bijection, the names and the hierarchy
    are the text path's."""
    text, stream = load_circuit(name), load_stream_circuit(name)
    fwd = assert_stream_equivalent(text, stream)
    assert _tree(stream) == _tree(text)
    assert np.array_equal(stream.gate_node, text.gate_node)
    assert np.array_equal(stream.subtree_end, text.subtree_end)
    assert stream.gate_names == text.gate_names
    names = stream.net_names
    assert [names[n] for n in fwd.tolist()] == text.net_names


def test_flat_clustering_hypergraph_equals_flat_hypergraph():
    """``flat_hypergraph`` skips the vertex names ``Clustering.flat``
    builds, and nothing else."""
    from repro.hypergraph import Clustering

    netlist = load_stream_circuit("viterbi-test")
    a = Clustering.flat(netlist).hypergraph()
    b = flat_hypergraph(netlist)
    assert np.array_equal(a._edge_ptr, b._edge_ptr)
    assert np.array_equal(a._edge_pins, b._edge_pins)
    assert np.array_equal(a.vertex_weight, b.vertex_weight)


def test_stamped_instances_need_distinct_names():
    cell = "module c (o, i); output o; input i; buf (o, i); endmodule\n"
    m = ModuleWriter("top")
    m.input("a")
    m.wire("y", 2)
    m.instance("c", "u", {"i": "a", "o": "y[0]"})
    m.instance("c", "u", {"i": "a", "o": "y[1]"})
    with pytest.raises(ElaborationError, match="duplicate instance name 'u'"):
        lower_module(m, cell)
