"""Elaboration tests: hierarchy, binding, constants, error paths."""

import hashlib

import numpy as np
import pytest

from repro.circuits import CIRCUITS, load_circuit
from repro.errors import ElaborationError
from repro.verilog import (
    CONST0,
    CONST1,
    CONSTX,
    NetlistBuilder,
    ast,
    compile_verilog,
    elaborate,
    find_top_module,
    parse_source,
)
from repro.verilog.elaborate import _Elaborator
from tests.netlist_rows import gate_rows, net_sinks


class TestTopDetection:
    def test_unique_top(self):
        src = parse_source(
            "module a (); b u (); endmodule module b (); endmodule"
        )
        assert find_top_module(src) == "a"

    def test_ambiguous_top(self):
        src = parse_source("module a (); endmodule module b (); endmodule")
        with pytest.raises(ElaborationError, match="ambiguous"):
            find_top_module(src)

    def test_explicit_top_overrides(self):
        nl = compile_verilog(
            "module a (); endmodule module b (); wire y, x; not (y, x); endmodule",
            top="b",
        )
        assert nl.top == "b"
        assert nl.num_gates == 1

    def test_unknown_top(self):
        with pytest.raises(ElaborationError, match="not defined"):
            compile_verilog("module a (); endmodule", top="zzz")


class TestBinding:
    def test_positional_and_named_agree(self):
        base = """
        module inv (y, a); output y; input a; not (y, a); endmodule
        """
        pos = compile_verilog(base + "module t (o, i); output o; input i; inv u (o, i); endmodule")
        nam = compile_verilog(base + "module t (o, i); output o; input i; inv u (.a(i), .y(o)); endmodule")
        assert pos.num_gates == nam.num_gates == 1
        _, _, _, _, inputs, output = gate_rows(nam)[0]
        assert inputs[0] in nam.inputs
        assert output in nam.outputs

    def test_vector_port_binding(self):
        nl = compile_verilog(
            """
            module reg2 (q, d); output [1:0] q; input [1:0] d;
              buf (q[0], d[0]); buf (q[1], d[1]);
            endmodule
            module t (o, i); output [1:0] o; input [1:0] i;
              reg2 u (.q(o), .d(i));
            endmodule
            """
        )
        assert nl.num_gates == 2
        assert len(nl.inputs) == 2
        assert len(nl.outputs) == 2

    def test_concat_binding(self):
        nl = compile_verilog(
            """
            module pass2 (o, i); output [1:0] o; input [1:0] i;
              buf (o[0], i[0]); buf (o[1], i[1]);
            endmodule
            module t (o, a, b); output [1:0] o; input a, b;
              pass2 u (.o(o), .i({b, a}));
            endmodule
            """
        )
        # concat is MSB-first: i[0] <- a, i[1] <- b
        inputs_by_out = {row[5]: row[4] for row in gate_rows(nl)}
        o0 = nl.outputs[0]
        a = nl.inputs[0]
        assert inputs_by_out[o0][0] == a

    def test_width_mismatch(self):
        with pytest.raises(ElaborationError, match="width mismatch"):
            compile_verilog(
                """
                module s (i); input [3:0] i; endmodule
                module t (a); input a; s u (.i(a)); endmodule
                """
            )

    def test_unknown_port(self):
        with pytest.raises(ElaborationError, match="no port"):
            compile_verilog(
                """
                module s (i); input i; endmodule
                module t (a); input a; s u (.zz(a)); endmodule
                """
            )

    def test_port_connected_twice(self):
        with pytest.raises(ElaborationError, match="twice"):
            compile_verilog(
                """
                module s (i); input i; endmodule
                module t (a); input a; s u (.i(a), .i(a)); endmodule
                """
            )

    def test_too_many_positional(self):
        with pytest.raises(ElaborationError, match="connections"):
            compile_verilog(
                """
                module s (i); input i; endmodule
                module t (a); input a; s u (a, a); endmodule
                """
            )

    def test_unconnected_input_reads_x(self):
        nl = compile_verilog(
            """
            module s (o, i); output o; input i; buf (o, i); endmodule
            module t (o); output o; s u (.o(o), .i()); endmodule
            """
        )
        assert nl.gate_inputs(0)[0] == CONSTX

    def test_undefined_module(self):
        with pytest.raises(ElaborationError, match="not defined"):
            compile_verilog("module t (); nosuch u (); endmodule")

    def test_recursive_instantiation_detected(self):
        with pytest.raises(ElaborationError, match="deeper"):
            compile_verilog(
                "module a (); a u (); endmodule", top="a"
            )

    def test_nesting_limit_holds_below_a_shallower_first_instance(self):
        # d1..d200 is first met at depth 1 (fits); under d0 the same
        # subtree reaches depth 201, and the error names the definition
        # there, as a walk of every instance would
        chain = "".join(f"module d{i} (); d{i + 1} u (); endmodule\n"
                        for i in range(200))
        with pytest.raises(ElaborationError) as exc:
            compile_verilog(chain + "module d200 (); endmodule\n"
                            "module t (); d1 a (); d0 b (); endmodule", top="t")
        assert str(exc.value) == ("instance nesting deeper than 200 "
                                  "(recursive instantiation of 'd200'?)")


class TestConstantsAndAliases:
    def test_literal_connection(self):
        nl = compile_verilog(
            """
            module s (o, i); output o; input i; buf (o, i); endmodule
            module t (o); output o; s u (.o(o), .i(1'b1)); endmodule
            """
        )
        assert nl.gate_inputs(0)[0] == CONST1

    def test_supply_nets(self):
        nl = compile_verilog(
            """
            module t (o); output o;
              supply0 gnd; supply1 vdd;
              and (o, vdd, gnd);
            endmodule
            """
        )
        assert set(nl.gate_inputs(0).tolist()) == {CONST0, CONST1}

    def test_assign_alias_merges_nets(self):
        nl = compile_verilog(
            """
            module t (o, i); output o; input i;
              wire mid;
              assign mid = i;
              buf (o, mid);
            endmodule
            """
        )
        assert nl.gate_inputs(0)[0] in nl.inputs

    def test_assign_width_mismatch(self):
        with pytest.raises(ElaborationError, match="width mismatch"):
            compile_verilog(
                "module t (); wire [1:0] a; wire b; assign a = b; endmodule"
            )

    def test_input_tied_to_constant_rejected(self):
        with pytest.raises(ElaborationError, match="constant"):
            compile_verilog(
                "module t (i); input i; assign i = 1'b0; endmodule"
            )

    def test_implicit_scalar_wire(self):
        nl = compile_verilog(
            "module t (o, i); output o; input i; buf (o, undeclared); buf (undeclared, i); endmodule"
        )
        assert nl.num_gates == 2

    def test_gate_terminal_must_be_scalar(self):
        with pytest.raises(ElaborationError, match="scalar"):
            compile_verilog(
                "module t (); wire [1:0] v; wire y; buf (y, v); endmodule"
            )

    def test_multiple_drivers_rejected(self):
        from repro.errors import NetlistError

        with pytest.raises(NetlistError, match="driven by both"):
            compile_verilog(
                "module t (a, b); input a, b; wire y; buf (y, a); buf (y, b); endmodule"
            )


class TestHierarchyTree:
    def test_paths_and_counts(self, adder4):
        root = adder4.hierarchy
        assert root.module == "top"
        assert set(root.children) == {"f0", "f1", "f2", "f3"}
        f0 = root.children["f0"]
        assert f0.module == "fa"
        assert set(f0.children) == {"u1", "u2"}
        assert f0.total_gates == 5
        assert root.total_gates == 20

    def test_subtree_gates_cover(self, adder4):
        # the root's subtree is every node, and every gate sits in one
        assert adder4.subtree_end[0] == len(adder4.nodes)
        all_gates = sorted(
            g for i in range(len(adder4.nodes)) for g in _direct_gates(adder4, i)
        )
        assert all_gates == list(range(adder4.num_gates))

    def test_find(self, adder4):
        node = adder4.hierarchy.children["f1"].children["u2"]
        assert node.module == "ha"
        assert len(_direct_gates(adder4, adder4.nodes.index(node))) == 2

    def test_gate_paths_match_tree(self, adder4):
        for gid, _, _, path, _, _ in gate_rows(adder4):
            node = adder4.hierarchy
            for name in path:
                node = node.children[name]
            assert gid in _direct_gates(adder4, adder4.nodes.index(node))


class TestNetlistBuilder:
    def test_basic(self):
        nb = NetlistBuilder("toy")
        a, b = nb.input("a"), nb.input("b")
        y = nb.net("y")
        nb.gate("nand", (a, b), y)
        nb.output_net(y)
        nl = nb.build()
        assert nl.num_gates == 1
        assert nl.inputs.tolist() == [a, b]
        assert nl.outputs.tolist() == [y]

    def test_inputs_recorded(self):
        nb = NetlistBuilder("toy")
        a, b = nb.input("a"), nb.input("b")
        y = nb.net()
        nb.gate("or", (a, b), y)
        nl = nb.build()
        assert nl.inputs.tolist() == [a, b]

    def test_path_creates_hierarchy(self):
        nb = NetlistBuilder("toy")
        a = nb.input("a")
        y = nb.net()
        nb.gate("not", (a,), y, path=("sub",))
        nl = nb.build()
        assert "sub" in nl.hierarchy.children
        assert nl.hierarchy.children["sub"].total_gates == 1

    def test_arity_check(self):
        nb = NetlistBuilder("toy")
        a = nb.input("a")
        y = nb.net()
        with pytest.raises(ElaborationError):
            nb.gate("and", (a,), y)

    def test_double_build_rejected(self):
        nb = NetlistBuilder("toy")
        nb.build()
        with pytest.raises(ElaborationError, match="twice"):
            nb.build()

    def test_dff_helper(self):
        nb = NetlistBuilder("toy")
        d, clk = nb.input("d"), nb.input("clk")
        q = nb.net("q")
        nb.dff(d, clk, q)
        nl = nb.build()
        assert nl.gate_type(0) == "dff"


class TestNetNames:
    def test_shortest_name_wins(self):
        nl = compile_verilog(
            """
            module s (o, i); output o; input i; buf (o, i); endmodule
            module t (out, inp); output out; input inp;
              s u (.o(out), .i(inp));
            endmodule
            """
        )
        # the port alias group {inp, u.i} picks the shortest name
        in_name = nl.net_name(nl.inputs[0])
        assert in_name == "inp"

    def test_undriven_detection(self):
        nl = compile_verilog(
            "module t (o); output o; wire dangling; buf (o, dangling); endmodule"
        )
        undriven = nl.undriven_nets()
        assert len(undriven) == 1
        assert nl.net_name(undriven[0]) == "dangling"


def _direct_gates(nl, i):
    """Gate ids directly inside hierarchy node ``i`` (walk order), ascending."""
    return np.flatnonzero(nl.gate_node == i).tolist()


def _netlist_digest(nl):
    doc = (
        nl.net_names,
        gate_rows(nl),
        nl.inputs.tolist(),
        nl.outputs.tolist(),
        nl.net_driver.tolist(),
        net_sinks(nl),
        [
            (n.name, n.module, n.path, _direct_gates(nl, i), n.total_gates,
             list(n.children))
            for i, n in enumerate(nl.hierarchy.walk())
        ],
    )
    return hashlib.sha256(repr(doc).encode()).hexdigest()


#: sha256 of every registered text circuit's elaborated netlist, computed
#: with the per-instance elaborator this PR's parent shipped (PR 14);
#: ``viterbi-paper-single`` was pinned when it was registered
GOLDEN_NETLISTS = {
    "adder16": "6d0e0911a59e5864f30565d6f7ab3d639e0e647f314ff97404933b280c881150",
    "adder8": "7b04ab1a0e402167fd24c5d42262e73ecef3b2f4dba1b49e7759459f111c2ed1",
    "counter8": "949d3c0d03df72e5d33d014009ce02b488f4232a709825aeab42058e0e3f272c",
    "cpu-test": "08d82a56103a3cde2a59467f1056ba21c1bf28225d6b8c1181181765cbad2153",
    "cpu8": "3c36bec189963921891fc26003f79e0a828b3954db93fbefd3dd993e8c213f01",
    "lfsr16": "dcd5ea4f36f4cea9736498290943f4f9c114736703fad6bf920a4e3e4dca9b73",
    "memctrl-bench": "8c97452da8c116ff93248b75182638c7e857ecf5638380061d80c627774b147c",
    "memctrl-test": "e60f7a561879cc50cba9c64e5ea64d02dd4d183bfa9da5fb518af485c21cebc1",
    "mesh3x3": "68f23e3a6a0f84b9be7efc147f3046c1beefdb7122ca7844deeb0d76af33b4c3",
    "mesh4x4": "a60fac7286218180d55be728852384e58bdd16cefa5d509ed89aa8192afe0699",
    "mul4": "7397b2edca65125b921c01d0dedbef2e87097bfaabad66178e86e5cb79c95b07",
    "mul6": "62fe19d04fdfbe429fc40b51aea5bec5dfd3313f31dd9fe266a2e8bf96abd853",
    "noc-bench": "8d41fd692a6ad9d41b4c6b46d0922805d43e30cd3e42c04db42715833b1df20c",
    "noc-test": "2a201a1839519f1318988cabb14f47568053fdd45f07ce4317a880f238b207ee",
    "pipeline4": "6e285d466490352963df04894e8ea0ea205a596e7488e2182dc97add208cf977",
    "pipeline8": "109a851f659237c75fb5701622913349db577caa4f5ed39ec0496b19a90bc4ae",
    "randlogic": "650a39574f456dd97ef15b1a9ea7ac952ab1b4a6aacf7a8e60cba70d3bc829b4",
    "viterbi-bench": "0528b7b85cd2d8215c1236ac98088b222f051f6768392182c69dafbd9a939d30",
    "viterbi-paper": "e5c41c455a86efdd5cb57ed3189878d08762c510d960d9c24a5b271857ac10a0",
    "viterbi-paper-single": "132593dd5beec10d9589a2278d2c1b41f1a93cda9379fab129281fd7ac71fa16",
    "viterbi-single": "0528b7b85cd2d8215c1236ac98088b222f051f6768392182c69dafbd9a939d30",
    "viterbi-test": "2f4034a9474e5ca178e3c32d8c464d142a913d8ccbe10a3081d6b35ba8d965c1",
}


class TestGoldenNetlists:
    def test_every_registered_circuit_is_pinned(self):
        assert sorted(GOLDEN_NETLISTS) == sorted(CIRCUITS)

    @pytest.mark.parametrize("name", sorted(GOLDEN_NETLISTS))
    def test_netlist_digest(self, name):
        assert _netlist_digest(load_circuit(name)) == GOLDEN_NETLISTS[name]


def _names(nl):
    return nl.net_names[3:]


def _gates(nl):
    return [row[1:] for row in gate_rows(nl)]


def _tree(nl, node=None):
    node = nl.hierarchy if node is None else node
    return (node.name, node.module, node.path,
            _direct_gates(nl, nl.nodes.index(node)),
            [_tree(nl, c) for c in node.children.values()])


class TestExactNetlists:
    """Hand-written corner designs against explicit expected netlists."""

    def test_implicit_wire_first_used_in_later_child(self):
        nl = compile_verilog(
            """
            module leaf (y, a); output y; input a;
              not (t, a); not g (y, t);
            endmodule
            module top (o, i); output o; input i;
              leaf u1 (.y(w1), .a(i));
              leaf u2 (.y(w2), .a(w1));
              leaf u3 (.y(o), .a(w2));
            endmodule
            """
        )
        # w2 is first seen in u2's connection list, so it is numbered
        # after every net of u1's subtree and before u2's
        assert _names(nl) == ["o", "i", "w1", "u1.t", "w2", "u2.t", "u3.t"]
        assert _gates(nl) == [
            ("not", "u1._g0", ("u1",), (4,), 6),
            ("not", "u1.g", ("u1",), (6,), 5),
            ("not", "u2._g0", ("u2",), (5,), 8),
            ("not", "u2.g", ("u2",), (8,), 7),
            ("not", "u3._g0", ("u3",), (7,), 9),
            ("not", "u3.g", ("u3",), (9,), 3),
        ]
        assert (nl.inputs.tolist(), nl.outputs.tolist()) == ([4], [3])

    def test_one_definition_at_two_depths(self):
        nl = compile_verilog(
            """
            module inv (y, a); output y; input a; not n (y, a); endmodule
            module mid (y, a); output y; input a; wire m;
              inv i1 (m, a); inv i2 (y, m);
            endmodule
            module top (o, i); output o; input i; wire w;
              mid u (w, i); inv v (o, w);
            endmodule
            """
        )
        assert _names(nl) == ["o", "i", "w", "u.m"]
        assert _gates(nl) == [
            ("not", "u.i1.n", ("u", "i1"), (4,), 6),
            ("not", "u.i2.n", ("u", "i2"), (6,), 5),
            ("not", "v.n", ("v",), (5,), 3),
        ]
        assert _tree(nl) == (
            "top", "top", (), [], [
                ("u", "mid", ("u",), [], [
                    ("i1", "inv", ("u", "i1"), [0], []),
                    ("i2", "inv", ("u", "i2"), [1], []),
                ]),
                ("v", "inv", ("v",), [2], []),
            ],
        )
        assert nl.hierarchy.total_gates == 3
        assert nl.hierarchy.children["u"].total_gates == 2

    def test_ascending_ranges_concat_partselect_literal(self):
        nl = compile_verilog(
            """
            module pass4 (o, i); output [3:0] o; input [0:3] i;
              buf b0 (o[0], i[3]); buf b1 (o[1], i[2]);
              buf b2 (o[2], i[1]); buf b3 (o[3], i[0]);
            endmodule
            module top (o, a, v); output [3:0] o; input a; input [0:7] v;
              pass4 u (.o(o), .i({a, v[1:2], 1'b1}));
            endmodule
            """
        )
        # [0:7] declares v[7] as the least significant bit
        assert _names(nl) == [
            "o[0]", "o[1]", "o[2]", "o[3]", "a",
            "v[7]", "v[6]", "v[5]", "v[4]", "v[3]", "v[2]", "v[1]", "v[0]",
        ]
        # concat is MSB first: i[0] <- a, i[1] <- v[1], i[2] <- v[2], i[3] <- 1
        assert _gates(nl) == [
            ("buf", "u.b0", ("u",), (CONST1,), 3),
            ("buf", "u.b1", ("u",), (13,), 4),
            ("buf", "u.b2", ("u",), (14,), 5),
            ("buf", "u.b3", ("u",), (7,), 6),
        ]
        assert nl.inputs.tolist() == [7, 8, 9, 10, 11, 12, 13, 14, 15]
        assert nl.outputs.tolist() == [3, 4, 5, 6]

    def test_unconnected_input_and_output(self):
        nl = compile_verilog(
            """
            module leaf (y, z, a, b); output y, z; input a, b;
              and g (y, a, b); or h (z, a, b);
            endmodule
            module top (o, i); output o; input i;
              leaf u (.y(o), .z(), .a(i), .b());
            endmodule
            """
        )
        # .z() leaves the output local to the child; .b() reads X
        assert _names(nl) == ["o", "i", "u.z"]
        assert _gates(nl) == [
            ("and", "u.g", ("u",), (4, CONSTX), 3),
            ("or", "u.h", ("u",), (4, CONSTX), 5),
        ]

    def test_supplies_assign_chain_and_port_redeclaration(self):
        nl = compile_verilog(
            """
            module top (o, p, i); output o, p; input i;
              wire o;
              wire a, b, c;
              supply0 gnd; supply1 vdd;
              assign a = i;
              assign b = a;
              assign c = b;
              and g (o, c, vdd);
              or (p, b, gnd);
            endmodule
            """
        )
        # {i, a, b, c} is one net; equal-length names tie-break lexically
        assert _names(nl) == ["o", "p", "a"]
        assert _gates(nl) == [
            ("and", "g", (), (5, CONST1), 3),
            ("or", "_g0", (), (5, CONST0), 4),
        ]
        assert (nl.inputs.tolist(), nl.outputs.tolist()) == ([5], [3, 4])


_SUB = "module s (i); input [3:0] i; endmodule\n"
_VEC = "module t (); wire [3:0] v; wire w, y;\n"

#: (source, top, exact message) for each ElaborationError raised while
#: instantiating, binding or resolving
_ERROR_CASES = {
    "recursion": (
        "module a (); a u (); endmodule", "a",
        "instance nesting deeper than 200 (recursive instantiation of 'a'?)",
    ),
    "unknown_port": (
        "module s (i); input i; endmodule\n"
        "module m (a); input a; s u (.zz(a)); endmodule\n"
        "module t (a); input a; m x (a); endmodule", "t",
        "module 's' has no port 'zz' (instance x.u)",
    ),
    "port_width_names_instance": (
        _SUB + "module m (a); input a; s u (.i(a)); endmodule\n"
        "module t (a); input a; m x (a); endmodule", "t",
        "width mismatch on port 'i' of x.u: connected 1 bits to 4-bit port",
    ),
    "port_width_second_instance": (
        "module s (i); input i; endmodule\n"
        "module t (a); input [1:0] a; s ok (a[0]); s bad (a); endmodule", "t",
        "width mismatch on port 'i' of bad: connected 2 bits to 1-bit port",
    ),
    "assign_width": (
        "module t ();\n wire [1:0] a; wire b;\n assign a = b;\nendmodule", "t",
        "assign width mismatch in t line 3: 2 vs 1 bits",
    ),
    "gate_terminal_width": (
        "module m (); wire [1:0] v; wire y; buf g (y, v); endmodule\n"
        "module t (); m x (); endmodule", "t",
        "terminal 1 of gate 'x.g' is 2 bits wide; gate pins are scalar",
    ),
    "undefined_module": (
        "module m (); nosuch u (); endmodule\n"
        "module t (); m x (); endmodule", "t",
        "module 'nosuch' (instance x.u) is not defined",
    ),
    "duplicate_instance": (
        "module s (); endmodule module t (); s u (); s u (); endmodule", "t",
        "duplicate instance name 'u' in t",
    ),
    "connected_twice": (
        "module s (i); input i; endmodule\n"
        "module t (a); input a; s u (.i(a), .i(a)); endmodule", "t",
        "port 'i' connected twice on instance 'u'",
    ),
    "too_many_positional": (
        "module s (i); input i; endmodule\n"
        "module t (a); input a; s u (a, a); endmodule", "t",
        "instance 'u' of 's' has 2 connections for 1 ports",
    ),
    "undeclared_vector": (
        _VEC + "buf (y, q[0]); endmodule", "t",
        "undeclared vector 'q' in t line 2",
    ),
    "bit_select_on_scalar": (
        _VEC + "buf (y, w[0]); endmodule", "t",
        "bit-select on scalar net 'w' in t line 2",
    ),
    "index_out_of_range": (
        _VEC + "buf (y, v[9]); endmodule", "t",
        "index 9 out of range for 'v' in t line 2",
    ),
    "part_select_on_scalar": (
        _VEC + "assign v[1:0] = w[1:0]; endmodule", "t",
        "part-select on undeclared/scalar net 'w' in t line 2",
    ),
    "part_select_out_of_range": (
        _VEC + "assign v[9:0] = v[3:0]; endmodule", "t",
        "part-select [9:0] out of range for 'v' in t line 2",
    ),
    "reversed_part_select": (
        _VEC + "assign v[0:1] = v[3:2]; endmodule", "t",
        "reversed part-select [0:1] on 'v' in t line 2",
    ),
    # a definition's errors carry the path of its *first* instance
    "first_instance_prefix": (
        "module m (); wire y; buf (y, q[0]); endmodule\n"
        "module t (); m x1 (); m x2 (); endmodule", "t",
        "undeclared vector 'q' in m (x1) line 1",
    ),
}


class TestErrorMessages:
    @pytest.mark.parametrize("case", sorted(_ERROR_CASES))
    def test_exact_message(self, case):
        text, top, message = _ERROR_CASES[case]
        with pytest.raises(ElaborationError) as exc:
            compile_verilog(text, top=top)
        assert str(exc.value) == message

    def _source(self, **fields):
        src = parse_source("module s (i); input i; endmodule")
        src.add(ast.Module(name="t", **fields))
        return src

    def test_instance_shadowing_a_primitive(self):
        src = self._source(
            instances=[ast.ModuleInst("nand", "u", positional=())]
        )
        with pytest.raises(ElaborationError) as exc:
            elaborate(src, top="t")
        assert str(exc.value) == "'nand' shadows a primitive name"

    def test_empty_and_unsupported_expressions(self):
        class Weird(ast.Expr):
            def __repr__(self):
                return "Weird()"

        for expr, message in (
            (ast.Unconnected(), "empty expression in t line 7"),
            (Weird(), "unsupported expression Weird() in t line 7"),
        ):
            src = self._source(
                gates=[ast.GateInst("buf", "g", (ast.Identifier("y"), expr), line=7)]
            )
            with pytest.raises(ElaborationError) as exc:
                elaborate(src, top="t")
            assert str(exc.value) == message

    def test_definition_errors_precede_first_child_subtree_errors(self):
        # two errors: one in leaf (inside t's first child) and one in
        # t's own second instance; t is planned whole before any child
        # is entered, so t's own error is the one reported
        with pytest.raises(ElaborationError, match="'nosuch'"):
            compile_verilog(
                """
                module leaf (); wire y; buf (y, q[0]); endmodule
                module t (); leaf u1 (); nosuch u2 (); endmodule
                """,
                top="t",
            )


class TestPrimaryInputAliases:
    def test_two_inputs_aliased_is_an_error(self):
        with pytest.raises(ElaborationError) as exc:
            compile_verilog(
                "module top (a, b, y); input a, b; output y;"
                " and (y, a, b); assign a = b; endmodule"
            )
        assert str(exc.value) == "primary inputs 'a' and 'b' are aliased to one net"

    def test_aliased_vector_bit_is_named(self):
        with pytest.raises(ElaborationError, match=r"'a\[1\]' and 'b'"):
            compile_verilog(
                "module top (a, b); input [1:0] a; input b;"
                " assign a[1] = b; endmodule"
            )

    def test_alias_through_a_child_is_caught(self):
        with pytest.raises(ElaborationError, match="'a' and 'b'"):
            compile_verilog(
                """
                module short (p, q); input p, q; assign p = q; endmodule
                module top (a, b); input a, b; short u (a, b); endmodule
                """
            )

    def test_input_aliased_to_output_stays_legal(self):
        nl = compile_verilog(
            "module top (a, y); input a; output y; assign y = a; endmodule"
        )
        assert nl.inputs.tolist() == nl.outputs.tolist() == [3]


class TestPerDefinitionWork:
    """Expression resolution is per definition, not per instance."""

    LEAF = "module leaf (y, a); output y; input a; wire t; not (t, a); not (y, t); endmodule\n"

    def _elaborate(self, n):
        body = "".join(f" leaf u{i} (.y(o[{i}]), .a(i));" for i in range(n))
        text = (
            self.LEAF
            + f"module top (o, i); output [{n - 1}:0] o; input i;{body} endmodule"
        )
        elab = _Elaborator(parse_source(text))
        netlist = elab.run("top")
        assert netlist.num_gates == 2 * n
        return elab

    @pytest.mark.parametrize("n", [2, 200])
    def test_leaf_body_resolved_once(self, n):
        elab = self._elaborate(n)
        assert len(elab.plans) == 2
        assert elab.instances_stamped == n + 1
        # top resolves its own 2 connections per instance line; the
        # leaf's 4 gate terminals are resolved once however many
        # instances are stamped
        assert elab.exprs_resolved == 2 * n + 4

    @pytest.mark.parametrize("n", [2, 200])
    def test_siblings_stamp_as_one_block(self, n):
        # the n leaves are one run of one definition, bound alike: one
        # block however long, and the leaf's 4 terminals resolved once
        elab = self._elaborate(n)
        assert (elab.blocks_stamped, elab.largest_block) == (1, n)
        assert elab.exprs_resolved - 2 * n == 4


def test_elaboration_builds_no_name_lists():
    """Names are the hierarchy: elaborating ``viterbi-paper`` (93k
    gates) builds no per-gate or per-net string list.  The elaborator
    that built both lists peaked at 35.7 MB under tracemalloc; the two
    lists alone take ~14 MB."""
    import tracemalloc

    from repro.circuits import circuit_source

    source = parse_source(circuit_source("viterbi-paper"))
    tracemalloc.start()
    try:
        nl = elaborate(source)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert nl.num_gates == 93096
    assert peak < (35.7 - 14) * 2**20
