"""Parser unit tests: grammar coverage and error positions."""

import pytest

from repro.errors import ParseError
from repro.verilog import ast
from repro.verilog.parser import parse_literal_bits, parse_source


def one_module(text):
    source = parse_source(text)
    assert len(source.modules) == 1
    return next(iter(source.modules.values()))


class TestModules:
    def test_empty_module(self):
        m = one_module("module m (); endmodule")
        assert m.name == "m"
        assert m.port_order == []

    def test_module_without_port_parens(self):
        m = one_module("module m; endmodule")
        assert m.port_order == []

    def test_port_header_order(self):
        m = one_module("module m (a, b, c); input a, b; output c; endmodule")
        assert m.port_order == ["a", "b", "c"]
        assert m.port_decls["a"].direction == "input"
        assert m.port_decls["c"].direction == "output"

    def test_vector_port(self):
        m = one_module("module m (d); input [7:0] d; endmodule")
        assert m.port_decls["d"].range == ast.Range(7, 0)
        assert m.width_of("d") == 8

    def test_reversed_range(self):
        m = one_module("module m (d); input [0:3] d; endmodule")
        assert m.range_of("d").bit_indices() == [3, 2, 1, 0]

    def test_multiple_modules(self):
        src = parse_source("module a (); endmodule module b (); endmodule")
        assert set(src.modules) == {"a", "b"}

    def test_wire_decls(self):
        m = one_module("module m (); wire x; wire [3:0] y, z; endmodule")
        assert m.net_decls["x"].range is None
        assert m.net_decls["z"].range.width == 4

    def test_supply_nets(self):
        m = one_module("module m (); supply0 gnd; supply1 vdd; endmodule")
        assert m.net_decls["gnd"].kind == "supply0"
        assert m.net_decls["vdd"].kind == "supply1"


class TestGates:
    def test_simple_gate(self):
        m = one_module("module m (y,a,b); output y; input a,b; and (y, a, b); endmodule")
        g = m.gates[0]
        assert g.gtype == "and"
        assert g.name is None
        assert g.terminals == (
            ast.Identifier("y"), ast.Identifier("a"), ast.Identifier("b"),
        )

    def test_named_gate(self):
        m = one_module("module m (); wire y,a; not g1 (y, a); endmodule")
        assert m.gates[0].name == "g1"

    def test_gate_list(self):
        m = one_module("module m (); wire a,b,c,d; buf b1 (a, b), b2 (c, d); endmodule")
        assert len(m.gates) == 2
        assert m.gates[1].name == "b2"

    def test_gate_with_delay(self):
        m = one_module("module m (); wire y,a,b; nand #1 (y, a, b); endmodule")
        assert m.gates[0].gtype == "nand"

    def test_gate_with_delay_pair(self):
        m = one_module("module m (); wire y,a; not #(1,2) (y, a); endmodule")
        assert m.gates[0].gtype == "not"

    def test_wide_and(self):
        m = one_module("module m (); wire y,a,b,c,d; and (y, a, b, c, d); endmodule")
        assert len(m.gates[0].terminals) == 5

    def test_multi_output_buf_normalized(self):
        m = one_module("module m (); wire a,b,c,x; buf (a, b, c, x); endmodule")
        assert len(m.gates) == 3
        assert all(g.gtype == "buf" for g in m.gates)
        assert all(g.terminals[1] == ast.Identifier("x") for g in m.gates)

    def test_dff_cell(self):
        m = one_module("module m (); wire q,d,c; dff ff (q, d, c); endmodule")
        assert m.gates[0].gtype == "dff"

    def test_and_arity_error(self):
        with pytest.raises(ParseError, match="inputs"):
            parse_source("module m (); wire y,a; and (y, a); endmodule")

    def test_dff_arity_error(self):
        with pytest.raises(ParseError, match="inputs"):
            parse_source("module m (); wire q,d; dff (q, d); endmodule")


class TestInstances:
    def test_positional(self):
        m = one_module("module m (); wire a,b; sub u1 (a, b); endmodule")
        inst = m.instances[0]
        assert inst.module_name == "sub"
        assert inst.instance_name == "u1"
        assert inst.positional == (ast.Identifier("a"), ast.Identifier("b"))

    def test_named(self):
        m = one_module("module m (); wire a; sub u1 (.x(a), .y()); endmodule")
        inst = m.instances[0]
        assert inst.named[0] == ("x", ast.Identifier("a"))
        assert isinstance(inst.named[1][1], ast.Unconnected)

    def test_instance_list(self):
        m = one_module("module m (); wire a,b; sub u1 (a), u2 (b); endmodule")
        assert [i.instance_name for i in m.instances] == ["u1", "u2"]

    def test_empty_connection_list(self):
        m = one_module("module m (); sub u1 (); endmodule")
        assert m.instances[0].positional == ()

    def test_instance_with_parameter_delay_syntax(self):
        m = one_module("module m (); wire a; sub #5 u1 (a); endmodule")
        assert m.instances[0].module_name == "sub"


class TestExpressions:
    def test_bit_select(self):
        m = one_module("module m (); wire y; wire [3:0] v; buf (y, v[2]); endmodule")
        assert m.gates[0].terminals[1] == ast.BitSelect("v", 2)

    def test_part_select(self):
        m = one_module("module m (); wire [7:0] v; sub u (v[7:4]); endmodule")
        assert m.instances[0].positional[0] == ast.PartSelect("v", 7, 4)

    def test_concat(self):
        m = one_module("module m (); wire a; wire [1:0] v; sub u ({a, v[0]}); endmodule")
        c = m.instances[0].positional[0]
        assert isinstance(c, ast.Concat)
        assert c.items == (ast.Identifier("a"), ast.BitSelect("v", 0))

    def test_literal_in_connection(self):
        m = one_module("module m (); sub u (2'b10); endmodule")
        lit = m.instances[0].positional[0]
        assert lit == ast.Literal((0, 1))

    def test_assign(self):
        m = one_module("module m (); wire a, b; assign a = b; endmodule")
        assert m.assigns[0].lhs == ast.Identifier("a")
        assert m.assigns[0].rhs == ast.Identifier("b")


class TestLiterals:
    @pytest.mark.parametrize(
        "raw,bits",
        [
            ("0", (0,)),
            ("5", (1, 0, 1)),
            ("1'b0", (0,)),
            ("1'b1", (1,)),
            ("4'b1010", (0, 1, 0, 1)),
            ("4'b10x1", (1, 2, 0, 1)),
            ("8'hA5", (1, 0, 1, 0, 0, 1, 0, 1)),
            ("3'o7", (1, 1, 1)),
            ("4'd9", (1, 0, 0, 1)),
            ("2'b1", (1, 0)),       # zero-padded to size
            ("6'hx", (2, 2, 2, 2, 2, 2)),  # x-padded
            ("2'b1010", (0, 1)),    # truncated to size
        ],
    )
    def test_decode(self, raw, bits):
        assert parse_literal_bits(raw) == bits

    def test_no_digits(self):
        with pytest.raises(ParseError, match="digits"):
            parse_literal_bits("4'b")

    @pytest.mark.parametrize("raw", ["4'dx", "4'd1a", "'d9z"])
    def test_non_decimal_digit_in_decimal_base(self, raw):
        with pytest.raises(ParseError, match="bad digit"):
            parse_literal_bits(raw, 3, 7)

    @pytest.mark.parametrize("raw", ["0'b1", "0'd0", "0_0'hf"])
    def test_zero_width(self, raw):
        with pytest.raises(ParseError, match="zero width"):
            parse_literal_bits(raw)

    @pytest.mark.parametrize("raw", ["", "1a", "x'b1", "4'q1", "4's"])
    def test_malformed_is_a_parse_error(self, raw):
        with pytest.raises(ParseError, match="malformed"):
            parse_literal_bits(raw)


class TestParseErrors:
    def test_missing_semicolon(self):
        with pytest.raises(ParseError, match="expected"):
            parse_source("module m () endmodule")

    def test_eof_inside_module(self):
        with pytest.raises(ParseError, match="end of file"):
            parse_source("module m ();")

    def test_duplicate_port_decl(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_source("module m (a); input a; input a; endmodule")

    def test_port_not_in_header(self):
        with pytest.raises(ParseError, match="not in module header"):
            parse_source("module m (a); input a; input b; endmodule")

    def test_garbage_item(self):
        with pytest.raises(ParseError, match="unexpected token"):
            parse_source("module m (); = ; endmodule")

    @pytest.mark.parametrize("literal,match", [
        ("4'dx", "bad digit"),
        ("4'd1a", "bad digit"),
        ("{0'b1, 2'b10}", "zero width"),
    ])
    def test_bad_literal_is_located(self, literal, match):
        # the bad literal starts at line 3, column 14 in each case
        text = ("module m (y);\n  output [3:0] y;\n"
                f"  assign y = {literal};\nendmodule\n")
        column = 14 + (literal[0] == "{")
        with pytest.raises(ParseError, match=match) as info:
            parse_source(text)
        assert (info.value.line, info.value.column) == (3, column)

    def test_error_position(self):
        try:
            parse_source("module m ();\n  and (y);\nendmodule")
        except ParseError as e:
            assert e.line == 2
        else:  # pragma: no cover
            pytest.fail("expected ParseError")


class TestWidthLimits:
    """A width past ``MAX_WIDTH`` (2^16 bits, what IEEE 1364-2005
    guarantees) is a located :class:`ParseError`, decided before any
    per-bit work — never a ``MemoryError`` or a bare ``ValueError``."""

    @pytest.mark.parametrize("decl,match,column", [
        ("input [100000000:0] a;", r"\[100000000:0\] is 100000001 bits", 9),
        ("input [0:65536] a;", "65537 bits wide; at most 65536", 9),
        ("input [" + "9" * 40 + ":0] a;", "range msb 9+ is out of range", 10),
    ])
    def test_vector_range(self, decl, match, column):
        with pytest.raises(ParseError, match=match) as info:
            parse_source(f"module m (a);\n  {decl}\nendmodule\n")
        assert (info.value.line, info.value.column) == (2, column)

    def test_widest_vector_is_accepted(self):
        m = one_module("module m (a); input [65535:0] a; endmodule")
        assert m.width_of("a") == 65536

    @pytest.mark.parametrize("literal,match", [
        ("999999999'b1", "wider than 65536 bits"),
        ("65537'h0", "wider than 65536 bits"),
        ("'b" + "1" * 65537, "wider than 65536 bits"),
        ("4'h" + "f" * 16385, "wider than 65536 bits"),
        ("9" * 5000, "or 4300 decimal digits"),
        ("8'd" + "1" * 4301, "or 4300 decimal digits"),
        ("000'b1", "zero width"),
    ])
    def test_literal(self, literal, match):
        text = f"module m (y);\n  output y;\n  assign y = {literal};\nendmodule\n"
        with pytest.raises(ParseError, match=match) as info:
            parse_source(text)
        assert (info.value.line, info.value.column) == (3, 14)
        assert len(str(info.value)) < 120

    def test_bit_select_index(self):
        with pytest.raises(ParseError, match="index 9+ is out of range"):
            parse_source("module m (y, a); output y; input [3:0] a; "
                         f"assign y = a[{'9' * 30}]; endmodule")
