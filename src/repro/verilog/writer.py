"""Verilog emitters.

Two writers are provided:

* :func:`write_source` — pretty-print a parsed/constructed
  :class:`~repro.verilog.ast.Source` back to Verilog text.  Together
  with the parser this gives a lossless round trip for the supported
  subset (used heavily by the property-based tests).
* :func:`write_netlist_verilog` — emit an elaborated (flat)
  :class:`~repro.verilog.netlist.Netlist` as a single structural
  module.  Hierarchical net/gate names contain dots, so they are
  emitted as escaped identifiers (``\\u_acs.sum[3]``), which the lexer
  accepts back.
"""

from __future__ import annotations

import io

import numpy as np

from . import ast
from .netlist import CONST0, CONST1, CONSTX, _NUM_CONST_NETS, Netlist

__all__ = ["write_source", "write_module", "write_netlist_verilog", "format_expr"]

_SAFE_FIRST = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_SAFE_REST = _SAFE_FIRST | set("0123456789$")

_VERILOG_KEYWORDS = {
    "module", "endmodule", "input", "output", "inout", "wire", "assign",
    "supply0", "supply1", "and", "or", "nand", "nor", "xor", "xnor",
    "not", "buf", "dff", "dffr", "dffe",
}

#: the literal an ``assign`` drives a constant output port from
_LITERALS = {CONST0: "1'b0", CONST1: "1'b1", CONSTX: "1'bx"}


def _ident(name: str) -> str:
    """Emit a (possibly escaped) identifier."""
    ok = (
        bool(name)
        and name[0] in _SAFE_FIRST
        and all(c in _SAFE_REST for c in name)
        and name not in _VERILOG_KEYWORDS
    )
    return name if ok else f"\\{name} "


def format_expr(expr: ast.Expr) -> str:
    """Render a connection expression to Verilog text."""
    if isinstance(expr, ast.Identifier):
        return _ident(expr.name)
    if isinstance(expr, ast.BitSelect):
        return f"{_ident(expr.name)}[{expr.index}]"
    if isinstance(expr, ast.PartSelect):
        return f"{_ident(expr.name)}[{expr.msb}:{expr.lsb}]"
    if isinstance(expr, ast.Concat):
        return "{" + ", ".join(format_expr(i) for i in expr.items) + "}"
    if isinstance(expr, ast.Literal):
        chars = {0: "0", 1: "1", 2: "x"}
        msb_first = "".join(chars[b] for b in reversed(expr.bits))
        return f"{len(expr.bits)}'b{msb_first}"
    if isinstance(expr, ast.Unconnected):
        return ""
    raise TypeError(f"cannot format {expr!r}")


def _range_txt(rng: ast.Range | None) -> str:
    return "" if rng is None else f"[{rng.msb}:{rng.lsb}] "


def write_module(module: ast.Module, out: io.StringIO) -> None:
    """Emit one module definition."""
    ports = ", ".join(_ident(p) for p in module.port_order)
    out.write(f"module {_ident(module.name)} ({ports});\n")
    for pname in module.port_order:
        decl = module.port_decls.get(pname)
        if decl is not None:
            out.write(f"  {decl.direction} {_range_txt(decl.range)}{_ident(decl.name)};\n")
    for decl in module.net_decls.values():
        if decl.name in module.port_decls:
            continue
        out.write(f"  {decl.kind} {_range_txt(decl.range)}{_ident(decl.name)};\n")
    for a in module.assigns:
        out.write(f"  assign {format_expr(a.lhs)} = {format_expr(a.rhs)};\n")
    for g in module.gates:
        terms = ", ".join(format_expr(t) for t in g.terminals)
        name = f" {_ident(g.name)}" if g.name else ""
        out.write(f"  {g.gtype}{name} ({terms});\n")
    for inst in module.instances:
        if inst.named is not None:
            conns = ", ".join(
                f".{_ident(p)}({format_expr(e)})" for p, e in inst.named
            )
        else:
            conns = ", ".join(format_expr(e) for e in (inst.positional or ()))
        out.write(
            f"  {_ident(inst.module_name)} {_ident(inst.instance_name)} ({conns});\n"
        )
    out.write("endmodule\n")


def write_source(source: ast.Source) -> str:
    """Emit a whole source file."""
    out = io.StringIO()
    for module in source.modules.values():
        write_module(module, out)
        out.write("\n")
    return out.getvalue()


def write_netlist_verilog(netlist: Netlist) -> str:
    """Emit a flat elaborated netlist as one structural Verilog module.

    Constants are materialized as ``supply0``/``supply1`` nets; CONSTX
    appears as an undriven wire (which simulates as X, matching its
    semantics).  An output bit that is a constant, a primary input or
    an earlier output's net gets a port of its own, driven by an
    ``assign`` from that net or literal.  The output parses back
    through :func:`repro.verilog.parser.parse_source`.
    """
    out = io.StringIO()
    names = netlist.net_names
    names[:_NUM_CONST_NETS] = ["_const0", "_const1", "_constx"]
    taken = set(names)
    inputs = netlist.inputs.tolist()
    declared = set(inputs)  # nets that are ports
    out_ports: list[str] = []
    assigns: list[tuple[str, str]] = []
    for i, nid in enumerate(netlist.outputs.tolist()):
        if nid >= _NUM_CONST_NETS and nid not in declared:
            declared.add(nid)
            out_ports.append(names[nid])
            continue
        port = f"_out{i}"
        while port in taken:
            port = "_" + port
        taken.add(port)
        out_ports.append(port)
        assigns.append((port, _LITERALS.get(nid) or _ident(names[nid])))
    ports = [names[n] for n in inputs] + out_ports
    out.write(f"module {_ident(netlist.top)} ({', '.join(_ident(p) for p in ports)});\n")
    for nid in inputs:
        out.write(f"  input {_ident(names[nid])};\n")
    for port in out_ports:
        out.write(f"  output {_ident(port)};\n")
    for nid in np.union1d(netlist.gate_output, netlist.pin_net).tolist():
        if nid in declared:
            continue
        if nid == CONST0:
            out.write(f"  supply0 {_ident(names[nid])};\n")
        elif nid == CONST1:
            out.write(f"  supply1 {_ident(names[nid])};\n")
        else:
            out.write(f"  wire {_ident(names[nid])};\n")
    for port, source in assigns:
        out.write(f"  assign {_ident(port)} = {source};\n")
    types = netlist.gate_types
    codes = netlist.gate_code.tolist()
    outs = netlist.gate_output.tolist()
    ptr = netlist.pin_ptr.tolist()
    pins = netlist.pin_net.tolist()
    for gid, gname in enumerate(netlist.gate_names):
        terms = ", ".join(
            _ident(names[n]) for n in (outs[gid], *pins[ptr[gid]:ptr[gid + 1]])
        )
        out.write(f"  {types[codes[gid]]} {_ident(gname)} ({terms});\n")
    out.write("endmodule\n")
    return out.getvalue()
