"""Tiny helper for emitting structural Verilog from generators.

Generators build module bodies line by line; :class:`ModuleWriter`
handles port/wire declarations and gate instantiation syntax so the
generator code reads like netlist construction, not string plumbing.
The writer records the module as data — declarations in call order,
gates, instances — and :meth:`ModuleWriter.emit` renders that record
as text, which parses back through :mod:`repro.verilog`.  The streamed
construction path lowers the same record straight to arrays
(:func:`repro.circuits.stream.lower_module`).
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["Instance", "ModuleWriter", "bus"]


def bus(name: str, width: int) -> list[str]:
    """Bit references ``name[0] .. name[width-1]`` (LSB first); a bare
    ``name`` for width 1."""
    if width == 1:
        return [name]
    return [f"{name}[{i}]" for i in range(width)]


class Instance(NamedTuple):
    """One recorded instantiation, placed in body order after the
    module's first ``gates_before`` gates."""

    cell: str
    name: str
    connections: dict[str, str]
    gates_before: int


class ModuleWriter:
    """Records one Verilog module definition: ``decls`` holds
    ``(kind, name, width)`` in call order (``kind`` ``"input"``,
    ``"output"`` or ``"wire"``), ``gates`` ``(gtype, terms)`` in body
    order with the output terminal first, ``instances`` the
    :class:`Instance` records in declaration order."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.decls: list[tuple[str, str, int]] = []
        self.gates: list[tuple[str, tuple[str, ...]]] = []
        self.instances: list[Instance] = []
        self._tmp = 0

    # -- declarations ------------------------------------------------------

    def input(self, name: str, width: int = 1) -> list[str]:
        self.decls.append(("input", name, width))
        return bus(name, width)

    def output(self, name: str, width: int = 1) -> list[str]:
        self.decls.append(("output", name, width))
        return bus(name, width)

    def wire(self, name: str, width: int = 1) -> list[str]:
        self.decls.append(("wire", name, width))
        return bus(name, width)

    def fresh(self, prefix: str = "t", width: int = 1) -> list[str]:
        """Declare a uniquely named scratch wire."""
        name = f"{prefix}_{self._tmp}"
        self._tmp += 1
        return self.wire(name, width)

    # -- gates ----------------------------------------------------------------

    def gate(self, gtype: str, out: str, *ins: str) -> None:
        self.gates.append((gtype, (out, *ins)))

    def dff(self, q: str, d: str, clk: str) -> None:
        self.gates.append(("dff", (q, d, clk)))

    def dffr(self, q: str, d: str, clk: str, rst: str) -> None:
        self.gates.append(("dffr", (q, d, clk, rst)))

    def instance(self, module: str, name: str, connections: dict[str, str]) -> None:
        self.instances.append(
            Instance(module, name, dict(connections), len(self.gates))
        )

    # -- compound gate-level blocks ----------------------------------------------

    def full_adder(self, a: str, b: str, cin: str, s: str, cout: str) -> None:
        """5-gate full adder."""
        t = self.fresh("fa", 3)
        self.gate("xor", t[0], a, b)
        self.gate("xor", s, t[0], cin)
        self.gate("and", t[1], t[0], cin)
        self.gate("and", t[2], a, b)
        self.gate("or", cout, t[1], t[2])

    def ripple_add(self, a: list[str], b: list[str], s: list[str], cout: str | None = None,
                   cin: str | None = None) -> None:
        """Ripple-carry adder over equal-width buses."""
        width = len(a)
        carries = self.fresh("rc", width)
        prev = cin
        for i in range(width):
            if prev is None:
                # half adder for the first stage
                self.gate("xor", s[i], a[i], b[i])
                self.gate("and", carries[i], a[i], b[i])
            else:
                self.full_adder(a[i], b[i], prev, s[i], carries[i])
            prev = carries[i]
        if cout is not None:
            self.gate("buf", cout, prev)

    def less_than(self, a: list[str], b: list[str], lt: str) -> None:
        """Unsigned comparator: lt = (a < b), MSB-down ripple."""
        width = len(a)
        prev: str | None = None
        for i in range(width - 1, -1, -1):
            eq = self.fresh("lt_eq")[0]
            li = self.fresh("lt_lt")[0]
            nb = self.fresh("lt_nb")[0]
            self.gate("xnor", eq, a[i], b[i])
            self.gate("not", nb, a[i])
            self.gate("and", li, nb, b[i])
            if prev is None:
                prev = li
            else:
                keep = self.fresh("lt_keep")[0]
                self.gate("and", keep, eq, prev)
                nxt = self.fresh("lt_next")[0]
                self.gate("or", nxt, li, keep)
                prev = nxt
        self.gate("buf", lt, prev if prev is not None else "1'b0")

    def mux2(self, sel: str, a: list[str], b: list[str], y: list[str]) -> None:
        """y = sel ? b : a, bitwise (3 gates + shared inverter)."""
        nsel = self.fresh("mx_ns")[0]
        self.gate("not", nsel, sel)
        for i in range(len(a)):
            ta = self.fresh("mx_a")[0]
            tb = self.fresh("mx_b")[0]
            self.gate("and", ta, a[i], nsel)
            self.gate("and", tb, b[i], sel)
            self.gate("or", y[i], ta, tb)

    # -- emission -------------------------------------------------------------------

    def emit(self) -> str:
        """Render the record as Verilog: ports, then wires, then the
        body with gates and instances interleaved in call order."""
        ports = [d for d in self.decls if d[0] != "wire"]
        wires = [d for d in self.decls if d[0] == "wire"]
        lines = [f"module {self.name} ({', '.join(p[1] for p in ports)});"]
        for kind, name, width in ports + wires:
            rng = f"[{width - 1}:0] " if width > 1 else ""
            lines.append(f"  {kind} {rng}{name};")
        body = [f"  {gtype} ({', '.join(terms)});" for gtype, terms in self.gates]
        for inst in reversed(self.instances):
            conns = ", ".join(f".{p}({e})" for p, e in inst.connections.items())
            body.insert(inst.gates_before, f"  {inst.cell} {inst.name} ({conns});")
        return "\n".join(lines + body + ["endmodule", ""])
