"""Streamed circuit construction: a recorded top module read straight
into the elaborator's stamper.

The streamed path lowers a generator's description without the text
the parser would read (generator → Verilog → parse → elaborate):
:func:`lower_module` parses only the cell modules, reads the top module
a generator recorded in a :class:`~repro.circuits._vlog.ModuleWriter`
into the top's plan — declared nets as slots in declaration call order,
the top's own gates, each instance bound by its cell's port names — and
hands that plan to the one stamper (:mod:`repro.verilog.elaborate`),
which compiles every cell once into a template and stamps each run of
consecutive instances of one cell as one block, exactly as it does for
parsed text.  The result is the same
:class:`~repro.verilog.netlist.Netlist` the text path builds, hierarchy
and names included; only the top's slot order differs (the text path
declares ports first), so gate ``i`` here is gate ``i`` of the parsed
netlist (``tests/test_stream_circuits.py``).
"""

from __future__ import annotations

from typing import NoReturn

import numpy as np

from ..errors import ElaborationError
from ..obs.recorder import NULL_RECORDER, Recorder
from ..verilog import parse_source
from ..verilog.ast import Module
from ..verilog.elaborate import _ChildPlan, _Elaborator, _ModulePlan
from ..verilog.netlist import _NUM_CONST_NETS, CONST0, CONST1, CONSTX, Netlist
from ._vlog import Instance, ModuleWriter, bus

__all__ = ["lower_module"]


_CONSTS = {"1'b0": CONST0, "1'b1": CONST1, "1'bx": CONSTX}


class _Nets(dict):
    """The top's slots for one recorded module's references, resolved
    on first use and cached (generators repeat references heavily).

    Declarations take contiguous slot blocks in call order from
    ``base``.
    A reference is a constant (``1'b0``), a whole net (``name``, LSB
    first), one bit (``name[i]``) or a concatenation of those (``{a,
    b}``, MSB first); its ids come back LSB first.
    """

    def __init__(self, module: ModuleWriter, base: int) -> None:
        super().__init__()
        self.top = module.name
        self.buses: dict[str, tuple[int, int]] = {}
        for _, name, width in module.decls:
            if name in self.buses:
                self.fail(f"{name!r} declared twice")
            self.buses[name] = (base, width)
            base += width

    def fail(self, why: str) -> NoReturn:
        raise ElaborationError(f"{self.top}: {why}")

    def __missing__(self, expr: str) -> list[int]:
        ids = self[expr] = self.resolve(expr)
        return ids

    def resolve(self, expr: str) -> list[int]:
        expr = expr.strip()
        if expr[:1] == "{" and expr[-1:] == "}":
            return [i for part in reversed(expr[1:-1].split(","))
                    for i in self.resolve(part)]
        if expr in _CONSTS:
            return [_CONSTS[expr]]
        name, bracket, index = expr.partition("[")
        if name not in self.buses:
            self.fail(f"{expr!r} names no declared net")
        base, width = self.buses[name]
        if not bracket:
            return list(range(base, base + width))
        index = index.removesuffix("]")
        if not index.isdigit():
            self.fail(f"{expr!r} is not a one-bit select "
                      f"(range selects are not lowered)")
        if int(index) >= width:
            self.fail(f"{expr!r} selects past {name!r}'s {width} bits")
        return [base + int(index)]

    def bindings(self, inst: Instance,
                 cell: Module) -> tuple[tuple[str, list[int]], ...]:
        """``inst``'s connections as (port, slots) pairs in the cell's
        port order; every port connected, at its width."""
        out = []
        for port in cell.port_order:
            expr = inst.connections.get(port)
            if expr is None:
                self.fail(f"port {port!r} of {inst.name} ({inst.cell}) "
                          f"is unconnected")
            ids = self[expr]
            width = cell.width_of(port)
            if len(ids) != width:
                self.fail(f"{inst.name}.{port} is {width} bits, {expr!r} "
                          f"is {len(ids)}")
            out.append((port, ids))
        if len(inst.connections) != len(out):
            extra = inst.connections.keys() - set(cell.port_order)
            self.fail(f"cell {inst.cell!r} has no port {min(extra)!r} "
                      f"(instance {inst.name})")
        return tuple(out)


class _Bits(dict):
    """One-bit reference -> slot (a gate terminal): scalar nets up
    front, a bus's bits on the first miss that names it, anything
    else through :class:`_Nets`."""

    def __init__(self, nets: _Nets) -> None:
        super().__init__(
            (name, base) for name, (base, width) in nets.buses.items()
            if width == 1
        )
        self.nets = nets

    def __missing__(self, ref: str) -> int:
        name = ref.partition("[")[0]
        base, width = self.nets.buses.get(name, (0, 1))
        if width > 1 and f"{name}[0]" not in self:
            self.update(zip(bus(name, width), range(base, base + width)))
            if ref in self:
                return self[ref]
        ids = self.nets[ref]
        if len(ids) != 1:
            self.nets.fail(f"gate terminal {ref!r} is {len(ids)} bits")
        return ids[0]


def lower_module(module: ModuleWriter, cells: str,
                 recorder: Recorder = NULL_RECORDER) -> Netlist:
    """Lower a recorded top module straight to a
    :class:`~repro.verilog.netlist.Netlist` — the elaboration of its
    :meth:`~repro.circuits._vlog.ModuleWriter.emit` text, hierarchy and
    names included, up to net numbering.

    ``cells`` is the Verilog text of the modules the instances name,
    parsed once.  Ports and wires are the top's slots in declaration
    order, ``input`` / ``output`` ports become the primary I/O, the
    module's own gates come first (body order), then the instances in
    declaration order, bound by the cell's port names and named by
    their recorded names; the elaborator's stamper does the rest.  What
    only the text path expresses — a range select, an undeclared net,
    an unknown cell, an unconnected or unknown port, a width mismatch —
    raises :class:`~repro.errors.ElaborationError`.  ``recorder``
    receives the ``circ.*`` gate / net / pin / instance totals.
    """
    source = parse_source(cells)
    elab = _Elaborator(source)
    nets = _Nets(module, _NUM_CONST_NETS)
    plan = _ModulePlan(module.name)
    plan.names = [bit for _, name, width in module.decls
                  for bit in bus(name, width)]
    plan.num_local = len(plan.names)
    bit = _Bits(nets)
    rows = [[bit[t] for t in terms] for _, terms in module.gates]
    plan.gate_code = np.array([elab.code(gtype) for gtype, _ in module.gates],
                              dtype=np.int16)
    plan.out_slots = np.array([row[0] for row in rows], dtype=np.intp)
    plan.pin_count = np.array([len(row) - 1 for row in rows], dtype=np.int32)
    plan.pin_slots = np.fromiter(
        (s for row in rows for s in row[1:]), dtype=np.intp)
    names: set[str] = set()
    for inst in module.instances:
        cell = source.modules.get(inst.cell)
        if cell is None:
            nets.fail(f"instance of unknown cell {inst.cell!r}")
        if inst.name in names:
            nets.fail(f"duplicate instance name {inst.name!r}")
        names.add(inst.name)
        plan.children.append(_ChildPlan(
            inst.name, cell, _NUM_CONST_NETS + plan.num_local, 0,
            nets.bindings(inst, cell)))
    inputs, outputs = ([i for k, name, _ in module.decls if k == kind
                        for i in nets[name]] for kind in ("input", "output"))
    netlist = elab.run_plan(plan, [f"_g{i}" for i in range(len(rows))],
                            inputs, outputs)
    if recorder.enabled:
        recorder.incr("circ.gates", netlist.num_gates)
        recorder.incr("circ.nets", netlist.num_nets)
        recorder.incr("circ.pins", netlist.num_pins)
        recorder.incr("circ.stamps", len(module.instances))
    return netlist
