"""Streamed array-native circuit construction (template stamping).

The text path (generator → Verilog → parse → elaborate) allocates one
AST node per token and a name string per net and per gate — fine at
bench scale, prohibitive at the paper's ~1.2 M gates.  The streamed
path lowers the *same* generator description without the text:

1. each cell module is compiled **once** through the normal front end
   into a :class:`ModuleTemplate` — its gates as arrays with net
   references encoded relative to the module boundary (constant /
   port-bit / local), plus the cell's ``(port, width)`` list;
2. :func:`lower_module` reads the top module a generator recorded in a
   :class:`~repro.circuits._vlog.ModuleWriter`: declared nets get ids
   in declaration order, the top's own gates go first, and each run of
   consecutive instances of one cell is *stamped* as one block by a
   :class:`StreamBuilder` — one vectorized offset-add per array,
   appended into bounded-size chunks
   (:class:`~repro.verilog.netlist_csr.ChunkedIntArray`);
3. the result freezes into a
   :class:`~repro.verilog.netlist_csr.NetlistCSR`.

Because a standalone elaboration of a cell module orders gates exactly
like the full-design elaboration does inside each instance (a module's
own gates in body order, then child instances depth-first in
declaration order), and the lowering keeps that order for the top, a
streamed netlist lists gates in **the same order as the parsed
netlist** — gate ``i`` here is gate ``i`` there.  The equivalence test
(``tests/test_stream_circuits.py``) checks this gate-for-gate on small
configs.
"""

from __future__ import annotations

from itertools import chain, groupby
from operator import attrgetter
from typing import NoReturn

import numpy as np

from ..errors import ConfigError, ElaborationError
from ..obs.recorder import NULL_RECORDER, Recorder
from ..verilog import Source, elaborate, parse_source
from ..verilog.netlist import _NUM_CONST_NETS, CONST0, CONST1, CONSTX, Netlist
from ..verilog.netlist_csr import ChunkedIntArray, NetlistCSR
from ..hypergraph.dtypes import INT32_MAX, index_dtype, require_int64
from ._vlog import Instance, ModuleWriter, bus

__all__ = ["ModuleTemplate", "StreamBuilder", "lower_module"]


class ModuleTemplate:
    """One cell module lowered to stampable arrays.

    Net references inside the template are encoded as ints:

    * ``0..2`` — the global constant nets (pass through unchanged);
    * ``-(p + 1)`` — bit ``p`` of the port vector (template inputs in
      port order, then outputs in port order — the standalone
      netlist's ``inputs + outputs`` concatenation);
    * ``3 + l`` — template-local net ``l``; each stamped instance gets
      a fresh contiguous block of ``num_locals`` global ids.

    Stamping is then a masked select over these codes — no per-gate
    Python work.  ``ports`` lists the cell's ``(port, width)`` pairs
    in that same order (empty for a template built from a bare
    netlist), which is what :func:`lower_module` binds instances by.
    """

    __slots__ = (
        "name", "gate_types", "gate_code", "pin_count", "pin_enc",
        "out_enc", "num_ports", "num_locals", "num_gates", "num_pins",
        "ports",
    )

    def __init__(
        self,
        name: str,
        gate_types: tuple[str, ...],
        gate_code: np.ndarray,
        pin_count: np.ndarray,
        pin_enc: np.ndarray,
        out_enc: np.ndarray,
        num_ports: int,
        num_locals: int,
        ports: tuple[tuple[str, int], ...] = (),
    ) -> None:
        self.name = name
        self.gate_types = gate_types
        self.gate_code = gate_code
        self.pin_count = pin_count
        self.pin_enc = pin_enc
        self.out_enc = out_enc
        self.num_ports = int(num_ports)
        self.num_locals = int(num_locals)
        self.num_gates = len(gate_code)
        self.num_pins = len(pin_enc)
        self.ports = ports

    @classmethod
    def from_netlist(
        cls, netlist: Netlist, ports: tuple[tuple[str, int], ...] = ()
    ) -> "ModuleTemplate":
        """Encode a standalone-elaborated cell netlist.

        Port bits are the netlist's primary inputs followed by primary
        outputs; stamp-site bindings must supply global net ids in that
        order, and ``ports`` names them.  Rejects cells whose
        elaboration merged two port bits or tied a port to a constant —
        such a cell cannot be stamped positionally (none of the repo's
        generators produce one).
        """
        bits = list(netlist.inputs) + list(netlist.outputs)
        if len(set(bits)) != len(bits):
            raise ElaborationError(
                f"cell {netlist.top!r}: two port bits share a net; "
                f"not stampable"
            )
        if any(p < _NUM_CONST_NETS for p in bits):
            raise ElaborationError(
                f"cell {netlist.top!r}: a port bit is a constant net; "
                f"not stampable"
            )
        csr = netlist.csr
        # constants keep their ids, port bits count down from -1, the
        # remaining nets are numbered from 3 in ascending net order
        local = np.ones(csr.num_nets, dtype=bool)
        local[:_NUM_CONST_NETS] = False
        local[bits] = False
        enc = np.arange(csr.num_nets, dtype=np.int64)
        enc[bits] = -1 - np.arange(len(bits))
        n_locals = int(local.sum())
        enc[local] = _NUM_CONST_NETS + np.arange(n_locals)
        return cls(
            name=netlist.top,
            gate_types=csr.gate_types,
            gate_code=csr.gate_code,
            pin_count=np.diff(csr.pin_ptr).astype(np.int16),
            pin_enc=enc[csr.pin_net],
            out_enc=enc[csr.gate_output],
            num_ports=len(bits),
            num_locals=n_locals,
            ports=ports,
        )

    @classmethod
    def from_source(cls, source: Source, top: str) -> "ModuleTemplate":
        """Elaborate one cell of a parsed source and encode it for
        stamping, with its port list from the same parse."""
        module = source.modules[top]
        ports = tuple(
            (p, module.width_of(p))
            for direction in ("input", "output")
            for p in module.port_order
            if module.port_decls[p].direction == direction
        )
        return cls.from_netlist(elaborate(source, top=top), ports)

    def expand(self, port_nets: np.ndarray, local_base: np.ndarray,
               enc: np.ndarray) -> np.ndarray:
        """Resolve encoded refs to global ids for a block of instances.

        ``port_nets`` is ``(n, num_ports)`` global ids, ``local_base``
        the ``(n,)`` first global id of each instance's local block;
        returns ``(n, len(enc))`` in instance-major order.
        """
        n = len(local_base)
        out = np.empty((n, len(enc)), dtype=np.int64)
        const = (enc >= 0) & (enc < _NUM_CONST_NETS)
        port = enc < 0
        local = enc >= _NUM_CONST_NETS
        out[:, const] = enc[const]
        out[:, port] = port_nets[:, -enc[port] - 1]
        out[:, local] = local_base[:, None] + (enc[local] - _NUM_CONST_NETS)
        return out


class StreamBuilder:
    """Accumulates a :class:`NetlistCSR` from net blocks and stamps.

    A caller (normally :func:`lower_module`) mirrors the elaborator's
    order contract: the top module's own gates in body order first,
    then instances stamped in declaration order.

    ``expected_nets`` picks the chunk element width via
    :func:`~repro.hypergraph.dtypes.index_dtype`; the builder refuses
    to allocate a net id that would overflow the chosen width.
    """

    def __init__(self, top: str, *, chunk: int = 1 << 18,
                 expected_nets: int = 0) -> None:
        self.top = top
        self._dtype = index_dtype(max(expected_nets, 0))
        self._num_nets = _NUM_CONST_NETS
        self._gate_types: list[str] = []
        self._type_code: dict[str, int] = {}
        self._code = ChunkedIntArray(np.int16, chunk)
        self._out = ChunkedIntArray(self._dtype, chunk)
        self._pin_count = ChunkedIntArray(np.int16, chunk)
        self._pin = ChunkedIntArray(self._dtype, chunk)
        self._inputs: list[int] = []
        self._outputs: list[int] = []
        self._template_codes: dict[int, np.ndarray] = {}
        self._stamps = 0
        self._built = False

    @property
    def num_gates(self) -> int:
        return len(self._code)

    @property
    def num_nets(self) -> int:
        return self._num_nets

    # -- nets --------------------------------------------------------------

    def nets(self, count: int) -> np.ndarray:
        """Allocate ``count`` fresh net ids (a contiguous int64 block)."""
        base = self._alloc(count)
        return np.arange(base, base + count, dtype=np.int64)

    def net(self) -> int:
        """Allocate one fresh net id."""
        return self._alloc(1)

    def _alloc(self, count: int) -> int:
        base = self._num_nets
        self._num_nets += int(count)
        if self._dtype.itemsize == 4 and self._num_nets - 1 > INT32_MAX:
            raise ConfigError(
                f"net ids exceeded int32 while building {self.top!r}; "
                f"pass a truthful expected_nets to StreamBuilder"
            )
        return base

    def mark_input(self, nets) -> None:
        """Record primary inputs (port declaration order matters)."""
        self._inputs.extend(int(n) for n in np.atleast_1d(nets))

    def mark_output(self, nets) -> None:
        """Record primary outputs (port declaration order matters)."""
        self._outputs.extend(int(n) for n in np.atleast_1d(nets))

    # -- gates -------------------------------------------------------------

    def _code_of(self, gtype: str) -> int:
        code = self._type_code.get(gtype)
        if code is None:
            code = self._type_code[gtype] = len(self._gate_types)
            self._gate_types.append(gtype)
        return code

    def gate(self, gtype: str, output: int, *inputs: int) -> None:
        """Emit one top-level gate (body-order position is significant)."""
        self.gate_rows([gtype], [[output, *inputs]])

    def gate_rows(self, types: list[str], rows: list[list[int]]) -> None:
        """Emit gates in order from ``(output, *inputs)`` rows, one type
        name per row — any mix of types and arities."""
        codes = {t: self._code_of(t) for t in dict.fromkeys(types)}
        n = len(rows)
        self._code.extend(np.fromiter(map(codes.__getitem__, types), np.int16, n))
        self._out.extend(np.fromiter((r[0] for r in rows), np.int64, n))
        self._pin_count.extend(np.fromiter(map(len, rows), np.int16, n) - 1)
        self._pin.extend(np.fromiter(
            chain.from_iterable(r[1:] for r in rows), np.int64))

    def gates(self, gtype: str, outputs: np.ndarray,
              inputs: np.ndarray) -> None:
        """Emit a block of same-type gates.

        ``outputs`` is ``(n,)``; ``inputs`` is ``(n, arity)`` — every
        gate in the block has the same arity.
        """
        outputs = np.ascontiguousarray(outputs).reshape(-1)
        inputs = np.ascontiguousarray(inputs)
        if inputs.ndim != 2 or len(inputs) != len(outputs):
            raise ConfigError("gates() needs (n,) outputs and (n, arity) inputs")
        self.gate_rows([gtype] * len(outputs),
                       np.column_stack((outputs, inputs)).tolist())

    def stamp(self, template: ModuleTemplate, port_nets: np.ndarray) -> None:
        """Stamp instances of ``template`` in declaration order.

        ``port_nets`` is ``(n, template.num_ports)`` global net ids
        (template input bits first, then output bits).  Instances are
        processed in bounded blocks so the transient expansion stays
        ~one chunk regardless of ``n``.
        """
        port_nets = np.ascontiguousarray(port_nets, dtype=np.int64)
        if port_nets.ndim != 2 or port_nets.shape[1] != template.num_ports:
            raise ConfigError(
                f"template {template.name!r} has {template.num_ports} port "
                f"bits; got binding shape {port_nets.shape}"
            )
        n = len(port_nets)
        if n == 0:
            return
        codes = self._template_codes.get(id(template))
        if codes is None:
            codes = np.array(
                [self._code_of(t) for t in template.gate_types],
                dtype=np.int16,
            )[template.gate_code]
            self._template_codes[id(template)] = codes
        self._stamps += n
        base = self._alloc(n * template.num_locals)
        per = max(template.num_pins, template.num_gates, 1)
        block = max(1, self._pin.chunk // per)
        for lo in range(0, n, block):
            hi = min(n, lo + block)
            local_base = (
                base
                + np.arange(lo, hi, dtype=np.int64) * template.num_locals
            )
            bound = port_nets[lo:hi]
            self._code.extend(np.tile(codes, hi - lo))
            self._out.extend(
                template.expand(bound, local_base, template.out_enc)
            )
            self._pin_count.extend(np.tile(template.pin_count, hi - lo))
            self._pin.extend(
                template.expand(bound, local_base, template.pin_enc)
            )

    # -- freeze ------------------------------------------------------------

    def build(self, recorder: Recorder = NULL_RECORDER) -> NetlistCSR:
        """Freeze into a validated :class:`NetlistCSR` (single use).

        A recorder receives the deterministic ``circ.*`` construction
        counters (gate/net/pin totals and stamped instance count).
        """
        if self._built:
            raise ConfigError("StreamBuilder.build() called twice")
        self._built = True
        if recorder.enabled:
            recorder.incr("circ.gates", self.num_gates)
            recorder.incr("circ.nets", self._num_nets)
            recorder.incr("circ.pins", len(self._pin))
            recorder.incr("circ.stamps", self._stamps)
        counts = self._pin_count.freeze()
        ptr = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, dtype=np.int64, out=ptr[1:])
        return NetlistCSR(
            top=self.top,
            gate_types=tuple(self._gate_types),
            gate_code=self._code.freeze(),
            gate_output=require_int64(self._out.freeze()),
            pin_ptr=ptr,
            pin_net=require_int64(self._pin.freeze()),
            inputs=np.array(self._inputs, dtype=np.int64),
            outputs=np.array(self._outputs, dtype=np.int64),
            num_nets=self._num_nets,
        )


# -- lowering a recorded module ----------------------------------------------

_CONSTS = {"1'b0": CONST0, "1'b1": CONST1, "1'bx": CONSTX}


class _Nets(dict):
    """Net ids of one recorded module's references, resolved on first
    use and cached (generators repeat references heavily).

    Declarations take contiguous id blocks in call order from ``base``.
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
        self.end = base

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

    def row(self, inst: Instance, template: ModuleTemplate) -> list[int]:
        """``inst``'s port row: net ids in the template's port order."""
        row: list[int] = []
        for port, width in template.ports:
            expr = inst.connections.get(port)
            if expr is None:
                self.fail(f"port {port!r} of {inst.name} ({inst.cell}) "
                          f"is unconnected")
            ids = self[expr]
            if len(ids) != width:
                self.fail(f"{inst.name}.{port} is {width} bits, {expr!r} "
                          f"is {len(ids)}")
            row += ids
        if len(inst.connections) != len(template.ports):
            extra = inst.connections.keys() - dict(template.ports).keys()
            self.fail(f"cell {inst.cell!r} has no port {min(extra)!r} "
                      f"(instance {inst.name})")
        return row


class _Bits(dict):
    """One-bit reference -> net id (a gate terminal): scalar nets up
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
                 recorder: Recorder = NULL_RECORDER) -> NetlistCSR:
    """Lower a recorded top module straight to a :class:`NetlistCSR` —
    the elaboration of its :meth:`~repro.circuits._vlog.ModuleWriter
    .emit` text, up to net numbering.

    ``cells`` is the Verilog text of the modules the instances name,
    parsed once; each named cell compiles once into a
    :class:`ModuleTemplate`.  Ports and wires get net ids in
    declaration order, ``input`` / ``output`` ports become the primary
    I/O, the module's own gates come first (body order, one
    :meth:`StreamBuilder.gate_rows` call), then the instances in
    declaration order, bound by the cell's port names, each run of
    consecutive instances of one cell stamped as one block.  What only
    the text path expresses — a range select, an undeclared net, an
    unknown cell, an unconnected or unknown port, a width mismatch —
    raises :class:`~repro.errors.ElaborationError`.
    """
    source = parse_source(cells)
    b = StreamBuilder(module.name)
    nets = _Nets(module, b.num_nets)
    b.nets(nets.end - b.num_nets)
    for kind, mark in (("input", b.mark_input), ("output", b.mark_output)):
        mark([i for k, name, _ in module.decls if k == kind
              for i in nets[name]])
    bit = _Bits(nets)
    b.gate_rows([gtype for gtype, _ in module.gates],
                [[bit[t] for t in terms] for _, terms in module.gates])
    templates: dict[str, ModuleTemplate] = {}
    for cell, run in groupby(module.instances, key=attrgetter("cell")):
        if cell not in source.modules:
            nets.fail(f"instance of unknown cell {cell!r}")
        if cell not in templates:
            templates[cell] = ModuleTemplate.from_source(source, cell)
        rows = [nets.row(inst, templates[cell]) for inst in run]
        b.stamp(templates[cell], np.array(rows, dtype=np.int64))
    return b.build(recorder=recorder)
