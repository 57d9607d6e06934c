"""Streamed array-native circuit construction (template stamping).

The streamed path lowers a generator's description without the text
the parser would read (generator → Verilog → parse → elaborate):

1. each cell module is compiled **once** through the normal front end
   into a :class:`ModuleTemplate` — its gates as arrays with net
   references encoded relative to the module boundary (constant /
   port-bit / local), plus the cell's ``(port, width)`` list;
2. :func:`lower_module` reads the top module a generator recorded in a
   :class:`~repro.circuits._vlog.ModuleWriter`: declared nets get ids
   in declaration order, the top's own gates go first, and each run of
   consecutive instances of one cell is *stamped* as one block by a
   :class:`StreamBuilder` — one vectorized offset-add per array, in
   bounded blocks appended at the index width, concatenated once;
3. the result freezes into the same
   :class:`~repro.verilog.netlist.Netlist` the text path builds.

Each instance carries its cell's hierarchy and names, stamped as
runs (:mod:`repro.verilog.netlist`); a top-level net bound to ports
takes the name the text path gives it.  A standalone elaboration of a
cell orders gates as the full design does inside each instance, and the
lowering keeps that order for the top, so gate ``i`` here is gate ``i``
of the parsed netlist (``tests/test_stream_circuits.py``).
"""

from __future__ import annotations

from itertools import chain, groupby
from operator import attrgetter
from typing import NoReturn

import numpy as np

from ..errors import ConfigError, ElaborationError
from ..obs.recorder import NULL_RECORDER, Recorder
from ..verilog import Source, elaborate, parse_source
from ..verilog.netlist import (
    _NUM_CONST_NETS,
    CONST0,
    CONST1,
    CONST_NAMES,
    CONSTX,
    Netlist,
    pick_names,
    run_lengths,
    run_names,
)
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
    The standalone ``netlist`` names every instance; ``local_temp`` /
    ``port_temp`` are its temps naming the local nets and port bits.
    """

    __slots__ = (
        "netlist", "pin_count", "pin_enc", "out_enc", "num_ports",
        "num_locals", "ports", "local_temp", "port_temp", "port_len",
        "num_temps", "temp_runs",
    )

    def __init__(
        self,
        netlist: Netlist,
        pin_enc: np.ndarray,
        out_enc: np.ndarray,
        local_temp: np.ndarray,
        port_temp: np.ndarray,
        ports: tuple[tuple[str, int], ...] = (),
    ) -> None:
        self.netlist = netlist
        self.pin_count = np.diff(netlist.pin_ptr).astype(np.int16)
        self.pin_enc = pin_enc
        self.out_enc = out_enc
        self.num_ports = len(port_temp)
        self.num_locals = len(local_temp)
        self.ports = ports
        self.local_temp = local_temp
        self.port_temp = port_temp
        self.port_len = run_lengths(netlist.temp_runs, port_temp,
                                    netlist.prefixes, netlist.name_table)
        # an instance's temp block covers every temp a net is named by
        self.num_temps = int(netlist.net_temp.max()) + 1
        self.temp_runs = netlist.temp_runs[
            netlist.temp_runs[:, 0] < self.num_temps]

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
        bits = np.concatenate((netlist.inputs, netlist.outputs))
        if len(set(bits.tolist())) != len(bits):
            raise ElaborationError(
                f"cell {netlist.top!r}: two port bits share a net; "
                f"not stampable"
            )
        if (bits < _NUM_CONST_NETS).any():
            raise ElaborationError(
                f"cell {netlist.top!r}: a port bit is a constant net; "
                f"not stampable"
            )
        # constants keep their ids, port bits count down from -1, the
        # remaining nets are numbered from 3 in ascending net order
        local = np.ones(netlist.num_nets, dtype=bool)
        local[:_NUM_CONST_NETS] = False
        local[bits] = False
        enc = np.arange(netlist.num_nets, dtype=np.int64)
        enc[bits] = -1 - np.arange(len(bits))
        enc[local] = _NUM_CONST_NETS + np.arange(int(local.sum()))
        return cls(
            netlist,
            pin_enc=enc[netlist.pin_net],
            out_enc=enc[netlist.gate_output],
            local_temp=netlist.net_temp[local],
            port_temp=netlist.net_temp[bits],
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
        returns ``(n, len(enc))`` in instance-major order, at their width.
        """
        n = len(local_base)
        out = np.empty((n, len(enc)), dtype=np.result_type(port_nets, local_base))
        const = (enc >= 0) & (enc < _NUM_CONST_NETS)
        port = enc < 0
        local = enc >= _NUM_CONST_NETS
        out[:, const] = enc[const]
        out[:, port] = port_nets[:, -enc[port] - 1]
        out[:, local] = local_base[:, None] + (enc[local] - _NUM_CONST_NETS)
        return out


def _cat(blocks: list[np.ndarray], dtype: np.dtype) -> np.ndarray:
    """The blocks as one array; the list is emptied."""
    out = np.concatenate(blocks) if blocks else np.zeros(0, dtype=dtype)
    blocks.clear()
    return out


def _shifted(runs: np.ndarray, first: np.ndarray, node: np.ndarray,
             table: int) -> np.ndarray:
    """A template's runs stamped once per instance: ``(len(first) *
    len(runs), 3)``, instance ``i``'s ids from ``first[i]`` and its
    nodes from ``node[i]``."""
    out = np.empty((len(first), len(runs), 3), dtype=np.int64)
    out[:, :, 0] = first[:, None] + runs[:, 0]
    out[:, :, 1] = node[:, None] + runs[:, 1]
    out[:, :, 2] = table + runs[:, 2]
    return out.reshape(-1, 3)


class StreamBuilder:
    """Accumulates a :class:`~repro.verilog.netlist.Netlist` from net
    blocks and stamps.

    A caller (normally :func:`lower_module`) mirrors the elaborator's
    order contract: the top module's own gates in body order first,
    then instances stamped in declaration order.  Names follow
    elaboration: a declared net its bit name (:meth:`nets`: ``_n<id>``),
    a top-level gate ``_g<i>``, an instance its cell's names.

    ``expected_nets`` picks the net-id columns' width
    (:func:`~repro.hypergraph.dtypes.index_dtype`); a net id past it is
    refused.  ``chunk`` bounds what one stamped block expands to.
    """

    def __init__(self, top: str, *, chunk: int = 1 << 18,
                 expected_nets: int = 0) -> None:
        self.top = top
        self._netlist = Netlist(top)
        self._dtype = index_dtype(max(expected_nets, 0))
        self._chunk = chunk
        self._num_nets = _NUM_CONST_NETS
        self._num_gates = self._num_pins = 0
        self._gate_types: list[str] = []
        self._type_code: dict[str, int] = {}
        # the columns as blocks
        self._code: list[np.ndarray] = []
        self._out: list[np.ndarray] = []
        self._pin_count: list[np.ndarray] = []
        self._pin: list[np.ndarray] = []
        self._inputs: list[int] = []
        self._outputs: list[int] = []
        # names; per stamped port bit a (net, temp, length) candidate
        self._table: list[str] = list(CONST_NAMES)
        self._prefixes = [""]
        self._top_gates = 0
        self._gate_runs: list[np.ndarray] = []
        self._num_temps = _NUM_CONST_NETS
        self._temp_runs: list[np.ndarray] = [np.zeros((1, 3), dtype=np.int64)]
        self._net_temp = [np.arange(_NUM_CONST_NETS, dtype=self._dtype)]
        self._candidates: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        # per template: its type codes here and where its names start
        self._templates: dict[int, tuple[np.ndarray, int]] = {}
        self._stamps = 0
        self._built = False

    @property
    def num_gates(self) -> int:
        return self._num_gates

    @property
    def num_nets(self) -> int:
        return self._num_nets

    # -- nets --------------------------------------------------------------

    def declare(self, names: list[str]) -> np.ndarray:
        """Allocate one fresh top-level net per name (a contiguous
        int64 block, named in order)."""
        base = self._alloc(len(names))
        self._temp_runs.append(
            np.array([[self._num_temps, 0, len(self._table)]], dtype=np.int64))
        self._net_temp.append(np.arange(
            self._num_temps, self._num_temps + len(names), dtype=self._dtype))
        self._num_temps += len(names)
        self._table.extend(names)
        return np.arange(base, base + len(names), dtype=np.int64)

    def nets(self, count: int) -> np.ndarray:
        """Allocate ``count`` fresh net ids (a contiguous int64 block)."""
        first = self._num_nets
        return self.declare([f"_n{i}" for i in range(first, first + count)])

    def net(self) -> int:
        """Allocate one fresh net id."""
        return int(self.nets(1)[0])

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
        """Emit top-level gates in order from ``(output, *inputs)`` rows,
        one type name per row — any mix of types and arities."""
        codes = {t: self._code_of(t) for t in dict.fromkeys(types)}
        n = len(rows)
        self._gate_runs.append(np.array(
            [[self.num_gates, 0, len(self._table)]], dtype=np.int64))
        self._table.extend(
            f"_g{i}" for i in range(self._top_gates, self._top_gates + n))
        self._top_gates += n
        self._append(
            np.fromiter(map(codes.__getitem__, types), np.int16, n),
            np.fromiter((r[0] for r in rows), np.int64, n),
            np.fromiter(map(len, rows), np.int16, n) - 1,
            np.fromiter(chain.from_iterable(r[1:] for r in rows), np.int64),
        )

    def _append(self, code: np.ndarray, out: np.ndarray,
                pin_count: np.ndarray, pin: np.ndarray) -> None:
        """Append a block of gates, net ids at the index width."""
        self._code.append(code)
        self._out.append(out.reshape(-1).astype(self._dtype, copy=False))
        self._pin_count.append(pin_count)
        self._pin.append(pin.reshape(-1).astype(self._dtype, copy=False))
        self._num_gates += len(code)
        self._num_pins += self._pin[-1].size

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

    def stamp(self, template: ModuleTemplate,
              port_nets: np.ndarray | dict[str, list[int]]) -> None:
        """Stamp instances of ``template`` in declaration order.

        ``port_nets`` maps each instance name to its row of global net
        ids (template input bits first, then output bits), or is the
        ``(n, num_ports)`` rows alone (instances named ``u<i>``).  Bounded
        blocks keep the transient expansion ~one chunk at any ``n``.
        """
        cell = template.netlist
        if isinstance(port_nets, dict):
            names = list(port_nets)
            port_nets = np.array(list(port_nets.values()), dtype=np.int64)
            port_nets = port_nets.reshape(len(names), -1)
        else:
            port_nets = np.ascontiguousarray(port_nets, dtype=np.int64)
            names = [f"u{i}" for i in range(
                self._stamps, self._stamps + len(port_nets))]
        if port_nets.ndim != 2 or port_nets.shape[1] != template.num_ports:
            raise ConfigError(
                f"template {cell.top!r} has {template.num_ports} port "
                f"bits; got binding shape {port_nets.shape}"
            )
        n = len(port_nets)
        if n == 0:
            return
        known = self._templates.get(id(template))
        if known is None:
            known = self._templates[id(template)] = (
                np.array([self._code_of(t) for t in cell.gate_types],
                         dtype=np.int16)[cell.gate_code],
                len(self._table),
            )
            self._table.extend(template.netlist.name_table)
        codes, table = known
        self._name_instances(template, names, port_nets, table)
        self._stamps += n
        base = self._alloc(n * template.num_locals)
        per = max(cell.num_pins, cell.num_gates, 1)
        block = max(1, self._chunk // per)
        for lo in range(0, n, block):
            hi = min(n, lo + block)
            local_base = (
                base + np.arange(lo, hi, dtype=np.int64) * template.num_locals
            ).astype(self._dtype)
            bound = port_nets[lo:hi].astype(self._dtype)
            self._append(
                np.tile(codes, hi - lo),
                template.expand(bound, local_base, template.out_enc),
                np.tile(template.pin_count, hi - lo),
                template.expand(bound, local_base, template.pin_enc),
            )

    def _name_instances(self, template: ModuleTemplate, names: list[str],
                        port_nets: np.ndarray, table: int) -> None:
        """Graft the instances' trees and stamp their name runs."""
        root = self._netlist.hierarchy
        cell = template.netlist
        for name in names:
            if name in root.children:
                raise ElaborationError(
                    f"duplicate instance name {name!r} in {self.top}")
            root.children[name] = cell.hierarchy.clone((name,))
            self._prefixes.extend(name + "." + p for p in cell.prefixes)
        n = len(names)
        inst = np.arange(n, dtype=np.int64)
        node = len(self._prefixes) - (n - inst) * len(cell.nodes)
        self._gate_runs.append(_shifted(
            cell.gate_runs, self.num_gates + inst * cell.num_gates,
            node, table))
        temps = self._num_temps + inst * template.num_temps
        self._num_temps += n * template.num_temps
        self._temp_runs.append(_shifted(template.temp_runs, temps, node, table))
        self._net_temp.append(
            (temps[:, None] + template.local_temp).reshape(-1).astype(self._dtype))
        prefix_len = np.fromiter(map(len, names), np.int64, n) + 1
        self._candidates.append((
            port_nets.reshape(-1),
            (temps[:, None] + template.port_temp).reshape(-1),
            (prefix_len[:, None] + template.port_len).reshape(-1),
        ))

    # -- freeze ------------------------------------------------------------

    def build(self, recorder: Recorder = NULL_RECORDER) -> Netlist:
        """Freeze into a validated :class:`~repro.verilog.netlist.Netlist`
        (single use); a net bound to port bits takes the shortest of its
        own and their names, as elaboration does.  ``recorder`` receives
        the ``circ.*`` gate/net/pin/stamp totals."""
        if self._built:
            raise ConfigError("StreamBuilder.build() called twice")
        self._built = True
        if recorder.enabled:
            recorder.incr("circ.gates", self.num_gates)
            recorder.incr("circ.nets", self._num_nets)
            recorder.incr("circ.pins", self._num_pins)
            recorder.incr("circ.stamps", self._stamps)
        if self._dtype.itemsize == 4 and self._num_temps > INT32_MAX:
            raise ConfigError(f"name temps exceeded int32 while building "
                              f"{self.top!r}; pass a larger expected_nets")
        temp_runs = np.concatenate(self._temp_runs)
        net_temp = _cat(self._net_temp, self._dtype)
        if self._candidates:
            net, temp, length = map(np.concatenate, zip(*self._candidates))
            # a port bit's name can win only where it is no longer than
            # the net's own (constants keep theirs)
            own = net_temp[net]
            keep = (net >= _NUM_CONST_NETS) & (length <= run_lengths(
                temp_runs, own, self._prefixes, self._table))
            nets = np.array(sorted(set(net[keep].tolist())), dtype=np.int64)
            best, _ = pick_names(
                len(nets),
                np.searchsorted(nets, np.concatenate((nets, net[keep]))),
                np.concatenate((net_temp[nets], temp[keep])),
                np.concatenate((run_lengths(temp_runs, net_temp[nets],
                                            self._prefixes, self._table),
                                length[keep])),
                lambda t: run_names(temp_runs, t, self._prefixes, self._table),
            )
            net_temp[nets] = best
        counts = _cat(self._pin_count, np.int16)
        ptr = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, dtype=np.int64, out=ptr[1:])
        netlist = self._netlist
        netlist.adopt_columns(
            self._table,
            np.concatenate(self._gate_runs) if self._gate_runs
            else np.zeros((0, 3), dtype=np.int64),
            temp_runs,
            net_temp,
            tuple(self._gate_types),
            _cat(self._code, np.int16),
            require_int64(_cat(self._out, self._dtype)),
            ptr,
            require_int64(_cat(self._pin, self._dtype)),
            np.array(self._inputs, dtype=np.int64),
            np.array(self._outputs, dtype=np.int64),
        )
        return netlist


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
                 recorder: Recorder = NULL_RECORDER) -> Netlist:
    """Lower a recorded top module straight to a
    :class:`~repro.verilog.netlist.Netlist` — the elaboration of its
    :meth:`~repro.circuits._vlog.ModuleWriter.emit` text, hierarchy and
    names included, up to net numbering.

    ``cells`` is the Verilog text of the modules the instances name,
    parsed once; each named cell compiles once into a
    :class:`ModuleTemplate`.  Ports and wires get net ids in
    declaration order, ``input`` / ``output`` ports become the primary
    I/O, the module's own gates come first (body order, one
    :meth:`StreamBuilder.gate_rows` call), then the instances in
    declaration order, bound by the cell's port names and named by
    their recorded names, each run of consecutive instances of one cell
    stamped as one block.  What only
    the text path expresses — a range select, an undeclared net, an
    unknown cell, an unconnected or unknown port, a width mismatch —
    raises :class:`~repro.errors.ElaborationError`.
    """
    source = parse_source(cells)
    b = StreamBuilder(module.name)
    nets = _Nets(module, b.num_nets)
    b.declare([bit for _, name, width in module.decls
               for bit in bus(name, width)])
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
        rows: dict[str, list[int]] = {}
        for inst in run:
            if inst.name in rows:
                nets.fail(f"duplicate instance name {inst.name!r}")
            rows[inst.name] = nets.row(inst, templates[cell])
        b.stamp(templates[cell], rows)
    return b.build(recorder=recorder)
