"""Streamed array-native circuit construction (template stamping).

The text path (generator → Verilog → parse → elaborate) allocates one
AST node per token and a name string per net and per gate — fine at
bench scale, prohibitive at the paper's ~1.2 M gates.  The streamed
path keeps the *generators'* structure but skips text and names
entirely:

1. each leaf/cell module is compiled **once** through the normal
   front end into a :class:`ModuleTemplate` — its gates as arrays with
   net references encoded relative to the module boundary (constant /
   port-bit / local);
2. a :class:`StreamBuilder` allocates global net-id blocks and
   *stamps* templates per instance: one vectorized offset-add per
   array, appended into bounded-size chunks
   (:class:`~repro.verilog.netlist_csr.ChunkedIntArray`);
3. the result freezes into a
   :class:`~repro.verilog.netlist_csr.NetlistCSR`.

Because a standalone elaboration of a cell module orders gates exactly
like the full-design elaboration does inside each instance (a module's
own gates in body order, then child instances depth-first in
declaration order), a streamed netlist lists gates in **the same order
as the parsed netlist** — gate ``i`` here is gate ``i`` there.  The
equivalence test (``tests/test_stream_circuits.py``) checks this
gate-for-gate on small configs; the invariants a streamed emitter must
uphold are spelled out in ``docs/performance.md``.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, ElaborationError
from ..obs.recorder import NULL_RECORDER, Recorder
from ..verilog import compile_verilog
from ..verilog.netlist import _NUM_CONST_NETS, Netlist
from ..verilog.netlist_csr import ChunkedIntArray, NetlistCSR
from ..hypergraph.dtypes import INT32_MAX, index_dtype, require_int64

__all__ = ["ModuleTemplate", "StreamBuilder"]


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
    Python work.
    """

    __slots__ = (
        "name", "gate_types", "gate_code", "pin_count", "pin_enc",
        "out_enc", "num_ports", "num_locals", "num_gates", "num_pins",
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

    @classmethod
    def from_netlist(cls, netlist: Netlist) -> "ModuleTemplate":
        """Encode a standalone-elaborated cell netlist.

        Ports are the netlist's primary inputs followed by primary
        outputs; stamp-site bindings must supply global net ids in that
        order.  Rejects cells whose elaboration merged two port bits or
        tied a port to a constant — such a cell cannot be stamped
        positionally (none of the repo's generators produce one).
        """
        ports = list(netlist.inputs) + list(netlist.outputs)
        if len(set(ports)) != len(ports):
            raise ElaborationError(
                f"cell {netlist.top!r}: two port bits share a net; "
                f"not stampable"
            )
        if any(p < _NUM_CONST_NETS for p in ports):
            raise ElaborationError(
                f"cell {netlist.top!r}: a port bit is a constant net; "
                f"not stampable"
            )
        csr = netlist.csr
        # constants keep their ids, port bits count down from -1, the
        # remaining nets are numbered from 3 in ascending net order
        local = np.ones(csr.num_nets, dtype=bool)
        local[:_NUM_CONST_NETS] = False
        local[ports] = False
        enc = np.arange(csr.num_nets, dtype=np.int64)
        enc[ports] = -1 - np.arange(len(ports))
        n_locals = int(local.sum())
        enc[local] = _NUM_CONST_NETS + np.arange(n_locals)
        return cls(
            name=netlist.top,
            gate_types=csr.gate_types,
            gate_code=csr.gate_code,
            pin_count=np.diff(csr.pin_ptr).astype(np.int16),
            pin_enc=enc[csr.pin_net],
            out_enc=enc[csr.gate_output],
            num_ports=len(ports),
            num_locals=n_locals,
        )

    @classmethod
    def from_verilog(cls, text: str, top: str | None = None) -> "ModuleTemplate":
        """Compile a cell's Verilog once and encode it for stamping."""
        return cls.from_netlist(compile_verilog(text, top=top))

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

    The emitter's responsibilities mirror the elaborator's order
    contract: emit the top module's own gates in body order first, then
    stamp instances in declaration order.  Net *allocation* order is
    free — only gate order and primary-I/O order are part of the
    equivalence contract.

    ``expected_pins`` picks the chunk element width via
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
        self._code.append(self._code_of(gtype))
        self._out.append(output)
        self._pin_count.append(len(inputs))
        for n in inputs:
            self._pin.append(n)

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
        n, arity = inputs.shape
        self._code.extend(np.full(n, self._code_of(gtype), dtype=np.int16))
        self._out.extend(outputs)
        self._pin_count.extend(np.full(n, arity, dtype=np.int16))
        self._pin.extend(inputs)

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
