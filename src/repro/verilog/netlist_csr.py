"""The elaborated circuit as arrays — the one structural store.

:class:`NetlistCSR` holds an elaborated circuit as five arrays (gate
type codes, gate output nets, a CSR input-pin list, primary I/O id
vectors) with **no per-gate Python objects at all**.  Both front ends
produce it: the streamed circuit generators
(:mod:`repro.circuits.stream`) emit it directly, and the Verilog
elaborator stamps module plans into the same arrays, which a
:class:`~repro.verilog.netlist.Netlist` then carries as ``netlist.csr``
beside its names and instance tree.  Every hot consumer — hypergraph
build, cone roots, clock detection, compilation — reads these columns;
a small-config equivalence test proves the two front ends describe the
same circuit gate-for-gate (``tests/test_stream_circuits.py``).

The object also owns the two derived indices every consumer wants:
the ``net_driver`` array (built by validation, which needs it for the
single-driver rule) and the net-sorted fanout CSR (:meth:`fanout`,
built on first use and shared by the hypergraph build and the
simulators).

Net and gate ids are dense integers, with the three constant nets
pinned at ids 0..2.  Construction-side arrays may arrive int32
(:func:`repro.hypergraph.dtypes.index_dtype`); the frozen object widens
them once so every downstream vectorized kernel sees the int64 it
expects.
"""

from __future__ import annotations

import numpy as np

from ..errors import NetlistError
from .primitives import gate_spec, is_gate_type

__all__ = ["CONST0", "CONST1", "CONSTX", "ChunkedIntArray", "NetlistCSR",
           "fanout_csr"]

CONST0 = 0
CONST1 = 1
CONSTX = 2
_NUM_CONST_NETS = 3


def fanout_csr(
    pin_ptr: np.ndarray, pin_net: np.ndarray, num_nets: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(fan_ptr, fan_gate)``: per net, the gates reading it in (gate,
    pin position) order, a gate once per pin that reads the net."""
    reading = np.repeat(
        np.arange(len(pin_ptr) - 1, dtype=np.int64), np.diff(pin_ptr)
    )
    fan_gate = reading[np.argsort(pin_net, kind="stable")]
    fan_ptr = np.zeros(num_nets + 1, dtype=np.int64)
    np.cumsum(np.bincount(pin_net, minlength=num_nets), out=fan_ptr[1:])
    return fan_ptr, fan_gate


class ChunkedIntArray:
    """Append-only int accumulator with bounded-size chunks.

    The streamed builders accumulate pin and gate arrays whose final
    length is unknown up front.  Growing one ``np.ndarray`` by
    repeated ``concatenate`` is O(n^2); collecting Python lists costs
    ~28 bytes per int.  This accumulator appends into preallocated
    fixed-size chunks (``chunk`` elements each) and concatenates
    exactly once at :meth:`freeze` — peak transient memory is the
    result plus one chunk, and every element is stored at ``dtype``
    width throughout.
    """

    def __init__(self, dtype: np.dtype, chunk: int = 1 << 18) -> None:
        if chunk < 1:
            raise ValueError(f"chunk size must be >= 1, got {chunk}")
        self.dtype = np.dtype(dtype)
        self.chunk = int(chunk)
        self._full: list[np.ndarray] = []
        self._head = np.empty(self.chunk, dtype=self.dtype)
        self._fill = 0
        self._len = 0

    def __len__(self) -> int:
        return self._len

    def extend(self, values: np.ndarray) -> None:
        """Append a 1-D array (copied into the chunks at ``dtype``)."""
        values = np.ascontiguousarray(values).reshape(-1)
        pos = 0
        remaining = len(values)
        while remaining:
            space = self.chunk - self._fill
            take = remaining if remaining < space else space
            self._head[self._fill:self._fill + take] = \
                values[pos:pos + take]
            self._fill += take
            pos += take
            remaining -= take
            if self._fill == self.chunk:
                self._full.append(self._head)
                self._head = np.empty(self.chunk, dtype=self.dtype)
                self._fill = 0
        self._len += len(values)

    def freeze(self) -> np.ndarray:
        """Concatenate the chunks into one array (single use)."""
        parts = self._full + [self._head[:self._fill]]
        out = np.concatenate(parts) if len(parts) > 1 \
            else parts[0].copy()
        self._full = []
        self._head = np.empty(0, dtype=self.dtype)
        self._fill = 0
        return out


class NetlistCSR:
    """Flat array form of an elaborated netlist.

    Attributes
    ----------
    top:
        Top module name (diagnostic only).
    gate_types:
        Tuple of primitive names; ``gate_code[g]`` indexes it.
    gate_code:
        ``(num_gates,)`` small-int array of type codes.
    gate_output:
        ``(num_gates,)`` int64 output net id per gate.
    pin_ptr / pin_net:
        CSR input-pin list: gate ``g`` reads nets
        ``pin_net[pin_ptr[g]:pin_ptr[g + 1]]`` in primitive pin order
        (``dff``: d, clk — the same convention as :class:`Netlist`).
    inputs / outputs:
        Primary I/O net ids in port declaration order (int64).
    num_nets:
        Total net count including the three constants.
    net_driver:
        ``(num_nets,)`` int64 driver gate id per net, -1 for an
        undriven net (primary input, constant, dangling).
    """

    __slots__ = (
        "top", "gate_types", "gate_code", "gate_output",
        "pin_ptr", "pin_net", "inputs", "outputs", "num_nets",
        "net_driver", "_fanout",
    )

    def __init__(
        self,
        top: str,
        gate_types: tuple[str, ...],
        gate_code: np.ndarray,
        gate_output: np.ndarray,
        pin_ptr: np.ndarray,
        pin_net: np.ndarray,
        inputs: np.ndarray,
        outputs: np.ndarray,
        num_nets: int,
    ) -> None:
        self.top = top
        self.gate_types = tuple(gate_types)
        self.gate_code = np.ascontiguousarray(gate_code)
        self.gate_output = np.ascontiguousarray(gate_output, dtype=np.int64)
        self.pin_ptr = np.ascontiguousarray(pin_ptr, dtype=np.int64)
        self.pin_net = np.ascontiguousarray(pin_net, dtype=np.int64)
        self.inputs = np.ascontiguousarray(inputs, dtype=np.int64)
        self.outputs = np.ascontiguousarray(outputs, dtype=np.int64)
        self.num_nets = int(num_nets)
        self._fanout: tuple[np.ndarray, np.ndarray] | None = None
        self.validate()

    # -- queries ---------------------------------------------------------

    @property
    def num_gates(self) -> int:
        """Number of primitive gates/cells."""
        return len(self.gate_code)

    @property
    def num_pins(self) -> int:
        """Total gate input-pin count."""
        return len(self.pin_net)

    def gate_type(self, gid: int) -> str:
        """Primitive name of gate ``gid``."""
        return self.gate_types[int(self.gate_code[gid])]

    def gate_inputs(self, gid: int) -> np.ndarray:
        """Input net ids of gate ``gid`` in pin order (view)."""
        return self.pin_net[self.pin_ptr[gid]:self.pin_ptr[gid + 1]]

    def gate_name(self, gid: int) -> str:
        """Synthetic stable gate name (the arrays carry no name strings;
        a :class:`Netlist` keeps the real ones beside its ``csr``)."""
        return f"g{gid}"

    def net_name(self, nid: int) -> str:
        """Synthetic stable net name, the peer of :meth:`gate_name`."""
        return f"n{nid}"

    def fanout(self) -> tuple[np.ndarray, np.ndarray]:
        """``(fan_ptr, fan_gate)``: the net-sorted sink CSR (cached).

        Net ``n`` feeds gates ``fan_gate[fan_ptr[n]:fan_ptr[n + 1]]``,
        in (gate, pin position) order, a gate once per pin reading the
        net.
        """
        if self._fanout is None:
            self._fanout = fanout_csr(self.pin_ptr, self.pin_net, self.num_nets)
        return self._fanout

    def validate(self) -> None:
        """Structural sanity checks; raises :class:`NetlistError`.

        Worded by id, for arrays that arrive without names (the
        streamed generators); a :class:`Netlist` runs the same driver
        rules worded by name before it builds its ``csr``.  The
        single-driver rule is one scatter of gate ids into
        ``net_driver`` that every gate must read back.  Every gate's
        type and input count must be one the primitive table
        (:func:`~repro.verilog.primitives.gate_spec`) accepts — the
        same rule the parser enforces on text.
        """
        n_gates = self.num_gates
        if len(self.gate_output) != n_gates:
            raise NetlistError("gate_output length mismatch")
        if len(self.pin_ptr) != n_gates + 1:
            raise NetlistError("pin_ptr length mismatch")
        if len(self.pin_net) != (int(self.pin_ptr[-1]) if n_gates else 0):
            raise NetlistError("pin_net length does not match pin_ptr")
        if n_gates and (np.diff(self.pin_ptr) < 0).any():
            raise NetlistError("pin_ptr is not monotone")
        if n_gates:
            if int(self.gate_code.min()) < 0 or \
                    int(self.gate_code.max()) >= len(self.gate_types):
                raise NetlistError("gate_code outside the gate_types table")
            self._check_primitives()
            if int(self.gate_output.min()) < _NUM_CONST_NETS:
                bad = int(np.argmax(self.gate_output < _NUM_CONST_NETS))
                raise NetlistError(f"gate {bad} drives a constant net")
            if int(self.gate_output.max()) >= self.num_nets:
                raise NetlistError("gate output net id out of range")
        gate_ids = np.arange(n_gates, dtype=np.int64)
        self.net_driver = np.full(self.num_nets, -1, dtype=np.int64)
        self.net_driver[self.gate_output] = gate_ids
        if (self.net_driver[self.gate_output] != gate_ids).any():
            raise NetlistError("two gates drive the same net")
        if len(self.pin_net) and (
            int(self.pin_net.min()) < 0
            or int(self.pin_net.max()) >= self.num_nets
        ):
            raise NetlistError("gate input net id out of range")
        for label, ids in (("input", self.inputs), ("output", self.outputs)):
            if len(ids) and (
                int(ids.min()) < 0 or int(ids.max()) >= self.num_nets
            ):
                raise NetlistError(f"primary {label} net id out of range")
        driven = self.net_driver[self.inputs] >= 0
        if driven.any():
            bad = int(self.inputs[np.argmax(driven)])
            raise NetlistError(
                f"primary input net {bad} is also driven by a gate"
            )
        if (self.inputs < _NUM_CONST_NETS).any():
            raise NetlistError("a primary input is a constant net")

    def _check_primitives(self) -> None:
        """Type and input count of every gate against the primitive
        table, one masked pass per type code."""
        arity = np.diff(self.pin_ptr)
        for code, gtype in enumerate(self.gate_types):
            mine = self.gate_code == code
            counts = arity[mine]
            if not len(counts):
                continue
            if not is_gate_type(gtype):
                gid = int(np.argmax(mine))
                raise NetlistError(f"gate {gid} has unknown type {gtype!r}")
            spec = gate_spec(gtype)
            least, most = spec.min_inputs, spec.max_inputs
            if counts.min() < least or (
                    most is not None and counts.max() > most):
                bad = counts < least
                if most is not None:
                    bad |= counts > most
                gid = int(np.flatnonzero(mine)[np.argmax(bad)])
                raise NetlistError(
                    f"gate {gid} ({gtype}) has {int(arity[gid])} inputs; "
                    f"{gtype} takes {least} to "
                    f"{'any' if most is None else most}"
                )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"NetlistCSR(top={self.top!r}, gates={self.num_gates}, "
            f"nets={self.num_nets}, pins={self.num_pins}, "
            f"inputs={len(self.inputs)}, outputs={len(self.outputs)})"
        )
