"""Compiled circuit: the netlist lowered to flat arrays for simulation.

Both the sequential reference simulator and the Time Warp logical
processes evaluate gates through this structure, so their results are
comparable by construction.  Compilation resolves gate types to dense
codes, freezes pin lists as tuples, and precomputes per-net sink lists.

Sequential cells keep their input pin roles: ``dff`` = (d, clk),
``dffr`` = (d, clk, rst), ``dffe`` = (d, clk, en).

Two construction paths feed the same structure:

* the object-model :class:`~repro.verilog.netlist.Netlist` (parsed
  circuits) — a per-gate Python pass, every mirror built eagerly;
* the array-native :class:`~repro.verilog.netlist_csr.NetlistCSR`
  (streamed million-gate circuits) — pure vectorized array work; the
  Python-object mirrors (``gate_inputs`` / ``net_sinks`` tuples and the
  plain-int lists) materialize lazily on first access, so array-only
  consumers never pay the O(gates) tuple construction.
"""

from __future__ import annotations

from itertools import chain
from typing import Sequence

import numpy as np

from ..errors import SimulationError
from ..verilog.netlist import CONST0, CONST1, Netlist
from ..verilog.netlist_csr import NetlistCSR
from .kernel import GateTable, fanout_csr
from .logic import GATE_CODES, SEQ_CODE_MIN, VX, eval_gate_coded

__all__ = ["CompiledCircuit", "compile_circuit"]

#: Python-object mirrors of the array state, built together on first
#: access through :meth:`CompiledCircuit.__getattr__` when the source
#: was a :class:`NetlistCSR` (the object-model path sets them eagerly).
_LAZY_MIRRORS = frozenset(
    {"gate_inputs", "net_sinks", "gate_code_list", "gate_output_list"}
)


class CompiledCircuit:
    """Array-form circuit shared by all simulators.

    Attributes
    ----------
    gate_code:
        ``(num_gates,)`` int8 array of :data:`~repro.sim.logic.GATE_CODES`.
    gate_inputs:
        Tuple of input-net tuples per gate.
    gate_output:
        ``(num_gates,)`` output net id per gate.
    net_sinks:
        Tuple of sink-gate tuples per net.
    initial_values:
        ``(num_nets,)`` int8 initial value array: constants at their
        value, everything else X.
    pin_net / pin_offsets:
        CSR form of ``gate_inputs``: gate ``g`` reads nets
        ``pin_net[pin_offsets[g]:pin_offsets[g + 1]]`` in pin order.
    sink_gate / sink_offsets:
        CSR form of ``net_sinks``: net ``n`` feeds gates
        ``sink_gate[sink_offsets[n]:sink_offsets[n + 1]]``.
    table:
        The step kernel's :class:`~repro.sim.kernel.GateTable` over
        global ids, built from the arrays above on first simulation
        (compiling alone never pays for it).
    """

    __slots__ = (
        "netlist",
        "gate_code",
        "gate_inputs",
        "gate_output",
        "net_sinks",
        "initial_values",
        "num_gates",
        "num_nets",
        "inputs",
        "outputs",
        "pin_net",
        "pin_offsets",
        "sink_gate",
        "sink_offsets",
        "max_arity",
        "table",
        "gate_code_list",
        "gate_output_list",
    )

    def __init__(self, netlist: Netlist | NetlistCSR) -> None:
        self.netlist = netlist
        self.num_gates = netlist.num_gates
        self.num_nets = netlist.num_nets
        if isinstance(netlist, NetlistCSR):
            self._init_from_csr(netlist)
            return
        codes = np.zeros(self.num_gates, dtype=np.int8)
        for g in netlist.gates:
            code = GATE_CODES.get(g.gtype)
            if code is None:
                raise SimulationError(f"gate {g.name!r} has unknown type {g.gtype!r}")
            codes[g.gid] = code
        self.gate_code = codes
        self.gate_inputs = tuple(g.inputs for g in netlist.gates)
        self.gate_output = np.array(
            [g.output for g in netlist.gates], dtype=np.int64
        ) if self.num_gates else np.zeros(0, dtype=np.int64)
        self.net_sinks = tuple(tuple(s) for s in netlist.net_sinks)
        init = np.full(self.num_nets, VX, dtype=np.int8)
        init[CONST0] = 0
        init[CONST1] = 1
        self.initial_values = init
        self.inputs = tuple(netlist.inputs)
        self.outputs = tuple(netlist.outputs)

        self.pin_offsets, self.pin_net = _ragged_csr(self.gate_inputs)
        self.sink_offsets, self.sink_gate = _ragged_csr(self.net_sinks)
        self.max_arity = int(np.diff(self.pin_offsets).max(initial=0))
        # plain-int mirrors of the per-gate arrays: CPython reads a
        # list element an order of magnitude faster than a NumPy
        # scalar, and every simulator instance (and each cluster LP)
        # indexes these per gate — shared here so they are built once
        # per compiled circuit, not once per simulator construction
        self.gate_code_list: list[int] = self.gate_code.tolist()
        self.gate_output_list: list[int] = self.gate_output.tolist()

    def _init_from_csr(self, csr: NetlistCSR) -> None:
        """Vectorized compilation of an array-native netlist.

        No per-gate Python loop: the type table maps through one fancy
        index, the pin CSR is adopted as-is and the sink CSR falls out
        of one stable sort of the pins by net.  The tuple/list mirrors
        are *not* built here — see :meth:`__getattr__`.
        """
        table = np.empty(max(1, len(csr.gate_types)), dtype=np.int8)
        for i, name in enumerate(csr.gate_types):
            code = GATE_CODES.get(name)
            if code is None:
                raise SimulationError(
                    f"gate type {name!r} is unknown to the simulator"
                )
            table[i] = code
        self.gate_code = (
            table[csr.gate_code] if self.num_gates
            else np.zeros(0, dtype=np.int8)
        )
        self.gate_output = csr.gate_output
        init = np.full(self.num_nets, VX, dtype=np.int8)
        init[CONST0] = 0
        init[CONST1] = 1
        self.initial_values = init
        self.inputs = tuple(csr.inputs.tolist())
        self.outputs = tuple(csr.outputs.tolist())
        self.pin_offsets = csr.pin_ptr
        self.pin_net = csr.pin_net
        # sinks per net in (gid, pin position) order — exactly the
        # append order of Netlist.add_gate, duplicates preserved
        self.sink_offsets, self.sink_gate = fanout_csr(
            csr.pin_ptr, csr.pin_net, self.num_nets
        )
        self.max_arity = int(np.diff(csr.pin_ptr).max(initial=0))

    def __getattr__(self, name: str):
        # array-native compilation leaves the Python-object mirrors
        # unset (their __slots__ raise AttributeError); first scalar
        # access lands here and materializes all of them together
        if name in _LAZY_MIRRORS:
            self._build_scalar_mirrors()
            return getattr(self, name)
        if name == "table":
            self.table = GateTable(
                self.gate_code, self.pin_offsets, self.pin_net,
                self.gate_output, self.num_nets,
                self.sink_offsets, self.sink_gate,
            )
            return self.table
        raise AttributeError(
            f"{type(self).__name__!s} object has no attribute {name!r}"
        )

    def _build_scalar_mirrors(self) -> None:
        """Materialize the tuple/list mirrors from the CSR arrays."""
        ptr = self.pin_offsets.tolist()
        flat = self.pin_net.tolist()
        self.gate_inputs = tuple(
            tuple(flat[ptr[g]:ptr[g + 1]]) for g in range(self.num_gates)
        )
        sptr = self.sink_offsets.tolist()
        sflat = self.sink_gate.tolist()
        self.net_sinks = tuple(
            tuple(sflat[sptr[n]:sptr[n + 1]]) for n in range(self.num_nets)
        )
        self.gate_code_list = self.gate_code.tolist()
        self.gate_output_list = self.gate_output.tolist()

    def is_sequential_gate(self, gid: int) -> bool:
        """True if gate ``gid`` is a state-holding cell."""
        return int(self.gate_code[gid]) >= SEQ_CODE_MIN

    def eval_combinational(self, gid: int, values: np.ndarray) -> int:
        """Evaluate combinational gate ``gid`` against a value array."""
        pins = self.gate_inputs[gid]
        return eval_gate_coded(int(self.gate_code[gid]), [int(values[p]) for p in pins])


def _ragged_csr(rows: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """``(offsets, flat)`` int64 CSR form of ragged integer rows."""
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(
        np.fromiter(map(len, rows), dtype=np.int64, count=len(rows)),
        out=offsets[1:],
    )
    flat = np.fromiter(
        chain.from_iterable(rows), dtype=np.int64, count=int(offsets[-1])
    )
    return offsets, flat


def compile_circuit(netlist: Netlist) -> CompiledCircuit:
    """Lower an elaborated netlist for simulation."""
    return CompiledCircuit(netlist)


def combinational_depth(circuit: CompiledCircuit) -> int:
    """Longest combinational path in gate levels.

    Sources are primary inputs, constants and flip-flop outputs; paths
    stop at flip-flop inputs.  With the unit-delay model this is the
    settle time a clock period must exceed for registered values to be
    meaningful.  Combinational cycles (rare, e.g. latch-like structures)
    are broken by capping relaxation, and the cap is returned.
    """
    num_gates = circuit.num_gates
    depth = [0] * circuit.num_nets
    order_changed = True
    rounds = 0
    max_rounds = num_gates + 2
    while order_changed and rounds < max_rounds:
        order_changed = False
        rounds += 1
        for gid in range(num_gates):
            if circuit.is_sequential_gate(gid):
                continue
            d = 1 + max(
                (depth[p] for p in circuit.gate_inputs[gid]), default=0
            )
            out = int(circuit.gate_output[gid])
            if d > depth[out]:
                depth[out] = d
                order_changed = True
    return max(depth, default=0)
