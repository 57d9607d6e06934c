"""Compiled circuit: the netlist lowered to flat arrays for simulation.

Both the sequential reference simulator and the Time Warp logical
processes evaluate gates through this structure, so their results are
comparable by construction.  Compilation resolves gate types to the
simulator's dense codes and adopts the netlist's arrays.

Sequential cells keep their input pin roles: ``dff`` = (d, clk),
``dffr`` = (d, clk, rst), ``dffe`` = (d, clk, en).

There is one construction path, for parsed and streamed netlists
alike: the type table maps through one fancy index, the pin CSR and
the net-sorted fanout CSR are adopted as they are, and no per-gate
Python work happens.  The circuit holds arrays only; the one
derived structure, the step kernel's
:class:`~repro.sim.kernel.GateTable`, is built on first simulation.
"""

from __future__ import annotations

import numpy as np

from ..errors import SimulationError
from ..verilog.netlist import CONST0, CONST1, Netlist
from .kernel import GateTable
from .logic import SEQ_CODE_MIN, VX, gate_code_table

__all__ = ["CompiledCircuit", "compile_circuit"]


class CompiledCircuit:
    """Array-form circuit shared by all simulators.

    Attributes
    ----------
    gate_code:
        ``(num_gates,)`` int8 array of :data:`~repro.sim.logic.GATE_CODES`.
    gate_output:
        ``(num_gates,)`` output net id per gate.
    initial_values:
        ``(num_nets,)`` int8 initial value array: constants at their
        value, everything else X.
    pin_net / pin_offsets:
        Input pins: gate ``g`` reads nets
        ``pin_net[pin_offsets[g]:pin_offsets[g + 1]]`` in pin order.
    sink_gate / sink_offsets:
        Fanout: net ``n`` feeds gates
        ``sink_gate[sink_offsets[n]:sink_offsets[n + 1]]``.
    table:
        The step kernel's :class:`~repro.sim.kernel.GateTable` over
        global ids, built from the arrays above on first simulation
        (compiling alone never pays for it).
    """

    __slots__ = (
        "netlist",
        "gate_code",
        "gate_output",
        "initial_values",
        "num_gates",
        "num_nets",
        "inputs",
        "outputs",
        "pin_net",
        "pin_offsets",
        "sink_gate",
        "sink_offsets",
        "table",
    )

    def __init__(self, netlist: Netlist) -> None:
        self.netlist = netlist
        self.num_gates = netlist.num_gates
        self.num_nets = netlist.num_nets
        codes = gate_code_table(netlist.gate_types)[netlist.gate_code]
        if (codes < 0).any():
            gid = int(np.argmax(codes < 0))
            raise SimulationError(
                f"gate {netlist.gate_name(gid)!r} has unknown type "
                f"{netlist.gate_type(gid)!r}"
            )
        self.gate_code = codes
        self.gate_output = netlist.gate_output
        init = np.full(self.num_nets, VX, dtype=np.int8)
        init[CONST0] = 0
        init[CONST1] = 1
        self.initial_values = init
        self.inputs = tuple(netlist.inputs.tolist())
        self.outputs = tuple(netlist.outputs.tolist())
        self.pin_offsets = netlist.pin_ptr
        self.pin_net = netlist.pin_net
        # sinks per net in (gid, pin position) order, duplicates preserved
        self.sink_offsets, self.sink_gate = netlist.fanout()

    def __getattr__(self, name: str):
        # compilation leaves ``table`` unset (its __slots__ entry raises
        # AttributeError); the first simulation lands here and builds it
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
    ptr = circuit.pin_offsets.tolist()
    pins = circuit.pin_net.tolist()
    outs = circuit.gate_output.tolist()
    comb = np.flatnonzero(circuit.gate_code < SEQ_CODE_MIN).tolist()
    depth = [0] * circuit.num_nets
    order_changed = True
    rounds = 0
    max_rounds = circuit.num_gates + 2
    while order_changed and rounds < max_rounds:
        order_changed = False
        rounds += 1
        for gid in comb:
            d = 1 + max(
                (depth[p] for p in pins[ptr[gid]:ptr[gid + 1]]), default=0
            )
            out = outs[gid]
            if d > depth[out]:
                depth[out] = d
                order_changed = True
    return max(depth, default=0)
