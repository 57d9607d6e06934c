"""Brute-force unit-delay reference for the simulator tests.

The production simulators evaluate through the lookup tables of
:mod:`repro.sim.kernel`; this module is the independent per-gate
statement of the same semantics — an explicit flip-flop next-state
function and a dict-based event loop around ``eval_gate_coded`` — that
the exhaustive sweeps compare them against.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.sim.kernel import GateTable, fanout_csr
from repro.sim.logic import GATE_CODES, VX, eval_gate_coded

_DFF = GATE_CODES["dff"]
_DFFR = GATE_CODES["dffr"]
_DFFE = GATE_CODES["dffe"]


def dff_next(
    code: int,
    pins: tuple[int, ...],
    values,
    old: Mapping[int, int],
) -> int | None:
    """Next-state of a flip-flop given the changes applied at this
    instant; None means no output event.

    ``old`` carries pre-update values for nets that changed now; pins
    other than the clock are sampled from it (setup-time semantics).
    ``values`` is anything indexable by net id.
    """

    def before(net: int) -> int:
        return old.get(net, int(values[net]))

    clk = pins[1]
    if clk not in old:
        return None  # data moved but no clock activity: FF holds
    clk_before, clk_after = old[clk], int(values[clk])
    if clk_after == 0 or clk_before == 1:
        return None  # falling or non-edge
    known_edge = clk_before == 0 and clk_after == 1
    if code == _DFFR:
        rst = before(pins[2])
        if known_edge and rst == 1:
            return 0
        if rst == VX or not known_edge:
            return VX
        return before(pins[0])
    if code == _DFFE:
        en = before(pins[2])
        if en == 0:
            return None  # enable off: holds regardless of the edge
        if not known_edge or en == VX:
            return VX
        return before(pins[0])
    # plain dff
    if not known_edge:
        return VX
    return before(pins[0])


def reference_run(circuit, events):
    """Simulate ``events`` to quiescence one gate at a time.

    Returns ``(change_log, values, gate_evals)`` with the sequential
    simulator's conventions: stimuli of a timestep apply before the
    gate outputs scheduled for it, the later write to a net wins, and
    gates are visited in first-touch order of the changed nets' sinks.
    """
    values = circuit.initial_values.tolist()
    ptr, pin_net = circuit.pin_offsets.tolist(), circuit.pin_net.tolist()
    sptr, sink_gate = circuit.sink_offsets.tolist(), circuit.sink_gate.tolist()
    agenda: dict[int, dict[int, int]] = {}
    for ev in events:
        agenda.setdefault(ev.time, {})[ev.net] = ev.value
    change_log: list[tuple[int, int, int]] = []
    gate_evals = 0
    while agenda:
        t = min(agenda)
        old: dict[int, int] = {}
        affected: dict[int, None] = {}
        for net, value in agenda.pop(t).items():
            if values[net] != value:
                old[net] = values[net]
                values[net] = value
                change_log.append((t, net, value))
                affected.update(dict.fromkeys(sink_gate[sptr[net]:sptr[net + 1]]))
        for gid in affected:
            gate_evals += 1
            code = int(circuit.gate_code[gid])
            pins = pin_net[ptr[gid]:ptr[gid + 1]]
            if code < _DFF:
                new = eval_gate_coded(code, [values[p] for p in pins])
            else:
                new = dff_next(code, pins, values, old)
                if new is None:
                    continue
            agenda.setdefault(t + 1, {})[int(circuit.gate_output[gid])] = new
    return change_log, values, gate_evals


def private_net_table(rows):
    """A :class:`GateTable` with one gate per ``(code, arity)`` row, each
    over private input nets ``1..``; returns it with the flat input net
    ids (row-major).  Net 0 — what a zero-padded pin matrix would alias
    — and the output nets are read by no gate."""
    codes = np.array([c for c, _ in rows], dtype=np.int8)
    pin_ptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([arity for _, arity in rows], out=pin_ptr[1:])
    pin_net = 1 + np.arange(pin_ptr[-1], dtype=np.int64)
    out = 1 + pin_ptr[-1] + np.arange(len(rows), dtype=np.int64)
    num_nets = int(out[-1]) + 1
    table = GateTable(codes, pin_ptr, pin_net, out, num_nets,
                      *fanout_csr(pin_ptr, pin_net, num_nets))
    return table, pin_net
