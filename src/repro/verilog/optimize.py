"""Netlist optimization passes.

Synthesized netlists — and especially *generated* ones — carry slack:
gates with constant inputs, buffer chains, logic that no output ever
observes.  Three classic passes clean it up while provably preserving
observable behaviour (the test suite checks simulation equivalence on
random stimuli):

* **constant propagation** — a gate whose inputs are known folds to a
  constant (controlling values count: ``and(x, 0) = 0`` even with x
  unknown);
* **buffer collapse** — ``buf`` gates become net aliases;
* **dead-gate elimination** — gates from which no primary output is
  reachable are dropped (flip-flops are only state worth keeping if
  something observable reads them).

The optimizer returns a new :class:`Netlist`; the input is untouched.
Hierarchy annotations survive (surviving gates keep their paths).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from ..errors import NetlistError
from .netlist import (
    CONST0, CONST1, _NUM_CONST_NETS, Netlist, name_runs, run_locate,
)
from .primitives import is_sequential

__all__ = ["OptStats", "optimize_netlist"]


@dataclass
class OptStats:
    """What each pass removed."""

    const_folded: int = 0
    buffers_collapsed: int = 0
    dead_removed: int = 0
    gates_before: int = 0
    gates_after: int = 0

    def summary(self) -> str:
        return (
            f"{self.gates_before} -> {self.gates_after} gates "
            f"({self.const_folded} const-folded, "
            f"{self.buffers_collapsed} buffers collapsed, "
            f"{self.dead_removed} dead)"
        )


_CONTROLLING = {  # gate type -> (controlling input value, folded output)
    "and": (0, 0),
    "nand": (0, 1),
    "or": (1, 1),
    "nor": (1, 0),
}

_NEUTRAL_FOLD = {  # all-known fold handled generically below
    "and": lambda vals: int(all(vals)),
    "nand": lambda vals: 1 - int(all(vals)),
    "or": lambda vals: int(any(vals)),
    "nor": lambda vals: 1 - int(any(vals)),
    "xor": lambda vals: sum(vals) % 2,
    "xnor": lambda vals: 1 - sum(vals) % 2,
    "not": lambda vals: 1 - vals[0],
    "buf": lambda vals: vals[0],
}


def optimize_netlist(netlist: Netlist) -> tuple[Netlist, OptStats]:
    """Run all passes; returns (optimized netlist, statistics)."""
    stats = OptStats(gates_before=netlist.num_gates)
    gtypes = [netlist.gate_types[c] for c in netlist.gate_code.tolist()]
    ptr = netlist.pin_ptr.tolist()
    flat = netlist.pin_net.tolist()
    gate_inputs = [flat[lo:hi] for lo, hi in zip(ptr, ptr[1:])]
    gate_output = netlist.gate_output.tolist()
    primary_in = netlist.inputs.tolist()
    primary_out = netlist.outputs.tolist()

    # resolution state over the ORIGINAL net ids
    const: dict[int, int] = {CONST0: 0, CONST1: 1}
    alias: dict[int, int] = {}

    def resolve(nid: int) -> int:
        while nid in alias:
            nid = alias[nid]
        return nid

    def value_of(nid: int) -> int | None:
        return const.get(resolve(nid))

    # -- pass 1: constant propagation + buffer collapse (to fixpoint) ----
    changed = True
    folded: set[int] = set()  # gate ids replaced by constants/aliases
    while changed:
        changed = False
        for gid, gtype in enumerate(gtypes):
            if gid in folded or is_sequential(gtype):
                continue
            inputs = gate_inputs[gid]
            in_vals = [value_of(n) for n in inputs]
            out = resolve(gate_output[gid])
            if gtype == "buf":
                src = resolve(inputs[0])
                v = const.get(src)
                if v is not None:
                    const[out] = v
                    stats.const_folded += 1
                else:
                    alias[out] = src
                    stats.buffers_collapsed += 1
                folded.add(gid)
                changed = True
                continue
            if all(v is not None for v in in_vals):
                const[out] = _NEUTRAL_FOLD[gtype](in_vals)  # type: ignore[arg-type]
                folded.add(gid)
                stats.const_folded += 1
                changed = True
                continue
            ctrl = _CONTROLLING.get(gtype)
            if ctrl is not None and ctrl[0] in in_vals:
                const[out] = ctrl[1]
                folded.add(gid)
                stats.const_folded += 1
                changed = True

    # -- pass 2: dead-gate elimination (reverse reachability from POs) ---
    driver_of: dict[int, int] = {}
    for gid, out in enumerate(gate_output):
        if gid not in folded:
            driver_of[resolve(out)] = gid
    live: set[int] = set()
    frontier: deque[int] = deque()
    for po in primary_out:
        gid = driver_of.get(resolve(po))
        if gid is not None and gid not in live:
            live.add(gid)
            frontier.append(gid)
    while frontier:
        gid = frontier.popleft()
        for nid in gate_inputs[gid]:
            src = driver_of.get(resolve(nid))
            if src is not None and src not in live:
                live.add(src)
                frontier.append(src)

    # -- rebuild ------------------------------------------------------------
    keep = sorted(live)
    stats.dead_removed = netlist.num_gates - len(folded) - len(keep)
    stats.gates_after = len(keep)
    # per original net: its alias representative and constant value
    # (-1 = not constant)
    rep = np.array([resolve(n) for n in range(netlist.num_nets)], dtype=np.int64)
    value = np.array([const.get(r, -1) for r in rep.tolist()], dtype=np.int64)
    # surviving nets are numbered in first-use order: per kept gate its
    # inputs then its output, then the primary inputs, then the outputs
    used = [n for gid in keep for n in (*gate_inputs[gid], gate_output[gid])]
    used = np.array(used + primary_in + primary_out, dtype=np.int64)
    used = rep[used[value[used] < 0]]
    used = used[used >= _NUM_CONST_NETS]  # CONSTX stays itself
    _, first = np.unique(used, return_index=True)
    fresh = used[np.sort(first)]
    new_id = np.arange(netlist.num_nets, dtype=np.int64)  # constants: identity
    new_id[fresh] = _NUM_CONST_NETS + np.arange(len(fresh))
    remap = np.where(value == 0, CONST0,
                     np.where(value == 1, CONST1, new_id[rep]))

    new_inputs = remap[netlist.inputs]
    if (new_inputs < _NUM_CONST_NETS).any():
        nid = primary_in[int(np.argmax(new_inputs < _NUM_CONST_NETS))]
        raise NetlistError(
            f"primary input {netlist.net_name(nid)!r} folded to a constant"
        )

    out = Netlist(netlist.top)
    # hierarchy skeleton first so gate nodes keep their walk indices
    out.hierarchy = netlist.hierarchy.clone(())

    kept = np.zeros(netlist.num_gates, dtype=bool)
    kept[keep] = True
    type_code: dict[str, int] = {}  # first-appearance order
    codes = [type_code.setdefault(gtypes[gid], len(type_code)) for gid in keep]
    arity = np.diff(netlist.pin_ptr)[kept]
    pin_ptr = np.zeros(len(keep) + 1, dtype=np.int64)
    np.cumsum(arity, out=pin_ptr[1:])
    # surviving gates and nets keep their names: the same table, runs
    # re-cut over the kept gates, each new net the temp of its old one
    out.adopt_columns(
        netlist.name_table,
        name_runs(*run_locate(netlist.gate_runs, np.flatnonzero(kept))),
        netlist.temp_runs,
        np.concatenate((netlist.net_temp[:_NUM_CONST_NETS],
                        netlist.net_temp[fresh])),
        tuple(type_code),
        np.array(codes, dtype=np.int16),
        remap[netlist.gate_output[kept]],
        pin_ptr,
        remap[netlist.pin_net[np.repeat(kept, np.diff(netlist.pin_ptr))]],
        new_inputs,
        remap[netlist.outputs],
    )
    return out, stats
