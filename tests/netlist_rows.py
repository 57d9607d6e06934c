"""Plain-Python shapes of a netlist, rebuilt from its columns.

A :class:`~repro.verilog.netlist.Netlist` keeps its structure only as
arrays (``netlist``).  Tests that walk or compare gates one at a
time rebuild the rows they need here, from those arrays alone, so the
production code carries no second copy of the structure for them.
"""

from __future__ import annotations

import hashlib

from repro.verilog import is_sequential


def gate_rows(nl) -> list[tuple]:
    """``(gid, gtype, name, path, inputs, output)`` per gate, ``inputs``
    a tuple of net ids in pin order."""
    csr = nl
    ptr = csr.pin_ptr.tolist()
    pins = csr.pin_net.tolist()
    codes = csr.gate_code.tolist()
    outs = csr.gate_output.tolist()
    paths = [node.path for node in nl.nodes]
    nodes = nl.gate_node.tolist()
    return [
        (gid, csr.gate_types[codes[gid]], name, paths[nodes[gid]],
         tuple(pins[ptr[gid]:ptr[gid + 1]]), outs[gid])
        for gid, name in enumerate(nl.gate_names)
    ]


def flip_flops(nl) -> int:
    """How many gates are state-holding cells."""
    csr = nl
    return sum(is_sequential(csr.gate_types[c]) for c in csr.gate_code.tolist())


def net_sinks(csr) -> list[list[int]]:
    """Per net, the gates reading it (a gate once per pin reading it)."""
    fan_ptr, fan_gate = csr.fanout()
    flat = fan_gate.tolist()
    bounds = fan_ptr.tolist()
    return [flat[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def column_digest(nl) -> str:
    """sha256 over everything a netlist holds: names, per-gate type
    names, the pin / output columns, primary I/O and the hierarchy."""
    csr = nl
    doc = (
        nl.top,
        nl.net_names,
        nl.gate_names,
        [csr.gate_types[c] for c in csr.gate_code.tolist()],
        csr.gate_output.tolist(),
        csr.pin_ptr.tolist(),
        csr.pin_net.tolist(),
        nl.inputs.tolist(),
        nl.outputs.tolist(),
        nl.gate_node.tolist(),
        [(n.name, n.module, n.path, n.total_gates, list(n.children))
         for n in nl.nodes],
    )
    return hashlib.sha256(repr(doc).encode()).hexdigest()
