"""Elaborated netlist model.

Elaboration flattens a hierarchical Verilog design into bit-level nets
and primitive gates, but **retains the hierarchy** in two places:

* every gate sits in one *instance* — the node of the instance tree
  whose module body declares it (``gate_node``, below); and
* a :class:`HierNode` tree mirrors the instance hierarchy, letting the
  design-driven partitioner treat any subtree as a *super-gate* and
  later flatten it one level at a time (paper §3.2).

Net ids and gate ids are dense integers.  Three distinguished constant
nets (``const0``, ``const1``, ``constx``) are always present at ids
0..2 so constant connections never need special-casing downstream.

A :class:`Netlist` is **names and hierarchy over one**
:class:`~repro.verilog.netlist_csr.NetlistCSR`: the structure — gate
types, pins, outputs, drivers, fanout — lives in ``netlist.csr`` as
arrays, and the netlist adds what arrays cannot carry: net names, gate
names, the :class:`HierNode` tree and the hierarchy index
(``gate_node`` / ``subtree_end``, below).  Every consumer reads the
columns; no per-gate object exists.  There is one way in:
:meth:`Netlist.adopt_columns`, which the elaborator, the optimizer and
:class:`~repro.verilog.elaborate.NetlistBuilder` all call once with a
whole circuit, and which runs the named structural rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from ..errors import NetlistError
from .netlist_csr import CONST0, CONST1, CONSTX, _NUM_CONST_NETS, NetlistCSR

__all__ = [
    "CONST0",
    "CONST1",
    "CONSTX",
    "HierNode",
    "Netlist",
]


@dataclass
class HierNode:
    """One node of the elaborated instance tree.

    The root represents the top module; each child represents one
    module instance.  ``total_gates`` counts the whole subtree and is
    the super-gate weight used by the partitioner.  Which gates sit
    where is not stored on the nodes: it is the netlist's
    ``gate_node`` array over the :meth:`walk` order.
    """

    name: str
    module: str
    path: tuple[str, ...]
    children: dict[str, "HierNode"] = field(default_factory=dict)
    total_gates: int = 0

    def walk(self) -> Iterator["HierNode"]:
        """Depth-first iterator over this subtree, self first."""
        yield self
        for child in self.children.values():
            yield from child.walk()

    def find(self, path: tuple[str, ...]) -> "HierNode":
        """Node at ``path`` relative to this node."""
        node = self
        for name in path:
            node = node.children[name]
        return node


def _check_drivers(
    gate_output: np.ndarray,
    inputs: np.ndarray,
    gate_names: list[str],
    net_names: list[str],
) -> None:
    """The structural rules, worded by name: every net has at most one
    driver, no gate drives a constant net, no gate drives a primary
    input.  Array tests; the message of the first offending gate in
    gate order is built on the error path only.  (:class:`NetlistCSR`
    checks the same rules again, worded by id, for streamed arrays.)"""
    n = len(gate_output)
    gate_ids = np.arange(n, dtype=np.int64)
    # last writer per net; any gate that does not read itself back
    # shares its output with a later one
    driver = np.full(len(net_names), -1, dtype=np.int64)
    driver[gate_output] = gate_ids
    if (driver[gate_output] != gate_ids).any() \
            or (gate_output < _NUM_CONST_NETS).any():
        order = np.argsort(gate_output, kind="stable")
        again = np.zeros(n, dtype=bool)  # gates whose net an earlier gate drives
        again[order[1:]] = gate_output[order[1:]] == gate_output[order[:-1]]
        gid = int(np.argmax(again | (gate_output < _NUM_CONST_NETS)))
        if again[gid]:
            nid = int(gate_output[gid])
            first = int(np.argmax(gate_output == nid))
            raise NetlistError(
                f"net {net_names[nid]!r} driven by both gate "
                f"{gate_names[first]!r} and {gate_names[gid]!r}"
            )
        raise NetlistError(f"gate {gate_names[gid]!r} drives a constant net")
    driven = driver[inputs] >= 0
    if driven.any():
        nid = int(inputs[np.argmax(driven)])
        raise NetlistError(
            f"primary input {net_names[nid]!r} is also driven by gate "
            f"{gate_names[driver[nid]]!r}"
        )


class Netlist:
    """Flat, bit-level elaborated netlist with hierarchy annotations.

    Constructed by :func:`repro.verilog.elaborate.elaborate`; circuit
    generators may also build one directly through
    :class:`repro.verilog.elaborate.NetlistBuilder`.  A fresh
    ``Netlist(top)`` is the empty circuit: the three constant nets and
    nothing else.
    """

    def __init__(self, top: str) -> None:
        self.top = top
        self.hierarchy = HierNode(name=top, module=top, path=())
        empty = np.zeros(0, dtype=np.int64)
        self.adopt_columns(
            ["const0", "const1", "constx"], [], empty, (),
            np.zeros(0, dtype=np.int16), empty, np.zeros(1, dtype=np.int64),
            empty, [], [],
        )

    def adopt_columns(
        self,
        net_names: list[str],
        gate_names: list[str],
        gate_node: np.ndarray,
        gate_types: tuple[str, ...],
        gate_code: np.ndarray,
        gate_output: np.ndarray,
        pin_ptr: np.ndarray,
        pin_net: np.ndarray,
        inputs: list[int] | np.ndarray,
        outputs: list[int] | np.ndarray,
    ) -> None:
        """Take a whole circuit as columns — the one way a netlist gets
        its structure.

        ``gate_node[g]`` is the index, in ``hierarchy.walk()`` order, of
        the instance gate ``g`` sits in; the hierarchy tree must be in
        place.  Runs the named structural rules, freezes the arrays into
        ``csr`` (whose own checks are worded by id) and indexes the
        hierarchy (``nodes``, ``subtree_end``, subtree gate counts).
        """
        gate_output = np.asarray(gate_output, dtype=np.int64)
        inputs = np.asarray(inputs, dtype=np.int64)
        outputs = np.asarray(outputs, dtype=np.int64)
        _check_drivers(gate_output, inputs, gate_names, net_names)
        self.net_names = net_names
        #: full hierarchical name per gate
        self.gate_names = gate_names
        #: primary input / output net ids (bit-level), in port
        #: declaration order — the lists ``csr.inputs`` / ``csr.outputs``
        #: hold as arrays
        self.inputs: list[int] = inputs.tolist()
        self.outputs: list[int] = outputs.tolist()
        #: the structure as arrays
        self.csr = NetlistCSR(
            top=self.top,
            gate_types=gate_types,
            gate_code=gate_code,
            gate_output=gate_output,
            pin_ptr=pin_ptr,
            pin_net=pin_net,
            inputs=inputs,
            outputs=outputs,
            num_nets=len(net_names),
        )
        #: the hierarchy index.  ``nodes`` is ``hierarchy.walk()`` — a
        #: preorder, so the subtree of node ``i`` is the contiguous range
        #: ``[i, subtree_end[i])`` — and ``gate_node[g]`` the index of
        #: the node gate ``g`` sits directly in: gate ``g`` is inside
        #: instance ``i`` iff ``i <= gate_node[g] < subtree_end[i]``
        self.gate_node = np.asarray(gate_node, dtype=np.int64)
        self.nodes = nodes = list(self.hierarchy.walk())
        size = [1] * len(nodes)
        for i in reversed(range(len(nodes))):  # children before their parent
            end = i + 1  # a node's children follow it, subtree by subtree
            for _ in nodes[i].children:
                end += size[end]
            size[i] = end - i
        start = np.arange(len(nodes), dtype=np.int64)
        self.subtree_end = start + np.array(size, dtype=np.int64)
        below = np.zeros(len(nodes) + 1, dtype=np.int64)  # gates in nodes < i
        np.cumsum(np.bincount(self.gate_node, minlength=len(nodes)),
                  out=below[1:])
        totals = below[self.subtree_end] - below[start]
        for node, total in zip(nodes, totals.tolist()):
            node.total_gates = total

    # -- queries -----------------------------------------------------------

    @property
    def num_nets(self) -> int:
        """Number of nets, including the three constants."""
        return len(self.net_names)

    @property
    def num_gates(self) -> int:
        """Number of primitive gates/cells."""
        return len(self.gate_names)

    def net_name(self, nid: int) -> str:
        """Full hierarchical name of net ``nid``."""
        return self.net_names[nid]

    def gate_name(self, gid: int) -> str:
        """Full hierarchical name of gate ``gid``."""
        return self.gate_names[gid]

    def undriven_nets(self) -> list[int]:
        """Net ids with no driver that are read by some gate and are not
        primary inputs or constants (these simulate as X forever)."""
        csr = self.csr
        floating = csr.net_driver < 0
        floating[:_NUM_CONST_NETS] = False
        floating[csr.inputs] = False
        floating &= np.bincount(csr.pin_net, minlength=csr.num_nets) > 0
        return np.flatnonzero(floating).tolist()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Netlist(top={self.top!r}, gates={self.num_gates}, "
            f"nets={self.num_nets}, inputs={len(self.inputs)}, "
            f"outputs={len(self.outputs)})"
        )
