"""Elaborated netlist model: the columns, the hierarchy and the names.

A :class:`Netlist` holds a flattened, bit-level design as arrays — gate
type codes, gate output nets, a CSR input-pin list, primary I/O ids —
with no per-gate Python object, and **retains the hierarchy**: a
:class:`HierNode` tree mirrors the instances, so the design-driven
partitioner can treat any subtree as a *super-gate* and flatten it one
level at a time (paper §3.2), and ``gate_node`` places every gate in the
instance whose module body declares it.  The Verilog elaborator
(:mod:`repro.verilog.elaborate`) and the streamed generators
(:mod:`repro.circuits.stream`) both produce this one class.

**Names are the hierarchy** (``docs/verilog.md``): no string is stored
per gate or per net.  A name is a node's dotted prefix (``prefixes``)
plus a local name from ``name_table``, where each module definition's
local names are stored once.  An id space is named in *runs*, rows
``(first id, node, first table index)``: id ``i`` of the run starting
at ``s`` is ``prefixes[node] + name_table[index + i - s]``.
``gate_runs`` names the gates (one run per instance, which also gives
``gate_node``); a net takes the name of its representative elaboration
temp, ``net_temp[n]``, and ``temp_runs`` names the temps.

Net and gate ids are dense integers; the constant nets ``const0``,
``const1``, ``constx`` are always ids 0..2.  :meth:`Netlist.adopt_columns`
is the one way in, and runs the structural rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from ..errors import NetlistError
from .primitives import gate_spec, is_gate_type

__all__ = [
    "CONST0",
    "CONST1",
    "CONSTX",
    "HierNode",
    "Netlist",
    "fanout_csr",
]

CONST0 = 0
CONST1 = 1
CONSTX = 2
_NUM_CONST_NETS = 3
#: the constant nets' names: the first entries of every name table
CONST_NAMES = ("const0", "const1", "constx")


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

    def clone(self, path: tuple[str, ...]) -> "HierNode":
        """A copy of this subtree placed at ``path`` (the root keeps its
        name); ``adopt_columns`` recounts ``total_gates``."""
        return HierNode(path[-1] if path else self.name, self.module, path, {
            name: child.clone(path + (name,))
            for name, child in self.children.items()})

    def find(self, path: tuple[str, ...]) -> "HierNode":
        """Node at ``path`` relative to this node."""
        node = self
        for name in path:
            node = node.children[name]
        return node


# -- names in runs -------------------------------------------------------------


def run_locate(runs: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(node, table index)`` of every id of a run-named id space."""
    ids = np.asarray(ids, dtype=np.int64)
    r = np.searchsorted(runs[:, 0], ids, side="right") - 1
    return runs[r, 1], runs[r, 2] + (ids - runs[r, 0])


def run_names(runs: np.ndarray, ids: np.ndarray, prefixes: list[str],
              table: list[str]) -> list[str]:
    """The full name of every id (a string each)."""
    node, index = run_locate(runs, ids)
    return [prefixes[n] + table[i]
            for n, i in zip(node.tolist(), index.tolist())]


def name_runs(node: np.ndarray, index: np.ndarray) -> np.ndarray:
    """The runs naming items ``0 .. n-1`` by ``(node[i], index[i])``: a
    run breaks where the node changes or the index does not step by 1."""
    node = np.asarray(node, dtype=np.int64)
    index = np.asarray(index, dtype=np.int64)
    brk = np.ones(len(node), dtype=bool)
    brk[1:] = (node[1:] != node[:-1]) | (index[1:] != index[:-1] + 1)
    start = np.flatnonzero(brk)
    return np.column_stack((start, node[start], index[start]))


def pick_names(
    num_nets: int,
    cand_net: np.ndarray,
    cand_temp: np.ndarray,
    cand_len: np.ndarray,
    names_of: Callable[[np.ndarray], list[str]],
) -> tuple[np.ndarray, int]:
    """Per net, the candidate temp that names it: the shortest name,
    then the lexically smallest, then the smallest temp.  ``cand_*`` are
    (net, temp, name length) rows; only nets whose shortest length ties
    build strings (``names_of(temps)``).  Also returns how many did."""
    # (at the lengths' own width: ufunc.at is slow when it casts)
    shortest = np.full(num_nets, np.iinfo(cand_len.dtype).max,
                       dtype=cand_len.dtype)
    np.minimum.at(shortest, cand_net, cand_len)
    keep = cand_len == shortest[cand_net]
    net, temp = cand_net[keep], cand_temp[keep]
    best = np.full(num_nets, np.iinfo(np.int64).max)
    np.minimum.at(best, net, temp)
    tied = np.bincount(net, minlength=num_nets)[net] > 1
    pick: dict[int, tuple[str, int]] = {}
    for n, t, name in zip(net[tied].tolist(), temp[tied].tolist(),
                          names_of(temp[tied])):
        if n not in pick or (name, t) < pick[n]:
            pick[n] = (name, t)
    if pick:
        best[list(pick)] = [t for _, t in pick.values()]
    return best, len(pick)


class Netlist:
    """Flat, bit-level elaborated netlist: columns, hierarchy, names.

    A fresh ``Netlist(top)`` is the empty circuit: the three constant
    nets and nothing else.  Columns: ``gate_types`` (indexed by the
    int16 ``gate_code``), ``gate_output``, the input-pin CSR ``pin_ptr``
    / ``pin_net`` (gate ``g`` reads ``pin_net[pin_ptr[g]:pin_ptr[g + 1]]``
    in primitive pin order, ``dff``: d, clk), ``inputs`` / ``outputs`` in
    port declaration order, and ``net_driver`` (-1: undriven).  The
    hierarchy index: ``nodes`` is ``hierarchy.walk()``, a preorder, so
    gate ``g`` is inside instance ``i`` iff ``i <= gate_node[g] <
    subtree_end[i]``.
    """

    def __init__(self, top: str) -> None:
        self.top = top
        self.hierarchy = HierNode(name=top, module=top, path=())
        empty = np.zeros(0, dtype=np.int64)
        self.adopt_columns(
            list(CONST_NAMES), np.zeros((0, 3), dtype=np.int64),
            np.zeros((1, 3), dtype=np.int64), np.arange(_NUM_CONST_NETS),
            (), np.zeros(0, dtype=np.int16), empty,
            np.zeros(1, dtype=np.int64), empty, empty, empty,
        )

    def adopt_columns(
        self,
        # the names: table, gate runs, temp runs, temp per net
        name_table: list[str], gate_runs: np.ndarray, temp_runs: np.ndarray,
        net_temp: np.ndarray,
        # the structure
        gate_types: tuple[str, ...], gate_code: np.ndarray,
        gate_output: np.ndarray, pin_ptr: np.ndarray, pin_net: np.ndarray,
        inputs: np.ndarray, outputs: np.ndarray,
    ) -> None:
        """Take a whole circuit as columns — the one way a netlist gets
        its structure.

        The hierarchy tree must be in place: the run rows' nodes index
        ``hierarchy.walk()``.  ``net_temp`` has one entry per net, so
        it also fixes the net count.  Runs the structural rules
        (:meth:`validate`) and indexes the hierarchy (``nodes``,
        ``gate_node``, ``subtree_end``, subtree gate counts).
        """
        self.gate_types = tuple(gate_types)
        self.gate_code = np.ascontiguousarray(gate_code)
        self.gate_output = np.ascontiguousarray(gate_output, dtype=np.int64)
        self.pin_ptr = np.ascontiguousarray(pin_ptr, dtype=np.int64)
        self.pin_net = np.ascontiguousarray(pin_net, dtype=np.int64)
        self.inputs = np.ascontiguousarray(inputs, dtype=np.int64)
        self.outputs = np.ascontiguousarray(outputs, dtype=np.int64)
        self.name_table = name_table
        self.gate_runs = np.asarray(gate_runs, dtype=np.int64).reshape(-1, 3)
        self.temp_runs = np.asarray(temp_runs, dtype=np.int64).reshape(-1, 3)
        self.net_temp = np.ascontiguousarray(net_temp)  # any int width
        self._fanout: tuple[np.ndarray, np.ndarray] | None = None
        self._gate_node: np.ndarray | None = None
        self.nodes = nodes = list(self.hierarchy.walk())
        self.prefixes = [".".join(n.path) + "." if n.path else "" for n in nodes]
        self.validate()

        size = [1] * len(nodes)
        for i in reversed(range(len(nodes))):  # children before their parent
            end = i + 1  # a node's children follow it, subtree by subtree
            for _ in nodes[i].children:
                end += size[end]
            size[i] = end - i
        start = np.arange(len(nodes), dtype=np.int64)
        self.subtree_end = start + np.array(size, dtype=np.int64)
        below = np.zeros(len(nodes) + 1, dtype=np.int64)  # gates in nodes < i
        np.cumsum(np.bincount(self.gate_runs[:, 1], self._run_lengths(),
                              len(nodes)).astype(np.int64), out=below[1:])
        totals = below[self.subtree_end] - below[start]
        for node, total in zip(nodes, totals.tolist()):
            node.total_gates = total

    def _run_lengths(self) -> np.ndarray:
        return np.diff(np.append(self.gate_runs[:, 0], self.num_gates))

    @property
    def gate_node(self) -> np.ndarray:
        """Per gate, its node's index in ``nodes`` (built on first use:
        the flat paths never need it)."""
        if self._gate_node is None:
            self._gate_node = np.repeat(self.gate_runs[:, 1], self._run_lengths())
        return self._gate_node

    # -- queries -----------------------------------------------------------

    @property
    def num_nets(self) -> int:
        """Number of nets, including the three constants."""
        return len(self.net_temp)

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

    def net_name(self, nid: int) -> str:
        """Full hierarchical name of net ``nid``."""
        return run_names(self.temp_runs, self.net_temp[[nid]],
                         self.prefixes, self.name_table)[0]

    def gate_name(self, gid: int) -> str:
        """Full hierarchical name of gate ``gid``."""
        return run_names(self.gate_runs, [gid], self.prefixes,
                         self.name_table)[0]

    @property
    def net_names(self) -> list[str]:
        """Every net's full name, in net order — built on each access."""
        return run_names(self.temp_runs, self.net_temp, self.prefixes,
                         self.name_table)

    @property
    def gate_names(self) -> list[str]:
        """Every gate's full name, in gate order — built on each access."""
        return run_names(self.gate_runs, np.arange(self.num_gates),
                         self.prefixes, self.name_table)

    def fanout(self) -> tuple[np.ndarray, np.ndarray]:
        """``(fan_ptr, fan_gate)``: the net-sorted sink CSR (cached).

        Net ``n`` feeds gates ``fan_gate[fan_ptr[n]:fan_ptr[n + 1]]``,
        in (gate, pin position) order, a gate once per pin reading the
        net.
        """
        if self._fanout is None:
            self._fanout = fanout_csr(self.pin_ptr, self.pin_net, self.num_nets)
        return self._fanout

    def undriven_nets(self) -> list[int]:
        """Net ids with no driver that are read by some gate and are not
        primary inputs or constants (these simulate as X forever)."""
        floating = self.net_driver < 0
        floating[:_NUM_CONST_NETS] = False
        floating[self.inputs] = False
        floating &= np.bincount(self.pin_net, minlength=self.num_nets) > 0
        return np.flatnonzero(floating).tolist()

    # -- structural rules ---------------------------------------------------

    def validate(self) -> None:
        """Structural checks, raising :class:`NetlistError`: shapes and
        id ranges, the primitive table (:func:`~repro.verilog.primitives
        .gate_spec`, the parser's rule), then the driver rules by name."""
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
            if int(self.gate_output.min()) < 0 or \
                    int(self.gate_output.max()) >= self.num_nets:
                raise NetlistError("gate output net id out of range")
        for label, ids in (("gate input", self.pin_net),
                           ("primary input", self.inputs),
                           ("primary output", self.outputs)):
            if len(ids) and (
                int(ids.min()) < 0 or int(ids.max()) >= self.num_nets
            ):
                raise NetlistError(f"{label} net id out of range")
        self._check_drivers()
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

    def _check_drivers(self) -> None:
        """At most one driver per net, none on a constant or a primary
        input; sets ``net_driver``.  Messages are built on error only."""
        gate_output = self.gate_output
        n = len(gate_output)
        gate_ids = np.arange(n, dtype=np.int64)
        # last writer per net; any gate that does not read itself back
        # shares its output with a later one
        driver = np.full(self.num_nets, -1, dtype=np.int64)
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
                    f"net {self.net_name(nid)!r} driven by both gate "
                    f"{self.gate_name(first)!r} and {self.gate_name(gid)!r}"
                )
            raise NetlistError(
                f"gate {self.gate_name(gid)!r} drives a constant net")
        driven = driver[self.inputs] >= 0
        if driven.any():
            nid = int(self.inputs[np.argmax(driven)])
            raise NetlistError(
                f"primary input {self.net_name(nid)!r} is also driven by gate "
                f"{self.gate_name(int(driver[nid]))!r}"
            )
        self.net_driver = driver

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Netlist(top={self.top!r}, gates={self.num_gates}, "
            f"nets={self.num_nets}, pins={self.num_pins}, "
            f"inputs={len(self.inputs)}, outputs={len(self.outputs)})"
        )
