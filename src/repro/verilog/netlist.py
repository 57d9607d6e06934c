"""Elaborated netlist model.

Elaboration flattens a hierarchical Verilog design into bit-level nets
and primitive gates, but **retains the hierarchy** in two places:

* every gate records its *instance path* — the tuple of instance names
  from the top module down to the gate's enclosing module instance; and
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
(``gate_node`` / ``subtree_end``, below).
The elaborator hands those columns over directly; the hot consumers
(hypergraph build, compilation, clock detection) read them and never
touch a per-gate object.  ``gates``, ``net_driver`` and ``net_sinks``
are *views*: the same plain lists of :class:`Gate` records, ints and
sink lists as ever, materialised from the columns on first access for
the code that wants objects (writer, optimizer, diagnostics, tests).
:meth:`Netlist.add_net` / :meth:`Netlist.add_gate` remain the
small-scale incremental route: they grow the list views and
:meth:`Netlist.finalize` lowers them to the columns once.
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
    "Gate",
    "HierNode",
    "Netlist",
]


@dataclass(frozen=True)
class Gate:
    """A primitive gate or sequential cell in the elaborated netlist.

    Attributes
    ----------
    gid:
        Dense gate id.
    gtype:
        Primitive name (``"nand"``, ``"dff"``, ...).
    name:
        Full hierarchical name, e.g. ``"u_acs3.u_cmp.g7"``.
    path:
        Instance path (tuple of instance names, empty for top-level
        gates); ``name`` always starts with ``".".join(path)``.
    inputs:
        Input net ids in primitive pin order (for ``dff``: d, clk).
    output:
        Output net id.
    """

    gid: int
    gtype: str
    name: str
    path: tuple[str, ...]
    inputs: tuple[int, ...]
    output: int


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


def check_single_driver(
    gate_output: np.ndarray, gate_names: list[str], net_names: list[str]
) -> None:
    """Raise the single-driver / constant-driver error of the first
    offending gate in gate order — what wiring the gates one by one
    through :meth:`Netlist.add_gate` would have raised."""
    n = len(gate_output)
    gate_ids = np.arange(n, dtype=np.int64)
    # last writer per net; any gate that does not read itself back
    # shares its output with a later one
    driver = np.full(len(net_names), -1, dtype=np.int64)
    driver[gate_output] = gate_ids
    if not ((driver[gate_output] != gate_ids).any()
            or (gate_output < _NUM_CONST_NETS).any()):
        return
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


class Netlist:
    """Flat, bit-level elaborated netlist with hierarchy annotations.

    Constructed by :func:`repro.verilog.elaborate.elaborate`; circuit
    generators may also build one directly through
    :class:`repro.verilog.elaborate.NetlistBuilder`.
    """

    def __init__(self, top: str) -> None:
        self.top = top
        self.net_names: list[str] = ["const0", "const1", "constx"]
        #: full hierarchical name per gate
        self.gate_names: list[str] = []
        #: primary input net ids (bit-level), in port declaration order
        #: (``csr`` holds a snapshot of both lists, taken by finalize())
        self.inputs: list[int] = []
        #: primary output net ids (bit-level), in port declaration order
        self.outputs: list[int] = []
        self.hierarchy = HierNode(name=top, module=top, path=())
        #: the hierarchy index (arrives with the columns).  ``nodes`` is
        #: ``hierarchy.walk()`` — a preorder, so the subtree of node
        #: ``i`` is the contiguous range ``[i, subtree_end[i])`` — and
        #: ``gate_node[g]`` the index of the node gate ``g`` sits
        #: directly in: gate ``g`` is inside instance ``i`` iff
        #: ``i <= gate_node[g] < subtree_end[i]``
        self.nodes: list[HierNode] = [self.hierarchy]
        self.gate_node = np.zeros(0, dtype=np.int64)
        self.subtree_end = np.ones(1, dtype=np.int64)
        self._csr: NetlistCSR | None = None
        # the list views; None = not materialised from the columns yet
        self._gates: list[Gate] | None = []
        self._net_driver: list[int] | None = [-1, -1, -1]
        self._net_sinks: list[list[int]] | None = [[], [], []]

    # -- columns -----------------------------------------------------------

    @property
    def csr(self) -> NetlistCSR:
        """The structure as arrays (lowered on demand if the netlist was
        grown through :meth:`add_gate` and not finalized yet)."""
        if self._csr is None:
            self._lower()
        return self._csr

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
    ) -> None:
        """Take a whole circuit as columns — the elaborator's route, and
        where :meth:`finalize` ends up.

        ``inputs`` / ``outputs`` and the hierarchy tree must be in
        place.  Runs the structural checks, indexes the hierarchy
        (``nodes``, ``subtree_end``, subtree gate counts) and drops the
        list views, to be rebuilt from the columns if anyone asks.
        """
        inputs = np.array(self.inputs, dtype=np.int64)
        self.net_names = net_names
        self.gate_names = gate_names
        self._check_inputs_undriven(gate_output, inputs)
        self._csr = NetlistCSR(
            top=self.top,
            gate_types=gate_types,
            gate_code=gate_code,
            gate_output=gate_output,
            pin_ptr=pin_ptr,
            pin_net=pin_net,
            inputs=inputs,
            outputs=np.array(self.outputs, dtype=np.int64),
            num_nets=len(net_names),
        )
        self.gate_node = gate_node
        self._gates = self._net_driver = self._net_sinks = None

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
        np.cumsum(np.bincount(gate_node, minlength=len(nodes)), out=below[1:])
        totals = below[self.subtree_end] - below[start]
        for node, total in zip(nodes, totals.tolist()):
            node.total_gates = total

    def _lower(self) -> None:
        """Lower the list views to columns: one pass over the gates."""
        node_index = {
            node.path: i for i, node in enumerate(self.hierarchy.walk())
        }
        gates = self._gates
        n = len(gates)
        gate_node = np.empty(n, dtype=np.int64)
        code = np.empty(n, dtype=np.int16)
        out = np.empty(n, dtype=np.int64)
        ptr = np.zeros(n + 1, dtype=np.int64)
        pins: list[int] = []
        type_code: dict[str, int] = {}
        # gates of one instance share their path tuple and arrive
        # consecutively: look the node up once per distinct path object
        path = index = None
        for gid, gate in enumerate(gates):
            if gate.path is not path:
                path = gate.path
                index = node_index.get(path)
                if index is None:
                    raise NetlistError(
                        f"gate {gate.name!r} has path {path!r}, which "
                        f"names no hierarchy node"
                    )
            gate_node[gid] = index
            code[gid] = type_code.setdefault(gate.gtype, len(type_code))
            out[gid] = gate.output
            pins.extend(gate.inputs)
            ptr[gid + 1] = len(pins)
        self.adopt_columns(
            self.net_names, self.gate_names, gate_node, tuple(type_code),
            code, out, ptr, np.array(pins, dtype=np.int64),
        )

    # -- list views ----------------------------------------------------------

    @property
    def gates(self) -> list[Gate]:
        """Every gate as a :class:`Gate` record (materialised on first use)."""
        if self._gates is None:
            csr = self._csr
            types = csr.gate_types
            codes = csr.gate_code.tolist()
            outs = csr.gate_output.tolist()
            ptr = csr.pin_ptr.tolist()
            pins = csr.pin_net.tolist()
            paths = [node.path for node in self.nodes]
            nodes = self.gate_node.tolist()
            self._gates = [
                Gate(gid, types[codes[gid]], name, paths[nodes[gid]],
                     tuple(pins[ptr[gid]:ptr[gid + 1]]), outs[gid])
                for gid, name in enumerate(self.gate_names)
            ]
        return self._gates

    @property
    def net_driver(self) -> list[int]:
        """Driver gate id per net (-1 = undriven / primary input /
        constant), as a plain list (materialised on first use)."""
        if self._net_driver is None:
            self._net_driver = self._csr.net_driver.tolist()
        return self._net_driver

    @property
    def net_sinks(self) -> list[list[int]]:
        """Sink gate ids per net (materialised on first use)."""
        if self._net_sinks is None:
            fan_ptr, fan_gate = self._csr.fanout()
            flat = fan_gate.tolist()
            bounds = fan_ptr.tolist()
            self._net_sinks = [
                flat[lo:hi] for lo, hi in zip(bounds, bounds[1:])
            ]
        return self._net_sinks

    # -- incremental construction ------------------------------------------

    def add_net(self, name: str) -> int:
        """Register a new bit-level net; returns its dense id."""
        nid = len(self.net_names)
        self.net_driver.append(-1)
        self.net_sinks.append([])
        self.net_names.append(name)
        self._csr = None
        return nid

    def add_gate(
        self,
        gtype: str,
        name: str,
        path: tuple[str, ...],
        inputs: tuple[int, ...],
        output: int,
    ) -> int:
        """Register a gate, wiring driver/sink indices; returns gate id."""
        gates, net_driver, net_sinks = self.gates, self.net_driver, self.net_sinks
        num_nets = len(self.net_names)
        for nid in (*inputs, output):
            if not 0 <= nid < num_nets:
                raise NetlistError(f"gate {name!r} references bad net {nid}")
        gid = len(gates)
        if net_driver[output] != -1:
            raise NetlistError(
                f"net {self.net_names[output]!r} driven by both gate "
                f"{self.gate_names[net_driver[output]]!r} and {name!r}"
            )
        if output < _NUM_CONST_NETS:
            raise NetlistError(f"gate {name!r} drives a constant net")
        gates.append(Gate(gid, gtype, name, path, tuple(inputs), output))
        self.gate_names.append(name)
        net_driver[output] = gid
        for i in inputs:
            net_sinks[i].append(gid)
        self._csr = None
        return gid

    def finalize(self) -> None:
        """Bring the columns up to date with everything done through the
        lists — :meth:`add_net` / :meth:`add_gate`, ``inputs`` /
        ``outputs`` — and run the structural checks.  ``csr`` is a
        snapshot: call this again after changing any of them."""
        if self._gates is not None:
            self._lower()
        else:  # only inputs / outputs can have changed
            csr = self._csr
            self.adopt_columns(
                self.net_names, self.gate_names, self.gate_node,
                csr.gate_types, csr.gate_code, csr.gate_output,
                csr.pin_ptr, csr.pin_net,
            )

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

    def driver_of(self, nid: int) -> int:
        """Gate id driving net ``nid`` (-1 if input/constant/undriven)."""
        return self.net_driver[nid]

    def sinks_of(self, nid: int) -> list[int]:
        """Gate ids reading net ``nid``."""
        return self.net_sinks[nid]

    def sequential_gates(self) -> list[Gate]:
        """All state-holding cells (dff variants)."""
        from .primitives import is_sequential

        return [g for g in self.gates if is_sequential(g.gtype)]

    def validate(self) -> None:
        """Structural sanity checks; raises :class:`NetlistError`.

        Checks that every gate input net exists and that no primary
        input is also driven by a gate.
        """
        csr = self.csr
        self._check_inputs_undriven(csr.gate_output, csr.inputs)
        csr.validate()

    def _check_inputs_undriven(
        self, gate_output: np.ndarray, inputs: np.ndarray
    ) -> None:
        """The named form of :class:`NetlistCSR`'s driven-input test
        (which words it by net id): one array test, the message built
        on the error path only."""
        driven = np.isin(inputs, gate_output)
        if driven.any():
            nid = int(inputs[np.argmax(driven)])
            gid = int(np.argmax(gate_output == nid))
            raise NetlistError(
                f"primary input {self.net_names[nid]!r} is also driven by gate "
                f"{self.gate_names[gid]!r}"
            )

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
