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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from ..errors import NetlistError

__all__ = [
    "CONST0",
    "CONST1",
    "CONSTX",
    "Gate",
    "HierNode",
    "Netlist",
]

CONST0 = 0
CONST1 = 1
CONSTX = 2
_NUM_CONST_NETS = 3


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
    module instance.  ``gate_ids`` holds only the gates *directly*
    inside this node (not in sub-instances); ``total_gates`` counts the
    whole subtree and is the super-gate weight used by the partitioner.
    """

    name: str
    module: str
    path: tuple[str, ...]
    children: dict[str, "HierNode"] = field(default_factory=dict)
    gate_ids: list[int] = field(default_factory=list)
    total_gates: int = 0

    def subtree_gates(self) -> list[int]:
        """All gate ids in this subtree (own + descendants)."""
        out = list(self.gate_ids)
        for child in self.children.values():
            out.extend(child.subtree_gates())
        return out

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


class Netlist:
    """Flat, bit-level elaborated netlist with hierarchy annotations.

    Constructed by :func:`repro.verilog.elaborate.elaborate`; circuit
    generators may also build one directly through
    :class:`repro.verilog.elaborate.NetlistBuilder`.
    """

    def __init__(self, top: str) -> None:
        self.top = top
        self.net_names: list[str] = ["const0", "const1", "constx"]
        self.gates: list[Gate] = []
        #: primary input net ids (bit-level), in port declaration order
        self.inputs: list[int] = []
        #: primary output net ids (bit-level), in port declaration order
        self.outputs: list[int] = []
        #: driver gate id per net (-1 = undriven / primary input / constant)
        self.net_driver: list[int] = [-1, -1, -1]
        #: sink gate ids per net
        self.net_sinks: list[list[int]] = [[], [], []]
        self.hierarchy = HierNode(name=top, module=top, path=())

    # -- construction (used by the elaborator) ---------------------------

    def add_net(self, name: str) -> int:
        """Register a new bit-level net; returns its dense id."""
        nid = len(self.net_names)
        self.net_names.append(name)
        self.net_driver.append(-1)
        self.net_sinks.append([])
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
        gid = len(self.gates)
        if self.net_driver[output] != -1:
            raise NetlistError(
                f"net {self.net_names[output]!r} driven by both gate "
                f"{self.gates[self.net_driver[output]].name!r} and {name!r}"
            )
        if output < _NUM_CONST_NETS:
            raise NetlistError(f"gate {name!r} drives a constant net")
        gate = Gate(gid, gtype, name, path, tuple(inputs), output)
        self.gates.append(gate)
        self.net_driver[output] = gid
        for i in inputs:
            self.net_sinks[i].append(gid)
        return gid

    def finalize(self) -> None:
        """Compute subtree gate counts and run structural checks."""
        for node in self.hierarchy.walk():
            node.gate_ids.clear()
        # gates of one instance share their path tuple and arrive
        # consecutively: walk the tree once per distinct path object
        path = gate_ids = None
        for gate in self.gates:
            if gate.path is not path:
                path = gate.path
                gate_ids = self.hierarchy.find(path).gate_ids
            gate_ids.append(gate.gid)

        def _count(node: HierNode) -> int:
            node.total_gates = len(node.gate_ids) + sum(
                _count(c) for c in node.children.values()
            )
            return node.total_gates

        _count(self.hierarchy)
        self.validate()

    # -- queries -----------------------------------------------------------

    @property
    def num_nets(self) -> int:
        """Number of nets, including the three constants."""
        return len(self.net_names)

    @property
    def num_gates(self) -> int:
        """Number of primitive gates/cells."""
        return len(self.gates)

    def net_name(self, nid: int) -> str:
        """Full hierarchical name of net ``nid``."""
        return self.net_names[nid]

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
        num_nets = self.num_nets
        for gate in self.gates:
            for nid in (*gate.inputs, gate.output):
                if not (0 <= nid < num_nets):
                    raise NetlistError(f"gate {gate.name!r} references bad net {nid}")
        for nid in self.inputs:
            if self.net_driver[nid] != -1:
                raise NetlistError(
                    f"primary input {self.net_names[nid]!r} is also driven by gate "
                    f"{self.gates[self.net_driver[nid]].name!r}"
                )

    def undriven_nets(self) -> list[int]:
        """Net ids with no driver that are read by some gate and are not
        primary inputs or constants (these simulate as X forever)."""
        pi = set(self.inputs)
        out = []
        for nid in range(_NUM_CONST_NETS, self.num_nets):
            if self.net_driver[nid] == -1 and nid not in pi and self.net_sinks[nid]:
                out.append(nid)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Netlist(top={self.top!r}, gates={self.num_gates}, "
            f"nets={self.num_nets}, inputs={len(self.inputs)}, "
            f"outputs={len(self.outputs)})"
        )
