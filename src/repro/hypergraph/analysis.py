"""Circuit structure statistics (``repro info --stats``).

Partitioning papers characterize their workloads with a handful of
structural statistics; :func:`analyze_netlist` computes them for any
elaborated netlist as one :class:`CircuitStats`, so users can tell
*why* an algorithm behaves as it does on their design (e.g. the
Viterbi decoder's module-size skew vs the CPU datapath's bit-sliced
connectivity):

* gate, net, primary I/O and flip-flop counts and the fanout
  distribution,
* logic depth (longest combinational path),
* first-level instance sizes and hierarchy depth,
* net locality (:func:`locality_fraction`): how many multi-pin nets
  stay inside one visible node — a top-level gate or a first-level
  instance, the quantity the design-driven partitioner exploits (the
  paper's "design locality").
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..verilog.netlist import Netlist
from .build import hierarchy_hypergraph

__all__ = ["CircuitStats", "analyze_netlist", "locality_fraction"]


@dataclass
class CircuitStats:
    """Structural summary of an elaborated netlist."""

    gates: int
    nets: int
    inputs: int
    outputs: int
    flip_flops: int
    logic_depth: int
    top_instances: int
    hierarchy_depth: int
    instance_sizes: list[int] = field(default_factory=list)
    fanout_mean: float = 0.0
    fanout_max: int = 0
    local_nets: int = 0
    boundary_nets: int = 0

    @property
    def locality(self) -> float:
        """Fraction of multi-pin nets internal to one visible node."""
        total = self.local_nets + self.boundary_nets
        return self.local_nets / total if total else 0.0

    def summary(self) -> str:
        """Multi-line human-readable report."""
        sizes = sorted(self.instance_sizes, reverse=True)
        lines = [
            f"gates          : {self.gates}",
            f"nets           : {self.nets}",
            f"primary I/O    : {self.inputs} in / {self.outputs} out",
            f"flip-flops     : {self.flip_flops}",
            f"logic depth    : {self.logic_depth}",
            f"hierarchy      : {self.top_instances} top instances, "
            f"depth {self.hierarchy_depth}",
            f"instance sizes : max {sizes[0] if sizes else 0}, "
            f"median {sizes[len(sizes) // 2] if sizes else 0}, "
            f"min {sizes[-1] if sizes else 0}",
            f"fanout         : mean {self.fanout_mean:.1f}, max {self.fanout_max}",
            f"net locality   : {self.locality:.0%} of multi-pin nets stay "
            f"inside one visible node",
        ]
        return "\n".join(lines)


def locality_fraction(netlist: Netlist) -> tuple[int, int]:
    """(internal, boundary) counts of multi-pin nets at visible-node
    granularity — the design locality the paper's algorithm preserves.

    A boundary net is a hyperedge of the visible-node hypergraph
    (one per net :func:`~repro.hypergraph.build.spanning_nets` finds);
    every other net with two or more pins, its driver included, is
    internal."""
    boundary = hierarchy_hypergraph(netlist).num_edges
    pins = np.diff(netlist.fanout()[0]) + (netlist.net_driver >= 0)
    return int(np.count_nonzero(pins >= 2)) - boundary, boundary


def analyze_netlist(netlist: Netlist) -> CircuitStats:
    """Compute the full structural summary."""
    from ..sim.compiled import combinational_depth, compile_circuit
    from ..sim.logic import flip_flop_mask

    circuit = compile_circuit(netlist)
    fanouts = np.diff(netlist.fanout()[0])
    nonzero = fanouts[fanouts > 0]
    local, boundary = locality_fraction(netlist)
    hierarchy_depth = max(
        (len(node.path) for node in netlist.hierarchy.walk()), default=0
    )
    return CircuitStats(
        gates=netlist.num_gates,
        nets=netlist.num_nets,
        inputs=len(netlist.inputs),
        outputs=len(netlist.outputs),
        flip_flops=int(np.count_nonzero(flip_flop_mask(netlist))),
        logic_depth=combinational_depth(circuit),
        top_instances=len(netlist.hierarchy.children),
        hierarchy_depth=hierarchy_depth,
        instance_sizes=[
            n.total_gates for n in netlist.hierarchy.children.values()
        ],
        fanout_mean=float(np.mean(nonzero)) if len(nonzero) else 0.0,
        fanout_max=int(nonzero.max(initial=0)),
        local_nets=local,
        boundary_nets=boundary,
    )
