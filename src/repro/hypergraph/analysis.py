"""Circuit and hypergraph structure analysis.

Partitioning papers characterize their workloads with a handful of
structural statistics; this module computes them for any elaborated
netlist so users can tell *why* an algorithm behaves as it does on
their design (e.g. the Viterbi decoder's module-size skew vs the CPU
datapath's bit-sliced connectivity):

* gate/net/fanout distributions,
* logic depth (longest combinational path),
* module-instance size distribution and hierarchy depth,
* net locality: how many nets stay inside one first-level instance
  (the quantity the design-driven partitioner exploits — the paper's
  "design locality").
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..verilog.netlist import Netlist
from .build import hierarchy_hypergraph

__all__ = [
    "CircuitStats",
    "analyze_netlist",
    "locality_fraction",
    "StuckXReport",
    "stuck_x_report",
]


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


@dataclass
class StuckXReport:
    """Nets still unknown after a stimulus — reset/initialization bugs.

    The classic causes: a flip-flop without reset in a feedback loop
    (its X re-circulates forever), an undriven net, a clock period
    shorter than the logic depth.  ``by_cause`` buckets the stuck nets.
    """

    total_nets: int
    stuck: list[int] = field(default_factory=list)
    by_cause: dict[str, list[int]] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return not self.stuck

    def summary(self, netlist: Netlist, limit: int = 8) -> str:
        if self.clean:
            return "no stuck-X nets: the design initializes completely"
        lines = [f"{len(self.stuck)} of {self.total_nets} nets still X:"]
        for cause, nets in self.by_cause.items():
            names = ", ".join(netlist.net_name(n) for n in nets[:limit])
            more = f" (+{len(nets) - limit} more)" if len(nets) > limit else ""
            lines.append(f"  {cause}: {names}{more}")
        return "\n".join(lines)


def stuck_x_report(netlist: Netlist, events) -> StuckXReport:
    """Simulate a stimulus and classify every net still X at the end.

    Pass a real testbench stimulus (reset sequence + a few cycles, e.g.
    from :class:`repro.sim.Testbench`); nets that stay X under it are
    initialization escapes.
    """
    from ..sim.compiled import compile_circuit
    from ..sim.logic import VX, flip_flop_mask
    from ..sim.sequential import SequentialSimulator

    circuit = compile_circuit(netlist)
    sim = SequentialSimulator(circuit)
    sim.add_inputs(events)
    sim.run()
    undriven = set(netlist.undriven_nets())
    ff_outputs = set(netlist.gate_output[flip_flop_mask(netlist)].tolist())
    report = StuckXReport(total_nets=netlist.num_nets)
    for nid in range(3, netlist.num_nets):
        if int(sim.values[nid]) != VX:
            continue
        report.stuck.append(nid)
        if nid in undriven:
            cause = "undriven net"
        elif nid in ff_outputs:
            cause = "uninitialized flip-flop (no reset reached it)"
        elif netlist.net_driver[nid] == -1:
            cause = "primary input never driven by the stimulus"
        else:
            cause = "derived from another stuck-X net"
        report.by_cause.setdefault(cause, []).append(nid)
    return report


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
