"""Activity-based load metric — the paper's named future work.

The paper's conclusion: "Currently our load metric is the number of
gates, which is not entirely adequate ... An interesting extension of
the algorithm would be to make it responsive to changes in processor
loads."  The static half of that extension is implemented here: a
short profiling run of the sequential simulator counts how often each
gate actually evaluates, and those counts replace the gate-count vertex
weights, so the Formula-1 constraint balances *expected simulation
work* instead of area.

Usage::

    weights = profile_activity(netlist, events)
    clustering = Clustering.top_level(netlist, gate_weights=weights)
    result = design_driven_partition(clustering, k=4, b=7.5)
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..hypergraph.build import Clustering
from ..sim.compiled import compile_circuit
from ..sim.events import InputEvent
from ..sim.sequential import SequentialSimulator
from ..verilog.netlist import Netlist

__all__ = ["profile_activity", "activity_clustering"]


def profile_activity(
    netlist: Netlist, events: Sequence[InputEvent]
) -> np.ndarray:
    """Per-gate load weights from a profiling run.

    Returns ``1 + evaluations`` per gate (int64, all >= 1 so a
    never-active gate still counts as placeable weight).  The events
    should be a short representative stimulus — the same pre-simulation
    vectors the (k, b) search uses are a natural choice.
    """
    circuit = compile_circuit(netlist)
    sim = SequentialSimulator(circuit, record_activity=True)
    sim.add_inputs(events)
    stats = sim.run()
    assert stats.activity is not None
    return stats.activity.astype(np.int64) + 1


def activity_clustering(
    netlist: Netlist, events: Sequence[InputEvent]
) -> Clustering:
    """Visible-node clustering weighted by profiled activity."""
    weights = profile_activity(netlist, events)
    return Clustering.top_level(netlist, gate_weights=weights)
