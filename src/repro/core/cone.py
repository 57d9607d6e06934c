"""Cone partitioning — the initial-partition stage (paper §3.3).

"A cone partitioning algorithm [Saucier et al.] is first employed to
generate an initial partition.  Cone partitioning emphasizes the
concurrency present in the design.  The algorithm starts at the primary
inputs of the circuit and traverses the hypergraph."

Concretely: every primary input defines a *cone* — the set of vertices
reachable from it through driver→sink net direction.  Cones are
complete input-to-output computation paths; placing whole cones on one
processor maximizes the work a processor can do without waiting on its
peers.  Cones are assigned greedily, heaviest unclaimed cone first,
always to the currently lightest partition; a vertex shared by several
cones goes wherever the first cone that reached it went (cones overlap
heavily in real circuits).  Vertices unreachable from any input —
constant generators, dangling logic — are packed last, lightest
partition first.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..errors import PartitionError
from ..hypergraph.build import Clustering
from ..hypergraph.hypergraph import _csr_gather
from ..hypergraph.partition_state import PartitionState
from ..obs.recorder import NULL_RECORDER, Recorder

__all__ = ["cone_partition", "build_cluster_dag", "input_cones"]


def build_cluster_dag(clustering: Clustering) -> tuple[list[list[int]], list[int]]:
    """Directed cluster graph and input-fed roots.

    Returns ``(successors, roots)`` where ``successors[c]`` lists the
    clusters reading any net driven inside cluster ``c`` (self-loops
    dropped), and ``roots`` are clusters reading a primary-input net.
    """
    hg = clustering.hypergraph()
    succ: list[set[int]] = [set() for _ in range(len(clustering))]
    # a net reaching a second cluster is a hyperedge, and its other pins
    # are exactly the clusters reading it
    for pins, src in zip(hg.edge_pins_lists(), clustering.edge_drivers()):
        if src >= 0:
            succ[src].update(pins)
    for c, readers in enumerate(succ):
        readers.discard(c)  # a cluster reading its own net is no successor
    netlist = clustering.netlist
    fed, _ = _csr_gather(
        *netlist.fanout(), netlist.inputs[netlist.net_driver[netlist.inputs] < 0]
    )
    roots = np.unique(clustering.gate_cluster[fed]).tolist()
    return [sorted(s) for s in succ], roots


def _cones_and_roots(clustering: Clustering) -> tuple[list[list[int]], list[int]]:
    """``(cones, roots)``: the reachable cluster set per root, heaviest
    cone first, and the roots of the one DAG build behind them."""
    succ, roots = build_cluster_dag(clustering)
    weights = clustering.weights.tolist()
    cones: list[list[int]] = []
    for root in roots:
        seen = {root}
        frontier = deque([root])
        while frontier:
            c = frontier.popleft()
            for nxt in succ[c]:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        cones.append(sorted(seen))
    cones.sort(key=lambda cone: (-sum(weights[c] for c in cone), cone))
    return cones, roots


def input_cones(clustering: Clustering) -> list[list[int]]:
    """Reachable cluster set per root, heaviest cone first."""
    return _cones_and_roots(clustering)[0]


def cone_partition(
    clustering: Clustering,
    k: int,
    seed: int = 0,
    recorder: Recorder = NULL_RECORDER,
) -> PartitionState:
    """Initial k-way partition by greedy cone assignment.

    The seed only breaks ties among equal-weight cones (assignment is
    otherwise deterministic), keeping repeated runs reproducible while
    allowing restarts.

    ``recorder`` (optional, :mod:`repro.obs`) receives the
    ``part.cone.*`` counters — cone count, input-fed roots, and
    vertices unreachable from any input; the default no-op recorder
    keeps this free.
    """
    hg = clustering.hypergraph()
    if k > hg.num_vertices:
        raise PartitionError(
            f"cannot make {k} partitions from {hg.num_vertices} vertices"
        )
    rng = np.random.default_rng(seed)
    cones, roots = _cones_and_roots(clustering)
    if seed:
        # perturb the visit order of equal-weight cones
        weights = clustering.weights.tolist()
        keyed = [
            (-sum(weights[c] for c in cone), rng.random(), cone) for cone in cones
        ]
        keyed.sort(key=lambda t: (t[0], t[1]))
        cones = [t[2] for t in keyed]

    if recorder.enabled:
        recorder.incr("part.cone.cones", len(cones))
        recorder.incr("part.cone.roots", len(roots))

    assignment = np.full(hg.num_vertices, -1, dtype=np.int64)
    load = np.zeros(k, dtype=np.int64)
    ideal = hg.total_weight / k
    for cone in cones:
        unclaimed = [c for c in cone if assignment[c] < 0]
        if not unclaimed:
            continue
        # whole cones go to one partition while it has room; a cone
        # larger than the ideal load spills into the next-lightest
        # partition rather than swamping one processor
        target = int(np.argmin(load))
        for c in unclaimed:
            if load[target] >= ideal and k > 1:
                target = int(np.argmin(load))
            assignment[c] = target
            load[target] += hg.vertex_weight[c]
    orphans = 0
    for v in range(hg.num_vertices):
        if assignment[v] < 0:
            orphans += 1
            target = int(np.argmin(load))
            assignment[v] = target
            load[target] += hg.vertex_weight[v]
    if recorder.enabled and orphans:
        recorder.incr("part.cone.orphan_vertices", orphans)
    return PartitionState(hg, k, assignment)
