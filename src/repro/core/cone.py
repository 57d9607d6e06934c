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

The cones come from one pass over the cluster graph, not one search
per input: Tarjan's algorithm closes each strongly connected component
(a register loop between instances is one) after every component it
reaches, so the component's reach is its own members' bits OR its
successors' reach — one Python ``int`` bitset per component, dropped
once every component reading it has closed unless it is an input-fed
root's.  Each root's cone stays that bitset: it is weighed once,
unpacked in NumPy in bounded chunks, and ranked against equal-weight
cones as its ascending cluster list would be.  Assignment unpacks only
the clusters no earlier cone claimed, so each cluster is listed once.
"""

from __future__ import annotations

from functools import cmp_to_key
from itertools import chain

import numpy as np

from ..errors import PartitionError
from ..hypergraph.build import Clustering
from ..hypergraph.hypergraph import _csr_gather
from ..hypergraph.partition_state import PartitionState
from ..obs.recorder import NULL_RECORDER, Recorder

__all__ = ["cone_partition", "build_cluster_dag", "input_cones"]

#: bytes of unpacked cone rows, as the int64 the weighing casts them
#: to, held at once
_UNPACK_BYTES = 1 << 22


def build_cluster_dag(clustering: Clustering) -> tuple[list[list[int]], list[int]]:
    """Directed cluster graph and input-fed roots.

    Returns ``(successors, roots)`` where ``successors[c]`` lists the
    clusters reading any net driven inside cluster ``c`` (self-loops
    dropped), and ``roots`` are clusters reading a primary-input net.
    """
    hg = clustering.hypergraph()
    n = len(clustering)
    # a net reaching a second cluster is a hyperedge, and its other pins
    # are exactly the clusters reading it
    src = np.asarray(clustering.edge_drivers(), dtype=np.int64)[hg.pin_edges]
    dst = hg.pin_vertices
    keep = (src >= 0) & (src != dst)  # a cluster reading its own net is no successor
    arcs = np.sort(src[keep] * n + dst[keep])
    arcs = arcs[np.concatenate(([True], arcs[1:] != arcs[:-1]))]
    bounds = np.searchsorted(arcs, np.arange(n + 1, dtype=np.int64) * n).tolist()
    heads = (arcs % n).tolist()
    netlist = clustering.netlist
    fed, _ = _csr_gather(
        *netlist.fanout(), netlist.inputs[netlist.net_driver[netlist.inputs] < 0]
    )
    is_root = np.zeros(n, dtype=bool)
    is_root[clustering.gate_cluster[fed]] = True
    succ = [heads[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    return succ, np.flatnonzero(is_root).tolist()


def _reach(succ: list[list[int]], keep: list[int]) -> list[int]:
    """Per vertex in ``keep``, the bitset of the vertices it reaches,
    itself included (0 for every other vertex): iterative Tarjan,
    closing each component's reach as the component is popped (every
    component it reaches is closed by then).  Any other vertex's bitset
    is dropped once every arc into it has been read, so only the kept
    bitsets and those still awaiting a reader are held at once."""
    n = len(succ)
    order = [-1] * n  # discovery index
    low = [0] * n
    on_stack = [False] * n
    reach = [0] * n
    # arcs into each vertex not yet read; a kept vertex has one more,
    # the caller's
    unread = np.bincount(
        np.fromiter(chain.from_iterable(succ), dtype=np.int64), minlength=n
    ).tolist()
    for v in keep:
        unread[v] += 1
    stack: list[int] = []
    counter = 0
    for start in range(n):
        if order[start] >= 0:
            continue
        order[start] = low[start] = counter
        counter += 1
        stack.append(start)
        on_stack[start] = True
        work = [(start, iter(succ[start]))]
        while work:
            v, successors = work[-1]
            for w in successors:
                if order[w] < 0:
                    order[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ[w])))
                    break
                if on_stack[w] and order[w] < low[v]:
                    low[v] = order[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == order[v]:
                    members = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        members.append(w)
                        if w == v:
                            break
                    # members' own reach is still 0 here: OR-ing it is a no-op
                    bits = 0
                    for w in members:
                        bits |= 1 << w
                        for x in succ[w]:
                            bits |= reach[x]
                            unread[x] -= 1
                            if not unread[x]:
                                reach[x] = 0
                    for w in members:
                        if unread[w]:
                            reach[w] = bits
    return reach


def _members(bits: int, n: int) -> list[int]:
    """The ascending vertices of a bitset over ``n`` vertices."""
    row = np.frombuffer(bits.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.flatnonzero(np.unpackbits(row, count=n, bitorder="little")).tolist()


def _list_order(a: int, b: int) -> int:
    """-1, 0 or 1 as bitset ``a``'s ascending vertex list sorts before,
    with or after ``b``'s.  The lists agree below the lowest bit the
    sets differ in; the set holding it sorts first unless the other has
    no vertex above it, i.e. is a prefix of it."""
    if a == b:
        return 0
    diff = a ^ b
    low = diff & -diff
    if a & low:
        return -1 if b > low else 1
    return 1 if a > low else -1


_ListOrder = cmp_to_key(_list_order)


def _cones_and_roots(
    clustering: Clustering,
) -> tuple[list[int], list[int], list[int]]:
    """``(cones, weights, roots)``: the bitset of the clusters reachable
    from each root, heaviest cone first (ties by the ascending cluster
    lists), each cone's weight, and the roots of the one DAG build
    behind them."""
    succ, roots = build_cluster_dag(clustering)
    n = len(succ)
    reach = _reach(succ, roots)
    cones = [reach[r] for r in roots]
    del reach
    width = (n + 7) // 8
    step = max(1, _UNPACK_BYTES // max(8 * n, 1))  # cones per unpacked chunk
    weights = clustering.weights
    cone_weights: list[int] = []
    for lo in range(0, len(cones), step):
        packed = b"".join(bits.to_bytes(width, "little")
                          for bits in cones[lo:lo + step])
        rows = np.unpackbits(
            np.frombuffer(packed, dtype=np.uint8).reshape(-1, width),
            axis=1, count=n, bitorder="little",
        )
        cone_weights += (rows @ weights).tolist()
    ranked = sorted(range(len(cones)),
                    key=lambda i: (-cone_weights[i], _ListOrder(cones[i])))
    return ([cones[i] for i in ranked], [cone_weights[i] for i in ranked], roots)


def input_cones(clustering: Clustering) -> list[list[int]]:
    """Reachable cluster set per root, heaviest cone first."""
    n = len(clustering)
    return [_members(bits, n) for bits in _cones_and_roots(clustering)[0]]


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
    cones, cone_weights, roots = _cones_and_roots(clustering)
    if seed:
        # perturb the visit order of equal-weight cones
        keyed = [(-w, rng.random(), cone) for w, cone in zip(cone_weights, cones)]
        keyed.sort(key=lambda t: (t[0], t[1]))
        cones = [t[2] for t in keyed]

    if recorder.enabled:
        recorder.incr("part.cone.cones", len(cones))
        recorder.incr("part.cone.roots", len(roots))

    vertex_weight = hg.vertex_weight_list
    assignment = [-1] * hg.num_vertices
    load = [0] * k
    ideal = hg.total_weight / k
    claimed = 0  # bitset of the vertices some earlier cone took
    for cone in cones:
        unclaimed = cone & ~claimed
        if not unclaimed:
            continue
        claimed |= unclaimed
        # whole cones go to one partition while it has room; a cone
        # larger than the ideal load spills into the next-lightest
        # partition rather than swamping one processor
        target = load.index(min(load))
        for c in _members(unclaimed, hg.num_vertices):
            if load[target] >= ideal and k > 1:
                target = load.index(min(load))
            assignment[c] = target
            load[target] += vertex_weight[c]
    orphans = 0
    for v, part in enumerate(assignment):
        if part < 0:
            orphans += 1
            target = load.index(min(load))
            assignment[v] = target
            load[target] += vertex_weight[v]
    if recorder.enabled and orphans:
        recorder.incr("part.cone.orphan_vertices", orphans)
    return PartitionState(hg, k, assignment)
