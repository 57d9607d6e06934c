"""Brute-force reference for :class:`repro.hypergraph.Clustering`.

The production clustering is one gate → vertex array driven through the
hierarchy's preorder index (``gate_node`` / ``subtree_end``).  This
module is the independent statement of the paper's definition over the
:class:`HierNode` objects alone: a set of *opened* instances (the top
module always is), and per gate a walk from the root along its instance
path — the first instance on the way that is not opened is the gate's
super-gate; a gate whose whole path is opened is its own vertex.  The
vertex order is the recursive one (§3.2 splices a flattened super-gate
in place): an opened instance's direct gates ascending, then its child
instances in declaration order, opened ones expanded where they stand.
"""

from __future__ import annotations

import numpy as np

from repro.hypergraph import Clustering
from repro.verilog.netlist import HierNode, Netlist


def tree_clustering(netlist: Netlist, opened: set[int], gate_weights=None):
    """``(gate_cluster, names, weights, is_super_gate, nodes)`` of the
    clustering that has exactly the instances ``opened`` (``id`` of
    their :class:`HierNode`) flattened — lists, one walk per gate."""
    root = netlist.hierarchy
    assert id(root) in opened
    paths = [netlist.nodes[i].path for i in netlist.gate_node.tolist()]

    def vertex_of(gid: int):
        node = root
        for name in paths[gid]:
            if id(node) not in opened:
                break
            node = node.children[name]
        return ("gate", gid) if id(node) in opened else ("node", id(node))

    keys = [vertex_of(gid) for gid in range(netlist.num_gates)]
    members: dict[tuple, list[int]] = {}
    for gid, key in enumerate(keys):
        members.setdefault(key, []).append(gid)

    order: list[tuple] = []
    names: list[str] = []
    nodes: list[HierNode | None] = []

    def level(node: HierNode, prefix: str) -> None:
        for gid in range(netlist.num_gates):
            if paths[gid] == node.path and keys[gid] == ("gate", gid):
                order.append(keys[gid])
                names.append(netlist.gate_name(gid))
                nodes.append(None)
        for child in node.children.values():
            if id(child) in opened:
                level(child, prefix + child.name + ".")
            elif ("node", id(child)) in members:  # not an empty wrapper
                order.append(("node", id(child)))
                names.append(prefix + child.name)
                nodes.append(child)

    level(root, "")
    index = {key: i for i, key in enumerate(order)}
    assert len(index) == len(order) == len(members)
    weigh = (lambda g: 1) if gate_weights is None else (lambda g: int(gate_weights[g]))
    weights = [sum(weigh(g) for g in members[key]) for key in order]
    is_super = [
        node is not None and bool(node.children or len(members[key]) > 1)
        for key, node in zip(order, nodes)
    ]
    return [index[key] for key in keys], names, weights, is_super, nodes


def flatten_sequence(netlist: Netlist, seed: int, steps: int = 10, gate_weights=None):
    """Yield ``(clustering, opened)`` along one seeded random flatten
    sequence from the visible nodes: each step flattens a random vertex
    that has an instance behind it (a one-gate leaf instance included —
    ``flatten`` accepts what ``largest_super_gate`` never proposes)."""
    rng = np.random.default_rng(seed)
    clustering = Clustering.top_level(netlist, gate_weights)
    opened = {id(netlist.hierarchy)}
    yield clustering, set(opened)
    for _ in range(steps):
        candidates = np.flatnonzero(clustering.node >= 0)
        if not len(candidates):
            return
        target = int(rng.choice(candidates))
        opened.add(id(netlist.nodes[clustering.node[target]]))
        clustering = clustering.flatten(target)
        yield clustering, set(opened)
