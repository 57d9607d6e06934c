"""Stand-alone partition quality metrics.

These functions recompute metrics from scratch given a hypergraph and a
raw assignment array.  They are intentionally independent of
:class:`~repro.hypergraph.partition_state.PartitionState` so the test
suite can use them as an oracle against the incremental bookkeeping.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .hypergraph import Hypergraph

__all__ = [
    "hyperedge_cut",
    "connectivity_cut",
    "part_weights",
    "load_imbalance",
    "within_balance",
]


def hyperedge_cut(hg: Hypergraph, assignment: Sequence[int]) -> int:
    """Weighted count of hyperedges whose pins span >1 partition.

    This is the paper's cut metric (Tables 1 and 2): "the number of
    hyperedges that span multiple partitions".  A zero-pin edge spans
    none.
    """
    part = np.asarray(assignment)
    cut = 0
    for e in range(hg.num_edges):
        pins = hg.edge_vertices(e)
        if len(pins) and (part[pins] != part[pins[0]]).any():
            cut += int(hg.edge_weight[e])
    return cut


def connectivity_cut(hg: Hypergraph, assignment: Sequence[int]) -> int:
    """``sum_e w_e * max(lambda_e - 1, 0)``, lambda = #partitions edge
    spans (0 for a zero-pin edge)."""
    part = np.asarray(assignment)
    total = 0
    for e in range(hg.num_edges):
        pins = hg.edge_vertices(e)
        lam = len(set(int(part[v]) for v in pins))
        total += int(hg.edge_weight[e]) * max(lam - 1, 0)
    return total


def part_weights(hg: Hypergraph, assignment: Sequence[int], k: int) -> np.ndarray:
    """Total vertex weight per partition as a ``(k,)`` array."""
    part = np.asarray(assignment)
    w = np.zeros(k, dtype=np.int64)
    np.add.at(w, part, hg.vertex_weight)
    return w


def load_imbalance(hg: Hypergraph, assignment: Sequence[int], k: int) -> float:
    """Maximum relative deviation from the ideal per-partition load."""
    w = part_weights(hg, assignment, k)
    total = hg.total_weight
    if total == 0:
        return 0.0
    return float(np.abs(w - total / k).max() / total)


def within_balance(
    hg: Hypergraph, assignment: Sequence[int], k: int, b: float
) -> bool:
    """Check the paper's load-balancing constraint (Formula 1).

    ``load * (1/k - b/100) <= load[i] <= load * (1/k + b/100)`` must
    hold for every partition ``i``, where ``load`` is the total circuit
    weight and ``b`` the balance factor in percent.
    """
    w = part_weights(hg, assignment, k)
    total = hg.total_weight
    lo = total * (1.0 / k - b / 100.0)
    hi = total * (1.0 / k + b / 100.0)
    return bool((w >= lo - 1e-9).all() and (w <= hi + 1e-9).all())
