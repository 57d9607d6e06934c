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

__all__ = ["hyperedge_cut", "connectivity_cut"]


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
