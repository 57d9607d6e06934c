"""Recursive bipartitioning multiway — the alternative the paper rejects.

Paper §3.1.1: "The recursive approach applies bipartitioning
recursively until the desired number of partitions is obtained ... it
suffers from several limitations.  If the number of partitions [is] not
a power of 2, the desired number of multiway partition[s] cannot be
achieved.  Furthermore, as the algorithm proceeds, it becomes harder to
reduce the cut-size since the partitioning is performed on finer and
finer hypergraphs."

This module implements that rejected alternative faithfully — repeated
two-way design-driven partitioning of each half — so the ablation
benchmark can reproduce the paper's argument for choosing the *direct*
pairwise algorithm.  Non-power-of-two k is supported here through
proportional weight targets (a small generalization; restricting to
powers of two only weakens the baseline further).
"""

from __future__ import annotations

import numpy as np

from ..errors import PartitionError
from ..hypergraph.build import Clustering
from ..hypergraph.partition_state import PartitionState
from ..verilog.netlist import Netlist
from .balance import BalanceConstraint
from .cone import cone_partition
from .fm import refine_pair
from .multiway import MultiwayResult

__all__ = ["recursive_design_driven_partition"]


def recursive_design_driven_partition(
    netlist_or_clustering: Netlist | Clustering,
    k: int,
    b: float,
    seed: int = 0,
) -> MultiwayResult:
    """k-way partition by recursive two-way design-driven splits.

    Each split runs cone seeding restricted to the sub-problem followed
    by two-way FM under a proportional balance window derived from the
    global Formula-1 constraint.  No super-gate flattening is performed
    (the two-way predecessor [16] flattens too, but interleaving
    flattening with recursion re-derives the direct algorithm; keeping
    the recursive baseline pure preserves the §3.1.1 contrast).
    """
    if isinstance(netlist_or_clustering, Clustering):
        clustering = netlist_or_clustering
    else:
        clustering = Clustering.top_level(netlist_or_clustering)
    hg = clustering.hypergraph()
    if k < 1 or k > hg.num_vertices:
        raise PartitionError(f"invalid k={k} for {hg.num_vertices} vertices")
    constraint = BalanceConstraint(k, b)
    assignment = np.zeros(hg.num_vertices, dtype=np.int64)
    seed_state = cone_partition(clustering, max(k, 1), seed=seed)
    _split(hg, np.arange(hg.num_vertices), k, 0, b, assignment, seed_state)
    state = PartitionState(hg, k, assignment)
    return MultiwayResult(
        clustering=clustering,
        assignment=assignment,
        k=k,
        b=b,
        cut_size=state.cut_size,
        part_weights=state.part_weight.copy(),
        balanced=constraint.satisfied(state.part_weight),
        flatten_steps=0,
        fm_rounds=k - 1,
        history=[f"recursive bipartitioning into {k} parts"],
    )


def _split(
    hg,
    vertices: np.ndarray,
    k: int,
    first_part: int,
    b: float,
    assignment: np.ndarray,
    seed_state: PartitionState,
) -> None:
    if k == 1:
        assignment[vertices] = first_part
        return
    k0 = k // 2
    frac0 = k0 / k
    # seed: order the subset by the global cone partition's layout so
    # related cones start on the same side, and fill side 0 up to its
    # weight target
    order = vertices[np.lexsort((vertices, seed_state.part[vertices]))]
    weights = hg.vertex_weight[order]
    subset_weight = int(weights.sum())
    target0 = frac0 * subset_weight
    # two-way split of this vertex subset on the FULL hypergraph: a
    # 3-way state where everything outside the subset is parked in a
    # frozen third partition so FM cannot touch it
    seeded = np.full(hg.num_vertices, 2, dtype=np.int64)
    seeded[order] = np.cumsum(weights) - weights >= target0
    local = PartitionState(hg, 3, seeded)
    # FM between the two sides with the subset-scaled balance window
    slack = subset_weight * b / 100.0
    window = _SubsetWindow(target0, subset_weight - target0, slack)
    refine_pair(local, 0, 1, window)
    sides = local.part[vertices]
    left, right = vertices[sides == 0], vertices[sides == 1]
    if len(left) == 0 or len(right) == 0:
        half = len(vertices) // 2
        left, right = vertices[:half], vertices[half:]
    _split(hg, left, k0, first_part, b, assignment, seed_state)
    _split(hg, right, k - k0, first_part + k0, b, assignment, seed_state)


class _SubsetWindow:
    """Balance-constraint adapter with explicit asymmetric targets.

    :func:`repro.core.fm.refine_pair` only consults ``bounds(total)``;
    the recursive splitter needs windows around unequal targets computed
    from the *subset* weight, not the hypergraph total.
    """

    def __init__(self, t0: float, t1: float, slack: float) -> None:
        lo = max(min(t0, t1) - slack, 0.0)
        hi = max(t0, t1) + slack
        self._bounds = (lo, hi)

    def bounds(self, total_weight: int) -> tuple[float, float]:
        return self._bounds
