"""Hostile and degenerate inputs: each ends in a correct result or a
typed :mod:`repro.errors` exception, never a bare traceback.

This slice covers degenerate hypergraphs in the multilevel driver
(:func:`repro.core.multilevel_kway_partition`) under both refiners:
zero-pin nets, one net spanning every vertex, nets that are all
parallel copies of one, no nets at all, ``k == |V|`` and ``k > |V|``;
and the from-scratch cut metrics on zero-pin nets.
"""

import numpy as np
import pytest

from repro.core import BalanceConstraint, multilevel_kway_partition
from repro.core.batch_refine import REFINERS
from repro.errors import PartitionError
from repro.hypergraph import (
    Hypergraph,
    PartitionState,
    connectivity_cut,
    hyperedge_cut,
)

#: large enough that the driver coarsens (its stop size is 160 vertices)
N = 300


def with_empty_nets(n: int) -> Hypergraph:
    """A chain of two-pin nets with a zero-pin net before, between and
    after them."""
    edges = [[]] + [e for v in range(n - 1) for e in ([v, v + 1], [])]
    ptr = np.zeros(len(edges) + 1, dtype=np.int64)
    np.cumsum([len(e) for e in edges], out=ptr[1:])
    return Hypergraph.from_csr(
        np.ones(n, dtype=np.int64), np.ones(len(edges), dtype=np.int64),
        ptr, np.array([v for e in edges for v in e], dtype=np.int64),
    )


#: shape name -> builder of that shape on n unit-weight vertices
DEGENERATE = {
    "zero-pin nets": with_empty_nets,
    "one net spans every vertex": lambda n: Hypergraph.from_edges(
        [1] * n, [list(range(n))]),
    "all nets parallel": lambda n: Hypergraph.from_edges(
        [1] * n, [[3, n // 2, n - 1]] * 40),
    "no nets": lambda n: Hypergraph.from_edges([1] * n, []),
}


def check_result(hg: Hypergraph, result, k: int, b: float) -> None:
    """Every vertex in exactly one of k parts, the reported cut and
    loads recounted from scratch, Formula 1 met."""
    part = result.assignment
    assert part.shape == (hg.num_vertices,)
    assert ((part >= 0) & (part < k)).all()
    assert result.cut_size == hyperedge_cut(hg, part)
    assert result.part_weights.tolist() == np.bincount(
        part, weights=hg.vertex_weight, minlength=k).astype(int).tolist()
    assert result.balanced
    assert BalanceConstraint(k, b).satisfied(result.part_weights)


@pytest.mark.parametrize("refiner", REFINERS)
@pytest.mark.parametrize("shape", sorted(DEGENERATE))
@pytest.mark.parametrize("k", [2, 5])
def test_degenerate_hypergraphs(shape, refiner, k):
    hg = DEGENERATE[shape](N)
    result = multilevel_kway_partition(hg, k, 10.0, seed=1, refiner=refiner)
    check_result(hg, result, k, 10.0)
    if shape == "one net spans every vertex":
        # Formula 1's lower bound is above 0, so no part is empty
        assert result.cut_size == 1
        assert connectivity_cut(hg, result.assignment) == k - 1
    if shape == "no nets":
        assert result.cut_size == 0 and result.levels == 0


@pytest.mark.parametrize("refiner", REFINERS)
@pytest.mark.parametrize("shape", sorted(DEGENERATE))
def test_k_equals_vertices_is_an_exact_cover(shape, refiner):
    # at k == |V| with unit weights, b = 5 admits loads in [0.4, 1.6]:
    # Formula 1 holds only if every part gets exactly one vertex
    n = 12
    hg = DEGENERATE[shape](n)
    lo, hi = BalanceConstraint(n, 5.0).bounds(n)
    assert 0 < lo and hi < 2
    result = multilevel_kway_partition(hg, n, 5.0, seed=1, refiner=refiner)
    check_result(hg, result, n, 5.0)
    assert sorted(result.assignment.tolist()) == list(range(n))


@pytest.mark.parametrize("refiner", REFINERS)
@pytest.mark.parametrize("shape", sorted(DEGENERATE))
def test_k_above_vertices_is_rejected(shape, refiner):
    hg = DEGENERATE[shape](N)
    with pytest.raises(PartitionError, match="partitions from"):
        multilevel_kway_partition(hg, N + 1, 10.0, seed=1, refiner=refiner)


def test_cut_oracles_skip_zero_pin_nets():
    # a zero-pin net spans no part: the from-scratch metrics agree with
    # PartitionState (they used to raise IndexError / count it as -w)
    hg = with_empty_nets(6)
    part = np.array([0, 0, 1, 1, 2, 2])
    state = PartitionState(hg, 3, part)
    assert hyperedge_cut(hg, part) == state.cut_size == 2
    assert connectivity_cut(hg, part) == state.connectivity == 2
