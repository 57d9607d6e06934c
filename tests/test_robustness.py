"""Hostile and degenerate inputs: each ends in a correct result or a
typed :mod:`repro.errors` exception, never a bare traceback.

This slice covers degenerate hypergraphs in the multilevel and direct
k-way engines (:func:`repro.core.multilevel_kway_partition`,
:func:`repro.core.direct_kway_partition`) under both refiners:
zero-pin nets, one net spanning every vertex, nets that are all
parallel copies of one, no nets at all, ``k == |V|`` and ``k > |V|``;
the batch refiner restricted to two blocks of a 3-way state (the
recursive splitter's call); and the from-scratch cut metrics on
zero-pin nets.
"""

import numpy as np
import pytest

from repro.core import (
    BalanceConstraint,
    batch_refine,
    direct_kway_partition,
    multilevel_kway_partition,
)
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


@pytest.mark.parametrize("refiner", REFINERS)
@pytest.mark.parametrize("shape", sorted(DEGENERATE))
@pytest.mark.parametrize("k", [2, 5, "|V|", "|V|+1"])
def test_direct_kway_on_degenerate_hypergraphs(shape, refiner, k):
    # the flat engine: no coarsening, the LPT fill refined once; at
    # k == |V| (b = 5, unit weights) only an exact cover is balanced
    n = 12 if isinstance(k, str) else N
    hg = DEGENERATE[shape](n)
    parts = {"|V|": n, "|V|+1": n + 1}.get(k, k)
    b = 5.0 if isinstance(k, str) else 10.0
    if parts > n:
        with pytest.raises(PartitionError, match="partitions from"):
            direct_kway_partition(hg, parts, b, seed=1, refiner=refiner)
        return
    result = direct_kway_partition(hg, parts, b, seed=1, refiner=refiner)
    check_result(hg, result, parts, b)
    if parts == n:
        assert sorted(result.assignment.tolist()) == list(range(n))
    if shape == "no nets":
        assert result.cut_size == 0


@pytest.mark.parametrize("shape", sorted(DEGENERATE) + ["random"])
def test_batch_refine_two_blocks_of_three(shape):
    # blocks=(0, 1) of a 3-way state whose block 2 is frozen: block 2
    # keeps exactly its vertices, Formula 1 still holds, the cut does
    # not rise and the incremental state matches a recompute
    rng = np.random.default_rng(4)
    if shape == "random":
        hg = Hypergraph.from_edges([1] * N, [
            rng.choice(N, int(size), replace=False).tolist()
            for size in rng.integers(2, 6, 2 * N)])
    else:
        hg = DEGENERATE[shape](N)
    part = rng.permutation(np.arange(N) % 3)
    state = PartitionState(hg, 3, part)
    constraint = BalanceConstraint(3, 10.0)
    cut = state.cut_size
    result = batch_refine(state, constraint, blocks=(0, 1))
    assert np.array_equal(state.part == 2, part == 2)
    assert constraint.satisfied(state.part_weight)
    assert result.cut_size == state.cut_size <= cut
    assert result.gain == cut - state.cut_size
    got = (state.cut_size, state.connectivity, state.part_weight.tolist())
    state.recompute()
    assert got == (state.cut_size, state.connectivity,
                   state.part_weight.tolist())
    if shape == "random":
        assert result.moves > 0


def test_cut_oracles_skip_zero_pin_nets():
    # a zero-pin net spans no part: the from-scratch metrics agree with
    # PartitionState (they used to raise IndexError / count it as -w)
    hg = with_empty_nets(6)
    part = np.array([0, 0, 1, 1, 2, 2])
    state = PartitionState(hg, 3, part)
    assert hyperedge_cut(hg, part) == state.cut_size == 2
    assert connectivity_cut(hg, part) == state.connectivity == 2
