"""The batch refiner's scoring kernel against a from-scratch oracle.

:meth:`~repro.hypergraph.PartitionState.move_gains_matrix` splits an
incident edge's contribution by λ class (λ = 1 and λ = k are constants
per vertex, only 1 < λ < k reaches the per-target product); the oracle
in :mod:`tests.gain_oracle` moves the vertex and recomputes.  The
instances cover every class, target subsets, the recursive splitter's
3-way state with a frozen third block, zero-degree vertices and odd
edge weights above 2^53 (exact only in int64).  The refiner's best-
target choice is held to be independent of the edge-weight scale.
"""

import numpy as np
import pytest

from repro.core import BalanceConstraint, batch_refine
from repro.hypergraph import Hypergraph, PartitionState
from tests.gain_oracle import exact_move_gains


def classed_instance(rng, k: int, heavy: bool):
    """(hypergraph, assignment) on which every λ class occurs: every
    block is non-empty, a net over all vertices spans all k, short nets
    land inside one block or across a few; two trailing vertices touch
    no net.  ``heavy`` draws odd edge weights in (2^53, 2^53 + 2^21]."""
    n = int(rng.integers(k + 2, 30))
    sizes = rng.integers(1, min(n, 6) + 1, int(rng.integers(4, 40)))
    edges = [rng.choice(n, int(size), replace=False).tolist()
             for size in sizes]
    edges.append(list(range(n)))
    part = rng.integers(0, k, n)
    part[:k] = np.arange(k)
    # a net inside block 0 (λ = 1, at least two pins there)
    part[k:k + 2] = 0
    edges.append([0, k, k + 1])
    if heavy:
        weights = (1 << 53) + 2 * rng.integers(0, 1 << 20, len(edges)) + 1
    else:
        weights = rng.integers(1, 9, len(edges))
    hg = Hypergraph.from_edges(rng.integers(1, 4, n + 2).tolist(), edges,
                               weights.tolist())
    return hg, np.concatenate([part, rng.integers(0, k, 2)])


class TestGainOracle:
    @pytest.mark.parametrize("heavy", [False, True])
    def test_matches_trial_moves(self, heavy):
        rng = np.random.default_rng(2024 + heavy)
        classes = set()
        for trial in range(40):
            k = int(rng.integers(2, 7))
            hg, part = classed_instance(rng, k, heavy)
            if heavy:
                assert hg.edge_weight.sum() < 1 << 62
                assert (hg.edge_weight > 1 << 53).all()
            state = PartitionState(hg, k, part)
            n = hg.num_vertices
            verts = np.unique(np.concatenate([
                rng.integers(0, n, int(rng.integers(1, n + 1))), [n - 1]]))
            assert not len(hg.vertices_edges([n - 1])[0])
            targets = np.arange(k, dtype=np.int64)
            if trial % 2:
                targets = rng.permutation(k)[:int(rng.integers(1, k + 1))]
            lam = state.edge_lambda[hg.vertices_edges(verts)[0]]
            classes |= {"1" if x == 1 else "k" if x == k else "mid"
                        for x in lam.tolist()}
            got = state.move_gains_matrix(verts, targets)
            want = exact_move_gains(state, verts, targets)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])
            assert got[0].dtype == got[1].dtype == np.int64
        assert classes == {"1", "mid", "k"}

    def test_frozen_third_block(self):
        # the recursive splitter scores blocks (0, 1) of a 3-way state:
        # an edge reaching block 2 has 1 < λ < k for the state's k = 3
        # even when it spans both scored blocks
        rng = np.random.default_rng(8)
        for _ in range(20):
            hg, part = classed_instance(rng, 3, heavy=False)
            state = PartitionState(hg, 3, part)
            verts = np.flatnonzero(state.part < 2)
            targets = np.array([0, 1])
            got = state.move_gains_matrix(verts, targets)
            want = exact_move_gains(state, verts, targets)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])

    def test_cut_row_is_move_gains(self):
        rng = np.random.default_rng(5)
        hg, part = classed_instance(rng, 4, heavy=True)
        state = PartitionState(hg, 4, part)
        verts = np.arange(hg.num_vertices)
        gains, _ = state.move_gains_matrix(verts, np.arange(4))
        for t in range(4):
            assert np.array_equal(gains[t], state.move_gains(verts, t))


def scaled_instance(scale_bits: int) -> tuple[Hypergraph, np.ndarray]:
    """A 400-vertex random 4-way instance, every edge weight times
    2^scale_bits (total weight stays below 2^62 up to 2^40)."""
    rng = np.random.default_rng(17)
    n = 400
    edges = [rng.choice(n, int(size), replace=False).tolist()
             for size in rng.integers(2, 7, 700)]
    weights = rng.integers(1, 8, len(edges)) << scale_bits
    hg = Hypergraph.from_edges(rng.integers(1, 4, n).tolist(), edges,
                               weights.tolist())
    return hg, rng.integers(0, 4, n)


def test_refiner_is_invariant_under_edge_weight_scale():
    # the best-target choice compares (cut, SOED) pairs; a folded
    # gain·B + soed key overflows int64 somewhere past 2^28
    results = []
    for bits in (0, 20, 28, 31, 40):
        hg, part = scaled_instance(bits)
        assert hg.edge_weight.sum() < 1 << 62
        state = PartitionState(hg, 4, part)
        res = batch_refine(state, BalanceConstraint(4, 10.0))
        results.append((state.part.tobytes(), res.cut_size >> bits,
                        res.moves, res.rounds))
        assert res.cut_size % (1 << bits) == 0
    assert all(r == results[0] for r in results)
