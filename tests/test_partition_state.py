"""PartitionState: incremental bookkeeping vs recompute-from-scratch."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PartitionError
from repro.hypergraph import (
    Hypergraph,
    PartitionState,
    connectivity_cut,
    hyperedge_cut,
)


def hg3():
    return Hypergraph.from_edges(
        [1, 2, 3, 1, 1], [[0, 1], [1, 2, 3], [3, 4], [0, 4]]
    )


class TestBasics:
    def test_initial_all_zero(self):
        s = PartitionState(hg3(), 2)
        assert s.cut_size == 0
        assert s.part_weight.tolist() == [8, 0]

    def test_explicit_assignment(self):
        s = PartitionState(hg3(), 2, [0, 0, 1, 1, 1])
        assert s.cut_size == hyperedge_cut(hg3(), [0, 0, 1, 1, 1])
        assert s.part_weight.tolist() == [3, 5]

    def test_bad_k(self):
        with pytest.raises(PartitionError):
            PartitionState(hg3(), 0)

    def test_bad_assignment_length(self):
        with pytest.raises(PartitionError, match="length"):
            PartitionState(hg3(), 2, [0, 1])

    def test_assignment_out_of_range(self):
        with pytest.raises(PartitionError, match="out of range"):
            PartitionState(hg3(), 2, [0, 0, 0, 0, 5])

    def test_move_updates_weights(self):
        s = PartitionState(hg3(), 2)
        s.move(2, 1)
        assert s.part_weight.tolist() == [5, 3]
        assert int(s.part[2]) == 1

    def test_move_to_same_part_is_noop(self):
        s = PartitionState(hg3(), 2)
        assert s.move(0, 0) == 0

    def test_move_to_bad_part(self):
        s = PartitionState(hg3(), 2)
        with pytest.raises(PartitionError):
            s.move(0, 7)

    def test_move_returns_realized_gain(self):
        s = PartitionState(hg3(), 2, [0, 1, 1, 1, 1])
        before = s.cut_size
        gain = s.move(0, 1)
        assert s.cut_size == before - gain

    def test_move_gain_predicts(self):
        s = PartitionState(hg3(), 3, [0, 1, 2, 0, 1])
        for v in range(5):
            for p in range(3):
                predicted = int(s.move_gains([v], p)[0])
                before = s.cut_size
                frm = int(s.part[v])
                realized = s.move(v, p)
                assert realized == predicted
                assert s.cut_size == before - realized
                s.move(v, frm)  # restore

    def test_parts_listing(self):
        s = PartitionState(hg3(), 2, [0, 1, 0, 1, 0])
        assert s.parts() == [[0, 2, 4], [1, 3]]

    def test_pair_cut(self):
        s = PartitionState(hg3(), 3, [0, 1, 2, 0, 1])
        m = s.pair_cut_matrix()
        for a in range(3):
            for b in range(3):
                if a != b:
                    assert m[a, b] == s.pair_cut(a, b)
                else:
                    assert m[a, a] == 0



@st.composite
def hg_and_moves(draw):
    n = draw(st.integers(3, 10))
    m = draw(st.integers(1, 12))
    k = draw(st.integers(2, 4))
    edges = []
    for _ in range(m):
        size = draw(st.integers(2, min(n, 4)))
        edges.append(
            draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size, unique=True))
        )
    weights = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    init = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    moves = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, k - 1)),
            min_size=0,
            max_size=20,
        )
    )
    return Hypergraph.from_edges(weights, edges), k, init, moves


class TestIncrementalOracle:
    @given(hg_and_moves())
    @settings(max_examples=120, deadline=None)
    def test_matches_recompute_after_any_move_sequence(self, data):
        hg, k, init, moves = data
        s = PartitionState(hg, k, init)
        for v, p in moves:
            s.move(v, p)
        assert s.cut_size == hyperedge_cut(hg, s.part)
        assert s.connectivity == connectivity_cut(hg, s.part)
        assert s.part_weight.tolist() == np.bincount(
            s.part, weights=hg.vertex_weight, minlength=k).astype(int).tolist()
        # and edge_part_count is internally consistent
        fresh = PartitionState(hg, k, s.part)
        assert (fresh.edge_part_count == s.edge_part_count).all()

    @given(hg_and_moves())
    @settings(max_examples=60, deadline=None)
    def test_connectivity_bounds_cut(self, data):
        """lambda-1 metric always >= hyperedge cut, <= (k-1)*cut."""
        hg, k, init, moves = data
        s = PartitionState(hg, k, init)
        for v, p in moves:
            s.move(v, p)
        assert s.cut_size <= s.connectivity <= (k - 1) * max(s.cut_size, 0) or (
            s.cut_size == 0 and s.connectivity == 0
        )
