"""Pairwise k-way FM refinement (the paper's iterative-movement phase)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BalanceConstraint, refine_pair, rebalance_pair
from repro.errors import PartitionError
from repro.hypergraph import Hypergraph, PartitionState, hyperedge_cut


def chain_hg(n=8):
    """Path hypergraph: optimal bisection cuts one edge."""
    return Hypergraph.from_edges([1] * n, [[i, i + 1] for i in range(n - 1)])


class TestRefinePair:
    def test_improves_bad_bisection(self):
        hg = chain_hg(8)
        # interleaved assignment: terrible cut
        state = PartitionState(hg, 2, [0, 1, 0, 1, 0, 1, 0, 1])
        before = state.cut_size
        res = refine_pair(state, 0, 1, BalanceConstraint(2, 15.0))
        assert state.cut_size < before
        assert res.gain == before - state.cut_size

    def test_never_worsens(self):
        hg = chain_hg(8)
        state = PartitionState(hg, 2, [0, 0, 0, 0, 1, 1, 1, 1])
        before = state.cut_size  # already optimal = 1
        refine_pair(state, 0, 1, BalanceConstraint(2, 15.0))
        assert state.cut_size <= before

    def test_respects_bounds(self):
        hg = chain_hg(8)
        state = PartitionState(hg, 2, [0, 1, 0, 1, 0, 1, 0, 1])
        c = BalanceConstraint(2, 12.5)
        refine_pair(state, 0, 1, c)
        assert c.satisfied(state.part_weight)

    def test_only_pair_parts_touched(self):
        hg = chain_hg(9)
        init = [0, 0, 0, 1, 1, 1, 2, 2, 2]
        state = PartitionState(hg, 3, init)
        refine_pair(state, 0, 1, BalanceConstraint(3, 15.0))
        # partition 2's membership is untouched
        assert [v for v in range(9) if state.part[v] == 2] == [6, 7, 8]

    def test_gain_counts_third_party_edges(self):
        """Moving a vertex can cut an edge into partition 2; the k-way
        gain must see that."""
        hg = Hypergraph.from_edges([1, 1, 1], [[0, 1], [1, 2]])
        state = PartitionState(hg, 3, [0, 0, 2])
        # moving v1 to part 1 would cut edge {0,1} while edge {1,2}
        # stays cut: net gain -1, so FM must not do it
        before = state.cut_size
        refine_pair(state, 0, 1, BalanceConstraint(3, 100.0))
        assert state.cut_size <= before


class TestDegeneratePairs:
    """A pair must be two distinct partitions of the state; anything
    else is rejected before a pass starts, naming both ids."""

    @pytest.mark.parametrize("fn", [refine_pair, rebalance_pair])
    @pytest.mark.parametrize("a,b", [(0, 9), (9, 0), (0, 0), (-1, 2), (2, -1), (0, 4)])
    def test_rejected_up_front(self, fn, a, b):
        state = PartitionState(chain_hg(8), 4, [0, 0, 1, 1, 2, 2, 3, 3])
        before = state.part.copy()
        with pytest.raises(PartitionError) as err:
            fn(state, a, b, BalanceConstraint(4, 50.0))
        assert str(err.value) == (
            f"{fn.__name__} needs two distinct partitions in [0,4), "
            f"got {a} and {b}"
        )
        np.testing.assert_array_equal(state.part, before)

    def test_every_valid_pair_is_accepted(self):
        state = PartitionState(chain_hg(8), 4, [0, 0, 1, 1, 2, 2, 3, 3])
        for a in range(4):
            for b in range(4):
                if a != b:
                    refine_pair(state, a, b, BalanceConstraint(4, 50.0))
                    rebalance_pair(state, a, b, BalanceConstraint(4, 50.0))


@st.composite
def state_and_pair(draw):
    n = draw(st.integers(4, 12))
    m = draw(st.integers(2, 14))
    k = draw(st.integers(2, 4))
    edges = []
    for _ in range(m):
        size = draw(st.integers(2, min(n, 4)))
        edges.append(
            draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size, unique=True))
        )
    weights = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    init = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    a = draw(st.integers(0, k - 1))
    b = draw(st.integers(0, k - 1).filter(lambda x: True))
    return Hypergraph.from_edges(weights, edges), k, init, a, (b % k)


class TestFMProperties:
    @given(state_and_pair())
    @settings(max_examples=80, deadline=None)
    def test_reported_gain_matches_cut_delta(self, data):
        hg, k, init, a, b = data
        if a == b:
            b = (a + 1) % k
        state = PartitionState(hg, k, init)
        before = hyperedge_cut(hg, state.part)
        res = refine_pair(state, a, b, BalanceConstraint(k, 100.0))
        after = hyperedge_cut(hg, state.part)
        assert before - after == res.gain
        assert res.gain >= 0

    @given(state_and_pair())
    @settings(max_examples=50, deadline=None)
    def test_vertices_outside_pair_never_move(self, data):
        hg, k, init, a, b = data
        if a == b:
            b = (a + 1) % k
        state = PartitionState(hg, k, init)
        outside = {
            v: int(state.part[v])
            for v in range(hg.num_vertices)
            if state.part[v] not in (a, b)
        }
        refine_pair(state, a, b, BalanceConstraint(k, 100.0))
        for v, p in outside.items():
            assert state.part[v] == p


class TestRebalance:
    def test_moves_weight_toward_light(self):
        hg = chain_hg(10)
        state = PartitionState(hg, 2, [0] * 9 + [1])
        c = BalanceConstraint(2, 10.0)
        moved = rebalance_pair(state, 0, 1, c)
        assert moved > 0
        assert c.satisfied(state.part_weight)

    def test_noop_when_balanced(self):
        hg = chain_hg(8)
        state = PartitionState(hg, 2, [0, 0, 0, 0, 1, 1, 1, 1])
        assert rebalance_pair(state, 0, 1, BalanceConstraint(2, 10.0)) == 0

    def test_prefers_low_cut_damage(self):
        hg = chain_hg(10)
        state = PartitionState(hg, 2, [0] * 9 + [1])
        rebalance_pair(state, 0, 1, BalanceConstraint(2, 10.0))
        # moving the chain tail keeps the cut at 1
        assert state.cut_size == 1
