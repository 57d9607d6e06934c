"""Unit tests for the core hypergraph data structure."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import HypergraphError
from repro.hypergraph import Hypergraph


def simple_hg():
    #     e0={0,1,2}  e1={1,3}  e2={2,3}
    return Hypergraph.from_edges([1, 2, 3, 4], [[0, 1, 2], [1, 3], [2, 3]])


class TestConstruction:
    def test_counts(self):
        hg = simple_hg()
        assert hg.num_vertices == 4
        assert hg.num_edges == 3
        assert hg.num_pins == 7
        assert hg.total_weight == 10

    def test_edge_vertices_sorted(self):
        hg = Hypergraph.from_edges([1, 1, 1], [[2, 0, 1]])
        assert list(hg.edge_vertices(0)) == [0, 1, 2]

    def test_duplicate_pins_collapsed(self):
        hg = Hypergraph.from_edges([1, 1], [[0, 1, 1, 0]])
        assert hg.edge_size(0) == 2

    def test_vertex_edges(self):
        hg = simple_hg()
        assert list(hg.vertex_edges(1)) == [0, 1]
        assert list(hg.vertex_edges(3)) == [1, 2]
        assert hg.vertex_degree(0) == 1

    def test_default_edge_weights_one(self):
        hg = simple_hg()
        assert (hg.edge_weight == 1).all()

    def test_explicit_edge_weights(self):
        hg = Hypergraph.from_edges([1, 1], [[0, 1]], edge_weights=[5])
        assert hg.edge_weight[0] == 5

    def test_neighbors(self):
        hg = simple_hg()
        assert hg.neighbors(0) == {1, 2}
        assert hg.neighbors(3) == {1, 2}

    def test_iter_edges(self):
        hg = simple_hg()
        seen = {e: list(p) for e, p in hg.iter_edges()}
        assert seen[1] == [1, 3]

    def test_empty_edge_set(self):
        hg = Hypergraph.from_edges([1, 1], [])
        assert hg.num_edges == 0
        assert hg.vertex_degree(0) == 0


class TestValidation:
    def test_zero_vertex_weight_rejected(self):
        with pytest.raises(HypergraphError, match="non-positive weight"):
            Hypergraph.from_edges([1, 0], [[0, 1]])

    def test_zero_edge_weight_rejected(self):
        with pytest.raises(HypergraphError, match="non-positive weight"):
            Hypergraph.from_edges([1, 1], [[0, 1]], edge_weights=[0])

    def test_pin_out_of_range_rejected(self):
        with pytest.raises(HypergraphError, match="out of range"):
            Hypergraph.from_edges([1, 1], [[0, 5]])


class TestBuilder:
    """:meth:`Hypergraph.from_edges` — the constructor from pin lists."""

    def test_basic_flow(self):
        hg = Hypergraph.from_edges([2, 1], [[0, 1]])
        assert hg.num_vertices == 2
        assert hg.total_weight == 3


@st.composite
def random_hypergraph(draw):
    n = draw(st.integers(2, 12))
    m = draw(st.integers(1, 15))
    edges = []
    for _ in range(m):
        size = draw(st.integers(2, min(n, 4)))
        pins = draw(
            st.lists(st.integers(0, n - 1), min_size=size, max_size=size, unique=True)
        )
        edges.append(pins)
    weights = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    return Hypergraph.from_edges(weights, edges)


class TestProperties:
    @given(random_hypergraph())
    @settings(max_examples=60, deadline=None)
    def test_incidence_is_symmetric(self, hg):
        """v in edge_vertices(e) iff e in vertex_edges(v)."""
        for e in range(hg.num_edges):
            for v in hg.edge_vertices(e):
                assert e in hg.vertex_edges(int(v))
        for v in range(hg.num_vertices):
            for e in hg.vertex_edges(v):
                assert v in hg.edge_vertices(int(e))

    @given(random_hypergraph())
    @settings(max_examples=60, deadline=None)
    def test_pin_count_consistent(self, hg):
        from_edges = sum(hg.edge_size(e) for e in range(hg.num_edges))
        from_vertices = sum(hg.vertex_degree(v) for v in range(hg.num_vertices))
        assert from_edges == from_vertices == hg.num_pins
