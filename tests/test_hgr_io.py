"""hMetis .hgr format round trips and error handling."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import HypergraphError
from repro.hypergraph import Hypergraph, dumps_hgr, loads_hgr, read_hgr, write_hgr


def roundtrip(hg):
    return loads_hgr(dumps_hgr(hg))


class TestRoundTrip:
    def test_unweighted(self):
        hg = Hypergraph.from_edges([1, 1, 1], [[0, 1], [1, 2]])
        rt = roundtrip(hg)
        assert rt.num_vertices == 3
        assert rt.num_edges == 2
        assert list(rt.edge_vertices(0)) == [0, 1]

    def test_vertex_weights(self):
        hg = Hypergraph.from_edges([3, 1], [[0, 1]])
        rt = roundtrip(hg)
        assert rt.vertex_weight.tolist() == [3, 1]
        assert "10" in dumps_hgr(hg).splitlines()[0]

    def test_edge_weights(self):
        hg = Hypergraph.from_edges([1, 1], [[0, 1]], edge_weights=[7])
        rt = roundtrip(hg)
        assert rt.edge_weight.tolist() == [7]

    def test_both_weights_fmt_11(self):
        hg = Hypergraph.from_edges([2, 1], [[0, 1]], edge_weights=[3])
        text = dumps_hgr(hg)
        assert text.splitlines()[0].endswith("11")
        rt = loads_hgr(text)
        assert rt.vertex_weight.tolist() == [2, 1]
        assert rt.edge_weight.tolist() == [3]

    def test_file_io(self, tmp_path):
        hg = Hypergraph.from_edges([1, 2], [[0, 1]])
        path = tmp_path / "x.hgr"
        write_hgr(hg, path)
        rt = read_hgr(path)
        assert rt.vertex_weight.tolist() == [1, 2]

    def test_comments_ignored(self):
        text = "% header comment\n2 3\n1 2\n% mid comment\n2 3\n"
        hg = loads_hgr(text)
        assert hg.num_edges == 2
        assert hg.num_vertices == 3


class TestErrors:
    def test_empty(self):
        with pytest.raises(HypergraphError, match="empty"):
            loads_hgr("")

    def test_bad_header(self):
        with pytest.raises(HypergraphError, match="header"):
            loads_hgr("1\n")

    def test_unsupported_fmt(self):
        with pytest.raises(HypergraphError, match="fmt"):
            loads_hgr("1 2 99\n1 2\n")

    def test_truncated(self):
        with pytest.raises(HypergraphError, match="truncated"):
            loads_hgr("3 4\n1 2\n")

    def test_pin_out_of_range(self):
        with pytest.raises(HypergraphError, match="line 2.*out of range"):
            loads_hgr("1 2\n1 3\n")

    @pytest.mark.parametrize("text,line", [
        ("a b\n", 1),                       # header
        ("% c\n\n2 3\n1 2\n2 x\n", 5),      # pin, after a comment and a blank
        ("1 2 10\n1 2\n1\n1.5\n", 4),       # vertex weight
        ("1 2 10\n1 2\n1 1\n2\n", 3),       # two numbers on a weight line
    ])
    def test_non_integer_field_names_its_line(self, text, line):
        with pytest.raises(HypergraphError, match=f"hgr line {line}:"):
            loads_hgr(text)

    @pytest.mark.parametrize("header", ["-1 2", "1 -2", "0 -1 1"])
    def test_negative_count_is_a_bad_header(self, header):
        with pytest.raises(HypergraphError, match="line 1.*header"):
            loads_hgr(header + "\n1 2\n")

    def test_weight_only_edge_line(self):
        with pytest.raises(HypergraphError, match="line 3.*no pins"):
            loads_hgr("2 3 1\n4 1 2\n7\n")

    def test_lines_past_the_declared_count(self):
        with pytest.raises(HypergraphError, match="line 4: 2 lines past"):
            loads_hgr("2 3\n1 2\n2 3\n1 3\n% c\n1 2\n")
        with pytest.raises(HypergraphError, match="line 5.*vertex weights"):
            loads_hgr("1 2 10\n1 2\n3\n4\n5\n")


@st.composite
def any_hg(draw):
    n = draw(st.integers(2, 10))
    m = draw(st.integers(1, 10))
    edges = []
    for _ in range(m):
        size = draw(st.integers(2, min(n, 4)))
        edges.append(
            draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size, unique=True))
        )
    vw = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    ew = draw(st.one_of(st.none(), st.lists(st.integers(1, 9), min_size=m, max_size=m)))
    return Hypergraph.from_edges(vw, edges, ew)


@given(any_hg())
@settings(max_examples=60, deadline=None)
def test_roundtrip_preserves_structure(hg):
    rt = roundtrip(hg)
    assert rt.num_vertices == hg.num_vertices
    assert rt.num_edges == hg.num_edges
    assert rt.vertex_weight.tolist() == hg.vertex_weight.tolist()
    assert rt.edge_weight.tolist() == hg.edge_weight.tolist()
    for e in range(hg.num_edges):
        assert list(rt.edge_vertices(e)) == list(hg.edge_vertices(e))
