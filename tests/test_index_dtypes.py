"""Index-dtype policy: the 2^31 boundary, audited end to end.

One helper (:mod:`repro.hypergraph.dtypes`) decides index widths for
the whole repo; construction paths may run int32, the frozen substrate
(:class:`Hypergraph`, :class:`PartitionState`, :class:`CompiledCircuit`,
:class:`Netlist`) is int64-only, except ``edge_part_count``, whose
counts are bounded by the largest net's pins.  Allocating 2^31 real ids
is not an option in a test, so the boundary itself is exercised with
synthetic ``max_id`` values and the overflow guards with mocked bounds.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.circuits.stream as stream_mod
import repro.hypergraph.dtypes as dtypes_mod
import repro.hypergraph.partition_state as state_mod
from repro.circuits.noc import NocConfig, noc_stream
from repro.circuits.stream import StreamBuilder
from repro.errors import ConfigError
from repro.hypergraph import Hypergraph, INT32_MAX, index_dtype, require_int64
from repro.hypergraph.build import flat_hypergraph
from repro.hypergraph.partition_state import PartitionState
from repro.sim.compiled import compile_circuit

_NOC = NocConfig(rows=2, cols=2, width=3)


class TestIndexDtypeBoundary:
    """Synthetic sizes straddling 2^31 — the only place the rule lives."""

    @pytest.mark.parametrize(
        "max_id,expected",
        [
            (-1, np.int32),  # empty id range
            (0, np.int32),
            (1 << 20, np.int32),
            (INT32_MAX - 1, np.int32),
            (INT32_MAX, np.int32),  # last id that fits
            (INT32_MAX + 1, np.int64),  # first that does not
            (1 << 40, np.int64),
        ],
    )
    def test_boundary(self, max_id, expected):
        assert index_dtype(max_id) == np.dtype(expected)

    def test_require_int64_is_identity_on_int64(self):
        a = np.arange(5, dtype=np.int64)
        assert require_int64(a) is a

    def test_require_int64_widens_int32(self):
        a = np.arange(5, dtype=np.int32)
        b = require_int64(a)
        assert b.dtype == np.int64
        assert np.array_equal(a, b)


class TestStreamBuilderOverflowGuard:
    def test_small_expected_nets_builds_int32_chunks(self):
        b = StreamBuilder("t", expected_nets=1000)
        assert b._dtype == np.dtype(np.int32)

    def test_huge_expected_nets_builds_int64_chunks(self):
        b = StreamBuilder("t", expected_nets=INT32_MAX + 2)
        assert b._dtype == np.dtype(np.int64)
        # int64 chunks have no overflow cliff to guard
        b._num_nets = INT32_MAX + 10
        b._alloc(4)  # does not raise

    def test_int32_overflow_raises_with_mocked_bound(self, monkeypatch):
        """The guard fires at the bound without allocating 2^31 nets."""
        monkeypatch.setattr(stream_mod, "INT32_MAX", 64)
        b = StreamBuilder("tiny")
        b._alloc(60)  # still under the mocked bound
        with pytest.raises(ConfigError, match="exceeded int32"):
            b._alloc(10)

    def test_builder_output_is_int64_regardless_of_chunk_width(self):
        """int32 accumulation, int64 freeze — the one upcast."""
        csr = noc_stream(_NOC)
        for arr in (csr.gate_output, csr.pin_ptr, csr.pin_net,
                    csr.inputs, csr.outputs):
            assert arr.dtype == np.int64


class TestFrozenSubstrateIsInt64:
    """partition_state / compiled audit: every index array the query
    kernels mix with arange/repeat products is int64."""

    def test_partition_state_arrays(self):
        hg = flat_hypergraph(noc_stream(_NOC))
        state = PartitionState(hg, 3)
        assert state.part.dtype == np.int64
        assert state.edge_lambda.dtype == np.int64
        assert state.part_weight.dtype == np.int64
        assert hg._edge_ptr.dtype == np.int64
        assert hg._edge_pins.dtype == np.int64
        # a count never exceeds the pins of one net
        widest = int(np.diff(hg._edge_ptr).max())
        assert state.edge_part_count.dtype == index_dtype(widest) == np.int32

    def test_counts_widen_past_the_int32_boundary(self, monkeypatch):
        """A net wider than the (mocked) int32 range gets int64 counts,
        and nothing the state reports depends on the width."""
        hg = flat_hypergraph(noc_stream(_NOC))
        rng = np.random.default_rng(31)
        assign = rng.integers(0, 3, hg.num_vertices)
        narrow = PartitionState(hg, 3, assign)
        monkeypatch.setattr(dtypes_mod, "INT32_MAX", 2)
        wide = PartitionState(hg, 3, assign)
        assert int(np.diff(hg._edge_ptr).max()) > 2
        assert narrow.edge_part_count.dtype == np.int32
        assert wide.edge_part_count.dtype == np.int64
        targets = np.arange(3)
        for _ in range(4):
            assert (wide.cut_size, wide.connectivity) == (
                narrow.cut_size, narrow.connectivity)
            np.testing.assert_array_equal(wide.edge_lambda,
                                          narrow.edge_lambda)
            np.testing.assert_array_equal(wide.edge_part_count,
                                          narrow.edge_part_count)
            verts = np.arange(hg.num_vertices)
            for got, want in zip(wide.move_gains_matrix(verts, targets),
                                 narrow.move_gains_matrix(verts, targets)):
                np.testing.assert_array_equal(got, want)
            batch = rng.choice(hg.num_vertices, 40, replace=False)
            to = rng.integers(0, 3, 40)
            assert wide.move_batch(batch, to)[0] == \
                narrow.move_batch(batch, to)[0]
        assert wide.edge_part_count.dtype == np.int64

    def test_compiled_circuit_arrays(self):
        cc = compile_circuit(noc_stream(_NOC))
        assert cc.gate_output.dtype == np.int64
        assert cc.pin_offsets.dtype == np.int64
        assert cc.pin_net.dtype == np.int64
        assert cc.sink_offsets.dtype == np.int64
        assert cc.sink_gate.dtype == np.int64
        assert cc.table.pins.dtype == np.int64
        assert cc.table.fan_ptr.dtype == np.int64

    def test_batch_move_gains_stay_int64(self):
        """batch_refine's gather path returns int64 gains — no silent
        float or int32 intermediate."""
        hg = flat_hypergraph(noc_stream(_NOC))
        state = PartitionState(hg, 3)
        boundary = np.arange(hg.num_vertices, dtype=np.int64)
        gains = state.move_gains(boundary, 1)
        matrix, soed = state.move_gains_matrix(boundary, np.arange(3))
        assert gains.dtype == np.int64
        assert matrix.dtype == np.int64
        assert soed.dtype == np.int64


def _add_at_counts(hg: Hypergraph, part: np.ndarray, k: int) -> np.ndarray:
    """The pre-bincount construction: one int64 ``np.add.at`` over the
    pins."""
    counts = np.zeros((hg.num_edges, k), dtype=np.int64)
    np.add.at(counts, (hg.pin_edges, part[hg.pin_vertices]), 1)
    return counts


def _oracle_hypergraph(rng, k: int) -> Hypergraph:
    """Random hypergraph with zero-pin nets, one-pin nets and one net on
    every vertex (it spans every block of the assignments below)."""
    n = int(rng.integers(k, k + 40))
    sizes = rng.choice([0, 0, 1, 2, 3, 5, 8], int(rng.integers(1, 60)))
    edges = [np.sort(rng.choice(n, min(int(s), n), replace=False))
             for s in sizes]
    edges.append(np.arange(n))
    ptr = np.zeros(len(edges) + 1, dtype=np.int64)
    np.cumsum([len(e) for e in edges], out=ptr[1:])
    return Hypergraph.from_csr(
        rng.integers(1, 5, n), rng.integers(1, 4, len(edges)), ptr,
        np.concatenate(edges).astype(np.int64))


class TestEdgePartCountOracle:
    """``recompute``'s chunked bincount and ``move_batch``'s rank-keyed
    bincounts against the ``np.add.at`` construction they replaced."""

    @pytest.mark.parametrize("k", [1, 2, 9])
    def test_recompute_and_move_batches(self, k, monkeypatch):
        monkeypatch.setattr(state_mod, "_RECOMPUTE_CELLS", 4)
        rng = np.random.default_rng(100 + k)
        zero_pin = 0
        for _ in range(40):
            hg = _oracle_hypergraph(rng, k)
            n = hg.num_vertices
            part = rng.integers(0, k, n)
            part[:k] = np.arange(k)  # the all-vertex net spans every block
            state = PartitionState(hg, k, part)
            zero_pin += bool((np.diff(hg._edge_ptr) == 0).any())
            np.testing.assert_array_equal(
                state.edge_part_count, _add_at_counts(hg, part, k))
            assert state.edge_lambda[-1] == k
            oracle = state.edge_part_count.astype(np.int64)
            for _ in range(6):
                size = int(rng.integers(1, n + 1))
                verts = rng.choice(n, size, replace=False)
                to = rng.integers(0, k, size)
                frm = state.part[verts]
                edges, deg = hg.vertices_edges(verts)
                np.subtract.at(oracle, (edges, np.repeat(frm, deg)), 1)
                np.add.at(oracle, (edges, np.repeat(to, deg)), 1)
                state.move_batch(verts, to)
                np.testing.assert_array_equal(state.edge_part_count, oracle)
                np.testing.assert_array_equal(
                    oracle, _add_at_counts(hg, state.part, k))
                np.testing.assert_array_equal(
                    state.edge_lambda, np.count_nonzero(oracle, axis=1))
                fresh = PartitionState(hg, k, state.part)
                assert (state.cut_size, state.connectivity) == (
                    fresh.cut_size, fresh.connectivity)
            assert state.edge_part_count.dtype == np.int32
        assert zero_pin > 20
