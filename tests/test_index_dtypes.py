"""Index-dtype policy: the 2^31 boundary, audited end to end.

One helper (:mod:`repro.hypergraph.dtypes`) decides index widths for
the whole repo; construction paths may run int32, the frozen substrate
(:class:`Hypergraph`, :class:`PartitionState`, :class:`CompiledCircuit`,
:class:`NetlistCSR`) is int64-only.  Allocating 2^31 real ids is not an
option in a test, so the boundary itself is exercised with synthetic
``max_id`` values and the overflow guards with mocked bounds.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.circuits.stream as stream_mod
from repro.circuits.noc import NocConfig, noc_stream
from repro.circuits.stream import StreamBuilder
from repro.errors import ConfigError
from repro.hypergraph import INT32_MAX, index_dtype, require_int64
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
        assert state.edge_part_count.dtype == np.int64
        assert state.part_weight.dtype == np.int64
        assert hg._edge_ptr.dtype == np.int64
        assert hg._edge_pins.dtype == np.int64

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
