"""Bit-identity oracles for the vectorized coarsening pipeline.

The multilevel engine's determinism contract promises byte-identical
partitions for a fixed seed, so the vectorized matcher, projection and
gain-gather kernels must reproduce their scalar predecessors *exactly*
— same mapping ints, same float scores bit for bit, same CSR arrays.
This module pins each against its retained reference implementation
(:func:`repro.core.multilevel._heavy_edge_matching_reference`,
:func:`repro.hypergraph.build._project_hypergraph_reference`) across
randomized seeds, k and adversarial edge shapes (edges that collapse
after contraction, clock-net-wide edges past the scoring limit,
all-parallel edge bundles), plus a forced fingerprint-collision stress
test for the projection's dedup fallback and golden end-to-end digests
for the batch refiner's incremental gather.
"""

import hashlib

import numpy as np
import pytest

import repro.hypergraph.build as build_mod
from repro.core import BalanceConstraint, multilevel_kway_partition
from repro.core.batch_refine import batch_refine
from repro.core.multilevel import (
    MultilevelConfig,
    _heavy_edge_matching,
    _heavy_edge_matching_reference,
)
from repro.errors import HypergraphError
from repro.hypergraph import Hypergraph, PartitionState
from repro.hypergraph.build import (
    _project_hypergraph_reference,
    project_hypergraph,
)


def random_hypergraph(rng, n_max=48, e_max=70, adversarial=0, isolated=0):
    """Random circuit-ish hypergraph; ``adversarial`` selects a shape:
    0 plain, 1 all-parallel bundle, 2 clock-net-wide edge, 3 both.
    ``isolated`` appends that many vertices on no edge at all."""
    n = int(rng.integers(2, n_max))
    ne = int(rng.integers(1, e_max))
    edges = [
        rng.integers(0, n, int(rng.integers(1, min(n, 9) + 1))).tolist()
        for _ in range(ne)
    ]
    if adversarial in (1, 3):
        edges += [edges[0]] * 4  # parallel copies of one edge
    if adversarial in (2, 3):
        edges.append(list(range(n)))  # one clock/reset-wide net
    weights = rng.integers(1, 6, n + isolated).tolist()
    edge_weights = rng.integers(1, 4, len(edges)).tolist()
    return Hypergraph.from_edges(weights, edges, edge_weights)


def surjective_mapping(rng, n):
    """Random contraction map with no empty clusters (what matching
    always produces — every coarse id owns at least one fine vertex)."""
    raw = rng.integers(0, max(1, n // 2), n)
    _, mapping = np.unique(raw, return_inverse=True)
    return mapping.astype(np.int64)


def graphs_equal(a: Hypergraph, b: Hypergraph) -> bool:
    return (
        np.array_equal(a.vertex_weight, b.vertex_weight)
        and np.array_equal(a.edge_weight, b.edge_weight)
        and np.array_equal(a._edge_ptr, b._edge_ptr)
        and np.array_equal(a._edge_pins, b._edge_pins)
        and a._edge_pins.dtype == b._edge_pins.dtype == np.int64
    )


class TestMatchingOracle:
    def test_randomized_bit_identity(self):
        rng = np.random.default_rng(1234)
        for trial in range(120):
            hg = random_hypergraph(rng, adversarial=trial % 4)
            seed = int(rng.integers(0, 10_000))
            max_w = int(rng.integers(2, 24))
            limit = int(rng.integers(2, 12))
            got = _heavy_edge_matching(
                hg, np.random.default_rng(seed), max_w, limit)
            want = _heavy_edge_matching_reference(
                hg, np.random.default_rng(seed), max_w, limit)
            assert np.array_equal(got[0], want[0]), f"mapping @ {trial}"
            assert got[0].dtype == want[0].dtype == np.int64
            assert got[1] == want[1], f"matched_pairs @ {trial}"
            # float score must be the identical IEEE double, not close
            assert got[2] == want[2], f"match_score @ {trial}"

    def test_committed_benchmark_seed(self):
        # the scale ladder's committed seed (SEED=1) on a real streamed
        # rung: the production matcher must reproduce the reference on
        # the exact hypergraph the committed benchmarks coarsen
        from repro.circuits import load_stream_circuit
        from repro.hypergraph.build import streamed_flat_hypergraph

        hg = streamed_flat_hypergraph(load_stream_circuit("viterbi-s10k"))
        cfg = MultilevelConfig()
        constraint = BalanceConstraint(8, 5.0)
        max_w = cfg.max_cluster_weight(constraint, hg.total_weight)
        got = _heavy_edge_matching(
            hg, np.random.default_rng(1), max_w, cfg.large_edge_limit)
        want = _heavy_edge_matching_reference(
            hg, np.random.default_rng(1), max_w, cfg.large_edge_limit)
        assert np.array_equal(got[0], want[0])
        assert got[1:] == want[1:]

    def test_weight_cap_filters_candidates(self):
        # two heavy vertices may not merge; the light pair still does
        hg = Hypergraph.from_edges([5, 5, 1, 1], [[0, 1], [2, 3]])
        mapping, pairs, _ = _heavy_edge_matching(
            hg, np.random.default_rng(0), 4, 8)
        ref = _heavy_edge_matching_reference(
            hg, np.random.default_rng(0), 4, 8)
        assert np.array_equal(mapping, ref[0])
        assert pairs == ref[1] == 1
        assert mapping[0] != mapping[1] and mapping[2] == mapping[3]


class TestProjectionOracle:
    def test_randomized_byte_identity(self):
        rng = np.random.default_rng(77)
        for trial in range(120):
            hg = random_hypergraph(rng, adversarial=trial % 4)
            mapping = surjective_mapping(rng, hg.num_vertices)
            got = project_hypergraph(hg, mapping)
            want = _project_hypergraph_reference(hg, mapping)
            assert graphs_equal(got, want), f"trial {trial}"

    def test_all_edges_collapse(self):
        # empty-after-contraction: every edge internal to one cluster
        hg = Hypergraph.from_edges([1, 1, 1, 1], [[0, 1], [2, 3], [0, 1]])
        mapping = np.array([0, 0, 1, 1])
        got = project_hypergraph(hg, mapping)
        assert graphs_equal(got, _project_hypergraph_reference(hg, mapping))
        assert got.num_edges == 0 and got.num_vertices == 2

    def test_all_parallel_merge_weights(self):
        hg = Hypergraph.from_edges(
            [1, 1, 1, 1], [[0, 2], [1, 3], [0, 3], [1, 2]], [2, 3, 5, 7])
        mapping = np.array([0, 0, 1, 1])  # every edge becomes {0, 1}
        got = project_hypergraph(hg, mapping)
        assert graphs_equal(got, _project_hypergraph_reference(hg, mapping))
        assert got.num_edges == 1
        assert int(got.edge_weight[0]) == 17

    def test_fingerprint_collision_stress(self, monkeypatch):
        # force every fingerprint to collide: the exact-regroup fallback
        # must keep the projection byte-identical to the reference
        monkeypatch.setattr(
            build_mod, "_edge_fingerprints",
            lambda pins, starts: (
                np.zeros(len(starts), dtype=np.uint64),
                np.zeros(len(starts), dtype=np.uint64),
            ),
        )
        rng = np.random.default_rng(5150)
        for trial in range(60):
            hg = random_hypergraph(rng, n_max=28, e_max=40,
                                   adversarial=trial % 4)
            mapping = surjective_mapping(rng, hg.num_vertices)
            got = project_hypergraph(hg, mapping)
            want = _project_hypergraph_reference(hg, mapping)
            assert graphs_equal(got, want), f"collision trial {trial}"


class TestFromCsr:
    def test_matches_from_edges(self):
        edges = [[0, 2, 3], [1, 2], [0, 4]]
        a = Hypergraph.from_edges([1, 2, 3, 1, 1], edges, [1, 2, 1])
        b = Hypergraph.from_csr(
            np.array([1, 2, 3, 1, 1]), np.array([1, 2, 1]),
            np.array([0, 3, 5, 7]), np.array([0, 2, 3, 1, 2, 0, 4]),
        )
        assert graphs_equal(a, b)
        assert np.array_equal(a._vertex_ptr, b._vertex_ptr)
        assert np.array_equal(a._vertex_pins, b._vertex_pins)

    def test_widens_narrow_arrays(self):
        hg = Hypergraph.from_csr(
            np.array([1, 1], dtype=np.int32), np.array([1], dtype=np.int32),
            np.array([0, 2], dtype=np.int32), np.array([0, 1], dtype=np.int32),
        )
        for arr in (hg.vertex_weight, hg.edge_weight,
                    hg._edge_ptr, hg._edge_pins):
            assert arr.dtype == np.int64

    @pytest.mark.parametrize("ptr, pins", [
        (np.array([1, 2]), np.array([0, 1])),      # doesn't start at 0
        (np.array([0, 1]), np.array([0, 1])),      # doesn't end at len
        (np.array([0, 2, 1, 2]), np.array([0, 1])),  # decreasing
        (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)),
    ])
    def test_rejects_bad_pointer(self, ptr, pins):
        nv = max(2, int(pins.max()) + 1 if len(pins) else 2)
        ne = max(0, len(ptr) - 1)
        with pytest.raises(HypergraphError):
            Hypergraph.from_csr(
                np.ones(nv, dtype=np.int64), np.ones(ne, dtype=np.int64),
                ptr, pins,
            )


class TestGainMatrixKernel:
    def test_matches_stacked_vector_queries(self):
        # weighted edges (random_hypergraph draws weights 1..3), two
        # zero-degree vertices, a shuffled target subset on odd trials,
        # and single-block / two-block / wider edges all present
        rng = np.random.default_rng(99)
        lambdas_seen = set()
        for trial in range(60):
            hg = random_hypergraph(rng, adversarial=trial % 4, isolated=2)
            n = hg.num_vertices
            k = int(rng.integers(2, 6))
            state = PartitionState(hg, k, rng.integers(0, k, n))
            verts = np.unique(np.concatenate([
                rng.integers(0, n, int(rng.integers(1, n + 1))),
                [n - 2, n - 1],
            ]))
            assert not len(hg.vertex_edges(n - 1))
            targets = np.arange(k, dtype=np.int64)
            if trial % 2:
                targets = rng.permutation(k)[:int(rng.integers(1, k + 1))]
            edges, _ = hg.vertices_edges(verts)
            lambdas_seen |= set(np.minimum(state.edge_lambda[edges], 3)
                                .tolist())
            gains, soeds = state.move_gains_matrix(verts, targets)
            assert np.array_equal(
                gains, np.stack([state.move_gains(verts, int(p))
                                 for p in targets]))
            assert np.array_equal(
                soeds, np.stack([state.move_soed_gains(verts, int(p))
                                 for p in targets]))
        assert lambdas_seen == {1, 2, 3}

    def test_target_subset_and_empty(self):
        hg = Hypergraph.from_edges([1] * 6, [[0, 1, 2], [2, 3], [4, 5]])
        state = PartitionState(hg, 4, np.array([0, 1, 2, 3, 0, 1]))
        sub = np.array([3, 1], dtype=np.int64)
        gains, soeds = state.move_gains_matrix(np.arange(6), sub)
        assert np.array_equal(
            gains, np.stack([state.move_gains(np.arange(6), int(p))
                             for p in sub]))
        g0, s0 = state.move_gains_matrix(np.empty(0, dtype=np.int64), sub)
        assert g0.shape == (2, 0) and s0.shape == (2, 0)


class TestIncrementalGatherIdentity:
    """The cached boundary-restricted gather must leave every refiner
    decision — and therefore the end-to-end partition bytes — exactly
    where the full per-round re-gather left them.  The digests below
    were produced by the pre-vectorization full-gather implementation."""

    def synthetic(self, n=1200, seed=3):
        rng = np.random.default_rng(seed)
        weights = rng.integers(1, 4, n).tolist()
        edges = []
        for i in range(0, n - 3, 2):
            edges.append([i, i + 1, i + 2])
        for s in range(0, n, 24):
            edges.append(list(range(s, min(s + 24, n))))
        for _ in range(n // 12):
            a, b = int(rng.integers(0, n)), int(rng.integers(0, n))
            if a != b:
                edges.append([a, b])
        return Hypergraph.from_edges(weights, edges)

    @pytest.mark.parametrize("k, b, refiner, seed, cut, digest", [
        (2, 10.0, "fm", 1, 49, "43533d83b2337ee4"),
        (4, 10.0, "fm", 1, 77, "e296f37778389fc5"),
        (4, 10.0, "batch", 1, 88, "3a408d96abee43b4"),
        (3, 5.0, "batch", 7, 82, "b87c8d09da4bb782"),
    ])
    def test_golden_partition_digests(self, k, b, refiner, seed, cut,
                                      digest):
        result = multilevel_kway_partition(
            self.synthetic(), k, b, seed=seed, refiner=refiner)
        got = hashlib.sha256(result.assignment.tobytes()).hexdigest()[:16]
        assert (result.cut_size, got) == (cut, digest)

    def test_kick_rollback_restores_cache_coherence(self):
        # a batch_refine call whose kick loop rolls back must still
        # leave the state consistent (cut/SOED recomputable) — the
        # rollback marks the whole cache stale
        hg = self.synthetic(n=240, seed=11)
        rng = np.random.default_rng(2)
        state = PartitionState(hg, 3, rng.integers(0, 3, hg.num_vertices))
        constraint = BalanceConstraint(3, 10.0)
        result = batch_refine(state, constraint, max_kicks=4)
        cut, soed = state.cut_size, state.connectivity
        state.recompute()
        assert (state.cut_size, state.connectivity) == (cut, soed)
        assert result.gain >= 0
