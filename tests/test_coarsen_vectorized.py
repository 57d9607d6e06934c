"""Property oracles for the array-native coarsening pipeline.

Neither kernel keeps a second implementation in ``src/``: what each must
do is stated here as a small brute-force oracle.  For
:func:`repro.hypergraph.build.project_hypergraph` that is a set-per-edge
contraction (cut-exactness for random coarse assignments, parallel-edge
weight sums, first-fine-occurrence edge order, zero- and one-pin edges
beside isolated vertices, a forced fingerprint-collision stress of the
dedup fallback with a spy that it ran); for the sub-round
clustering level kernel (:func:`repro.core.multilevel._cluster_level`) a
checker of the invariants any legal clustering has — no merged cluster
past the cap, every cluster connected through scoring edges, ids
numbered by smallest member, same bytes for the same ``(hg, seed)`` —
over random and adversarial hypergraphs (parallel bundles, clock-wide
edges, stars, a hub on a ring, nothing to score at all).  Plus the CSR
constructor, the gain-matrix kernel and golden end-to-end digests for
the batch refiner's incremental gather.
"""

import hashlib

import numpy as np
import pytest

import repro.core.multilevel as multilevel_mod
import repro.hypergraph.build as build_mod
from repro.core import (
    BalanceConstraint,
    coarsen_hypergraph,
    multilevel_kway_partition,
)
from repro.core.batch_refine import batch_refine
from repro.core.multilevel import (
    COARSE_SHRINK,
    SUB_ROUNDS,
    MultilevelConfig,
    _cluster_level,
)
from repro.errors import HypergraphError, PartitionError
from repro.hypergraph import Hypergraph, PartitionState, hyperedge_cut
from repro.hypergraph.build import project_hypergraph
from tests.gain_oracle import exact_move_gains


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


def degenerate_hypergraph(rng):
    """Random hypergraph frozen through ``from_csr`` with the shapes
    ``from_edges`` input rarely makes: zero-pin edges, one-pin edges,
    parallel copies, and vertices past ``used`` that no edge touches."""
    n = int(rng.integers(2, 36))
    used = int(rng.integers(1, n + 1))
    edges = [
        np.sort(rng.choice(used, min(int(size), used), replace=False))
        for size in rng.choice([0, 0, 1, 2, 2, 3, 5], int(rng.integers(1, 40)))
    ]
    edges += edges[:int(rng.integers(0, 4))]
    ptr = np.zeros(len(edges) + 1, dtype=np.int64)
    np.cumsum([len(e) for e in edges], out=ptr[1:])
    return Hypergraph.from_csr(
        rng.integers(1, 6, n), rng.integers(1, 4, len(edges)), ptr,
        np.concatenate(edges).astype(np.int64),
    )


def surjective_mapping(rng, n):
    """Random contraction map with no empty clusters (what clustering
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


def oracle_projection(hg: Hypergraph, mapping: np.ndarray) -> Hypergraph:
    """Set-per-edge contraction — the spec of ``project_hypergraph``:
    an edge becomes the set of its pins' clusters, sets of one vanish,
    equal sets merge (weights summed) at their first fine occurrence."""
    weights = [0] * (int(mapping.max()) + 1)
    for v, c in enumerate(mapping.tolist()):
        weights[c] += int(hg.vertex_weight[v])
    merged: dict[tuple[int, ...], int] = {}
    for e, pins in hg.iter_edges():
        key = tuple(sorted({int(mapping[v]) for v in pins}))
        if len(key) >= 2:
            merged[key] = merged.get(key, 0) + int(hg.edge_weight[e])
    return Hypergraph.from_edges(weights, list(merged), list(merged.values()))


def check_clustering(hg: Hypergraph, mapping: np.ndarray, cap: int,
                     limit: int) -> None:
    """Brute-force check of what any legal clustering level satisfies."""
    assert mapping.shape == (hg.num_vertices,) and mapping.dtype == np.int64
    members: dict[int, list[int]] = {}
    for v, c in enumerate(mapping.tolist()):
        members.setdefault(c, []).append(v)
    # numbered by smallest member: ids appear in order of first sight
    assert list(members) == list(range(len(members)))
    weight = hg.vertex_weight.tolist()
    assert sum(sum(weight[v] for v in vs) for vs in members.values()) \
        == hg.total_weight
    # vertices sharing a scoring edge *and* a cluster are linked: every
    # join went along a positive rating iff each cluster is connected
    # (so a vertex heavier than the cap, or on no scoring edge, is alone)
    linked: dict[int, set[int]] = {v: set() for v in range(hg.num_vertices)}
    for _, pins in hg.iter_edges():
        if 2 <= len(pins) <= limit:
            for v in pins.tolist():
                linked[v].update(u for u in pins.tolist()
                                 if mapping[u] == mapping[v])
    for vs in members.values():
        if len(vs) >= 2:
            assert sum(weight[v] for v in vs) <= cap, vs
        seen, todo = {vs[0]}, [vs[0]]
        while todo:
            for u in linked[todo.pop()] - seen:
                seen.add(u)
                todo.append(u)
        assert seen == set(vs), f"cluster {vs} not connected"


def cluster(hg, seed, cap, limit=48):
    return _cluster_level(hg, np.random.default_rng(seed), cap, limit)


def star(leaves: int) -> Hypergraph:
    return Hypergraph.from_edges(
        [1] * (leaves + 1), [[0, v] for v in range(1, leaves + 1)])


class TestMatchingOracle:
    """The clustering level kernel (class and test ids kept from the
    pair-matching era it replaced)."""

    def test_randomized_invariants(self):
        rng = np.random.default_rng(1234)
        shrunk = 0
        for trial in range(160):
            hg = random_hypergraph(rng, adversarial=trial % 4,
                                   isolated=trial % 3)
            seed = int(rng.integers(0, 10_000))
            cap = int(rng.integers(2, 24))
            limit = int(rng.integers(2, 12))
            mapping, rating, (subs, proposed, conflicts, capped) = \
                cluster(hg, seed, cap, limit)
            check_clustering(hg, mapping, cap, limit)
            merged = hg.num_vertices - (int(mapping.max()) + 1)
            assert merged == proposed - conflicts - capped
            assert (rating > 0) == (merged > 0)
            assert subs >= 1
            shrunk += merged > 0
        assert shrunk > 120  # the properties were not checked on nothing

    def test_randomized_bit_identity(self):
        # same (hg, seed) -> same mapping ints, same float rating, same
        # join counts; a fresh Generator per call, nothing else carried
        rng = np.random.default_rng(4321)
        for trial in range(60):
            hg = random_hypergraph(rng, adversarial=trial % 4)
            seed = int(rng.integers(0, 10_000))
            a, b = cluster(hg, seed, 12, 9), cluster(hg, seed, 12, 9)
            assert a[0].tobytes() == b[0].tobytes(), f"mapping @ {trial}"
            assert a[1:] == b[1:], f"rating / joins @ {trial}"

    def test_committed_benchmark_seed(self):
        # the scale ladder's committed seed (SEED=1) on a real streamed
        # rung, under the cap and edge limit the engine runs with
        from repro.circuits import load_stream_circuit
        from repro.hypergraph.build import streamed_flat_hypergraph

        hg = streamed_flat_hypergraph(load_stream_circuit("viterbi-s10k"))
        cfg = MultilevelConfig()
        cap = cfg.max_cluster_weight(BalanceConstraint(8, 5.0),
                                     hg.total_weight)
        mapping, _, (subs, *_) = cluster(hg, 1, cap, cfg.large_edge_limit)
        check_clustering(hg, mapping, cap, cfg.large_edge_limit)
        assert np.array_equal(
            mapping, cluster(hg, 1, cap, cfg.large_edge_limit)[0])
        # a level shrinks to its bound and then stops spending sub-rounds
        assert hg.num_vertices / (int(mapping.max()) + 1) >= COARSE_SHRINK
        assert subs < SUB_ROUNDS

    def test_weight_cap_filters_candidates(self):
        # two heavy vertices may not merge; the light pair still does
        hg = Hypergraph.from_edges([5, 5, 1, 1], [[0, 1], [2, 3]])
        mapping, rating, joins = cluster(hg, 0, 4, 8)
        assert mapping.tolist() == [0, 1, 2, 2]
        assert rating == 1.0 and joins[1] - joins[2] - joins[3] == 1

    def test_heavier_than_cap_vertex_stays_single(self):
        # vertex 0 alone outweighs the cap: nobody joins it, it joins
        # nobody, the rest of its edge still clusters
        hg = Hypergraph.from_edges([9, 1, 1, 1], [[0, 1, 2, 3], [0, 1]])
        for seed in range(8):
            mapping, _, _ = cluster(hg, seed, 4, 8)
            check_clustering(hg, mapping, 4, 8)
            assert (mapping == mapping[0]).sum() == 1
            assert len(set(mapping.tolist())) == 2

    def test_cap_admits_lightest_joiners_first(self, monkeypatch):
        # one sub-round, so every leaf proposes to the hub at once: the
        # cap has room for weight 4 beside the hub, taken lightest first
        # (id on ties) — leaves 2, 4, 5, never the heavy leaf 1
        monkeypatch.setattr(multilevel_mod, "SUB_ROUNDS", 1)
        hg = Hypergraph.from_edges(
            [1, 3, 1, 2, 1, 1], [[0, v] for v in range(1, 6)])
        for seed in range(6):
            mapping, _, (_, proposed, conflicts, capped) = \
                cluster(hg, seed, 5, 8)
            assert mapping.tolist() == [0, 1, 0, 2, 0, 0]
            # the hub's own proposal loses to the rule, two leaves to the cap
            assert (proposed, conflicts, capped) == (6, 1, 2)

    def test_star_and_hub_on_ring_shrink(self):
        # pair matching found one pair per pass on a star and stalled at
        # zero levels; clusters grow around the hub up to the cap
        constraint = BalanceConstraint(2, 10.0)
        coarsest, levels = coarsen_hypergraph(star(499), constraint, seed=1)
        assert levels and coarsest.num_vertices < 400
        n = 400
        ring = [[v, v % n + 1] for v in range(1, n + 1)]
        hub = Hypergraph.from_edges(
            [1] * (n + 1), ring + [[0, v] for v in range(1, n + 1)])
        coarsest, levels = coarsen_hypergraph(hub, constraint, seed=1)
        assert len(levels) >= 2 and coarsest.num_vertices <= n // 2
        for level in levels:
            check_clustering(level.fine, level.mapping,
                             level.max_cluster_weight, 48)

    @pytest.mark.parametrize("edges", [
        [],                              # no edge at all
        [[3], [5], [7]],                 # only one-pin edges
        [list(range(12))],               # one edge wider than the limit
        [list(range(12))] * 3 + [[4]],
    ])
    def test_nothing_to_score_is_the_identity(self, edges):
        hg = Hypergraph.from_edges([1] * 12, edges)
        mapping, rating, joins = cluster(hg, 3, 100, 8)
        assert mapping.tolist() == list(range(12))
        assert rating == 0.0 and joins[1:] == (0, 0, 0)
        coarsest, levels = coarsen_hypergraph(
            hg, BalanceConstraint(2, 10.0), seed=3,
            config=MultilevelConfig(coarsest_vertices=4,
                                    coarsest_per_part=1,
                                    large_edge_limit=8))
        assert coarsest is hg and not levels

    def test_parallel_bundle_merges_exactly_its_pair(self):
        hg = Hypergraph.from_edges([1] * 10, [[2, 7]] * 300)
        for seed in range(6):
            mapping, rating, _ = cluster(hg, seed, 100, 8)
            assert mapping.tolist() == [0, 1, 2, 3, 4, 5, 6, 2, 7, 8]
            assert rating == 300.0

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 9])
    def test_fewer_vertices_than_sub_rounds(self, n):
        hg = Hypergraph.from_edges(
            [1] * n, [[v, v + 1] for v in range(n - 1)])
        mapping, _, _ = cluster(hg, 0, 2, 8)
        check_clustering(hg, mapping, 2, 8)


class TestProjectionOracle:
    def test_randomized_byte_identity(self):
        rng = np.random.default_rng(77)
        for trial in range(120):
            hg = random_hypergraph(rng, adversarial=trial % 4)
            mapping = surjective_mapping(rng, hg.num_vertices)
            got = project_hypergraph(hg, mapping)
            assert graphs_equal(got, oracle_projection(hg, mapping)), \
                f"trial {trial}"
            # cut-exact: any coarse assignment cuts the same weight on
            # both sides of the contraction
            k = int(rng.integers(2, 5))
            coarse = rng.integers(0, k, got.num_vertices)
            assert hyperedge_cut(got, coarse) \
                == hyperedge_cut(hg, coarse[mapping])

    def test_all_edges_collapse(self):
        # empty-after-contraction: every edge internal to one cluster
        hg = Hypergraph.from_edges([1, 1, 1, 1], [[0, 1], [2, 3], [0, 1]])
        mapping = np.array([0, 0, 1, 1])
        got = project_hypergraph(hg, mapping)
        assert graphs_equal(got, oracle_projection(hg, mapping))
        assert got.num_edges == 0 and got.num_vertices == 2

    def test_all_parallel_merge_weights(self):
        hg = Hypergraph.from_edges(
            [1, 1, 1, 1], [[0, 2], [1, 3], [0, 3], [1, 2]], [2, 3, 5, 7])
        mapping = np.array([0, 0, 1, 1])  # every edge becomes {0, 1}
        got = project_hypergraph(hg, mapping)
        assert graphs_equal(got, oracle_projection(hg, mapping))
        assert got.num_edges == 1
        assert int(got.edge_weight[0]) == 17

    def test_first_fine_occurrence_order(self):
        # {1, 2} is first seen at fine edge 0, {0, 1} at edge 1, and the
        # later parallel copies only add weight
        hg = Hypergraph.from_edges(
            [1] * 6, [[2, 4], [0, 3], [1, 2], [3, 5], [0, 1, 2]],
            [1, 2, 4, 8, 16])
        got = project_hypergraph(hg, np.array([0, 0, 1, 1, 2, 2]))
        assert got._edge_pins.tolist() == [1, 2, 0, 1]
        assert got.edge_weight.tolist() == [1 + 8, 2 + 4 + 16]

    def test_fingerprint_collision_stress(self, monkeypatch):
        # force every fingerprint to collide: the exact-regroup fallback
        # must keep the projection byte-identical to the oracle
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
            assert graphs_equal(got, oracle_projection(hg, mapping)), \
                f"collision trial {trial}"

    def test_degenerate_edges_byte_identity(self):
        # zero-pin edges are where a per-edge reduceat misreads its
        # segment; one-pin edges and isolated vertices ride along
        rng = np.random.default_rng(404)
        seen = np.zeros(3, dtype=np.int64)
        for trial in range(150):
            hg = degenerate_hypergraph(rng)
            sizes = np.diff(hg._edge_ptr)
            seen += [(sizes == 0).any(), (sizes == 1).any(),
                     (np.bincount(hg.pin_vertices,
                                  minlength=hg.num_vertices) == 0).any()]
            mapping = surjective_mapping(rng, hg.num_vertices)
            got = project_hypergraph(hg, mapping)
            assert graphs_equal(got, oracle_projection(hg, mapping)), \
                f"trial {trial}"
            coarse = rng.integers(0, 3, got.num_vertices)
            assert hyperedge_cut(got, coarse) \
                == hyperedge_cut(hg, coarse[mapping])
        assert (seen > 50).all(), seen

    def test_collision_fallback_runs(self, monkeypatch):
        # under forced collisions every surviving edge lands in one
        # fingerprint run, so the exact regroup must run whenever two
        # coarse edges differ — and still match the oracle
        monkeypatch.setattr(
            build_mod, "_edge_fingerprints",
            lambda pins, starts: (
                np.zeros(len(starts), dtype=np.uint64),
                np.zeros(len(starts), dtype=np.uint64),
            ),
        )
        calls = []
        regroup = build_mod._regroup_collisions
        monkeypatch.setattr(build_mod, "_regroup_collisions",
                            lambda *args: calls.append(1) or regroup(*args))
        rng = np.random.default_rng(6160)
        expected = 0
        for trial in range(60):
            hg = degenerate_hypergraph(rng)
            mapping = surjective_mapping(rng, hg.num_vertices)
            want = oracle_projection(hg, mapping)
            expected += want.num_edges >= 2
            assert graphs_equal(project_hypergraph(hg, mapping), want), \
                f"collision trial {trial}"
        assert len(calls) == expected > 20

    @pytest.mark.parametrize("mapping, named", [
        ([0, 1, 1, -1], "vertex 3"),    # an id below 0
        ([0, 1, 1, 7], "vertex 3"),     # an id no 4 vertices can reach
        ([0, 0, 1, 2.7], "vertex 3"),   # not an integer
        ([0, 1, 1, 3], "cluster 2"),    # id 2 unused
    ])
    def test_bad_mapping_named(self, mapping, named):
        hg = Hypergraph.from_edges([1, 2, 3, 4], [[0, 1], [1, 2]])
        with pytest.raises(PartitionError, match=named):
            project_hypergraph(hg, mapping)


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
                soeds, exact_move_gains(state, verts, targets)[1])
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
    where the full per-round re-gather left them.  The digests were
    first produced by the full-gather implementation; they were re-pinned
    (refiner untouched) when sub-round clustering replaced pair matching
    and every hierarchy under them changed — the cache-vs-kernel
    equivalence itself is asserted round by round in
    ``tests/test_batch_refine.py``."""

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
        (2, 10.0, "fm", 1, 44, "753a93ca9336957b"),
        (4, 10.0, "fm", 1, 83, "7be1ca2c4867009f"),
        (4, 10.0, "batch", 1, 98, "052ccc643f2a0336"),
        (3, 5.0, "batch", 7, 90, "72d956dfbf0d7b50"),
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
