"""Equivalence tests for the vectorized incremental partition core.

The optimized bookkeeping (λ cache, plain-list mirrors, batch gains,
derived-array snapshots — docs/performance.md) is only admissible
because it computes *exactly* the integers the naive path would.  These
tests pin that contract from several directions:

* randomized interleavings of ``move`` / ``copy`` / ``bulk_assign`` /
  ``snapshot``+``restore`` against a fresh ``recompute()`` oracle;
* batch ``move_gains`` against scalar ``move_gain`` over every
  (vertex, target) cell;
* the mirror invariant: the plain-``int`` lists carry the same values
  as the authoritative NumPy arrays at every observation point;
* the bulk neighbor adjacency against a brute-force rebuild;
* the tier-1 smoke form of the speed study (structural parity between
  the vectorized core and the pre-PR legacy implementation).
"""

import numpy as np
import pytest

from repro.bench.partition_speed import smoke_study, synthetic_hypergraph
from repro.hypergraph import Hypergraph, PartitionState


def _random_hg(seed: int, n: int = 60, m: int = 90) -> Hypergraph:
    rng = np.random.default_rng(seed)
    edges = []
    for _ in range(m):
        size = int(rng.integers(2, 6))
        edges.append(sorted(rng.choice(n, size=size, replace=False).tolist()))
    vw = rng.integers(1, 4, size=n).tolist()
    ew = rng.integers(1, 3, size=m).tolist()
    return Hypergraph.from_edges(vw, edges, edge_weights=ew)


def _assert_matches_oracle(state: PartitionState) -> None:
    """Derived quantities and mirrors equal a from-scratch recompute."""
    oracle = PartitionState(state.hg, state.k, state.part.copy())
    np.testing.assert_array_equal(state.edge_part_count, oracle.edge_part_count)
    np.testing.assert_array_equal(state.edge_lambda, oracle.edge_lambda)
    np.testing.assert_array_equal(state.part_weight, oracle.part_weight)
    assert state.cut_size == oracle.cut_size
    assert state.connectivity == oracle.connectivity
    # mirror invariant: the plain-list shadows carry the same integers
    assert state._part_list == state.part.tolist()
    assert state._lam_list == state.edge_lambda.tolist()
    assert state._counts_list == state.edge_part_count.tolist()
    assert state._pw_list == state.part_weight.tolist()
    # the flat alias still views the authoritative counts array
    assert state._counts_flat.base is state.edge_part_count or (
        state._counts_flat.base is state.edge_part_count.base
    )


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("k", [2, 4, 8])
def test_interleaved_ops_match_recompute(seed, k):
    hg = _random_hg(seed)
    rng = np.random.default_rng(100 + seed)
    state = PartitionState(hg, k, rng.integers(0, k, size=hg.num_vertices))
    for step in range(120):
        op = rng.integers(0, 10)
        if op < 6:
            state.move(int(rng.integers(0, hg.num_vertices)),
                       int(rng.integers(0, k)))
        elif op < 7:
            vs = rng.choice(hg.num_vertices,
                            size=int(rng.integers(1, 6)), replace=False)
            state.bulk_assign(vs.tolist(), int(rng.integers(0, k)))
        elif op < 8:
            snap = state.snapshot()
            for _ in range(int(rng.integers(1, 8))):
                state.move(int(rng.integers(0, hg.num_vertices)),
                           int(rng.integers(0, k)))
            state.restore(snap)
        else:
            state = state.copy()
        if step % 30 == 29:
            _assert_matches_oracle(state)
    _assert_matches_oracle(state)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("k", [2, 4, 8])
def test_batch_gains_equal_scalar_everywhere(seed, k):
    hg = _random_hg(seed)
    rng = np.random.default_rng(200 + seed)
    state = PartitionState(hg, k, rng.integers(0, k, size=hg.num_vertices))
    all_v = np.arange(hg.num_vertices, dtype=np.int64)
    for target in range(k):
        batch = state.move_gains(all_v, target)
        scalar = [state.move_gain(int(v), target) for v in all_v]
        assert batch.tolist() == scalar
    # mixed per-vertex targets as well
    targets = rng.integers(0, k, size=hg.num_vertices)
    batch = state.move_gains(all_v, targets)
    scalar = [state.move_gain(int(v), int(t)) for v, t in zip(all_v, targets)]
    assert batch.tolist() == scalar
    # gains predict the realized cut delta
    for v in range(0, hg.num_vertices, 7):
        t = int(targets[v])
        before = state.cut_size
        g = state.move_gain(v, t)
        assert state.move(v, t) == g
        assert state.cut_size == before - g


def test_move_gains_tiny_batch_matches_vector_path():
    # batches straddling the scalar/vector threshold agree
    hg = _random_hg(7, n=80, m=120)
    rng = np.random.default_rng(7)
    state = PartitionState(hg, 4, rng.integers(0, 4, size=hg.num_vertices))
    for size in (1, 2, 15, 16, 17, 40):
        vs = rng.choice(hg.num_vertices, size=size, replace=False)
        ts = rng.integers(0, 4, size=size)
        got = state.move_gains(vs, ts)
        want = [state.move_gain(int(v), int(t)) for v, t in zip(vs, ts)]
        assert got.tolist() == want


def test_copy_is_independent_and_stays_live():
    hg = _random_hg(11)
    rng = np.random.default_rng(11)
    state = PartitionState(hg, 4, rng.integers(0, 4, size=hg.num_vertices))
    state.move(5, (state.part_of(5) + 1) % 4)  # scalar mirrors built
    clone = state.copy()
    _assert_matches_oracle(clone)
    assert clone.lambda_hits == 0
    # the copy keeps working incrementally, and neither side sees the
    # other's moves
    before = state.part.copy()
    clone.move(3, (clone.part_of(3) + 1) % 4)
    state.move(7, (state.part_of(7) + 1) % 4)
    _assert_matches_oracle(clone)
    _assert_matches_oracle(state)
    assert clone.part[7] == before[7] and state.part[3] == before[3]
    assert clone.part[3] != before[3] and state.part[7] != before[7]


def test_snapshot_restore_preserves_views_and_state():
    hg = _random_hg(13)
    rng = np.random.default_rng(13)
    state = PartitionState(hg, 4, rng.integers(0, 4, size=hg.num_vertices))
    counts_obj = state.edge_part_count
    before = state.copy()
    snap = state.snapshot()
    for _ in range(50):
        state.move(int(rng.integers(0, hg.num_vertices)),
                   int(rng.integers(0, 4)))
    state.restore(snap)
    # same array objects (outstanding views stay valid), same values
    assert state.edge_part_count is counts_obj
    np.testing.assert_array_equal(state.part, before.part)
    np.testing.assert_array_equal(state.part_weight, before.part_weight)
    np.testing.assert_array_equal(state.edge_part_count,
                                  before.edge_part_count)
    np.testing.assert_array_equal(state.edge_lambda, before.edge_lambda)
    assert state.cut_size == before.cut_size
    assert state.connectivity == before.connectivity
    _assert_matches_oracle(state)
    # and the restored state still moves correctly
    state.move(5, (state.part_of(5) + 1) % 4)
    _assert_matches_oracle(state)


def test_neighbors_match_bruteforce():
    hg = _random_hg(17)
    for v in range(hg.num_vertices):
        expect: set[int] = set()
        for e in hg.vertex_edges(v):
            expect.update(int(u) for u in hg.edge_vertices(int(e)))
        expect.discard(v)
        assert hg.neighbors(v) == expect


def test_neighbors_empty_graph():
    hg = Hypergraph.from_edges([1, 1, 1], [])
    assert hg.neighbors(1) == set()


def test_edge_pins_lists_transpose_vertex_edges_lists():
    hg = _random_hg(17)
    pins = hg.edge_pins_lists()
    assert hg.edge_pins_lists() is pins  # cached on the object
    assert pins == [hg.edge_vertices(e).tolist() for e in range(hg.num_edges)]
    adj = hg.vertex_edges_lists()
    for e, row in enumerate(pins):
        assert all(e in adj[u] for u in row)
    assert sum(map(len, pins)) == sum(map(len, adj)) == hg.num_pins


def test_smoke_speed_study_parity_and_counters():
    """Tier-1 form of benchmarks/bench_partition_speed.py: the
    vectorized core and the pre-PR legacy implementation produce the
    same structural sweep outcome (asserted inside speed_study), and
    the batch machinery actually engaged."""
    fast, slow = smoke_study(seed=0)
    assert fast.cut_after < fast.cut_before  # the sweep refined something
    assert fast.cut_after == slow.cut_after
    assert fast.lambda_hits > 0
    assert fast.gain_batches > 0
    assert fast.gain_batch_vertices > 0
    assert fast.boundary_batches > 0
    # legacy side records no core counters (it has no vectorized core)
    assert slow.lambda_hits == 0


def test_synthetic_hypergraph_is_deterministic():
    a = synthetic_hypergraph(300, 450, seed=5)
    b = synthetic_hypergraph(300, 450, seed=5)
    np.testing.assert_array_equal(a.pin_vertices, b.pin_vertices)
    np.testing.assert_array_equal(a.pin_edges, b.pin_edges)
    assert a.num_vertices == 300 and a.num_edges == 450
