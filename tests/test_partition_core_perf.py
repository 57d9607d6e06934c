"""Equivalence tests for the incremental partition core.

``PartitionState`` has one mutation kernel (``move_batch``; ``move`` is
its one-vertex form) and one cut-gain kernel (``move_gains``;
``move_gain`` likewise), so neither can be held to the other.  These
tests hold them to what they are defined by instead:

* the state after any interleaving of ``move`` / ``move_batch`` /
  ``snapshot`` + ``restore`` equals a freshly constructed
  ``PartitionState`` on the same assignment;
* a gain equals the cut of a fresh state minus the cut of a fresh state
  with that one vertex moved, for every (vertex, target) cell and
  however the query was batched;
* the hypergraph's frozen list tables against the CSR arrays;
* the outcome of a whole exhaustive refinement sweep on a 600-vertex
  netlist-shaped hypergraph, pinned as a golden — what the retired
  ``LegacyPartitionState`` sweep agreed on at the commit that deleted
  it (``tests/test_fm_delta_gain.py`` holds the behavioural oracle, a
  recompute-everything FM pass).
"""

import numpy as np
import pytest

from repro.core import BalanceConstraint, refine_pair
from repro.core.pairing import estimate_pair_gain, tournament_rounds
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
    """Every derived quantity equals a from-scratch construction."""
    oracle = PartitionState(state.hg, state.k, state.part)
    np.testing.assert_array_equal(state.edge_part_count, oracle.edge_part_count)
    np.testing.assert_array_equal(state.edge_lambda, oracle.edge_lambda)
    np.testing.assert_array_equal(state.part_weight, oracle.part_weight)
    assert state.cut_size == oracle.cut_size
    assert state.connectivity == oracle.connectivity


def _oracle_gain(state: PartitionState, v: int, target: int) -> int:
    """Cut of the assignment minus cut of the assignment with ``v`` in
    ``target``, both from scratch — no incremental kernel involved."""
    moved = state.part.copy()
    moved[v] = target
    return (PartitionState(state.hg, state.k, state.part).cut_size
            - PartitionState(state.hg, state.k, moved).cut_size)


def _random_move(state: PartitionState, rng) -> None:
    state.move(int(rng.integers(0, state.hg.num_vertices)),
               int(rng.integers(0, state.k)))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("k", [2, 4, 8])
def test_interleaved_ops_match_recompute(seed, k):
    hg = _random_hg(seed)
    rng = np.random.default_rng(100 + seed)
    state = PartitionState(hg, k, rng.integers(0, k, size=hg.num_vertices))
    for step in range(120):
        op = rng.integers(0, 10)
        if op < 5:
            _random_move(state, rng)
        elif op < 7:
            vs = rng.choice(hg.num_vertices,
                            size=int(rng.integers(1, 6)), replace=False)
            before = state.cut_size
            gain = state.move_batch(vs, rng.integers(0, k, size=len(vs)))[0]
            assert state.cut_size == before - gain
        elif op < 8:
            snap = state.snapshot()
            for _ in range(int(rng.integers(1, 8))):
                _random_move(state, rng)
            state.restore(snap)
        else:
            v = int(rng.integers(0, hg.num_vertices))
            target = int(rng.integers(0, k))
            predicted = state.move_gain(v, target)
            assert predicted == _oracle_gain(state, v, target)
            assert state.move(v, target) == predicted
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
        assert batch.tolist() == [_oracle_gain(state, int(v), target)
                                  for v in all_v]
    # mixed per-vertex targets as well
    targets = rng.integers(0, k, size=hg.num_vertices)
    batch = state.move_gains(all_v, targets)
    assert batch.tolist() == [_oracle_gain(state, int(v), int(t))
                              for v, t in zip(all_v, targets)]
    # gains predict the realized cut delta; the one-vertex form is not
    # tallied as a batch
    batches = state.gain_batches, state.gain_batch_vertices
    for v in range(0, hg.num_vertices, 7):
        t = int(targets[v])
        before = state.cut_size
        g = state.move_gain(v, t)
        assert g == _oracle_gain(state, v, t)
        assert state.move(v, t) == g
        assert state.cut_size == before - g
    assert (state.gain_batches, state.gain_batch_vertices) == batches


def test_move_gains_tiny_batch_matches_vector_path():
    # a gain is the same number however the query was batched: alone,
    # in a small batch, or inside one query over every vertex
    hg = _random_hg(7, n=80, m=120)
    rng = np.random.default_rng(7)
    state = PartitionState(hg, 4, rng.integers(0, 4, size=hg.num_vertices))
    targets = rng.integers(0, 4, size=hg.num_vertices)
    whole = state.move_gains(np.arange(hg.num_vertices), targets)
    for size in (1, 2, 15, 16, 17, 40):
        vs = rng.choice(hg.num_vertices, size=size, replace=False)
        got = state.move_gains(vs, targets[vs])
        assert got.tolist() == whole[vs].tolist()
        assert got.tolist() == [_oracle_gain(state, int(v), int(targets[v]))
                                for v in vs]
        assert got.tolist() == [state.move_gain(int(v), int(targets[v]))
                                for v in vs]


def test_snapshot_restore_preserves_views_and_state():
    hg = _random_hg(13)
    rng = np.random.default_rng(13)
    state = PartitionState(hg, 4, rng.integers(0, 4, size=hg.num_vertices))
    arrays = (state.part, state.edge_part_count, state.edge_lambda,
              state.part_weight)
    before = PartitionState(hg, 4, state.part)
    snap = state.snapshot()
    for _ in range(50):
        _random_move(state, rng)
    state.move_batch(np.arange(10), rng.integers(0, 4, size=10))
    state.restore(snap)
    # same array objects (outstanding references stay valid), same values
    assert all(now is was for now, was in zip(
        (state.part, state.edge_part_count, state.edge_lambda,
         state.part_weight), arrays))
    np.testing.assert_array_equal(state.part, before.part)
    _assert_matches_oracle(state)
    assert state.cut_size == before.cut_size
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
    assert adj == [hg.vertex_edges(v).tolist() for v in range(hg.num_vertices)]
    for e, row in enumerate(pins):
        assert all(e in adj[u] for u in row)
    assert sum(map(len, pins)) == sum(map(len, adj)) == hg.num_pins


# -- the exhaustive sweep the legacy speed study ran, as a golden --------


def synthetic_hypergraph(num_vertices, num_edges, seed=0, span=64):
    """Deterministic circuit-shaped hypergraph: each net picks a base
    vertex and 1-3 sinks within ``span`` positions of it (the bounded-
    fanout locality of synthesized netlists).  Unit weights."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(2, 5, size=num_edges)
    bases = rng.integers(0, num_vertices, size=num_edges)
    edges = []
    for e in range(num_edges):
        offsets = rng.integers(1, span + 1, size=int(sizes[e]) - 1)
        pins = np.concatenate(([bases[e]], (bases[e] + offsets) % num_vertices))
        edges.append(pins.tolist())
    return Hypergraph.from_edges([1] * num_vertices, edges)


def _exhaustive_sweep(hg, k, seed, b=10.0, max_passes=2):
    """Contiguous blocks with 5% uniform noise, then per tournament
    round: estimate every pair's gain, refine the round's pairs."""
    rng = np.random.default_rng(seed + 1)
    assign = (np.arange(hg.num_vertices, dtype=np.int64) * k) // hg.num_vertices
    noise = rng.random(hg.num_vertices) < 0.05
    assign[noise] = rng.integers(0, k, size=int(noise.sum()))
    state = PartitionState(hg, k, assign)
    out = {"cut_before": state.cut_size, "gain": 0, "moves": 0, "passes": 0,
           "estimates": 0}
    for rnd in tournament_rounds(k):
        out["estimates"] += sum(estimate_pair_gain(state, a, bb)
                                for a in range(k) for bb in range(a + 1, k))
        for a, bb in rnd:
            res = refine_pair(state, a, bb, BalanceConstraint(k, b),
                              max_passes=max_passes)
            out["gain"] += res.gain
            out["moves"] += res.moves
            out["passes"] += res.passes
    out.update(cut_after=state.cut_size, connectivity=state.connectivity)
    return out, state


def test_smoke_sweep_outcome_is_pinned():
    """The 600-vertex sweep on which the current core and the pre-λ-cache
    ``LegacyPartitionState`` + run-every-heap-dry FM agreed, field for
    field, when the latter was deleted."""
    out, state = _exhaustive_sweep(synthetic_hypergraph(600, 900, seed=0),
                                   k=4, seed=0)
    assert out == {
        "cut_before": 324, "cut_after": 216, "connectivity": 232,
        "gain": 108, "moves": 156, "passes": 12, "estimates": 262,
    }
    _assert_matches_oracle(state)
    # the batch machinery engaged
    assert state.lambda_hits > 0 and state.boundary_batches > 0
    assert state.gain_batches > 0 and state.gain_batch_vertices > 0


def test_synthetic_hypergraph_is_deterministic():
    a = synthetic_hypergraph(300, 450, seed=5)
    b = synthetic_hypergraph(300, 450, seed=5)
    np.testing.assert_array_equal(a.pin_vertices, b.pin_vertices)
    np.testing.assert_array_equal(a.pin_edges, b.pin_edges)
    assert a.num_vertices == 300 and a.num_edges == 450
