"""FM's delta-gain maintenance (repro.core.fm._one_pass).

After a move, only the pins of *critical* edges get a gain update, from
the ``(edge, d_from, d_to)`` triples ``PartitionState.move`` reports.
These tests hold that to the from-scratch ``move_gain`` after every
move, to a naive recompute-everything pass, to committed partition
digests, and to the memory bound the deleted whole-graph neighbour
adjacency could not meet.
"""

import hashlib
import sys
import tracemalloc

import numpy as np
import pytest

from repro.circuits import load_circuit
from repro.core import BalanceConstraint, design_driven_partition
from repro.core.fm import _one_pass, refine_pair
from repro.hypergraph import Clustering, Hypergraph, PartitionState

# -- hypergraph families ------------------------------------------------


def _random_edges(rng, n, m, max_size):
    return [
        rng.choice(n, size=int(rng.integers(2, max_size + 1)),
                   replace=False).tolist()
        for _ in range(m)
    ]


def _thin(rng):
    """Every degree <= 16: the scalar move kernel."""
    n = 40
    return n, _random_edges(rng, n, 55, 4), None


def _fat(rng):
    """Every degree > 16: the vectorized move kernel."""
    n = 12
    return n, _random_edges(rng, n, 150, 5), None


def _weighted(rng):
    n = 24
    edges = _random_edges(rng, n, 120, 4)
    return n, edges, rng.integers(1, 5, size=len(edges)).tolist()


def _spanning_edge(rng):
    """One edge over all vertices (a clock net) beside local nets."""
    n = 30
    return n, [list(range(n))] + _random_edges(rng, n, 50, 3), None


def _all_parallel(rng):
    """Every edge has the same pin set (a bus between the same cells)."""
    n = 10
    pins = sorted(rng.choice(n, size=4, replace=False).tolist())
    edges = [pins] * 20
    return n, edges, rng.integers(1, 4, size=len(edges)).tolist()


def _one_pin_per_side(rng):
    """2-pin edges (u, u + half): with the split assignment below every
    edge starts with exactly one pin on each side of the pair."""
    half = 15
    return 2 * half, [[u, u + half] for u in range(half)] * 2, None


FAMILIES = {
    "thin": _thin, "fat": _fat, "weighted": _weighted,
    "spanning": _spanning_edge, "parallel": _all_parallel,
    "one-per-side": _one_pin_per_side,
}


def _case(family, k, seed):
    """(hypergraph, assignment): pair (0, 1) holding ~80% of the
    vertices plus k - 2 bystander blocks whose pins change λ without
    ever being in the pair."""
    rng = np.random.default_rng([seed, k])
    n, edges, weights = FAMILIES[family](rng)
    vw = rng.integers(1, 4, size=n).tolist()
    hg = Hypergraph.from_edges(vw, edges, weights)
    if family == "one-per-side":
        assign = (np.arange(n) >= n // 2).astype(np.int64)
        assign[rng.random(n) < 0.2 * (k > 2)] = k - 1
    else:
        p = [1 / k] * k if k == 2 else [0.4, 0.4] + [0.2 / (k - 2)] * (k - 2)
        assign = rng.choice(k, size=n, p=p)
    return hg, assign


def _degrees(hg):
    return [hg.vertex_degree(v) for v in range(hg.num_vertices)]


def test_families_cover_both_move_kernels():
    assert max(_degrees(_case("thin", 2, 0)[0])) <= 16
    assert min(_degrees(_case("fat", 2, 0)[0])) > 16


# -- (a) maintained gains == from-scratch gains, after every move -------


def _checked_pass(state, a, b, constraint):
    """Run one real ``_one_pass`` with ``state.move`` wrapped so that,
    before each forward move and before the first rollback move (i.e.
    after every executed move), the pass's maintained ``gain_of`` table
    is compared with ``move_gain`` for every free pair vertex.  Returns
    the pass result, the comparisons made and the critical triples seen.
    """
    real_move = state.move
    seen = {"checks": 0, "critical": 0, "rolling_back": False}

    def move(v, to, critical=None):
        if not seen["rolling_back"]:
            # the pass keeps its gains in a local; read it off the frame
            gain_of = sys._getframe(1).f_locals["gain_of"]
            for u, g in enumerate(gain_of):
                if g is None:
                    continue
                side = state.part_of(u)
                assert side in (a, b)
                assert g == state.move_gain(u, b if side == a else a), (
                    f"vertex {u} after {seen['checks']} checks"
                )
            seen["checks"] += 1
        seen["rolling_back"] = critical is None
        gain = real_move(v, to, critical)
        if critical is not None:
            seen["critical"] += len(critical)
        return gain

    state.move = move
    try:
        result = _one_pass(state, a, b, constraint)
    finally:
        del state.move
    return result, seen["checks"], seen["critical"]


@pytest.mark.parametrize("k", [2, 3, 5])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_maintained_gains_match_move_gain_after_every_move(family, k):
    checks_total = critical_total = 0
    for seed in range(4):
        hg, assign = _case(family, k, seed)
        for b in (50.0, 15.0):  # loose: long passes; tight: blocked vertices
            state = PartitionState(hg, k, assign)
            _, checks, critical = _checked_pass(
                state, 0, 1, BalanceConstraint(k, b))
            checks_total += checks
            critical_total += critical
            state_check = PartitionState(hg, k, state.part)
            assert state.cut_size == state_check.cut_size
    # moves were executed and the delta kernel actually ran
    assert checks_total > 8 and critical_total > 0


# -- the pass equals a recompute-everything pass, move for move ---------


def _reference_pass(state, a, b, constraint):
    """FM pass that re-evaluates every free vertex from scratch before
    every pick — the (-gain, v) order with no maintained state at all."""
    hg = state.hg
    lo, hi = constraint.bounds(hg.total_weight)
    free = set(state.pair_vertices(a, b).tolist())
    moves, cum, best, best_idx = [], 0, 0, 0
    while free:
        def key(u):
            side = state.part_of(u)
            return (-state.move_gain(u, b if side == a else a), u)
        v = min(free, key=key)
        free.remove(v)
        frm = state.part_of(v)
        to = b if frm == a else a
        wv = int(hg.vertex_weight[v])
        pw = state.part_weight
        if pw[to] + wv > hi or pw[frm] - wv < lo:
            continue
        cum += state.move(v, to)
        moves.append((v, frm, to))
        if cum > best:
            best, best_idx = cum, len(moves)
    for v, frm, _ in reversed(moves[best_idx:]):
        state.move(v, frm)
    return best, [(v, to) for v, _, to in moves[:best_idx]]


@pytest.mark.parametrize("k", [2, 3, 5])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_pass_equals_recompute_everything_pass(family, k):
    for seed in range(3):
        hg, assign = _case(family, k, seed)
        constraint = BalanceConstraint(k, 30.0)
        fast = PartitionState(hg, k, assign)
        slow = PartitionState(hg, k, assign)
        assert _one_pass(fast, 0, 1, constraint) == _reference_pass(
            slow, 0, 1, constraint)
        np.testing.assert_array_equal(fast.part, slow.part)
        assert fast.cut_size == slow.cut_size


# -- (b) + (c) committed digests ----------------------------------------

#: sha256 of design_driven_partition(top_level(viterbi-paper), k, 5,
#: seed=1).gate_assignment() as produced before delta-gain FM landed
GOLDEN = {
    4: "9b55ec22106c02d7867108c5c7e28e96293313a2f5a3cee459a5723df1bd44b6",
    8: "5899422c73c1ddc8d43a6e94cf613f5c5d35a7d6fd3a0e46f3eed781a77c2ff4",
}


@pytest.fixture(scope="module")
def viterbi_paper():
    return load_circuit("viterbi-paper")


@pytest.mark.parametrize("k,seed", [(4, 1), (8, 1)])
def test_hierarchy_partition_digest_is_pinned(viterbi_paper, k, seed):
    # 396 super-gates averaging 48 incident nets: the fat-vertex regime
    result = design_driven_partition(
        Clustering.top_level(viterbi_paper), k, 5, seed=seed)
    digest = hashlib.sha256(result.gate_assignment().tobytes()).hexdigest()
    assert digest == GOLDEN[k]


# -- (d) one huge net must not cost |e|^2 memory ------------------------


def test_pass_with_20000_pin_edge_stays_small():
    # a whole-graph neighbour adjacency holds 20000^2 entries for this
    # net (3.2 GB of int64 keys while it is built); FM needs none of it
    n = 20_000
    edges = [list(range(n))] + [[u, u + 1] for u in range(n - 1)]
    hg = Hypergraph.from_edges([1] * n, edges)
    # all of block 1 but two pins: moving either makes the big net critical
    assign = np.ones(n, dtype=np.int64)
    assign[[0, n // 2]] = 0
    state = PartitionState(hg, 2, assign)
    cut_before = state.cut_size
    tracemalloc.start()
    try:
        result = refine_pair(state, 0, 1, BalanceConstraint(2, 50.0),
                             max_passes=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024 * 1024
    assert state.cut_size == cut_before - result.gain
    assert state.cut_size == PartitionState(hg, 2, state.part).cut_size
