"""FM's delta-gain maintenance (repro.core.fm._one_pass).

A pass moves vertices on its own working set — per-edge pin counts of
the pair's two blocks, λ and lock bits — and after a move only the pins
of *critical* edges get a gain update, from per-side deltas the pass
derives in the same walk.  ``PartitionState`` sees the retained prefix
only, as one ``move_batch``.  These tests hold the maintained gains to
a shadow state replaying the pass's moves, the pass to a naive
recompute-everything pass, to committed partition digests, and to the
memory bound the deleted whole-graph neighbour adjacency could not
meet.

The pass also stops early, on the **locked-cut bound**
(``docs/partitioning.md``): the second half of this file holds the
bounded pass to the same never-stops-early reference on families built
to stress the bound, checks the bound at every decision against the
reference's whole gain trajectory, kills unsound variants of it, and
pins the work it saves as exact move counts.

The pass binds ``heapq.heappop`` / ``heappush`` when it starts, so a
wrapper installed before the call (``_watching``) gets control before
every decision and reads ``gain_of`` / ``moves`` / ``work`` off the
pass's frame.
"""

import contextlib
import functools
import hashlib
import heapq
import inspect
import itertools
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import load_circuit
from repro.core import BalanceConstraint, design_driven_partition
from repro.core import fm
from repro.core.fm import _one_pass, _PassWork, refine_pair
from repro.hypergraph import Clustering, Hypergraph, PartitionState
from repro.obs import MetricsRecorder

# -- hypergraph families ------------------------------------------------


def _random_edges(rng, n, m, max_size):
    return [
        rng.choice(n, size=int(rng.integers(2, max_size + 1)),
                   replace=False).tolist()
        for _ in range(m)
    ]


def _thin(rng):
    """Low degrees (every one <= 16): a move touches a few nets."""
    n = 40
    return n, _random_edges(rng, n, 55, 4), None


def _fat(rng):
    """Every vertex on more than 16 nets, most shared with every other."""
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


# -- (a) maintained gains == from-scratch gains, after every move -------


@contextlib.contextmanager
def _watching(on_pop, on_push=lambda: None):
    """Call ``on_pop(locals of the pass)`` before every heap pop a
    running ``_one_pass`` (or a recompiled variant) makes, ``on_push()``
    before every push."""
    real_pop, real_push = heapq.heappop, heapq.heappush

    def heappop(heap):
        frame = sys._getframe(1)
        if frame.f_code.co_name == "_one_pass":
            on_pop(frame.f_locals)
        return real_pop(heap)

    def heappush(heap, item):
        if sys._getframe(1).f_code.co_name == "_one_pass":
            on_push()
        real_push(heap, item)

    heapq.heappop, heapq.heappush = heappop, heappush
    try:
        yield
    finally:
        heapq.heappop, heapq.heappush = real_pop, real_push


class _Shadow:
    """A ``PartitionState`` kept in step with a running pass by
    replaying the pass's ``moves`` log into it."""

    def __init__(self, state):
        self.state = PartitionState(state.hg, state.k, state.part)
        self.replayed = 0

    def catch_up(self, moves):
        """Apply the moves made since the last call; returns how many."""
        fresh = moves[self.replayed:]
        for v, to in fresh:
            self.state.move(v, to)
        self.replayed = len(moves)
        return len(fresh)


def _checked_pass(state, a, b, constraint):
    """Run one real ``_one_pass`` and, before every pop that follows a
    move (and before the first), compare the pass's maintained
    ``gain_of`` table with the from-scratch gains of a shadow state that
    has made the same moves, for every free pair vertex.  The table is
    compared once more on return, so the last move's delta update is
    held too.  Returns the pass result, the comparisons made and the
    gain updates the pass pushed.
    """
    shadow = _Shadow(state)
    seen = {"checks": 0, "pushes": 0, "gain_of": None, "moves": None}

    def compare():
        gain_of = seen["gain_of"]
        if not shadow.catch_up(seen["moves"]) and seen["checks"]:
            return  # nothing moved since the last comparison
        free = [u for u, g in enumerate(gain_of) if g is not None]
        sides = shadow.state.part[free]
        assert np.isin(sides, (a, b)).all()
        want = shadow.state.move_gains(free, np.where(sides == a, b, a))
        assert [gain_of[u] for u in free] == want.tolist(), (
            f"after {shadow.replayed} moves")
        seen["checks"] += 1

    def on_pop(local):
        seen["gain_of"], seen["moves"] = local["gain_of"], local["moves"]
        compare()

    def on_push():
        seen["pushes"] += 1

    with _watching(on_pop, on_push):
        result = _one_pass(state, a, b, constraint, _PassWork())
    if seen["gain_of"] is not None:
        compare()
    return result, seen["checks"], seen["pushes"]


@pytest.mark.parametrize("k", [2, 3, 5])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_maintained_gains_match_move_gain_after_every_move(family, k):
    checks_total = pushes_total = 0
    for seed in range(4):
        hg, assign = _case(family, k, seed)
        for b in (50.0, 15.0):  # loose: long passes; tight: blocked vertices
            state = PartitionState(hg, k, assign)
            _, checks, pushes = _checked_pass(
                state, 0, 1, BalanceConstraint(k, b))
            checks_total += checks
            pushes_total += pushes
            state_check = PartitionState(hg, k, state.part)
            assert state.cut_size == state_check.cut_size
    # moves were executed and the delta kernel actually ran
    assert checks_total > 8 and pushes_total > 0


# -- the pass equals a recompute-everything pass, move for move ---------


def _reference_forward(state, a, b, constraint):
    """Move every admissible free vertex of the pair, re-evaluating
    every free vertex from scratch before every pick — the (-gain, v)
    order with no maintained state at all.  Returns the (v, frm, to)
    moves made and the gain each realized."""
    hg = state.hg
    lo, hi = constraint.bounds(hg.total_weight)
    free = set(state.pair_vertices(a, b).tolist())
    moves, gains = [], []
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
        gains.append(state.move(v, to))
        moves.append((v, frm, to))
    return moves, gains


def _reference_pass(state, a, b, constraint):
    """FM pass over ``_reference_forward``: run the pair dry, then roll
    back to the best prefix (the earliest one on ties)."""
    moves, gains = _reference_forward(state, a, b, constraint)
    best, best_idx = 0, 0
    for idx, cum in enumerate(itertools.accumulate(gains), 1):
        if cum > best:
            best, best_idx = cum, idx
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
        assert _one_pass(fast, 0, 1, constraint, _PassWork()) == _reference_pass(
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


# -- the locked-cut bound ------------------------------------------------
#
# Families built so the bound decides early, late, or at once.  Each
# returns (hypergraph, assignment, b); the pair is always (0, 1).


def _pair_heavy(k):
    """Block probabilities with ~80% of the vertices in the pair, the
    rest spread over the bystander blocks (what ``_case`` draws from)."""
    return [0.5, 0.5] if k == 2 else [0.4, 0.4] + [0.2 / (k - 2)] * (k - 2)


def _no_mutual_cut(rng, k):
    """Every net is internal to one block or also reaches a third
    block: nothing between blocks 0 and 1 that a move could uncut."""
    n = 8 * k
    assign = np.arange(n) % k
    members = [np.flatnonzero(assign == p) for p in range(k)]
    edges = [
        rng.choice(members[p], size=int(rng.integers(2, 4)),
                   replace=False).tolist()
        for p in range(k) for _ in range(6)
    ]
    if k > 2:
        edges += [
            [int(rng.choice(members[p]))
             for p in (0, 1, int(rng.integers(2, k)))]
            for _ in range(10)
        ]
    vw = rng.integers(1, 4, size=n).tolist()
    return Hypergraph.from_edges(vw, edges), assign, 30.0


def _all_blocked(rng, k):
    """Exactly balanced unit weights under b = 0: every pop is a block,
    so every lock the bound gets comes from a blocked vertex."""
    n = 6 * k
    edges = _random_edges(rng, n, 8 * k, 4)
    weights = rng.integers(1, 4, size=len(edges)).tolist()
    return Hypergraph.from_edges([1] * n, edges, weights), np.arange(n) % k, 0.0


def _spanning_chains(rng, k):
    """One net over every vertex of every block beside 2-pin chains."""
    n = 7 * k
    edges = [list(range(n))] + [[u, u + 1] for u in range(n - 1)]
    vw = rng.integers(1, 3, size=n).tolist()
    return (Hypergraph.from_edges(vw, edges),
            rng.choice(k, size=n, p=_pair_heavy(k)), 25.0)


def _weighted_buses(rng, k):
    """Bundles of weighted parallel nets between small cell groups."""
    n = 18
    edges, weights = [], []
    for _ in range(9):
        pins = sorted(rng.choice(n, size=int(rng.integers(2, 4)),
                                 replace=False).tolist())
        width = int(rng.integers(2, 6))
        edges += [pins] * width
        weights += rng.integers(1, 6, size=width).tolist()
    vw = rng.integers(1, 4, size=n).tolist()
    return (Hypergraph.from_edges(vw, edges, weights),
            rng.choice(k, size=n, p=_pair_heavy(k)), 30.0)


def _third_block_traps(rng, k):
    """Light 2-pin nets inside the pair beside heavy nets with two pins
    in one pair block and one in a third block: a trap net never joins
    the pair's cut, but a move across gives it pins on both sides."""
    n = 24
    assign = rng.choice(k, size=n, p=_pair_heavy(k))
    members = [np.flatnonzero(assign == p) for p in range(k)]
    edges = _random_edges(rng, n, 40, 2)
    weights = [1] * len(edges)
    outside = [p for p in range(2, k) if len(members[p])]
    for _ in range(12 if outside else 0):
        side = members[int(rng.integers(0, 2))]
        if len(side) < 2:
            continue
        edges.append(rng.choice(side, size=2, replace=False).tolist()
                     + [int(rng.choice(members[int(rng.choice(outside))]))])
        weights.append(int(rng.integers(5, 10)))
    vw = rng.integers(1, 3, size=n).tolist()
    return Hypergraph.from_edges(vw, edges, weights), assign, 20.0


BOUND_FAMILIES = {
    "no-mutual-cut": _no_mutual_cut, "all-blocked": _all_blocked,
    "spanning-chains": _spanning_chains, "weighted-buses": _weighted_buses,
    "third-block-traps": _third_block_traps,
}
BOUND_KS = (2, 3, 5, 8)


def _bound_case(family, k, seed):
    return BOUND_FAMILIES[family](np.random.default_rng([seed, k, 17]), k)


@functools.lru_cache(maxsize=None)
def _corpus():
    """Every (label, hypergraph, k, assignment, b) the bound is held to:
    the delta-gain families at loose and tight b, then the families
    above."""
    cases = []
    for family, k, seed in itertools.product(sorted(FAMILIES), (2, 3, 5), range(3)):
        hg, assign = _case(family, k, seed)
        cases += [(f"{family}-k{k}-s{seed}-b{b}", hg, k, assign, b)
                  for b in (50.0, 15.0)]
    for family, k, seed in itertools.product(sorted(BOUND_FAMILIES), BOUND_KS, range(3)):
        hg, assign, b = _bound_case(family, k, seed)
        cases.append((f"{family}-k{k}-s{seed}", hg, k, assign, b))
    return cases


def _bounded(one_pass=_one_pass):
    """``one_pass`` (the real pass or a variant of it) under
    ``_reference_pass``'s signature."""
    return lambda state, a, b, constraint: one_pass(
        state, a, b, constraint, _PassWork())


def _pass_outcome(one_pass, hg, k, assign, b, pair=(0, 1)):
    """Everything a pass leaves behind, as one comparable value."""
    state = PartitionState(hg, k, assign)
    gain, retained = one_pass(state, *pair, BalanceConstraint(k, b))
    return (gain, retained, state.part.tolist(), state.part_weight.tolist(),
            state.cut_size)


@pytest.mark.parametrize("k", BOUND_KS)
@pytest.mark.parametrize("family", sorted(BOUND_FAMILIES))
def test_bounded_pass_equals_reference_on_bound_families(family, k):
    for seed in range(3):
        hg, assign, b = _bound_case(family, k, seed)
        assert _pass_outcome(_bounded(), hg, k, assign, b) == _pass_outcome(
            _reference_pass, hg, k, assign, b), seed


@st.composite
def weighted_state_and_pair(draw):
    n = draw(st.integers(2, 12))
    k = draw(st.integers(2, 5))
    edges = draw(st.lists(
        st.lists(st.integers(0, n - 1), min_size=2, max_size=min(n, 5),
                 unique=True),
        min_size=1, max_size=16))
    weights = draw(st.lists(st.integers(1, 5), min_size=len(edges),
                            max_size=len(edges)))
    vw = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    assign = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    a, b = draw(st.permutations(range(k)))[:2]
    slack = draw(st.sampled_from([0.0, 2.5, 10.0, 30.0, 100.0]))
    return Hypergraph.from_edges(vw, edges, weights), k, assign, slack, (a, b)


@given(weighted_state_and_pair())
@settings(max_examples=200, deadline=None)
def test_bounded_pass_equals_reference_on_random_hypergraphs(data):
    hg, k, assign, slack, pair = data
    assert _pass_outcome(_bounded(), hg, k, assign, slack, pair) == _pass_outcome(
        _reference_pass, hg, k, assign, slack, pair)


# -- the bound holds at every decision -----------------------------------


def _reference_trajectory(state, a, b, constraint):
    """The forward moves the reference pass executes and the cumulative
    gain after each of them."""
    moves, gains = _reference_forward(state, a, b, constraint)
    return [(v, to) for v, _, to in moves], list(itertools.accumulate(gains))


def _dead_by_definition(state, a, b, locked):
    """Weight of the nets whose pins all lie in ``a`` or ``b`` and that
    hold a ``locked`` pin on each side — from the pins, not from λ."""
    dead = 0
    for pins, w in zip(state.hg.edge_pins_lists(), state.hg.edge_weight_list):
        sides = [state.part_of(u) for u in pins]
        if set(sides) == {a, b} and {
            p for u, p in zip(pins, sides) if u in locked
        } == {a, b}:
            dead += w
    return dead


def _probed_pass(one_pass, state, a, b, constraint):
    """Run ``one_pass`` (the real ``_one_pass`` or a variant of it);
    returns its best gain, its work tally, the forward moves it executed
    and, read off the tally before each pop, (moves executed so far,
    pair_cut - dead).  ``dead`` is held to its definition on the way,
    on a shadow state that has made the pass's moves."""
    shadow = _Shadow(state)
    pair = set(state.pair_vertices(a, b).tolist())
    forward, probes = [], []
    work = _PassWork()

    def on_pop(local):
        nonlocal forward
        assert local["work"] is work
        forward = local["moves"]  # the pass's own log: grows in place
        shadow.catch_up(forward)
        # decided vertices have left the gain table (``_checked_pass``
        # reads the same local)
        gain_of = local["gain_of"]
        locked = {u for u in pair if gain_of[u] is None}
        assert work.dead == _dead_by_definition(shadow.state, a, b, locked)
        probe = (len(forward), work.pair_cut - work.dead)
        if probe not in probes[-1:]:
            probes.append(probe)

    with _watching(on_pop):
        best, _ = one_pass(state, a, b, constraint, work)
    assert work.executed == len(forward)
    return best, work, forward, probes


def _check_bound(one_pass, hg, k, assign, b):
    """Hold one pass to the reference pass's whole gain trajectory;
    returns (ended by the bound, moves the reference made beyond it)."""
    constraint = BalanceConstraint(k, b)
    best, work, forward, probes = _probed_pass(
        one_pass, PartitionState(hg, k, assign), 0, 1, constraint)
    ref_forward, cums = _reference_trajectory(
        PartitionState(hg, k, assign), 0, 1, constraint)
    # the bounded pass is the reference pass, cut short
    assert forward == ref_forward[:len(forward)]
    # before every move, no prefix from here on beats the bound held
    for executed, bound in probes:
        assert all(c <= bound for c in cums[max(executed - 1, 0):])
    # and at the stop no later prefix beats the best one seen
    assert all(c <= best for c in cums[len(forward):])
    if not work.bound_stops:
        assert len(forward) == len(ref_forward)
    return work.bound_stops, len(ref_forward) - len(forward)


def test_bound_holds_at_every_decision_and_stop():
    stops = saved = 0
    for label, *case in _corpus():
        try:
            stopped, beyond = _check_bound(_one_pass, *case)
        except AssertionError as err:
            raise AssertionError(label) from err
        stops += stopped
        saved += beyond
    # the corpus makes the bound bite: most passes stop early
    assert stops > len(_corpus()) // 2 and saved > 500


# -- unsound variants of the bound are caught ----------------------------

#: what the variant gets wrong -> [(token of the pass, replacement), ...]
MUTANTS = {
    "count a third-block edge as dead": [
        (" and t[2] == 2", ""),
    ],
    "mark an edge dead when only one side is locked": [
        ("sides == 3 and ", ""),
    ],
    "read lambda before the move's update": [
        ("t[2] == 2", "spanned == 2"),
    ],
    "treat an unpopped free vertex as locked": [
        ("sides = t[3]", "sides = t[3] | _sides_with_pins(t) & ~bit"),
    ],
}


def _sides_with_pins(t):
    """Lock bits of the sides a ``touched`` row has any pin on, decided
    or not: what the last variant takes for locked across from a decided
    vertex."""
    return (1 if t[0] else 0) | (2 if t[1] else 0)


def _mutated_one_pass(edits):
    """``repro.core.fm._one_pass`` recompiled with ``edits`` applied to
    its source text, in ``fm``'s own namespace."""
    source = inspect.getsource(_one_pass)
    for old, new in edits:
        assert source.count(old) == 1, f"mutation anchor moved: {old!r}"
        source = source.replace(old, new)
    namespace = dict(vars(fm), _sides_with_pins=_sides_with_pins)
    exec(compile(source, "<mutated _one_pass>", "exec"), namespace)
    return namespace["_one_pass"]


@functools.lru_cache(maxsize=None)
def _reference_outcomes():
    return [_pass_outcome(_reference_pass, *case) for _, *case in _corpus()]


def _caught_on(one_pass):
    """(cases whose outcome differs from the reference pass's, cases
    failing the per-decision checks), by label."""
    differs, unsound = [], []
    for (label, *case), want in zip(_corpus(), _reference_outcomes()):
        if _pass_outcome(_bounded(one_pass), *case) != want:
            differs.append(label)
        try:
            _check_bound(one_pass, *case)
        except AssertionError:
            unsound.append(label)
    return differs, unsound


def test_recompiled_pass_is_the_pass():
    assert _caught_on(_mutated_one_pass([])) == ([], [])


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_unsound_bound_is_caught(mutant):
    differs, unsound = _caught_on(_mutated_one_pass(MUTANTS[mutant]))
    # each variant changes a pass's result somewhere, and the
    # per-decision checks see it go wrong on many more cases
    assert differs and len(unsound) >= 10


# -- the work the bound saves, as exact counts ---------------------------


def _count_batches(monkeypatch):
    calls = [0]
    real = PartitionState.move_batch

    def move_batch(self, vertices, to_parts):
        calls[0] += 1
        return real(self, vertices, to_parts)

    monkeypatch.setattr(PartitionState, "move_batch", move_batch)
    return calls


@pytest.mark.parametrize("k,budget", [(4, 64), (8, 400)])
def test_hierarchy_partition_move_budget(viterbi_paper, monkeypatch, k, budget):
    # run-to-exhaustion passes executed 2 705 (k=4) and 2 675 (k=8)
    # moves here to retain 12 and 20
    batches = _count_batches(monkeypatch)
    rec = MetricsRecorder()
    design_driven_partition(Clustering.top_level(viterbi_paper), k, 5, seed=1,
                            recorder=rec)
    counters = rec.as_counters()
    assert 0 < counters["part.fm.moves"] <= counters["part.fm.executed"] <= budget
    # a pass commits at most once; flattening rebalances through `move`,
    # one batch of one vertex each
    fm_batches = batches[0] - counters.get("part.fm.rebalance_moves", 0)
    assert 0 < fm_batches <= counters["part.fm.passes"]


def test_pair_without_mutual_cut_costs_no_move_and_no_gain_query(monkeypatch):
    batches = _count_batches(monkeypatch)
    for k in BOUND_KS:
        hg, assign, b = _bound_case("no-mutual-cut", k, 0)
        state = PartitionState(hg, k, assign)
        work = _PassWork()
        assert _one_pass(state, 0, 1, BalanceConstraint(k, b), work) == (0, [])
        assert work == _PassWork(executed=0, bound_stops=1)
        assert (state.gain_batches, state.gain_batch_vertices,
                state.lambda_hits) == (0, 0, 0)
    assert batches[0] == 0


def test_state_sees_exactly_the_retained_prefix():
    # after every pass the state is the start state with the retained
    # moves applied and nothing else, committed as one batch whose
    # realized gain is the pass's best
    committed = 0
    for label, hg, k, assign, b in _corpus():
        state = PartitionState(hg, k, assign)
        realized = []
        real = state.move_batch
        state.move_batch = lambda vs, ts: realized.append(real(vs, ts)[0])
        best, retained = _one_pass(state, 0, 1, BalanceConstraint(k, b),
                                   _PassWork())
        del state.move_batch
        want = np.array(assign, dtype=np.int64)
        for v, to in retained:
            assert want[v] == 1 - to, label  # each vertex moves once, across
            want[v] = to
        fresh = PartitionState(hg, k, want)
        for name in ("part", "part_weight", "edge_part_count", "edge_lambda"):
            np.testing.assert_array_equal(
                getattr(state, name), getattr(fresh, name), err_msg=label)
        assert (state.cut_size, state.connectivity) == (
            fresh.cut_size, fresh.connectivity), label
        assert realized == ([best] if retained else []), label
        assert (best > 0) == bool(retained), label
        committed += bool(retained)
    assert committed > len(_corpus()) // 4
