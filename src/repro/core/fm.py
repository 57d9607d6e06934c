"""Pairwise Fiduccia–Mattheyses refinement.

The iterative-movement phase of the paper's algorithm (§3, Figure 2):
given two partitions picked by the pairing step, *free vertices* are
moved between them — highest cut-gain first, each vertex at most once
per pass, weight bounds respected — and the pass is rolled back to its
best prefix.  Passes repeat until one yields no improvement ("no free
vertex left or no gain in cut-size can be obtained").

A pass never writes the shared :class:`PartitionState` while it is
deciding.  It makes its moves on a pass-local working set — per touched
edge the pin counts of the two blocks, λ and which sides are locked,
read from the state's arrays the first time a decided vertex touches
the edge — and "rolling back to the best prefix" is handing the state
that prefix, as one :meth:`PartitionState.move_batch`.  Only columns
``a`` and ``b`` of an edge's counts can change during a pass, so the
working set is all of the state a pass could see differently.

A pass ends at the **locked-cut bound**, not at its last free vertex.
``pair_cut`` is the weight of the edges spanning exactly the two blocks
(λ = 2) at pass start — all a pass can ever gain, since an edge reaching
a third block stays cut whatever the pair does.  A popped vertex is
decided for the rest of the pass (moved: locked at its target; blocked
by the weight bounds: locked where it is), so a λ = 2 edge holding a
decided pin on both sides stays cut: ``dead`` sums those, and no later
prefix can realize more than ``pair_cut - dead``.  The best prefix is
replaced only by a strictly better one, so the pass stops as soon as
``pair_cut - dead <= best`` — the moves it skips are exactly ones
outside the best prefix, and the result is bit-identical to running the
heap dry (``docs/partitioning.md`` has the argument,
``tests/test_fm_delta_gain.py`` the never-stops-early reference pass).

Gains are measured against the **global** k-way cut, so refining the
pair (a, b) never degrades edges that also touch third partitions
without accounting for them.  A pass seeds every pair vertex's gain
with one batch :meth:`PartitionState.move_gains` query and from then
on maintains it by exact integer **delta updates**: a move changes a
neighbour's gain only through a shared *critical* edge — one whose pin
count on the source or target side crosses 0/1/2 while it spans at
most those two blocks — and the pass's one walk over the moved vertex's
edges derives exactly those edges with their per-side change, so a move
costs its own degree plus the pins of its critical edges, not a
re-evaluation of every neighbour.  A wide clock/reset net with many pins on both sides
is never critical.

A lazy max-heap of ``(-gain, vertex)`` entries stands in for the
classic bucket array; an entry is live while it carries its vertex's
current gain, so the live entries are totally ordered and the pop
sequence — hence every move, retained prefix and final partition — is
a function of the gains alone, independent of how or how often they
were (re)computed (``docs/partitioning.md``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from ..errors import PartitionError
from ..hypergraph.partition_state import PartitionState
from ..obs.recorder import NULL_RECORDER, Recorder
from .balance import BalanceConstraint

__all__ = ["FMPassResult", "refine_pair", "rebalance_pair"]


@dataclass
class FMPassResult:
    """Outcome of :func:`refine_pair`: total realized gain and moves."""

    gain: int
    moves: int
    passes: int


#: the ``PartitionState`` work tallies surfaced as ``part.core.<name>``
_CORE_TALLIES = (
    "lambda_hits", "gain_batches", "gain_batch_vertices", "boundary_batches",
)


@dataclass
class _PassWork:
    """What :func:`_one_pass` reports beside its result: two tallies
    summed over the passes it is handed to, and the locked-cut bound's
    two terms for the pass in progress."""

    #: moves made on the working set, retained or not (``part.fm.executed``)
    executed: int = 0
    #: passes the locked-cut bound ended: stopped short of the last free
    #: vertex, or skipped before the gain fill (``part.fm.bound_stops``)
    bound_stops: int = 0
    #: weight of the λ = 2 edges between the pair at pass start
    pair_cut: int = 0
    #: weight of those holding a decided pin on both sides by now
    dead: int = 0


def _check_pair(state: PartitionState, a: int, b: int, caller: str) -> None:
    """Reject a pair that is not two distinct partitions of ``state``."""
    if a == b or not (0 <= a < state.k and 0 <= b < state.k):
        raise PartitionError(
            f"{caller} needs two distinct partitions in [0,{state.k}), "
            f"got {a} and {b}"
        )


def _pair_vertices(state: PartitionState, a: int, b: int) -> list[int]:
    """Vertices currently in partition a or b (ascending ids)."""
    return state.pair_vertices(a, b).tolist()


def refine_pair(
    state: PartitionState,
    a: int,
    b: int,
    constraint: BalanceConstraint,
    max_passes: int = 8,
    recorder: Recorder = NULL_RECORDER,
) -> FMPassResult:
    """FM refinement between partitions ``a`` and ``b`` (in place).

    Runs up to ``max_passes`` full FM passes; stops as soon as a pass
    realizes no positive gain.  Returns the total cut improvement.

    ``recorder`` (optional, :mod:`repro.obs`) accumulates
    ``part.fm.passes`` / ``part.fm.moves`` / ``part.fm.gain``, the work
    behind them (``part.fm.executed`` / ``part.fm.bound_stops``) and
    this call's share of the state's ``part.core.*`` tallies across
    calls; the default no-op recorder keeps this free.  ``a`` and ``b``
    must be two distinct partitions of ``state``
    (:class:`~repro.errors.PartitionError` otherwise).
    """
    _check_pair(state, a, b, "refine_pair")
    total_gain = 0
    total_moves = 0
    passes = 0
    work = _PassWork()
    core_before = [getattr(state, name) for name in _CORE_TALLIES]
    for _ in range(max_passes):
        gain, retained = _one_pass(state, a, b, constraint, work)
        passes += 1
        total_gain += gain
        total_moves += len(retained)
        if gain <= 0:
            break
    if recorder.enabled:
        recorder.incr("part.fm.passes", passes)
        recorder.incr("part.fm.moves", total_moves)
        recorder.incr("part.fm.gain", total_gain)
        recorder.incr("part.fm.executed", work.executed)
        recorder.incr("part.fm.bound_stops", work.bound_stops)
        for name, before in zip(_CORE_TALLIES, core_before):
            recorder.incr(f"part.core.{name}", getattr(state, name) - before)
    return FMPassResult(total_gain, total_moves, passes)


def _one_pass(
    state: PartitionState,
    a: int,
    b: int,
    constraint: BalanceConstraint,
    work: _PassWork,
) -> tuple[int, list[tuple[int, int]]]:
    """One FM pass; returns (realized gain, retained (v, to) moves).

    ``work`` accumulates the moves the pass executed and whether the
    locked-cut bound ended it, and holds the bound's terms meanwhile.
    """
    hg = state.hg
    # the locked-cut bound (module docstring): no prefix of this pass
    # can realize more than pair_cut - dead, so a pair with no mutual
    # λ = 2 cut is decided before a single gain is computed
    work.pair_cut = pair_cut = state.pair_exclusive_cut(a, b)
    work.dead = 0
    if not pair_cut:
        work.bound_stops += 1
        return 0, []
    lo, hi = constraint.bounds(hg.total_weight)
    vertices = _pair_vertices(state, a, b)

    # gain_of[u]: maintained gain of free pair vertex u toward the other
    # side; None once u is locked (moved or blocked) or outside the pair.
    # The initial fill is one vectorized batch gain query.  side_of[u]:
    # the block u started the pass in (free vertices are still there).
    frm_arr = state.part[vertices]
    gains = state.move_gains(vertices, np.where(frm_arr == a, b, a)).tolist()
    side_of = dict(zip(vertices, frm_arr.tolist()))
    gain_of: list[int | None] = [None] * hg.num_vertices
    for u, g in zip(vertices, gains):
        gain_of[u] = g
    # (-gain, v) entries, live while they carry v's current gain: live
    # entries have distinct keys, so the heap's internal layout (heapify
    # vs. pushes, stale duplicates) can never change pop order.
    heap: list[tuple[int, int]] = [(-g, u) for u, g in zip(vertices, gains)]
    heapq.heapify(heap)

    # the working set (module docstring): touched[e] = [pins in a, pins
    # in b, λ, locked sides], filled from the state's arrays the first
    # time a decided vertex touches e.  Locked sides: 1 = a decided pin
    # in a, 2 = one in b; work.dead: weight of the λ = 2 edges locked on
    # both sides, which stay cut for the rest of the pass
    touched: dict[int, list[int]] = {}
    count_of = state.edge_part_count.item
    lambda_of = state.edge_lambda.item
    moves: list[tuple[int, int]] = []  # (v, to), in execution order
    cum = 0
    best = 0
    best_idx = 0
    decided = 0

    # the pair's weights, tracked as plain ints so the admissibility
    # check per pop costs two comparisons instead of NumPy indexing;
    # hot callables pre-bound once per pass
    vw = hg.vertex_weight_list
    w_list = hg.edge_weight_list
    weight_a = int(state.part_weight[a])
    weight_b = int(state.part_weight[b])
    heappop = heapq.heappop
    heappush = heapq.heappush
    adj = hg.vertex_edges_lists()
    edge_pins = hg.edge_pins_lists()
    walked = 0

    while heap:
        neg_g, v = heappop(heap)
        if gain_of[v] != -neg_g:
            continue  # locked, or superseded by a later gain
        gain_of[v] = None  # each vertex is decided once per pass
        decided += 1
        frm = side_of[v]
        wv = vw[v]
        # src / dst: v's own and the other side's slot in a touched row
        if frm == a:
            to, src, dst = b, 0, 1
            moved = weight_b + wv <= hi and weight_a - wv >= lo
            if moved:
                weight_a -= wv
                weight_b += wv
        else:
            to, src, dst = a, 1, 0
            moved = weight_a + wv <= hi and weight_b - wv >= lo
            if moved:
                weight_b -= wv
                weight_a += wv
        # a blocked vertex stays out for the pass: locked where it is
        bit = (dst if moved else src) + 1
        # one walk over v's edges: move its pin, derive the realized
        # gain and what the move does to the other pins' gains (summed
        # per neighbour first: a bus of parallel nets moves one many
        # times, and only a net change needs a new heap entry), then
        # lock v's side of the edge
        realized = 0
        delta: dict[int, int] = {}
        incident = adj[v]
        walked += len(incident)
        for e in incident:
            t = touched.get(e)
            if t is None:
                touched[e] = t = [count_of(e, a), count_of(e, b), lambda_of(e), 0]
            spanned = t[2]  # λ before the move
            if moved:
                w = w_list[e]
                t[src] = nf = t[src] - 1
                t[dst] = nt = t[dst] + 1
                if nf == 0 or nt == 1:
                    t[2] = new_spanned = spanned - (nf == 0) + (nt == 1)
                    if spanned > 1 and new_spanned == 1:
                        realized += w
                    elif spanned == 1 and new_spanned > 1:
                        realized -= w
                # every remaining pin in frm gains d_frm toward `to`,
                # every other pin in `to` gains d_to toward frm: an edge
                # gives a pin +w iff λ = 2 with the pin alone on its
                # side, -w iff λ = 1 with company, so only an edge that
                # lay inside frm, or spans just the pair with < 2 pins
                # left in frm or exactly 2 now in `to`, changes anything
                d_frm = d_to = 0
                if spanned == 1:
                    if nf:
                        d_frm = w if nf > 1 else 2 * w
                elif spanned == 2 and nt > 1 and (nf < 2 or nt == 2):
                    d_frm = w if nf == 1 else 0
                    d_to = -w * ((nf == 0) + (nt == 2))
                if d_frm or d_to:
                    walked += 1
                    for u in edge_pins[e]:
                        if gain_of[u] is not None:
                            d = d_frm if side_of[u] == frm else d_to
                            if d:
                                delta[u] = delta.get(u, 0) + d
            # λ as the move left it: both sides locked means pins in a
            # and b, so λ = 2 exactly when no third block holds one
            sides = t[3]
            if not sides & bit:
                t[3] = sides = sides | bit
                if sides == 3 and t[2] == 2:
                    work.dead += w_list[e]
        if moved:
            moves.append((v, to))
            cum += realized
            if cum > best:
                best = cum
                best_idx = len(moves)
        for u, d in delta.items():
            if d:
                g = gain_of[u] + d
                gain_of[u] = g
                heappush(heap, (-g, u))
        if pair_cut - work.dead <= best:
            # ties keep the earlier prefix, so <= is enough to stop
            break

    state.lambda_hits += walked
    work.executed += len(moves)
    # the heap only runs dry once every vertex is decided (and then the
    # bound holds too: every remaining cut edge is locked on both sides)
    work.bound_stops += decided < len(vertices)
    # the state sees the best prefix only, as one batch
    retained = moves[:best_idx]
    if retained:
        state.move_batch(*zip(*retained))
    return best, retained


def rebalance_pair(
    state: PartitionState,
    heavy: int,
    light: int,
    constraint: BalanceConstraint,
    recorder: Recorder = NULL_RECORDER,
) -> int:
    """Move vertices from an overweight partition toward a lighter one
    until the pair meets the constraint (or no movable vertex remains).

    Used after super-gate flattening (paper §3.2: "flatten the largest
    super-gate in the partition and employ iterative movement in order
    to achieve a better load balance").  Vertices are chosen by best
    cut gain, then smallest weight — load correction with the least
    cut damage.  Returns the number of vertices moved; ``recorder``
    accumulates it under ``part.fm.rebalance_moves``.
    """
    _check_pair(state, heavy, light, "rebalance_pair")
    hg = state.hg
    lo, hi = constraint.bounds(hg.total_weight)
    moved = 0
    while True:
        load_heavy = int(state.part_weight[heavy])
        load_light = int(state.part_weight[light])
        if load_heavy <= hi and load_light >= lo:
            break
        candidates = np.nonzero(state.part == heavy)[0]
        # one batch gain query for every candidate; among the admissible
        # ones the smallest (-gain, weight) wins, ties to the lowest id
        gains = state.move_gains(candidates, light)
        best_v = None
        best_key: tuple[int, int] | None = None
        for v, g, wv in zip(candidates.tolist(), gains.tolist(),
                            hg.vertex_weight[candidates].tolist()):
            if load_light + wv > hi or load_heavy - wv < lo:
                continue
            key = (-g, wv)
            if best_key is None or key < best_key:
                best_key = key
                best_v = v
        if best_v is None:
            break
        state.move(best_v, light)
        moved += 1
    if recorder.enabled and moved:
        recorder.incr("part.fm.rebalance_moves", moved)
    return moved
