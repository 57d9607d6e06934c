"""Batch data-parallel boundary refinement (``refiner="batch"``).

The heap-FM refiner (:mod:`repro.core.fm`) moves one vertex at a time:
every move is a heap pop, a state update and a neighbour gain refresh,
so the critical path is as long as the move sequence.  That is the
right trade at netlist granularity (hundreds of vertices) but memory-
bound at the 100k+ vertex scale the flat benchmarks run.  This module
is the data-parallel alternative on the same vectorized substrate
(design reference: GPU-resident refinement in "Hypergraph Partitioning
on GPU with Distinct Incident Hyperedges and Size Constraints",
PAPERS.md).  Each round is three vectorized steps:

1. **gather** — the cut boundary (every vertex on a λ>1 hyperedge,
   maintained incrementally as a per-vertex cut-edge degree) is scored
   through the fused
   :meth:`~repro.hypergraph.partition_state.PartitionState.move_gains_matrix`
   CSR kernel into exact integer cut-gain and SOED rows, one per
   destination, with no per-vertex Python work — *incrementally*
   (:class:`BoundaryGains`): each vertex's best block other than its
   own is cached, and an applied batch stales only the vertices it moved
   and the pins of the edges whose pattern of empty / single-pin
   blocks it changed — the only way an edge enters a pin's gains — so
   a clock net cut across every block costs nothing when one of its
   flip-flops moves (``part.batch.gathered`` counts the re-scored
   vertices);
2. **select** — a conflict-free move batch is chosen vectorially.
   Candidates (the lexicographically best (cut, SOED)-improving
   destination per vertex) are ranked by ``(-cut gain, -soed gain,
   vertex id)``; a scatter-min of ranks onto incident hyperedges keeps
   a candidate only when, on every edge it touches, it holds the best
   rank *or shares the rank-winner's destination* — so each hyperedge
   sees at most one destination move, which makes the round-start gain
   predictions a lower bound on the realized gain (same-destination
   groups are superadditive).  Formula-1 balance is then enforced by
   prefix-sum weight
   filters: per destination block, cumulative added weight (in rank
   order) may not exceed ``hi - w0[p]``; per source block, cumulative
   removed weight may not exceed ``w0[p] - lo`` — both against the
   round-start weights ``w0``, so the final weights provably stay
   inside ``[lo, hi]`` wherever they started inside it (and can only
   move *toward* the window where they started outside);
3. **apply** — the surviving batch lands in one
   :meth:`~repro.hypergraph.partition_state.PartitionState.move_batch`
   scatter, and the boundary is re-derived incrementally from the
   edges whose cut status flipped.

Greedy rounds repeat to a fixpoint with a no-improvement early-out;
every applied move strictly improves the lexicographic
(cut, connectivity) objective — positive cut gain, or zero cut gain
with positive SOED gain (peeling a spanned edge one block closer to
uncut, the standard plateau escape).  At the fixpoint the refiner
recovers FM's one missing power — crossing negative-gain valleys — in
batch form: it snapshots the state, *kicks* the least-damaging
non-improving batch through the same race and balance filters,
re-descends greedily (kicked vertices frozen for the first descent so
it reorganizes around the perturbation instead of undoing it), and
keeps the result only when the objective ends strictly better than the
snapshot, restoring it otherwise.  The cut is therefore monotone
non-increasing across the whole call, accepted kicks strictly decrease
the potential, and termination is guaranteed.  The refiner is
single-process and free of iteration-order ambiguity.
``docs/refinement.md`` carries the full taxonomy,
correctness argument and decision guide.

Observability: ``part.batch.*`` counters under the
``partition.batch_refine`` phase (:mod:`repro.obs.registry`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, PartitionError
from ..hypergraph.partition_state import PartitionState
from ..obs.recorder import NULL_RECORDER, Recorder

__all__ = [
    "REFINERS",
    "BatchRefineResult",
    "BoundaryGains",
    "batch_refine",
    "cut_degrees",
    "validate_refiner",
]

#: selectable refinement modes (``refiner=`` / CLI ``--refiner``)
REFINERS = ("fm", "batch")

#: a kick perturbs the best ``1/_KICK_FRACTION`` of the boundary's
#: non-improving candidates (at least one vertex)
_KICK_FRACTION = 16

#: safety cap on gather/select/apply rounds; the natural exit is the
#: fixpoint (a round with no applicable (cut, soed)-improving move)
MAX_ROUNDS = 1024

#: vertices scored per ``move_gains_matrix`` call: bounds its ``(pins,
#: T)`` transients at XL scale, and at 100k vertices scores the finest
#: level no slower than a 4x larger chunk (docs/refinement.md)
_GATHER_CHUNK = 1 << 14


def validate_refiner(name: str) -> str:
    """Check a ``refiner=`` selector; returns it for chaining."""
    if name not in REFINERS:
        raise ConfigError(
            f"unknown refiner {name!r}; expected one of {REFINERS}"
        )
    return name


@dataclass(frozen=True)
class BatchRefineResult:
    """Outcome of one :func:`batch_refine` call.

    ``rounds`` counts gather/select/apply rounds that applied at least
    one move; ``moves`` the vertices moved (both exclude rolled-back
    kick explorations); ``gain`` the total realized cut decrease
    (``cut_before - cut_size``).
    """

    rounds: int
    moves: int
    gain: int
    cut_size: int


def _lex_argmax(gain: np.ndarray, soed: np.ndarray) -> np.ndarray:
    """Per column, the row of the lexicographic (gain, soed) maximum,
    lowest row on ties: the largest soed among the rows that reach the
    column's top gain.  Comparisons only, so the choice is exact at
    any edge weight (a folded ``gain·B + soed`` key wraps int64)."""
    top = np.where(gain == gain.max(axis=0), soed, np.iinfo(np.int64).min)
    hit = top == top.max(axis=0)
    # the lowest hit row: rows ranked T, T-1, ..., 1 and the top rank
    # taken by an elementwise max (an argmax over axis 0 is slower)
    rank = np.arange(len(gain), 0, -1)[:, None]
    return len(gain) - (hit * rank).max(axis=0)


def cut_degrees(state: PartitionState) -> np.ndarray:
    """Per-vertex count of incident cut (λ>1) hyperedges.

    ``cut_degrees(state) > 0`` is the refinement boundary.  Built with
    one CSR gather + scatter-add over the cut edges' pins;
    :func:`batch_refine` maintains it incrementally afterwards from
    :meth:`~repro.hypergraph.partition_state.PartitionState.move_batch`'s
    flipped-edge report.
    """
    deg = np.zeros(state.hg.num_vertices, dtype=np.int64)
    cut_edges = np.flatnonzero(state.edge_lambda > 1)
    if len(cut_edges):
        pins, _ = state.hg.edges_pins(cut_edges)
        np.add.at(deg, pins, 1)
    return deg


class BoundaryGains:
    """What one :func:`batch_refine` call keeps incrementally about its
    state: the boundary's cut-edge degrees and each vertex's best move.

    ``best_target`` / ``best_gain`` / ``best_soed`` hold, per vertex,
    the block other than its own with the lexicographically best
    (cut gain, SOED gain) — lowest block index on ties — and that
    block's two gains, as
    :meth:`~repro.hypergraph.partition_state.PartitionState.move_gains_matrix`
    scores them.  That is all a round reads: a greedy round moves the
    vertices whose best is strictly above the own block's (0, 0), a
    kick the best of the rest.  A vertex's entries are exact unless
    ``stale[v]``: :meth:`applied` marks stale precisely the vertices
    whose gain rows the batch can have changed, and :meth:`refresh`
    re-scores the stale part of whatever the caller is about to read,
    so every decision sees the numbers a full re-gather would produce.
    """

    def __init__(self, state: PartitionState):
        n = state.hg.num_vertices
        self.state = state
        self.targets = np.arange(state.k, dtype=np.int64)
        self.cut_deg = cut_degrees(state)
        self.best_target = np.zeros(n, dtype=np.int64)
        self.best_gain = np.zeros(n, dtype=np.int64)
        self.best_soed = np.zeros(n, dtype=np.int64)
        self.stale = np.ones(n, dtype=bool)

    def refresh(self, vertices: np.ndarray) -> int:
        """Re-score the stale ones among ``vertices``; returns how many."""
        need = vertices[self.stale[vertices]]
        for s in range(0, len(need), _GATHER_CHUNK):
            chunk = need[s:s + _GATHER_CHUNK]
            g, so = self.state.move_gains_matrix(chunk, self.targets)
            ar = np.arange(len(chunk))
            g[self.state.part[chunk], ar] = np.iinfo(np.int64).min
            best = _lex_argmax(g, so)
            self.best_target[chunk] = best
            self.best_gain[chunk] = g[best, ar]
            self.best_soed[chunk] = so[best, ar]
        self.stale[need] = False
        return len(need)

    def ranked(
        self, vertices: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``vertices`` with their cached best moves as ``(vertex,
        block, cut gain, soed gain)``, highest cut gain first, then
        highest soed gain, lowest vertex id on ties — the deterministic
        priority the edge race resolves by."""
        gain, soed = self.best_gain[vertices], self.best_soed[vertices]
        order = np.lexsort((vertices, -soed, -gain))
        ranked = vertices[order]
        return ranked, self.best_target[ranked], gain[order], soed[order]

    def applied(self, moved: np.ndarray, touched: np.ndarray,
                old_lam: np.ndarray, changed: np.ndarray) -> None:
        """Account for a ``move_batch`` of ``moved`` that returned
        ``(_, touched, old_lam, changed)``.

        Stale afterwards: the moved vertices (their own block changed)
        and the pins of the changed edges — an edge whose zero /
        exactly-one count pattern survived the batch contributes to
        its pins' rows exactly what it did before
        (``docs/refinement.md``), so a clock net with two pins left in
        every block stales nobody.  Cut-edge degrees change only on the
        edges whose λ crossed 1; those are changed edges, so the same
        pin gather serves both.
        """
        self.stale[moved] = True
        if not changed.any():
            return
        hot = touched[changed]
        pins, cnt = self.state.hg.edges_pins(hot)
        self.stale[pins] = True
        lam_was, lam_now = old_lam[changed], self.state.edge_lambda[hot]
        delta = ((lam_was == 1) & (lam_now > 1)).astype(np.int64) \
            - ((lam_was > 1) & (lam_now == 1))
        flipped = delta != 0
        if flipped.any():
            np.add.at(self.cut_deg, pins[np.repeat(flipped, cnt)],
                      np.repeat(delta[flipped], cnt[flipped]))

    def rollback(self, cut_deg: np.ndarray) -> None:
        """Adopt the cut-edge degrees saved before an abandoned
        exploration; the gains cached since describe states that no
        longer exist, so everything goes stale."""
        self.cut_deg = cut_deg
        self.stale[:] = True


def _kick(cache: BoundaryGains, boundary: np.ndarray, select,
          apply_batch) -> np.ndarray | None:
    """Perturbation: force the least-damaging non-improving batch —
    each of the scored ``boundary``'s cached best other block, the best
    ``1/_KICK_FRACTION`` of them by (cut, soed) — through ``select``
    (the race and balance filters) into ``apply_batch``.  Returns the
    moved vertices as a mask, or ``None`` when nothing moved.  The
    greedy descent that follows decides whether the valley led
    anywhere; :func:`batch_refine` rolls back when it did not."""
    if not len(boundary):
        return None
    keep = max(1, len(boundary) // _KICK_FRACTION)
    cand_v, cand_t, cand_g, cand_s = (
        a[:keep] for a in cache.ranked(boundary))
    sel, _, _ = select(cand_v, cand_t)
    if not len(sel):
        return None
    apply_batch(cand_v[sel], cand_t[sel], cand_g[sel], cand_s[sel])
    frozen = np.zeros(len(cache.stale), dtype=bool)
    frozen[cand_v[sel]] = True
    return frozen


def batch_refine(
    state: PartitionState,
    constraint,
    max_kicks: int = 8,
    recorder: Recorder = NULL_RECORDER,
) -> BatchRefineResult:
    """Refine ``state`` in place with data-parallel move batches.

    Parameters
    ----------
    state:
        The partition to improve; mutated in place.
    constraint:
        Anything with ``bounds(total_weight) -> (lo, hi)``, such as a
        :class:`~repro.core.balance.BalanceConstraint`.  Only ``bounds``
        is consulted.
    max_kicks:
        At the greedy fixpoint, up to this many perturbation attempts:
        a snapshot is taken, the least-damaging non-improving batch is
        forced through (the batch analogue of FM's tentative negative-
        gain moves), the greedy descent re-runs (kicked vertices frozen
        for its first pass), and the snapshot is restored unless the
        lexicographic (cut, SOED) objective strictly improved.  ``0``
        disables the perturbation loop.
    recorder:
        Observability sink: ``part.batch.*`` counters inside a
        ``partition.batch_refine`` phase.  Never changes the result.

    The cut never increases (greedy moves strictly improve the
    lexicographic (cut, connectivity) objective, and a kick's
    exploration is rolled back unless it ends strictly better than the
    snapshot), and any block whose round-start weight satisfies its
    bound still satisfies it afterwards.  Deterministic — and trivially
    identical at any worker count, since no worker pool is involved.
    """
    with recorder.phase("partition.batch_refine"):
        result = _batch_refine(state, constraint, max_kicks, recorder)
    if recorder.enabled:
        recorder.incr("part.batch.rounds", result.rounds)
        recorder.incr("part.batch.moves", result.moves)
        recorder.incr("part.batch.gain", result.gain)
    return result


def _batch_refine(
    state: PartitionState,
    constraint,
    max_kicks: int,
    recorder: Recorder,
) -> BatchRefineResult:
    hg = state.hg
    cut_before = state.cut_size
    if state.k < 2 or hg.num_edges == 0:
        return BatchRefineResult(0, 0, 0, cut_before)
    lo, hi = constraint.bounds(hg.total_weight)
    cache = BoundaryGains(state)
    rounds = 0
    moves = 0
    # race() scratch: the best candidate rank seen per hyperedge.  Only
    # the entries a round writes are read back, and they are reset on
    # the way out, so a round costs its candidates' pins, not |edges|
    unranked = np.iinfo(np.int64).max
    edge_best = np.full(hg.num_edges, unranked, dtype=np.int64)

    def race(cand_v: np.ndarray, cand_t: np.ndarray) -> np.ndarray:
        # conflict-free selection: scatter-min each candidate's rank
        # onto its incident hyperedges; a candidate survives only when,
        # on every one of its edges, it either holds the winning rank
        # or shares the winner's destination block.  Distinct
        # destinations on one hyperedge would invalidate each other's
        # gains, so at most one destination moves per edge — while
        # same-destination groups are superadditive (the target block
        # lands on the edge once, every emptied source still empties),
        # so the realized gain can only meet or beat the prediction,
        # whatever the prediction's sign
        n_cand = len(cand_v)
        edges, deg = hg.vertices_edges(cand_v)
        if not len(edges):
            return np.ones(n_cand, dtype=bool)
        rank_of = np.repeat(np.arange(n_cand, dtype=np.int64), deg)
        np.minimum.at(edge_best, edges, rank_of)
        ok = cand_t[rank_of] == cand_t[edge_best[edges]]
        edge_best[edges] = unranked
        wins = np.zeros(n_cand, dtype=np.int64)
        np.add.at(wins, rank_of, ok)
        return wins == deg

    def balance_keep(sel_v: np.ndarray, sel_t: np.ndarray) -> np.ndarray:
        # prefix-sum weight filters in rank order against the current
        # weights w0.  Destinations may gain at most hi - w0[p];
        # sources may lose at most w0[p] - lo.  Together:
        # lo <= w0[p] - removed[p] <= w0[p] + added[p] - removed[p]
        #    = new w[p] <= w0[p] + added[p] <= hi
        # for every block that started inside the window (blocks that
        # started outside can only move toward it).
        sel_w = hg.vertex_weight[sel_v]
        w0 = state.part_weight
        keep = np.ones(len(sel_v), dtype=bool)
        for p in range(state.k):
            dst = sel_t == p
            if dst.any():
                keep[dst] &= np.cumsum(sel_w[dst]) <= hi - w0[p]
        src_of = state.part[sel_v]
        for p in range(state.k):
            src = keep & (src_of == p)
            if src.any():
                ok = np.cumsum(sel_w[src]) <= w0[p] - lo
                idx = np.flatnonzero(src)
                keep[idx[~ok]] = False
        return keep

    def select(cand_v: np.ndarray,
               cand_t: np.ndarray) -> tuple[np.ndarray, int, int]:
        # positions (in the ranked candidate arrays) of the batch to
        # apply, plus how many candidates the race and the balance
        # filter each turned away
        raced = np.flatnonzero(race(cand_v, cand_t))
        keep = balance_keep(cand_v[raced], cand_t[raced])
        sel = raced[keep]
        return sel, len(cand_v) - len(raced), len(raced) - len(sel)

    def apply_batch(sel_v: np.ndarray, sel_t: np.ndarray,
                    sel_g: np.ndarray, sel_s: np.ndarray) -> None:
        nonlocal rounds, moves
        soed_before = state.connectivity
        gain, touched, old_lam, changed = state.move_batch(sel_v, sel_t)
        predicted = int(sel_g.sum())
        if gain < predicted:
            raise PartitionError(
                f"batch_refine gain bound violated: realized gain "
                f"{gain} < predicted {predicted} (conflict filter bug)"
            )
        if soed_before - state.connectivity < int(sel_s.sum()):
            raise PartitionError(
                "batch_refine soed gain bound violated "
                "(conflict filter bug)"
            )
        cache.applied(sel_v, touched, old_lam, changed)
        rounds += 1
        moves += len(sel_v)

    def scored_boundary(frozen: np.ndarray | None = None) -> np.ndarray:
        # the movable boundary, its cached gains made exact
        boundary = np.flatnonzero(cache.cut_deg > 0)
        if frozen is not None and len(boundary):
            boundary = boundary[~frozen[boundary]]
        gathered = cache.refresh(boundary)
        if recorder.enabled:
            recorder.incr("part.batch.gathered", gathered)
        return boundary

    def greedy(frozen: np.ndarray | None = None) -> None:
        # improving rounds (positive cut gain, or zero cut gain with
        # positive SOED gain) to a fixpoint.  Each vertex proposes its
        # cached best other block when that beats staying, i.e. the own
        # block's (0, 0).
        while rounds < MAX_ROUNDS:
            boundary = scored_boundary(frozen)
            if not len(boundary):
                return
            if recorder.enabled:
                recorder.observe_max("part.batch.boundary", len(boundary))
            best_gain = cache.best_gain[boundary]
            best_soed = cache.best_soed[boundary]
            pos = (best_gain > 0) | ((best_gain == 0) & (best_soed > 0))
            if recorder.enabled:
                recorder.incr("part.batch.candidates", int(pos.sum()))
            if not pos.any():
                return  # fixpoint: no improving move exists
            cand_v, cand_t, cand_g, cand_s = cache.ranked(boundary[pos])
            sel, conflicts, dropped = select(cand_v, cand_t)
            if recorder.enabled:
                recorder.incr("part.batch.conflicts", conflicts)
                recorder.incr("part.batch.balance_dropped", dropped)
            if not len(sel):
                return  # no balance-admissible improving batch
            apply_batch(cand_v[sel], cand_t[sel], cand_g[sel], cand_s[sel])

    greedy()
    # perturbation loop: snapshot the fixpoint, kick the boundary into
    # a negative-gain valley, re-descend (kicked vertices frozen first,
    # so the descent reorganizes *around* the perturbation instead of
    # undoing it move-for-move, then unfrozen to settle), and keep the
    # result only if the lexicographic (cut, soed) objective strictly
    # improved — otherwise restore the snapshot and stop.  Every
    # accepted kick strictly decreases the potential, so this
    # terminates; max_kicks and MAX_ROUNDS bound the exploration.
    for _ in range(max_kicks):
        if rounds >= MAX_ROUNDS:
            break
        snap = state.snapshot()
        snap_key = (state.cut_size, state.connectivity)
        snap_cut_deg = cache.cut_deg.copy()
        snap_rounds, snap_moves = rounds, moves
        if recorder.enabled:
            recorder.incr("part.batch.kicks")
        frozen = _kick(cache, scored_boundary(), select, apply_batch)
        if frozen is None:
            break
        greedy(frozen)
        greedy()
        if (state.cut_size, state.connectivity) >= snap_key:
            state.restore(snap)
            cache.rollback(snap_cut_deg)
            rounds, moves = snap_rounds, snap_moves
            break
        # accepted: free this snapshot before the next kick takes its own
        del snap, snap_cut_deg
    return BatchRefineResult(rounds, moves, cut_before - state.cut_size,
                             state.cut_size)
