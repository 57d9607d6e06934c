"""Production multilevel k-way partitioner on the vectorized core.

A *direct k-way* multilevel pipeline (no recursive bisection) built
entirely from the repo's first-class machinery.  It is the flat
partition driver everywhere: ``--algorithm multilevel``, the scale
ladder, and Table 2's comparator on the flattened netlist, in the role
the paper gave hMetis::

    coarsen      synchronous sub-round clustering on heavy-edge
                 ratings, weight-aware (no cluster may exceed a
                 balance-implied cap): a level is a handful of
                 whole-level array passes, repeated until the stop
                 size or the reduction stalls
    initial      greedy k-way candidates on the coarsest hypergraph
                 (LPT + seeded random fills), each refined, best kept
    uncoarsen    project the assignment through each level
                 (``assignment[mapping]`` — cut-exact, see
                 :func:`repro.hypergraph.build.project_hypergraph`)
                 and refine with tournament-scheduled pairwise FM

Every refinement — at the coarsest level and at every uncoarsening
level — is the stability loop the design-driven driver runs
(:func:`repro.core.pairing.improve_until_stable`), serial and in place,
so a partition is a function of ``(hg, k, b, seed, config, refiner)``
alone (``docs/multilevel.md``).

Design references (PAPERS.md): the weight-aware cluster cap follows
"Multilevel Hypergraph Partitioning with Vertex Weights Revisited";
the synchronous deterministic sub-rounds — of clustering and of
refinement alike — follow "Deterministic Parallel Hypergraph
Partitioning".

Observability: the engine reports ``part.ml.*`` counters (levels,
coarsest size, join totals, per-level cut maxima, refinement rounds,
uncoarsening gain) plus the shared ``part.pairing.*`` / ``part.fm.*``
families, under the phases ``partition.coarsen``,
``partition.initial`` and ``partition.uncoarsen``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import PartitionError
from ..hypergraph.build import flat_hypergraph, project_hypergraph
from ..hypergraph.hypergraph import Hypergraph
from ..hypergraph.partition_state import PartitionState
from ..obs.recorder import NULL_RECORDER, Recorder
from ..verilog.netlist import Netlist
from .balance import BalanceConstraint
from .batch_refine import validate_refiner
from .multiway import machine_shares
from .pairing import (
    improve_until_stable,
    pairing_strategy,
    repair_balance,
    require_serial,
)

__all__ = [
    "MultilevelConfig",
    "MultilevelLevel",
    "MultilevelKwayResult",
    "coarsen_hypergraph",
    "multilevel_kway_partition",
    "direct_kway_partition",
    "multilevel_flat_partition",
]


@dataclass(frozen=True)
class MultilevelConfig:
    """The coarsening bounds tests vary (every other bound is a module
    constant: :data:`SUB_ROUNDS` and its neighbours, :data:`NUM_INITIAL`).

    ``coarsest_vertices`` / ``coarsest_per_part`` set the stop size:
    coarsening halts at ``max(coarsest_vertices, coarsest_per_part*k)``
    vertices.  Hyperedges wider than ``large_edge_limit`` pins carry no
    locality signal and do not rate joins.
    """

    coarsest_vertices: int = 160
    coarsest_per_part: int = 24
    large_edge_limit: int = 48

    def stop_size(self, k: int) -> int:
        return max(self.coarsest_vertices, self.coarsest_per_part * k)

    def max_cluster_weight(self, constraint: BalanceConstraint,
                           total_weight: int) -> int:
        _, hi = constraint.bounds(total_weight)
        return max(1, int(hi * MATCH_WEIGHT_FRACTION))


@dataclass(frozen=True)
class MultilevelLevel:
    """One coarsening step: fine hypergraph, its contraction, the map.

    ``mapping[v]`` is the coarse vertex of fine vertex ``v``;
    projecting a coarse assignment down is ``assignment[mapping]``.
    ``max_cluster_weight`` records the cluster cap in force, so the
    coarsening invariants are checkable per level (total vertex weight
    preserved, no *merged* cluster past the cap).  ``rating`` sums the
    ratings of the admitted joins; ``sub_rounds`` ran, in which
    ``proposed`` joins lost ``conflict_dropped`` to the conflict rule
    and ``cap_dropped`` to the cap.
    """

    fine: Hypergraph
    coarse: Hypergraph
    mapping: np.ndarray
    max_cluster_weight: int
    rating: float
    sub_rounds: int
    proposed: int
    conflict_dropped: int
    cap_dropped: int

    @property
    def joins(self) -> tuple[int, int, int, int, int, int]:
        """``(vertices, clusters, sub_rounds, proposed, conflict_dropped,
        cap_dropped)`` — the level without its hypergraphs."""
        return (self.fine.num_vertices, self.coarse.num_vertices,
                self.sub_rounds, self.proposed, self.conflict_dropped,
                self.cap_dropped)


@dataclass
class MultilevelKwayResult:
    """Final partition plus multilevel provenance.

    ``levels`` is the hierarchy depth (0 for the direct engine),
    ``level_cuts`` the cut after refining each uncoarsening level
    (finest last — its entry equals ``cut_size`` before any final
    repair), ``level_joins`` the :attr:`MultilevelLevel.joins` of each
    coarsening level that ran (finest first;
    ``tools/profile_partition.py`` prints them).
    ``gate_assignment``/``to_simulation`` make the result a
    drop-in partition backend wherever
    :class:`repro.core.multiway.MultiwayResult` is consumed, provided
    the hypergraph's vertices are gates (``flat_hypergraph``).
    """

    assignment: np.ndarray
    k: int
    b: float
    cut_size: int
    part_weights: np.ndarray
    balanced: bool
    levels: int
    coarse_vertices: int
    initial_cut: int
    refine_rounds: int
    level_cuts: list[int] = field(default_factory=list)
    level_joins: list[tuple[int, int, int, int, int, int]] = field(
        default_factory=list)
    history: list[str] = field(default_factory=list)

    def gate_assignment(self) -> np.ndarray:
        """Partition id per vertex (= per gate on a flat hypergraph)."""
        return self.assignment

    def to_simulation(self) -> tuple[list[np.ndarray], list[int]]:
        """(gate clusters, machine per cluster) for the Time Warp engine:
        one per non-empty machine (:func:`~repro.core.multiway.machine_shares`)."""
        return machine_shares(self.assignment, self.k)


# -- coarsening -------------------------------------------------------------


#: a level's seeded vertex permutation is cut into this many sub-rounds
SUB_ROUNDS = 16

#: sub-rounds of a level stop once ``clusters * bound <= vertices``.
#: Cut quality under the batch refiner tracks the *number* of levels, a
#: level's cost its size: levels above ``FINE_LEVEL_VERTICES`` (where the
#: time goes) may halve, the ones below (where the partition's shape is
#: decided, at no cost) shrink slowly.  The one result that needs two
#: bounds instead of a uniform 1.7: 24-seed median cut on
#: ``memctrl-scale`` 471.5 uniform against 425 forked (pair matching
#: 396.5: uniform is 1.19x of it, past the 1.10x quality bound), at
#: 0.71 s against 0.65 s per 100k partition.  Inside the forked family
#: the three values are flat to within seed noise — nothing to re-tune.
#: Sweep: docs/performance.md, "Coarsening".
FINE_LEVEL_VERTICES = 20_000
FINE_SHRINK = 2.0
COARSE_SHRINK = 1.4

#: stall guard: a level that keeps more than this share of its vertices
#: ends the hierarchy, as does reaching ``MAX_LEVELS``
MIN_REDUCTION = 0.95
MAX_LEVELS = 48

#: no join may create a vertex heavier than this fraction of the
#: Formula-1 upper load bound, so the coarsest hypergraph always
#: remains packable into a balanced k-way partition
MATCH_WEIGHT_FRACTION = 0.5


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Start index of every run of equal values in ``keys``."""
    new = np.ones(len(keys), dtype=bool)
    new[1:] = keys[1:] != keys[:-1]
    return np.flatnonzero(new)


def _run_lengths(starts: np.ndarray, total: int) -> np.ndarray:
    """Lengths of the runs that begin at ``starts`` and end at ``total``."""
    return np.diff(np.append(starts, total))


def _cluster_level(
    hg: Hypergraph,
    rng: np.random.Generator,
    max_weight: int,
    large_edge_limit: int,
) -> tuple[np.ndarray, float, tuple[int, int, int, int]]:
    """One coarsening level by synchronous sub-round clustering.

    A seeded permutation of the vertices is cut into :data:`SUB_ROUNDS`
    slices.  In sub-round ``r`` every vertex of slice ``r`` that is still
    a singleton rates the clusters around it — heavy-edge
    ``sum(w_e / (|e| - 1))`` over the scoring edges (``2 <= |e| <=
    large_edge_limit``; wider ones are clock/reset nets with no locality
    signal, they still project and still count toward cuts) it shares
    with the cluster's members — from the clustering frozen at the start
    of the sub-round, skips clusters it would push past ``max_weight``
    and proposes to join the best (lowest cluster id on ties).
    Proposals are resolved by a fixed rule: of a mutual pair the higher
    id joins the lower; any other vertex that some proposal targets
    stays put; a proposal whose target moves is dropped (the vertex may
    retry in a later level).  The survivors of each target are admitted
    lightest first (id on ties) while the cluster stays within
    ``max_weight``.  So a cluster only ever grows around a vertex that
    never moves, every join goes along a positive rating, and the
    result is a function of ``(hg, rng state)`` alone.  Sub-rounds end
    early at the level's shrink bound (:data:`FINE_SHRINK` /
    :data:`COARSE_SHRINK`).

    Whole-slice array passes only; the sub-round loop is the one Python
    iteration.  Returns ``(mapping, rating, (sub_rounds, proposed,
    conflict_dropped, cap_dropped))`` — ``mapping`` numbers clusters by
    smallest member, ``rating`` sums the ratings of the admitted joins.
    """
    n = hg.num_vertices
    vw = hg.vertex_weight
    sizes = np.diff(hg._edge_ptr)
    scoring = (sizes >= 2) & (sizes <= large_edge_limit)
    edge_score = hg.edge_weight / np.maximum(sizes - 1, 1)

    cluster = np.arange(n, dtype=np.int64)  # id = the member that stayed
    weight = vw.copy()                      # per cluster id
    single = np.ones(n, dtype=bool)         # nobody joined, never moved
    proposal = np.full(n, -1, dtype=np.int64)
    targeted = np.zeros(n, dtype=bool)
    moving = np.zeros(n, dtype=bool)
    perm = rng.permutation(n)
    bounds = (np.arange(SUB_ROUNDS + 1) * n // SUB_ROUNDS).tolist()
    shrink = FINE_SHRINK if n > FINE_LEVEL_VERTICES else COARSE_SHRINK
    clusters = n
    rating = 0.0
    sub_rounds = proposed = conflict_dropped = cap_dropped = 0
    for lo, hi in zip(bounds, bounds[1:]):
        if clusters * shrink <= n:
            break
        sub_rounds += 1
        verts = perm[lo:hi]
        verts = verts[single[verts]]

        # (vertex, neighbour cluster, edge score) over scoring edges
        inc_e, deg = hg.vertices_edges(verts)
        slot = np.repeat(np.arange(len(verts), dtype=np.int64), deg)
        keep = scoring[inc_e]
        slot, inc_e = slot[keep], inc_e[keep]
        pins, cnt = hg.edges_pins(inc_e)
        slot = np.repeat(slot, cnt)
        score = np.repeat(edge_score[inc_e], cnt)
        target = cluster[pins]
        own = verts[slot]
        keep = (pins != own) & (weight[target] + vw[own] <= max_weight)
        slot, target, score = slot[keep], target[keep], score[keep]
        if not len(slot):
            continue

        # rating per (vertex, cluster) — the stable sort fixes the order
        # of every float sum — then each vertex's best cluster
        key = slot * n + target
        order = np.argsort(key, kind="stable")
        starts = _run_starts(key[order])
        rate = np.add.reduceat(score[order], starts)
        first = order[starts]
        slot, target = slot[first], target[first]
        starts = _run_starts(slot)
        best = np.maximum.reduceat(rate, starts)
        at = np.flatnonzero(
            rate == np.repeat(best, _run_lengths(starts, len(slot))))
        at = at[_run_starts(slot[at])]  # clusters ascend: lowest id on ties
        mover, target, rate = verts[slot[at]], target[at], rate[at]
        proposed += len(mover)

        # conflicts: of a mutual pair the higher id moves; otherwise a
        # targeted vertex stays and a join onto a mover is dropped
        proposal[mover] = target
        mutual = proposal[target] == mover
        go = mutual & (mover > target)
        targeted[target] = True
        moving[mover[go]] = True
        go |= ~mutual & ~targeted[mover] & ~moving[target]
        proposal[mover] = -1
        targeted[target] = False
        moving[mover] = False
        conflict_dropped += len(mover) - int(go.sum())
        mover, target, rate = mover[go], target[go], rate[go]

        # cap: each target admits its joiners lightest first
        w = vw[mover]
        order = np.lexsort((mover, w, target))
        mover, target, rate, w = (
            mover[order], target[order], rate[order], w[order])
        starts = _run_starts(target)
        total = np.cumsum(w)
        prefix = total - np.repeat(
            total[starts] - w[starts], _run_lengths(starts, len(w)))
        fits = weight[target] + prefix <= max_weight
        cap_dropped += len(mover) - int(fits.sum())
        mover, target, rate, w = mover[fits], target[fits], rate[fits], w[fits]

        cluster[mover] = target
        np.add.at(weight, target, w)
        single[mover] = False
        single[target] = False
        clusters -= len(mover)
        rating += float(rate.sum())

    # number clusters by smallest member (np.unique's sorted inverse)
    smallest = np.full(n, n, dtype=np.int64)
    np.minimum.at(smallest, cluster, np.arange(n, dtype=np.int64))
    _, mapping = np.unique(smallest[cluster], return_inverse=True)
    return (
        mapping.astype(np.int64, copy=False), rating,
        (sub_rounds, proposed, conflict_dropped, cap_dropped),
    )


def coarsen_hypergraph(
    hg: Hypergraph,
    constraint: BalanceConstraint,
    seed: int = 0,
    config: MultilevelConfig | None = None,
    recorder: Recorder = NULL_RECORDER,
) -> tuple[Hypergraph, list[MultilevelLevel]]:
    """Build the coarsening hierarchy for a k-way run.

    Returns ``(coarsest hypergraph, levels finest-first)``.  Stops at
    the config's stop size, after :data:`MAX_LEVELS`, or when a level
    shrinks less than the :data:`MIN_REDUCTION` stall guard.  The cluster
    cap is fixed across levels at
    :meth:`MultilevelConfig.max_cluster_weight` — a fraction of the
    Formula-1 upper bound, so packability survives contraction.
    """
    cfg = config if config is not None else MultilevelConfig()
    target = cfg.stop_size(constraint.k)
    max_w = cfg.max_cluster_weight(constraint, hg.total_weight)
    rng = np.random.default_rng(seed)
    levels: list[MultilevelLevel] = []
    current = hg
    for _ in range(MAX_LEVELS):
        if current.num_vertices <= target:
            break
        mapping, rating, joins = _cluster_level(
            current, rng, max_w, cfg.large_edge_limit
        )
        coarse = project_hypergraph(current, mapping)
        if coarse.num_vertices >= current.num_vertices * MIN_REDUCTION:
            break  # diminishing returns: stop the hierarchy here
        levels.append(MultilevelLevel(
            current, coarse, mapping, max_w, rating, *joins
        ))
        current = coarse
    if recorder.enabled:
        recorder.incr("part.ml.levels", len(levels))
        recorder.incr("part.ml.coarse_vertices", current.num_vertices)
        # names kept for the pipeline benchmark: vertices merged into
        # another cluster, and the summed rating of those joins
        recorder.incr("part.ml.matched_pairs",
                      hg.num_vertices - current.num_vertices)
        recorder.incr("part.ml.match_weight",
                      round(sum(lv.rating for lv in levels), 3))
        if current.num_vertices:
            recorder.observe_max(
                "part.ml.reduction",
                round(hg.num_vertices / current.num_vertices, 4),
            )
    return current, levels


# -- initial partition ------------------------------------------------------

#: greedy candidates refined on the coarsest level (LPT + random fills)
NUM_INITIAL = 4

#: every level's budgets for the shared stability loop
MAX_FM_PASSES = 4
MAX_ROUNDS = 8


def _greedy_fill(vertex_weight: list[int], k: int,
                 order: list[int]) -> np.ndarray:
    """Assign vertices in ``order`` to the currently lightest partition
    (lowest id on ties) — LPT when the order is heaviest-first."""
    loads = [0] * k
    assign = [0] * len(vertex_weight)
    for v in order:
        p = loads.index(min(loads))
        assign[v] = p
        loads[p] += vertex_weight[v]
    return np.asarray(assign, dtype=np.int64)


def _refine_level(
    state: PartitionState,
    constraint: BalanceConstraint,
    pairs_fn,
    rng: np.random.Generator,
    refiner: str,
    recorder: Recorder,
) -> int:
    """One level's refinement: the shared stability loop under the
    module's budgets, then the load repair; returns the rounds run."""
    rounds = improve_until_stable(
        state, constraint, pairs_fn, rng, MAX_FM_PASSES, MAX_ROUNDS,
        refiner=refiner, recorder=recorder,
    )
    repair_balance(state, constraint, 2 * state.k, recorder)
    return rounds


def _initial_partition(
    coarsest: Hypergraph,
    k: int,
    constraint: BalanceConstraint,
    candidates: int,
    pairs_fn,
    rng: np.random.Generator,
    recorder: Recorder,
    refiner: str = "fm",
) -> tuple[PartitionState, int, int]:
    """Best of ``candidates`` greedy fills of the coarsest level.

    Candidate 0 is the LPT fill (heaviest vertex first, lightest
    partition); the rest are greedy fills in seeded random orders.
    Every candidate is refined through the shared refiner (so the
    choice is made between *locally optimal* candidates) and the winner
    is the lexicographically best (balance violation, cut, index).
    Returns ``(winner, rounds run over all candidates, the winner's cut
    before its refinement)``.
    """
    vertex_weight = coarsest.vertex_weight_list
    n = coarsest.num_vertices
    lpt = sorted(range(n), key=lambda v: (-vertex_weight[v], v))
    best: tuple[float, int, int] | None = None
    best_state: PartitionState | None = None
    best_fill_cut = 0
    rounds_total = 0
    for idx in range(candidates):
        order = lpt if idx == 0 else rng.permutation(n).tolist()
        state = PartitionState(
            coarsest, k, _greedy_fill(vertex_weight, k, order)
        )
        fill_cut = state.cut_size
        rounds_total += _refine_level(state, constraint, pairs_fn, rng,
                                      refiner, recorder)
        key = (constraint.violation(state.part_weight), state.cut_size, idx)
        if best is None or key < best:
            best, best_state, best_fill_cut = key, state, fill_cut
    assert best_state is not None
    return best_state, rounds_total, best_fill_cut


# -- the drivers ------------------------------------------------------------


def _kway_partition(
    hg: Hypergraph,
    k: int,
    b: float,
    seed: int,
    recorder: Recorder,
    config: MultilevelConfig | None,
    refiner: str,
    coarsen: bool,
) -> MultilevelKwayResult:
    """The one k-way body: build a level stack, pick and refine the
    initial partition on its top, project and refine down to ``hg``.

    ``coarsen=False`` is the direct engine: an empty level stack (the
    "coarsest" hypergraph is ``hg`` itself) under the single LPT
    candidate, whose ``initial_cut`` is the fill's cut *before*
    refinement — with no level below, that refinement is the whole run.
    """
    if k < 1:
        raise PartitionError(f"k must be >= 1, got {k}")
    if k > hg.num_vertices:
        raise PartitionError(
            f"cannot make {k} partitions from {hg.num_vertices} vertices"
        )
    validate_refiner(refiner)
    constraint = BalanceConstraint(k, b)
    rng = np.random.default_rng(seed)
    history: list[str] = []

    coarsest, levels = hg, []
    if coarsen:
        with recorder.phase("partition.coarsen"):
            coarsest, levels = coarsen_hypergraph(
                hg, constraint, seed=seed, config=config, recorder=recorder
            )
        history.append(
            f"coarsen: {hg.num_vertices} -> {coarsest.num_vertices} "
            f"vertices over {len(levels)} levels"
        )

    candidates = NUM_INITIAL if coarsen else 1
    pairs_fn = pairing_strategy("exhaustive", recorder=recorder)
    level_cuts: list[int] = []
    with recorder.phase("partition.initial"):
        state, refine_rounds, fill_cut = _initial_partition(
            coarsest, k, constraint, candidates, pairs_fn, rng, recorder,
            refiner=refiner,
        )
    initial_cut = state.cut_size if coarsen else fill_cut
    history.append(
        f"initial: cut={state.cut_size}, "
        f"loads={state.part_weight.tolist()}"
    )
    if recorder.enabled:
        recorder.incr("part.ml.initial_candidates", candidates)
        recorder.incr("part.ml.initial_cut", initial_cut)
        recorder.observe_max("part.ml.level_cut", state.cut_size)
    # uncoarsening reads each level once, coarsest first: what survives
    # a level is its fine hypergraph and the projected assignment, so
    # the coarse hypergraph and its state go before the next state is
    # built and the finest refine runs beside no coarser level
    level_joins = [level.joins for level in levels]
    num_levels, coarse_vertices = len(levels), coarsest.num_vertices
    del coarsest
    with recorder.phase("partition.uncoarsen"):
        while levels:
            level = levels.pop()
            fine, part = level.fine, state.part[level.mapping]
            del level, state
            state = PartitionState(fine, k, part)
            del part
            refine_rounds += _refine_level(state, constraint, pairs_fn,
                                           rng, refiner, recorder)
            level_cuts.append(state.cut_size)
            if recorder.enabled:
                recorder.observe_max("part.ml.level_cut",
                                     state.cut_size)
            history.append(
                f"level {fine.num_vertices}v: "
                f"cut={state.cut_size}, "
                f"loads={state.part_weight.tolist()}"
            )

    if recorder.enabled:
        recorder.incr("part.ml.refine_rounds", refine_rounds)
        recorder.incr("part.ml.uncoarsen_gain",
                      max(0, initial_cut - state.cut_size))
    return MultilevelKwayResult(
        assignment=state.part.copy(),
        k=k,
        b=b,
        cut_size=state.cut_size,
        part_weights=state.part_weight.copy(),
        balanced=constraint.satisfied(state.part_weight),
        levels=num_levels,
        coarse_vertices=coarse_vertices,
        initial_cut=initial_cut,
        refine_rounds=refine_rounds,
        level_cuts=level_cuts,
        level_joins=level_joins,
        history=history,
    )


def multilevel_kway_partition(
    hg: Hypergraph,
    k: int,
    b: float,
    seed: int = 0,
    workers: int | None = None,
    recorder: Recorder = NULL_RECORDER,
    config: MultilevelConfig | None = None,
    refiner: str = "fm",
) -> MultilevelKwayResult:
    """Direct k-way multilevel partitioning of a hypergraph.

    Parameters
    ----------
    hg:
        Any weighted hypergraph (e.g. ``flat_hypergraph(netlist)``).
    k, b:
        Partition count and Formula-1 balance factor (percent).
    seed:
        Drives the sub-round order and the random initial fills; fully
        deterministic for a fixed value.
    workers:
        Kept for the pipeline benchmark's call sites; delete with the
        next ``benchmark`` PR.  ``None`` or ``1``; anything else is a
        :class:`~repro.errors.ConfigError` — refinement is serial
        (``docs/parallelism.md``).
    recorder:
        Observability sink: ``part.ml.*`` plus the shared pairing /
        FM / refine counter families and the ``partition.coarsen`` /
        ``partition.initial`` / ``partition.uncoarsen`` phases.  A
        recorder never changes the result.
    config:
        :class:`MultilevelConfig` overrides (stop size, wide-edge
        limit).
    refiner:
        Per-level refiner: ``"fm"`` (tournament-paired heap FM) or
        ``"batch"`` (the data-parallel whole-boundary refiner,
        :mod:`repro.core.batch_refine`) — see ``docs/refinement.md``
        for the decision guide.
    """
    require_serial(workers)
    return _kway_partition(hg, k, b, seed, recorder, config, refiner,
                           coarsen=True)


def direct_kway_partition(
    hg: Hypergraph,
    k: int,
    b: float,
    seed: int = 0,
    recorder: Recorder = NULL_RECORDER,
    refiner: str = "fm",
) -> MultilevelKwayResult:
    """Flat direct k-way partitioning — the no-hierarchy comparator.

    The multilevel engine's own body run on an empty level stack: the
    LPT fill of the full hypergraph, refined once by the same stability
    loop under the same budgets.  This is what "direct multiway on a
    flat hypergraph" means in the decision guide
    (``docs/multilevel.md``) and in ``benchmarks/bench_multilevel.py``'s
    cut-at-equal-balance gate, so any cut difference is attributable to
    the hierarchy alone.  ``refiner`` selects heap FM (``"fm"``) or the
    data-parallel batch refiner (``"batch"``).
    """
    return _kway_partition(hg, k, b, seed, recorder, None, refiner,
                           coarsen=False)


def multilevel_flat_partition(
    netlist: Netlist,
    k: int,
    b: float,
    seed: int = 0,
    recorder: Recorder = NULL_RECORDER,
    config: MultilevelConfig | None = None,
    refiner: str = "fm",
) -> MultilevelKwayResult:
    """Multilevel k-way partition of a netlist's flat gate hypergraph.

    The netlist-facing adapter: vertices are gates, so the result's
    ``gate_assignment`` / ``to_simulation`` plug directly into the CLI,
    the pre-simulation sweeps and the Time Warp engine — the multilevel
    counterpart of :func:`repro.core.multiway.design_driven_partition`.
    ``refiner`` passes through to :func:`multilevel_kway_partition`.
    """
    return multilevel_kway_partition(
        flat_hypergraph(netlist), k, b, seed=seed, recorder=recorder,
        config=config, refiner=refiner,
    )
