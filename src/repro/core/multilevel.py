"""Production multilevel k-way partitioner on the vectorized core.

The hMetis-style baseline (:mod:`repro.baselines.multilevel`) proved
the multilevel idea on this codebase but predates the vectorized
substrate: it recursively bisects induced sub-hypergraphs with its own
two-way FM and never touches :class:`PartitionState` or the obs
recorder.  This module is the production rewrite — a *direct k-way*
multilevel pipeline built entirely from the repo's first-class
machinery::

    coarsen      heavy-edge first-choice matching, weight-aware
                 (no cluster may exceed a balance-implied cap),
                 repeated until the stop size or the reduction stalls
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

Design references (PAPERS.md): weight-aware matching caps follow
"Multilevel Hypergraph Partitioning with Vertex Weights Revisited";
the synchronous deterministic refinement rounds follow "Deterministic
Parallel Hypergraph Partitioning".

Observability: the engine reports ``part.ml.*`` counters (levels,
coarsest size, match totals, per-level cut maxima, refinement rounds,
uncoarsening gain) plus the shared ``part.pairing.*`` / ``part.fm.*``
/ ``part.refine.*`` families, under the phases ``partition.coarsen``,
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
from .pairing import (
    improve_until_stable,
    pairing_rounds,
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
    """Tuning knobs of the multilevel pipeline (all deterministic).

    ``coarsest_vertices`` / ``coarsest_per_part`` set the stop size:
    coarsening halts at ``max(coarsest_vertices, coarsest_per_part*k)``
    vertices.  ``min_reduction`` is the stall guard — a level that
    shrinks the vertex count by less than ``1 - min_reduction`` ends
    the hierarchy.  ``match_weight_fraction`` caps cluster growth:
    no match may create a vertex heavier than that fraction of the
    Formula-1 upper load bound, so the coarsest hypergraph always
    remains packable into a balanced k-way partition.
    """

    coarsest_vertices: int = 160
    coarsest_per_part: int = 24
    min_reduction: float = 0.95
    max_levels: int = 48
    match_weight_fraction: float = 0.5
    large_edge_limit: int = 48
    num_initial: int = 4
    max_fm_passes: int = 4
    max_rounds: int = 8
    #: batch refiner only: levels larger than this run the greedy
    #: descent without kick perturbation.  A kick re-runs the whole
    #: descent up to 8 times for a marginal cut polish — affordable at
    #: 100k vertices, minutes of wall at a million.  The threshold sits
    #: above every committed benchmark size, so results at or below
    #: 100k vertices are unchanged; the scale-ladder rungs above it
    #: trade that polish for a bounded wall.
    batch_kick_vertex_limit: int = 200_000

    def stop_size(self, k: int) -> int:
        return max(self.coarsest_vertices, self.coarsest_per_part * k)

    def max_cluster_weight(self, constraint: BalanceConstraint,
                           total_weight: int) -> int:
        _, hi = constraint.bounds(total_weight)
        return max(1, int(hi * self.match_weight_fraction))


@dataclass(frozen=True)
class MultilevelLevel:
    """One coarsening step: fine hypergraph, its contraction, the map.

    ``mapping[v]`` is the coarse vertex of fine vertex ``v``;
    projecting a coarse assignment down is ``assignment[mapping]``.
    ``max_cluster_weight`` records the matching cap in force, so the
    coarsening invariants are checkable per level (total vertex weight
    preserved, no *merged* cluster past the cap).
    """

    fine: Hypergraph
    coarse: Hypergraph
    mapping: np.ndarray
    max_cluster_weight: int
    matched_pairs: int
    match_score: float


@dataclass
class MultilevelKwayResult:
    """Final partition plus multilevel provenance.

    ``levels`` is the hierarchy depth (0 for the direct engine),
    ``level_cuts`` the cut after refining each uncoarsening level
    (finest last — its entry equals ``cut_size`` before any final
    repair).  ``gate_assignment``/``to_simulation`` make the result a
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
    history: list[str] = field(default_factory=list)

    def gate_assignment(self) -> np.ndarray:
        """Partition id per vertex (= per gate on a flat hypergraph)."""
        return self.assignment

    def to_simulation(self) -> tuple[list[list[int]], list[int]]:
        """(gate clusters, machine per cluster) for the Time Warp engine.

        One cluster per non-empty partition — the clustered Time Warp
        granularity a flat partition induces.
        """
        clusters: list[list[int]] = []
        machines: list[int] = []
        for p in range(self.k):
            members = np.flatnonzero(self.assignment == p)
            if members.size:
                clusters.append([int(g) for g in members])
                machines.append(p)
        return clusters, machines


# -- coarsening -------------------------------------------------------------


def _matching_candidates(
    hg: Hypergraph, large_edge_limit: int
) -> tuple[list[int], list[int], list[float]]:
    """Per-vertex heavy-edge candidate CSR: ``(ptr, neighbour, score)``.

    One vectorized pass over the whole level precomputes, for every
    vertex ``v``, its candidate neighbours (ascending ids) and their
    connectivity scores ``sum(w_e / (|e| - 1))`` over shared scoring
    edges — the quantities the matching loop's per-vertex dict used to
    rebuild from scratch at every visit.  Scores are independent of
    the visit order and of who is already matched (matched candidates
    are *filtered*, never re-scored), so hoisting them out of the loop
    is exact.

    Bit-identity of the float scores: the (owner, candidate) pair
    expansion enumerates incidences in the scalar loop's exact
    encounter order (incident edges ascending, pins ascending within
    each edge), the grouping ``lexsort`` is stable, and ``np.add.at``
    accumulates sequentially in index order — so every score is the
    same left-to-right float sum the dict accumulation produced.
    """
    n = hg.num_vertices
    sizes = np.diff(hg._edge_ptr)
    scoring = (sizes >= 2) & (sizes <= large_edge_limit)
    # same IEEE double as the scalar `edge_weight[e] / (size - 1)`
    edge_score = hg.edge_weight / np.maximum(sizes - 1, 1)

    # expand each (vertex, scoring edge) incidence to the edge's pins —
    # vertex-major, edges ascending per vertex, pins ascending per edge
    deg = np.diff(hg._vertex_ptr)
    owner = np.repeat(np.arange(n, dtype=np.int64), deg)
    inc_e = hg._vertex_pins
    keep = scoring[inc_e]
    owner = owner[keep]
    inc_e = inc_e[keep]
    cand, cnt = hg.edges_pins(inc_e)
    owner = np.repeat(owner, cnt)
    w = np.repeat(edge_score[inc_e], cnt)
    sel = cand != owner
    owner, cand, w = owner[sel], cand[sel], w[sel]

    # group by (owner, candidate): stable sort keeps encounter order
    # within each pair, np.add.at sums in that exact order
    order = np.lexsort((cand, owner))
    owner, cand, w = owner[order], cand[order], w[order]
    new = np.ones(len(owner), dtype=bool)
    new[1:] = (owner[1:] != owner[:-1]) | (cand[1:] != cand[:-1])
    gid = np.cumsum(new) - 1
    ngroups = int(gid[-1]) + 1 if len(gid) else 0
    score = np.zeros(ngroups, dtype=np.float64)
    np.add.at(score, gid, w)
    g_owner = owner[new]
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(g_owner, minlength=n), out=ptr[1:])
    return ptr.tolist(), cand[new].tolist(), score.tolist()


def _heavy_edge_matching(
    hg: Hypergraph,
    rng: np.random.Generator,
    max_weight: int,
    large_edge_limit: int,
) -> tuple[np.ndarray, int, float]:
    """One first-choice heavy-edge matching pass.

    Vertices are visited in a seeded random order; each unmatched
    vertex merges with the unmatched neighbour of strongest
    connectivity ``sum(w_e / (|e| - 1))`` over shared edges, lowest id
    on ties, skipping candidates whose merged weight would exceed
    ``max_weight``.  Edges wider than ``large_edge_limit`` carry no
    locality signal (clock/reset nets) and are ignored for *scoring*
    only — they still project and still count toward cuts.

    Candidate neighbours and scores are precomputed for the whole
    level in one vectorized pass (:func:`_matching_candidates`); the
    sequential visit loop only filters matched/over-weight candidates
    and takes the first maximum — ascending candidate ids and strict
    ``>`` keep the lowest id on ties, exactly the retained reference
    (:func:`_heavy_edge_matching_reference`, pinned bit-identical by
    ``tests/test_coarsen_vectorized.py``).

    Returns ``(mapping, matched_pairs, match_score)`` where ``mapping``
    numbers coarse vertices in fine-id order (deterministic).
    """
    n = hg.num_vertices
    vw = hg.vertex_weight_list
    cand_ptr, cand_u, cand_s = _matching_candidates(hg, large_edge_limit)

    match = [-1] * n
    matched_pairs = 0
    match_score = 0.0
    for v in rng.permutation(n).tolist():
        if match[v] != -1:
            continue
        best_u = -1
        best_score = 0.0
        wv = vw[v]
        for i in range(cand_ptr[v], cand_ptr[v + 1]):
            u = cand_u[i]
            if match[u] != -1 or wv + vw[u] > max_weight:
                continue
            s = cand_s[i]
            if s > best_score:
                best_score = s
                best_u = u
        if best_u != -1:
            match[v] = best_u
            match[best_u] = v
            matched_pairs += 1
            match_score += best_score
        else:
            match[v] = v

    # number clusters in fine-id order: each cluster's id is the rank
    # of its smallest member, which np.unique's sorted inverse yields
    # directly (rep[v] = min(v, partner))
    match_arr = np.asarray(match, dtype=np.int64)
    rep = np.minimum(np.arange(n, dtype=np.int64), match_arr)
    _, mapping = np.unique(rep, return_inverse=True)
    return mapping.astype(np.int64, copy=False), matched_pairs, match_score


def _edge_pin_lists(hg: Hypergraph) -> list[list[int]]:
    """Per-edge pin lists as plain Python ints (one bulk CSR gather).

    Reference-path utility only: the production matcher reads CSR
    slices directly, this feeds the retained scalar oracle below.
    """
    flat, counts = hg.edges_pins(np.arange(hg.num_edges, dtype=np.int64))
    flat_list = flat.tolist()
    out: list[list[int]] = []
    pos = 0
    for c in counts.tolist():
        out.append(flat_list[pos:pos + c])
        pos += c
    return out


def _heavy_edge_matching_reference(
    hg: Hypergraph,
    rng: np.random.Generator,
    max_weight: int,
    large_edge_limit: int,
) -> tuple[np.ndarray, int, float]:
    """Scalar dict-accumulation matching — the retained oracle.

    The pre-vectorization implementation, kept verbatim so the
    randomized bit-identity test can pin :func:`_heavy_edge_matching`
    (mapping, pair count and float score all exactly equal) against
    the original semantics across seeds and adversarial edge shapes.
    """
    n = hg.num_vertices
    vertex_weight = hg.vertex_weight_list
    edge_weight = hg.edge_weight_list
    vertex_edges = hg.vertex_edges_lists()
    pins_of = _edge_pin_lists(hg)

    match = [-1] * n
    matched_pairs = 0
    match_score = 0.0
    for v in rng.permutation(n).tolist():
        if match[v] != -1:
            continue
        scores: dict[int, float] = {}
        for e in vertex_edges[v]:
            pins = pins_of[e]
            size = len(pins)
            if size < 2 or size > large_edge_limit:
                continue
            w = edge_weight[e] / (size - 1)
            for u in pins:
                if u != v and match[u] == -1:
                    scores[u] = scores.get(u, 0.0) + w
        best_u = -1
        best_score = 0.0
        wv = vertex_weight[v]
        for u in sorted(scores):  # ascending ids: strict > keeps lowest tie
            if wv + vertex_weight[u] > max_weight:
                continue
            s = scores[u]
            if s > best_score:
                best_score = s
                best_u = u
        if best_u != -1:
            match[v] = best_u
            match[best_u] = v
            matched_pairs += 1
            match_score += best_score
        else:
            match[v] = v

    mapping = [-1] * n
    next_id = 0
    for v in range(n):
        if mapping[v] != -1:
            continue
        mapping[v] = next_id
        partner = match[v]
        if partner != v and mapping[partner] == -1:
            mapping[partner] = next_id
        next_id += 1
    return np.asarray(mapping, dtype=np.int64), matched_pairs, match_score


def coarsen_hypergraph(
    hg: Hypergraph,
    constraint: BalanceConstraint,
    seed: int = 0,
    config: MultilevelConfig | None = None,
    recorder: Recorder = NULL_RECORDER,
) -> tuple[Hypergraph, list[MultilevelLevel]]:
    """Build the coarsening hierarchy for a k-way run.

    Returns ``(coarsest hypergraph, levels finest-first)``.  Stops at
    the config's stop size, after ``max_levels``, or when a level
    shrinks less than the ``min_reduction`` stall guard.  The matching
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
    matched_pairs = 0
    match_score = 0.0
    for _ in range(cfg.max_levels):
        if current.num_vertices <= target:
            break
        mapping, pairs, score = _heavy_edge_matching(
            current, rng, max_w, cfg.large_edge_limit
        )
        coarse = project_hypergraph(current, mapping)
        if coarse.num_vertices >= current.num_vertices * cfg.min_reduction:
            break  # diminishing returns: stop the hierarchy here
        levels.append(MultilevelLevel(
            fine=current, coarse=coarse, mapping=mapping,
            max_cluster_weight=max_w, matched_pairs=pairs,
            match_score=score,
        ))
        matched_pairs += pairs
        match_score += score
        current = coarse
    if recorder.enabled:
        recorder.incr("part.ml.levels", len(levels))
        recorder.incr("part.ml.coarse_vertices", current.num_vertices)
        recorder.incr("part.ml.matched_pairs", matched_pairs)
        recorder.incr("part.ml.match_weight", round(match_score, 3))
        if current.num_vertices:
            recorder.observe_max(
                "part.ml.reduction",
                round(hg.num_vertices / current.num_vertices, 4),
            )
    return current, levels


# -- initial partition ------------------------------------------------------


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
    rounds_fn,
    rng: np.random.Generator,
    cfg: MultilevelConfig,
    refiner: str,
    recorder: Recorder,
) -> int:
    """One level's refinement: the shared stability loop under this
    config's budgets, then the load repair; returns the rounds run."""
    kicks = 8 if state.hg.num_vertices <= cfg.batch_kick_vertex_limit else 0
    rounds = improve_until_stable(
        state, constraint, rounds_fn, rng, cfg.max_fm_passes, cfg.max_rounds,
        refiner=refiner, max_kicks=kicks, recorder=recorder,
    )
    repair_balance(state, constraint, 2 * state.k, recorder)
    return rounds


def _initial_partition(
    coarsest: Hypergraph,
    k: int,
    constraint: BalanceConstraint,
    cfg: MultilevelConfig,
    rounds_fn,
    rng: np.random.Generator,
    recorder: Recorder,
    refiner: str = "fm",
) -> tuple[PartitionState, int]:
    """Best of ``num_initial`` greedy candidates on the coarsest level.

    Candidate 0 is the LPT fill (heaviest vertex first, lightest
    partition); the rest are greedy fills in seeded random orders.
    Every candidate is refined through the shared refiner (so the
    choice is made between *locally optimal* candidates) and the winner
    is the lexicographically best (balance violation, cut, index).
    """
    vertex_weight = coarsest.vertex_weight_list
    n = coarsest.num_vertices
    lpt = sorted(range(n), key=lambda v: (-vertex_weight[v], v))
    best: tuple[float, int, int] | None = None
    best_state: PartitionState | None = None
    rounds_total = 0
    for idx in range(max(1, cfg.num_initial)):
        order = lpt if idx == 0 else rng.permutation(n).tolist()
        state = PartitionState(
            coarsest, k, _greedy_fill(vertex_weight, k, order)
        )
        rounds_total += _refine_level(state, constraint, rounds_fn, rng,
                                      cfg, refiner, recorder)
        key = (constraint.violation(state.part_weight), state.cut_size, idx)
        if best is None or key < best:
            best = key
            best_state = state
    assert best_state is not None
    return best_state, rounds_total


# -- the drivers ------------------------------------------------------------


def _validate(hg: Hypergraph, k: int) -> None:
    if k < 1:
        raise PartitionError(f"k must be >= 1, got {k}")
    if k > hg.num_vertices:
        raise PartitionError(
            f"cannot make {k} partitions from {hg.num_vertices} vertices"
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
        Drives matching order and the random initial fills; fully
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
        :class:`MultilevelConfig` overrides (stop size, matching cap,
        candidate and pass budgets).
    refiner:
        Per-level refiner: ``"fm"`` (tournament-paired heap FM) or
        ``"batch"`` (the data-parallel whole-boundary refiner,
        :mod:`repro.core.batch_refine`) — see ``docs/refinement.md``
        for the decision guide.
    """
    _validate(hg, k)
    validate_refiner(refiner)
    require_serial(workers)
    cfg = config if config is not None else MultilevelConfig()
    constraint = BalanceConstraint(k, b)
    rng = np.random.default_rng(seed)
    history: list[str] = []

    with recorder.phase("partition.coarsen"):
        coarsest, levels = coarsen_hypergraph(
            hg, constraint, seed=seed, config=cfg, recorder=recorder
        )
    history.append(
        f"coarsen: {hg.num_vertices} -> {coarsest.num_vertices} vertices "
        f"over {len(levels)} levels"
    )

    rounds_fn = pairing_rounds("exhaustive", recorder=recorder)
    level_cuts: list[int] = []
    with recorder.phase("partition.initial"):
        state, refine_rounds = _initial_partition(
            coarsest, k, constraint, cfg, rounds_fn, rng, recorder,
            refiner=refiner,
        )
    initial_cut = state.cut_size
    history.append(
        f"initial: cut={initial_cut}, "
        f"loads={state.part_weight.tolist()}"
    )
    if recorder.enabled:
        recorder.incr("part.ml.initial_candidates",
                      max(1, cfg.num_initial))
        recorder.incr("part.ml.initial_cut", initial_cut)
        recorder.observe_max("part.ml.level_cut", initial_cut)
    with recorder.phase("partition.uncoarsen"):
        for level in reversed(levels):
            state = PartitionState(
                level.fine, k, state.part[level.mapping]
            )
            refine_rounds += _refine_level(state, constraint, rounds_fn,
                                           rng, cfg, refiner, recorder)
            level_cuts.append(state.cut_size)
            if recorder.enabled:
                recorder.observe_max("part.ml.level_cut",
                                     state.cut_size)
            history.append(
                f"level {level.fine.num_vertices}v: "
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
        levels=len(levels),
        coarse_vertices=coarsest.num_vertices,
        initial_cut=initial_cut,
        refine_rounds=refine_rounds,
        level_cuts=level_cuts,
        history=history,
    )


def direct_kway_partition(
    hg: Hypergraph,
    k: int,
    b: float,
    seed: int = 0,
    recorder: Recorder = NULL_RECORDER,
    config: MultilevelConfig | None = None,
    refiner: str = "fm",
) -> MultilevelKwayResult:
    """Flat direct k-way partitioning — the no-hierarchy comparator.

    The same greedy LPT seeding and stability loop as the multilevel
    engine, applied once to the full hypergraph with no coarsening.
    This is what "direct multiway on a flat hypergraph" means in the
    decision guide (``docs/multilevel.md``) and in
    ``benchmarks/bench_multilevel.py``'s cut-at-equal-balance gate;
    the seeded move budget is identical, so any cut difference is
    attributable to the hierarchy alone.  ``refiner`` selects heap FM
    (``"fm"``) or the data-parallel batch refiner (``"batch"``) —
    ``benchmarks/bench_batch_refine.py`` uses exactly this switch to
    isolate the refiner as the only variable.
    """
    _validate(hg, k)
    validate_refiner(refiner)
    cfg = config if config is not None else MultilevelConfig()
    constraint = BalanceConstraint(k, b)
    rng = np.random.default_rng(seed)
    history: list[str] = []

    vertex_weight = hg.vertex_weight_list
    order = sorted(range(hg.num_vertices),
                   key=lambda v: (-vertex_weight[v], v))
    rounds_fn = pairing_rounds("exhaustive", recorder=recorder)
    with recorder.phase("partition.initial"):
        state = PartitionState(
            hg, k, _greedy_fill(vertex_weight, k, order)
        )
    initial_cut = state.cut_size
    history.append(
        f"LPT initial: cut={initial_cut}, "
        f"loads={state.part_weight.tolist()}"
    )
    with recorder.phase("partition.refine"):
        refine_rounds = _refine_level(state, constraint, rounds_fn, rng,
                                      cfg, refiner, recorder)
    history.append(
        f"refined: cut={state.cut_size}, "
        f"loads={state.part_weight.tolist()}"
    )
    return MultilevelKwayResult(
        assignment=state.part.copy(),
        k=k,
        b=b,
        cut_size=state.cut_size,
        part_weights=state.part_weight.copy(),
        balanced=constraint.satisfied(state.part_weight),
        levels=0,
        coarse_vertices=hg.num_vertices,
        initial_cut=initial_cut,
        refine_rounds=refine_rounds,
        level_cuts=[state.cut_size],
        history=history,
    )


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
