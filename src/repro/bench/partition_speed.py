"""Partition-core speed study: vectorized vs legacy bookkeeping.

The PR that introduced the λ-cached, batch-gain partition core
(``docs/performance.md``) claims a large wall-clock win with
**bit-identical** results.  This module makes that claim measurable and
regression-gateable:

* :class:`LegacyPartitionState` and :func:`legacy_refine_pair` preserve
  the pre-optimization implementation — per-pin Python ``recompute``,
  per-edge ``(counts > 0).sum()`` spanning scans, per-call neighbor-set
  rebuilds, scalar heap fills — as an executable baseline;
* :func:`run_sweep` drives one full exhaustive refinement sweep (every
  tournament pair once) through either implementation and returns the
  **structural** outcome (cut trajectory, realized gain, moves, passes)
  plus the host wall;
* :func:`speed_study` runs both implementations on the same synthetic
  circuit-shaped hypergraph and asserts the structural outcomes are
  identical — the wall-clock ratio is then a pure like-for-like
  measurement.

Structural quantities are deterministic for a fixed seed and feed the
``--baseline`` regression gate; host walls stay in the quarantined
``host_timings`` channel, as everywhere else
(:mod:`repro.obs.metrics`).  ``benchmarks/bench_partition_speed.py``
runs the paper-scale configuration (~50k vertices); the tier-1 suite
runs the same study in smoke form (:func:`smoke_study`).
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass

import numpy as np

from ..core.balance import BalanceConstraint
from ..core.fm import refine_pair
from ..core.pairing import estimate_pair_gain
from ..core.pairing import tournament_rounds
from ..errors import PartitionError
from ..hypergraph import Hypergraph, PartitionState

__all__ = [
    "LegacyPartitionState",
    "legacy_refine_pair",
    "legacy_estimate_pair_gain",
    "SweepStats",
    "synthetic_hypergraph",
    "run_sweep",
    "speed_study",
    "smoke_study",
]


def synthetic_hypergraph(
    num_vertices: int,
    num_edges: int,
    seed: int = 0,
    min_pins: int = 2,
    max_pins: int = 4,
    span: int = 64,
) -> Hypergraph:
    """Deterministic circuit-shaped hypergraph for speed studies.

    Nets are local: each edge picks a base vertex and sinks within
    ``span`` positions of it, mimicking the bounded-fanout locality of
    synthesized netlists (a uniformly random hypergraph has no
    refinable structure).  Unit vertex and edge weights.
    """
    rng = np.random.default_rng(seed)
    sizes = rng.integers(min_pins, max_pins + 1, size=num_edges)
    bases = rng.integers(0, num_vertices, size=num_edges)
    edges = []
    for e in range(num_edges):
        offsets = rng.integers(1, span + 1, size=int(sizes[e]) - 1)
        pins = np.concatenate(([bases[e]], (bases[e] + offsets) % num_vertices))
        edges.append(pins.tolist())
    return Hypergraph.from_edges([1] * num_vertices, edges)


# -- the pre-optimization implementation, kept runnable ---------------------


class LegacyPartitionState:
    """The partition bookkeeping as it was before the vectorized core.

    Interface-compatible with :class:`~repro.hypergraph.PartitionState`
    for everything the FM kernel touches, with the original costs:
    ``recompute`` walks every pin in Python, ``move`` and ``move_gain``
    rediscover each edge's spanned-partition count with an O(k)
    ``(counts > 0).sum()`` scan.  Exists so the speed benchmark measures
    a real artifact, not a guess about the past.
    """

    def __init__(self, hg: Hypergraph, k: int, assignment) -> None:
        if k < 1:
            raise PartitionError(f"k must be >= 1, got {k}")
        self.hg = hg
        self.k = k
        self.part = np.asarray(assignment, dtype=np.int64).copy()
        self.recompute()

    def recompute(self) -> None:
        hg = self.hg
        self.part_weight = np.zeros(self.k, dtype=np.int64)
        np.add.at(self.part_weight, self.part, hg.vertex_weight)
        self.edge_part_count = np.zeros((hg.num_edges, self.k), dtype=np.int64)
        for e in range(hg.num_edges):
            for v in hg.edge_vertices(e):
                self.edge_part_count[e, self.part[v]] += 1
        spanned = (self.edge_part_count > 0).sum(axis=1)
        cut_mask = spanned > 1
        self._cut = int(hg.edge_weight[cut_mask].sum())
        self._soed = int((hg.edge_weight * np.maximum(spanned - 1, 0)).sum())

    @property
    def cut_size(self) -> int:
        return self._cut

    @property
    def connectivity(self) -> int:
        return self._soed

    def part_of(self, v: int) -> int:
        return int(self.part[v])

    def move_gain(self, v: int, to_part: int) -> int:
        frm = int(self.part[v])
        if frm == to_part:
            return 0
        gain = 0
        hg = self.hg
        for e in hg.vertex_edges(v):
            counts = self.edge_part_count[e]
            w = int(hg.edge_weight[e])
            spanned = int((counts > 0).sum())
            leaves_empty = counts[frm] == 1
            enters_new = counts[to_part] == 0
            new_spanned = spanned - (1 if leaves_empty else 0) + (1 if enters_new else 0)
            was_cut = spanned > 1
            now_cut = new_spanned > 1
            if was_cut and not now_cut:
                gain += w
            elif now_cut and not was_cut:
                gain -= w
        return gain

    def move(self, v: int, to_part: int) -> int:
        frm = int(self.part[v])
        if to_part == frm:
            return 0
        hg = self.hg
        gain = 0
        soed_delta = 0
        for e in hg.vertex_edges(v):
            counts = self.edge_part_count[e]
            w = int(hg.edge_weight[e])
            spanned = int((counts > 0).sum())
            counts[frm] -= 1
            counts[to_part] += 1
            new_spanned = spanned
            if counts[frm] == 0:
                new_spanned -= 1
            if counts[to_part] == 1:
                new_spanned += 1
            if spanned > 1 and new_spanned == 1:
                gain += w
            elif spanned == 1 and new_spanned > 1:
                gain -= w
            soed_delta += w * (new_spanned - spanned)
        wv = int(hg.vertex_weight[v])
        self.part_weight[frm] -= wv
        self.part_weight[to_part] += wv
        self.part[v] = to_part
        self._cut -= gain
        self._soed += soed_delta
        return gain


def legacy_estimate_pair_gain(state, a: int, b: int) -> int:
    """Pre-optimization :func:`repro.core.pairing.estimate_pair_gain`:
    Python set-building boundary walk plus a per-vertex gain loop."""
    hg = state.hg
    boundary: set[int] = set()
    mask = (state.edge_part_count[:, a] > 0) & (state.edge_part_count[:, b] > 0)
    for e in np.nonzero(mask)[0]:
        for v in hg.edge_vertices(int(e)):
            if state.part[v] in (a, b):
                boundary.add(int(v))
    total = 0
    for v in boundary:
        to = b if state.part_of(v) == a else a
        g = state.move_gain(v, to)
        if g > 0:
            total += g
    return total


def _legacy_neighbors(hg: Hypergraph, v: int) -> set[int]:
    """Per-call neighbor set rebuild (the pre-cache behaviour)."""
    out: set[int] = set()
    for e in hg.vertex_edges(v):
        out.update(int(u) for u in hg.edge_vertices(e))
    out.discard(v)
    return out


def _legacy_one_pass(state, a, b, constraint):
    """The pre-optimization FM pass, verbatim semantics."""
    hg = state.hg
    lo, hi = constraint.bounds(hg.total_weight)
    vertices = [v for v in range(hg.num_vertices) if state.part[v] in (a, b)]
    if not vertices:
        return 0, 0
    stamp = {v: 0 for v in vertices}
    locked: set[int] = set()
    heap: list[tuple[int, int, int, int]] = []

    def push(v: int) -> None:
        frm = state.part_of(v)
        to = b if frm == a else a
        g = state.move_gain(v, to)
        heapq.heappush(heap, (-g, v, stamp[v], to))

    for v in vertices:
        push(v)
    moves: list[tuple[int, int, int]] = []
    cum = 0
    best = 0
    best_idx = 0
    while heap:
        neg_g, v, st, to = heapq.heappop(heap)
        if v in locked or st != stamp[v]:
            continue
        frm = state.part_of(v)
        if frm not in (a, b):  # pragma: no cover - defensive
            continue
        expected_to = b if frm == a else a
        if to != expected_to:
            continue
        wv = int(hg.vertex_weight[v])
        if state.part_weight[to] + wv > hi or state.part_weight[frm] - wv < lo:
            locked.add(v)
            continue
        realized = state.move(v, to)
        locked.add(v)
        moves.append((v, frm, to))
        cum += realized
        if cum > best:
            best = cum
            best_idx = len(moves)
        for u in _legacy_neighbors(hg, v):
            if u in stamp and u not in locked:
                stamp[u] += 1
                push(u)
    for v, frm, _ in reversed(moves[best_idx:]):
        state.move(v, frm)
    return best, best_idx


def legacy_refine_pair(state, a, b, constraint, max_passes: int = 8):
    """Pre-optimization :func:`repro.core.fm.refine_pair` (gain, moves,
    passes) — identical move decisions, original costs."""
    total_gain = 0
    total_moves = 0
    passes = 0
    for _ in range(max_passes):
        gain, retained = _legacy_one_pass(state, a, b, constraint)
        passes += 1
        total_gain += gain
        total_moves += retained
        if gain <= 0:
            break
    return total_gain, total_moves, passes


# -- the sweep ---------------------------------------------------------------


@dataclass
class SweepStats:
    """Structural outcome of one exhaustive refinement sweep plus its
    host wall.  Everything except ``host_seconds`` is deterministic for
    a fixed hypergraph/seed and must be identical across
    implementations — :func:`speed_study` asserts it."""

    impl: str
    cut_before: int
    cut_after: int
    connectivity_after: int
    gain: int
    moves: int
    passes: int
    estimate_total: int
    host_seconds: float
    lambda_hits: int = 0
    gain_batches: int = 0
    gain_batch_vertices: int = 0
    boundary_batches: int = 0


def _block_noise_assignment(num_vertices: int, k: int, seed: int) -> np.ndarray:
    """Contiguous blocks with 5% uniform noise — a localized start with
    a realistic amount of refinable boundary disorder (a round-robin
    start cuts essentially every local net, which measures pathological
    churn instead of refinement)."""
    rng = np.random.default_rng(seed + 1)
    assign = (np.arange(num_vertices, dtype=np.int64) * k) // num_vertices
    noise = rng.random(num_vertices) < 0.05
    assign[noise] = rng.integers(0, k, size=int(noise.sum()))
    return assign


def run_sweep(
    hg: Hypergraph,
    k: int,
    b: float = 10.0,
    max_passes: int = 2,
    impl: str = "vectorized",
    seed: int = 0,
) -> SweepStats:
    """One full exhaustive refinement sweep, mirroring a driver round:
    per tournament round, take a snapshot (a full derived-array
    ``copy()``), score **every** pair's estimated gain (the
    gain-based pairing criterion, computed exhaustively), then run FM
    over the round's pairs serially.

    The timed region covers state construction plus all three phases —
    exactly the work the pre-PR implementations paid with per-pin
    Python recomputes (snapshots), set-building boundary walks
    (estimates) and O(k) spanning scans (FM bookkeeping).
    """
    assignment = _block_noise_assignment(hg.num_vertices, k, seed)
    constraint = BalanceConstraint(k, b)
    t0 = time.perf_counter()
    if impl == "vectorized":
        state = PartitionState(hg, k, assignment)
        cut_before = state.cut_size
        gain = moves = passes = est_total = 0
        for rnd in tournament_rounds(k):
            snapshot = state.copy()
            del snapshot
            for a in range(k):
                for bb in range(a + 1, k):
                    est_total += estimate_pair_gain(state, a, bb)
            for a, bb in rnd:
                res = refine_pair(state, a, bb, constraint, max_passes=max_passes)
                gain += res.gain
                moves += res.moves
                passes += res.passes
        wall = time.perf_counter() - t0
        return SweepStats(
            impl, cut_before, state.cut_size, state.connectivity,
            gain, moves, passes, est_total, wall,
            lambda_hits=state.lambda_hits,
            gain_batches=state.gain_batches,
            gain_batch_vertices=state.gain_batch_vertices,
            boundary_batches=state.boundary_batches,
        )
    if impl != "legacy":
        raise PartitionError(f"unknown sweep impl {impl!r}")
    state = LegacyPartitionState(hg, k, assignment)
    cut_before = state.cut_size
    gain = moves = passes = est_total = 0
    for rnd in tournament_rounds(k):
        snapshot = LegacyPartitionState(hg, k, state.part)  # pre-PR copy()
        del snapshot
        for a in range(k):
            for bb in range(a + 1, k):
                est_total += legacy_estimate_pair_gain(state, a, bb)
        for a, bb in rnd:
            g, m, p = legacy_refine_pair(state, a, bb, constraint,
                                         max_passes=max_passes)
            gain += g
            moves += m
            passes += p
    wall = time.perf_counter() - t0
    return SweepStats(impl, cut_before, state.cut_size, state.connectivity,
                      gain, moves, passes, est_total, wall)


def speed_study(
    num_vertices: int,
    num_edges: int,
    k: int,
    seed: int = 0,
    b: float = 10.0,
    max_passes: int = 2,
) -> tuple[SweepStats, SweepStats]:
    """Run both implementations on the same hypergraph and assert the
    structural outcomes agree.  Returns ``(vectorized, legacy)``."""
    hg = synthetic_hypergraph(num_vertices, num_edges, seed=seed)
    fast = run_sweep(hg, k, b=b, max_passes=max_passes, impl="vectorized", seed=seed)
    slow = run_sweep(hg, k, b=b, max_passes=max_passes, impl="legacy", seed=seed)
    for field in ("cut_before", "cut_after", "connectivity_after",
                  "gain", "moves", "passes", "estimate_total"):
        fv, sv = getattr(fast, field), getattr(slow, field)
        if fv != sv:
            raise PartitionError(
                f"speed study diverged on {field}: vectorized {fv} != "
                f"legacy {sv} — the optimized core changed behaviour"
            )
    return fast, slow


def smoke_study(seed: int = 0) -> tuple[SweepStats, SweepStats]:
    """Tier-1-sized study (~600 vertices): the same parity assertion as
    the paper-scale benchmark, seconds not minutes."""
    return speed_study(600, 900, k=4, seed=seed, max_passes=2)
