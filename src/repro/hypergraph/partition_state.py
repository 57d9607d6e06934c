"""Mutable k-way partition assignment layered over a :class:`Hypergraph`.

The state tracks, incrementally under single-vertex moves:

* ``part[v]`` — the partition of each vertex,
* ``part_weight[p]`` — the total vertex weight per partition,
* ``edge_part_count[e, p]`` — how many pins of hyperedge ``e`` lie in
  partition ``p``,
* ``edge_lambda[e]`` — how many partitions hyperedge ``e`` spans (the
  λ connectivity of the multilevel-partitioning literature), kept as a
  dense array so neither :meth:`move` nor :meth:`move_gain` ever scans
  the ``k`` per-edge counts to rediscover it,
* the weighted **hyperedge cut** (number of hyperedges spanning more
  than one partition, weighted by edge weight — the paper's Table 1/2
  metric), and
* the **connectivity metric** ``sum_e w_e * (lambda_e - 1)`` (SOED-1,
  a secondary diagnostic).

All partitioning algorithms in :mod:`repro.core` and
:mod:`repro.baselines` mutate the circuit's partition exclusively
through :meth:`PartitionState.move`, so the incremental bookkeeping is
the single source of truth; :meth:`recompute` re-derives everything
from scratch (vectorized over the CSR incidence arrays) and is used by
the test suite to cross-check the increments.

Performance notes (``docs/performance.md`` has the full complexity
table):

* scalar :meth:`move` / :meth:`move_gain` are O(degree) thanks to the
  λ array — the per-edge ``(counts > 0).sum()`` scan of the original
  implementation made them O(degree · k);
* :meth:`move_gains` evaluates a whole batch of candidate moves in a
  handful of NumPy operations over the gathered incidence slices — FM
  heap fills and pairing estimates go through it;
* :meth:`move` can report, per *critical* incident edge, how the move
  changed the pairwise gains of that edge's other pins, so FM
  maintains neighbour gains by deltas instead of re-evaluating them;
* :meth:`move_batch` reports which touched edges now contribute
  differently to their pins' gains, so the batch refiner re-scores
  those pins instead of every pin of every touched edge;
* :meth:`copy` duplicates the derived arrays directly instead of
  replaying ``recompute`` — O(edges · k) ``memcpy`` instead of an
  O(pins) scatter.

The instance counters ``lambda_hits`` / ``gain_batches`` /
``gain_batch_vertices`` / ``boundary_batches`` are deterministic
structural tallies of that machinery; benchmarks surface them as the
``part.core.*`` metrics (:mod:`repro.obs.registry`).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..errors import PartitionError
from .hypergraph import Hypergraph

__all__ = ["PartitionState"]

#: incident-edge count above which the scalar move/gain paths switch
#: from the Python loop to the vectorized kernel — tiny degrees are
#: faster looped (constant NumPy dispatch overhead dominates), big
#: degrees vectorized; both compute identical integers.
_VECTOR_DEGREE = 16

#: plain-``int`` mirrors of the derived arrays, materialized together
#: on first scalar access (:meth:`PartitionState.__getattr__`) and
#: dropped wholesale on bulk rebuilds.  A batch-only refinement pass
#: (``repro.core.batch_refine``) never touches them, so million-vertex
#: states skip the O(n + m·k) ``tolist`` conversions entirely.
_LAZY_MIRRORS = frozenset(
    {
        "_part_list",
        "_lam_list",
        "_counts_list",
        "_counts_flat",
        "_adj",
        "_w_list",
        "_vw_list",
    }
)


class PartitionState:
    """k-way partition of a hypergraph with incremental cut tracking."""

    def __init__(self, hg: Hypergraph, k: int, assignment: Sequence[int] | None = None):
        if k < 1:
            raise PartitionError(f"k must be >= 1, got {k}")
        self.hg = hg
        self.k = k
        if assignment is None:
            self.part = np.zeros(hg.num_vertices, dtype=np.int64)
        else:
            self.part = np.asarray(assignment, dtype=np.int64).copy()
            if len(self.part) != hg.num_vertices:
                raise PartitionError(
                    f"assignment length {len(self.part)} != "
                    f"{hg.num_vertices} vertices"
                )
            if len(self.part) and (self.part.min() < 0 or self.part.max() >= k):
                raise PartitionError("assignment refers to a partition id out of range")
        self._reset_core_stats()
        self.recompute()

    def _reset_core_stats(self) -> None:
        #: incident-edge gain/update evaluations answered from the λ
        #: array instead of an O(k) per-edge scan (``part.core.lambda_hits``)
        self.lambda_hits = 0
        #: vectorized batch gain queries issued (``part.core.gain_batches``)
        self.gain_batches = 0
        #: vertices evaluated through batch gain queries
        #: (``part.core.gain_batch_vertices``)
        self.gain_batch_vertices = 0
        #: vectorized boundary extractions (``part.core.boundary_batches``)
        self.boundary_batches = 0

    # -- full recomputation ------------------------------------------------

    def recompute(self) -> None:
        """Rebuild all derived quantities from ``self.part``.

        Vectorized over the CSR incidence arrays: one ``np.add.at``
        scatter over the pins builds ``edge_part_count``, one reduction
        derives λ.  O(pins + edges·k), no Python-level loop; used after
        bulk reassignment and by tests to validate the incremental path.
        """
        hg = self.hg
        pw = np.zeros(self.k, dtype=np.int64)
        np.add.at(pw, self.part, hg.vertex_weight)
        self._pw_list = pw.tolist()
        counts = np.zeros((hg.num_edges, self.k), dtype=np.int64)
        if hg.num_pins:
            np.add.at(counts, (hg.pin_edges, self.part[hg.pin_vertices]), 1)
        self.edge_part_count = counts
        self.edge_lambda = np.count_nonzero(counts, axis=1).astype(np.int64)
        cut_mask = self.edge_lambda > 1
        self._cut = int(hg.edge_weight[cut_mask].sum())
        self._soed = int(
            (hg.edge_weight * np.maximum(self.edge_lambda - 1, 0)).sum()
        )
        self._invalidate_mirrors()

    def __getattr__(self, name: str):
        # lazy plain-int mirrors: built all together on first scalar
        # access, absent until then (vectorized-only callers never pay)
        if name in _LAZY_MIRRORS:
            self._build_mirrors()
            return self.__dict__[name]
        raise AttributeError(
            f"{type(self).__name__!s} object has no attribute {name!r}"
        )

    def _invalidate_mirrors(self) -> None:
        """Drop the scalar mirrors; the next scalar access rebuilds."""
        d = self.__dict__
        for name in _LAZY_MIRRORS:
            d.pop(name, None)

    def _build_mirrors(self) -> None:
        """Materialize the plain-``int`` mirrors of the derived arrays.

        The scalar move/gain paths read (and dual-write) native Python
        lists — NumPy scalar indexing costs ~10x a list index, which is
        the whole budget at netlist degrees.  The NumPy arrays remain
        authoritative for every vectorized query; once built, the
        mirrors carry the same integers at all times (the batch
        mutators keep them in sync *only while they exist* — see
        :meth:`move_batch` / :meth:`restore`).
        """
        self._part_list: list[int] = self.part.tolist()
        self._lam_list: list[int] = self.edge_lambda.tolist()
        self._counts_list: list[list[int]] = self.edge_part_count.tolist()
        if not self.edge_part_count.flags.c_contiguous:
            self.edge_part_count = np.ascontiguousarray(self.edge_part_count)
        # flat alias of edge_part_count — scalar writes through a 1-D
        # view skip NumPy's tuple-index dispatch
        self._counts_flat: np.ndarray = self.edge_part_count.reshape(-1)
        # pre-bound hypergraph lookup tables (skip a method/property
        # dispatch per scalar gain/move call)
        self._adj: list[list[int]] = self.hg.vertex_edges_lists()
        self._w_list: list[int] = self.hg.edge_weight_list
        self._vw_list: list[int] = self.hg.vertex_weight_list

    # -- queries -------------------------------------------------------------

    @property
    def part_weight(self) -> np.ndarray:
        """Total vertex weight per partition, as an ``int64`` array.

        Backed by a plain-``int`` list so :meth:`move` updates it
        without NumPy scalar read-modify-writes; each property access
        materializes a fresh (tiny, length-``k``) array, so hold no
        reference across moves.
        """
        return np.asarray(self._pw_list, dtype=np.int64)

    @property
    def cut_size(self) -> int:
        """Weighted hyperedge cut (edges spanning >1 partition)."""
        return self._cut

    @property
    def connectivity(self) -> int:
        """``sum_e w_e * (lambda_e - 1)`` where lambda is #parts spanned."""
        return self._soed

    def parts(self) -> list[list[int]]:
        """Vertex ids grouped by partition."""
        out: list[list[int]] = [[] for _ in range(self.k)]
        for v, p in enumerate(self.part):
            out[int(p)].append(v)
        return out

    def part_of(self, v: int) -> int:
        """Partition currently holding vertex ``v``."""
        part_list = self.__dict__.get("_part_list")
        if part_list is not None:
            return part_list[v]
        # don't force the full scalar-mirror build for a point query
        return int(self.part[v])

    def copy(self) -> "PartitionState":
        """Independent deep copy (shares the immutable hypergraph).

        Copies the derived arrays directly — no ``recompute`` replay —
        so snapshotting is a memcpy, cheap enough for per-round
        snapshots in hot loops.  The ``part.core.*`` stat counters
        start at zero on the copy (they tally work done *through* an
        instance).
        """
        state = object.__new__(type(self))
        state.hg = self.hg
        state.k = self.k
        state.part = self.part.copy()
        state._pw_list = list(self._pw_list)
        state.edge_part_count = self.edge_part_count.copy()
        state.edge_lambda = self.edge_lambda.copy()
        state._cut = self._cut
        state._soed = self._soed
        state._reset_core_stats()
        return state

    def snapshot(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int], int, int]:
        """Cheap in-process checkpoint of the derived state.

        Unlike :meth:`copy` this is meant for same-object
        :meth:`restore` (the batch refiner's kick rollback): three
        memcpys plus a length-``k`` list copy, no new instance.
        """
        return (
            self.part.copy(),
            self.edge_part_count.copy(),
            self.edge_lambda.copy(),
            list(self._pw_list),
            self._cut,
            self._soed,
        )

    def restore(
        self,
        snap: tuple[np.ndarray, np.ndarray, np.ndarray, list[int], int, int],
    ) -> None:
        """Rewind to a :meth:`snapshot` taken on this same state.

        Data is copied *into* the existing arrays (``np.copyto``) so
        every outstanding view — notably the flat counts alias used by
        the scalar move kernel — stays valid; the plain-list mirrors
        are rebuilt only if they were materialized.  O(n + m·k)
        memcpy/tolist, independent of how many moves happened since the
        snapshot, which is what makes restore-and-replay cheaper than
        undoing a long FM suffix move-by-move.
        """
        part, counts, lam, pw, cut, soed = snap
        np.copyto(self.part, part)
        np.copyto(self.edge_part_count, counts)
        np.copyto(self.edge_lambda, lam)
        self._pw_list = list(pw)
        self._cut = cut
        self._soed = soed
        if "_part_list" in self.__dict__:
            self._part_list = part.tolist()
            self._counts_list = counts.tolist()
            self._lam_list = lam.tolist()

    def pair_cut(self, a: int, b: int) -> int:
        """Weighted cut counted only between partitions ``a`` and ``b``.

        Used by the cut-based pairing strategy (paper §3.1.1): the pair
        with the maximum mutual cut is refined next.
        """
        mask = (self.edge_part_count[:, a] > 0) & (self.edge_part_count[:, b] > 0)
        return int(self.hg.edge_weight[mask].sum())

    def pair_exclusive_cut(self, a: int, b: int) -> int:
        """Weighted cut of the edges spanning exactly ``{a, b}`` (λ = 2).

        The part of :meth:`pair_cut` that moves between ``a`` and ``b``
        can remove: an edge that also reaches a third block stays cut
        whatever the pair does.  FM's locked-cut bound starts from this
        value (``docs/partitioning.md``).
        """
        counts = self.edge_part_count
        mask = (self.edge_lambda == 2) & (counts[:, a] > 0) & (counts[:, b] > 0)
        return int(self.hg.edge_weight[mask].sum())

    def pair_cut_matrix(self) -> np.ndarray:
        """Symmetric ``(k, k)`` matrix of pairwise cut weights."""
        occupied = self.edge_part_count > 0
        w = self.hg.edge_weight.astype(np.int64)
        m = (occupied.T * w) @ occupied
        np.fill_diagonal(m, 0)
        # entry (a, b) = sum of weights of edges touching both a and b
        return m

    def pair_boundary(self, a: int, b: int) -> np.ndarray:
        """Vertices of partitions ``a``/``b`` on an edge spanning both.

        Vectorized: the λ array masks uncut edges up front, one CSR
        gather collects the candidate pins, one unique pass dedups.
        Returns a sorted ``int64`` array (so deterministic sample caps
        are plain slices).
        """
        self.boundary_batches += 1
        mask = (
            (self.edge_lambda > 1)
            & (self.edge_part_count[:, a] > 0)
            & (self.edge_part_count[:, b] > 0)
        )
        edges = np.nonzero(mask)[0]
        if not len(edges):
            return np.empty(0, dtype=np.int64)
        pins, _ = self.hg.edges_pins(edges)
        owner = self.part[pins]
        return np.unique(pins[(owner == a) | (owner == b)])

    def pair_vertices(self, a: int, b: int) -> np.ndarray:
        """All vertices currently in partition ``a`` or ``b`` (sorted)."""
        return np.nonzero((self.part == a) | (self.part == b))[0]

    def move_gain(self, v: int, to_part: int) -> int:
        """Change in cut size if ``v`` moved to ``to_part`` (gain > 0 is
        an improvement, i.e. the cut would *decrease* by ``gain``)."""
        frm = self._part_list[v]
        if frm == to_part:
            return 0
        edges = self._adj[v]
        self.lambda_hits += len(edges)
        if len(edges) > _VECTOR_DEGREE:
            idx = np.asarray(edges, dtype=np.int64)
            counts = self.edge_part_count
            lam = self.edge_lambda[idx]
            new_lam = (
                lam
                - (counts[idx, frm] == 1)
                + (counts[idx, to_part] == 0)
            )
            w = self.hg.edge_weight[idx]
            return int(w[(lam > 1) & (new_lam == 1)].sum()) - int(
                w[(lam == 1) & (new_lam > 1)].sum()
            )
        gain = 0
        counts_list = self._counts_list
        lam_list = self._lam_list
        w_list = self._w_list
        for e in edges:
            row = counts_list[e]
            spanned = lam_list[e]
            new_spanned = (
                spanned
                - (1 if row[frm] == 1 else 0)
                + (1 if row[to_part] == 0 else 0)
            )
            if spanned > 1 and new_spanned == 1:
                gain += w_list[e]
            elif spanned == 1 and new_spanned > 1:
                gain -= w_list[e]
        return gain

    def move_gains(
        self, vertices: Sequence[int] | np.ndarray, to_parts: Sequence[int] | np.ndarray | int
    ) -> np.ndarray:
        """Batch :meth:`move_gain`: cut deltas for moving ``vertices[i]``
        to ``to_parts[i]`` (or a shared scalar target).

        One CSR gather collects every incident edge of the batch; the
        λ array answers each edge's before/after spanning in a few
        vectorized comparisons, and a scatter-add folds per-edge deltas
        back onto their vertices.  Exact integer arithmetic — a batch
        query returns precisely the scalars the per-vertex path would,
        so callers may mix the two freely without perturbing
        tie-breaking.  Vertices already in their target partition get
        gain 0, mirroring the scalar method.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        to_arr = np.broadcast_to(
            np.asarray(to_parts, dtype=np.int64), vertices.shape
        )
        self.gain_batches += 1
        self.gain_batch_vertices += len(vertices)
        gains = np.zeros(len(vertices), dtype=np.int64)
        if not len(vertices):
            return gains
        if len(vertices) <= _VECTOR_DEGREE:
            # tiny batch: the scalar path beats NumPy dispatch overhead
            # and computes the same exact integers
            for i, (v, t) in enumerate(zip(vertices.tolist(), to_arr.tolist())):
                gains[i] = self.move_gain(v, t)
            return gains
        hg = self.hg
        edges, deg = hg.vertices_edges(vertices)
        if not len(edges):
            return gains
        self.lambda_hits += len(edges)
        owner = np.repeat(np.arange(len(vertices), dtype=np.int64), deg)
        frm = np.repeat(self.part[vertices], deg)
        to = np.repeat(to_arr, deg)
        counts = self.edge_part_count
        lam = self.edge_lambda[edges]
        new_lam = lam - (counts[edges, frm] == 1) + (counts[edges, to] == 0)
        w = hg.edge_weight[edges]
        delta = np.where((lam > 1) & (new_lam == 1), w, 0) - np.where(
            (lam == 1) & (new_lam > 1), w, 0
        )
        np.add.at(gains, owner, delta)
        gains[self.part[vertices] == to_arr] = 0
        return gains

    def move_soed_gains(
        self, vertices: Sequence[int] | np.ndarray, to_parts: Sequence[int] | np.ndarray | int
    ) -> np.ndarray:
        """Batch connectivity (SOED/λ-sum) deltas for the same moves
        :meth:`move_gains` scores by hyperedge cut.

        ``gains[i]`` is the weighted decrease of Σ w·λ if ``vertices[i]``
        moved to its target: an edge loses λ when the vertex is its
        source block's last pin, and gains λ when the target block is
        not yet present.  The batch refiner uses this as the secondary
        objective — a zero-cut-gain move with positive SOED gain peels
        an edge one block closer to uncut, escaping cut plateaus while
        the lexicographic (cut, SOED) potential still strictly
        decreases.  Vertices already in their target get gain 0.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        to_arr = np.broadcast_to(
            np.asarray(to_parts, dtype=np.int64), vertices.shape
        )
        self.gain_batches += 1
        self.gain_batch_vertices += len(vertices)
        gains = np.zeros(len(vertices), dtype=np.int64)
        if not len(vertices):
            return gains
        hg = self.hg
        edges, deg = hg.vertices_edges(vertices)
        if not len(edges):
            return gains
        self.lambda_hits += len(edges)
        owner = np.repeat(np.arange(len(vertices), dtype=np.int64), deg)
        frm = np.repeat(self.part[vertices], deg)
        to = np.repeat(to_arr, deg)
        counts = self.edge_part_count
        w = hg.edge_weight[edges]
        delta = np.where(counts[edges, frm] == 1, w, 0) - np.where(
            counts[edges, to] == 0, w, 0
        )
        np.add.at(gains, owner, delta)
        gains[self.part[vertices] == to_arr] = 0
        return gains

    def move_gains_matrix(
        self,
        vertices: Sequence[int] | np.ndarray,
        to_parts: Sequence[int] | np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fused all-destinations gather: ``(T, V)`` cut-gain and SOED-
        gain matrices for moving each of ``vertices`` into each of
        ``to_parts``.

        Entry ``[t, i]`` equals :meth:`move_gains` (resp.
        :meth:`move_soed_gains`) of ``vertices[i]`` toward
        ``to_parts[t]`` — exact integers, 0 when the vertex already
        sits in that block — but the incidence CSR gather, λ lookup
        and source-block analysis run **once** for the whole matrix
        instead of once per destination per objective.  This is the
        batch refiner's scoring kernel.

        With ``last`` = "the vertex is the edge's only pin in its
        block" and ``z[t]`` = "block ``t`` holds no pin of the edge",
        an incident edge of weight ``w`` contributes
        ``w·a − w·(a + b)·z[t]`` to the cut gain toward ``t`` and
        ``w·last − w·z[t]`` to the SOED gain, where ``a = (λ = 2) ∧
        last`` (the move uncuts the edge unless it opens ``t``) and
        ``b = (λ = 1) ∧ ¬last`` (the move cuts an internal edge when it
        opens ``t``).  Only the ``z`` factor depends on the
        destination, so each objective is one per-vertex segment sum
        minus one ``(pins, T)`` product.  An edge's contribution to a
        pin's rows is thus a function of which blocks hold none of its
        pins, and of whether the pin's own block holds exactly one —
        the invalidation rule :meth:`move_batch` reports.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        targets = np.asarray(to_parts, dtype=np.int64)
        tcount = len(targets)
        self.gain_batches += 1
        self.gain_batch_vertices += len(vertices)
        gains = np.zeros((tcount, len(vertices)), dtype=np.int64)
        soeds = np.zeros((tcount, len(vertices)), dtype=np.int64)
        if not len(vertices) or not tcount:
            return gains, soeds
        hg = self.hg
        edges, deg = hg.vertices_edges(vertices)
        if len(edges):
            self.lambda_hits += len(edges)
            rows = self.edge_part_count[edges]                      # (E, k)
            frm = np.repeat(self.part[vertices], deg)
            last = rows[np.arange(len(edges)), frm] == 1
            to_empty = (rows == 0)[:, targets]                      # (E, T)
            lam = self.edge_lambda[edges]
            w = hg.edge_weight[edges]
            uncut = w * ((lam == 2) & last)
            flips = uncut + w * ((lam == 1) & ~last)
            nz = np.flatnonzero(deg)
            starts = (np.cumsum(deg) - deg)[nz]
            gains[:, nz] = (
                np.add.reduceat(uncut, starts)[:, None]
                - np.add.reduceat(flips[:, None] * to_empty, starts, axis=0)
            ).T
            soeds[:, nz] = (
                np.add.reduceat(w * last, starts)[:, None]
                - np.add.reduceat(w[:, None] * to_empty, starts, axis=0)
            ).T
        own = targets[:, None] == self.part[vertices][None, :]
        gains[own] = 0
        soeds[own] = 0
        return gains, soeds

    # -- mutation -------------------------------------------------------------

    def move(
        self,
        v: int,
        to_part: int,
        critical: list[tuple[int, int, int]] | None = None,
    ) -> int:
        """Move vertex ``v`` to ``to_part``; returns the realized gain.

        Updates part weights, per-edge partition counts, the λ array,
        cut size and connectivity incrementally in O(degree(v)) — the
        λ cache removes the per-edge O(k) occupied-partition scan.

        A ``critical`` list, when given, receives one ``(edge, d_from,
        d_to)`` triple per incident edge whose *other* pins' gains this
        move changes: every remaining pin in the source block gains
        ``d_from`` toward ``to_part``, every other pin in ``to_part``
        gains ``d_to`` toward the source block.  An edge contributes
        ``+w`` to a pin's gain iff λ = 2 with that pin alone on its side
        and the other side present, ``−w`` iff λ = 1 with company; the
        triple is that contribution after the move minus before, so it
        is nonzero only for an edge that lay inside the source block or
        spans exactly the two blocks with ≤ 2 source or 1 target pins —
        never for an edge reaching a third block or a wide net with
        many pins on both sides (``docs/partitioning.md``).
        """
        frm = self._part_list[v]
        if to_part == frm:
            return 0
        if not (0 <= to_part < self.k):
            raise PartitionError(f"target partition {to_part} out of range [0,{self.k})")
        edges = self._adj[v]
        self.lambda_hits += len(edges)
        if len(edges) > _VECTOR_DEGREE:
            gain, soed_delta = self._move_update_vector(
                edges, frm, to_part, critical
            )
        else:
            gain, soed_delta = self._move_update_scalar(
                edges, frm, to_part, critical
            )
        wv = self._vw_list[v]
        pw = self._pw_list
        pw[frm] -= wv
        pw[to_part] += wv
        self.part[v] = to_part
        self._part_list[v] = to_part
        self._cut -= gain
        self._soed += soed_delta
        return gain

    def _move_update_scalar(
        self,
        edges: list[int],
        frm: int,
        to_part: int,
        critical: list[tuple[int, int, int]] | None,
    ) -> tuple[int, int]:
        """Per-edge loop move update — fastest at small degrees.

        Reads the plain-list mirrors and dual-writes every change back
        to the NumPy arrays so vectorized queries stay exact.
        """
        gain = 0
        soed_delta = 0
        k = self.k
        flat = self._counts_flat
        lam_arr = self.edge_lambda
        counts_list = self._counts_list
        lam_list = self._lam_list
        w_list = self._w_list
        for e in edges:
            row = counts_list[e]
            spanned = lam_list[e]
            nf = row[frm] - 1
            nt = row[to_part] + 1
            row[frm] = nf
            row[to_part] = nt
            base = e * k
            flat[base + frm] = nf
            flat[base + to_part] = nt
            new_spanned = spanned
            if nf == 0:
                new_spanned -= 1
            if nt == 1:
                new_spanned += 1
            if new_spanned != spanned:
                lam_list[e] = new_spanned
                lam_arr[e] = new_spanned
                w = w_list[e]
                if spanned > 1 and new_spanned == 1:
                    gain += w
                elif spanned == 1 and new_spanned > 1:
                    gain -= w
                soed_delta += w * (new_spanned - spanned)
            if critical is not None:
                # nf / nt are the counts *after* the move
                if spanned == 1:
                    if nf:
                        w = w_list[e]
                        critical.append((e, w if nf > 1 else 2 * w, 0))
                elif spanned == 2 and nt > 1 and (nf < 2 or nt == 2):
                    w = w_list[e]
                    critical.append((
                        e,
                        w if nf == 1 else 0,
                        -w * ((nf == 0) + (nt == 2)),
                    ))
        return gain, soed_delta

    def _move_update_vector(
        self,
        edges: list[int],
        frm: int,
        to_part: int,
        critical: list[tuple[int, int, int]] | None,
    ) -> tuple[int, int]:
        """Vectorized move update — O(degree) NumPy for fat vertices."""
        idx = np.asarray(edges, dtype=np.int64)
        counts = self.edge_part_count
        frm_counts = counts[idx, frm] - 1
        to_counts = counts[idx, to_part] + 1
        lam = self.edge_lambda[idx]
        new_lam = lam - (frm_counts == 0) + (to_counts == 1)
        counts[idx, frm] = frm_counts
        counts[idx, to_part] = to_counts
        self.edge_lambda[idx] = new_lam
        counts_list = self._counts_list
        lam_list = self._lam_list
        for e, nf, nt, nl in zip(
            edges, frm_counts.tolist(), to_counts.tolist(), new_lam.tolist()
        ):
            row = counts_list[e]
            row[frm] = nf
            row[to_part] = nt
            lam_list[e] = nl
        w = self.hg.edge_weight[idx]
        gain = int(w[(lam > 1) & (new_lam == 1)].sum()) - int(
            w[(lam == 1) & (new_lam > 1)].sum()
        )
        soed_delta = int((w * (new_lam - lam)).sum())
        if critical is not None:
            # same rule as the scalar loop, on the after-move counts
            inside = (lam == 1) & (frm_counts > 0)
            pair = (lam == 2) & (to_counts > 1)
            d_from = w * inside + w * ((inside | pair) & (frm_counts == 1))
            d_to = -(w * (pair & (frm_counts == 0))
                     + w * (pair & (to_counts == 2)))
            hot = np.flatnonzero(d_from | d_to)
            critical.extend(zip(
                idx[hot].tolist(), d_from[hot].tolist(), d_to[hot].tolist()
            ))
        return gain, soed_delta

    def move_batch(
        self,
        vertices: Sequence[int] | np.ndarray,
        to_parts: Sequence[int] | np.ndarray,
    ) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
        """Apply many moves in one vectorized scatter; the batch
        counterpart of :meth:`move`.

        ``vertices`` must be distinct; ``to_parts[i]`` is the target of
        ``vertices[i]`` (entries already in their target are skipped).
        The per-edge partition counts are updated with two scatter-adds
        over the batch's gathered incidence slices, λ is re-derived only
        on the touched edges, and cut/connectivity/part weights follow
        from the λ transitions — O(batch pins + touched·k) total,
        independent of how many untouched edges the hypergraph has.

        Returns ``(gain, touched_edges, old_lambda, changed)``: the
        realized cut decrease, the sorted ids of every edge incident to
        a moved vertex, those edges' λ values *before* the batch, and a
        boolean mask over ``touched_edges`` marking the edges that now
        contribute differently to the :meth:`move_gains_matrix` rows of
        their pins.  By that kernel's formula an edge's contribution
        depends only on which blocks hold none of its pins (that also
        fixes λ) and which hold exactly one, so ``changed`` is False
        for a net with two or more pins left in every block it spans —
        however many of its pins moved.  A moved vertex's *own* block
        changed, so callers caching gains re-score the moved vertices
        besides the pins of the changed edges; ``old_lambda`` lets them
        maintain cut-edge degrees, which only an edge whose λ crossed 1
        (always a changed one) alters (:mod:`repro.core.batch_refine`).

        When no two moved vertices share a hyperedge the realized gain
        equals the sum of the individual :meth:`move_gain` predictions
        taken before the batch — each touched edge sees exactly one
        endpoint move, so the per-move cut deltas are additive.  The
        method itself is correct for arbitrary batches (the scatters
        accumulate), only that additivity guarantee needs disjointness.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        to_arr = np.asarray(to_parts, dtype=np.int64)
        if vertices.shape != to_arr.shape:
            raise PartitionError(
                f"move_batch got {len(vertices)} vertices but "
                f"{len(to_arr)} targets"
            )
        if len(to_arr) and (to_arr.min() < 0 or to_arr.max() >= self.k):
            raise PartitionError("move_batch target partition out of range")
        frm = self.part[vertices]
        changed = frm != to_arr
        vertices, to_arr, frm = vertices[changed], to_arr[changed], frm[changed]
        if not len(vertices):
            empty = np.empty(0, dtype=np.int64)
            return 0, empty, empty.copy(), np.empty(0, dtype=bool)
        hg = self.hg
        edges, deg = hg.vertices_edges(vertices)
        counts = self.edge_part_count
        touched = np.unique(edges)
        before = counts[touched]
        np.subtract.at(counts, (edges, np.repeat(frm, deg)), 1)
        np.add.at(counts, (edges, np.repeat(to_arr, deg)), 1)
        after = counts[touched]
        old_lam = self.edge_lambda[touched]
        new_lam = np.count_nonzero(after, axis=1).astype(np.int64)
        self.edge_lambda[touched] = new_lam
        # counts clipped at 2 carry exactly the "none" / "exactly one"
        # pattern the gain rows read
        edge_changed = (
            np.minimum(before, 2) != np.minimum(after, 2)
        ).any(axis=1)
        w = hg.edge_weight[touched]
        gain = int(w[(old_lam > 1) & (new_lam == 1)].sum()) - int(
            w[(old_lam == 1) & (new_lam > 1)].sum()
        )
        self._cut -= gain
        self._soed += int((w * (new_lam - old_lam)).sum())
        moved_w = hg.vertex_weight[vertices]
        pw = self._pw_list
        for p, wv in zip(frm.tolist(), moved_w.tolist()):
            pw[p] -= wv
        for p, wv in zip(to_arr.tolist(), moved_w.tolist()):
            pw[p] += wv
        self.part[vertices] = to_arr
        if "_part_list" in self.__dict__:
            part_list = self._part_list
            for v, p in zip(vertices.tolist(), to_arr.tolist()):
                part_list[v] = p
            counts_list = self._counts_list
            lam_list = self._lam_list
            for e, row, nl in zip(
                touched.tolist(), after.tolist(), new_lam.tolist()
            ):
                counts_list[e] = row
                lam_list[e] = nl
        return gain, touched, old_lam, edge_changed

    def bulk_assign(self, vertices: Iterable[int], to_part: int) -> None:
        """Assign many vertices at once, then recompute.

        The assignment is one vectorized scatter and the rebuild one
        vectorized :meth:`recompute` — cheaper than per-move bookkeeping
        when most of the circuit is being re-seeded.
        """
        if not (0 <= to_part < self.k):
            raise PartitionError(f"target partition {to_part} out of range [0,{self.k})")
        idx = np.fromiter((int(v) for v in vertices), dtype=np.int64)
        if len(idx):
            self.part[idx] = to_part
        self.recompute()

    # -- balance ------------------------------------------------------------

    def max_imbalance(self) -> float:
        """Largest relative deviation of any partition from the ideal
        ``total/k`` load, as a fraction of total weight."""
        total = self.hg.total_weight
        if total == 0:
            return 0.0
        ideal = total / self.k
        return float(np.abs(self.part_weight - ideal).max() / total)
