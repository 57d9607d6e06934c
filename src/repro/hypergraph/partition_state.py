"""Mutable k-way partition assignment layered over a :class:`Hypergraph`.

The state holds one representation — NumPy arrays — of:

* ``part[v]`` — the partition of each vertex,
* ``part_weight[p]`` — the total vertex weight per partition,
* ``edge_part_count[e, p]`` — how many pins of hyperedge ``e`` lie in
  partition ``p``; no count exceeds the pins of one net, so the array
  is int32 whenever :func:`~repro.hypergraph.dtypes.index_dtype` of
  the largest edge size allows it (half the ``E x k`` footprint, and
  half of every kick snapshot),
* ``edge_lambda[e]`` — how many partitions hyperedge ``e`` spans (the
  λ connectivity of the multilevel-partitioning literature), kept as a
  dense array so no gain query scans the ``k`` per-edge counts to
  rediscover it,
* the weighted **hyperedge cut** (number of hyperedges spanning more
  than one partition, weighted by edge weight — the paper's Table 1/2
  metric), and
* the **connectivity metric** ``sum_e w_e * (lambda_e - 1)`` (SOED-1,
  a secondary diagnostic).

Everything in :mod:`repro.core` changes a partition through
:meth:`PartitionState.move_batch` (:meth:`move` is its one-vertex form) and scores cut gains through
:meth:`PartitionState.move_gains` (:meth:`move_gain` likewise), so there
is one incremental mutation kernel and one cut-gain kernel to trust;
:meth:`recompute` re-derives everything from scratch and the test suite
holds the increments to it.  A caller that needs to *try* moves — heap
FM — keeps them on its own working set and hands the state the ones it
retains (:mod:`repro.core.fm`); ``docs/performance.md`` has the
complexity table.

The instance counters ``lambda_hits`` / ``gain_batches`` /
``gain_batch_vertices`` / ``boundary_batches`` are deterministic
structural tallies of that machinery; benchmarks surface them as the
``part.core.*`` metrics (:mod:`repro.obs.registry`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import PartitionError
from .dtypes import index_dtype
from .hypergraph import Hypergraph

__all__ = ["PartitionState"]

#: (edge, block) cells per ``bincount`` in :meth:`PartitionState.recompute`:
#: its int64 transient stays at 128 KB, glibc's default mmap threshold.
#: Freeing a larger block raises that threshold, after which the heap
#: keeps more of the later allocations (at 2^16 edges per chunk the
#: ``hier_93k`` peak RSS read 0.8 MB higher), and the small chunks are
#: no slower
_RECOMPUTE_CELLS = 1 << 14

#: what :meth:`PartitionState.snapshot` hands to :meth:`~PartitionState.restore`
_Snapshot = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int, int]


def _owner_sums(owner: np.ndarray,
                rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Add up the ``rows`` that share an ``owner`` (sorted): the distinct
    owners and one summed row each."""
    first = np.ones(len(owner), dtype=bool)
    np.not_equal(owner[1:], owner[:-1], out=first[1:])
    run = first.nonzero()[0]
    return owner[run], np.add.reduceat(rows, run, axis=0)


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
        self.recompute()

    # -- full recomputation ------------------------------------------------

    def recompute(self) -> None:
        """Rebuild all derived quantities from ``self.part``.

        Vectorized over the CSR incidence arrays: ``edge_part_count`` is
        a ``bincount`` of ``edge·k + block`` over the pins, one chunk of
        :data:`_RECOMPUTE_CELLS` counts at a time, and one reduction
        derives λ.  O(pins + edges·k), no Python loop per edge; used
        after bulk reassignment and by tests to validate the incremental
        path.
        """
        hg = self.hg
        k = self.k
        self.part_weight = np.zeros(k, dtype=np.int64)
        np.add.at(self.part_weight, self.part, hg.vertex_weight)
        ptr = hg._edge_ptr
        sizes = np.diff(ptr)
        m = hg.num_edges
        counts = np.empty(
            (m, k), dtype=index_dtype(int(sizes.max()) if m else 0))
        chunk = max(1, _RECOMPUTE_CELLS // k)
        for lo in range(0, m, chunk):
            hi = min(lo + chunk, m)
            key = np.repeat(np.arange(0, (hi - lo) * k, k), sizes[lo:hi])
            key += self.part[hg.pin_vertices[ptr[lo]:ptr[hi]]]
            counts[lo:hi] = np.bincount(
                key, minlength=(hi - lo) * k).reshape(hi - lo, k)
        self.edge_part_count = counts
        self.edge_lambda = np.count_nonzero(counts, axis=1).astype(np.int64)
        cut_mask = self.edge_lambda > 1
        self._cut = int(hg.edge_weight[cut_mask].sum())
        self._soed = int(
            (hg.edge_weight * np.maximum(self.edge_lambda - 1, 0)).sum()
        )

    # -- queries -------------------------------------------------------------

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
        return int(self.part[v])

    def snapshot(self) -> _Snapshot:
        """Cheap in-process checkpoint of the derived state for a later
        :meth:`restore` on this same object (the batch refiner's kick
        rollback): four memcpys, no new instance."""
        return (
            self.part.copy(),
            self.edge_part_count.copy(),
            self.edge_lambda.copy(),
            self.part_weight.copy(),
            self._cut,
            self._soed,
        )

    def restore(self, snap: _Snapshot) -> None:
        """Rewind to a :meth:`snapshot` taken on this same state.

        Data is copied *into* the existing arrays (``np.copyto``) so
        outstanding references stay valid.  O(n + m·k) memcpy,
        independent of how many moves happened since the snapshot.
        """
        part, counts, lam, weights, cut, soed = snap
        np.copyto(self.part, part)
        np.copyto(self.edge_part_count, counts)
        np.copyto(self.edge_lambda, lam)
        np.copyto(self.part_weight, weights)
        self._cut = cut
        self._soed = soed

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
        an improvement, i.e. the cut would *decrease* by ``gain``): the
        one-vertex form of :meth:`move_gains`, not tallied as a batch."""
        return int(self._cut_gains(
            np.array([v], dtype=np.int64), np.array([to_part], dtype=np.int64)
        )[0])

    def move_gains(
        self, vertices: Sequence[int] | np.ndarray, to_parts: Sequence[int] | np.ndarray | int
    ) -> np.ndarray:
        """Cut deltas for moving ``vertices[i]`` to ``to_parts[i]`` (or a
        shared scalar target); vertices already in their target get 0.

        One CSR gather collects every incident edge of the batch; the
        λ array answers each edge's before/after spanning in a few
        vectorized comparisons, and a scatter-add folds per-edge deltas
        back onto their vertices.  Exact integer arithmetic, so a gain
        is the same number however the query was batched.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        to_arr = np.broadcast_to(
            np.asarray(to_parts, dtype=np.int64), vertices.shape
        )
        self.gain_batches += 1
        self.gain_batch_vertices += len(vertices)
        return self._cut_gains(vertices, to_arr)

    def _cut_gains(self, vertices: np.ndarray, to_arr: np.ndarray) -> np.ndarray:
        """The cut-gain kernel behind :meth:`move_gains` / :meth:`move_gain`."""
        gains = np.zeros(len(vertices), dtype=np.int64)
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

    def move_gains_matrix(
        self,
        vertices: Sequence[int] | np.ndarray,
        to_parts: Sequence[int] | np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fused all-destinations gather: ``(T, V)`` cut-gain and SOED-
        gain matrices for moving each of ``vertices`` into each of
        ``to_parts``.

        Entry ``[t, i]`` is the decrease of the weighted cut (resp. of
        the connectivity Σ w·(λ − 1)) if ``vertices[i]`` moved to
        ``to_parts[t]`` — exact integers, 0 when the vertex already
        sits in that block; the cut row equals :meth:`move_gains`.  The
        incidence CSR gather, λ lookup and source-block analysis run
        **once** for the whole matrix instead of once per destination
        per objective.  This is the batch refiner's scoring kernel; the
        SOED gain is its secondary objective — a zero-cut-gain move
        with positive SOED gain peels an edge one block closer to
        uncut, escaping cut plateaus while the lexicographic
        (cut, SOED) potential still strictly decreases.

        With ``last`` = "the vertex is the edge's only pin in its
        block" and ``z[t]`` = "block ``t`` holds no pin of the edge",
        an incident edge of weight ``w`` contributes
        ``w·a − w·(a + b)·z[t]`` to the cut gain toward ``t`` and
        ``w·last − w·z[t]`` to the SOED gain, where ``a = (λ = 2) ∧
        last`` (the move uncuts the edge unless it opens ``t``) and
        ``b = (λ = 1) ∧ ¬last`` (the move cuts an internal edge when it
        opens ``t``).  An edge's contribution to a pin's rows is thus a
        function of which blocks hold none of its pins, and of whether
        the pin's own block holds exactly one — the invalidation rule
        :meth:`move_batch` reports.

        Only the ``z`` factor depends on the destination, and only on
        an edge with ``1 < λ < k``: a λ = 1 edge is empty in every
        block but the pin's own (whose row is zeroed), so it adds the
        constants ``−w·¬last`` / ``w·last − w``; a λ = k edge is empty
        nowhere, so it adds ``w·a`` / ``w·last``.  Every edge's
        target-independent part is one int64 per-vertex segment sum;
        only the edges in between build the ``(edges, T)`` empty-block
        test, and of those only the ones with ``a`` set (λ = 2, the pin
        alone in its block) reach the cut rows.  On a flat netlist the
        bulk of a boundary's incidences are edges inside one block and
        wide nets over every block, so the per-target work shrinks to a
        fraction of the incidences (``docs/refinement.md``).
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        targets = np.asarray(to_parts, dtype=np.int64)
        self.gain_batches += 1
        self.gain_batch_vertices += len(vertices)
        n, tcount = len(vertices), len(targets)
        own = self.part[vertices]
        edges, deg = self.hg.vertices_edges(vertices)
        cut_c = np.zeros(n, dtype=np.int64)
        soed_c = np.zeros(n, dtype=np.int64)
        # the z terms of the 1 < λ < k edges: (vertex positions, (·, T) sums)
        cut_z = soed_z = (np.empty(0, dtype=np.int64),
                          np.empty((0, tcount), dtype=np.int64))
        if len(edges):
            self.lambda_hits += len(edges)
            lam = self.edge_lambda[edges]
            w = self.hg.edge_weight[edges]
            w_last = w * (
                self.edge_part_count[edges, np.repeat(own, deg)] == 1)
            uncut = np.where(lam == 2, w_last, 0)                   # w·a
            inside = lam == 1
            soed_slot = w_last - np.where(inside, w, 0)
            # per vertex, every edge's constant term; on a λ = 1 edge
            # the cut's z term −w·¬last is a constant too, and equals
            # the edge's SOED term
            first = np.cumsum(deg) - deg
            nz = np.flatnonzero(deg)
            cut_c[nz] = np.add.reduceat(np.where(inside, soed_slot, uncut),
                                        first[nz])
            soed_c[nz] = np.add.reduceat(soed_slot, first[nz])
            mid = np.flatnonzero((lam > 1) & (lam < self.k))
            if len(mid):
                owner = np.repeat(np.arange(n), deg)[mid]
                empty = self.edge_part_count[
                    edges[mid][:, None], targets[None, :]] == 0   # (M, T)
                soed_z = _owner_sums(owner, w[mid][:, None] * empty)
                sole = uncut[mid] != 0
                cut_z = _owner_sums(owner[sole],
                                    uncut[mid][sole][:, None] * empty[sole])
        gains = np.repeat(cut_c[None, :], tcount, axis=0)
        soeds = np.repeat(soed_c[None, :], tcount, axis=0)
        gains[:, cut_z[0]] -= cut_z[1].T
        soeds[:, soed_z[0]] -= soed_z[1].T
        home = targets[:, None] == own[None, :]
        gains[home] = 0
        soeds[home] = 0
        return gains, soeds

    # -- mutation -------------------------------------------------------------

    def move(self, v: int, to_part: int) -> int:
        """Move vertex ``v`` to ``to_part``; returns the realized gain.
        The one-vertex form of :meth:`move_batch`."""
        if not (0 <= to_part < self.k):
            raise PartitionError(f"target partition {to_part} out of range [0,{self.k})")
        return self.move_batch([v], [to_part])[0]

    def move_batch(
        self,
        vertices: Sequence[int] | np.ndarray,
        to_parts: Sequence[int] | np.ndarray,
    ) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
        """Apply many moves in one vectorized scatter — the one kernel
        that mutates ``edge_part_count`` / ``edge_lambda`` incrementally.

        ``vertices`` must be distinct; ``to_parts[i]`` is the target of
        ``vertices[i]`` (entries already in their target are skipped).
        The per-edge partition counts are updated by two ``bincount``
        calls over the batch's incidences, keyed by touched-edge rank and
        block (a ``ufunc.at`` into the int32 counts is several times
        slower than into int64), λ is re-derived only
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
        k = self.k
        edges, deg = hg.vertices_edges(vertices)
        counts = self.edge_part_count
        touched, rank = np.unique(edges, return_inverse=True)
        before = counts[touched]
        rank *= k
        size = len(touched) * k
        delta = np.bincount(rank + np.repeat(to_arr, deg), minlength=size)
        delta -= np.bincount(rank + np.repeat(frm, deg), minlength=size)
        after = before + delta.reshape(len(touched), k)
        counts[touched] = after
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
        np.subtract.at(self.part_weight, frm, moved_w)
        np.add.at(self.part_weight, to_arr, moved_w)
        self.part[vertices] = to_arr
        return gain, touched, old_lam, edge_changed

    # -- balance ------------------------------------------------------------

    def max_imbalance(self) -> float:
        """Largest relative deviation of any partition from the ideal
        ``total/k`` load, as a fraction of total weight."""
        total = self.hg.total_weight
        if total == 0:
            return 0.0
        ideal = total / self.k
        return float(np.abs(self.part_weight - ideal).max() / total)
