"""Weighted hypergraph model of a gate-level circuit.

A circuit maps onto a hypergraph as follows (paper §3): every *vertex*
is either an ordinary gate or a *super-gate* (a Verilog module instance,
treated as a single vertex weighted by the number of gates it
contains), and every *hyperedge* is a net — the set of vertices whose
pins the net touches.

The structure is immutable once frozen: partitioning algorithms mutate a
:class:`~repro.hypergraph.partition_state.PartitionState` layered on top
of it, never the hypergraph itself.  This keeps the expensive adjacency
arrays shareable between the many partitioning runs a (k, b) sweep
performs.

Vertices and hyperedges are dense integer ids (``0..n-1``), with
optional string names kept in side arrays for diagnostics.  Pin lists
are stored in CSR-style flattened arrays so that iteration over a
vertex's edges or an edge's vertices is an O(degree) slice, not a hash
walk — the FM inner loop touches these arrays millions of times on
realistic circuits.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..errors import HypergraphError

__all__ = ["Hypergraph"]


def _csr_gather(
    ptr: np.ndarray, data: np.ndarray, ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate the CSR slices ``data[ptr[i]:ptr[i+1]]`` for ``ids``.

    Returns ``(values, counts)`` where ``values`` is the concatenation
    in ``ids`` order and ``counts[j]`` the slice length of ``ids[j]``.
    Fully vectorized — the index array is ``repeat(start) + ramp``.
    """
    ids = np.asarray(ids, dtype=np.int64)
    starts = ptr[ids]
    counts = ptr[ids + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=data.dtype), counts
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    idx = np.arange(total, dtype=np.int64) + np.repeat(starts - offsets, counts)
    return data[idx], counts


def _csr_lists(ptr: np.ndarray, data: np.ndarray) -> list[list[int]]:
    """Every CSR slice ``data[ptr[i]:ptr[i+1]]`` as a plain-``int`` list."""
    flat = data.tolist()
    bounds = ptr.tolist()
    return [flat[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


class Hypergraph:
    """An immutable weighted hypergraph.

    Construct one with :meth:`from_edges` (pin lists) or
    :meth:`from_csr` (pre-built arrays).  All arrays are NumPy ``int64``; the object is hashable by
    identity and safe to share across partitioning runs.

    Attributes
    ----------
    vertex_weight:
        ``(num_vertices,)`` array of positive vertex weights (gate
        counts; a plain gate has weight 1, a super-gate the number of
        gates inside it).
    edge_weight:
        ``(num_edges,)`` array of positive hyperedge weights (all 1 for
        plain nets; coarsened hypergraphs carry accumulated weights).
    """

    __slots__ = (
        "vertex_weight",
        "edge_weight",
        "_edge_ptr",
        "_edge_pins",
        "_vertex_ptr",
        "_vertex_pins",
        "_vertex_edges_lists",
        "_edge_pins_lists",
        "_edge_weight_list",
        "_vertex_weight_list",
        "__weakref__",
    )

    def __init__(
        self,
        vertex_weight: np.ndarray,
        edge_weight: np.ndarray,
        edge_ptr: np.ndarray,
        edge_pins: np.ndarray,
    ) -> None:
        self.vertex_weight = vertex_weight
        self.edge_weight = edge_weight
        self._edge_ptr = edge_ptr
        self._edge_pins = edge_pins
        self._validate()
        self._build_vertex_index()

    # -- construction ---------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        vertex_weights: Sequence[int],
        edges: Iterable[Sequence[int]],
        edge_weights: Sequence[int] | None = None,
    ) -> "Hypergraph":
        """Build a hypergraph from explicit pin lists.

        Parameters
        ----------
        vertex_weights:
            One positive integer per vertex.
        edges:
            Iterable of pin lists; each pin list is a sequence of vertex
            ids.  Duplicate pins within one edge are collapsed.
        edge_weights:
            Optional per-edge weights (default all 1).
        """
        edge_lists = [sorted(set(int(v) for v in e)) for e in edges]
        ptr = np.zeros(len(edge_lists) + 1, dtype=np.int64)
        for i, e in enumerate(edge_lists):
            ptr[i + 1] = ptr[i] + len(e)
        pins = np.empty(int(ptr[-1]), dtype=np.int64)
        for i, e in enumerate(edge_lists):
            pins[ptr[i] : ptr[i + 1]] = e
        vw = np.asarray(vertex_weights, dtype=np.int64)
        if edge_weights is None:
            ew = np.ones(len(edge_lists), dtype=np.int64)
        else:
            ew = np.asarray(edge_weights, dtype=np.int64)
        return cls(vw, ew, ptr, pins)

    @classmethod
    def from_csr(
        cls,
        vertex_weight: np.ndarray,
        edge_weight: np.ndarray,
        edge_ptr: np.ndarray,
        edge_pins: np.ndarray,
    ) -> "Hypergraph":
        """Freeze pre-built CSR arrays into a hypergraph directly.

        The array-native construction boundary: bulk builders
        (:func:`~repro.hypergraph.build.streamed_flat_hypergraph`, the
        multilevel projection) assemble ``edge_ptr``/``edge_pins`` with
        vectorized passes and hand them over without any per-edge
        Python list round-trip.  Unlike :meth:`from_edges` the pin
        lists are **not** re-sorted or deduplicated — each edge's slice
        must already hold strictly increasing vertex ids (the order
        every query kernel assumes); the pointer array must start at 0,
        be non-decreasing and end at ``len(edge_pins)``.  Arrays are
        widened to the frozen int64 substrate
        (:func:`~repro.hypergraph.dtypes.require_int64` policy) but
        never copied when already int64.
        """
        from .dtypes import require_int64

        ptr = require_int64(np.asarray(edge_ptr))
        pins = require_int64(np.asarray(edge_pins))
        if len(ptr) == 0 or ptr[0] != 0 or int(ptr[-1]) != len(pins):
            raise HypergraphError(
                "edge pointer array must start at 0 and end at the pin count"
            )
        if len(ptr) > 1 and (np.diff(ptr) < 0).any():
            raise HypergraphError("edge pointer array must be non-decreasing")
        return cls(
            require_int64(np.asarray(vertex_weight)),
            require_int64(np.asarray(edge_weight)),
            ptr, pins,
        )

    def _build_vertex_index(self) -> None:
        """Construct the transposed (vertex → edges) CSR arrays.

        Vectorized: ``np.bincount`` counts the degrees, and one sort of
        the int64 key ``pin * num_edges + edge`` lists each vertex's
        incident edges ascending.  O(pins log pins), no Python-level
        loop.  Also seeds the lazy plain-list caches.
        """
        n = len(self.vertex_weight)
        degree = np.bincount(self._edge_pins, minlength=n)
        self._vertex_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degree, out=self._vertex_ptr[1:])
        self._vertex_edges_lists: list[list[int]] | None = None
        self._edge_pins_lists: list[list[int]] | None = None
        self._edge_weight_list: list[int] | None = None
        self._vertex_weight_list: list[int] | None = None
        m = self.num_edges
        key = self._edge_pins * m
        key += self.pin_edges
        key.sort()
        key -= np.repeat(np.arange(n, dtype=np.int64) * m, degree)
        self._vertex_pins = key

    def _validate(self) -> None:
        n = self.num_vertices
        if (self.vertex_weight <= 0).any():
            bad = int(np.argmax(self.vertex_weight <= 0))
            raise HypergraphError(f"vertex {bad} has non-positive weight")
        if (self.edge_weight <= 0).any():
            bad = int(np.argmax(self.edge_weight <= 0))
            raise HypergraphError(f"edge {bad} has non-positive weight")
        if len(self._edge_pins) and (
            self._edge_pins.min() < 0 or self._edge_pins.max() >= n
        ):
            raise HypergraphError("edge pin refers to a vertex id out of range")
        if len(self.edge_weight) + 1 != len(self._edge_ptr):
            raise HypergraphError("edge pointer array length mismatch")

    # -- basic queries ---------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """Number of vertices."""
        return len(self.vertex_weight)

    @property
    def num_edges(self) -> int:
        """Number of hyperedges."""
        return len(self.edge_weight)

    @property
    def num_pins(self) -> int:
        """Total number of (vertex, edge) incidences."""
        return len(self._edge_pins)

    @property
    def total_weight(self) -> int:
        """Sum of all vertex weights (total gate count of the circuit)."""
        return int(self.vertex_weight.sum())

    @property
    def pin_vertices(self) -> np.ndarray:
        """Flat edge-major pin array: the vertex of every incidence."""
        return self._edge_pins

    @property
    def pin_edges(self) -> np.ndarray:
        """Flat edge-major owner array: the edge of every incidence
        (aligned with :attr:`pin_vertices`), derived on each access —
        an O(pins) array that no kernel keeps."""
        return np.repeat(
            np.arange(self.num_edges, dtype=np.int64), np.diff(self._edge_ptr)
        )

    def edge_vertices(self, e: int) -> np.ndarray:
        """Vertices on hyperedge ``e`` (read-only view, sorted)."""
        return self._edge_pins[self._edge_ptr[e] : self._edge_ptr[e + 1]]

    def edges_pins(self, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Bulk CSR gather: concatenated pin lists of many edges.

        Returns ``(pins, counts)`` — the pins of ``edges[0]``, then
        ``edges[1]``, ..., plus the per-edge pin counts (so callers can
        map flat entries back to their edge with ``np.repeat``).
        """
        return _csr_gather(self._edge_ptr, self._edge_pins, edges)

    def vertices_edges(self, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Bulk CSR gather: concatenated incident-edge lists of many
        vertices, as ``(edges, counts)`` (see :meth:`edges_pins`)."""
        return _csr_gather(self._vertex_ptr, self._vertex_pins, vertices)

    def vertex_edges_lists(self) -> list[list[int]]:
        """The whole vertex → incident-edge adjacency as nested plain
        ``int`` lists, built once (one pass over the CSR arrays) and
        cached on the hypergraph.  FM's pass walks these: per-element
        NumPy scalar extraction would dominate at the typical netlist
        degree of 2–5.  Like every list table here it caches frozen
        data, never partition state."""
        lists = self._vertex_edges_lists
        if lists is None:
            lists = _csr_lists(self._vertex_ptr, self._vertex_pins)
            self._vertex_edges_lists = lists
        return lists

    def edge_pins_lists(self) -> list[list[int]]:
        """The whole edge → pins incidence as nested plain lists — the
        transpose of :meth:`vertex_edges_lists`, built once, cached on
        the hypergraph (so it dies with it).  FM's delta-gain update
        walks the pins of *critical* edges only."""
        lists = self._edge_pins_lists
        if lists is None:
            lists = _csr_lists(self._edge_ptr, self._edge_pins)
            self._edge_pins_lists = lists
        return lists

    @property
    def edge_weight_list(self) -> list[int]:
        """``edge_weight`` as a cached plain-``int`` list (see
        :meth:`vertex_edges_lists` for why FM's pass wants it)."""
        if self._edge_weight_list is None:
            self._edge_weight_list = self.edge_weight.tolist()
        return self._edge_weight_list

    @property
    def vertex_weight_list(self) -> list[int]:
        """``vertex_weight`` as a cached plain-``int`` list."""
        if self._vertex_weight_list is None:
            self._vertex_weight_list = self.vertex_weight.tolist()
        return self._vertex_weight_list

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Hypergraph(vertices={self.num_vertices}, edges={self.num_edges}, "
            f"pins={self.num_pins}, weight={self.total_weight})"
        )

