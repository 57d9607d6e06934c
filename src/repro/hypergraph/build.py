"""Circuit → hypergraph translation and the super-gate clustering model.

The paper's hypergraph (§3) has two kinds of vertices: ordinary gates
and *super-gates* — Verilog module instances treated as one vertex
weighted by their internal gate count.  A :class:`Clustering` is
exactly that as **one array**: ``gate_cluster[g]`` is the vertex of
gate ``g``.  Everything else — vertex names, weights, the hierarchy
node behind a super-gate — is a per-vertex column beside it, and the
same array is what the partition result indexes
(``assignment[gate_cluster]``) and what the Time Warp engine turns
into its LP table.

Flattening (§3.2) is a Clustering→Clustering operation: one super-gate
is replaced by its next hierarchy level (its direct gates as
singletons plus its child instances as smaller super-gates), and the
hypergraph is rebuilt.  The design hierarchy is a *given* coarsening:
``Netlist.nodes`` is a preorder, so "the gates of instance ``i``" is
the range test ``i <= gate_node[g] < subtree_end[i]`` and a hierarchy
level is a lookup through ``gate_node`` — no per-node gate lists.

Every circuit hypergraph here — visible-node, partially flattened, flat
from a parsed netlist, flat from a streamed one — is built by one array
kernel, :func:`spanning_nets`, over the netlist's columns and a
gate → vertex map; a :class:`Clustering` only adds the
vertex weights and the names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import PartitionError
from ..obs.recorder import NULL_RECORDER, Recorder
from ..verilog.netlist import HierNode, Netlist
from .hypergraph import Hypergraph, _csr_gather

__all__ = ["Cluster", "Clustering", "flat_hypergraph", "group_members",
           "hierarchy_hypergraph", "project_hypergraph", "spanning_nets",
           "streamed_flat_hypergraph"]


def group_members(mapping: np.ndarray, count: int) -> list[np.ndarray]:
    """Invert an element → group map: per group ``0..count-1`` the
    ascending indices ``i`` with ``mapping[i] == group``, as views of
    one array (stable argsort, split at the bincount bounds)."""
    if count == 0:
        return []
    order = np.argsort(mapping, kind="stable")
    bounds = np.cumsum(np.bincount(mapping, minlength=count))
    return np.split(order, bounds[:-1])


@dataclass(frozen=True, eq=False)
class Cluster:
    """One hypergraph vertex as a record: a gate or a super-gate.

    A row of the :attr:`Clustering.clusters` view.  ``gate_ids`` is the
    vertex's gates ascending (an array); ``node`` is the backing
    instance-tree node for super-gates, ``None`` for plain gates;
    ``weight`` is the gate count (the paper's load unit) unless the
    clustering carries ``gate_weights``.
    """

    name: str
    gate_ids: np.ndarray
    weight: int
    node: HierNode | None = None

    @property
    def is_super_gate(self) -> bool:
        """Whether this cluster can still be flattened."""
        return self.node is not None and bool(self.node.children or len(self.gate_ids) > 1)


class Clustering:
    """A gate → vertex map covering every gate, plus per-vertex columns.

    ``gate_cluster`` (``(num_gates,)`` int64) *is* the clustering.
    Beside it, one entry per vertex: ``names``, ``weights`` (int64),
    ``node`` (index into ``netlist.nodes`` of the instance behind a
    super-gate, -1 for a plain gate) and ``is_super_gate`` (bool).
    :attr:`parent`, set on the result of :meth:`flatten`, maps each of
    its vertices to the vertex of the clustering it was flattened from.

    ``gate_weights`` optionally replaces the paper's gate-count load
    metric with per-gate weights — the activity-based metric the paper
    names as future work ("our load metric is the number of gates,
    which is not entirely adequate").  Pass a per-gate integer array
    (e.g. ``1 + activity`` from a profiling run of
    :class:`~repro.sim.sequential.SequentialSimulator`); vertex weights
    then measure expected simulation load instead of area.
    """

    def __init__(
        self,
        netlist: Netlist,
        gate_cluster: np.ndarray,
        names: list[str],
        gate_weights: "np.ndarray | None" = None,
        node: "np.ndarray | None" = None,
    ) -> None:
        self.netlist = netlist
        self.gate_cluster = np.asarray(gate_cluster, dtype=np.int64)
        self.names = names
        self.gate_weights = self._check_weights(netlist, gate_weights)
        self.node = np.full(len(names), -1, dtype=np.int64) if node is None else node
        #: new vertex → vertex of the clustering this one was flattened from
        self.parent: np.ndarray | None = None
        self._hypergraph: Hypergraph | None = None
        self._edge_drivers: list[int] = []
        self._clusters: tuple[Cluster, ...] | None = None
        if self.gate_cluster.shape != (netlist.num_gates,):
            raise PartitionError(
                f"clustering covers {self.gate_cluster.size} of "
                f"{netlist.num_gates} gates"
            )
        self._check_vertices(self.gate_cluster)
        sizes = np.bincount(self.gate_cluster, minlength=len(names))
        if not sizes.all():
            empty = int(np.argmin(sizes))
            raise PartitionError(f"vertex {empty} ({names[empty]!r}) holds no gate")
        self.weights = sizes if self.gate_weights is None else np.bincount(
            self.gate_cluster, weights=self.gate_weights, minlength=len(names)
        ).astype(np.int64)
        self.is_super_gate = (self.node >= 0) & (
            (netlist.subtree_end[self.node] > self.node + 1) | (sizes > 1)
        )

    @staticmethod
    def _check_weights(
        netlist: Netlist, gate_weights: "np.ndarray | None"
    ) -> np.ndarray | None:
        """``gate_weights`` as an int64 array (itself, if it is one)."""
        if gate_weights is None:
            return None
        given = np.asarray(gate_weights)
        if len(given) != netlist.num_gates:
            raise PartitionError(
                f"gate_weights has {len(given)} entries for "
                f"{netlist.num_gates} gates"
            )
        with np.errstate(invalid="ignore"):
            weights = given.astype(np.int64, copy=False)
        if (weights != given).any():
            gid = int(np.argmax(weights != given))
            raise PartitionError(
                f"gate_weights must be integers, got {given[gid]} for gate {gid}"
            )
        if len(weights) and int(weights.min()) < 1:
            raise PartitionError("gate_weights must be >= 1")
        return weights

    def _check_vertices(self, vertices: np.ndarray) -> None:
        bad = (vertices < 0) | (vertices >= len(self))
        if bad.any():
            raise PartitionError(
                f"vertex {int(vertices[np.argmax(bad)])} out of range: the "
                f"clustering has {len(self)} vertices"
            )

    # -- constructors ------------------------------------------------------

    @classmethod
    def top_level(
        cls, netlist: Netlist, gate_weights: "np.ndarray | None" = None
    ) -> "Clustering":
        """The design-driven view: the netlist's *visible nodes*.

        Top-level gates become singleton clusters; each first-level
        module instance becomes one super-gate cluster (paper §3, §4.3).
        """
        gates = np.arange(netlist.num_gates, dtype=np.int64)
        gate_cluster, names, node = cls._open(netlist, 0, gates, "")
        return cls(netlist, gate_cluster, names, gate_weights, node)

    @staticmethod
    def _open(
        netlist: Netlist, node: int, gates: np.ndarray, prefix: str
    ) -> tuple[np.ndarray, list[str], np.ndarray]:
        """One hierarchy level of instance ``node`` over its ``gates``
        (ascending): the direct gates as singletons in gate order, then
        each non-empty child instance, in declaration order, as one
        super-gate named ``prefix + child``.  Returns the level's vertex
        per gate of ``gates``, the vertex names and the ``node`` column.
        """
        end = netlist.subtree_end
        # the node, then its children: each starts where the last ended
        heads = [node]
        child = node + 1
        while child < end[node]:
            heads.append(child)
            child = int(end[child])
        heads = np.array(heads, dtype=np.int64)
        head = heads[
            np.searchsorted(heads, netlist.gate_node[gates], side="right") - 1
        ]
        # one sort key per new vertex: a direct gate is itself, a gate
        # further down is its child instance, ordered behind every gate
        num_gates = netlist.num_gates
        keys, vertex = np.unique(
            np.where(head == node, gates, num_gates + head), return_inverse=True
        )
        nodes = netlist.nodes
        names = [
            netlist.gate_name(key) if key < num_gates
            else prefix + nodes[key - num_gates].name
            for key in keys.tolist()
        ]
        return vertex, names, np.where(keys < num_gates, -1, keys - num_gates)

    @classmethod
    def flat(cls, netlist: Netlist) -> "Clustering":
        """The flattened-netlist view: every gate its own vertex.

        This is the input the paper gave hMetis.
        """
        return cls(
            netlist, np.arange(netlist.num_gates, dtype=np.int64),
            netlist.gate_names, None,
        )

    # -- flattening ----------------------------------------------------------

    def flatten(self, index: int) -> "Clustering":
        """Replace super-gate ``index`` by its next hierarchy level.

        Its direct gates become singleton clusters and each child
        instance becomes a (smaller) super-gate, spliced in at
        ``index``; other clusters keep their order.  The result's
        :attr:`parent` maps its vertices back to this clustering's, so
        an assignment carries over as ``part[new.parent]``.  Raises
        :class:`PartitionError` for plain gates.
        """
        self._check_vertices(np.array([index]))
        if self.node[index] < 0:
            raise PartitionError(
                f"cluster {self.names[index]!r} is a plain gate, cannot flatten"
            )
        gates = np.flatnonzero(self.gate_cluster == index)
        vertex, names, node = self._open(
            self.netlist, int(self.node[index]), gates, self.names[index] + "."
        )
        pieces = np.ones(len(self), dtype=np.int64)
        pieces[index] = len(names)
        parent = np.repeat(np.arange(len(self), dtype=np.int64), pieces)
        # vertices behind `index` shift by the pieces it grew into
        gate_cluster = self.gate_cluster + (len(names) - 1) * (self.gate_cluster > index)
        gate_cluster[gates] = index + vertex
        new_node = self.node[parent]
        new_node[index:index + len(names)] = node
        new = Clustering(
            self.netlist, gate_cluster,
            self.names[:index] + names + self.names[index + 1:],
            self.gate_weights, new_node,
        )
        new.parent = parent
        return new

    def largest_super_gate(self, among: "Sequence[int] | None" = None) -> int | None:
        """Index of the heaviest flattenable cluster (optionally within
        a vertex subset; the lowest index on ties), or None if
        everything is a plain gate."""
        if among is None:
            among = np.arange(len(self), dtype=np.int64)
        else:
            among = np.asarray(among, dtype=np.int64)
            self._check_vertices(among)
        among = among[self.is_super_gate[among]]
        if not among.size:
            return None
        weight = self.weights[among]
        return int(among[weight == weight.max()].min())

    # -- hypergraph ------------------------------------------------------------

    def hypergraph(self) -> Hypergraph:
        """Hypergraph over the clusters: one hyperedge per net spanning
        two or more clusters (cached)."""
        if self._hypergraph is None:
            self._hypergraph = self._build_hypergraph()
        return self._hypergraph

    def edge_drivers(self) -> list[int]:
        """Per hyperedge of :meth:`hypergraph`, the cluster holding the
        net's driver gate, or -1 for an undriven net (a primary input).
        The hypergraph itself is undirected; cone partitioning reads the
        signal direction from here."""
        self.hypergraph()
        return self._edge_drivers

    def _build_hypergraph(self) -> Hypergraph:
        nets, edge_ptr, edge_pins, drivers = spanning_nets(
            self.netlist, self.gate_cluster
        )
        self._edge_drivers = drivers.tolist()
        return Hypergraph.from_csr(
            self.weights,
            np.ones(len(nets), dtype=np.int64),
            edge_ptr,
            edge_pins,
        )

    # -- views -------------------------------------------------------------------

    def gate_clusters(self) -> list[np.ndarray]:
        """Gate ids per cluster, ascending (the Time Warp engine's LP list)."""
        return group_members(self.gate_cluster, len(self))

    @property
    def clusters(self) -> tuple[Cluster, ...]:
        """The vertices as :class:`Cluster` records — a read-only view
        for code that wants objects (partition files, diagnostics,
        tests), materialised from the columns on first access."""
        if self._clusters is None:
            nodes = self.netlist.nodes
            self._clusters = tuple(
                Cluster(name, gate_ids, weight, nodes[node] if node >= 0 else None)
                for name, gate_ids, weight, node in zip(
                    self.names, self.gate_clusters(),
                    self.weights.tolist(), self.node.tolist(),
                )
            )
        return self._clusters

    def __len__(self) -> int:
        return len(self.names)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Clustering({len(self)} clusters, "
            f"{np.count_nonzero(self.is_super_gate)} super-gates, "
            f"{self.netlist.num_gates} gates)"
        )


def spanning_nets(
    netlist: Netlist, gate_cluster: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The nets touching two or more clusters, as hyperedge arrays.

    The one kernel behind every circuit hypergraph in the repo.
    ``gate_cluster[g]`` is the vertex of gate ``g``; ``None`` is the
    identity (every gate its own vertex — the flat hypergraph).  A net
    touches the vertex of its driver gate, when it has one, and of every
    gate reading it.  Returns ``(nets, edge_ptr, edge_pins, drivers)``:
    the spanning nets ascending, their distinct vertices ascending per
    net in CSR form, and per net the driver's vertex (-1 = undriven).

    Pure array work over the net-sorted fanout CSR: one gather rewrites
    the sink pins to vertices, a per-net min / max ``reduceat`` (the
    driver folded in) finds the nets whose pins disagree, and only those
    nets' pins are sorted (one key sort) and deduplicated.
    """
    fan_ptr, fan_gate = netlist.fanout()
    pin_vertex = fan_gate if gate_cluster is None else gate_cluster[fan_gate]
    driver = netlist.net_driver
    if gate_cluster is not None:
        # no driver is -1: it reads the -1 appended behind the last gate
        driver = np.append(gate_cluster, -1)[driver]
    # a net nobody reads touches its driver's vertex at most
    read = np.flatnonzero(fan_ptr[1:] > fan_ptr[:-1])
    starts = fan_ptr[read]
    low = np.minimum.reduceat(pin_vertex, starts)
    high = np.maximum.reduceat(pin_vertex, starts)
    read_driver = driver[read]
    # an absent driver (-1) must not count as a vertex of its own
    low = np.where(read_driver >= 0, np.minimum(low, read_driver), low)
    nets = read[low != np.maximum(high, read_driver)]
    drivers = driver[nets]

    # (edge, vertex) incidences of the spanning nets only — their sink
    # pins plus one per driven net — as one sortable key each (net and
    # vertex counts are array lengths, so the product is far from 2^63)
    width = (
        netlist.num_gates if gate_cluster is None
        else int(gate_cluster.max(initial=-1)) + 1
    )
    sinks, counts = _csr_gather(fan_ptr, pin_vertex, nets)
    first_key = np.arange(len(nets) + 1, dtype=np.int64) * width
    driven = drivers >= 0
    key = np.concatenate((
        np.repeat(first_key[:-1], counts) + sinks,
        first_key[:-1][driven] + drivers[driven],
    ))
    key.sort()
    keep = np.ones(len(key), dtype=bool)
    keep[1:] = key[1:] != key[:-1]
    key = key[keep]
    edge_ptr = np.searchsorted(key, first_key)
    edge_pins = key - np.repeat(first_key[:-1], np.diff(edge_ptr))
    return nets, edge_ptr, edge_pins, drivers


def flat_hypergraph(netlist: Netlist) -> Hypergraph:
    """Gate-level hypergraph of the flattened netlist (hMetis's input):
    ``Clustering.flat(netlist).hypergraph()`` without the vertex names."""
    return streamed_flat_hypergraph(netlist)


def streamed_flat_hypergraph(
    netlist: Netlist, recorder: Recorder = NULL_RECORDER
) -> Hypergraph:
    """Gate-level hypergraph of a netlist, parsed or streamed.

    :func:`spanning_nets` with every gate its own vertex: one hyperedge
    per net touching two or more distinct gates (driver, when one
    exists, plus sink gates), edges ordered by net id, pins sorted
    ascending, all weights 1.  Pure array work sized O(pins) — no
    per-gate or per-net Python lists at any point, which is what keeps
    peak build RSS at a small constant times the pin count (asserted by
    ``benchmarks/bench_scale_ladder.py``).
    """
    nets, edge_ptr, edge_pins, _ = spanning_nets(netlist)
    if recorder.enabled:
        recorder.incr("part.build.gates", netlist.num_gates)
        recorder.incr("part.build.nets", netlist.num_nets)
        recorder.incr("part.build.pins", netlist.num_pins)
        recorder.incr("part.build.edges", len(nets))
        recorder.incr("part.build.edge_pins", len(edge_pins))
    return Hypergraph.from_csr(
        vertex_weight=np.ones(netlist.num_gates, dtype=np.int64),
        edge_weight=np.ones(len(nets), dtype=np.int64),
        edge_ptr=edge_ptr,
        edge_pins=edge_pins,
    )


#: splitmix64 finalizer seeds for the two independent pin-set
#: fingerprints of :func:`_edge_fingerprints`
_FP_SEED1 = np.uint64(0x9E3779B97F4A7C15)
_FP_SEED2 = np.uint64(0xD1B54A32D192ED03)


def _mix64(x: np.ndarray, seed: np.uint64) -> np.ndarray:
    """splitmix64 finalizer over a uint64 array (wraps mod 2^64)."""
    z = x + seed
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _edge_fingerprints(
    pins: np.ndarray, starts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Two independent 64-bit pin-set fingerprints per CSR segment.

    Each fingerprint is a sum (mod 2^64) of a mixed pin id over the
    edge's segment — associative, so the segmented ``reduceat`` is
    exact.  Equal pin sets always collide by construction; unequal
    sets collide with probability ~2^-64 per pair on the first.  The
    projection sorts by the first and checks every adjacent match
    against the size, the second and the actual pin content, so a
    collision costs a rare exact-regroup fallback, never correctness
    (stress-tested by forcing this function to a constant).
    """
    x = pins.astype(np.uint64, copy=False)
    return (
        np.add.reduceat(_mix64(x, _FP_SEED1), starts),
        np.add.reduceat(_mix64(x, _FP_SEED2), starts),
    )


#: bits per word of :func:`_exact_sums`: float64 sums of up to 2^32
#: values below 2^21 are exact, and three words cover any int64 >= 0
_SUM_WORD_BITS = 21


def _exact_sums(groups: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per-group int64 sums of non-negative int64 ``values`` over group
    ids ``0..groups.max()``, exact at any magnitude.  A float
    ``bincount`` rounds once a sum passes 2^53, so each
    :data:`_SUM_WORD_BITS`-bit word of the values is summed on its own
    and the word sums recombine in integers."""
    mask = (1 << _SUM_WORD_BITS) - 1
    return sum(
        np.bincount(groups, weights=(values >> shift) & mask)
        .astype(np.int64) << shift
        for shift in range(0, 63, _SUM_WORD_BITS)
    )


def project_hypergraph(hg: Hypergraph, mapping: np.ndarray) -> Hypergraph:
    """Contract ``hg`` along a vertex→cluster ``mapping``.

    The coarse hypergraph of multilevel partitioning: cluster weights
    are the summed fine vertex weights, every edge is rewritten to its
    clusters' ids, edges collapsing to a single cluster disappear
    (they can never be cut again) and parallel edges — distinct fine
    edges with identical coarse pin sets — accumulate their weights.
    Together these rules make projection *cut-exact*: for any coarse
    assignment ``A``, the weighted cut of ``A`` on the coarse
    hypergraph equals the weighted cut of ``A[mapping]`` on ``hg``.

    Fully array-native, in contraction order:

    1. a per-edge min / max ``reduceat`` of the coarse pin ids drops
       every edge that collapses into one cluster, before any sort;
    2. one sort of the int64 key ``edge * num_coarse + cluster`` over
       the surviving edges' pins dedupes each edge's clusters;
    3. parallel edges are grouped by a fingerprint sort with exact
       adjacent-content verification (a collision falls back to an exact
       regroup — see :func:`_edge_fingerprints`), so each group is one
       contiguous run, whose first fine occurrence and summed weight
       are one ``minimum.reduceat`` and one ``add.reduceat``.

    The coarse CSR freezes through :meth:`Hypergraph.from_csr` with no
    per-edge Python lists.  Coarse edges are ordered by first fine
    occurrence, pins ascending (pinned against a set-per-edge oracle in
    ``tests/test_coarsen_vectorized.py``).

    ``mapping`` must number its clusters ``0..c-1`` with integers and
    leave none empty; anything else is a :class:`PartitionError`.
    """
    given = np.asarray(mapping)
    if given.shape != (hg.num_vertices,):
        raise PartitionError(
            f"mapping must have one entry per vertex "
            f"({hg.num_vertices}), got shape {given.shape}"
        )
    with np.errstate(invalid="ignore"):
        mapping = given.astype(np.int64, copy=False)
    if mapping is not given and (mapping != given).any():
        v = int(np.argmax(mapping != given))
        raise PartitionError(
            f"mapping must hold integer cluster ids, got {given[v]} "
            f"for vertex {v}"
        )
    # n vertices fill at most clusters 0..n-1
    n = len(mapping)
    if n and (int(mapping.min()) < 0 or int(mapping.max()) >= n):
        v = int(np.argmax((mapping < 0) | (mapping >= n)))
        raise PartitionError(
            f"vertex {v} maps to cluster {int(mapping[v])}, outside 0..{n - 1}"
        )
    # sums of positive weights: a zero is a cluster id no vertex maps to
    coarse_weights = _exact_sums(mapping, hg.vertex_weight)
    if not coarse_weights.all():
        raise PartitionError(
            f"cluster {int(np.argmin(coarse_weights))} holds no vertex"
        )
    num_coarse = len(coarse_weights)

    # 1. an edge whose smallest and largest cluster agree vanishes
    # (reduceat misreads empty segments, so only non-empty edges go in)
    edge_ptr = hg._edge_ptr
    pin_coarse = mapping[hg.pin_vertices]
    filled = np.flatnonzero(edge_ptr[1:] > edge_ptr[:-1])
    starts = edge_ptr[filled]
    alive = filled[
        np.minimum.reduceat(pin_coarse, starts)
        != np.maximum.reduceat(pin_coarse, starts)
    ]
    m = len(alive)
    if m == 0:
        return Hypergraph.from_csr(
            coarse_weights, np.empty(0, dtype=np.int64),
            np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int64),
        )

    # 2. one key per surviving pin, (edge rank, cluster), sorted once
    # (edge-major already, which the stable sort's runs exploit);
    # repeated keys are pins of one edge in one cluster
    # (each transient is freed once read: at the finest level they are
    # pin-sized, and the next one is allocated beside them)
    clusters, sizes = _csr_gather(edge_ptr, pin_coarse, alive)
    del pin_coarse
    key = np.repeat(np.arange(m, dtype=np.int64) * num_coarse, sizes)
    key += clusters
    del clusters
    key.sort(kind="stable")
    fresh = np.ones(len(key), dtype=bool)
    fresh[1:] = key[1:] != key[:-1]
    edge, pins = np.divmod(key[fresh], num_coarse)
    del key, fresh
    eptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount(edge, minlength=m), out=eptr[1:])
    del edge
    esz = np.diff(eptr)

    # 3. group parallel edges: sort by the first fingerprint, then check
    # every adjacent match against the size, the second fingerprint and
    # the actual pins.  The order inside a run is free: all the output
    # reads of a run is its minimum and its integer sum
    h1, h2 = _edge_fingerprints(pins, eptr[:-1])
    sort_order = np.argsort(h1)
    h1_s = h1[sort_order]
    same_fp = np.zeros(m, dtype=bool)
    same_fp[1:] = h1_s[1:] == h1_s[:-1]
    run_starts = np.flatnonzero(~same_fp)
    cand = np.flatnonzero(same_fp)  # positions whose predecessor matches
    if len(cand):
        a, b = sort_order[cand - 1], sort_order[cand]
        equal = (esz[a] == esz[b]) & (h2[a] == h2[b])
        pa, ca = _csr_gather(eptr, pins, a[equal])
        pb, _ = _csr_gather(eptr, pins, b[equal])
        if len(pa):
            seg = np.zeros(len(ca), dtype=np.int64)
            np.cumsum(ca[:-1], out=seg[1:])
            equal[equal] = ~np.logical_or.reduceat(pa != pb, seg)
        if not equal.all():
            sort_order, run_starts = _regroup_collisions(
                eptr, pins, sort_order, same_fp, cand[~equal])

    # one coarse edge per run, at the run's first fine occurrence, its
    # weight the run's sum
    first = np.minimum.reduceat(sort_order, run_starts)
    lead = np.zeros(m, dtype=bool)
    lead[first] = True
    weight = np.zeros(m, dtype=np.int64)
    weight[first] = np.add.reduceat(
        hg.edge_weight[alive[sort_order]], run_starts)
    g_ptr = np.zeros(len(first) + 1, dtype=np.int64)
    np.cumsum(esz[lead], out=g_ptr[1:])
    return Hypergraph.from_csr(
        coarse_weights, weight[lead], g_ptr, pins[np.repeat(lead, esz)])


def _regroup_collisions(
    eptr: np.ndarray,
    pins: np.ndarray,
    sort_order: np.ndarray,
    same_fp: np.ndarray,
    bad: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact regroup of the fingerprint runs holding a true collision
    (~2^-64 per pair): within each such run, edges with equal pin
    content are moved together, in order of first position, and every
    run boundary is recomputed.  Returns ``(sort_order, run_starts)``
    with each group of equal edges one contiguous run."""
    m = len(sort_order)
    # group label per position: the run start outside the bad runs,
    # the first position with equal content inside them
    leader = np.maximum.accumulate(np.where(same_fp, -1, np.arange(m)))
    fp_run = np.cumsum(~same_fp)
    for r in np.unique(fp_run[bad]).tolist():
        first: dict[tuple[int, ...], int] = {}
        for i in np.flatnonzero(fp_run == r).tolist():
            e = sort_order[i]
            key = tuple(pins[eptr[e]:eptr[e + 1]].tolist())
            leader[i] = first.setdefault(key, i)
    regroup = np.argsort(leader, kind="stable")
    leader = leader[regroup]
    new = np.ones(m, dtype=bool)
    new[1:] = leader[1:] != leader[:-1]
    return sort_order[regroup], np.flatnonzero(new)


def hierarchy_hypergraph(netlist: Netlist) -> Hypergraph:
    """Visible-node hypergraph of the design hierarchy (the paper's)."""
    return Clustering.top_level(netlist).hypergraph()
