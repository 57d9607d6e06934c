"""Hypergraph substrate: circuit-as-hypergraph modeling and partition state.

Public surface:

* :class:`Hypergraph` — the immutable weighted hypergraph, built from
  pin lists by :meth:`Hypergraph.from_edges`.
  :meth:`Hypergraph.from_csr` is the array-native freeze boundary: bulk
  builders hand over finished ``edge_ptr``/``edge_pins`` arrays with no
  per-edge list round-trip.
* :class:`PartitionState` — mutable k-way assignment with incremental
  cut tracking (all partitioners operate through it).
* :func:`hyperedge_cut`, :func:`connectivity_cut`, :func:`part_weights`,
  :func:`load_imbalance`, :func:`within_balance` — oracle metrics.
* :func:`read_hgr` / :func:`write_hgr` — hMetis file interchange.
* :func:`flat_hypergraph` / :func:`hierarchy_hypergraph` — builders from
  elaborated Verilog netlists (see :mod:`repro.hypergraph.build`);
  :func:`streamed_flat_hypergraph` is ``flat_hypergraph`` with a
  recorder for the ``part.build.*`` counters.
* :func:`index_dtype` / :func:`require_int64` — the index dtype policy
  shared by the streamed construction paths
  (:mod:`repro.hypergraph.dtypes`).
"""

from .hypergraph import Hypergraph
from .dtypes import INT32_MAX, index_dtype, require_int64
from .partition_state import PartitionState
from .metrics import (
    hyperedge_cut,
    connectivity_cut,
    part_weights,
    load_imbalance,
    within_balance,
)
from .io import read_hgr, write_hgr, loads_hgr, dumps_hgr
from .build import (
    Cluster,
    Clustering,
    flat_hypergraph,
    hierarchy_hypergraph,
    project_hypergraph,
    streamed_flat_hypergraph,
)
from .analysis import (
    CircuitStats,
    StuckXReport,
    analyze_netlist,
    locality_fraction,
    stuck_x_report,
)

__all__ = [
    "Cluster",
    "Clustering",
    "flat_hypergraph",
    "hierarchy_hypergraph",
    "project_hypergraph",
    "streamed_flat_hypergraph",
    "INT32_MAX",
    "index_dtype",
    "require_int64",
    "CircuitStats",
    "StuckXReport",
    "analyze_netlist",
    "locality_fraction",
    "stuck_x_report",
    "Hypergraph",
    "PartitionState",
    "hyperedge_cut",
    "connectivity_cut",
    "part_weights",
    "load_imbalance",
    "within_balance",
    "read_hgr",
    "write_hgr",
    "loads_hgr",
    "dumps_hgr",
]
