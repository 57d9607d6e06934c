"""The paper's contribution: design-driven multiway partitioning.

Public surface:

* :func:`design_driven_partition` — the full Figure-2 algorithm
  (cone initial partition → pairing + pairwise FM → super-gate
  flattening under the Formula-1 balance constraint).
* :class:`BalanceConstraint` — Formula 1, with the paper's (k, b) grid
  as :data:`PAPER_K_VALUES` / :data:`PAPER_B_VALUES`.
* :func:`cone_partition` — the concurrency-oriented initial partition.
* :func:`refine_pair` — pairwise FM with best-prefix rollback.
* :data:`PAIRING_STRATEGIES` — random / exhaustive / cut / gain.
* :func:`tournament_rounds` — the order ``exhaustive`` refines its
  pairs in; :func:`resolve_workers` — the worker-count policy of the
  presim pool (see ``docs/parallelism.md``).
* :func:`brute_force_presim` / :func:`heuristic_presim` — the (k, b)
  selection searches driven by short trial simulations;
  :func:`partition_netlist` — the one ``design`` / ``multilevel``
  dispatch they and the CLI share.
* :func:`multilevel_kway_partition` / :func:`direct_kway_partition` /
  :func:`multilevel_flat_partition` — the production multilevel k-way
  engine and its flat comparator (see ``docs/multilevel.md``).
* :func:`batch_refine` / :data:`REFINERS` — the data-parallel boundary
  refiner selectable as ``refiner="batch"`` on every partition entry
  point (see ``docs/refinement.md``).
"""

from .balance import BalanceConstraint, PAPER_B_VALUES, PAPER_K_VALUES
from .batch_refine import (
    REFINERS,
    BatchRefineResult,
    batch_refine,
    cut_degrees,
    validate_refiner,
)
from .cone import cone_partition, input_cones, build_cluster_dag
from .fm import FMPassResult, refine_pair, rebalance_pair
from .pairing import (
    PAIRING_STRATEGIES,
    estimate_pair_gain,
    pairing_strategy,
    tournament_rounds,
)
from .multiway import MultiwayResult, design_driven_partition
from .multilevel import (
    MultilevelConfig,
    MultilevelKwayResult,
    MultilevelLevel,
    coarsen_hypergraph,
    direct_kway_partition,
    multilevel_flat_partition,
    multilevel_kway_partition,
)
from .presim import (
    PresimPoint,
    PresimStudy,
    evaluate_partition,
    brute_force_presim,
    heuristic_presim,
    partition_netlist,
    resolve_workers,
)
from .activity import profile_activity, activity_clustering
from .recursive import recursive_design_driven_partition
from .partition_io import (
    save_partition,
    load_partition,
    dumps_partition,
    loads_partition,
)

__all__ = [
    "BalanceConstraint",
    "PAPER_B_VALUES",
    "PAPER_K_VALUES",
    "REFINERS",
    "BatchRefineResult",
    "batch_refine",
    "cut_degrees",
    "validate_refiner",
    "cone_partition",
    "input_cones",
    "build_cluster_dag",
    "FMPassResult",
    "refine_pair",
    "rebalance_pair",
    "PAIRING_STRATEGIES",
    "pairing_strategy",
    "estimate_pair_gain",
    "resolve_workers",
    "tournament_rounds",
    "MultiwayResult",
    "design_driven_partition",
    "MultilevelConfig",
    "MultilevelKwayResult",
    "MultilevelLevel",
    "coarsen_hypergraph",
    "direct_kway_partition",
    "multilevel_flat_partition",
    "multilevel_kway_partition",
    "PresimPoint",
    "PresimStudy",
    "evaluate_partition",
    "brute_force_presim",
    "heuristic_presim",
    "partition_netlist",
    "profile_activity",
    "activity_clustering",
    "recursive_design_driven_partition",
    "save_partition",
    "load_partition",
    "dumps_partition",
    "loads_partition",
]
