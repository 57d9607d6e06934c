"""Design-driven multiway partitioning — the paper's algorithm (Figure 2).

Pipeline::

    setup k, b  →  cone initial partitioning  →  [ pairing → FM moves ]*
                →  balance check  →  (flatten largest super-gate,
                   redistribute load, repeat)  →  final partition

The hypergraph starts at *visible-node* granularity (top-level gates +
module-instance super-gates).  Whenever the load-balancing constraint
(Formula 1) cannot be met because super-gates are too coarse, the
largest super-gate inside an overweight partition is flattened one
hierarchy level, the partition assignment is carried over to the new
vertices, loads are redistributed, and pairing/FM resumes on the finer
hypergraph.  The loop ends when the constraint holds and no pairing
configuration yields further cut improvement.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import PartitionError
from ..hypergraph.build import Clustering, group_members
from ..hypergraph.partition_state import PartitionState
from ..obs.recorder import NULL_RECORDER, Recorder
from ..verilog.netlist import Netlist
from .balance import BalanceConstraint
from .batch_refine import validate_refiner
from .cone import cone_partition
from .pairing import (
    improve_until_stable,
    pairing_strategy,
    repair_balance,
    require_serial,
)
from .random_partition import random_partition

__all__ = ["MultiwayResult", "design_driven_partition"]

#: budgets of one improvement cycle (``improve_until_stable``): FM
#: passes per pair, pairing/FM rounds per granularity level
MAX_FM_PASSES = 8
MAX_ROUNDS = 64


@dataclass
class MultiwayResult:
    """Final partition plus provenance.

    ``clustering`` is the (possibly partially flattened) visible-node
    set; ``assignment[i]`` is the partition of its vertex ``i``.
    ``balanced`` records whether Formula 1 was ultimately met —
    partitions that exhausted every flattening opportunity without
    meeting a very tight b are returned with ``balanced=False`` rather
    than silently discarded.
    """

    clustering: Clustering
    assignment: np.ndarray
    k: int
    b: float
    cut_size: int
    part_weights: np.ndarray
    balanced: bool
    flatten_steps: int
    fm_rounds: int
    history: list[str] = field(default_factory=list)

    def gate_assignment(self) -> np.ndarray:
        """Partition id per gate of the underlying netlist."""
        return np.asarray(self.assignment, dtype=np.int64)[
            self.clustering.gate_cluster
        ]

    def to_simulation(self) -> tuple[list[np.ndarray], list[int]]:
        """(gate clusters, machine per cluster) for the Time Warp engine:
        one per non-empty machine (:func:`machine_shares`)."""
        return machine_shares(self.gate_assignment(), self.k)


def machine_shares(
    gate_part: np.ndarray, k: int
) -> tuple[list[np.ndarray], list[int]]:
    """One cluster LP per non-empty machine: its gates ascending, with
    the machine ids ascending beside them.

    The Clustered Time Warp granularity the paper ran on OOCTW: each
    machine's share of the partition is one unit, simulated
    sequentially and rolled back as a whole.  Every partition result's
    ``to_simulation`` is this over its gate → machine array.
    """
    members = group_members(gate_part, k)
    machines = [p for p in range(k) if members[p].size]
    return [members[p] for p in machines], machines


def design_driven_partition(
    netlist_or_clustering: Netlist | Clustering,
    k: int,
    b: float,
    seed: int = 0,
    pairing: str = "gain",
    initial: str = "cone",
    max_flatten_steps: int | None = None,
    restarts: int = 1,
    workers: int | None = None,
    recorder: Recorder = NULL_RECORDER,
    refiner: str = "fm",
) -> MultiwayResult:
    """Run the design-driven multiway partitioning algorithm.

    Parameters
    ----------
    netlist_or_clustering:
        An elaborated netlist (partitioned at visible-node granularity)
        or a pre-built :class:`Clustering`.
    k, b:
        Partition count and balance factor (Formula 1).
    seed:
        Controls cone-order and pairing randomness; fully deterministic
        for a fixed value.
    pairing:
        Pairing strategy: ``"random"``, ``"exhaustive"``, ``"cut"`` or
        ``"gain"`` (paper §3.1.1).
    initial:
        Initial-partition generator: ``"cone"`` (the paper's choice) or
        ``"random"`` (ablation baseline).
    max_flatten_steps:
        Safety cap on flattening operations (default: number of
        instances in the design — enough to flatten everything).
    restarts:
        Independent runs with consecutive seeds; the best result wins
        (balance first, then cut).  Multi-start is the standard cheap
        defense against the local minima iterative partitioners fall
        into; the paper's single-run behaviour is ``restarts=1``.
    workers:
        Kept for the pipeline benchmark's call sites; delete with the
        next ``benchmark`` PR.  ``None`` or ``1``; anything else is a
        :class:`~repro.errors.ConfigError` — refinement is serial
        (``docs/parallelism.md``).
    recorder:
        Observability sink (:mod:`repro.obs`).  Receives the
        ``part.*`` counters (cone stats, pairing rounds, FM moves,
        flatten/redistribute activity) and the phase timers
        ``partition.initial`` / ``partition.refine`` /
        ``partition.flatten`` / ``partition.rebalance``.  With
        ``restarts > 1`` every candidate run feeds the same recorder,
        so counters reflect total work, not just the winner.  The
        default :data:`~repro.obs.recorder.NULL_RECORDER` records
        nothing at zero cost; a recorder never changes the result.
    refiner:
        Refinement mode per improvement cycle: ``"fm"`` (the paper's
        pairing + pairwise heap FM) or ``"batch"`` (the data-parallel
        whole-boundary refiner of :mod:`repro.core.batch_refine`; no
        pairing, k-way moves in synchronous batches).  See
        ``docs/refinement.md``.
    """
    validate_refiner(refiner)
    require_serial(workers)
    if restarts > 1:
        candidates = [
            design_driven_partition(
                netlist_or_clustering, k, b, seed=seed + i, pairing=pairing,
                initial=initial, max_flatten_steps=max_flatten_steps,
                restarts=1, recorder=recorder, refiner=refiner,
            )
            for i in range(restarts)
        ]
        return min(candidates, key=lambda r: (not r.balanced, r.cut_size))
    if isinstance(netlist_or_clustering, Clustering):
        clustering = netlist_or_clustering
    else:
        clustering = Clustering.top_level(netlist_or_clustering)
    num_gates = clustering.netlist.num_gates
    if k > num_gates:
        raise PartitionError(
            f"cannot make {k} partitions from {num_gates} gates"
        )
    constraint = BalanceConstraint(k, b)
    pairs_fn = pairing_strategy(pairing, recorder=recorder)
    rng = np.random.default_rng(seed)
    history: list[str] = []
    if max_flatten_steps is None:
        max_flatten_steps = sum(
            1 for _ in clustering.netlist.hierarchy.walk()
        ) + len(clustering)
    fm_rounds = 0
    flatten_steps = 0

    # fewer visible nodes than partitions: the grains are too coarse
    # before there is a partition to measure them by, and §3.2's answer
    # is the same — flatten the largest super-gate
    if len(clustering) < k:
        with recorder.phase("partition.flatten"):
            while len(clustering) < k and flatten_steps < max_flatten_steps:
                target = clustering.largest_super_gate()
                if target is None:
                    break  # hierarchy-less clusters: cone_partition reports it
                clustering = clustering.flatten(target)
                flatten_steps += 1
                history.append(
                    f"flatten step {flatten_steps}: vertex {target} -> "
                    f"{len(clustering)} clusters"
                )
        if recorder.enabled:
            recorder.incr("part.flatten.steps", flatten_steps)

    with recorder.phase("partition.initial"):
        if initial == "cone":
            state = cone_partition(clustering, k, seed=seed, recorder=recorder)
        elif initial == "random":
            state = PartitionState(
                clustering.hypergraph(), k,
                random_partition(clustering.hypergraph(), k, seed=seed),
            )
        else:
            raise PartitionError(f"unknown initial partitioner {initial!r}")
    history.append(
        f"{initial} initial: cut={state.cut_size}, loads={state.part_weight.tolist()}"
    )

    # the refine / rebalance / flatten loop of Figure 2
    while True:
        with recorder.phase("partition.refine"):
            rounds = improve_until_stable(
                state, constraint, pairs_fn, rng, MAX_FM_PASSES, MAX_ROUNDS,
                refiner=refiner, recorder=recorder,
            )
        fm_rounds += rounds
        history.append(
            (f"batch refine fixpoint after {rounds} rounds: "
             if refiner == "batch" else f"fm stable after {rounds} rounds: ")
            + f"cut={state.cut_size}, loads={state.part_weight.tolist()}"
        )
        if constraint.satisfied(state.part_weight):
            break
        # first try to repair the load at the current granularity —
        # flattening is only warranted when the existing grains cannot
        # be packed into the admissible band
        with recorder.phase("partition.rebalance"):
            _redistribute(state, constraint, history, recorder)
        if constraint.satisfied(state.part_weight):
            continue  # re-run FM on the repaired partition, then re-check
        # constraint still violated: flatten the largest super-gate
        # inside the most overweight partition (paper §3.2)
        if flatten_steps >= max_flatten_steps:
            history.append("flatten budget exhausted; returning unbalanced")
            break
        with recorder.phase("partition.flatten"):
            target = _flatten_candidate(clustering, state, constraint)
            if target is not None:
                # every piece stays in its super-gate's partition
                clustering = clustering.flatten(target)
                state = PartitionState(
                    clustering.hypergraph(), k, state.part[clustering.parent]
                )
        if target is None:
            # nothing left to flatten: last-resort load repair
            with recorder.phase("partition.rebalance"):
                repair_balance(state, constraint, 4 * k, recorder)
                history.append(
                    f"final rebalance: loads={state.part_weight.tolist()}, "
                    f"cut={state.cut_size}"
                )
            break
        flatten_steps += 1
        if recorder.enabled:
            recorder.incr("part.flatten.steps")
        history.append(
            f"flatten step {flatten_steps}: vertex {target} -> "
            f"{len(clustering)} clusters; cut={state.cut_size}"
        )
        with recorder.phase("partition.rebalance"):
            _redistribute(state, constraint, history, recorder)

    if recorder.enabled:
        recorder.incr("part.rounds", fm_rounds)

    return MultiwayResult(
        clustering=clustering,
        assignment=state.part.copy(),
        k=k,
        b=b,
        cut_size=state.cut_size,
        part_weights=state.part_weight.copy(),
        balanced=constraint.satisfied(state.part_weight),
        flatten_steps=flatten_steps,
        fm_rounds=fm_rounds,
        history=history,
    )


def _flatten_candidate(
    clustering: Clustering,
    state: PartitionState,
    constraint: BalanceConstraint,
) -> int | None:
    """Pick the super-gate to flatten: the largest one inside the most
    overweight partition; falls back to the globally largest one."""
    lo, hi = constraint.bounds(state.hg.total_weight)
    order = np.argsort(-state.part_weight)
    for p in order:
        if state.part_weight[p] <= hi:
            break
        cand = clustering.largest_super_gate(
            among=np.flatnonzero(state.part == p)
        )
        if cand is not None:
            return cand
    # underweight-only violations: flatten the largest super-gate anywhere
    # so finer grains can migrate into the starved partition
    return clustering.largest_super_gate()


def _redistribute(
    state: PartitionState,
    constraint: BalanceConstraint,
    history: list[str],
    recorder: Recorder,
) -> None:
    """Repair over- and under-weight partitions at the current
    granularity, one ``history`` line per step."""
    if recorder.enabled:
        recorder.incr("part.redistribute.calls")
    repair_balance(state, constraint, 2 * state.k, recorder, history)
