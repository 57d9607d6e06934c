"""Partition-pairing strategies (paper §3.1.1).

The pairwise multiway algorithm repeatedly picks two partitions and
runs FM between them.  The paper lists four selection criteria:

* **random** — simple and efficient, "but the pairing quality is not
  good";
* **exhaustive** — every combination; expensive but "able to climb out
  of local minima";
* **cut-based** — the pair with the maximum mutual cut;
* **gain-based** — the pair with the maximum estimated cut reduction.

A strategy yields an ordered list of pairs for one improvement round;
the drivers keep requesting rounds until no pair produces gain (the
flowchart's "pairing configuration available?" test).  That loop
(:func:`improve_until_stable`, which refines the pairs of a round in
the order proposed) and the heaviest→lightest load repair that follows
it (:func:`repair_balance`) live here, shared by the design-driven and
the multilevel driver.  Refinement is serial and in place;
``docs/parallelism.md`` records why.

``exhaustive`` proposes every C(k, 2) combination, in the order of
:func:`tournament_rounds` — a round-robin tournament, circle method:
every pair exactly once, k-1 (even k) or k (odd k) rounds of disjoint
pairs, one round after the other.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable

import numpy as np

from ..errors import ConfigError
from ..hypergraph.partition_state import PartitionState
from ..obs.recorder import NULL_RECORDER, Recorder
from .balance import BalanceConstraint
from .batch_refine import batch_refine
from .fm import rebalance_pair, refine_pair

__all__ = [
    "pairing_strategy",
    "PAIRING_STRATEGIES",
    "estimate_pair_gain",
    "tournament_rounds",
    "improve_until_stable",
    "repair_balance",
    "require_serial",
]

def _random_pairs(state: PartitionState, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Disjoint random pairs (odd partition sits a round out)."""
    parts = list(range(state.k))
    rng.shuffle(parts)
    return [
        (min(parts[i], parts[i + 1]), max(parts[i], parts[i + 1]))
        for i in range(0, len(parts) - 1, 2)
    ]


def _exhaustive_pairs(state: PartitionState, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Every unordered pair, tournament round by tournament round."""
    return [pair for rnd in tournament_rounds(state.k) for pair in rnd]


def _cut_based_pairs(state: PartitionState, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Disjoint pairs by descending mutual cut weight."""
    matrix = state.pair_cut_matrix()
    pairs = sorted(
        combinations(range(state.k), 2),
        key=lambda ab: (-int(matrix[ab[0], ab[1]]), ab),
    )
    taken: set[int] = set()
    out: list[tuple[int, int]] = []
    for a, b in pairs:
        if a in taken or b in taken:
            continue
        if matrix[a, b] == 0:
            continue  # no shared edge: FM between them cannot gain
        taken.add(a)
        taken.add(b)
        out.append((a, b))
    return out


def estimate_pair_gain(state: PartitionState, a: int, b: int, sample: int = 0) -> int:
    """Cheap optimistic estimate of the cut reduction FM(a, b) can find.

    Sums the positive single-move gains of boundary vertices — an
    upper-bound-flavoured proxy (moves interact), adequate for ranking
    pairs.  ``sample`` > 0 caps the number of boundary vertices
    inspected for very large states.

    Fully vectorized: :meth:`PartitionState.pair_boundary` masks the
    spanning edges through the λ array and gathers their pins in one
    CSR pass (the boundary comes back sorted, so the sample cap is the
    same deterministic ``sorted(...)[:sample]`` prefix as before), and
    one batch :meth:`PartitionState.move_gains` query replaces the
    per-vertex gain loop.
    """
    boundary = state.pair_boundary(a, b)
    if sample and len(boundary) > sample:
        boundary = boundary[:sample]
    if not len(boundary):
        return 0
    targets = np.where(state.part[boundary] == a, b, a)
    gains = state.move_gains(boundary, targets)
    return int(gains[gains > 0].sum())


def _gain_based_pairs(state: PartitionState, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Disjoint pairs by descending estimated FM gain."""
    scored = []
    for a, b in combinations(range(state.k), 2):
        if state.pair_cut(a, b) == 0:
            continue
        scored.append((estimate_pair_gain(state, a, b), a, b))
    scored.sort(key=lambda t: (-t[0], t[1], t[2]))
    taken: set[int] = set()
    out: list[tuple[int, int]] = []
    for gain, a, b in scored:
        if a in taken or b in taken:
            continue
        taken.add(a)
        taken.add(b)
        out.append((a, b))
    return out


PAIRING_STRATEGIES: dict[str, Callable[[PartitionState, np.random.Generator], list[tuple[int, int]]]] = {
    "random": _random_pairs,
    "exhaustive": _exhaustive_pairs,
    "cut": _cut_based_pairs,
    "gain": _gain_based_pairs,
}


def pairing_strategy(
    name: str,
    recorder: Recorder = NULL_RECORDER,
) -> Callable[[PartitionState, np.random.Generator], list[tuple[int, int]]]:
    """Look up a pairing strategy by name (see :data:`PAIRING_STRATEGIES`).

    When an enabled ``recorder`` (:mod:`repro.obs`) is supplied the
    returned callable also counts ``part.pairing.rounds`` (one per
    invocation) and ``part.pairing.pairs`` (pairs proposed); the
    default no-op recorder returns the raw strategy unchanged.
    """
    try:
        strategy = PAIRING_STRATEGIES[name]
    except KeyError:
        raise ConfigError(
            f"unknown pairing strategy {name!r}; choose from "
            f"{sorted(PAIRING_STRATEGIES)}"
        )
    if not recorder.enabled:
        return strategy

    def counted(
        state: PartitionState, rng: np.random.Generator
    ) -> list[tuple[int, int]]:
        pairs = strategy(state, rng)
        recorder.incr("part.pairing.rounds")
        recorder.incr("part.pairing.pairs", len(pairs))
        return pairs

    return counted


def tournament_rounds(k: int) -> list[list[tuple[int, int]]]:
    """Round-robin tournament schedule over partitions ``0..k-1``.

    Circle method: every unordered pair appears in exactly one round,
    pairs within a round are disjoint.  Even k gives k-1 rounds of
    k/2 pairs; odd k gives k rounds of (k-1)/2 pairs with one
    partition taking a bye each round (the same "odd partition sits a
    round out" semantics as the random pairing strategy).
    """
    if k < 2:
        return []
    players = list(range(k))
    if k % 2:
        players.append(-1)  # bye marker
    n = len(players)
    rounds: list[list[tuple[int, int]]] = []
    for _ in range(n - 1):
        rnd = []
        for i in range(n // 2):
            a, b = players[i], players[n - 1 - i]
            if a != -1 and b != -1:
                rnd.append((min(a, b), max(a, b)))
        rounds.append(sorted(rnd))
        # rotate everyone but the first player
        players = [players[0], players[-1]] + players[1:-1]
    return rounds


def improve_until_stable(
    state: PartitionState,
    constraint: BalanceConstraint,
    pairs_fn: Callable[[PartitionState, np.random.Generator], list[tuple[int, int]]],
    rng: np.random.Generator,
    max_fm_passes: int,
    max_rounds: int,
    refiner: str = "fm",
    recorder: Recorder = NULL_RECORDER,
) -> int:
    """Refine ``state`` until no move yields gain (the Figure 2 loop);
    returns the number of rounds run.

    ``refiner="fm"``: ``pairs_fn`` (:func:`pairing_strategy`) proposes
    an ordered pair list per round and each pair is refined in place
    (:func:`repro.core.fm.refine_pair`, one ``refine.pair`` phase), in
    that order, until a round realizes no gain or ``max_rounds`` is
    reached.  ``refiner="batch"``: the whole-boundary refiner of
    :mod:`repro.core.batch_refine` runs to its fixpoint under its
    default kick budget.  A batch round is one synchronous
    gather/select/apply step — far finer-grained than a pairing round —
    so ``max_rounds`` does not apply; the refiner's own default cap
    backstops the natural fixpoint exit.
    """
    if refiner == "batch":
        return batch_refine(state, constraint, recorder=recorder).rounds
    rounds = 0
    for _ in range(max_rounds):
        gain = 0
        for a, b in pairs_fn(state, rng):
            with recorder.phase("refine.pair"):
                gain += refine_pair(state, a, b, constraint,
                                    max_passes=max_fm_passes,
                                    recorder=recorder).gain
        rounds += 1
        if gain <= 0:
            break
    return rounds


def repair_balance(
    state: PartitionState,
    constraint: BalanceConstraint,
    max_steps: int,
    recorder: Recorder = NULL_RECORDER,
    history: list[str] | None = None,
) -> None:
    """Move grains from the heaviest toward the lightest partition
    (:func:`repro.core.fm.rebalance_pair`) until both are inside the
    Formula-1 band, a step moves nothing, or ``max_steps`` is reached.
    ``history`` receives one line per step that moved something."""
    lo, hi = constraint.bounds(state.hg.total_weight)
    for _ in range(max_steps):
        heavy = int(np.argmax(state.part_weight))
        light = int(np.argmin(state.part_weight))
        if heavy == light:
            break
        if state.part_weight[heavy] <= hi and state.part_weight[light] >= lo:
            break
        moved = rebalance_pair(state, heavy, light, constraint,
                               recorder=recorder)
        if moved == 0:
            break
        if history is not None:
            history.append(
                f"redistributed {moved} vertices {heavy}->{light}: "
                f"loads={state.part_weight.tolist()}"
            )


def require_serial(workers: int | None, name: str = "workers") -> None:
    """Check a retained refinement worker-count keyword (``None`` or 1).

    Three entry points keep such a keyword for the pipeline benchmark's
    call sites (``docs/parallelism.md`` lists them); delete them and
    this check with the next ``benchmark`` PR.
    """
    if workers not in (None, 1):
        raise ConfigError(
            f"{name}={workers!r}: pairwise refinement is serial "
            "(see docs/parallelism.md); pass 1 or omit it"
        )
