"""From-scratch move-gain oracle for the batch refiner's scoring kernel.

:func:`exact_move_gains` knows nothing of λ classes, single-pin blocks
or segment sums: it moves one vertex, re-derives cut and connectivity
with :meth:`~repro.hypergraph.PartitionState.recompute`, and moves it
back.  O(V·T·(pins + edges·k)) — small instances only.
"""

from __future__ import annotations

import numpy as np

from repro.hypergraph import PartitionState


def exact_move_gains(
    state: PartitionState, vertices: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(T, V)`` decreases of the weighted cut and of the connectivity
    Σ w·(λ − 1) if ``vertices[i]`` alone moved to ``targets[t]`` (0 for
    its own block), each by trial move plus a full recompute on a copy
    of ``state``."""
    trial = PartitionState(state.hg, state.k, state.part)
    cut, soed = trial.cut_size, trial.connectivity
    gains = np.zeros((len(targets), len(vertices)), dtype=np.int64)
    soeds = np.zeros((len(targets), len(vertices)), dtype=np.int64)
    for i, v in enumerate(vertices):
        home = trial.part[v]
        for j, t in enumerate(targets):
            trial.part[v] = t
            trial.recompute()
            gains[j, i] = cut - trial.cut_size
            soeds[j, i] = soed - trial.connectivity
        trial.part[v] = home
    return gains, soeds
