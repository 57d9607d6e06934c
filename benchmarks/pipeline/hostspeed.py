"""Host-speed calibration: how fast is this machine *right now*?

The hosts this benchmark runs on are shared virtual machines that slow
down by 20-50% for seconds to minutes at a time (CPU time moves with
wall, so it is not waiting: the cores themselves get slower).  A pass
that falls into such a phase reads that much worse, and whole 20 s runs
do: across ten runs the quartile spread of the raw median pass wall was
5-26% of its median in one hour and 12-27% in another, past the largest
bound the driver's contract allows (README.md, "Noise").

So the run times a fixed kernel that belongs to the benchmark and never
changes — a pure-Python dict/list loop plus NumPy sort / gather / scatter
over arrays that do not fit the L2 cache, the two kinds of work the
repository does — before and after every pass, and reports each pass as
if the kernel around it had taken ``REFERENCE_S``.  The unscaled numbers
are kept beside the scaled ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: one kernel sample on the quiet development host (seconds).  It only
#: fixes the unit of the scaled times; comparisons between runs do not
#: depend on it
REFERENCE_S = 0.072

_PY_STEPS = 150_000
#: the array part has to reach past the L2 cache: with 120k elements the
#: kernel tracked the small workloads' slow phases but not ladder_100k's
_NP_SIZE = 400_000
_NP_ROUNDS = 2


def _kernel() -> None:
    table: dict[int, int] = {}
    ring = [0] * 64
    acc = 0
    for i in range(_PY_STEPS):
        key = (i * 7919) & 1023
        table[key] = table.get(key, 0) + i
        ring[i & 63] = acc
        acc = (acc + key) ^ (i >> 3)
    # arrays are rebuilt per sample so the kernel keeps nothing resident
    index = np.arange(_NP_SIZE)
    keys = (index * 7919) % (_NP_SIZE // 2)
    weights = (index * 31) % 100
    for _ in range(_NP_ROUNDS):
        order = np.argsort(keys, kind="stable")
        np.cumsum(weights[order])
        np.bincount(keys, weights=weights, minlength=_NP_SIZE // 2)
        out = np.zeros(_NP_SIZE // 2, dtype=np.int64)
        np.add.at(out, keys[: _NP_SIZE // 4], weights[: _NP_SIZE // 4])


def sample(budget_s: float = 0.0) -> list[float]:
    """Time the kernel once, then again while ``budget_s`` lasts."""
    walls: list[float] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        _kernel()
        walls.append(time.perf_counter() - t0)
        if time.perf_counter() - start >= budget_s:
            return walls


def factor(kernel_walls: list[float]) -> float:
    """What a time measured beside these kernel samples is multiplied by."""
    return REFERENCE_S / statistics.fmean(kernel_walls)
