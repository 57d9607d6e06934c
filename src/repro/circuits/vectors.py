"""Input-vector stream generation.

The paper drives its Viterbi circuit with random vectors — one million
for the full run, ten thousand for pre-simulation.  This module turns a
vector count into the timed :class:`~repro.sim.events.InputEvent`
stream both simulators consume, handling the one piece of testbench
realism random bits cannot provide: a usable clock.

Clock inputs are auto-detected (a primary input wired to the ``clk``
pin of any flip-flop) and toggled once per vector period; the data
inputs take fresh random values at the start of each period, giving the
synchronous logic half a period to settle before the sampling edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from ..errors import ConfigError
from ..sim.events import InputEvent
from ..sim.logic import flip_flop_mask
from ..verilog.netlist import Netlist

__all__ = [
    "VectorSchedule",
    "detect_clocks",
    "natural_schedule",
    "random_vectors",
    "vector_events",
]


@dataclass(frozen=True)
class VectorSchedule:
    """Timing of one vector period.

    ``period`` virtual-time units per vector; data changes at offset 0,
    the clock rises at ``rise`` and falls at ``fall`` within the
    period.  Defaults give combinational logic half a period to settle
    before the sampling edge.
    """

    period: int = 16
    rise: int | None = None
    fall: int | None = None

    def resolved(self) -> tuple[int, int, int]:
        if self.period < 4:
            raise ConfigError(f"vector period must be >= 4, got {self.period}")
        rise = self.rise if self.rise is not None else self.period // 2
        fall = self.fall if self.fall is not None else rise + max(1, self.period // 4)
        if not (0 < rise < fall < self.period):
            raise ConfigError(
                f"invalid clock offsets rise={rise}, fall={fall} "
                f"for period {self.period}"
            )
        return self.period, rise, fall


def detect_clocks(netlist: Netlist) -> list[int]:
    """Primary-input nets wired to any flip-flop's clock pin."""
    clocked = flip_flop_mask(netlist) & (np.diff(netlist.pin_ptr) >= 2)
    clk = netlist.pin_net[netlist.pin_ptr[:-1][clocked] + 1]  # pin 1 of (d, clk, ...)
    return np.intersect1d(clk, netlist.inputs).tolist()


def natural_schedule(netlist: Netlist) -> VectorSchedule:
    """A vector schedule whose period exceeds the critical path.

    With the unit-delay model, registered values are only meaningful
    when the clock period exceeds the combinational depth; this derives
    such a period (rise at depth + 4, period twice that), which is
    what a functional testbench should use.  Partitioning/speedup
    studies can use shorter periods — the workload stays deterministic
    either way, the logic just pipelines wavefronts.
    """
    from ..sim.compiled import combinational_depth, compile_circuit

    depth = combinational_depth(compile_circuit(netlist))
    half = depth + 4
    return VectorSchedule(period=2 * half, rise=half, fall=half + max(2, half // 2))


def vector_events(
    data_nets: Sequence[int],
    vectors: np.ndarray,
    clock_nets: Sequence[int] = (),
    schedule: VectorSchedule = VectorSchedule(),
) -> Iterator[InputEvent]:
    """Expand a ``(n_vectors, n_data_nets)`` bit matrix into input events.

    Yields events in nondecreasing time order from time 0: data bits at
    each period start, clock rise and fall at their offsets.
    """
    period, rise, fall = schedule.resolved()
    if vectors.ndim != 2 or vectors.shape[1] != len(data_nets):
        raise ConfigError(
            f"vector matrix shape {vectors.shape} does not match "
            f"{len(data_nets)} data nets"
        )
    for i in range(vectors.shape[0]):
        t0 = i * period
        row = vectors[i]
        for j, net in enumerate(data_nets):
            yield InputEvent(t0, net, int(row[j]))
        for clk in clock_nets:
            yield InputEvent(t0 + rise, clk, 1)
            yield InputEvent(t0 + fall, clk, 0)


def random_vectors(
    netlist: Netlist,
    n_vectors: int,
    seed: int = 0,
    schedule: VectorSchedule = VectorSchedule(),
) -> list[InputEvent]:
    """Random stimulus for a netlist (paper §4: "random vectors").

    Clock inputs are detected and driven with a regular toggle; all
    other primary inputs receive fresh uniform random bits each period.
    Initial values (time 0) also initialize the clock to 0 so the first
    rise is a well-defined edge.
    """
    rng = np.random.default_rng(seed)
    clocks = detect_clocks(netlist)
    data_nets = [n for n in netlist.inputs.tolist() if n not in set(clocks)]
    bits = rng.integers(0, 2, size=(n_vectors, len(data_nets)), dtype=np.int8)
    events = list(
        vector_events(data_nets, bits, clock_nets=clocks, schedule=schedule)
    )
    for clk in clocks:
        events.append(InputEvent(0, clk, 0))
    events.sort(key=lambda e: (e.time, e.net))
    return events
