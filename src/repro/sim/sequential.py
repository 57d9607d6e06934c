"""Sequential event-driven gate-level simulator.

This is the reference implementation of the paper's simulation model:
**unit gate delay, zero wire delay**, three-valued signals.  It serves
three roles:

1. correctness oracle for the Time Warp kernel (committed results must
   match it exactly);
2. the sequential-time baseline (``T_seq``) against which parallel
   speedups are measured (paper §4.2/§4.3); and
3. the activity profiler whose per-gate event counts ground the cost
   model of the virtual cluster.

Semantics:

* Combinational gates re-evaluate one unit after any input change; a
  scheduled output that equals the net's value at apply time is
  swallowed (inertial glitch suppression at identical values).
* Flip-flops sample their ``d`` (and ``rst``/``en``) pins with the
  values the nets held *just before* the clock edge, which is the
  standard zero-hold-time idealization.  An edge whose before/after
  values involve X produces an X output (conservative unknown edge).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable

import numpy as np

from ..errors import SimulationError
from .compiled import CompiledCircuit
from .events import InputEvent, check_stimulus

__all__ = ["SequentialSimulator", "SeqStats"]


@dataclass
class SeqStats:
    """Counters from a sequential run.

    ``gate_evals`` counts gate evaluations (the unit of computational
    load in the paper's model — "the number of gates ... equally
    active"); ``net_events`` counts committed net value changes;
    ``end_time`` is the virtual time at which activity ceased.
    """

    gate_evals: int = 0
    net_events: int = 0
    end_time: int = 0
    activity: np.ndarray | None = None


class SequentialSimulator:
    """Unit-delay event-driven simulator over a compiled circuit.

    Every timestep is one array round of the shared step kernel
    (:meth:`repro.sim.kernel.GateTable.step_arrays`) over the whole
    circuit; there is no per-gate Python loop.

    Parameters
    ----------
    circuit:
        Output of :func:`repro.sim.compile_circuit`.
    record_activity:
        Keep a per-gate evaluation count (used for pre-simulation load
        profiling and as the partitioners' optional activity weights).
    """

    def __init__(
        self,
        circuit: CompiledCircuit,
        record_activity: bool = False,
        record_changes: bool = False,
    ):
        self.circuit = circuit
        self._table = circuit.table
        self._vbuf = self._table.new_values(circuit.initial_values)
        # scheduled updates by time; run() carries the gate outputs of
        # the step it just executed as one array pair instead
        self._agenda: dict[int, dict[int, int]] = {}
        self._heap: list[int] = []
        #: nets a gate drives (a stimulus on one may collide with an output)
        self._driven = np.zeros(circuit.num_nets, dtype=bool)
        self._driven[circuit.gate_output] = True
        self.now = -1
        self.stats = SeqStats(
            activity=np.zeros(circuit.num_gates, dtype=np.int64)
            if record_activity
            else None
        )
        #: callbacks invoked with the current time after every processed
        #: time step (used by waveform writers and probes)
        self.observers: list = []
        #: optional (time, net, value) history of every committed net
        #: change — the deep oracle the Time Warp tests compare against
        self.record_changes = record_changes
        self.change_log: list[tuple[int, int, int]] = []

    @property
    def values(self) -> np.ndarray:
        """Current value per net (the kernel's value buffer without its
        pad cell; a view, so writes land in the simulator)."""
        return self._vbuf[:-1]

    # -- scheduling --------------------------------------------------------

    def schedule(self, time: int, net: int, value: int) -> None:
        """Schedule net ``net`` to take ``value`` at ``time``; a later
        call for the same ``(time, net)`` replaces the earlier one."""
        check_stimulus(time, net, value, self.circuit.num_nets)
        if time <= self.now:
            raise SimulationError(
                f"cannot schedule at time {time}; current time is {self.now}"
            )
        self._slot(time)[net] = value

    def _slot(self, time: int) -> dict[int, int]:
        slot = self._agenda.get(time)
        if slot is None:
            slot = self._agenda[time] = {}
            heapq.heappush(self._heap, time)
        return slot

    def add_inputs(self, events: Iterable[InputEvent]) -> None:
        """Queue a batch of primary-input stimuli."""
        for ev in events:
            self.schedule(ev.time, ev.net, ev.value)

    # -- execution ---------------------------------------------------------

    def run(self) -> SeqStats:
        """Process events until quiescence.

        Returns the accumulated statistics object (also available as
        ``self.stats``); may be called repeatedly with interleaved
        :meth:`add_inputs`.
        """
        step = self._table.step_arrays
        vbuf = self._vbuf
        stats = self.stats
        heap = self._heap
        pending = None  # gate outputs of step now, due at now + 1
        while pending is not None or heap:
            t = self.now + 1 if pending is not None else heap[0]
            self.now = t
            if heap and heap[0] == t:
                heapq.heappop(heap)
                pending = self._merge(self._agenda.pop(t), pending)
            result = step(vbuf, *pending)
            pending = None
            if result is None:
                continue
            changed, new, affected, out_nets, out_vals, _ = result
            stats.net_events += len(changed)
            stats.gate_evals += len(affected)
            stats.end_time = t
            if stats.activity is not None:
                stats.activity[affected] += 1
            if self.record_changes:
                self.change_log.extend(
                    zip(repeat(t), changed.tolist(), new.tolist())
                )
            if len(out_nets):
                pending = (out_nets, out_vals)
            for observer in self.observers:
                observer(t)
        return stats

    def _merge(self, slot: dict[int, int], pending):
        """The scheduled updates of ``slot`` followed by the gate outputs
        ``pending``, a later write to the same net replacing the earlier
        one in place — as one array pair."""
        if pending is not None:
            nets = np.fromiter(slot, np.int64, len(slot))
            if not self._driven[nets].any():  # no net on both sides
                vals = np.fromiter(slot.values(), np.int8, len(slot))
                return (np.concatenate((nets, pending[0])),
                        np.concatenate((vals, pending[1])))
            slot.update(zip(pending[0].tolist(), pending[1].tolist()))
        return (np.fromiter(slot, np.int64, len(slot)),
                np.fromiter(slot.values(), np.int8, len(slot)))

    # -- convenience ---------------------------------------------------------

    def value_of(self, net: int) -> int:
        """Current value of a net."""
        return int(self.values[net])

    def output_values(self) -> list[int]:
        """Current values of the primary outputs, port order."""
        return [int(self.values[n]) for n in self.circuit.outputs]

