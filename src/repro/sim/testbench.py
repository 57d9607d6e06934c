"""Testbench builder: declarative clock/reset/data stimulus.

Synchronous designs need the same ceremony every time — hold reset
through one clock edge, release it, then toggle the clock for N cycles
while driving data — and hand-writing the event list is error-prone
(the reset must change away from edges, the period must exceed the
logic depth, …).  :class:`Testbench` builds the event stream once,
correctly:

    tb = (Testbench(netlist)
          .clock("clk")                  # period from the critical path
          .reset("rst", cycles=1)
          .drive("din", 5)               # constant bus value
          .randomize(seed=7))            # remaining inputs random per cycle
    events = tb.events(cycles=20)

The result is a plain :class:`InputEvent` list for either simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..verilog.netlist import Netlist
from .events import InputEvent

__all__ = ["Testbench"]


@dataclass
class _Drive:
    nets: list[int]  # LSB first
    value: int | None  # None = randomize


class Testbench:
    """Fluent stimulus builder for a synchronous netlist."""

    __test__ = False  # not a pytest collection target

    def __init__(self, netlist: Netlist) -> None:
        self.netlist = netlist
        self._by_name = self._group_inputs(netlist)
        self._clock: list[int] | None = None
        self._reset: list[int] | None = None
        self._reset_cycles = 0
        self._period: int | None = None
        self._drives: list[_Drive] = []
        self._random_seed: int | None = None

    @staticmethod
    def _group_inputs(netlist: Netlist) -> dict[str, list[int]]:
        """Group bit-level primary inputs back into named buses."""
        groups: dict[str, list[tuple[int, int]]] = {}
        for nid in netlist.inputs.tolist():
            name = netlist.net_name(nid)
            if "[" in name and name.endswith("]"):
                base, _, idx = name.rpartition("[")
                groups.setdefault(base, []).append((int(idx[:-1]), nid))
            else:
                groups.setdefault(name, []).append((0, nid))
        return {
            base: [nid for _, nid in sorted(bits)]
            for base, bits in groups.items()
        }

    def _lookup(self, name: str) -> list[int]:
        bits = self._by_name.get(name)
        if bits is None:
            raise ConfigError(
                f"no primary input named {name!r}; available: "
                f"{', '.join(sorted(self._by_name))}"
            )
        return bits

    # -- configuration ----------------------------------------------------

    def clock(self, name: str, period: int | None = None) -> "Testbench":
        """Declare the clock input; period defaults to twice the
        critical path plus margin (registered values settle)."""
        self._clock = self._lookup(name)
        if len(self._clock) != 1:
            raise ConfigError(f"clock {name!r} must be a scalar input")
        if period is not None:
            if period < 4:
                raise ConfigError("clock period must be >= 4")
            self._period = period
        return self

    def reset(self, name: str, cycles: int = 1) -> "Testbench":
        """Declare an active-high synchronous reset held for ``cycles``
        clock edges before data cycles begin."""
        self._reset = self._lookup(name)
        if len(self._reset) != 1:
            raise ConfigError(f"reset {name!r} must be a scalar input")
        if cycles < 1:
            raise ConfigError("reset cycles must be >= 1")
        self._reset_cycles = cycles
        return self

    def drive(self, name: str, value: int) -> "Testbench":
        """Hold a named input bus at a constant value."""
        bits = self._lookup(name)
        if value < 0 or value >= (1 << len(bits)):
            raise ConfigError(
                f"value {value} does not fit the {len(bits)}-bit input {name!r}"
            )
        self._drives.append(_Drive(bits, value))
        return self

    def randomize(self, seed: int = 0) -> "Testbench":
        """Give every otherwise-undriven data input a fresh random value
        each cycle."""
        self._random_seed = seed
        return self

    # -- generation ----------------------------------------------------------

    def events(self, cycles: int) -> list[InputEvent]:
        """Build the stimulus for ``cycles`` post-reset clock cycles."""
        if cycles < 1:
            raise ConfigError("cycles must be >= 1")
        period = self._period
        if period is None:
            from ..circuits.vectors import natural_schedule

            period = natural_schedule(self.netlist).period
        half = period // 2

        claimed: set[int] = set()
        if self._clock:
            claimed.update(self._clock)
        if self._reset:
            claimed.update(self._reset)
        for d in self._drives:
            claimed.update(d.nets)
        unclaimed = [n for n in self.netlist.inputs.tolist() if n not in claimed]
        rng = np.random.default_rng(self._random_seed or 0)

        events: list[InputEvent] = []

        def drive_all(t: int, randomize: bool) -> None:
            for d in self._drives:
                for i, net in enumerate(d.nets):
                    events.append(InputEvent(t, net, (d.value >> i) & 1))
            if randomize and self._random_seed is not None:
                for net in unclaimed:
                    events.append(InputEvent(t, net, int(rng.integers(2))))
            elif t == 0:
                # undriven inputs default low so nothing simulates as X
                for net in unclaimed:
                    events.append(InputEvent(0, net, 0))

        t = 0
        if self._clock:
            events.append(InputEvent(0, self._clock[0], 0))
        if self._reset:
            events.append(InputEvent(0, self._reset[0], 1))
        drive_all(0, randomize=False)

        if self._clock is None:
            if self._reset is not None:
                raise ConfigError("reset needs a clock to be released against")
            # pure combinational: one random vector per "cycle"
            for c in range(cycles):
                drive_all(c * period, randomize=True)
            return sorted(events, key=lambda e: (e.time, e.net))

        clk = self._clock[0]
        # reset cycles
        for _ in range(self._reset_cycles if self._reset else 0):
            events.append(InputEvent(t + half, clk, 1))
            events.append(InputEvent(t + period - 2, clk, 0))
            t += period
        if self._reset:
            events.append(InputEvent(t + 2, self._reset[0], 0))
        # data cycles
        for _ in range(cycles):
            drive_all(t + 4, randomize=True)
            events.append(InputEvent(t + half, clk, 1))
            events.append(InputEvent(t + period - 2, clk, 0))
            t += period
        return sorted(events, key=lambda e: (e.time, e.net))
