"""VCD (Value Change Dump) waveform writer.

A standard-format trace of selected nets from a sequential simulation,
viewable in GTKWave & friends — the substrate feature every gate-level
simulator ships.  The writer observes a :class:`SequentialSimulator`
through a small probe wrapper: call :meth:`VcdWriter.attach` before
running, then :meth:`VcdWriter.finish` to flush.

Scalar nets only (the elaborated netlist is bit-level; vectored
signals appear as their individual bits, named ``bus[idx]`` as in the
netlist).
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Sequence

from ..errors import SimulationError
from ..verilog.netlist import Netlist
from .logic import VX
from .sequential import SequentialSimulator

__all__ = ["VcdWriter"]

_VCD_VALUE = {0: "0", 1: "1", VX: "x"}


def _id_code(index: int) -> str:
    """Compact printable VCD identifier (base-94, '!' .. '~')."""
    chars = []
    index += 1
    while index:
        index, rem = divmod(index - 1, 94)
        chars.append(chr(33 + rem))
    return "".join(chars)


class VcdWriter:
    """Streams net value changes from a sequential run into VCD text.

    Parameters
    ----------
    netlist:
        The elaborated design (for net names and module scoping).
    nets:
        Net ids to trace; defaults to primary inputs + outputs.

    One virtual-time unit is written as ``1ns``.
    """

    def __init__(
        self,
        netlist: Netlist,
        nets: Sequence[int] | None = None,
    ) -> None:
        self.netlist = netlist
        if nets is None:
            nets = list(dict.fromkeys(
                netlist.inputs.tolist() + netlist.outputs.tolist()))
        self.nets = list(nets)
        for nid in self.nets:
            if not (0 <= nid < netlist.num_nets):
                raise SimulationError(f"cannot trace unknown net id {nid}")
        self._codes = {nid: _id_code(i) for i, nid in enumerate(self.nets)}
        self._buf = io.StringIO()
        self._buf.write("$date generated by repro $end\n")
        self._buf.write("$timescale 1ns $end\n")
        self._buf.write(f"$scope module {netlist.top} $end\n")
        for nid in self.nets:
            name = _vcd_name(netlist.net_name(nid))
            self._buf.write(
                f"$var wire 1 {self._codes[nid]} {name} $end\n"
            )
        self._buf.write("$upscope $end\n$enddefinitions $end\n")
        self._sim: SequentialSimulator | None = None
        self._last: dict[int, int] = {}
        self._time_written = -1
        self._finished = False

    # -- wiring ------------------------------------------------------------

    def attach(self, sim: SequentialSimulator) -> None:
        """Register as an observer on a simulator (before it runs)."""
        if sim.now >= 0:
            raise SimulationError("attach the VCD writer before running")
        self._sim = sim
        sim.observers.append(self._sample)
        # dump initial values at time 0
        self._buf.write("$dumpvars\n")
        for nid in self.nets:
            value = int(sim.values[nid])
            self._last[nid] = value
            self._buf.write(f"{_VCD_VALUE[value]}{self._codes[nid]}\n")
        self._buf.write("$end\n")
        self._time_written = 0

    def _sample(self, now: int) -> None:
        sim = self._sim
        assert sim is not None
        changes = []
        for nid in self.nets:
            value = int(sim.values[nid])
            if value != self._last[nid]:
                self._last[nid] = value
                changes.append(f"{_VCD_VALUE[value]}{self._codes[nid]}")
        if changes:
            if now != self._time_written:
                self._buf.write(f"#{now}\n")
                self._time_written = now
            self._buf.write("\n".join(changes) + "\n")

    # -- output -----------------------------------------------------------------

    def finish(self) -> str:
        """Return the complete VCD text (idempotent)."""
        if not self._finished:
            if self._sim is not None and self._sim.now > self._time_written:
                self._buf.write(f"#{self._sim.now}\n")
            self._finished = True
        return self._buf.getvalue()

    def write(self, path: str | Path) -> None:
        """Write the VCD file."""
        Path(path).write_text(self.finish())


def _vcd_name(name: str) -> str:
    """VCD identifiers cannot contain whitespace; map brackets/dots."""
    return name.replace(" ", "_")
