"""Simulation substrates: sequential oracle + Time Warp virtual cluster.

Layers (mirroring DVS, paper Figure 4):

* :mod:`repro.sim.logic` / :mod:`repro.sim.compiled` — 3-valued gate
  evaluation over an array-compiled circuit.
* :mod:`repro.sim.sequential` — the unit-delay event-driven reference
  simulator (correctness oracle and T_seq baseline).
* :mod:`repro.sim.lp` / :mod:`repro.sim.timewarp` — Clustered Time
  Warp kernel (OOCTW stand-in): optimistic execution, periodic state
  saving, rollback with an unconfirmed-send buffer, anti-messages,
  GVT, fossil collection.
* :mod:`repro.sim.cluster` — the virtual cluster cost model (MPICH +
  gigabit Ethernet stand-in).
* :mod:`repro.sim.engine` — one-call partitioned-run façade returning
  the paper's measurements.
"""

from .logic import V0, V1, VX, GATE_CODES, eval_gate
from .compiled import CompiledCircuit, compile_circuit
from .events import InputEvent, Message
from .sequential import SequentialSimulator, SeqStats, simulate_sequential
from .cluster import ClusterSpec, TimeWarpConfig, RunStats, MachineStats
from .lp import ClusterLP
from .timewarp import TimeWarpEngine
from .engine import SimulationReport, run_partitioned, run_sequential_baseline
from .vcd import VcdWriter
from .testbench import Testbench

__all__ = [
    "V0",
    "V1",
    "VX",
    "GATE_CODES",
    "eval_gate",
    "CompiledCircuit",
    "compile_circuit",
    "InputEvent",
    "Message",
    "SequentialSimulator",
    "SeqStats",
    "simulate_sequential",
    "ClusterSpec",
    "TimeWarpConfig",
    "RunStats",
    "MachineStats",
    "ClusterLP",
    "TimeWarpEngine",
    "SimulationReport",
    "run_partitioned",
    "run_sequential_baseline",
    "VcdWriter",
    "Testbench",
]
