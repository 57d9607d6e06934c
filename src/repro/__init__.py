"""repro — design-driven multiway partitioning for parallel gate-level
Verilog simulation.

A full reproduction of *"A Multiway Partitioning Algorithm for Parallel
Gate Level Verilog Simulation"* (Lijun Li and Carl Tropper, ICPP 2008),
including every substrate the paper depends on:

* :mod:`repro.verilog` — a structural gate-level Verilog front end
  (lexer, parser, elaborator, writers).
* :mod:`repro.hypergraph` — the circuit-as-hypergraph model with
  incremental partition state and hMetis file interchange.
* :mod:`repro.core` — the paper's contribution: cone-seeded, pairwise
  FM-refined, hierarchy-aware (super-gate) multiway partitioning with
  load-balance flattening and pre-simulation-driven (k, b) selection,
  plus the flat multilevel k-way engine it is compared against.
* :mod:`repro.sim` — sequential reference simulator and a Clustered
  Time Warp kernel on a deterministic virtual cluster (the DVS/OOCTW
  substitute).
* :mod:`repro.circuits` — workload generators, including the synthetic
  hierarchical Viterbi decoder standing in for the paper's RPI netlist.
* :mod:`repro.obs` — the observability layer: phase-timed metric
  recorders, a bounded event-trace buffer, and schema-versioned
  metrics JSON shared by the CLI and the benchmark harness.
* :mod:`repro.bench` — experiment harness regenerating every table and
  figure in the paper's evaluation section.

Quickstart::

    from repro import compile_verilog, design_driven_partition
    from repro.circuits import viterbi_verilog

    netlist = compile_verilog(viterbi_verilog())
    result = design_driven_partition(netlist, k=4, b=7.5, seed=0)
    print(result.cut_size, result.part_weights.tolist(), result.balanced)
"""

from .errors import (
    ReproError,
    VerilogError,
    LexError,
    ParseError,
    ElaborationError,
    NetlistError,
    HypergraphError,
    PartitionError,
    SimulationError,
    ConfigError,
)
from .verilog import compile_verilog, parse_source, elaborate, Netlist

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "VerilogError",
    "LexError",
    "ParseError",
    "ElaborationError",
    "NetlistError",
    "HypergraphError",
    "PartitionError",
    "SimulationError",
    "ConfigError",
    "compile_verilog",
    "parse_source",
    "elaborate",
    "Netlist",
    "__version__",
]


def __getattr__(name: str):
    # Lazy exports that would otherwise create import cycles or slow
    # down `import repro` for users who only need the front end.
    if name == "design_driven_partition":
        from .core import design_driven_partition

        return design_driven_partition
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
