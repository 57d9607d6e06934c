"""Circuit workloads: generators, named registry, stimulus streams.

* :func:`viterbi_verilog` / :class:`ViterbiConfig` — the paper's
  workload (synthetic hierarchical Viterbi decoder), with
  :data:`PAPER_CONFIG` matching the RPI netlist's 388-instance shape.
* :mod:`repro.circuits.generators` — adders, multiplier, counter,
  LFSR, pipeline, mesh, random-logic test circuits.
* :func:`load_circuit` — compile a registry entry by name.
* :func:`random_vectors` — the paper's random-vector stimulus with
  clock detection.
"""

from .viterbi import (
    ViterbiConfig,
    viterbi_verilog,
    viterbi_stream,
    PAPER_CONFIG,
    BENCH_CONFIG,
    TEST_CONFIG,
    S10K_CONFIG,
    S100K_CONFIG,
    XL_CONFIG,
)
from .noc import NocConfig, noc_stream, noc_verilog
from .memctrl import MemCtrlConfig, memctrl_stream, memctrl_verilog
from .generators import (
    ripple_adder_verilog,
    multiplier_verilog,
    counter_verilog,
    lfsr_verilog,
    pipeline_verilog,
    mesh_verilog,
    random_logic_verilog,
)
from .cpu import CpuConfig, cpu_verilog, CPU_BENCH_CONFIG, CPU_TEST_CONFIG
from .library import (
    CIRCUITS,
    STREAM_CIRCUITS,
    available_circuits,
    available_stream_circuits,
    circuit_source,
    load_circuit,
    load_stream_circuit,
)
from .vectors import (
    VectorSchedule,
    detect_clocks,
    natural_schedule,
    random_vectors,
    vector_events,
)

__all__ = [
    "ViterbiConfig",
    "viterbi_verilog",
    "viterbi_stream",
    "PAPER_CONFIG",
    "BENCH_CONFIG",
    "TEST_CONFIG",
    "S10K_CONFIG",
    "S100K_CONFIG",
    "XL_CONFIG",
    "NocConfig",
    "noc_verilog",
    "noc_stream",
    "MemCtrlConfig",
    "memctrl_verilog",
    "memctrl_stream",
    "ripple_adder_verilog",
    "multiplier_verilog",
    "counter_verilog",
    "lfsr_verilog",
    "pipeline_verilog",
    "mesh_verilog",
    "random_logic_verilog",
    "CIRCUITS",
    "STREAM_CIRCUITS",
    "available_circuits",
    "available_stream_circuits",
    "circuit_source",
    "load_circuit",
    "load_stream_circuit",
    "VectorSchedule",
    "detect_clocks",
    "natural_schedule",
    "random_vectors",
    "vector_events",
    "CpuConfig",
    "cpu_verilog",
    "CPU_BENCH_CONFIG",
    "CPU_TEST_CONFIG",
]
