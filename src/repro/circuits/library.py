"""Named circuit registries (text-compiled and array-streamed).

Benchmarks, examples and tests refer to circuits by name; the registry
maps names to generator thunks so a workload is one string in an
experiment config.  Every :data:`CIRCUITS` entry compiles through the
full Verilog front end (no precompiled netlists), keeping the paper's
vvp-like input path exercised everywhere.

:data:`STREAM_CIRCUITS` is the parallel registry for the array-native
construction path (:mod:`repro.circuits.stream`): entries build the
same :class:`~repro.verilog.netlist.Netlist` directly, hierarchy and
names included, with no Verilog text or per-gate objects — the quick
route to the scale-ladder rungs (``viterbi-xl`` is ~1.2 M gates).
Families present in both registries under the same name are the same
circuit: ``noc-*`` and ``memctrl-*`` in every column, hierarchy node
and name; ``viterbi-test`` / ``-bench`` gate for gate, with nets
numbered differently (``tests/test_stream_circuits.py``).
"""

from __future__ import annotations

from typing import Callable

from ..errors import ConfigError
from ..obs.recorder import NULL_RECORDER, Recorder
from ..verilog import Netlist, compile_verilog
from .generators import (
    counter_verilog,
    lfsr_verilog,
    mesh_verilog,
    multiplier_verilog,
    pipeline_verilog,
    random_logic_verilog,
    ripple_adder_verilog,
)
from .cpu import CPU_BENCH_CONFIG, CPU_TEST_CONFIG, cpu_verilog
from .memctrl import memctrl_stream, memctrl_verilog
from .noc import noc_stream, noc_verilog
from .viterbi import (
    BENCH_CONFIG,
    PAPER_CONFIG,
    S10K_CONFIG,
    S100K_CONFIG,
    TEST_CONFIG,
    XL_CONFIG,
    ViterbiConfig,
    viterbi_stream,
    viterbi_verilog,
)
from . import memctrl as _memctrl
from . import noc as _noc

__all__ = [
    "CIRCUITS",
    "STREAM_CIRCUITS",
    "circuit_source",
    "load_circuit",
    "load_stream_circuit",
    "available_circuits",
    "available_stream_circuits",
]

CIRCUITS: dict[str, Callable[[], str]] = {
    "adder8": lambda: ripple_adder_verilog(8),
    "adder16": lambda: ripple_adder_verilog(16),
    "mul4": lambda: multiplier_verilog(4),
    "mul6": lambda: multiplier_verilog(6),
    "counter8": lambda: counter_verilog(8),
    "lfsr16": lambda: lfsr_verilog(16),
    "pipeline4": lambda: pipeline_verilog(4, 8),
    "pipeline8": lambda: pipeline_verilog(8, 8),
    "mesh3x3": lambda: mesh_verilog(3, 3, 4),
    "mesh4x4": lambda: mesh_verilog(4, 4, 4),
    "randlogic": lambda: random_logic_verilog(300, 8, seed=1),
    "viterbi-test": lambda: viterbi_verilog(TEST_CONFIG),
    "viterbi-bench": lambda: viterbi_verilog(BENCH_CONFIG),
    # the paper-shape workload: a single decoder, no trivially
    # independent halves, balance pressure at tight b
    "viterbi-single": lambda: viterbi_verilog(
        ViterbiConfig(channels=1, states=16, traceback=32, width=6)
    ),
    "viterbi-paper": lambda: viterbi_verilog(PAPER_CONFIG),
    # the paper's module count as one decoder (388 instances, ~91k
    # gates): no independent channels, so every k tests the algorithm
    "viterbi-paper-single": lambda: viterbi_verilog(
        ViterbiConfig(channels=1, states=64, traceback=256, width=8,
                      smu_cols=1)
    ),
    # the paper's planned second workload: a CPU-shaped design
    "cpu-test": lambda: cpu_verilog(CPU_TEST_CONFIG),
    "cpu8": lambda: cpu_verilog(CPU_BENCH_CONFIG),
    # locality-contrast families (streamed twins in STREAM_CIRCUITS)
    "noc-test": lambda: noc_verilog(_noc.TEST_CONFIG),
    "noc-bench": lambda: noc_verilog(_noc.BENCH_CONFIG),
    "memctrl-test": lambda: memctrl_verilog(_memctrl.TEST_CONFIG),
    "memctrl-bench": lambda: memctrl_verilog(_memctrl.BENCH_CONFIG),
}

#: array-native emitters; large entries are stream-only by design —
#: the text path would round-trip megabytes of Verilog for nothing
STREAM_CIRCUITS: dict[str, Callable[..., Netlist]] = {
    "viterbi-test": lambda **kw: viterbi_stream(TEST_CONFIG, **kw),
    "viterbi-bench": lambda **kw: viterbi_stream(BENCH_CONFIG, **kw),
    # the scale-ladder rungs (benchmarks/bench_scale_ladder.py)
    "viterbi-s10k": lambda **kw: viterbi_stream(S10K_CONFIG, **kw),
    "viterbi-s100k": lambda **kw: viterbi_stream(S100K_CONFIG, **kw),
    "viterbi-xl": lambda **kw: viterbi_stream(XL_CONFIG, **kw),
    "noc-test": lambda **kw: noc_stream(_noc.TEST_CONFIG, **kw),
    "noc-bench": lambda **kw: noc_stream(_noc.BENCH_CONFIG, **kw),
    "noc-scale": lambda **kw: noc_stream(_noc.SCALE_CONFIG, **kw),
    "memctrl-test": lambda **kw: memctrl_stream(_memctrl.TEST_CONFIG, **kw),
    "memctrl-bench": lambda **kw: memctrl_stream(_memctrl.BENCH_CONFIG, **kw),
    "memctrl-scale": lambda **kw: memctrl_stream(_memctrl.SCALE_CONFIG, **kw),
}


def available_circuits() -> list[str]:
    """Registered circuit names."""
    return sorted(CIRCUITS)


def available_stream_circuits() -> list[str]:
    """Registered array-native circuit names."""
    return sorted(STREAM_CIRCUITS)


def circuit_source(name: str) -> str:
    """Verilog source for a registered circuit."""
    try:
        gen = CIRCUITS[name]
    except KeyError:
        raise ConfigError(
            f"unknown circuit {name!r}; available: {', '.join(available_circuits())}"
        )
    return gen()


def load_circuit(name: str) -> Netlist:
    """Compile a registered circuit to an elaborated netlist."""
    return compile_verilog(circuit_source(name))


def load_stream_circuit(name: str,
                        recorder: Recorder = NULL_RECORDER) -> Netlist:
    """Emit a registered circuit through the array-native path.

    ``recorder`` receives the builder's ``circ.*`` counters.
    """
    try:
        gen = STREAM_CIRCUITS[name]
    except KeyError:
        raise ConfigError(
            f"unknown stream circuit {name!r}; available: "
            f"{', '.join(available_stream_circuits())}"
        )
    return gen(recorder=recorder)
