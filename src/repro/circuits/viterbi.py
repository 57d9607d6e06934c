"""Synthetic hierarchical Viterbi decoder (the paper's workload).

The paper's evaluation circuit is a synthesized Viterbi-decoder netlist
from RPI with 388 modules and ~1.2 M gates, which is not publicly
archived.  This generator reproduces the *structural properties* the
design-driven partitioner depends on — that is all the algorithm ever
sees:

* many medium-sized module instances visible at the top level
  (branch-metric units, add-compare-select butterflies, path-metric
  registers, register-exchange survivor columns);
* bus-structured inter-module nets (path metrics, decisions) against
  much denser intra-module gate connectivity (adders, comparators);
* a synchronous datapath: unit-delay combinational cones between
  flip-flop stages, driven by a clock and random symbol inputs.

The decoder is functionally meaningful gate logic (real adders,
comparators, muxes in the standard ACS butterfly topology with
register-exchange survivor memory), not filler.  The default
configuration mirrors the paper's 388 top-level instances; the gate
count scales with ``states``/``traceback``/``width``/``channels``, and
the scaled-down presets keep the reproduction laptop-sized (the paper's
absolute 1.2 M gates would only stretch wall-clock, not change which
partitioner wins).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError
from ..obs.recorder import NULL_RECORDER, Recorder
from ._vlog import ModuleWriter
from .stream import lower_module

__all__ = [
    "ViterbiConfig", "viterbi_verilog", "viterbi_stream",
    "PAPER_CONFIG", "BENCH_CONFIG", "TEST_CONFIG",
    "S10K_CONFIG", "S100K_CONFIG", "XL_CONFIG",
]


@dataclass(frozen=True)
class ViterbiConfig:
    """Generator parameters.

    Attributes
    ----------
    channels:
        Independent decoder channels (the RPI design packed several).
    states:
        Trellis states per channel (power of two, >= 4).
    traceback:
        Register-exchange survivor depth (total columns).
    width:
        Path/branch-metric datapath width in bits.
    smu_cols:
        Survivor columns grouped into one SMU block instance.  The
        survivor memory dominates the gate count, so SMU blocks are the
        design's *large* super-gates — tight balance factors force the
        partitioner to flatten them into their column instances, which
        is exactly the size-skew tension the paper's Table 1 exhibits.
    """

    channels: int = 2
    states: int = 8
    traceback: int = 16
    width: int = 6
    smu_cols: int = 8

    def __post_init__(self) -> None:
        if self.channels < 1:
            raise ConfigError("channels must be >= 1")
        if self.states < 4 or self.states & (self.states - 1):
            raise ConfigError("states must be a power of two >= 4")
        if self.traceback < 2:
            raise ConfigError("traceback must be >= 2")
        if self.width < 3:
            raise ConfigError("width must be >= 3")
        if self.smu_cols < 1:
            raise ConfigError("smu_cols must be >= 1")

    @property
    def smu_blocks(self) -> int:
        """SMU block instances per channel (last one may be short)."""
        return -(-self.traceback // self.smu_cols)

    @property
    def instances(self) -> int:
        """Top-level module instances the partitioner will see."""
        return self.channels * (4 + 2 * self.states + self.smu_blocks)


#: 388 top-level instances, matching the paper's circuit shape
PAPER_CONFIG = ViterbiConfig(
    channels=4, states=32, traceback=116, width=8, smu_cols=4
)
#: benchmark default: a single decoder (no trivially independent
#: halves), big SMU super-gates, table sweeps in minutes
BENCH_CONFIG = ViterbiConfig(
    channels=1, states=16, traceback=32, width=6, smu_cols=8
)
#: unit-test scale
TEST_CONFIG = ViterbiConfig(channels=1, states=4, traceback=4, width=4, smu_cols=2)

#: scale-ladder rungs (streamed construction; gate counts ~10k / ~100k)
S10K_CONFIG = ViterbiConfig(
    channels=1, states=8, traceback=228, width=6, smu_cols=4
)
S100K_CONFIG = ViterbiConfig(
    channels=2, states=16, traceback=603, width=6, smu_cols=8
)
#: the paper's true scale: ~1.2 M gates (streamed construction only —
#: round-tripping this through Verilog text is exactly what the
#: streamed path exists to avoid)
XL_CONFIG = ViterbiConfig(
    channels=4, states=64, traceback=912, width=8, smu_cols=8
)


def _bmu_module(cfg: ViterbiConfig) -> str:
    """Branch-metric unit: Hamming distance between the received symbol
    pair and an expected pair, zero-extended to the metric width."""
    m = ModuleWriter("vit_bmu")
    rx0 = m.input("rx0")[0]
    rx1 = m.input("rx1")[0]
    e0 = m.input("e0")[0]
    e1 = m.input("e1")[0]
    bm = m.output("bm", cfg.width)
    d0 = m.wire("d0")[0]
    d1 = m.wire("d1")[0]
    m.gate("xor", d0, rx0, e0)
    m.gate("xor", d1, rx1, e1)
    m.gate("xor", bm[0], d0, d1)
    m.gate("and", bm[1], d0, d1)
    for i in range(2, cfg.width):
        m.gate("buf", bm[i], "1'b0")
    return m.emit()


def _acs_module(cfg: ViterbiConfig) -> str:
    """Add-compare-select: pm_out = min(pm_a + bm_a, pm_b + bm_b),
    decision = 1 when the b-path wins."""
    m = ModuleWriter("vit_acs")
    pm_a = m.input("pm_a", cfg.width)
    pm_b = m.input("pm_b", cfg.width)
    bm_a = m.input("bm_a", cfg.width)
    bm_b = m.input("bm_b", cfg.width)
    pm_o = m.output("pm_o", cfg.width)
    dec = m.output("dec")[0]
    sum_a = m.wire("sum_a", cfg.width)
    sum_b = m.wire("sum_b", cfg.width)
    m.ripple_add(pm_a, bm_a, sum_a)
    m.ripple_add(pm_b, bm_b, sum_b)
    m.less_than(sum_b, sum_a, dec)  # dec=1: b strictly smaller
    m.mux2(dec, sum_a, sum_b, pm_o)
    return m.emit()


def _pmreg_module(cfg: ViterbiConfig) -> str:
    """Path-metric register: one resettable flip-flop per metric bit."""
    m = ModuleWriter("vit_pmreg")
    d = m.input("d", cfg.width)
    clk = m.input("clk")[0]
    rst = m.input("rst")[0]
    q = m.output("q", cfg.width)
    for i in range(cfg.width):
        m.dffr(q[i], d[i], clk, rst)
    return m.emit()


def _recol_module(cfg: ViterbiConfig) -> str:
    """Register-exchange survivor column: per state, select the
    predecessor survivor bit by this state's decision, then register."""
    m = ModuleWriter("vit_recol")
    prev = m.input("prev", cfg.states)
    dec = m.input("dec", cfg.states)
    clk = m.input("clk")[0]
    rst = m.input("rst")[0]
    col = m.output("col", cfg.states)
    S = cfg.states
    for s in range(S):
        p0 = (2 * s) % S
        p1 = (2 * s + 1) % S
        sel = m.wire(f"sel_{s}")[0]
        m.mux2(dec[s], [prev[p0]], [prev[p1]], [sel])
        m.dffr(col[s], sel, clk, rst)
    return m.emit()


def _smu_module(cfg: ViterbiConfig, cols: int, name: str) -> str:
    """Survivor-memory block: ``cols`` chained register-exchange
    columns.  These blocks are the design's heavyweight super-gates;
    flattening one exposes its column instances (two-level hierarchy,
    exercising the paper's §3.2 flattening path)."""
    m = ModuleWriter(name)
    prev = m.input("prev", cfg.states)
    dec = m.input("dec", cfg.states)
    clk = m.input("clk")[0]
    rst = m.input("rst")[0]
    out = m.output("out", cfg.states)
    src = "prev"
    for j in range(cols):
        if j < cols - 1:
            m.wire(f"c{j}", cfg.states)
            dst = f"c{j}"
        else:
            dst = "out"
        m.instance(
            "vit_recol",
            f"col{j}",
            {"prev": src, "dec": "dec", "clk": clk, "rst": rst, "col": dst},
        )
        src = dst
    return m.emit()


def _top_module(cfg: ViterbiConfig) -> ModuleWriter:
    m = ModuleWriter("viterbi_top")
    clk = m.input("clk")[0]
    rst = m.input("rst")[0]
    W = cfg.width
    S = cfg.states
    out_bits: list[str] = []
    for c in range(cfg.channels):
        rx0 = m.input(f"ch{c}_rx0")[0]
        rx1 = m.input(f"ch{c}_rx1")[0]
        # branch metrics for the four expected symbols
        bms: list[list[str]] = []
        for sym in range(4):
            bm = m.wire(f"ch{c}_bm{sym}", W)
            m.instance(
                "vit_bmu",
                f"ch{c}_bmu{sym}",
                {
                    "rx0": rx0,
                    "rx1": rx1,
                    "e0": f"1'b{sym & 1}",
                    "e1": f"1'b{(sym >> 1) & 1}",
                    "bm": f"ch{c}_bm{sym}",
                },
            )
            bms.append(bm)
        # trellis: per-state ACS fed by two predecessor path metrics
        pm_q = [m.wire(f"ch{c}_pm{s}", W) for s in range(S)]
        pm_n = [m.wire(f"ch{c}_pmn{s}", W) for s in range(S)]
        dec = m.wire(f"ch{c}_dec", S)
        for s in range(S):
            p0 = (2 * s) % S
            p1 = (2 * s + 1) % S
            sym0 = (s ^ p0) & 3
            sym1 = (s ^ p1) & 3
            m.instance(
                "vit_acs",
                f"ch{c}_acs{s}",
                {
                    "pm_a": f"ch{c}_pm{p0}",
                    "pm_b": f"ch{c}_pm{p1}",
                    "bm_a": f"ch{c}_bm{sym0}",
                    "bm_b": f"ch{c}_bm{sym1}",
                    "pm_o": f"ch{c}_pmn{s}",
                    "dec": f"ch{c}_dec[{s}]",
                },
            )
            m.instance(
                "vit_pmreg",
                f"ch{c}_pmr{s}",
                {
                    "d": f"ch{c}_pmn{s}",
                    "clk": clk,
                    "rst": rst,
                    "q": f"ch{c}_pm{s}",
                },
            )
        # register-exchange survivor memory, grouped into SMU blocks
        prev_name = f"ch{c}_dec"
        remaining = cfg.traceback
        blk = 0
        while remaining > 0:
            cols = min(cfg.smu_cols, remaining)
            out_name = f"ch{c}_smu{blk}_out"
            m.wire(out_name, S)
            module = "vit_smu" if cols == cfg.smu_cols else "vit_smu_tail"
            m.instance(
                module,
                f"ch{c}_smu{blk}",
                {
                    "prev": prev_name,
                    "dec": f"ch{c}_dec",
                    "clk": clk,
                    "rst": rst,
                    "out": out_name,
                },
            )
            prev_name = out_name
            remaining -= cols
            blk += 1
        decoded = m.wire(f"ch{c}_out")[0]
        m.gate("buf", decoded, f"{prev_name}[0]")
        out_bits.append(decoded)
        m.output(f"ch{c}_bit")
        m.gate("buf", f"ch{c}_bit", decoded)
    return m


def _cells(cfg: ViterbiConfig) -> str:
    """Every module but the top, as Verilog text."""
    parts = [
        _bmu_module(cfg),
        _acs_module(cfg),
        _pmreg_module(cfg),
        _recol_module(cfg),
        _smu_module(cfg, cfg.smu_cols, "vit_smu"),
    ]
    tail = cfg.traceback % cfg.smu_cols
    if tail:
        parts.append(_smu_module(cfg, tail, "vit_smu_tail"))
    return "\n".join(parts)


def viterbi_verilog(cfg: ViterbiConfig = BENCH_CONFIG) -> str:
    """Generate the full decoder as Verilog source text."""
    return _cells(cfg) + "\n" + _top_module(cfg).emit()


def viterbi_stream(cfg: ViterbiConfig = BENCH_CONFIG,
                   recorder: Recorder = NULL_RECORDER) -> Netlist:
    """Generate the decoder directly as a :class:`~repro.verilog.netlist.Netlist`.

    :func:`viterbi_verilog` + parse + elaborate without the top
    module's text: the recorded top is lowered onto the cells, each
    compiled once (:func:`~repro.circuits.stream.lower_module`).  Gate
    order, gate types and primary-I/O order match the parsed path
    exactly; net ids differ only by a bijection
    (``tests/test_stream_circuits.py``).
    """
    return lower_module(_top_module(cfg), _cells(cfg), recorder)
