"""Synthetic NoC / crossbar fabric (mesh-local net structure).

A torus of identical 5-port routers (north/south/east/west/local).
Each router registers its five input buses, keeps a 2-bit rotating
grant counter, and drives every output port from a 4:1 crossbar mux
over the *other* ports' input registers, with the select bits skewed
per port so the five muxes do not collapse into one net.

The net-locality profile is the interesting part for the partitioner:
almost every inter-instance net is a ``width``-bit point-to-point link
between torus neighbours (2-D locality), in sharp contrast to the
Viterbi decoder's chained survivor pipeline and to the memory
controller's global fan-out buses — three families, three hypergraph
shapes.

One description, two backends: :func:`noc_verilog` renders the
generator's modules as text for the normal front end, and
:func:`noc_stream` lowers the same recorded top module straight to a
:class:`~repro.verilog.netlist.Netlist` by template stamping —
equivalent gate-for-gate at any config.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError
from ..obs.recorder import NULL_RECORDER, Recorder
from ._vlog import ModuleWriter
from .stream import lower_module

__all__ = [
    "NocConfig", "noc_verilog", "noc_stream",
    "TEST_CONFIG", "BENCH_CONFIG", "SCALE_CONFIG",
]

_PORTS = ("n", "s", "e", "w", "l")


@dataclass(frozen=True)
class NocConfig:
    """Generator parameters.

    Attributes
    ----------
    rows / cols:
        Torus dimensions (routers = rows * cols).
    width:
        Link/data-path width in bits.
    """

    rows: int = 4
    cols: int = 4
    width: int = 6

    def __post_init__(self) -> None:
        if self.rows < 2 or self.cols < 2:
            raise ConfigError("rows and cols must be >= 2")
        if self.width < 2:
            raise ConfigError("width must be >= 2")

    @property
    def routers(self) -> int:
        """Router instances in the fabric."""
        return self.rows * self.cols


#: unit-test scale
TEST_CONFIG = NocConfig(rows=2, cols=2, width=3)
#: benchmark scale (a few thousand gates)
BENCH_CONFIG = NocConfig(rows=4, cols=4, width=6)
#: scale-ladder rung: ~120k gates of mesh-local connectivity
SCALE_CONFIG = NocConfig(rows=19, cols=19, width=6)


def _router_module(cfg: NocConfig) -> str:
    """One 5-port router: input registers, grant counter, crossbar."""
    m = ModuleWriter("noc_router")
    clk = m.input("clk")[0]
    rst = m.input("rst")[0]
    ins = {p: m.input(f"in_{p}", cfg.width) for p in _PORTS}
    outs = {p: m.output(f"out_{p}", cfg.width) for p in _PORTS}
    regs = {}
    for p in _PORTS:
        r = m.wire(f"r_{p}", cfg.width)
        for i in range(cfg.width):
            m.dffr(r[i], ins[p][i], clk, rst)
        regs[p] = r
    g = m.wire("g", 2)
    gn = m.wire("gn", 2)
    m.gate("not", gn[0], g[0])
    m.gate("xor", gn[1], g[1], g[0])
    m.dffr(g[0], gn[0], clk, rst)
    m.dffr(g[1], gn[1], clk, rst)
    for pi, p in enumerate(_PORTS):
        others = [regs[q] for q in _PORTS if q != p]
        s0 = m.wire(f"s0_{p}")[0]
        s1 = m.wire(f"s1_{p}")[0]
        m.gate("xor", s0, g[0], f"1'b{pi & 1}")
        m.gate("xor", s1, g[1], f"1'b{(pi >> 1) & 1}")
        t0 = m.wire(f"t0_{p}", cfg.width)
        t1 = m.wire(f"t1_{p}", cfg.width)
        m.mux2(s0, others[0], others[1], t0)
        m.mux2(s0, others[2], others[3], t1)
        m.mux2(s1, t0, t1, outs[p])
    return m.emit()


def _neighbor(cfg: NocConfig, r: int, c: int, port: str) -> tuple[int, int, str]:
    """Torus neighbour whose output feeds ``in_<port>`` of (r, c)."""
    if port == "n":
        return (r - 1) % cfg.rows, c, "s"
    if port == "s":
        return (r + 1) % cfg.rows, c, "n"
    if port == "e":
        return r, (c + 1) % cfg.cols, "w"
    return r, (c - 1) % cfg.cols, "e"


def _top_module(cfg: NocConfig) -> ModuleWriter:
    m = ModuleWriter("noc_top")
    clk = m.input("clk")[0]
    rst = m.input("rst")[0]
    m.input("inj", cfg.width)
    eject = m.output("eject", cfg.width)
    for r in range(cfg.rows):
        for c in range(cfg.cols):
            for p in _PORTS:
                m.wire(f"o_{p}_{r}_{c}", cfg.width)
    last = f"o_l_{cfg.rows - 1}_{cfg.cols - 1}"
    for i in range(cfg.width):
        m.gate("buf", eject[i], f"{last}[{i}]")
    for r in range(cfg.rows):
        for c in range(cfg.cols):
            conns = {"clk": clk, "rst": rst}
            for p in ("n", "s", "e", "w"):
                nr, nc, np_ = _neighbor(cfg, r, c, p)
                conns[f"in_{p}"] = f"o_{np_}_{nr}_{nc}"
            conns["in_l"] = "inj" if (r, c) == (0, 0) else f"o_l_{r}_{c}"
            for p in _PORTS:
                conns[f"out_{p}"] = f"o_{p}_{r}_{c}"
            m.instance("noc_router", f"rtr_{r}_{c}", conns)
    return m


def noc_verilog(cfg: NocConfig = BENCH_CONFIG) -> str:
    """Generate the fabric as Verilog source text."""
    return _router_module(cfg) + "\n" + _top_module(cfg).emit()


def noc_stream(cfg: NocConfig = BENCH_CONFIG,
               recorder: Recorder = NULL_RECORDER) -> Netlist:
    """Generate the fabric directly as a :class:`~repro.verilog.netlist.Netlist`: the
    recorded top module lowered onto the router template, every router
    stamped in one block (:func:`~repro.circuits.stream.lower_module`).
    """
    return lower_module(_top_module(cfg), _router_module(cfg), recorder)
