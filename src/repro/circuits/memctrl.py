"""Synthetic banked memory controller (global fan-out net structure).

A request pipeline feeds a one-hot bank decoder and broadcast
row/write-data buses into ``banks`` identical bank trackers; read data
and hit flags come back through OR-trees.  Each bank keeps an open-row
register with a comparator (row-hit detection) and a write-data
register gated by its select.

The partitioner-relevant property is the *anti-locality*: the row and
write-data buses are single nets with a sink in **every** bank, and
the OR-trees pull one wire out of every bank — high-fanout hyperedges
spanning the whole design, the opposite of the NoC fabric's
point-to-point neighbour links.  A partition of this design pays cut
on the broadcast nets no matter where it cuts, which stresses the
λ−1 connectivity metric rather than plain cut counting.

One description, two backends: :func:`memctrl_verilog` (text) and
:func:`memctrl_stream` (the same recorded top module lowered to arrays),
equivalent gate-for-gate.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError
from ..obs.recorder import NULL_RECORDER, Recorder
from ._vlog import ModuleWriter
from .stream import lower_module

__all__ = [
    "MemCtrlConfig", "memctrl_verilog", "memctrl_stream",
    "TEST_CONFIG", "BENCH_CONFIG", "SCALE_CONFIG",
]


@dataclass(frozen=True)
class MemCtrlConfig:
    """Generator parameters.

    Attributes
    ----------
    banks:
        Bank trackers (power of two, >= 2); the decoder one-hots
        ``log2(banks)`` address bits.
    abits:
        Row-address width broadcast to every bank.
    width:
        Data-path width.
    queue:
        Request-pipeline depth (register stages before the decoder).
    """

    banks: int = 4
    abits: int = 6
    width: int = 6
    queue: int = 2

    def __post_init__(self) -> None:
        if self.banks < 2 or self.banks & (self.banks - 1):
            raise ConfigError("banks must be a power of two >= 2")
        if self.abits < 2:
            raise ConfigError("abits must be >= 2")
        if self.width < 2:
            raise ConfigError("width must be >= 2")
        if self.queue < 1:
            raise ConfigError("queue must be >= 1")

    @property
    def bank_bits(self) -> int:
        """Decoder select width, ``log2(banks)``."""
        return self.banks.bit_length() - 1

    @property
    def addr_bits(self) -> int:
        """Primary address width: row bits + bank-select bits."""
        return self.abits + self.bank_bits


#: unit-test scale
TEST_CONFIG = MemCtrlConfig(banks=2, abits=3, width=3, queue=1)
#: benchmark scale (a few thousand gates)
BENCH_CONFIG = MemCtrlConfig(banks=16, abits=6, width=6, queue=2)
#: scale-ladder rung: ~90k gates dominated by broadcast fan-out
SCALE_CONFIG = MemCtrlConfig(banks=1024, abits=10, width=8, queue=4)


def _bank_module(cfg: MemCtrlConfig) -> str:
    """Open-row tracker: row/data registers + row-hit comparator."""
    m = ModuleWriter("mc_bank")
    clk = m.input("clk")[0]
    rst = m.input("rst")[0]
    sel = m.input("sel")[0]
    row = m.input("row", cfg.abits)
    wdata = m.input("wdata", cfg.width)
    rdata = m.output("rdata", cfg.width)
    hit = m.output("hit")[0]
    rq = m.wire("rq", cfg.abits)
    rmx = m.wire("rmx", cfg.abits)
    m.mux2(sel, rq, row, rmx)
    for i in range(cfg.abits):
        m.dffr(rq[i], rmx[i], clk, rst)
    eq = m.wire("eq", cfg.abits)
    for i in range(cfg.abits):
        m.gate("xnor", eq[i], rq[i], row[i])
    acc = eq[0]
    for i in range(1, cfg.abits):
        nxt = m.fresh("eqc")[0]
        m.gate("and", nxt, acc, eq[i])
        acc = nxt
    m.gate("and", hit, acc, sel)
    dq = m.wire("dq", cfg.width)
    dmx = m.wire("dmx", cfg.width)
    m.mux2(sel, dq, wdata, dmx)
    for i in range(cfg.width):
        m.dffr(dq[i], dmx[i], clk, rst)
    for i in range(cfg.width):
        m.gate("and", rdata[i], dq[i], hit)
    return m.emit()


def _top_module(cfg: MemCtrlConfig) -> ModuleWriter:
    m = ModuleWriter("memctrl_top")
    clk = m.input("clk")[0]
    rst = m.input("rst")[0]
    addr = m.input("addr", cfg.addr_bits)
    wdata = m.input("wdata", cfg.width)
    rdata = m.output("rdata", cfg.width)
    hit = m.output("hit")[0]
    # request pipeline: queue register stages over (addr, wdata)
    stage = list(addr) + list(wdata)
    for j in range(cfg.queue):
        q = m.wire(f"q{j}", cfg.addr_bits + cfg.width)
        for i, src in enumerate(stage):
            m.dffr(q[i], src, clk, rst)
        stage = q
    c_addr = stage[: cfg.addr_bits]
    c_wdata = stage[cfg.addr_bits:]
    # one-hot bank decoder over the high address bits
    nb = cfg.bank_bits
    inv = m.wire("binv", nb)
    for i in range(nb):
        m.gate("not", inv[i], c_addr[cfg.abits + i])
    sels = m.wire("sel", cfg.banks)
    for bk in range(cfg.banks):
        acc = None
        for i in range(nb):
            term = c_addr[cfg.abits + i] if (bk >> i) & 1 else inv[i]
            if acc is None:
                acc = term
            else:
                nxt = m.fresh("dec")[0]
                m.gate("and", nxt, acc, term)
                acc = nxt
        m.gate("buf", sels[bk], acc)
    # banks: row/wdata buses broadcast to every instance
    for bk in range(cfg.banks):
        m.wire(f"rd{bk}", cfg.width)
        m.instance(
            "mc_bank",
            f"bank{bk}",
            {
                "clk": clk,
                "rst": rst,
                "sel": f"sel[{bk}]",
                "row": f"{{{', '.join(reversed(c_addr[:cfg.abits]))}}}",
                "wdata": f"{{{', '.join(reversed(c_wdata))}}}",
                "rdata": f"rd{bk}",
                "hit": f"bhit[{bk}]",
            },
        )
    m.wire("bhit", cfg.banks)
    # OR-trees folding every bank's read data / hit back together
    for i in range(cfg.width):
        acc = f"rd0[{i}]"
        for bk in range(1, cfg.banks):
            dst = rdata[i] if bk == cfg.banks - 1 else m.fresh("ord")[0]
            m.gate("or", dst, acc, f"rd{bk}[{i}]")
            acc = dst
    acc = "bhit[0]"
    for bk in range(1, cfg.banks):
        dst = hit if bk == cfg.banks - 1 else m.fresh("ohit")[0]
        m.gate("or", dst, acc, f"bhit[{bk}]")
        acc = dst
    return m


def memctrl_verilog(cfg: MemCtrlConfig = BENCH_CONFIG) -> str:
    """Generate the controller as Verilog source text."""
    return _bank_module(cfg) + "\n" + _top_module(cfg).emit()


def memctrl_stream(cfg: MemCtrlConfig = BENCH_CONFIG,
                   recorder: Recorder = NULL_RECORDER) -> Netlist:
    """Generate the controller directly as a :class:`~repro.verilog.netlist.Netlist`: the
    recorded top module (pipeline registers, decoder, OR-trees) lowered
    onto the bank template, all banks stamped in one block
    (:func:`~repro.circuits.stream.lower_module`).
    """
    return lower_module(_top_module(cfg), _bank_module(cfg), recorder)
