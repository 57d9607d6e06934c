"""Auxiliary gate-level circuit generators.

Beyond the Viterbi workload these provide: regression targets with
known functional behaviour (adders, multiplier, counter, LFSR),
hierarchy-rich designs for partitioner tests (pipelined datapaths,
mesh), and an irregular random-logic cloud for property-based testing.
Every generator emits structural Verilog text that round-trips through
:mod:`repro.verilog`.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from ._vlog import ModuleWriter

__all__ = [
    "ripple_adder_verilog",
    "multiplier_verilog",
    "counter_verilog",
    "lfsr_verilog",
    "pipeline_verilog",
    "mesh_verilog",
    "random_logic_verilog",
]


def ripple_adder_verilog(width: int = 8) -> str:
    """``width``-bit ripple-carry adder: one full-adder module instance
    per bit (a tiny super-gate per stage)."""
    if width < 1:
        raise ConfigError("width must be >= 1")
    fa = ModuleWriter("fa_cell")
    a1 = fa.input("a")[0]
    b1 = fa.input("b")[0]
    c1 = fa.input("cin")[0]
    s1 = fa.output("s")[0]
    co = fa.output("cout")[0]
    fa.full_adder(a1, b1, c1, s1, co)

    top = ModuleWriter("adder_top")
    a = top.input("a", width)
    b = top.input("b", width)
    cin = top.input("cin")[0]
    s = top.output("s", width)
    cout = top.output("cout")[0]
    carries = top.wire("c", width)
    prev = cin
    for i in range(width):
        top.instance(
            "fa_cell",
            f"fa{i}",
            {"a": a[i], "b": b[i], "cin": prev, "s": s[i], "cout": carries[i]},
        )
        prev = carries[i]
    top.gate("buf", cout, prev)
    return fa.emit() + "\n" + top.emit()


def multiplier_verilog(width: int = 4) -> str:
    """Unsigned array multiplier (``width`` x ``width`` → ``2*width``),
    built from partial-product AND rows and ripple-adder rows — a
    classic deep combinational benchmark."""
    if width < 2:
        raise ConfigError("width must be >= 2")
    m = ModuleWriter("arraymul")
    a = m.input("a", width)
    b = m.input("b", width)
    p = m.output("p", 2 * width)
    # partial products
    pp = [[m.fresh(f"pp{i}_{j}")[0] for j in range(width)] for i in range(width)]
    for i in range(width):
        for j in range(width):
            m.gate("and", pp[i][j], a[j], b[i])
    m.gate("buf", p[0], pp[0][0])
    # accumulate row by row
    acc = pp[0][1:]  # width-1 bits representing bits 1..width-1
    for i in range(1, width):
        row = pp[i]
        a_in = acc + ["1'b0"] * (width - len(acc))
        s = m.fresh(f"s{i}", width)
        cout = m.fresh(f"co{i}")[0]
        m.ripple_add(a_in[:width], row, s, cout=cout)
        m.gate("buf", p[i], s[0])
        acc = s[1:] + [cout]
    for idx, bit in enumerate(acc):
        m.gate("buf", p[width + idx], bit)
    return m.emit()


def counter_verilog(width: int = 8) -> str:
    """Synchronous binary counter with reset (incrementer + dffr)."""
    if width < 1:
        raise ConfigError("width must be >= 1")
    m = ModuleWriter("counter")
    clk = m.input("clk")[0]
    rst = m.input("rst")[0]
    q = m.output("q", width)
    d = m.wire("d", width)
    # increment: d = q + 1 (half-adder chain)
    prev = None
    for i in range(width):
        if prev is None:
            m.gate("not", d[i], q[i])
            prev = q[i]
        else:
            m.gate("xor", d[i], q[i], prev)
            nxt = m.fresh("carry")[0]
            m.gate("and", nxt, q[i], prev)
            prev = nxt
    for i in range(width):
        m.dffr(q[i], d[i], clk, rst)
    return m.emit()


def lfsr_verilog(width: int = 16) -> str:
    """Fibonacci LFSR; its taps (``width - 1``, ``width // 2``, 0) give a
    long-period register for stimulus-heavy sequential tests.  Reset
    loads the all-ones state (via inverted-input flip-flops on reset is
    avoided — instead the feedback ORs in a reset-driven 1)."""
    if width < 3:
        raise ConfigError("width must be >= 3")
    taps = (width - 1, width // 2, 0)
    m = ModuleWriter("lfsr")
    clk = m.input("clk")[0]
    rst = m.input("rst")[0]
    q = m.output("q", width)
    fb = m.wire("fb")[0]
    prev = q[taps[0]]
    for t in taps[1:]:
        nxt = m.fresh("fb_x")[0]
        m.gate("xor", nxt, prev, q[t])
        prev = nxt
    # seed injection: while rst was high the register is zero, so force
    # a 1 into the feedback for one cycle after release
    zero = m.fresh("allzero")[0]
    acc = q[0]
    for i in range(1, width):
        nxt = m.fresh("orred")[0]
        m.gate("or", nxt, acc, q[i])
        acc = nxt
    m.gate("not", zero, acc)
    m.gate("or", fb, prev, zero)
    m.dffr(q[0], fb, clk, rst)
    for i in range(1, width):
        m.dffr(q[i], q[i - 1], clk, rst)
    return m.emit()


def pipeline_verilog(stages: int = 4, width: int = 8) -> str:
    """Registered adder pipeline: ``stages`` alternating adder /
    register modules — a hierarchy-rich synchronous design whose
    natural partition is by stage."""
    if stages < 2:
        raise ConfigError("stages must be >= 2")
    add = ModuleWriter("pl_add")
    a = add.input("a", width)
    b = add.input("b", width)
    y = add.output("y", width)
    add.ripple_add(a, b, y)
    reg = ModuleWriter("pl_reg")
    d = reg.input("d", width)
    clk1 = reg.input("clk")[0]
    rst1 = reg.input("rst")[0]
    q = reg.output("q", width)
    for i in range(width):
        reg.dffr(q[i], d[i], clk1, rst1)

    top = ModuleWriter("pipeline_top")
    clk = top.input("clk")[0]
    rst = top.input("rst")[0]
    x = top.input("x", width)
    k = top.input("k", width)
    out = top.output("out", width)
    cur = "x"
    for sidx in range(stages):
        summed = top.wire(f"sum{sidx}", width)
        regged = top.wire(f"reg{sidx}", width)
        top.instance("pl_add", f"add{sidx}", {"a": cur, "b": "k", "y": f"sum{sidx}"})
        top.instance(
            "pl_reg",
            f"reg{sidx}_i",
            {"d": f"sum{sidx}", "clk": clk, "rst": rst, "q": f"reg{sidx}"},
        )
        cur = f"reg{sidx}"
    for i in range(width):
        top.gate("buf", out[i], f"{cur}[{i}]")
    return "\n".join([add.emit(), reg.emit(), top.emit()])


def mesh_verilog(rows: int = 3, cols: int = 3, width: int = 4) -> str:
    """Mesh of registered processing cells, each combining its west and
    north inputs through an adder — 2-D locality for partitioners."""
    if rows < 2 or cols < 2:
        raise ConfigError("mesh needs rows >= 2 and cols >= 2")
    cell = ModuleWriter("mesh_cell")
    w_in = cell.input("w", width)
    n_in = cell.input("n", width)
    clk1 = cell.input("clk")[0]
    rst1 = cell.input("rst")[0]
    e_out = cell.output("e", width)
    s_out = cell.output("s", width)
    summed = cell.wire("sum", width)
    cell.ripple_add(w_in, n_in, summed)
    for i in range(width):
        cell.dffr(e_out[i], summed[i], clk1, rst1)
        cell.dffr(s_out[i], summed[i], clk1, rst1)

    top = ModuleWriter("mesh_top")
    clk = top.input("clk")[0]
    rst = top.input("rst")[0]
    for r in range(rows):
        top.input(f"win{r}", width)
    for c in range(cols):
        top.input(f"nin{c}", width)
    out = top.output("out", width)
    for r in range(rows):
        for c in range(cols):
            top.wire(f"e_{r}_{c}", width)
            top.wire(f"s_{r}_{c}", width)
    for r in range(rows):
        for c in range(cols):
            w_src = f"win{r}" if c == 0 else f"e_{r}_{c-1}"
            n_src = f"nin{c}" if r == 0 else f"s_{r-1}_{c}"
            top.instance(
                "mesh_cell",
                f"cell_{r}_{c}",
                {"w": w_src, "n": n_src, "clk": clk, "rst": rst,
                 "e": f"e_{r}_{c}", "s": f"s_{r}_{c}"},
            )
    for i in range(width):
        top.gate("buf", out[i], f"e_{rows-1}_{cols-1}[{i}]")
    return "\n".join([cell.emit(), top.emit()])


def random_logic_verilog(
    n_gates: int = 200,
    n_inputs: int = 8,
    seed: int = 0,
) -> str:
    """Random combinational/sequential DAG for property-based tests.

    Gates read from earlier gates or primary inputs only, so the
    combinational part is acyclic by construction; a tenth of them
    become flip-flops (which may legally read later signals, forming
    sequential feedback).
    """
    if n_gates < 1 or n_inputs < 2:
        raise ConfigError("need n_gates >= 1 and n_inputs >= 2")
    rng = np.random.default_rng(seed)
    m = ModuleWriter("randlogic")
    clk = m.input("clk")[0]
    rst = m.input("rst")[0]
    signals: list[str] = []
    for i in range(n_inputs):
        signals.append(m.input(f"in{i}")[0])
    gate_types = ["and", "or", "nand", "nor", "xor", "xnor", "not", "buf"]
    outs: list[str] = []
    ff_indices = set(
        rng.choice(n_gates, size=int(n_gates * 0.1), replace=False).tolist()
    )
    for g in range(n_gates):
        y = m.wire(f"n{g}")[0]
        if g in ff_indices and g > n_inputs:
            # feedback allowed: pick any existing or future-ish signal
            d = signals[int(rng.integers(len(signals)))]
            m.dffr(y, d, clk, rst)
        else:
            gt = gate_types[int(rng.integers(len(gate_types)))]
            n_in = 1 if gt in ("not", "buf") else int(rng.integers(2, 4))
            ins = [signals[int(rng.integers(len(signals)))] for _ in range(n_in)]
            m.gate(gt, y, *ins)
        signals.append(y)
        outs.append(y)
    # a few observable outputs
    for i, src in enumerate(outs[-min(4, len(outs)):]):
        o = m.output(f"out{i}")[0]
        m.gate("buf", o, src)
    return m.emit()
