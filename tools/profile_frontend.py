#!/usr/bin/env python
"""Profile the Verilog front end: tokenize → parse → elaborate → compile.

Builds a named text circuit's Verilog, then times and cProfiles the
four stages every text-circuit run starts with — the lexer's
:class:`~repro.verilog.lexer.Scan`, the parser over that scan (together
``parse_source``), ``elaborate`` and ``compile_circuit`` — and prints
the work counters of the one stamper both front ends share
(``repro.verilog.elaborate``; the streamed generators hand it their
recorded top).  The tokenize and parse rows also give tokens per
second.  ``plan:`` — how many module *definitions* were planned, how
many *instances* (hierarchy nodes, the top included) they became, how
many *blocks* stamped them and the largest block, and how many
connection expressions were resolved; the expressions depend on the
definitions, not on the instance count, and a run of consecutive
instances of one definition is one block (``viterbi-paper``: 6
definitions, 853 instances, a few thousand expressions for 93 096
gates).  ``compact:`` — temp nets allocated, union pairs recorded
(port bindings and aliases), label-propagation rounds taken, and how
many net groups needed their shortest-name tie broken by comparing
strings in Python.  ``names:`` — what the netlist keeps instead of a
string per gate and per net: the name-table entries (every
definition's local names, once), the gate runs and temp runs that
index it (about one each per instance), and the hierarchy nodes whose
dotted prefixes complete a name.  The tool exits non-zero when the
hierarchy has a run of consecutive same-module siblings but no block
larger than one was stamped — a stamper that went back to one instance
at a time.  This is the before/after evidence harness for front-end
work — the peer of ``tools/profile_partition.py`` and
``tools/profile_sim.py``
(docs/performance.md, "Front end", records the numbers it moved).

Examples::

    PYTHONPATH=src python tools/profile_frontend.py
    PYTHONPATH=src python tools/profile_frontend.py --circuit cpu8 --top 10
    PYTHONPATH=src python tools/profile_frontend.py --sort cumulative
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.circuits import circuit_source  # noqa: E402
from repro.sim.compiled import compile_circuit  # noqa: E402
from repro.verilog import find_top_module  # noqa: E402
from repro.verilog.elaborate import _Elaborator  # noqa: E402
from repro.verilog.lexer import Scan  # noqa: E402
from repro.verilog.parser import _Parser  # noqa: E402


def _stage(label: str, func, top: int, sort: str, tokens: int | None = None):
    """Time ``func`` once bare, then once under cProfile; ``tokens``
    adds the stage's tokens per second."""
    start = time.perf_counter()
    func()
    wall = time.perf_counter() - start
    rate = "" if tokens is None else f", {tokens / wall:,.0f} tokens/s"
    print(f"\n=== {label}: {wall:.3f} s{rate} ===")
    prof = cProfile.Profile()
    result = prof.runcall(func)
    stats = pstats.Stats(prof, stream=sys.stdout)
    stats.strip_dirs().sort_stats(sort).print_stats(top)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="time and cProfile tokenize, parse, elaborate and compile")
    parser.add_argument("--circuit", default="viterbi-paper",
                        help="named text circuit (default: %(default)s)")
    parser.add_argument("--top", type=int, default=12,
                        help="functions to print per stage")
    parser.add_argument("--sort", default="tottime",
                        choices=("cumulative", "tottime", "calls"),
                        help="pstats sort order")
    args = parser.parse_args(argv)

    text = circuit_source(args.circuit)
    tokens = len(Scan(text).toks)
    print(f"circuit={args.circuit} src_bytes={len(text)} tokens={tokens}")
    scan = _stage("tokenize", lambda: Scan(text), args.top, args.sort, tokens)
    source = _stage("parse", lambda: _Parser(scan).parse(), args.top,
                    args.sort, tokens)
    top_module = find_top_module(source)

    def elaborate():
        elab = _Elaborator(source)
        return elab, elab.run(top_module)

    elab, netlist = _stage("elaborate", elaborate, args.top, args.sort)
    _stage("compile", lambda: compile_circuit(netlist), args.top, args.sort)

    print(f"plan: definitions={len(elab.plans)} "
          f"instances={elab.instances_stamped} "
          f"blocks={elab.blocks_stamped} "
          f"largest_block={elab.largest_block} "
          f"expressions_resolved={elab.exprs_resolved} "
          f"nets={netlist.num_nets} gates={netlist.num_gates}")
    print(f"compact: temp_nets={elab.num_temp} "
          f"union_pairs={elab.union_pairs} "
          f"propagation_rounds={elab.propagation_rounds} "
          f"name_ties_in_python={elab.name_ties}")
    print(f"names: table={len(netlist.name_table)} "
          f"gate_runs={len(netlist.gate_runs)} "
          f"temp_runs={len(netlist.temp_runs)} "
          f"nodes={len(netlist.nodes)}")
    siblings = [list(node.children.values()) for node in netlist.nodes]
    runs = any(a.module == b.module
               for kids in siblings for a, b in zip(kids, kids[1:]))
    if runs and elab.largest_block < 2:
        print("FAIL: consecutive instances of one module were stamped "
              "one at a time", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
