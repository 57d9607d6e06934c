#!/usr/bin/env python
"""Profile the Verilog front end: parse → elaborate → compile.

Builds a named text circuit's Verilog, then times and cProfiles the
three stages every text-circuit run starts with — ``parse_source``,
``elaborate`` and ``compile_circuit`` — and prints the elaborator's
work counters.  ``plan:`` — how many module *definitions* were planned,
how many *instances* were stamped from those plans, and how many
connection expressions were resolved; the last number is the point: it
depends on the definitions, not on the instance count
(``viterbi-paper``: 6 definitions, 853 instances, a few thousand
expressions for 93 096 gates).  ``compact:`` — temp nets allocated,
union pairs recorded, label-propagation rounds taken, and how many net
groups needed their shortest-name tie broken by comparing strings in
Python.  ``names:`` — what the netlist keeps instead of a string per
gate and per net: the name-table entries (every definition's local
names, once), the gate runs and temp runs that index it (about one
each per instance), and the hierarchy nodes whose dotted prefixes
complete a name.  This is the before/after
evidence harness for front-end work — the peer of
``tools/profile_partition.py`` and ``tools/profile_sim.py``
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
from repro.verilog import find_top_module, parse_source  # noqa: E402
from repro.verilog.elaborate import _Elaborator  # noqa: E402


def _stage(label: str, func, top: int, sort: str):
    """Time ``func`` once bare, then once under cProfile."""
    start = time.perf_counter()
    func()
    wall = time.perf_counter() - start
    print(f"\n=== {label}: {wall:.3f} s ===")
    prof = cProfile.Profile()
    result = prof.runcall(func)
    stats = pstats.Stats(prof, stream=sys.stdout)
    stats.strip_dirs().sort_stats(sort).print_stats(top)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="time and cProfile parse, elaborate and compile")
    parser.add_argument("--circuit", default="viterbi-paper",
                        help="named text circuit (default: %(default)s)")
    parser.add_argument("--top", type=int, default=12,
                        help="functions to print per stage")
    parser.add_argument("--sort", default="tottime",
                        choices=("cumulative", "tottime", "calls"),
                        help="pstats sort order")
    args = parser.parse_args(argv)

    text = circuit_source(args.circuit)
    print(f"circuit={args.circuit} src_bytes={len(text)}")
    source = _stage("parse", lambda: parse_source(text), args.top, args.sort)
    top_module = find_top_module(source)

    def elaborate():
        elab = _Elaborator(source)
        return elab, elab.run(top_module)

    elab, netlist = _stage("elaborate", elaborate, args.top, args.sort)
    _stage("compile", lambda: compile_circuit(netlist), args.top, args.sort)

    print(f"plan: definitions={len(elab.plans)} "
          f"instances={elab.instances_stamped} "
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
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
