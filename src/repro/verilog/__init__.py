"""Structural gate-level Verilog front end.

The pipeline mirrors DVS's vvp-based front end (paper Figure 4)::

    text --tokenize/parse--> Source (AST)
         --elaborate------> Netlist (flat, hierarchy-annotated)

Public surface:

* :func:`parse_source` — text → AST.
* :func:`elaborate` — AST → flat bit-level :class:`Netlist` retaining
  the instance hierarchy (the design-driven partitioner's raw input).
* :func:`compile_verilog` — one-call text → Netlist convenience.
* :class:`NetlistBuilder` — programmatic netlist construction.
* :func:`write_source` / :func:`write_netlist_verilog` — emitters.
"""

from .ast import Source, Module
from .lexer import tokenize
from .parser import parse_source
from .elaborate import elaborate, find_top_module, NetlistBuilder
from .netlist import Netlist, HierNode, CONST0, CONST1, CONSTX
from .writer import write_source, write_netlist_verilog
from .optimize import OptStats, optimize_netlist
from .primitives import (
    COMBINATIONAL_GATES,
    SEQUENTIAL_CELLS,
    gate_spec,
    is_sequential,
    is_gate_type,
)

__all__ = [
    "Source",
    "Module",
    "tokenize",
    "parse_source",
    "elaborate",
    "find_top_module",
    "compile_verilog",
    "NetlistBuilder",
    "Netlist",
    "HierNode",
    "CONST0",
    "CONST1",
    "CONSTX",
    "write_source",
    "write_netlist_verilog",
    "OptStats",
    "optimize_netlist",
    "COMBINATIONAL_GATES",
    "SEQUENTIAL_CELLS",
    "gate_spec",
    "is_sequential",
    "is_gate_type",
]


def compile_verilog(text: str, top: str | None = None) -> Netlist:
    """Parse and elaborate Verilog source text in one call."""
    return elaborate(parse_source(text), top=top)
