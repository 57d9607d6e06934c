"""Gate primitive library.

The gate-level subset of Verilog this library targets is the output of
logic synthesis: combinational gate primitives (``and``, ``or``,
``nand``, ``nor``, ``xor``, ``xnor``, ``not``, ``buf``) plus sequential
cells.  Synthesized netlists express flip-flops as technology cells;
we provide built-in cell modules ``dff`` (q, d, clk), ``dffr``
(q, d, clk, rst — synchronous active-high reset) and ``dffe``
(q, d, clk, en) that the elaborator recognizes without a source
definition, mirroring how DVS consumed vvp's ``.functor`` records.

Combinational primitives follow the Verilog connection convention: the
**first terminal is the output**, the remaining terminals are inputs.
``and/or/nand/nor/xor/xnor`` accept 2+ inputs; ``not``/``buf`` accept
exactly one input (multi-output forms of not/buf are normalized away by
the parser into one gate per output).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "COMBINATIONAL_GATES",
    "SEQUENTIAL_CELLS",
    "GateSpec",
    "gate_spec",
    "is_sequential",
    "is_gate_type",
]


@dataclass(frozen=True)
class GateSpec:
    """Static description of a primitive gate or built-in cell.

    Attributes
    ----------
    name:
        Primitive keyword (``"nand"``) or cell name (``"dff"``).
    min_inputs / max_inputs:
        Inclusive input-arity bounds; ``max_inputs`` of ``None`` means
        unbounded (variadic primitives).
    sequential:
        True for state-holding cells (flip-flops).
    input_names:
        For sequential cells, the fixed input pin order after the
        output ``q`` (e.g. ``("d", "clk")``).
    """

    name: str
    min_inputs: int
    max_inputs: int | None
    sequential: bool = False
    input_names: tuple[str, ...] = ()


COMBINATIONAL_GATES: dict[str, GateSpec] = {
    "and": GateSpec("and", 2, None),
    "nand": GateSpec("nand", 2, None),
    "or": GateSpec("or", 2, None),
    "nor": GateSpec("nor", 2, None),
    "xor": GateSpec("xor", 2, None),
    "xnor": GateSpec("xnor", 2, None),
    "not": GateSpec("not", 1, 1),
    "buf": GateSpec("buf", 1, 1),
}

SEQUENTIAL_CELLS: dict[str, GateSpec] = {
    "dff": GateSpec("dff", 2, 2, sequential=True, input_names=("d", "clk")),
    "dffr": GateSpec("dffr", 3, 3, sequential=True, input_names=("d", "clk", "rst")),
    "dffe": GateSpec("dffe", 3, 3, sequential=True, input_names=("d", "clk", "en")),
}

_ALL = {**COMBINATIONAL_GATES, **SEQUENTIAL_CELLS}


def gate_spec(name: str) -> GateSpec:
    """Look up the :class:`GateSpec` for a primitive/cell name."""
    return _ALL[name]


def is_sequential(name: str) -> bool:
    """True if ``name`` is a built-in sequential cell."""
    return name in SEQUENTIAL_CELLS


def is_gate_type(name: str) -> bool:
    """True if ``name`` is any recognized primitive or built-in cell."""
    return name in _ALL
