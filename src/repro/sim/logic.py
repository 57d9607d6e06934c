"""Three-valued (0 / 1 / X) gate evaluation.

The paper assumes a unit gate delay and zero wire delay; signal values
are the synthesis-level trio ``0``, ``1``, ``X`` (unknown).  ``X``
propagation is *accurate*, not pessimistic: ``and(0, X) = 0`` and
``or(1, X) = 1`` because a controlling input decides the output
regardless of the unknown.

Values are plain ints (``X == 2``) so they pack into ``int8`` NumPy
arrays.  This module is the scalar reference; the simulators evaluate
through the lookup tables :mod:`repro.sim.kernel` derives from the
3x3 fold tables below.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "V0",
    "V1",
    "VX",
    "GATE_CODES",
    "CODE_NAMES",
    "eval_gate",
    "eval_gate_coded",
    "flip_flop_mask",
    "gate_code_table",
    "invert",
    "value_name",
]

V0 = 0
V1 = 1
VX = 2

#: dense integer codes for gate types (sequential cells get codes too;
#: the simulators special-case them by code).
GATE_CODES: dict[str, int] = {
    "and": 0,
    "or": 1,
    "nand": 2,
    "nor": 3,
    "xor": 4,
    "xnor": 5,
    "buf": 6,
    "not": 7,
    "dff": 8,
    "dffr": 9,
    "dffe": 10,
}

CODE_NAMES: list[str] = [
    name for name, _ in sorted(GATE_CODES.items(), key=lambda kv: kv[1])
]

SEQ_CODE_MIN = GATE_CODES["dff"]


def gate_code_table(gate_types: Sequence[str]) -> np.ndarray:
    """The simulator code of each entry of a netlist's ``gate_types``
    table, -1 for a type the simulators do not know: indexing it with
    the netlist's ``gate_code`` column recodes every gate at once."""
    return np.array([GATE_CODES.get(t, -1) for t in gate_types], dtype=np.int8)


def flip_flop_mask(netlist) -> np.ndarray:
    """Per gate of a :class:`~repro.verilog.netlist.Netlist`: is it a
    state-holding cell."""
    return gate_code_table(netlist.gate_types)[netlist.gate_code] >= SEQ_CODE_MIN


def _and2(a: int, b: int) -> int:
    if a == V0 or b == V0:
        return V0
    if a == VX or b == VX:
        return VX
    return V1


def _or2(a: int, b: int) -> int:
    if a == V1 or b == V1:
        return V1
    if a == VX or b == VX:
        return VX
    return V0


def _xor2(a: int, b: int) -> int:
    if a == VX or b == VX:
        return VX
    return a ^ b


_NOT = (V1, V0, VX)

#: per variadic gate code: (3x3 fold table of its associative base op,
#: output-inverted flag), as plain tuples
_FOLDS_PY: dict[int, tuple[tuple[tuple[int, ...], ...], bool]] = {}
for _op, _plain, _inverted in (
    (_and2, "and", "nand"), (_or2, "or", "nor"), (_xor2, "xor", "xnor")
):
    _table = tuple(tuple(_op(a, b) for b in range(3)) for a in range(3))
    _FOLDS_PY[GATE_CODES[_plain]] = (_table, False)
    _FOLDS_PY[GATE_CODES[_inverted]] = (_table, True)


def invert(v: int) -> int:
    """Three-valued NOT."""
    return _NOT[v]


def eval_gate_coded(code: int, values: tuple[int, ...] | list[int]) -> int:
    """Evaluate a *combinational* gate by dense code over input values."""
    if code == 6:  # buf
        return values[0]
    if code == 7:  # not
        return _NOT[values[0]]
    table, inv = _FOLDS_PY[code]
    acc = values[0]
    for v in values[1:]:
        acc = table[acc][v]
    return _NOT[acc] if inv else acc


def eval_gate(gtype: str, values: tuple[int, ...] | list[int]) -> int:
    """Evaluate a combinational gate by primitive name."""
    return eval_gate_coded(GATE_CODES[gtype], values)


def value_name(v: int) -> str:
    """Pretty form of a signal value (``"0"``, ``"1"``, ``"x"``)."""
    return ("0", "1", "x")[v]
