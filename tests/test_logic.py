"""Three-valued gate evaluation: exhaustive truth-table checks."""

import itertools

import numpy as np
import pytest

from repro.sim.logic import (
    GATE_CODES,
    SEQ_CODE_MIN,
    V0,
    V1,
    VX,
    eval_gate,
    eval_gate_coded,
    invert,
    value_name,
)
from tests.sim_oracle import private_net_table


def known(v):
    return v in (V0, V1)


def model(gtype, values):
    """Reference semantics: enumerate all completions of X inputs.

    If every completion agrees, that is the output; otherwise X.  This
    is the *exact* (not pessimistic) three-valued semantics.
    """
    import itertools as it

    ops = {
        "and": lambda vs: int(all(vs)),
        "or": lambda vs: int(any(vs)),
        "nand": lambda vs: 1 - int(all(vs)),
        "nor": lambda vs: 1 - int(any(vs)),
        "xor": lambda vs: sum(vs) % 2,
        "xnor": lambda vs: 1 - sum(vs) % 2,
        "buf": lambda vs: vs[0],
        "not": lambda vs: 1 - vs[0],
    }
    slots = [(0, 1) if v == VX else (v,) for v in values]
    results = {ops[gtype](c) for c in it.product(*slots)}
    return results.pop() if len(results) == 1 else VX


class TestTruthTables:
    @pytest.mark.parametrize("gtype", ["and", "or", "nand", "nor", "xor", "xnor"])
    def test_two_input_exhaustive(self, gtype):
        for a, b in itertools.product((V0, V1, VX), repeat=2):
            assert eval_gate(gtype, [a, b]) == model(gtype, [a, b]), (gtype, a, b)

    @pytest.mark.parametrize("gtype", ["and", "or", "nand", "nor", "xor", "xnor"])
    def test_three_input_exhaustive(self, gtype):
        for vals in itertools.product((V0, V1, VX), repeat=3):
            assert eval_gate(gtype, list(vals)) == model(gtype, list(vals))

    @pytest.mark.parametrize("gtype", ["buf", "not"])
    def test_unary(self, gtype):
        for v in (V0, V1, VX):
            assert eval_gate(gtype, [v]) == model(gtype, [v])

    def test_controlling_inputs_beat_x(self):
        assert eval_gate("and", [V0, VX]) == V0
        assert eval_gate("or", [V1, VX]) == V1
        assert eval_gate("nand", [V0, VX]) == V1
        assert eval_gate("nor", [V1, VX]) == V0

    def test_xor_with_x_is_x(self):
        assert eval_gate("xor", [V1, VX]) == VX
        assert eval_gate("xnor", [V0, VX]) == VX

    def test_invert(self):
        assert invert(V0) == V1
        assert invert(V1) == V0
        assert invert(VX) == VX

    def test_coded_matches_named(self):
        for gtype in ("and", "or", "nand", "nor", "xor", "xnor"):
            for a, b in itertools.product((V0, V1, VX), repeat=2):
                assert eval_gate(gtype, [a, b]) == eval_gate_coded(
                    GATE_CODES[gtype], [a, b]
                )

    def test_value_name(self):
        assert [value_name(v) for v in (V0, V1, VX)] == ["0", "1", "x"]

    def test_codes_dense(self):
        codes = sorted(GATE_CODES.values())
        assert codes == list(range(len(codes)))


def _exhaustive_comb_rows():
    """Every combinational gate code × every input combination over
    {0, 1, X} at arities 1 (unary) / 2 / 3 (folds) — the full input
    space of the scalar evaluator."""
    rows: list[tuple[int, tuple[int, ...]]] = []
    for gtype in ("and", "or", "nand", "nor", "xor", "xnor"):
        for arity in (2, 3):
            for vals in itertools.product((V0, V1, VX), repeat=arity):
                rows.append((GATE_CODES[gtype], vals))
    for gtype in ("buf", "not"):
        for v in (V0, V1, VX):
            rows.append((GATE_CODES[gtype], (v,)))
    return rows


def _fold_rows(rows, garbage):
    """Evaluate ``rows`` of ``(code, pin values)`` through the kernel's
    fold tables, every cell no gate reads holding ``garbage``."""
    table, pin_net = private_net_table([(c, len(pins)) for c, pins in rows])
    vbuf = table.new_values(np.full(table.num_nets, garbage, dtype=np.int8))
    vbuf[pin_net] = [v for _, pins in rows for v in pins]
    return table.fold(vbuf, np.arange(len(rows), dtype=np.int64))


class TestBatchKernel:
    """The kernel's table fold is bit-identical to eval_gate_coded per row."""

    @pytest.mark.parametrize("pad", [V0, V1, VX])
    def test_batch_matches_scalar_exhaustive(self, pad):
        # rows of arity 1, 2 and 3 share one pin matrix, so the shorter
        # ones have padded pins; the pad cell, not whatever the
        # neighbouring nets hold (parametrized over all three values),
        # must decide what those read
        rows = _exhaustive_comb_rows()
        outs = _fold_rows(rows, pad)
        assert outs.dtype == np.int8
        for i, (code, pins) in enumerate(rows):
            expect = eval_gate_coded(code, list(pins))
            assert outs[i] == expect, (code, pins, pad)

    def test_mixed_code_single_rows(self):
        # one-gate tables (the degenerate shape) agree too
        for code, pins in _exhaustive_comb_rows():
            out = _fold_rows([(code, pins)], VX)
            assert out[0] == eval_gate_coded(code, list(pins))

    def test_all_comb_codes_covered(self):
        # the exhaustive sweep really visits every combinational code
        covered = {c for c, _ in _exhaustive_comb_rows()}
        assert covered == {c for c in GATE_CODES.values() if c < SEQ_CODE_MIN}
