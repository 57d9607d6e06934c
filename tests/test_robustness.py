"""Hostile and degenerate inputs: each ends in a correct result or a
typed :mod:`repro.errors` exception, never a bare traceback.

This slice covers degenerate hypergraphs in the multilevel and direct
k-way engines (:func:`repro.core.multilevel_kway_partition`,
:func:`repro.core.direct_kway_partition`) under both refiners:
zero-pin nets, one net spanning every vertex, nets that are all
parallel copies of one, no nets at all, ``k == |V|`` and ``k > |V|``;
the batch refiner restricted to two blocks of a 3-way state (the
recursive splitter's call); and the from-scratch cut metrics on
zero-pin nets.  The design-driven drivers
(:func:`repro.core.design_driven_partition` with cone and random
initial partitions, :func:`repro.core.recursive_design_driven_partition`)
run a small netlist at degenerate k; and a balance factor that is not
``>= 0`` (NaN included) is a :class:`~repro.errors.ConfigError` on every
partition entry point and the CLI.  Last, a Hypothesis fuzz of the
Verilog front end (lex -> parse -> elaborate) on token soups and on
mutated registered circuits: every rejection is a located
:class:`~repro.errors.VerilogError` or a
:class:`~repro.errors.NetlistError`.
"""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import circuit_source, load_circuit
from repro.cli import main
from repro.core import (
    BalanceConstraint,
    batch_refine,
    design_driven_partition,
    direct_kway_partition,
    multilevel_kway_partition,
    recursive_design_driven_partition,
)
from repro.core.batch_refine import REFINERS
from repro.errors import (
    ConfigError,
    ElaborationError,
    NetlistError,
    PartitionError,
    VerilogError,
)
from repro.hypergraph import (
    Clustering,
    Hypergraph,
    PartitionState,
    connectivity_cut,
    flat_hypergraph,
    hyperedge_cut,
)

#: large enough that the driver coarsens (its stop size is 160 vertices)
N = 300


def with_empty_nets(n: int) -> Hypergraph:
    """A chain of two-pin nets with a zero-pin net before, between and
    after them."""
    edges = [[]] + [e for v in range(n - 1) for e in ([v, v + 1], [])]
    ptr = np.zeros(len(edges) + 1, dtype=np.int64)
    np.cumsum([len(e) for e in edges], out=ptr[1:])
    return Hypergraph.from_csr(
        np.ones(n, dtype=np.int64), np.ones(len(edges), dtype=np.int64),
        ptr, np.array([v for e in edges for v in e], dtype=np.int64),
    )


#: shape name -> builder of that shape on n unit-weight vertices
DEGENERATE = {
    "zero-pin nets": with_empty_nets,
    "one net spans every vertex": lambda n: Hypergraph.from_edges(
        [1] * n, [list(range(n))]),
    "all nets parallel": lambda n: Hypergraph.from_edges(
        [1] * n, [[3, n // 2, n - 1]] * 40),
    "no nets": lambda n: Hypergraph.from_edges([1] * n, []),
}


def check_result(hg: Hypergraph, result, k: int, b: float) -> None:
    """Every vertex in exactly one of k parts, the reported cut and
    loads recounted from scratch, Formula 1 met."""
    part = result.assignment
    assert part.shape == (hg.num_vertices,)
    assert ((part >= 0) & (part < k)).all()
    assert result.cut_size == hyperedge_cut(hg, part)
    assert result.part_weights.tolist() == np.bincount(
        part, weights=hg.vertex_weight, minlength=k).astype(int).tolist()
    assert result.balanced
    assert BalanceConstraint(k, b).satisfied(result.part_weights)


@pytest.mark.parametrize("refiner", REFINERS)
@pytest.mark.parametrize("shape", sorted(DEGENERATE))
@pytest.mark.parametrize("k", [2, 5])
def test_degenerate_hypergraphs(shape, refiner, k):
    hg = DEGENERATE[shape](N)
    result = multilevel_kway_partition(hg, k, 10.0, seed=1, refiner=refiner)
    check_result(hg, result, k, 10.0)
    if shape == "one net spans every vertex":
        # Formula 1's lower bound is above 0, so no part is empty
        assert result.cut_size == 1
        assert connectivity_cut(hg, result.assignment) == k - 1
    if shape == "no nets":
        assert result.cut_size == 0 and result.levels == 0


@pytest.mark.parametrize("refiner", REFINERS)
@pytest.mark.parametrize("shape", sorted(DEGENERATE))
def test_k_equals_vertices_is_an_exact_cover(shape, refiner):
    # at k == |V| with unit weights, b = 5 admits loads in [0.4, 1.6]:
    # Formula 1 holds only if every part gets exactly one vertex
    n = 12
    hg = DEGENERATE[shape](n)
    lo, hi = BalanceConstraint(n, 5.0).bounds(n)
    assert 0 < lo and hi < 2
    result = multilevel_kway_partition(hg, n, 5.0, seed=1, refiner=refiner)
    check_result(hg, result, n, 5.0)
    assert sorted(result.assignment.tolist()) == list(range(n))


@pytest.mark.parametrize("refiner", REFINERS)
@pytest.mark.parametrize("shape", sorted(DEGENERATE))
def test_k_above_vertices_is_rejected(shape, refiner):
    hg = DEGENERATE[shape](N)
    with pytest.raises(PartitionError, match="partitions from"):
        multilevel_kway_partition(hg, N + 1, 10.0, seed=1, refiner=refiner)


@pytest.mark.parametrize("refiner", REFINERS)
@pytest.mark.parametrize("shape", sorted(DEGENERATE))
@pytest.mark.parametrize("k", [2, 5, "|V|", "|V|+1"])
def test_direct_kway_on_degenerate_hypergraphs(shape, refiner, k):
    # the flat engine: no coarsening, the LPT fill refined once; at
    # k == |V| (b = 5, unit weights) only an exact cover is balanced
    n = 12 if isinstance(k, str) else N
    hg = DEGENERATE[shape](n)
    parts = {"|V|": n, "|V|+1": n + 1}.get(k, k)
    b = 5.0 if isinstance(k, str) else 10.0
    if parts > n:
        with pytest.raises(PartitionError, match="partitions from"):
            direct_kway_partition(hg, parts, b, seed=1, refiner=refiner)
        return
    result = direct_kway_partition(hg, parts, b, seed=1, refiner=refiner)
    check_result(hg, result, parts, b)
    if parts == n:
        assert sorted(result.assignment.tolist()) == list(range(n))
    if shape == "no nets":
        assert result.cut_size == 0


@pytest.mark.parametrize("shape", sorted(DEGENERATE) + ["random"])
def test_batch_refine_two_blocks_of_three(shape):
    # blocks=(0, 1) of a 3-way state whose block 2 is frozen: block 2
    # keeps exactly its vertices, Formula 1 still holds, the cut does
    # not rise and the incremental state matches a recompute
    rng = np.random.default_rng(4)
    if shape == "random":
        hg = Hypergraph.from_edges([1] * N, [
            rng.choice(N, int(size), replace=False).tolist()
            for size in rng.integers(2, 6, 2 * N)])
    else:
        hg = DEGENERATE[shape](N)
    part = rng.permutation(np.arange(N) % 3)
    state = PartitionState(hg, 3, part)
    constraint = BalanceConstraint(3, 10.0)
    cut = state.cut_size
    result = batch_refine(state, constraint, blocks=(0, 1))
    assert np.array_equal(state.part == 2, part == 2)
    assert constraint.satisfied(state.part_weight)
    assert result.cut_size == state.cut_size <= cut
    assert result.gain == cut - state.cut_size
    got = (state.cut_size, state.connectivity, state.part_weight.tolist())
    state.recompute()
    assert got == (state.cut_size, state.connectivity,
                   state.part_weight.tolist())
    if shape == "random":
        assert result.moves > 0


def test_cut_oracles_skip_zero_pin_nets():
    # a zero-pin net spans no part: the from-scratch metrics agree with
    # PartitionState (they used to raise IndexError / count it as -w)
    hg = with_empty_nets(6)
    part = np.array([0, 0, 1, 1, 2, 2])
    state = PartitionState(hg, 3, part)
    assert hyperedge_cut(hg, part) == state.cut_size == 2
    assert connectivity_cut(hg, part) == state.connectivity == 2


# -- the design-driven drivers at degenerate k --------------------------------

#: the design-driven drivers, all at b = 10
DESIGN_DRIVERS = {
    "cone": lambda nl, k: design_driven_partition(nl, k=k, b=10.0, seed=1),
    "random": lambda nl, k: design_driven_partition(
        nl, k=k, b=10.0, seed=1, initial="random"),
    "recursive": lambda nl, k: recursive_design_driven_partition(
        nl, k=k, b=10.0, seed=1),
}

#: (k, driver) -> the PartitionError it raises on ``adder8`` (41 gates
#: behind 9 visible nodes); every other pair must return a balanced
#: result.  The recursive driver never flattens a super-gate, so it
#: stops at the visible-node count where the direct driver flattens on.
REJECTED = {
    ("gates", "recursive"): "invalid k=41 for 9 vertices",
    ("gates+1", "cone"): "cannot make 42 partitions from 41 gates",
    ("gates+1", "random"): "cannot make 42 partitions from 41 gates",
    ("gates+1", "recursive"): "invalid k=42 for 9 vertices",
}


@pytest.fixture(scope="module")
def adder8():
    return load_circuit("adder8")


@pytest.mark.parametrize("driver", sorted(DESIGN_DRIVERS))
@pytest.mark.parametrize("k", [1, 2, "visible", "gates", "gates+1"])
def test_design_drivers_on_degenerate_k(adder8, driver, k):
    visible = len(Clustering.top_level(adder8))
    assert (visible, adder8.num_gates) == (9, 41)
    parts = {"visible": visible, "gates": adder8.num_gates,
             "gates+1": adder8.num_gates + 1}.get(k, k)
    if (k, driver) in REJECTED:
        with pytest.raises(PartitionError, match=REJECTED[(k, driver)]):
            DESIGN_DRIVERS[driver](adder8, parts)
        return
    result = DESIGN_DRIVERS[driver](adder8, parts)
    gates = result.gate_assignment()
    assert gates.shape == (adder8.num_gates,)
    assert ((gates >= 0) & (gates < parts)).all()
    assert result.part_weights.tolist() == np.bincount(
        gates, minlength=parts).tolist()
    assert result.cut_size == hyperedge_cut(result.clustering.hypergraph(),
                                            result.assignment)
    assert result.balanced
    assert BalanceConstraint(parts, 10.0).satisfied(result.part_weights)


# -- balance factors that are not >= 0 ----------------------------------------

#: every partition entry point, called at k = 2 with balance factor b
ENTRY_POINTS = {
    "design": lambda nl, b: design_driven_partition(nl, k=2, b=b),
    "recursive": lambda nl, b: recursive_design_driven_partition(
        nl, k=2, b=b),
    "multilevel": lambda nl, b: multilevel_kway_partition(
        flat_hypergraph(nl), 2, b),
    "direct": lambda nl, b: direct_kway_partition(flat_hypergraph(nl), 2, b),
}


@pytest.mark.parametrize("b", [float("nan"), -1.0])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_bad_balance_factor_is_a_config_error(adder8, entry, b):
    # NaN compares False against everything, so `b < 0` let it through:
    # loads [41, 0] and cut 0 from the design drivers, a bare ValueError
    # from the multilevel engine
    with pytest.raises(ConfigError, match="b must be >= 0"):
        ENTRY_POINTS[entry](adder8, b)


@pytest.mark.parametrize("algorithm", ["design", "multilevel"])
def test_cli_rejects_a_nan_balance_factor(algorithm, capsys):
    out = io.StringIO()
    code = main(["partition", "circuit:adder8", "-k", "2", "-b", "nan",
                 "--algorithm", algorithm], out=out)
    assert code == 1
    assert out.getvalue() == ""
    assert "error: b must be >= 0, got nan" in capsys.readouterr().err


# -- the Verilog front end under fuzzing ---------------------------------------

#: tokens a soup is drawn from: keywords, primitives, names, numbers,
#: literals (some too wide), punctuation and a few stray characters
_TOKENS = (
    "module", "endmodule", "input", "output", "inout", "wire", "supply0",
    "supply1", "assign", "and", "or", "nand", "xor", "not", "buf", "dff",
    "dffr", "m", "t", "a", "b", "y", "u0", "v", "0", "1", "3", "7",
    "65536", "1'b0", "1'bx", "4'hf", "2'd3", "'b101", "70000'b1",
    "999999999'b1", "(", ")", "[", "]", ":", ";", ",", ".", "{", "}", "=",
    "#", "@", "\\", "`", "//", "/*", "*/", "\n",
)
#: small registered circuits whose text the mutations start from
_SEEDS = {name: circuit_source(name)
          for name in ("adder8", "counter8", "mul4", "noc-test")}


def _front_end(text: str) -> None:
    """Lex, parse and elaborate ``text``; a rejection must be a typed,
    located front-end error."""
    from repro.verilog import compile_verilog

    try:
        compile_verilog(text)
    except VerilogError as exc:
        if isinstance(exc, ElaborationError):
            assert str(exc)
        else:  # the lexer and the parser point into the text
            assert 1 <= exc.line <= text.count("\n") + 1, exc
            assert exc.column >= 1, exc
    except NetlistError as exc:
        assert str(exc)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(_TOKENS), max_size=60),
       st.booleans())
def test_fuzz_token_soup(tokens, wrap):
    body = " ".join(tokens)
    _front_end(f"module m (a, y);\n{body}\nendmodule\n" if wrap else body)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(_SEEDS)), st.lists(st.tuples(
    st.sampled_from(("delete", "duplicate", "replace", "insert")),
    st.floats(0, 1), st.integers(1, 40), st.sampled_from(_TOKENS),
), min_size=1, max_size=4))
def test_fuzz_mutated_circuit(name, mutations):
    text = _SEEDS[name]
    for kind, where, span, token in mutations:
        at = int(where * len(text))
        if kind == "delete":
            text = text[:at] + text[at + span:]
        elif kind == "duplicate":
            text = text[:at] + text[at:at + span] + text[at:]
        elif kind == "replace":
            text = text[:at] + token + text[at + len(token):]
        else:
            text = text[:at] + " " + token + " " + text[at:]
    _front_end(text)
