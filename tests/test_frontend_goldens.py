"""Byte-level pins of the Verilog front end's results and rejections.

* **Seeded corpus.**  300 hostile texts (:func:`tests.verilog_fuzz.
  seeded_corpus`: 150 token soups, 150 mutated registered circuits,
  seed 2008).  For each text ``tests/goldens/frontend_corpus.jsonl``
  holds the text's sha256 prefix and either the elaborated netlist's
  :func:`~tests.netlist_rows.column_digest` or the exact rejection:
  error class, message, and for a lexer or parser error its line and
  column.  The Hypothesis fuzz in ``tests/test_robustness.py`` only
  checks that positions are in range; this pins them.
* **Registered circuits.**  sha256 of the ``repr`` of every registered
  circuit's :func:`~repro.verilog.parse_source` AST, statement ``line``
  fields included.

Both were computed with the per-position lexer and the
``Token``-reading parser.  Rewrite the corpus file only for a
deliberate change of a message::

    PYTHONPATH=src python -m tests.test_frontend_goldens \\
        > tests/goldens/frontend_corpus.jsonl
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.circuits import CIRCUITS, circuit_source
from repro.errors import NetlistError, VerilogError
from repro.verilog import compile_verilog, parse_source
from tests.netlist_rows import column_digest
from tests.verilog_fuzz import seeded_corpus

CORPUS = Path(__file__).resolve().parent / "goldens" / "frontend_corpus.jsonl"
CORPUS_SEED, SOUPS, MUTANTS = 2008, 150, 150

GOLDEN_AST = {
    "adder16": "bc8aaae00cdc245a7712faa401113053cf6bb30c55e00c0b690f3b960a66b0c4",
    "adder8": "cbe6e20a6b0883b83d782d55c58c81ea73755f13918b2e0c487e1fe117b7e730",
    "counter8": "d3bd97d52249c6cf2e0f280849f423e58f6c167f255dba955d044ae49a407650",
    "cpu-test": "3d7db0a993abfcfccfeb5a7ff308582300bfc636ccd986a47d8c738bc8bca00c",
    "cpu8": "9ffbff1a7a5b3d30a2c26fab45c20f8b001f34ca85e3fce9c3b5ce674ba766e6",
    "lfsr16": "408d73b83e40f63499135b09d004bdfd1838b9977b603996962f2326d8cc8231",
    "memctrl-bench": "d7ae75d33edf3b7abe7c3f63b20720ffd5970dfd72191e344ede54b32fa0030e",
    "memctrl-test": "47e28f0dfa9ae20a1baa9d6692c56033e148f0b5e314baf7044bb9da32185dea",
    "mesh3x3": "87e9a0c48ace3e6614dad296d07ea2c6bbbccdeaf103cca11523ec8be3b5e9c0",
    "mesh4x4": "9ebf404759e70c40958fcbc5bb089e64f951b4ff7ddc48e2827ae65a5eb74c9e",
    "mul4": "59df688dab1237f9c48da925ea1d205afdd2c630d2db781f4067f274f8fbc1f7",
    "mul6": "8094302177d4cbb7c71117bc1e1186958c2ad555166d3b5008b736b2fcd6a6c1",
    "noc-bench": "1bbd2d5b98a9330c2c0f1cfe21cc5a80a7feb074927860a23d446223ef92e39b",
    "noc-test": "f2286bc826116daab6117e68fe2d7767d653d195c271e70c6835cf5fc29968e8",
    "pipeline4": "4aa3543eb892820061e4a785cc8c2be2da0c15d17bd5e585226d27515abcec3d",
    "pipeline8": "ff4c726c350ed0816e4ea1cc5fbcdf13cf1fc6529e075d3b244485b026c9e061",
    "randlogic": "aa427b101cfdaa236d9a14aff236b1ba866ff21acd8f70b0162482d20c038e4f",
    "viterbi-bench": "87b8cc2453616277e7f04de3e584d193aed98e5bc6e029b0459993590cd730c7",
    "viterbi-paper": "831cecf8762fafdb351d1f49312e4210933d6b0a69864d2434148b6bb8d14efa",
    "viterbi-paper-single": "373c1bf8908c11db0aea732ac44c09cb8aba0c8a3093744931381ad37163af9d",
    "viterbi-single": "87b8cc2453616277e7f04de3e584d193aed98e5bc6e029b0459993590cd730c7",
    "viterbi-test": "875f3f45a647686d35eb89fe01c070359aa7e5b18818092483b3fa1fe37ebf2b",
}


def outcome(text: str) -> list:
    """``[text sha256 prefix, netlist digest]`` for a text that
    elaborates, else ``[prefix, error class, message, line, column]``
    (``line`` / ``column`` are None past the parser)."""
    prefix = hashlib.sha256(text.encode()).hexdigest()[:16]
    try:
        netlist = compile_verilog(text)
    except (VerilogError, NetlistError) as exc:
        return [prefix, type(exc).__name__, str(exc),
                getattr(exc, "line", None), getattr(exc, "column", None)]
    return [prefix, column_digest(netlist)]


def corpus_outcomes() -> list[list]:
    return [outcome(text)
            for text in seeded_corpus(CORPUS_SEED, SOUPS, MUTANTS)]


def test_seeded_corpus_outcomes_are_pinned():
    pinned = [json.loads(line) for line in CORPUS.read_text().splitlines()]
    got = corpus_outcomes()
    assert len(got) == len(pinned) == SOUPS + MUTANTS
    for i, (want, have) in enumerate(zip(pinned, got)):
        assert have == want, f"corpus text {i}"


def test_corpus_reaches_every_stage():
    """The corpus is only a pin of positions if it has lexer and parser
    rejections in it, and of the rest if some texts get further."""
    kinds = {row[1] if len(row) > 2 else "ok"
             for row in (json.loads(line)
                         for line in CORPUS.read_text().splitlines())}
    assert {"LexError", "ParseError", "ElaborationError", "ok"} <= kinds


@pytest.mark.parametrize("name", sorted(CIRCUITS))
def test_registered_circuit_ast_is_pinned(name):
    source = parse_source(circuit_source(name))
    assert hashlib.sha256(repr(source).encode()).hexdigest() == GOLDEN_AST[name]


if __name__ == "__main__":
    for row in corpus_outcomes():
        print(json.dumps(row))
