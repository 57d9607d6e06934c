"""Hostile Verilog texts for the front-end fuzz tests.

Two generators, shared by the Hypothesis fuzz in
``tests/test_robustness.py`` and the seeded corpus that
``tests/test_frontend_goldens.py`` pins: a *token soup* (tokens drawn
from :data:`TOKENS`, optionally wrapped in a module header) and a
*mutation* of a small registered circuit's text (deletions,
duplications, replacements and insertions at chosen offsets).
"""

from __future__ import annotations

import random

from repro.circuits import circuit_source

#: tokens a soup is drawn from: keywords, primitives, names, numbers,
#: literals (some too wide), punctuation and a few stray characters
TOKENS = (
    "module", "endmodule", "input", "output", "inout", "wire", "supply0",
    "supply1", "assign", "and", "or", "nand", "xor", "not", "buf", "dff",
    "dffr", "m", "t", "a", "b", "y", "u0", "v", "0", "1", "3", "7",
    "65536", "1'b0", "1'bx", "4'hf", "2'd3", "'b101", "70000'b1",
    "999999999'b1", "(", ")", "[", "]", ":", ";", ",", ".", "{", "}", "=",
    "#", "@", "\\", "`", "//", "/*", "*/", "\n",
)
#: the four edits a mutation applies
EDITS = ("delete", "duplicate", "replace", "insert")
#: small registered circuits whose text the mutations start from
SEEDS = {name: circuit_source(name)
         for name in ("adder8", "counter8", "mul4", "noc-test")}


def soup_text(tokens, wrap: bool) -> str:
    """``tokens`` joined by spaces, inside a module header if ``wrap``."""
    body = " ".join(tokens)
    return f"module m (a, y);\n{body}\nendmodule\n" if wrap else body


def mutated_text(name: str, mutations) -> str:
    """:data:`SEEDS` ``[name]`` after each ``(edit, where, span, token)``
    in turn; ``where`` in [0, 1] is the offset as a share of the text."""
    text = SEEDS[name]
    for edit, where, span, token in mutations:
        at = int(where * len(text))
        if edit == "delete":
            text = text[:at] + text[at + span:]
        elif edit == "duplicate":
            text = text[:at] + text[at:at + span] + text[at:]
        elif edit == "replace":
            text = text[:at] + token + text[at + len(token):]
        else:
            text = text[:at] + " " + token + " " + text[at:]
    return text


def seeded_corpus(seed: int, soups: int, mutants: int) -> list[str]:
    """``soups`` token soups then ``mutants`` mutated circuits, drawn
    from ``random.Random(seed)`` with the Hypothesis tests' bounds."""
    rng = random.Random(seed)
    texts = [
        soup_text([rng.choice(TOKENS) for _ in range(rng.randint(0, 60))],
                  rng.random() < 0.5)
        for _ in range(soups)
    ]
    for _ in range(mutants):
        name = rng.choice(sorted(SEEDS))
        texts.append(mutated_text(name, [
            (rng.choice(EDITS), rng.random(), rng.randint(1, 40),
             rng.choice(TOKENS))
            for _ in range(rng.randint(1, 4))
        ]))
    return texts
