r"""Tokenizer for the structural gate-level Verilog subset.

Handles identifiers (including escaped ``\foo`` identifiers emitted by
synthesis tools), sized/unsized numeric literals (``8'hFF``, ``1'b0``,
``42``), punctuation, line (``//``) and block (``/* */``) comments, and
compiler directives (backtick lines are skipped — timescale directives
are irrelevant to a unit-delay model).
"""

from __future__ import annotations

import re
from typing import NamedTuple

from ..errors import LexError

__all__ = ["Token", "tokenize", "KEYWORDS"]

KEYWORDS = frozenset(
    {
        "module",
        "endmodule",
        "input",
        "output",
        "inout",
        "wire",
        "assign",
        "supply0",
        "supply1",
    }
)

#: one alternative per token class, tried in order at each position;
#: ``skip`` takes a whole run of whitespace, comments and directives
#: (backtick lines); ``open`` and ``bad_base`` only match what the
#: earlier alternatives rejected, to name the error
_TOKEN = re.compile(
    r"""
    (?P<skip>(?:[ \t\r\n]+|//[^\n]*|/\*.*?\*/|`[^\n]*)+)
    |(?P<word>[A-Za-z_$][A-Za-z0-9_$]*)
    |(?P<based>(?:[0-9][0-9_]*)?'[sS]?[bBoOdDhH][A-Za-z0-9_$?]*)
    |(?P<number>[0-9][0-9_]*(?!['0-9_]))
    |(?P<punct>[()\[\]{},;:=.\#])
    |\\(?P<escaped>[^ \t\r\n]+)
    |(?P<open>/\*)
    |(?P<empty_escape>\\)
    |(?P<bad_base>(?:[0-9][0-9_]*)?')
    """,
    re.VERBOSE | re.DOTALL,
)

_ERRORS = {
    "open": "unterminated block comment",
    "empty_escape": "empty escaped identifier",
    "bad_base": "malformed based literal",
}


class Token(NamedTuple):
    """One lexical token.

    ``kind`` is one of ``"ident"``, ``"keyword"``, ``"number"``,
    ``"sized_number"``, a punctuation string, or ``"eof"``.  For
    ``sized_number`` the ``value`` keeps the raw literal text (e.g.
    ``"4'b10x1"``); parsing of the base/bits happens in the parser so
    error positions are preserved.
    """

    kind: str
    value: str
    line: int
    column: int


def tokenize(text: str) -> list[Token]:
    """Tokenize Verilog source text; raises :class:`LexError` on
    unrecognized characters.

    One compiled pattern matched at each position; columns count
    characters from the last newline, which only skipped whitespace,
    comments and directives can contain.
    """
    match = _TOKEN.match
    tokens: list[Token] = []
    append = tokens.append
    line, line_start, pos, n = 1, 0, 0, len(text)
    while pos < n:
        m = match(text, pos)
        if m is None:
            raise LexError(f"unexpected character {text[pos]!r}",
                           line, pos - line_start + 1)
        kind = m.lastgroup
        end = m.end()
        if kind == "skip":
            newlines = text.count("\n", pos, end)
            if newlines:
                line += newlines
                line_start = text.rindex("\n", pos, end) + 1
        elif kind == "word":
            word = m.group()
            append(Token("keyword" if word in KEYWORDS else "ident", word,
                         line, pos - line_start + 1))
        elif kind == "punct":
            c = text[pos]
            append(Token(c, c, line, pos - line_start + 1))
        elif kind == "number":
            append(Token("number", m.group().replace("_", ""),
                         line, pos - line_start + 1))
        elif kind == "based":
            append(Token("sized_number", m.group(),
                         line, pos - line_start + 1))
        elif kind == "escaped":
            append(Token("ident", m.group(kind), line, pos - line_start + 1))
        else:
            raise LexError(_ERRORS[kind], line, pos - line_start + 1)
        pos = end
    append(Token("eof", "", line, n - line_start + 1))
    return tokens
