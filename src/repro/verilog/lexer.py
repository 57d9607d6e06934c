r"""Tokenizer for the structural gate-level Verilog subset.

Handles identifiers (including escaped ``\foo`` identifiers emitted by
synthesis tools), sized/unsized numeric literals (``8'hFF``, ``1'b0``,
``42``), punctuation, line (``//``) and block (``/* */``) comments, and
compiler directives (backtick lines are skipped — timescale directives
are irrelevant to a unit-delay model).

:class:`Scan` is what the parser reads: one ``re.split`` over the text
gives every token's string and the skipped text before it, and each
*distinct* token string is classified once.  No token carries a
position: :meth:`Scan.line` counts a token's line from the skipped
text when the parser stamps a statement's line, and
:meth:`Scan.positions` walks every token's line and column, which
:meth:`Scan.position` does only to report an error and
:func:`tokenize` does to build positioned :class:`Token` tuples.
"""

from __future__ import annotations

import re
from itertools import islice
from typing import Iterator, NamedTuple

from ..errors import LexError

__all__ = ["Token", "tokenize", "Scan", "KEYWORDS"]

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

#: one match per token: group 1 takes the longest run of whitespace,
#: comments and directives (backtick lines); group 2 takes the token.
#: Group 2 matches wherever the run ends (``.`` or ``\Z`` at the
#: latest), so the engine never backtracks into the run.  Its
#: alternatives are tried in order; those after the escaped identifier
#: only match what the earlier ones rejected, to name the error, and
#: the empty match at the end of the text is the eof token
_TOKEN = re.compile(
    r"""
    ((?:[ \t\r\n]+|//[^\n]*|/\*.*?\*/|`[^\n]*)*)
    ([A-Za-z_$][A-Za-z0-9_$]*
    |[()\[\]{},;:=.\#]
    |(?:[0-9][0-9_]*)?'[sS]?[bBoOdDhH][A-Za-z0-9_$?]*
    |[0-9][0-9_]*(?!['0-9_])
    |\\[^ \t\r\n]+
    |/\*
    |\\
    |(?:[0-9][0-9_]*)?'
    |.
    |\Z)
    """,
    re.VERBOSE | re.DOTALL,
)

_WORD_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_$")
_PUNCT = frozenset("()[]{},;:=.#")
_DIGITS = frozenset("0123456789")


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


def _classify(tok: str) -> tuple[str, str]:
    """``(kind, value)`` of one scanned string, or ``("error",
    message)`` for a string that is no token."""
    first = tok[:1]
    if not first:
        return "eof", ""
    if first in _WORD_START:
        return ("keyword" if tok in KEYWORDS else "ident"), tok
    if first in _PUNCT:
        return tok, tok
    if first == "\\":
        if len(tok) == 1:
            return "error", "empty escaped identifier"
        return "ident", tok[1:]
    if "'" in tok:
        if tok[-1] == "'":
            return "error", "malformed based literal"
        return "sized_number", tok
    if first in _DIGITS:
        return "number", tok.replace("_", "")
    if tok == "/*":
        return "error", "unterminated block comment"
    return "error", f"unexpected character {tok!r}"


class Scan:
    """The tokens of one text: ``toks`` their strings, ending with the
    eof string ``""``, and ``info`` the ``(kind, value)`` of each
    distinct string.

    Raises :class:`LexError` at the first string that is no token, as a
    per-position lexer would: the scan is contiguous, so every string
    before it is a token.
    """

    def __init__(self, text: str) -> None:
        # contiguous matches leave no text between them: parts are
        # ["", skip, token] per match, then the empty tail
        parts = _TOKEN.split(text)
        self.toks: list[str] = parts[2::3]
        self._skips: list[str] = parts[1::3]
        if self.toks[-2:] == ["", ""]:
            # skipped text at the end: the match that took it and the
            # empty match after it both give the eof string
            self.toks.pop()
            self._skips.pop()
        self._index, self._line = -1, 1
        self.info = {tok: _classify(tok) for tok in set(self.toks)}
        bad = [tok for tok, (kind, _) in self.info.items() if kind == "error"]
        if bad:
            index = min(map(self.toks.index, bad))
            raise LexError(self.info[self.toks[index]][1], *self.position(index))

    def line(self, index: int) -> int:
        """1-based line of token ``index``.  Lookups in increasing
        order count only the skipped text since the last one."""
        if index < self._index:
            self._index, self._line = -1, 1
        if index > self._index:
            skipped = "".join(self._skips[self._index + 1:index + 1])
            self._line += skipped.count("\n")
            self._index = index
        return self._line

    def position(self, index: int) -> tuple[int, int]:
        """1-based ``(line, column)`` of token ``index``."""
        return next(islice(self.positions(), index, None))

    def positions(self) -> Iterator[tuple[int, int]]:
        """1-based ``(line, column)`` of every token in order; columns
        count characters from the last newline, which only skipped
        whitespace, comments and directives can contain."""
        line, line_start, offset = 1, 0, 0
        for tok, skip in zip(self.toks, self._skips):
            newlines = skip.count("\n")
            if newlines:
                line += newlines
                line_start = offset + skip.rindex("\n") + 1
            offset += len(skip)
            yield line, offset - line_start + 1
            offset += len(tok)


def tokenize(text: str) -> list[Token]:
    """Tokenize Verilog source text; raises :class:`LexError` on
    unrecognized characters.

    The strings a :class:`Scan` gives, each with its kind, value and
    :meth:`Scan.positions` entry.
    """
    scan = Scan(text)
    return [Token(*scan.info[tok], line, column)
            for tok, (line, column) in zip(scan.toks, scan.positions())]
