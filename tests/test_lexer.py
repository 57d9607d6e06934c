"""Lexer unit tests."""

import hashlib
import json
import random

import pytest

from repro.circuits import circuit_source

from repro.errors import LexError
from repro.verilog.lexer import Scan, Token, tokenize


def kinds(text):
    return [t.kind for t in tokenize(text)]


def values(text):
    return [t.value for t in tokenize(text) if t.kind != "eof"]


class TestTokens:
    def test_keywords_vs_idents(self):
        toks = tokenize("module foo endmodule")
        assert [t.kind for t in toks[:-1]] == ["keyword", "ident", "keyword"]

    def test_punctuation(self):
        assert kinds("( ) [ ] { } , ; : = . #")[:-1] == [
            "(", ")", "[", "]", "{", "}", ",", ";", ":", "=", ".", "#",
        ]

    def test_plain_number(self):
        toks = tokenize("42")
        assert toks[0].kind == "number"
        assert toks[0].value == "42"

    def test_underscore_in_number(self):
        assert tokenize("1_000")[0].value == "1000"

    def test_sized_binary(self):
        t = tokenize("4'b10x1")[0]
        assert t.kind == "sized_number"
        assert t.value == "4'b10x1"

    def test_sized_hex(self):
        assert tokenize("8'hFF")[0].kind == "sized_number"

    def test_unsized_based(self):
        assert tokenize("'b0")[0].kind == "sized_number"

    def test_signed_literal(self):
        assert tokenize("4'sb1010")[0].kind == "sized_number"

    def test_identifier_with_dollar(self):
        assert tokenize("a$b")[0].value == "a$b"

    def test_escaped_identifier(self):
        toks = tokenize("\\foo.bar[3] baz")
        assert toks[0].kind == "ident"
        assert toks[0].value == "foo.bar[3]"
        assert toks[1].value == "baz"

    def test_line_comment(self):
        assert values("a // comment\n b") == ["a", "b"]

    def test_block_comment(self):
        assert values("a /* many\nlines */ b") == ["a", "b"]

    def test_directive_skipped(self):
        assert values("`timescale 1ns/1ps\nmodule") == ["module"]

    def test_eof_token(self):
        assert tokenize("")[-1].kind == "eof"

    def test_positions(self):
        toks = tokenize("ab\n  cd")
        assert (toks[0].line, toks[0].column) == (1, 1)
        assert (toks[1].line, toks[1].column) == (2, 3)


class TestLexErrors:
    def test_unknown_char(self):
        with pytest.raises(LexError, match="unexpected character"):
            tokenize("a @ b")

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError, match="unterminated"):
            tokenize("/* never closed")

    def test_empty_escaped_identifier(self):
        with pytest.raises(LexError, match="empty escaped"):
            tokenize("\\ foo")

    def test_malformed_based_literal(self):
        with pytest.raises(LexError, match="malformed"):
            tokenize("4'q0")

    def test_error_carries_position(self):
        try:
            tokenize("ab\n  @")
        except LexError as e:
            assert e.line == 2
            assert e.column == 3
        else:  # pragma: no cover
            pytest.fail("expected LexError")

    @pytest.mark.parametrize("text,message,line,column", [
        ("x /* a\n\n*/ y\n  /* open", "unterminated block comment", 4, 3),
        ("a\r\n\t\\ b", "empty escaped identifier", 2, 2),
        ("w = 12'q;", "malformed based literal", 1, 5),
        ("9'", "malformed based literal", 1, 1),
        ("a_1 4'sx", "malformed based literal", 1, 5),
        ("b /**/ '\n", "malformed based literal", 1, 8),
        ("// c\n`define X\n  ~", "unexpected character '~'", 3, 3),
    ])
    def test_error_text_and_position(self, text, message, line, column):
        with pytest.raises(LexError) as info:
            tokenize(text)
        assert str(info.value) == f"{message} (line {line}, column {column})"
        assert (info.value.line, info.value.column) == (line, column)


#: sha256 of every (kind, value, line, column) of a registered circuit's
#: text, computed with the per-character lexer the compiled pattern
#: replaced
TOKEN_STREAM_SHA = {
    "cpu-test": (
        6676, "848c604f71b9cd9ba5b7018ca08a79d0e5e8620be8e8cf076aad7153e1bbeb00"),
    "memctrl-test": (
        1089, "4caa58b93d49883298677a33b017f2873e6ae56b30d473446ecd6f733c1c0502"),
    "viterbi-test": (
        2512, "b31151e0223a4513b7d8e97090c76691e31e089b1eb2a9e3dabb2372af695e0c"),
}


@pytest.mark.parametrize("name", sorted(TOKEN_STREAM_SHA))
def test_registered_circuit_tokens_are_pinned(name):
    toks = [[t.kind, t.value, t.line, t.column]
            for t in tokenize(circuit_source(name))]
    digest = hashlib.sha256(json.dumps(toks).encode()).hexdigest()
    assert (len(toks), digest) == TOKEN_STREAM_SHA[name]


@pytest.mark.parametrize("name", ["cpu-test", "memctrl-test"])
def test_scan_positions_in_any_order_match_tokenize(name):
    """``Scan`` counts a position from the skipped text on demand; asked
    out of order it starts over, and every answer is the token's."""
    text = circuit_source(name)
    toks = tokenize(text)
    scan = Scan(text)
    assert scan.toks[-1] == "" and len(scan.toks) == len(toks)
    order = list(range(len(toks)))
    random.Random(7).shuffle(order)
    for i in order[:300]:
        assert scan.position(i) == (toks[i].line, toks[i].column)
        assert scan.line(i) == toks[i].line
