"""Recursive-descent parser for the structural gate-level Verilog subset.

Entry point: :func:`parse_source` (text → :class:`~repro.verilog.ast.Source`).

The grammar (EBNF, terminals quoted)::

    source        := { module }
    module        := "module" ident "(" [ port_list ] ")" ";" { item } "endmodule"
    port_list     := ident { "," ident }
    item          := port_decl | net_decl | gate_inst | assign | module_inst
    port_decl     := ("input"|"output"|"inout") [ range ] ident { "," ident } ";"
    net_decl      := ("wire"|"supply0"|"supply1") [ range ] ident { "," ident } ";"
    range         := "[" number ":" number "]"
    gate_inst     := gate_type [ delay ] gate_body { "," gate_body } ";"
    gate_body     := [ ident ] "(" expr { "," expr } ")"
    delay         := "#" ( number | "(" number { "," number } ")" )
    module_inst   := ident inst_body { "," inst_body } ";"
    inst_body     := ident "(" connections ")"
    connections   := expr { "," expr }              (positional)
                   | named_conn { "," named_conn }  (named)
    named_conn    := "." ident "(" [ expr ] ")"
    assign        := "assign" lvalue "=" expr ";"
    expr          := concat | primary
    concat        := "{" expr { "," expr } "}"
    primary       := ident [ "[" number [ ":" number ] "]" ] | literal

Delays are parsed and discarded (the simulation model is unit-delay, as
in the paper).  Multi-output ``buf``/``not`` forms are normalized into
one gate per output.
"""

from __future__ import annotations

from pathlib import Path

from ..errors import ParseError
from . import ast
from .lexer import Token, tokenize
from .primitives import COMBINATIONAL_GATES, SEQUENTIAL_CELLS, is_gate_type

__all__ = ["parse_source", "parse_file", "parse_literal_bits"]

#: the widest vector or literal accepted: IEEE 1364-2005 guarantees
#: 2^16 bits (the widest in any registered circuit is 64)
MAX_WIDTH = 1 << 16
#: decimal digits in an index or a literal's size (int64), and in a
#: decimal literal (what ``int()`` converts)
_MAX_INDEX_DIGITS, _MAX_DECIMAL_DIGITS = 18, 4300

_NET_KINDS = ("wire", "supply0", "supply1")


def parse_source(text: str) -> ast.Source:
    """Parse Verilog source text into a :class:`~repro.verilog.ast.Source`."""
    return _Parser(tokenize(text)).parse()


def parse_file(path: str | Path) -> ast.Source:
    """Parse a Verilog file."""
    return parse_source(Path(path).read_text())


def parse_literal_bits(raw: str, line: int = 0, col: int = 0) -> tuple[int, ...]:
    """Decode a Verilog literal into LSB-first bits (0/1/2 for x/z).

    ``raw`` may be sized+based (``4'b10x1``), based without size
    (``'hff``), or plain decimal (``13`` → minimal width).  Anything
    else — a digit the base does not have, a zero or non-decimal size —
    is a :class:`ParseError` at ``line``/``col``.
    """
    text = raw.replace("_", "")
    shown = raw if len(raw) <= 40 else raw[:36] + "..."
    too_wide = ParseError(
        f"literal {shown!r} is wider than {MAX_WIDTH} bits "
        f"or {_MAX_DECIMAL_DIGITS} decimal digits", line, col)
    if "'" not in text:
        if not _is_decimal(text):
            raise ParseError(f"malformed literal {raw!r}", line, col)
        if len(text.lstrip("0")) > _MAX_DECIMAL_DIGITS:
            raise too_wide
        return _bits_of(int(text))
    size_txt, rest = text.split("'", 1)
    if size_txt and not _is_decimal(size_txt):
        raise ParseError(f"malformed size in literal {raw!r}", line, col)
    if size_txt and not size_txt.lstrip("0"):
        raise ParseError(f"literal {raw!r} has zero width", line, col)
    if size_txt and (len(size_txt.lstrip("0")) > _MAX_INDEX_DIGITS
                     or int(size_txt) > MAX_WIDTH):
        raise too_wide
    rest = rest.lstrip("sS")
    per_digit = {"b": 1, "o": 3, "h": 4, "d": 0}.get(rest[:1].lower())
    if per_digit is None:
        raise ParseError(f"malformed literal {raw!r}", line, col)
    base_ch = rest[0].lower()
    digits = rest[1:]
    if not digits:
        raise ParseError(f"literal {raw!r} has no digits", line, col)
    if len(digits) * per_digit > MAX_WIDTH:
        raise too_wide
    bits: list[int] = []
    if base_ch == "d":
        if not _is_decimal(digits):
            bad = next(ch for ch in digits if ch not in "0123456789")
            raise ParseError(f"bad digit {bad!r} in literal {raw!r}", line, col)
        if len(digits.lstrip("0")) > _MAX_DECIMAL_DIGITS:
            raise too_wide
        bits = list(_bits_of(int(digits)))
    else:
        for ch in reversed(digits.lower()):
            if ch in "xz?":
                bits.extend([2] * per_digit)
            else:
                try:
                    value = int(ch, 16 if base_ch == "h" else 8 if base_ch == "o" else 2)
                except ValueError:
                    raise ParseError(f"bad digit {ch!r} in literal {raw!r}", line, col)
                for i in range(per_digit):
                    bits.append((value >> i) & 1)
    if size_txt:
        size = int(size_txt)
        if len(bits) < size:
            # pad with 0, or with x if the MSB digit was x/z
            pad = bits[-1] if bits and bits[-1] == 2 else 0
            bits.extend([pad] * (size - len(bits)))
        bits = bits[:size]
    return tuple(bits)


def _is_decimal(text: str) -> bool:
    """Whether ``text`` is one or more ASCII decimal digits."""
    return text.isascii() and text.isdigit()


def _bits_of(value: int) -> tuple[int, ...]:
    """LSB-first bits of a non-negative integer, at least one."""
    bits = []
    while value:
        bits.append(value & 1)
        value >>= 1
    return tuple(bits) or (0,)


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self._toks = tokens
        self._pos = 0

    # -- token helpers ----------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        return self._toks[min(self._pos + offset, len(self._toks) - 1)]

    def _next(self) -> Token:
        tok = self._toks[self._pos]
        if tok.kind != "eof":
            self._pos += 1
        return tok

    def _expect(self, kind: str, what: str | None = None) -> Token:
        tok = self._next()
        if tok.kind != kind:
            raise ParseError(
                f"expected {what or kind!r}, found {tok.value or tok.kind!r}",
                tok.line,
                tok.column,
            )
        return tok

    def _expect_keyword(self, word: str) -> Token:
        tok = self._next()
        if tok.kind != "keyword" or tok.value != word:
            raise ParseError(
                f"expected {word!r}, found {tok.value or tok.kind!r}",
                tok.line,
                tok.column,
            )
        return tok

    def _at_keyword(self, word: str) -> bool:
        tok = self._peek()
        return tok.kind == "keyword" and tok.value == word

    # -- grammar ------------------------------------------------------------

    def parse(self) -> ast.Source:
        source = ast.Source()
        while self._peek().kind != "eof":
            source.add(self._module())
        return source

    def _module(self) -> ast.Module:
        self._expect_keyword("module")
        name = self._expect("ident", "module name").value
        module = ast.Module(name=name)
        if self._peek().kind == "(":
            self._next()
            if self._peek().kind != ")":
                module.port_order.append(self._expect("ident", "port name").value)
                while self._peek().kind == ",":
                    self._next()
                    module.port_order.append(self._expect("ident", "port name").value)
            self._expect(")")
        self._expect(";")
        while not self._at_keyword("endmodule"):
            tok = self._peek()
            if tok.kind == "eof":
                raise ParseError("unexpected end of file inside module", tok.line, tok.column)
            self._item(module)
        self._next()  # endmodule
        return module

    def _item(self, module: ast.Module) -> None:
        tok = self._peek()
        if tok.kind == "keyword" and tok.value in ("input", "output", "inout"):
            self._port_decl(module)
        elif tok.kind == "keyword" and tok.value in _NET_KINDS:
            self._net_decl(module)
        elif tok.kind == "keyword" and tok.value == "assign":
            self._assign(module)
        elif tok.kind == "ident" and is_gate_type(tok.value):
            self._gate_inst(module)
        elif tok.kind == "ident":
            self._module_inst(module)
        else:
            raise ParseError(
                f"unexpected token {tok.value or tok.kind!r} in module body",
                tok.line,
                tok.column,
            )

    def _index(self, what: str) -> int:
        tok = self._expect("number", what)
        if len(tok.value.lstrip("0")) > _MAX_INDEX_DIGITS:
            raise ParseError(f"{what} {tok.value} is out of range",
                             tok.line, tok.column)
        return int(tok.value)

    def _range(self) -> ast.Range:
        start = self._expect("[")
        msb = self._index("range msb")
        self._expect(":")
        lsb = self._index("range lsb")
        self._expect("]")
        rng = ast.Range(msb, lsb)
        if rng.width > MAX_WIDTH:
            raise ParseError(
                f"vector range [{msb}:{lsb}] is {rng.width} bits wide; "
                f"at most {MAX_WIDTH} are supported", start.line, start.column)
        return rng

    def _port_decl(self, module: ast.Module) -> None:
        direction = self._next().value
        rng = self._range() if self._peek().kind == "[" else None
        while True:
            tok = self._expect("ident", "port name")
            decl = ast.PortDecl(direction, tok.value, rng)
            if tok.value in module.port_decls:
                raise ParseError(f"duplicate port declaration {tok.value!r}", tok.line, tok.column)
            module.port_decls[tok.value] = decl
            if tok.value not in module.port_order:
                # ANSI-less style: allow decls for ports not in header only
                # if the header was empty (legacy tools sometimes omit it).
                if module.port_order:
                    raise ParseError(
                        f"port {tok.value!r} not in module header", tok.line, tok.column
                    )
                module.port_order.append(tok.value)
            if self._peek().kind == ",":
                self._next()
                continue
            break
        self._expect(";")

    def _net_decl(self, module: ast.Module) -> None:
        kind = self._next().value
        rng = self._range() if self._peek().kind == "[" else None
        while True:
            tok = self._expect("ident", "net name")
            module.net_decls[tok.value] = ast.NetDecl(tok.value, rng, kind)
            if self._peek().kind == ",":
                self._next()
                continue
            break
        self._expect(";")

    def _assign(self, module: ast.Module) -> None:
        tok = self._next()  # 'assign'
        lhs = self._expr()
        self._expect("=")
        rhs = self._expr()
        self._expect(";")
        module.assigns.append(ast.Assign(lhs, rhs, line=tok.line))

    def _delay(self) -> None:
        """Parse and discard a delay spec ``#n`` or ``#(a[,b[,c]])``."""
        self._next()  # '#'
        if self._peek().kind == "(":
            self._next()
            self._expect("number", "delay value")
            while self._peek().kind == ",":
                self._next()
                self._expect("number", "delay value")
            self._expect(")")
        else:
            self._expect("number", "delay value")

    def _gate_inst(self, module: ast.Module) -> None:
        head = self._next()
        gtype = head.value
        if self._peek().kind == "#":
            self._delay()
        while True:
            name: str | None = None
            if self._peek().kind == "ident":
                name = self._next().value
            tok = self._expect("(")
            terms: list[ast.Expr] = [self._expr()]
            while self._peek().kind == ",":
                self._next()
                terms.append(self._expr())
            self._expect(")")
            self._check_gate_arity(gtype, terms, tok)
            if gtype in ("buf", "not") and len(terms) > 2:
                # multi-output form: last terminal is the input
                for i, out in enumerate(terms[:-1]):
                    gname = f"{name}_{i}" if name else None
                    module.gates.append(
                        ast.GateInst(gtype, gname, (out, terms[-1]), line=tok.line)
                    )
            else:
                module.gates.append(
                    ast.GateInst(gtype, name, tuple(terms), line=tok.line)
                )
            if self._peek().kind == ",":
                self._next()
                continue
            break
        self._expect(";")

    def _check_gate_arity(self, gtype: str, terms: list[ast.Expr], tok: Token) -> None:
        spec = COMBINATIONAL_GATES.get(gtype) or SEQUENTIAL_CELLS[gtype]
        n_in = len(terms) - 1
        if gtype in ("buf", "not"):
            if n_in < 1:
                raise ParseError(f"{gtype} needs an output and an input", tok.line, tok.column)
            return
        if n_in < spec.min_inputs or (
            spec.max_inputs is not None and n_in > spec.max_inputs
        ):
            raise ParseError(
                f"{gtype} gate has {n_in} inputs, expected "
                f"{spec.min_inputs}"
                + ("" if spec.max_inputs == spec.min_inputs else "+"),
                tok.line,
                tok.column,
            )

    def _module_inst(self, module: ast.Module) -> None:
        head = self._next()
        module_name = head.value
        if self._peek().kind == "#":
            self._delay()
        while True:
            inst_tok = self._expect("ident", "instance name")
            self._expect("(")
            positional: tuple[ast.Expr, ...] | None = None
            named: tuple[tuple[str, ast.Expr], ...] | None = None
            if self._peek().kind == ".":
                conns: list[tuple[str, ast.Expr]] = []
                while True:
                    self._expect(".")
                    pname = self._expect("ident", "port name").value
                    self._expect("(")
                    if self._peek().kind == ")":
                        expr: ast.Expr = ast.Unconnected()
                    else:
                        expr = self._expr()
                    self._expect(")")
                    conns.append((pname, expr))
                    if self._peek().kind == ",":
                        self._next()
                        continue
                    break
                named = tuple(conns)
            elif self._peek().kind == ")":
                positional = ()
            else:
                exprs: list[ast.Expr] = [self._expr()]
                while self._peek().kind == ",":
                    self._next()
                    exprs.append(self._expr())
                positional = tuple(exprs)
            self._expect(")")
            module.instances.append(
                ast.ModuleInst(
                    module_name,
                    inst_tok.value,
                    positional=positional,
                    named=named,
                    line=inst_tok.line,
                )
            )
            if self._peek().kind == ",":
                self._next()
                continue
            break
        self._expect(";")

    def _expr(self) -> ast.Expr:
        tok = self._peek()
        if tok.kind == "{":
            self._next()
            items: list[ast.Expr] = [self._expr()]
            while self._peek().kind == ",":
                self._next()
                items.append(self._expr())
            self._expect("}")
            return ast.Concat(tuple(items))
        if tok.kind in ("number", "sized_number"):
            self._next()
            return ast.Literal(parse_literal_bits(tok.value, tok.line, tok.column))
        if tok.kind == "ident":
            self._next()
            if self._peek().kind == "[":
                self._next()
                first = self._index("index")
                if self._peek().kind == ":":
                    self._next()
                    second = self._index("index")
                    self._expect("]")
                    return ast.PartSelect(tok.value, first, second)
                self._expect("]")
                return ast.BitSelect(tok.value, first)
            return ast.Identifier(tok.value)
        raise ParseError(
            f"expected expression, found {tok.value or tok.kind!r}",
            tok.line,
            tok.column,
        )
