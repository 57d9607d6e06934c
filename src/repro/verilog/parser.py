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
from .lexer import Scan
from .primitives import COMBINATIONAL_GATES, SEQUENTIAL_CELLS, is_gate_type

__all__ = ["parse_source", "parse_file", "parse_literal_bits"]

#: the widest vector or literal accepted: IEEE 1364-2005 guarantees
#: 2^16 bits (the widest in any registered circuit is 64)
MAX_WIDTH = 1 << 16
#: decimal digits in an index or a literal's size (int64), and in a
#: decimal literal (what ``int()`` converts)
_MAX_INDEX_DIGITS, _MAX_DECIMAL_DIGITS = 18, 4300

_DIRECTIONS = ("input", "output", "inout")
_NET_KINDS = ("wire", "supply0", "supply1")


def parse_source(text: str) -> ast.Source:
    """Parse Verilog source text into a :class:`~repro.verilog.ast.Source`."""
    return _Parser(Scan(text)).parse()


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
    try:
        return _literal_bits(raw)
    except _BadLiteral as exc:
        raise ParseError(str(exc), line, col) from None


class _BadLiteral(Exception):
    """A literal :func:`_literal_bits` rejects; the caller adds where."""


def _literal_bits(raw: str) -> tuple[int, ...]:
    """:func:`parse_literal_bits` without a position."""
    text = raw.replace("_", "")
    shown = raw if len(raw) <= 40 else raw[:36] + "..."
    too_wide = (f"literal {shown!r} is wider than {MAX_WIDTH} bits "
                f"or {_MAX_DECIMAL_DIGITS} decimal digits")
    if "'" not in text:
        if not _is_decimal(text):
            raise _BadLiteral(f"malformed literal {raw!r}")
        if len(text.lstrip("0")) > _MAX_DECIMAL_DIGITS:
            raise _BadLiteral(too_wide)
        return _bits_of(int(text))
    size_txt, rest = text.split("'", 1)
    if size_txt and not _is_decimal(size_txt):
        raise _BadLiteral(f"malformed size in literal {raw!r}")
    if size_txt and not size_txt.lstrip("0"):
        raise _BadLiteral(f"literal {raw!r} has zero width")
    if size_txt and (len(size_txt.lstrip("0")) > _MAX_INDEX_DIGITS
                     or int(size_txt) > MAX_WIDTH):
        raise _BadLiteral(too_wide)
    rest = rest.lstrip("sS")
    per_digit = {"b": 1, "o": 3, "h": 4, "d": 0}.get(rest[:1].lower())
    if per_digit is None:
        raise _BadLiteral(f"malformed literal {raw!r}")
    base_ch = rest[0].lower()
    digits = rest[1:]
    if not digits:
        raise _BadLiteral(f"literal {raw!r} has no digits")
    if len(digits) * per_digit > MAX_WIDTH:
        raise _BadLiteral(too_wide)
    bits: list[int] = []
    if base_ch == "d":
        if not _is_decimal(digits):
            bad = next(ch for ch in digits if ch not in "0123456789")
            raise _BadLiteral(f"bad digit {bad!r} in literal {raw!r}")
        if len(digits.lstrip("0")) > _MAX_DECIMAL_DIGITS:
            raise _BadLiteral(too_wide)
        bits = list(_bits_of(int(digits)))
    else:
        for ch in reversed(digits.lower()):
            if ch in "xz?":
                bits.extend([2] * per_digit)
            else:
                try:
                    value = int(ch, 16 if base_ch == "h" else 8 if base_ch == "o" else 2)
                except ValueError:
                    raise _BadLiteral(f"bad digit {ch!r} in literal {raw!r}")
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
    """Recursive descent over the strings of a
    :class:`~repro.verilog.lexer.Scan`.  Punctuation and keywords are
    compared as strings (an escaped ``\\module`` is another string than
    ``module``); other tokens are classified through the scan's table
    of distinct strings as they are consumed.  A position is counted
    only when asked for: a line when a statement's node is built, a
    column for an error."""

    def __init__(self, scan: Scan) -> None:
        self._scan = scan
        self._toks, self._info = scan.toks, scan.info
        self._pos = 0

    # -- token helpers ----------------------------------------------------

    def _error(self, message: str, index: int) -> ParseError:
        return ParseError(message, *self._scan.position(index))

    def _found(self, index: int) -> str:
        """How an error names token ``index``."""
        kind, value = self._info[self._toks[index]]
        return value or kind  # only eof has no value

    def _expect(self, punct: str) -> int:
        """Consume the punctuation ``punct``; returns its index."""
        i = self._pos
        if self._toks[i] != punct:
            raise self._error(f"expected {punct!r}, found {self._found(i)!r}", i)
        self._pos = i + 1
        return i

    def _take(self, kind: str, what: str) -> str:
        """Consume a token of ``kind``; returns its value."""
        i = self._pos
        tok_kind, value = self._info[self._toks[i]]
        if tok_kind != kind:
            raise self._error(f"expected {what!r}, found {self._found(i)!r}", i)
        self._pos = i + 1
        return value

    def _comma(self) -> bool:
        """Consume a ``,`` if one is next."""
        if self._toks[self._pos] == ",":
            self._pos += 1
            return True
        return False

    # -- grammar ------------------------------------------------------------

    def parse(self) -> ast.Source:
        source = ast.Source()
        while self._toks[self._pos]:
            source.add(self._module())
        return source

    def _module(self) -> ast.Module:
        toks = self._toks
        if toks[self._pos] != "module":
            raise self._error(f"expected 'module', found {self._found(self._pos)!r}",
                              self._pos)
        self._pos += 1
        module = ast.Module(name=self._take("ident", "module name"))
        if toks[self._pos] == "(":
            self._pos += 1
            if toks[self._pos] != ")":
                module.port_order.append(self._take("ident", "port name"))
                while self._comma():
                    module.port_order.append(self._take("ident", "port name"))
            self._expect(")")
        self._expect(";")
        while toks[self._pos] != "endmodule":
            if not toks[self._pos]:
                raise self._error("unexpected end of file inside module", self._pos)
            self._item(module)
        self._pos += 1
        return module

    def _item(self, module: ast.Module) -> None:
        tok = self._toks[self._pos]
        if tok in _DIRECTIONS:
            self._port_decl(module)
        elif tok in _NET_KINDS:
            self._net_decl(module)
        elif tok == "assign":
            self._assign(module)
        else:
            kind, value = self._info[tok]
            if kind != "ident":
                raise self._error(
                    f"unexpected token {value or kind!r} in module body", self._pos)
            if is_gate_type(value):
                self._gate_inst(module, value)
            else:
                self._module_inst(module, value)

    def _index(self, what: str) -> int:
        value = self._take("number", what)
        if len(value.lstrip("0")) > _MAX_INDEX_DIGITS:
            raise self._error(f"{what} {value} is out of range", self._pos - 1)
        return int(value)

    def _range(self) -> ast.Range:
        start = self._expect("[")
        msb = self._index("range msb")
        self._expect(":")
        lsb = self._index("range lsb")
        self._expect("]")
        rng = ast.Range(msb, lsb)
        if rng.width > MAX_WIDTH:
            raise self._error(
                f"vector range [{msb}:{lsb}] is {rng.width} bits wide; "
                f"at most {MAX_WIDTH} are supported", start)
        return rng

    def _port_decl(self, module: ast.Module) -> None:
        direction = self._toks[self._pos]
        self._pos += 1
        rng = self._range() if self._toks[self._pos] == "[" else None
        while True:
            name = self._take("ident", "port name")
            decl = ast.PortDecl(direction, name, rng)
            if name in module.port_decls:
                raise self._error(f"duplicate port declaration {name!r}", self._pos - 1)
            module.port_decls[name] = decl
            if name not in module.port_order:
                # ANSI-less style: allow decls for ports not in header only
                # if the header was empty (legacy tools sometimes omit it).
                if module.port_order:
                    raise self._error(
                        f"port {name!r} not in module header", self._pos - 1)
                module.port_order.append(name)
            if not self._comma():
                break
        self._expect(";")

    def _net_decl(self, module: ast.Module) -> None:
        kind = self._toks[self._pos]
        self._pos += 1
        rng = self._range() if self._toks[self._pos] == "[" else None
        while True:
            name = self._take("ident", "net name")
            module.net_decls[name] = ast.NetDecl(name, rng, kind)
            if not self._comma():
                break
        self._expect(";")

    def _assign(self, module: ast.Module) -> None:
        head = self._pos  # 'assign'
        self._pos += 1
        lhs = self._expr()
        self._expect("=")
        rhs = self._expr()
        self._expect(";")
        module.assigns.append(
            ast.Assign(lhs, rhs, line=self._scan.line(head)))

    def _delay(self) -> None:
        """Parse and discard a delay spec ``#n`` or ``#(a[,b[,c]])``."""
        self._pos += 1  # '#'
        if self._toks[self._pos] == "(":
            self._pos += 1
            self._take("number", "delay value")
            while self._comma():
                self._take("number", "delay value")
            self._expect(")")
        else:
            self._take("number", "delay value")

    def _gate_inst(self, module: ast.Module, gtype: str) -> None:
        toks = self._toks
        self._pos += 1
        if toks[self._pos] == "#":
            self._delay()
        while True:
            kind, name = self._info[toks[self._pos]]
            if kind == "ident":
                self._pos += 1
            else:
                name = None
            paren = self._expect("(")
            terms: list[ast.Expr] = [self._expr()]
            while self._comma():
                terms.append(self._expr())
            self._expect(")")
            self._check_gate_arity(gtype, terms, paren)
            line = self._scan.line(paren)
            if gtype in ("buf", "not") and len(terms) > 2:
                # multi-output form: last terminal is the input
                for i, out in enumerate(terms[:-1]):
                    gname = f"{name}_{i}" if name else None
                    module.gates.append(
                        ast.GateInst(gtype, gname, (out, terms[-1]), line=line)
                    )
            else:
                module.gates.append(
                    ast.GateInst(gtype, name, tuple(terms), line=line)
                )
            if not self._comma():
                break
        self._expect(";")

    def _check_gate_arity(self, gtype: str, terms: list[ast.Expr], at: int) -> None:
        spec = COMBINATIONAL_GATES.get(gtype) or SEQUENTIAL_CELLS[gtype]
        n_in = len(terms) - 1
        if gtype in ("buf", "not"):
            if n_in < 1:
                raise self._error(f"{gtype} needs an output and an input", at)
            return
        if n_in < spec.min_inputs or (
            spec.max_inputs is not None and n_in > spec.max_inputs
        ):
            raise self._error(
                f"{gtype} gate has {n_in} inputs, expected "
                f"{spec.min_inputs}"
                + ("" if spec.max_inputs == spec.min_inputs else "+"),
                at,
            )

    def _module_inst(self, module: ast.Module, module_name: str) -> None:
        toks = self._toks
        self._pos += 1
        if toks[self._pos] == "#":
            self._delay()
        while True:
            head = self._pos
            instance_name = self._take("ident", "instance name")
            self._expect("(")
            positional: tuple[ast.Expr, ...] | None = None
            named: tuple[tuple[str, ast.Expr], ...] | None = None
            if toks[self._pos] == ".":
                conns: list[tuple[str, ast.Expr]] = []
                while True:
                    self._expect(".")
                    pname = self._take("ident", "port name")
                    self._expect("(")
                    if toks[self._pos] == ")":
                        expr: ast.Expr = ast.Unconnected()
                    else:
                        expr = self._expr()
                    self._expect(")")
                    conns.append((pname, expr))
                    if not self._comma():
                        break
                named = tuple(conns)
            elif toks[self._pos] == ")":
                positional = ()
            else:
                exprs: list[ast.Expr] = [self._expr()]
                while self._comma():
                    exprs.append(self._expr())
                positional = tuple(exprs)
            self._expect(")")
            module.instances.append(
                ast.ModuleInst(
                    module_name,
                    instance_name,
                    positional=positional,
                    named=named,
                    line=self._scan.line(head),
                )
            )
            if not self._comma():
                break
        self._expect(";")

    def _expr(self) -> ast.Expr:
        i = self._pos
        tok = self._toks[i]
        if tok == "{":
            self._pos = i + 1
            items: list[ast.Expr] = [self._expr()]
            while self._comma():
                items.append(self._expr())
            self._expect("}")
            return ast.Concat(tuple(items))
        kind, value = self._info[tok]
        if kind == "ident":
            self._pos = i + 1
            if self._toks[i + 1] == "[":
                self._pos = i + 2
                first = self._index("index")
                if self._toks[self._pos] == ":":
                    self._pos += 1
                    second = self._index("index")
                    self._expect("]")
                    return ast.PartSelect(value, first, second)
                self._expect("]")
                return ast.BitSelect(value, first)
            return ast.Identifier(value)
        if kind == "number" or kind == "sized_number":
            self._pos = i + 1
            try:
                return ast.Literal(_literal_bits(value))
            except _BadLiteral as exc:
                raise self._error(str(exc), i) from None
        raise self._error(f"expected expression, found {value or kind!r}", i)
