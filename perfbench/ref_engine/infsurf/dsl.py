"""Textual syntax for ordinals, end spaces and surface descriptors.

Ordinals:   w^(w*2+1)*3 + w + 5        (terms joined by '+'; bare naturals)
End spaces: pt, cantor, I(<ordinal>), U(e1, e2, ...), seq1pc(e), lim1pc(<ordinal>)
            leaves take an optional mark suffix !p / !np (default planar);
            compactifications mark their added point with a second argument,
            e.g. seq1pc(pt; np).
Surfaces:   surface(genus=inf|<n>, boundary=<n>, ends=<end space>)

Input ordinals need not be in normal form; sums are renormalized, so
"1 + w" parses to w.  Printing (str() on the values) always emits the
canonical form, and print/parse round-trips are exact.
"""

from __future__ import annotations

from .endspace import (
    Cantor,
    EndSpaceExpr,
    INFINITE,
    Interval,
    LimitCompactification,
    Mark,
    NONPLANAR,
    PLANAR,
    Pt,
    SeqCompactification,
    union,
)
from .ordinal import Ordinal, add, from_int, omega_pow
from .surface import SurfaceDescriptor


class ParseError(ValueError):
    def __init__(self, offset: int, expected: tuple[str, ...], message: str):
        super().__init__(f"{message} at offset {offset} (expected {', '.join(expected)})")
        self.offset = offset
        self.expected = expected
        self.message = message


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def fail(self, expected: tuple[str, ...], message: str = "unexpected input") -> "ParseError":
        return ParseError(self.pos, expected, message)

    def try_literal(self, lit: str) -> bool:
        self.skip_ws()
        if self.text.startswith(lit, self.pos):
            self.pos += len(lit)
            return True
        return False

    def expect(self, lit: str) -> None:
        if not self.try_literal(lit):
            raise self.fail((repr(lit),))

    def word(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isalnum() or self.text[self.pos] == "_"):
            self.pos += 1
        return self.text[start:self.pos]

    def nat(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            raise self.fail(("natural number",))
        return int(self.text[start:self.pos])

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def expect_end(self) -> None:
        if not self.at_end():
            raise self.fail(("end of input",), "trailing input")


# -- ordinals ----------------------------------------------------------------


def _ordinal(sc: _Scanner) -> Ordinal:
    total = _term(sc)
    while sc.try_literal("+"):
        total = add(total, _term(sc))
    return total


def _term(sc: _Scanner) -> Ordinal:
    ch = sc.peek()
    if ch == "w":
        mark = sc.pos
        if sc.word() != "w":
            sc.pos = mark
            raise sc.fail(("'w'", "natural number"))
        exp = from_int(1)
        if sc.try_literal("^"):
            if sc.try_literal("("):
                exp = _ordinal(sc)
                sc.expect(")")
            elif sc.peek() == "w":
                if sc.word() != "w":
                    raise sc.fail(("'w'", "natural number"), "malformed exponent")
                exp = omega_pow(from_int(1))
            elif sc.peek().isdigit():
                exp = from_int(sc.nat())
            else:
                raise sc.fail(("'('", "'w'", "natural number"), "malformed exponent")
        coeff = 1
        if sc.try_literal("*"):
            coeff = sc.nat()
        return omega_pow(exp, coeff)
    if ch.isdigit():
        return from_int(sc.nat())
    raise sc.fail(("'w'", "natural number"))


def parse_ordinal(text: str) -> Ordinal:
    sc = _Scanner(text)
    value = _ordinal(sc)
    sc.expect_end()
    return value


# -- end spaces --------------------------------------------------------------


def _leaf_mark(sc: _Scanner) -> Mark:
    if sc.try_literal("!np"):
        return NONPLANAR
    if sc.try_literal("!p"):
        return PLANAR
    return PLANAR


def _point_mark(sc: _Scanner) -> Mark:
    # optional "; p" / "; np" before the closing parenthesis
    if sc.try_literal(";"):
        w = sc.word()
        if w == "np":
            return NONPLANAR
        if w == "p":
            return PLANAR
        raise sc.fail(("'p'", "'np'"), "bad point mark")
    return PLANAR


def _endspace(sc: _Scanner) -> EndSpaceExpr:
    sc.skip_ws()
    start = sc.pos
    head = sc.word()
    if head == "pt":
        return Pt(_leaf_mark(sc))
    if head == "cantor":
        return Cantor(_leaf_mark(sc))
    if head == "I":
        sc.expect("(")
        bound = _ordinal(sc)
        sc.expect(")")
        return Interval(bound, _leaf_mark(sc))
    if head == "U":
        sc.expect("(")
        children = [_endspace(sc)]
        while sc.try_literal(","):
            children.append(_endspace(sc))
        sc.expect(")")
        return union(*children)
    if head == "seq1pc":
        sc.expect("(")
        child = _endspace(sc)
        mark = _point_mark(sc)
        sc.expect(")")
        try:
            return SeqCompactification(child, mark)
        except ValueError as err:
            raise ParseError(start, ("nonempty child",), str(err)) from err
    if head == "lim1pc":
        sc.expect("(")
        sup = _ordinal(sc)
        mark = _point_mark(sc)
        sc.expect(")")
        try:
            return LimitCompactification(sup, mark)
        except ValueError as err:
            raise ParseError(start, ("limit ordinal",), str(err)) from err
    sc.pos = start
    raise sc.fail(("'pt'", "'cantor'", "'I'", "'U'", "'seq1pc'", "'lim1pc'"))


def parse_endspace(text: str) -> EndSpaceExpr:
    sc = _Scanner(text)
    expr = _endspace(sc)
    sc.expect_end()
    return expr


# -- surfaces ----------------------------------------------------------------


def parse_surface(text: str) -> SurfaceDescriptor:
    sc = _Scanner(text)
    if sc.word() != "surface":
        raise sc.fail(("'surface'",))
    sc.expect("(")
    if sc.word() != "genus":
        raise sc.fail(("'genus='",))
    sc.expect("=")
    if sc.try_literal("inf"):
        genus: int | float = INFINITE
    else:
        genus = sc.nat()
    sc.expect(",")
    if sc.word() != "boundary":
        raise sc.fail(("'boundary='",))
    sc.expect("=")
    boundary = sc.nat()
    sc.expect(",")
    if sc.word() != "ends":
        raise sc.fail(("'ends='",))
    sc.expect("=")
    ends = _endspace(sc)
    sc.expect(")")
    sc.expect_end()
    return SurfaceDescriptor(genus, boundary, ends)
