"""Textual syntax for ordinals, end spaces and surface descriptors.

Ordinals:   w^(w*2+1)*3 + w + 5        (terms joined by '+'; bare naturals)
End spaces: pt, cantor, I(<ordinal>), U(e1, e2, ...), seq1pc(e), lim1pc(<ordinal>)
            leaves take an optional mark suffix !p / !np (default planar);
            compactifications mark their added point with a second argument,
            e.g. seq1pc(pt; np).
Surfaces:   surface(genus=inf|<n>, boundary=<n>, ends=<end space>)

Input ordinals need not be in normal form; sums are renormalized, so
"1 + w" parses to w.  Printing (str() on the values) always emits the
canonical form, and print/parse round-trips are exact, except that the
empty end space (the derived set of ``pt``, say) prints as "empty", which
does not parse: a parsed end space is never empty.

One regular expression splits the text into tokens, and recursive descent
reads them: ``_ordinal`` reads a sum and ``_endspace`` an end space, one
Python frame per open ``U(``, ``seq1pc(``, ``I(``, ``lim1pc(`` or ``w^(``.
A text has at most ``MAX_CHARS`` characters, at most ``MAX_DEPTH``
constructs may be open at once, and a natural has at most ``MAX_DIGITS``
digits; more is a parse error.

``_endspace`` is one of the three drivers that run an end-space fold
(``endspace.Fold``); ``endspace.fold_tree`` over an expression tree and
``endspace.fold_reduced`` over a reduced form are the others.  At each
end-space construct it closes, it asks the fold for its value:
``parse_surface`` and ``parse_endspace`` build the expression
(``endspace.TREES``), and ``parse_surface_type`` folds the text straight
into the summary of the ends (``endspace.SUMMARIES``) without building a
tree.  The parser flattens unions itself: a ``U(`` directly inside a ``U(``
hands its summands to the outer one.
"""

from __future__ import annotations

import re

from .endspace import EndSpaceExpr, Fold, INFINITE, MAX_NESTING, NONPLANAR, PLANAR, SUMMARIES, Summary, TREES
from .ordinal import ONE, OMEGA, ZERO, Ordinal, _cnf, from_int
from .surface import SurfaceDescriptor

MAX_CHARS = 2**17
"""Most characters in one text, whitespace included; longer text is
refused before it is split into tokens, which take many times its size.
This is Linux's cap on one argument with its NUL, so only a
``decide --jsonl`` line can pass it."""

MAX_DEPTH = MAX_NESTING
"""Most ``U``/``seq1pc``/``I``/``lim1pc``/``w^`` parentheses open at once.

A parsed tree nests no deeper than its open parentheses, so this is
``endspace.MAX_NESTING``, the budget of the expression constructors, and
every parsed ordinal is inside ``ordinal.MAX_NESTING``.  The parser takes
one frame per open parenthesis, so a parse at the bound needs about
``MAX_DEPTH`` + 10 frames above its caller, inside Python's limit of 1 000.
"""

MAX_DIGITS = 1000
"""Most digits in one natural.

Python refuses to convert a decimal string of more than 4 300 digits to an
int (its default limit), and to print an int of more digits; naturals this
short, and the sums the engine forms from them, stay well inside it.
"""


class ParseError(ValueError):
    def __init__(self, offset: int, expected: tuple[str, ...], message: str):
        super().__init__(f"{message} at offset {offset} (expected {', '.join(expected)})")
        self.offset = offset
        self.expected = expected
        self.message = message


# A natural is a run of ASCII digits and a word any other run of word
# characters, so "3abc" is the natural 3 followed by the word "abc".
# Whitespace separates tokens and is otherwise skipped.  The grammar's
# punctuation, half the tokens, is tried first; \S would match it the same.
_TOKEN = re.compile(r"[(),=^+*;]|[0-9]+|[^\W0-9]\w*|!np|!p|\S")
_WORD_RUN = re.compile(r"\w*")
_DIGITS = frozenset("0123456789")

# ordinals are immutable, so the small natural exponents of w^n are built
# once and shared: parsing skips building them, and the summaries a batch
# keeps share them; genus, boundary, coefficient and natural-term tokens
# are looked up the same way, as ints
_SMALL = {str(n): from_int(n) for n in range(100)}
_SMALL_INT = {str(n): n for n in range(100)}

_LEAF_MARKS = {"!np": NONPLANAR, "!p": PLANAR}
_POINT_MARKS = {"np": NONPLANAR, "p": PLANAR}
_HEADS = ("'pt'", "'cantor'", "'I'", "'U'", "'seq1pc'", "'lim1pc'")
_OPENERS = frozenset(("U", "seq1pc", "I", "lim1pc"))

# what is being parsed
_ORDINAL, _ENDSPACE, _SURFACE = range(3)


def _offset(text: str, i: int) -> int:
    """Offset of token ``i``, or the length of the text past the last one."""
    for k, m in enumerate(_TOKEN.finditer(text)):
        if k == i:
            return m.start()
    return len(text)


def _fail(
    text: str, i: int, expected: tuple[str, ...], message: str = "unexpected input", word: bool = False
) -> ParseError:
    """The error at token ``i``; with ``word`` it is placed after the whole
    run of word characters there, which a keyword position reads as one word."""
    offset = _offset(text, i)
    if word:
        offset = _WORD_RUN.match(text, offset).end()
    return ParseError(offset, expected, message)


def _too_deep(text: str, i: int) -> ParseError:
    return ParseError(_offset(text, i), (f"at most {MAX_DEPTH} nested parentheses",), "nesting too deep")


def _int(text: str, toks: list[str], i: int) -> int:
    """The value of the digit token ``i``."""
    if len(toks[i]) > MAX_DIGITS:
        raise ParseError(_offset(text, i), (f"at most {MAX_DIGITS} digits",), "natural too long")
    return int(toks[i])


def _finite(text: str, toks: list[str], i: int) -> Ordinal:
    """The ordinal of the digit token ``i``; "007" misses the table and is 7."""
    o = _SMALL.get(toks[i])
    if o is not None:
        return o
    n = _int(text, toks, i)
    return _cnf(Ordinal, ((ZERO, n),)) if n else ZERO


def _natural(text: str, toks: list[str], i: int) -> int:
    tok = toks[i]
    n = _SMALL_INT.get(tok)
    if n is not None:
        return n
    if tok[:1] not in _DIGITS:
        raise _fail(text, i, ("natural number",))
    return _int(text, toks, i)


def _add_term(terms: list[tuple[Ordinal, int]], exp: Ordinal, coeff: int) -> None:
    """Add the term w^exp*coeff, coeff >= 1, to the sum whose Cantor normal
    form is `terms`, in place: as ``ordinal.add`` does, it absorbs the
    smaller terms before it and merges with an equal one.  Each term is
    appended and popped at most once, so a sum is read in linear time."""
    while terms and terms[-1][0] < exp:
        terms.pop()
    if terms and terms[-1][0] == exp:
        terms[-1] = (exp, terms[-1][1] + coeff)
    else:
        terms.append((exp, coeff))


def _coefficient(text: str, toks: list[str], i: int) -> tuple[int, int]:
    """The optional ``*n`` after a power of w, and the index after it."""
    if toks[i] != "*":
        return 1, i
    return _natural(text, toks, i + 1), i + 2


# the head's twelve tokens, ``surface(genus=G, boundary=B, ends=``, each
# with what an error there expects; None stands for G and for B
_HEAD = (
    ("surface", "'surface'"), ("(", "'('"), ("genus", "'genus='"), ("=", "'='"), (None, None), (",", "','"),
    ("boundary", "'boundary='"), ("=", "'='"), (None, None), (",", "','"), ("ends", "'ends='"), ("=", "'='"),
)


def _surface_head(text: str, toks: list[str]) -> tuple[int | float, int]:
    """Genus and boundary from the first twelve tokens, ``_HEAD``."""
    naturals: list[int | float] = []
    for i, (want, expected) in enumerate(_HEAD):
        tok = toks[i]
        if tok == want:
            continue
        if want is not None:
            # a keyword is read as one word
            raise _fail(text, i, (expected,), word=want.isalpha())
        if not naturals and tok.startswith("inf"):
            if tok != "inf":
                # "inf" is read as a prefix of the word; the ',' must follow it
                raise ParseError(_offset(text, i) + 3, ("','",), "unexpected input")
            naturals.append(INFINITE)
        else:
            naturals.append(_natural(text, toks, i))
    genus, boundary = naturals
    return genus, boundary


def _ordinal(text: str, toks: list[str], i: int, depth: int) -> tuple[Ordinal, int]:
    """The sum at token ``i`` inside ``depth`` open constructs, and the index after it."""
    # the Cantor normal form of the terms read so far; its Ordinal is built
    # once, when the sum ends
    terms: list[tuple[Ordinal, int]] = []
    while True:
        tok = toks[i]
        if tok[:1] in _DIGITS:
            exp = ZERO
            coeff = _SMALL_INT.get(tok)
            if coeff is None:
                coeff = _int(text, toks, i)
            i += 1
        elif tok == "w":
            exp = ONE
            if toks[i + 1] == "^":
                i += 2
                tok = toks[i]
                if tok == "(":
                    if depth == MAX_DEPTH:
                        raise _too_deep(text, i)
                    exp, i = _ordinal(text, toks, i + 1, depth + 1)
                    if toks[i] != ")":
                        raise _fail(text, i, ("')'",))
                elif tok[:1] == "w":
                    if tok != "w":
                        raise _fail(text, i, ("'w'", "natural number"), "malformed exponent", word=True)
                    exp = OMEGA
                elif tok[:1] in _DIGITS:
                    exp = _finite(text, toks, i)
                else:
                    raise _fail(text, i, ("'('", "'w'", "natural number"), "malformed exponent")
            coeff, i = _coefficient(text, toks, i + 1)
        else:
            raise _fail(text, i, ("'w'", "natural number"))
        # a zero term adds nothing, and absorbs nothing either
        if coeff:
            _add_term(terms, exp, coeff)
        if toks[i] != "+":
            return (_cnf(Ordinal, terms) if terms else ZERO), i
        i += 1


def _endspace(text: str, toks: list[str], i: int, depth: int, fold: Fold, summands: list | None = None):
    """The fold's value of the end space at token ``i`` inside ``depth`` open
    constructs, and the index after it.  A summand of a union is read with
    the union's ``summands``: if it is a union itself, it appends all its
    summands but the last there and returns that one, so unions stay flat."""
    tok = toks[i]
    leaf = fold.point if tok == "pt" else fold.cantor if tok == "cantor" else None
    if leaf is not None:
        mark = _LEAF_MARKS.get(toks[i + 1])
        if mark is None:
            return leaf[PLANAR], i + 1
        return leaf[mark], i + 2
    if tok not in _OPENERS:
        raise _fail(text, i, _HEADS)
    if toks[i + 1] != "(":
        raise _fail(text, i + 1, ("'('",))
    if depth == MAX_DEPTH:
        raise _too_deep(text, i + 1)
    head = i
    i += 2
    depth += 1
    if tok == "U":
        flat = [] if summands is None else summands
        while True:
            value, i = _endspace(text, toks, i, depth, fold, flat)
            flat.append(value)
            if toks[i] != ",":
                break
            i += 1
        if toks[i] != ")":
            raise _fail(text, i, ("')'",))
        if summands is not None:
            return flat.pop(), i + 1
        return fold.union(*flat), i + 1
    if tok == "seq1pc":
        value, i = _endspace(text, toks, i, depth, fold)
    else:
        value, i = _ordinal(text, toks, i, depth)
        if tok == "I":
            if toks[i] != ")":
                raise _fail(text, i, ("')'",))
            mark = _LEAF_MARKS.get(toks[i + 1])
            if mark is None:
                return fold.interval(value, PLANAR), i + 1
            return fold.interval(value, mark), i + 2
    # seq1pc / lim1pc: an optional "; p" or "; np", then ")"
    mark = PLANAR
    if toks[i] == ";":
        mark = _POINT_MARKS.get(toks[i + 1])
        if mark is None:
            raise _fail(text, i + 1, ("'p'", "'np'"), "bad point mark", word=True)
        i += 2
    if toks[i] != ")":
        raise _fail(text, i, ("')'",))
    if tok == "seq1pc":
        # a parsed child is never empty, so this cannot fail
        return fold.seq(value, mark), i + 1
    try:
        return fold.lim(value, mark), i + 1
    except ValueError as err:
        raise ParseError(_offset(text, head), ("limit ordinal",), str(err)) from err


def _parse(text: str, goal: int, fold: Fold = TREES):
    """Parse `text` as an ordinal, an end space or a surface; `fold` says
    what an end space is built into."""
    if len(text) > MAX_CHARS:
        raise ParseError(MAX_CHARS, (f"at most {MAX_CHARS} characters",), "text too long")
    toks = _TOKEN.findall(text)
    toks.append("")  # end of input; equal to no token the grammar expects
    if goal == _ORDINAL:
        value, i = _ordinal(text, toks, 0, 0)
    elif goal == _ENDSPACE:
        value, i = _endspace(text, toks, 0, 0, fold)
    else:
        genus, boundary = _surface_head(text, toks)
        ends, i = _endspace(text, toks, 12, 0, fold)
        if toks[i] != ")":
            raise _fail(text, i, ("')'",))
        value, i = (genus, boundary, ends), i + 1
    if toks[i]:
        raise _fail(text, i, ("end of input",), "trailing input")
    return value


def parse_ordinal(text: str) -> Ordinal:
    return _parse(text, _ORDINAL)


def parse_endspace(text: str) -> EndSpaceExpr:
    return _parse(text, _ENDSPACE)


def parse_surface(text: str) -> SurfaceDescriptor:
    return SurfaceDescriptor(*_parse(text, _SURFACE))


def parse_surface_type(text: str) -> tuple[int | float, int, Summary]:
    """Genus, boundary count and the summary of the ends of the descriptor
    `text`, without building its expression: for ``d = parse_surface(text)``
    this is ``(d.genus, d.boundary, summarize(d.ends))``, and on bad text
    it raises the same ParseError."""
    return _parse(text, _SURFACE, SUMMARIES)
