"""Exact arithmetic for countable ordinals below epsilon_0.

An ordinal is stored in Cantor normal form as a sequence of terms
``w^(e1)*c1 + ... + w^(ek)*ck`` with strictly decreasing exponents ``e1 >
... > ek`` (themselves ordinals) and coefficients ``ci >= 1``.  The empty
sequence is 0.  The representation is unique, so structural equality is
ordinal equality and values hash consistently.

Only the operations the end-space calculus needs are exposed: comparison,
addition, zero/successor/limit classification, the symbolic derived-set
quotient ``div_omega`` and maximum-with-multiplicity.  General
multiplication and exponentiation are deliberately absent; single-term
powers ``w^e * c`` are built directly with :func:`omega_pow`.
"""

from __future__ import annotations

from enum import Enum
from functools import total_ordering
from typing import Iterable


class Kind(Enum):
    ZERO = "zero"
    SUCCESSOR = "successor"
    LIMIT = "limit"


@total_ordering
class Ordinal:
    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[tuple["Ordinal", int]] = ()):
        terms = tuple(terms)
        for exp, coeff in terms:
            if not isinstance(exp, Ordinal):
                raise TypeError(f"exponent must be an Ordinal, got {type(exp).__name__}")
            if not isinstance(coeff, int) or isinstance(coeff, bool) or coeff < 1:
                raise ValueError(f"coefficient must be a positive integer, got {coeff!r}")
        for (hi, _), (lo, _) in zip(terms, terms[1:]):
            if compare(hi, lo) <= 0:
                raise ValueError("exponents must be strictly decreasing")
        self.terms = terms

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_finite(self) -> bool:
        """True when the ordinal is a natural number."""
        return not self.terms or (len(self.terms) == 1 and self.terms[0][0].is_zero())

    def as_int(self) -> int:
        if not self.is_finite():
            raise ValueError(f"{self} is not a natural number")
        return self.terms[0][1] if self.terms else 0

    def leading(self) -> tuple["Ordinal", int]:
        """Leading (exponent, coefficient) pair; raises on 0."""
        if not self.terms:
            raise ValueError("0 has no leading term")
        return self.terms[0]

    # -- comparisons / hashing ----------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Ordinal):
            return NotImplemented
        return self.terms == other.terms

    def __lt__(self, other: "Ordinal") -> bool:
        if not isinstance(other, Ordinal):
            return NotImplemented
        return compare(self, other) < 0

    def __hash__(self) -> int:
        return hash(self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other: "Ordinal") -> "Ordinal":
        return add(self, other)

    # -- printing ------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(_format_term(e, c) for e, c in self.terms)

    def __repr__(self) -> str:
        return f"Ordinal({self})"


def _format_term(exp: Ordinal, coeff: int) -> str:
    if exp.is_zero():
        return str(coeff)
    if exp == ONE:
        head = "w"
    elif exp.is_finite():
        head = f"w^{exp.as_int()}"
    elif exp == OMEGA:
        head = "w^w"
    else:
        head = "w^(" + "+".join(_format_term(e, c) for e, c in exp.terms) + ")"
    return head if coeff == 1 else f"{head}*{coeff}"


def power_str(exp: Ordinal, coeff: int = 1) -> str:
    """Printable form of w^exp*coeff, e.g. "w", "w^2", "w^(w*2+1)*3"; for a
    positive exponent it is ``str(omega_pow(exp, coeff))``."""
    return _format_term(exp, coeff)


_new = object.__new__


def _cnf(terms: tuple) -> Ordinal:
    """The ordinal with ``terms``, which the caller has built in Cantor
    normal form; unlike ``Ordinal(terms)`` nothing is checked again."""
    o = _new(Ordinal)
    o.terms = terms
    return o


ZERO = Ordinal()


def from_int(n: int) -> Ordinal:
    if n < 0:
        raise ValueError("ordinals are non-negative")
    return omega_pow(ZERO, n)


def omega_pow(exp: Ordinal, coeff: int = 1) -> Ordinal:
    """The single-term ordinal w^exp * coeff (coeff = 0 gives 0)."""
    if coeff == 0:
        return ZERO
    if not isinstance(exp, Ordinal):
        raise TypeError(f"exponent must be an Ordinal, got {type(exp).__name__}")
    if not isinstance(coeff, int) or isinstance(coeff, bool) or coeff < 1:
        raise ValueError(f"coefficient must be a positive integer, got {coeff!r}")
    return _cnf(((exp, coeff),))


ONE = from_int(1)
OMEGA = omega_pow(ONE)


def compare(a: Ordinal, b: Ordinal) -> int:
    """Total order on Cantor normal forms: -1, 0 or 1."""
    if a is b:
        # shared ordinals (the small naturals, ONE, OMEGA) meet often
        return 0
    for (ea, ca), (eb, cb) in zip(a.terms, b.terms):
        c = compare(ea, eb)
        if c:
            return c
        if ca != cb:
            return -1 if ca < cb else 1
    if len(a.terms) != len(b.terms):
        return -1 if len(a.terms) < len(b.terms) else 1
    return 0


def add(a: Ordinal, b: Ordinal) -> Ordinal:
    """Ordinal sum; terms of `a` below the leading exponent of `b` are absorbed."""
    if not b.terms:
        return a
    lead, lead_coeff = b.terms[0]
    kept = []
    merged = lead_coeff
    for exp, coeff in a.terms:
        c = compare(exp, lead)
        if c > 0:
            kept.append((exp, coeff))
        elif c == 0:
            merged += coeff
            break
        else:
            break
    # the kept terms lie above the lead and b's other terms below it
    return _cnf((*kept, (lead, merged), *b.terms[1:]))


def kind(a: Ordinal) -> Kind:
    if not a.terms:
        return Kind.ZERO
    return Kind.SUCCESSOR if a.terms[-1][0].is_zero() else Kind.LIMIT


def div_omega(b: Ordinal) -> Ordinal:
    """Order type of the nonzero multiples of w below or at `b`.

    The derived set of the closed interval [0, b] is the set of limit
    ordinals in it, which is order-isomorphic to [1, div_omega(b)].  A
    finite `b` has an empty derived set and maps to 0.  Term-wise this
    drops the finite part and replaces w^g*c by w^(g-1)*c for finite g,
    leaving infinite exponents untouched (w * w^g = w^g once g >= w).
    """
    out = []
    for exp, coeff in b.terms:
        if exp.is_zero():
            continue
        if exp.is_finite():
            out.append((from_int(exp.as_int() - 1), coeff))
        else:
            out.append((exp, coeff))
    # g -> g-1 keeps finite exponents >= 1 apart and below the infinite ones
    return _cnf(tuple(out))
