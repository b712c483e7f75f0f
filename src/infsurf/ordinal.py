"""Exact arithmetic for countable ordinals below epsilon_0.

An ordinal is stored in Cantor normal form as a sequence of terms
``w^(e1)*c1 + ... + w^(ek)*ck`` with strictly decreasing exponents ``e1 >
... > ek`` (themselves ordinals) and coefficients ``ci >= 1``.  The empty
sequence is 0.  The representation is unique, so structural equality is
ordinal equality and values hash consistently.

:class:`Ordinal` is a ``tuple`` of its ``(exponent, coefficient)`` terms,
and its order, equality and hash are the tuple's.  Lexicographic order on
normal forms is the ordinal order: the first term where two ordinals
differ decides, by the larger exponent and then the larger coefficient,
because every later term is below the place they differ; and a proper
prefix is the smaller ordinal.  So an Ordinal also equals, and hashes as,
the plain tuple of its terms.  Tuple repetition is refused, and ``+`` is
ordinal addition, not concatenation.

Only the operations the end-space calculus needs are exposed: comparison,
addition, zero/successor/limit classification, the symbolic derived-set
quotient ``div_omega`` and maximum-with-multiplicity.  General
multiplication and exponentiation are deliberately absent; single-term
powers ``w^e * c`` are built directly with :func:`omega_pow`.

``Ordinal(terms)`` is the one place that checks terms, their nesting
included (``MAX_NESTING``); ``omega_pow`` and ``from_int``, the checked
builders of the API, go through it.  Internal builders whose terms are in
Cantor normal form by construction (the parser, ``add``, ``div_omega``)
call ``_cnf(Ordinal, terms)``, which checks nothing.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Optional


MAX_NESTING = 128
"""Most levels of exponents that ``Ordinal(terms)`` admits: 0 has none, a
positive natural one (``w^0 * n``), w two and w^w three; each further
``w^(...)`` adds one.

The parser builds at most ``dsl.MAX_DEPTH`` + 3 = 103 levels, a ``w^w``
inside its 100 open ``w^(``, so every ordinal it builds is admitted.  The
printer, the comparison and the hash of an ordinal recurse once or twice
per level, and CPython's tuple hash has no recursion guard: hashing an
ordinal nested 10^5 deep overflows the C stack and kills the interpreter.
Past this bound ``Ordinal(terms)`` raises ``ValueError``, so no ordinal
built through it nests deep enough for that.  The levels are counted without
recursion, each distinct exponent once a level, and the count stops one
level past the bound."""


class Kind(Enum):
    ZERO = "zero"
    SUCCESSOR = "successor"
    LIMIT = "limit"


class Ordinal(tuple):
    __slots__ = ()

    def __new__(cls, terms: Iterable[tuple["Ordinal", int]] = ()) -> "Ordinal":
        terms = [(exp, coeff) for exp, coeff in terms]
        for exp, coeff in terms:
            if not isinstance(exp, Ordinal):
                raise TypeError(f"exponent must be an Ordinal, got {type(exp).__name__}")
            if not isinstance(coeff, int) or isinstance(coeff, bool) or coeff < 1:
                raise ValueError(f"coefficient must be a positive integer, got {coeff!r}")
        for (hi, _), (lo, _) in zip(terms, terms[1:]):
            if hi <= lo:
                raise ValueError("exponents must be strictly decreasing")
        # the terms of each level's distinct exponents are the next level
        level, depth = terms, 0
        while level:
            depth += 1
            if depth > MAX_NESTING:
                raise ValueError(f"ordinal nested deeper than {MAX_NESTING} levels of exponents")
            exps = {id(exp): exp for exp, _ in level}
            level = [term for exp in exps.values() for term in exp]
        return tuple.__new__(cls, terms)

    # an ordinal is immutable, so it is its own copy; the copy module would
    # rebuild it level by level and overflow below ``MAX_NESTING``
    def __deepcopy__(self, memo: Optional[dict] = None) -> "Ordinal":
        return self

    __copy__ = __deepcopy__

    @property
    def terms(self) -> "Ordinal":
        """The ``(exponent, coefficient)`` terms, which are the ordinal itself."""
        return self

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self

    def is_finite(self) -> bool:
        """True when the ordinal is a natural number."""
        return not self or (len(self) == 1 and self[0][0].is_zero())

    def as_int(self) -> int:
        if not self.is_finite():
            raise ValueError(f"{self} is not a natural number")
        return self[0][1] if self else 0

    def leading(self) -> tuple["Ordinal", int]:
        """Leading (exponent, coefficient) pair; raises on 0."""
        if not self:
            raise ValueError("0 has no leading term")
        return self[0]

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "Ordinal") -> "Ordinal":
        if not isinstance(other, Ordinal):
            return NotImplemented
        return add(self, other)

    def __mul__(self, other: object):
        # not a product: refuse the tuple's repetition of the terms
        return NotImplemented

    __rmul__ = __mul__

    # -- printing ------------------------------------------------------

    def __str__(self) -> str:
        if not self:
            return "0"
        return " + ".join(power_str(e, c) for e, c in self)

    def __repr__(self) -> str:
        return f"Ordinal({self})"


def power_str(exp: Ordinal, coeff: int = 1) -> str:
    """Printable form of w^exp*coeff, e.g. "w", "w^2", "w^(w*2+1)*3"; for a
    positive exponent it is ``str(omega_pow(exp, coeff))``."""
    if exp.is_zero():
        return str(coeff)
    if exp == ONE:
        head = "w"
    elif exp.is_finite():
        head = f"w^{exp.as_int()}"
    elif exp == OMEGA:
        head = "w^w"
    else:
        head = "w^(" + "+".join(power_str(e, c) for e, c in exp) + ")"
    return head if coeff == 1 else f"{head}*{coeff}"


_cnf = tuple.__new__


ZERO = Ordinal()


def from_int(n: int) -> Ordinal:
    if n < 0:
        raise ValueError("ordinals are non-negative")
    return omega_pow(ZERO, n)


def omega_pow(exp: Ordinal, coeff: int = 1) -> Ordinal:
    """The single-term ordinal w^exp * coeff (coeff = 0 gives 0)."""
    return ZERO if coeff == 0 else Ordinal(((exp, coeff),))


ONE = from_int(1)
OMEGA = omega_pow(ONE)


def compare(a: Ordinal, b: Ordinal) -> int:
    """Total order on Cantor normal forms: -1, 0 or 1."""
    return (a > b) - (a < b)


def add(a: Ordinal, b: Ordinal) -> Ordinal:
    """Ordinal sum; terms of `a` below the leading exponent of `b` are absorbed."""
    if not b:
        return a
    lead, lead_coeff = b[0]
    # the kept terms of a lie above the lead and b's other terms below it
    kept = 0
    for exp, coeff in a:
        if exp > lead:
            kept += 1
        elif exp == lead:
            return _cnf(Ordinal, (*a[:kept], (lead, coeff + lead_coeff), *b[1:]))
        else:
            break
    return _cnf(Ordinal, (*a[:kept], *b)) if kept else b


def kind(a: Ordinal) -> Kind:
    if not a:
        return Kind.ZERO
    return Kind.SUCCESSOR if a[-1][0].is_zero() else Kind.LIMIT


def div_omega(b: Ordinal) -> Ordinal:
    """Order type of the nonzero multiples of w below or at `b`.

    The derived set of the closed interval [0, b] is the set of limit
    ordinals in it, which is order-isomorphic to [1, div_omega(b)].  A
    finite `b` has an empty derived set and maps to 0.  Term-wise this
    drops the finite part and replaces w^g*c by w^(g-1)*c for finite g,
    leaving infinite exponents untouched (w * w^g = w^g once g >= w).
    """
    out = []
    for exp, coeff in b:
        if exp.is_zero():
            continue
        if exp.is_finite():
            g = exp[0][1]
            out.append((_cnf(Ordinal, ((ZERO, g - 1),)) if g > 1 else ZERO, coeff))
        else:
            out.append((exp, coeff))
    # g -> g-1 keeps finite exponents >= 1 apart and below the infinite ones
    return _cnf(Ordinal, out)
