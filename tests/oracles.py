"""Independent oracles and random generators shared by the test modules.

Everything here deliberately avoids the code paths it is used to check:
ordinals are handled as dense coefficient vectors, ranks are read off the
expression structure directly, and partition counts are enumerated by
brute force.  Integer matrices get their determinants by fraction-free
elimination and their minor gcds by enumerating minors.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import gcd

from infsurf.endspace import (
    Cantor,
    DisjointUnion,
    EndSpaceExpr,
    Interval,
    LimitCompactification,
    Pt,
    SeqCompactification,
    union,
)
from infsurf.homology import IntegerMatrix
from infsurf.ordinal import ONE, ZERO, Ordinal, add, from_int, omega_pow

# -- dense-vector ordinal oracle (ordinals below w^k) -------------------------


def to_vector(o: Ordinal, k: int) -> list[int]:
    """Coefficients [c_{k-1}, ..., c_1, c_0] of o = sum w^i * c_i; o < w^k."""
    vec = [0] * k
    for exp, coeff in o.terms:
        e = exp.as_int()  # raises if the ordinal is not below w^k
        assert e < k
        vec[k - 1 - e] = coeff
    return vec


def from_vector(vec: list[int]) -> Ordinal:
    k = len(vec)
    out = ZERO
    for i, c in enumerate(vec):
        if c:
            out = add(out, omega_pow(from_int(k - 1 - i), c))
    return out


def div_omega_vector(vec: list[int]) -> list[int]:
    """Largest q with w*q <= b, computed on dense vectors by a plain shift:
    multiplying q by w on the left shifts its coefficients one slot up."""
    return [0] + vec[:-1]


# -- structural rank profile ---------------------------------------------------


def top_rank_profile(e: EndSpaceExpr) -> tuple[Ordinal, int]:
    """(maximal point rank, number of points attaining it) for a countable
    expression, read off the structure without any rewriting.

    In [0, b] with leading term w^g * n the n points w^g, w^g*2, ... are
    exactly the ones of maximal rank g+1; a one-point compactification adds
    a single point one rank above its pieces.
    """
    if isinstance(e, Pt):
        return ONE, 1
    if isinstance(e, Interval):
        b = e.bound
        if b.is_finite():
            return ONE, b.as_int() + 1
        exp, coeff = b.leading()
        return add(exp, ONE), coeff
    if isinstance(e, DisjointUnion):
        best: tuple[Ordinal, int] | None = None
        for c in e.children:
            r, m = top_rank_profile(c)
            if best is None or r > best[0]:
                best = (r, m)
            elif r == best[0]:
                best = (r, best[1] + m)
        assert best is not None
        return best
    if isinstance(e, SeqCompactification):
        r, _ = top_rank_profile(e.child)
        return add(r, ONE), 1
    if isinstance(e, LimitCompactification):
        return add(e.sup, ONE), 1
    raise AssertionError(f"profile oracle only covers countable expressions, got {e!r}")


# -- integer matrices -------------------------------------------------------------


def zero_matrix(rows: int, cols: int) -> IntegerMatrix:
    return IntegerMatrix(tuple((0,) * cols for _ in range(rows)))


def determinant(a: IntegerMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if a.rows != a.cols:
        raise ValueError("determinant of a non-square matrix")
    n = a.rows
    if n == 0:
        return 1
    m = [list(r) for r in a.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def gcd_of_minors(a: IntegerMatrix, size: int) -> int:
    """gcd of all size x size minors (0 when no nonzero minor exists)."""
    g = 0
    for rows in combinations(range(a.rows), size):
        for cols in combinations(range(a.cols), size):
            sub = IntegerMatrix.from_rows([[a.entries[i][j] for j in cols] for i in rows])
            g = gcd(g, determinant(sub))
    return g


# -- partitions -----------------------------------------------------------------


def partitions_with_max_part(n: int, max_part: int) -> int:
    """Number of partitions of n into parts <= max_part, by enumeration."""
    if n == 0:
        return 1
    total = 0
    for first in range(min(n, max_part), 0, -1):
        total += _partitions_bounded(n - first, first)
    return total


def _partitions_bounded(n: int, bound: int) -> int:
    if n == 0:
        return 1
    total = 0
    for first in range(min(n, bound), 0, -1):
        total += _partitions_bounded(n - first, first)
    return total


# -- random generators -----------------------------------------------------------


def random_ordinal(rng: random.Random, max_exp: int = 3, max_coeff: int = 4, allow_zero: bool = True) -> Ordinal:
    """Random ordinal below w^(max_exp + 1) with small coefficients."""
    nterms = rng.randint(0 if allow_zero else 1, max_exp + 1)
    if nterms == 0:
        return ZERO
    exps = sorted(rng.sample(range(max_exp + 1), k=nterms), reverse=True)
    return Ordinal([(from_int(e), rng.randint(1, max_coeff)) for e in exps])


def random_positive_ordinal(rng: random.Random, max_exp: int = 2, max_coeff: int = 3) -> Ordinal:
    while True:
        o = random_ordinal(rng, max_exp=max_exp, max_coeff=max_coeff)
        if not o.is_zero():
            return o


def random_limit_ordinal(rng: random.Random, max_exp: int = 3, max_coeff: int = 3) -> Ordinal:
    exps = sorted(rng.sample(range(1, max_exp + 1), k=rng.randint(1, max_exp)), reverse=True)
    return Ordinal([(from_int(e), rng.randint(1, max_coeff)) for e in exps])


def random_countable_expr(rng: random.Random, depth: int = 4) -> EndSpaceExpr:
    """Random countable end-space expression (no Cantor leaves)."""
    if depth <= 0:
        return rng.choice([Pt(), Interval(random_ordinal(rng))])
    roll = rng.random()
    if roll < 0.3:
        return Pt()
    if roll < 0.55:
        return Interval(random_ordinal(rng))
    if roll < 0.8:
        k = rng.randint(2, 4)
        return union(*(random_countable_expr(rng, depth - 1) for _ in range(k)))
    if roll < 0.93:
        return SeqCompactification(random_countable_expr(rng, depth - 1))
    return LimitCompactification(random_limit_ordinal(rng))


def random_expr(rng: random.Random, depth: int = 4) -> EndSpaceExpr:
    """Random end-space expression, Cantor leaves allowed."""
    if depth <= 0:
        return rng.choice([Pt(), Cantor(), Interval(random_ordinal(rng))])
    roll = rng.random()
    if roll < 0.22:
        return Pt()
    if roll < 0.36:
        return Cantor()
    if roll < 0.52:
        return Interval(random_ordinal(rng))
    if roll < 0.8:
        k = rng.randint(2, 4)
        return union(*(random_expr(rng, depth - 1) for _ in range(k)))
    if roll < 0.93:
        return SeqCompactification(random_expr(rng, depth - 1))
    return LimitCompactification(random_limit_ordinal(rng))
