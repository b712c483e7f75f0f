"""Independent oracles and random generators shared by the test modules.

Everything here deliberately avoids the code paths it is used to check:
ordinals are handled as dense coefficient vectors, ranks are read off the
expression structure directly, and partition counts are enumerated by
brute force.  Integer matrices get their determinants by fraction-free
elimination and their minor gcds by enumerating minors.  The end-space
facts that `endspace.summarize` gathers in one pass are recomputed here by
one recursion per fact, and descriptors are parsed by the character
scanner the engine's tokenizer replaced.  The few helpers only the tests
need (`max_of`, `embed`, `full_twist_image`, `triple`, `ball_size`,
`moves_through`, `best_times`) live here too, as does
`check_verdict_line`, which reads a batch output line without infsurf.
"""

from __future__ import annotations

import gc
import json
import random
import re
import time
from functools import lru_cache
from itertools import combinations
from math import gcd

from typing import Iterator, Optional

from infsurf.endspace import (
    CANTOR_CANON,
    EMPTY_CANON,
    INFINITE,
    NONPLANAR,
    PLANAR,
    Cantor,
    CanonicalEndSpace,
    DisjointUnion,
    Empty,
    EndSpaceExpr,
    Interval,
    LimitCompactification,
    Mark,
    Pt,
    Scattered,
    SeqCompactification,
    TdMax,
    strip_marks,
    union,
)
from infsurf.dsl import ParseError
from infsurf.homology import BadParameter, IntegerMatrix
from infsurf.ordinal import ONE, ZERO, Kind, Ordinal, add, compare, from_int, kind, omega_pow
from infsurf.surface import SurfaceDescriptor

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


def chain(levels: int, innermost: int = 1) -> Ordinal:
    """w^(w^(...w^0*innermost...)), nested `levels` deep, built through the API."""
    o = from_int(innermost)
    for _ in range(levels - 1):
        o = omega_pow(o)
    return o


def cnf_compare(a: Ordinal, b: Ordinal) -> int:
    """-1, 0 or 1 by a recursive walk over the Cantor normal form terms: the
    first term where they differ decides, by exponent and then coefficient,
    and else the ordinal with fewer terms is the smaller."""
    for (ea, ca), (eb, cb) in zip(a.terms, b.terms):
        c = cnf_compare(ea, eb)
        if c:
            return c
        if ca != cb:
            return -1 if ca < cb else 1
    if len(a.terms) != len(b.terms):
        return -1 if len(a.terms) < len(b.terms) else 1
    return 0


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


def max_of(values: list[Ordinal]) -> tuple[Ordinal, int]:
    """Maximum of a nonempty sequence together with its multiplicity."""
    if not values:
        raise ValueError("max_of needs a nonempty sequence")
    best = values[0]
    mult = 1
    for v in values[1:]:
        c = compare(v, best)
        if c > 0:
            best, mult = v, 1
        elif c == 0:
            mult += 1
    return best, mult


# -- integer matrices -------------------------------------------------------------


def zero_matrix(rows: int, cols: int) -> IntegerMatrix:
    return IntegerMatrix(tuple((0,) * cols for _ in range(rows)))


def identity_matrix(n: int) -> IntegerMatrix:
    return IntegerMatrix(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))


def matmul(a: IntegerMatrix, b: IntegerMatrix) -> IntegerMatrix:
    """The product a @ b, by the schoolbook rule."""
    if a.cols != b.rows:
        raise ValueError("dimension mismatch")
    cols = list(zip(*b.entries)) if b.entries else []
    return IntegerMatrix(tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a.entries))


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


# -- end-space facts, one recursion each ------------------------------------------


def walk(e: EndSpaceExpr) -> Iterator[EndSpaceExpr]:
    yield e
    if isinstance(e, DisjointUnion):
        for c in e.children:
            yield from walk(c)
    elif isinstance(e, SeqCompactification):
        yield from walk(e.child)


def nesting(e: EndSpaceExpr) -> int:
    """Levels of unions and sequence compactifications: a leaf has none."""
    if isinstance(e, DisjointUnion):
        return 1 + max(map(nesting, e.children))
    if isinstance(e, SeqCompactification):
        return 1 + nesting(e.child)
    return 0


def marks(e: EndSpaceExpr) -> Iterator[Mark]:
    if isinstance(e, (Pt, Interval, Cantor)):
        yield e.mark
    elif isinstance(e, DisjointUnion):
        for c in e.children:
            yield from marks(c)
    elif isinstance(e, SeqCompactification):
        yield e.point_mark
        yield from marks(e.child)
    elif isinstance(e, LimitCompactification):
        yield e.point_mark
        yield PLANAR  # the implicit interval pieces are planar


def has_nonplanar(e: EndSpaceExpr) -> bool:
    return any(m is NONPLANAR for m in marks(e))


def closedness_violation(e: EndSpaceExpr, path: str = "ends") -> Optional[str]:
    """Path of the first compactification point marked planar over
    non-planar material, in pre-order."""
    if isinstance(e, DisjointUnion):
        for i, c in enumerate(e.children):
            bad = closedness_violation(c, f"{path}.children[{i}]")
            if bad:
                return bad
    elif isinstance(e, SeqCompactification):
        if e.point_mark is PLANAR and has_nonplanar(e.child):
            return path
        return closedness_violation(e.child, f"{path}.child")
    return None


def isolated_count(e: EndSpaceExpr, planar_only: bool = False) -> int | float:
    """Isolated points; with planar_only, only those marked planar."""
    if isinstance(e, (Empty, Cantor)):
        return 0
    if isinstance(e, (Pt, Interval)):
        if planar_only and e.mark is not PLANAR:
            return 0
        if isinstance(e, Pt):
            return 1
        return e.bound.as_int() + 1 if e.bound.is_finite() else INFINITE
    if isinstance(e, DisjointUnion):
        return sum(isolated_count(c, planar_only) for c in e.children)
    if isinstance(e, SeqCompactification):
        return INFINITE if isolated_count(e.child, planar_only) > 0 else 0
    if isinstance(e, LimitCompactification):
        return INFINITE  # the interval pieces are planar and full of isolated points
    raise TypeError(f"not an end-space expression: {e!r}")


def is_infinite_type(d: SurfaceDescriptor) -> bool:
    """Infinite genus or infinitely many ends: a space of ends is infinite
    exactly when it has infinitely many isolated points or a Cantor set."""
    if d.genus == INFINITE or isolated_count(d.ends) == INFINITE:
        return True
    return any(isinstance(x, Cantor) for x in walk(d.ends))


def mixed(e: EndSpaceExpr) -> bool:
    """A non-planar compactification point accumulated by planar isolated points."""
    if isinstance(e, DisjointUnion):
        return any(mixed(c) for c in e.children)
    if isinstance(e, SeqCompactification):
        if e.point_mark is NONPLANAR and isolated_count(e.child, planar_only=True) > 0:
            return True
        return mixed(e.child)
    if isinstance(e, LimitCompactification):
        return e.point_mark is NONPLANAR
    return False


def rank_bound(e: EndSpaceExpr) -> Ordinal:
    """Upper bound for the ranks of ordinal-interval germs occurring in `e`."""
    if isinstance(e, (Empty, Cantor)):
        return ZERO
    if isinstance(e, Pt):
        return ONE
    if isinstance(e, Interval):
        b = e.bound
        return ONE if b.is_finite() else add(b.leading()[0], ONE)
    if isinstance(e, DisjointUnion):
        best = ZERO
        for c in e.children:
            r = rank_bound(c)
            if compare(r, best) > 0:
                best = r
        return best
    if isinstance(e, SeqCompactification):
        return add(rank_bound(e.child), ONE)
    if isinstance(e, LimitCompactification):
        return add(e.sup, ONE)
    raise TypeError(f"not an end-space expression: {e!r}")


def has_compactification(e: EndSpaceExpr) -> bool:
    return any(isinstance(n, (SeqCompactification, LimitCompactification)) for n in walk(e))


def _merge_canon(a: CanonicalEndSpace, b: CanonicalEndSpace) -> CanonicalEndSpace:
    sa, sb = a.scattered, b.scattered
    if sa is None or sb is None:
        s = sa if sb is None else sb
    elif sa.exponent.is_zero() and sb.exponent.is_zero():
        s = Scattered(sa.copies + sb.copies, ZERO)
    elif sa.exponent.is_zero() or sb.exponent.is_zero():
        # finite discrete summands are absorbed by interval copies
        s = sb if sa.exponent.is_zero() else sa
    else:
        c = compare(sa.exponent, sb.exponent)
        s = Scattered(sa.copies + sb.copies, sa.exponent) if c == 0 else (sa if c > 0 else sb)
    return CanonicalEndSpace(a.has_kernel or b.has_kernel, s)


def reduce_expr(e: EndSpaceExpr) -> tuple[CanonicalEndSpace, tuple[EndSpaceExpr, ...]]:
    """(canonical part, irreducible atoms) of the marks-stripped expression."""
    return _reduce(strip_marks(e))


def _reduce(e: EndSpaceExpr) -> tuple[CanonicalEndSpace, tuple[EndSpaceExpr, ...]]:
    if isinstance(e, Empty):
        return EMPTY_CANON, ()
    if isinstance(e, Pt):
        return CanonicalEndSpace(False, Scattered(1, ZERO)), ()
    if isinstance(e, Cantor):
        return CANTOR_CANON, ()
    if isinstance(e, Interval):
        b = e.bound
        if b.is_finite():
            return CanonicalEndSpace(False, Scattered(b.as_int() + 1, ZERO)), ()
        exp, coeff = b.leading()
        return CanonicalEndSpace(False, Scattered(coeff, exp)), ()
    if isinstance(e, DisjointUnion):
        canon, atoms = EMPTY_CANON, ()
        for c in e.children:
            cc, ca = _reduce(c)
            canon, atoms = _merge_canon(canon, cc), atoms + ca
        return canon, atoms
    if isinstance(e, LimitCompactification):
        return CanonicalEndSpace(False, Scattered(1, e.sup)), ()
    if isinstance(e, SeqCompactification):
        c, atoms = _reduce(e.child)
        if atoms:
            return EMPTY_CANON, (SeqCompactification(assemble(c, atoms)),)
        if c.is_empty():
            return CanonicalEndSpace(False, Scattered(1, ZERO)), ()
        if c.has_kernel and c.scattered is None:
            return CANTOR_CANON, ()
        if c.has_kernel:
            return EMPTY_CANON, (SeqCompactification(embed(c)),)
        s = c.scattered
        exp = ONE if s.exponent.is_zero() else add(s.exponent, ONE)
        return CanonicalEndSpace(False, Scattered(1, exp)), ()
    raise TypeError(f"not an end-space expression: {e!r}")


def embed(c: CanonicalEndSpace) -> EndSpaceExpr:
    """A (planar-marked) expression denoting the canonical space: a Cantor
    set for the kernel next to [0, w^a * n] for n copies of [0, w^a], which
    is [0, n - 1] when a = 0 and a single point when also n = 1."""
    parts = [Cantor()] if c.has_kernel else []
    s = c.scattered
    if s is not None and s.exponent.is_zero():
        parts.append(Pt() if s.copies == 1 else Interval(from_int(s.copies - 1)))
    elif s is not None:
        parts.append(Interval(omega_pow(s.exponent, s.copies)))
    return union(*parts)


def assemble(canon: CanonicalEndSpace, atoms: tuple[EndSpaceExpr, ...]) -> EndSpaceExpr:
    parts = [] if canon.is_empty() else [embed(canon)]
    return union(*parts, *sorted(atoms, key=str))


def td_max(e: EndSpaceExpr) -> TdMax:
    """The certified distinguished-set size, from the reduced form."""
    canon, atoms = reduce_expr(e)
    s = canon.scattered
    if not atoms:
        return TdMax(0 if s is None else s.copies)
    claimed = len(atoms) if not any(has_compactification(a.child) for a in atoms) else 0
    spoiled = ZERO
    for a in atoms:
        if compare(rank_bound(a.child), spoiled) > 0:
            spoiled = rank_bound(a.child)
    if s is not None and not s.exponent.is_zero() and compare(add(s.exponent, ONE), spoiled) > 0:
        claimed += s.copies
    return TdMax(claimed, exact=False)


# -- ordinals and series ----------------------------------------------------------


def fundamental_sequence(lam: Ordinal, i: int) -> Ordinal:
    """i-th entry of the canonical sequence converging to the limit ordinal `lam`.

    The last CNF term w^g*c loses one from its coefficient and is followed
    by w^(g-1)*i when g is a successor, or by w^(g[i]) when g is a limit.
    """
    if kind(lam) is not Kind.LIMIT:
        raise ValueError(f"{lam} is not a limit ordinal")
    if i < 0:
        raise ValueError("index must be non-negative")
    *rest, (exp, coeff) = lam.terms
    prefix = Ordinal((*rest, (exp, coeff - 1))) if coeff > 1 else Ordinal(rest)
    if kind(exp) is Kind.SUCCESSOR or exp.is_finite():
        pred = (
            from_int(exp.as_int() - 1)
            if exp.is_finite()
            else Ordinal((*exp.terms[:-1], *(((ZERO, exp.terms[-1][1] - 1),) if exp.terms[-1][1] > 1 else ())))
        )
        step = omega_pow(pred, i) if i else ZERO
    else:
        step = omega_pow(fundamental_sequence(exp, i))
    return add(prefix, step)


def torus_power_series(p: int, max_degree: int) -> tuple[int, ...]:
    """Coefficients of 1/(1-t^2)^p, multiplying in one factor at a time."""
    coeff = [0] * (max_degree + 1)
    coeff[0] = 1
    for _ in range(p):
        for deg in range(2, max_degree + 1):
            coeff[deg] += coeff[deg - 2]
    return tuple(coeff)


def full_twist_image(n: int) -> int:
    """Image n(n-1) of the full twist in Z/(2n-2): 0 for even n, n-1 for odd n."""
    if n < 2:
        raise BadParameter("need n >= 2")
    r = (n * (n - 1)) % (2 * n - 2)
    assert r == (0 if n % 2 == 0 else n - 1)
    return r


# -- verdicts and verdict lines -------------------------------------------------


def triple(v) -> tuple[str, str, str]:
    """The answers of a ``decide.Verdict`` to I, II and III."""
    return (v.qI.result, v.qII.result, v.qIII.result)


def _distinguished_square(n: int) -> dict:
    """The computation of the witness for n distinguished ends, in closed form:
    the class 2 in Z/2k, k = n - 1 for even n and (n - 1)/2 for odd n, is
    nonzero exactly when n >= 4, and the spherical braid group on n strands
    abelianizes to Z/(2n - 2)."""
    k = n - 1 if n % 2 == 0 else (n - 1) // 2
    return {
        "kind": "distinguished_square",
        "n": n,
        "k": k,
        "modulus": 2 * k,
        "element": 2,
        "element_nonzero": n >= 4,
        "square_commutes": True,
        "full_twist_residue": 0,
        "spherical_braid_abelianization": f"Z/{2 * n - 2}",
    }


# H2 of the closed genus-g mapping class group, g >= 2 (Korkmaz-Stipsicz,
# Math. Proc. Camb. Phil. Soc. 134, 2003): Z/2, then Z + Z/2, then Z
_H2_CLOSED = {2: "Z/2", 3: "Z + Z/2"}

# the even-degree witness writes its series through this degree
_SERIES_DEGREE = 20


@lru_cache(maxsize=None)
def _wreath_series(p: int) -> tuple[int, ...]:
    """Coefficients of prod_{i=1..p} 1/(1-t^(2i)) through ``_SERIES_DEGREE``:
    the coefficient of t^(2d) counts the partitions of d into parts <= p."""
    return tuple(
        0 if deg % 2 else partitions_with_max_part(deg // 2, p) for deg in range(_SERIES_DEGREE + 1)
    )


def _witness_closed_form(kind: str, genus, punctures, n) -> Optional[dict]:
    """The computation of a witness of this kind in closed form, its inputs
    the line's genus, punctures and distinguished count n; None when the
    kind is unknown or the line gives it no valid input."""
    if kind == "distinguished_square" and isinstance(n, int):
        return _distinguished_square(n)
    if kind == "abelianization" and genus == 1:
        return {"kind": kind, "presentation": "sl2z", "group": "Z/12"}
    if kind == "h2_lookup" and isinstance(genus, int) and genus >= 2:
        return {"kind": kind, "genus": genus, "group": _H2_CLOSED.get(genus, "Z")}
    if kind == "braid_sign" and punctures in (2, 3):
        return {"kind": kind, "strands": punctures, "h1_braid": "Z", "h1_symmetric": "Z/2"}
    if kind == "even_degree_summands" and isinstance(punctures, int) and punctures >= 1:
        return {
            "kind": kind,
            "punctures": punctures,
            "series_coefficients": list(_wreath_series(punctures)),
            "positive_in_every_even_degree": True,
        }
    return None


# The decision table, transcribed from docs/citations.md: each row gives the
# (answer, coefficient scope, citation) of questions I, II and III.  A yes
# holds integrally and passes on to the later questions; a vanishing holds
# with any field coefficients, the Cantor tree's with any coefficients; an
# open cell has no scope.
_PROPAGATED = ("yes", "integral", "positive-answers-propagate")
_COMPACT_VANISHING = ("no", "any_field", "infinite-genus-compact-vanishing")
DECISION_TABLE = {
    "finite genus": (("yes", "integral", "finite-genus-nonvanishing"), _PROPAGATED, _PROPAGATED),
    "infinite genus, no punctures": (_COMPACT_VANISHING,)
    + 2 * (("no", "any_field", "infinite-genus-no-punctures-vanishing"),),
    "infinite genus, finitely many punctures": (
        _COMPACT_VANISHING,
        ("yes", "integral", "infinite-genus-finite-punctures-nonvanishing"),
        _PROPAGATED,
    ),
    "infinite genus, mixed end": (_COMPACT_VANISHING,) + 2 * (("no", "any_field", "mixed-end-vanishing"),),
    "infinite genus, no mixed end": (_COMPACT_VANISHING,) + 2 * (("unknown", None, "infinite-genus-unmixed-open"),),
    "Cantor tree": 3 * (("no", "any_coefficients", "cantor-tree-vanishing"),),
    "two or three punctures": 2 * (("unknown", None, "two-or-three-punctures-open"),)
    + (("yes", "integral", "two-or-three-punctures-braid-sign"),),
    "distinguished ends": (("yes", "integral", "distinguished-ends-nonvanishing"), _PROPAGATED, _PROPAGATED),
    "single interval": 3 * (("no", "any_field", "single-interval-vanishing"),),
    "genus zero open": 3 * (("unknown", None, "genus-zero-infinite-punctures-open"),),
}


def _decision_row(derived: dict) -> tuple[str, Optional[str]]:
    """The row of ``DECISION_TABLE`` for a line's derived facts, and the set
    whose size the row's witness counts (None for a row without one).  The
    ends are a single interval [0, w^a] when the ``end_space`` description
    starts with "1 copy of [", so with no Cantor set beside it."""
    punctures = derived["punctures"]
    finite = punctures != "infinity"
    if derived["genus_class"] == "finite_positive":
        return "finite genus", None
    if derived["genus_class"] == "infinite":
        if punctures == 0:
            return "infinite genus, no punctures", None
        if finite:
            return "infinite genus, finitely many punctures", "punctures"
        return ("infinite genus, mixed end" if derived["mixed_end"] else "infinite genus, no mixed end"), None
    if finite:
        if punctures <= 1:
            return "Cantor tree", None
        return ("two or three punctures" if punctures <= 3 else "distinguished ends"), "punctures"
    if derived["td_max"]["value"] >= 4:
        return "distinguished ends", "distinguished end set"
    if derived["end_space"].partition(" (")[2].startswith("1 copy of ["):
        return "single interval", None
    return "genus zero open", None


def check_verdict_line(line: str) -> list[str]:
    """What is wrong with one ``decide --jsonl`` output line, read alone and
    without infsurf: a yes to I or II must be a yes to the next question,
    each answer, coefficient scope and citation and the witness set must
    be those of the line's row of the decision table, and each witness
    must equal its closed form, read off the line's derived facts.  A
    ``distinguished_square`` witness has as n the line's
    ``td_max.value`` for the witness set "distinguished end set" and its
    punctures for "punctures"; ``abelianization`` is H1 of SL(2, Z) at
    genus 1, ``h2_lookup`` the H2 table at the line's genus, and
    ``braid_sign`` and ``even_degree_summands`` are read at its punctures.
    An error line has nothing to check."""
    v = json.loads(line)
    if "error" in v:
        return []
    problems = []
    a, b, c = (v[q]["answer"] for q in ("qI", "qII", "qIII"))
    if (a == "yes" and b != "yes") or (b == "yes" and c != "yes"):
        problems.append(f"implication chain broken: {a}, {b}, {c}")
    derived = v["derived"]
    row, witness_set = _decision_row(derived)
    if derived.get("witness_set") != witness_set:
        problems.append(f"witness set {derived.get('witness_set')!r}, but row {row!r} counts {witness_set!r}")
    for q, want in zip(("qI", "qII", "qIII"), DECISION_TABLE[row]):
        got = (v[q]["answer"], v[q].get("coefficients"), v[q]["citation"])
        if got != want:
            problems.append(f"{q}: {got}, but row {row!r} gives {want}")
    counted = {"distinguished end set": derived.get("td_max", {}).get("value"), "punctures": derived["punctures"]}
    n = counted.get(derived.get("witness_set"))
    for q in ("qI", "qII", "qIII"):
        witness = v[q]["witness"]
        if witness is None:
            continue
        computation = witness["computation"]
        want = _witness_closed_form(computation["kind"], derived["genus"], derived["punctures"], n)
        if want is None:
            problems.append(f"{q}: no closed form for witness {computation} on derived facts {derived}")
        elif computation != want:
            problems.append(f"{q}: witness {computation} is not its closed form {want}")
    return problems


# -- complexity guards -----------------------------------------------------------


def best_times(calls, runs: int = 5) -> list[float]:
    """The least ``process_time`` of each call over `runs` interleaved rounds,
    with the collector off while a call runs.  A guard compares the best
    times of inputs n and 8n, so one slow run under host load fails none."""
    best = [INFINITE] * len(calls)
    for _ in range(runs):
        for i, call in enumerate(calls):
            gc.disable()
            try:
                start = time.process_time()
                call()
                best[i] = min(best[i], time.process_time() - start)
            finally:
                gc.enable()
    return best


# -- grid paths ------------------------------------------------------------------


def ball_size(radius: int) -> int:
    """Number of half-plane cells (x, y), y >= 0, with max(|x|, y) <= radius."""
    return (2 * radius + 1) * (radius + 1)


_STEPS = {"R": (1, 0), "L": (-1, 0), "U": (0, 1), "D": (0, -1)}


_MOVE_OF = {step: move for move, step in _STEPS.items()}


def moves_through(points) -> str:
    """The moves of the grid path through ``points``, a sequence of (x, y)
    cells from the origin, one unit step apart."""
    if not points:
        raise ValueError("a grid path has at least one cell")
    if points[0] != (0, 0):
        raise ValueError("a grid path starts at the origin")
    moves = []
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        move = _MOVE_OF.get((x1 - x0, y1 - y0))
        if move is None:
            raise ValueError(f"non-adjacent step {(x0, y0)} -> {(x1, y1)}")
        moves.append(move)
    return "".join(moves)


def grid_path_revisits(moves: str) -> bool:
    """Whether the walk of `moves` from the origin visits some cell twice,
    read off a set of its cells one move at a time: the reference for the
    revisit check of `constructions.GridPath`."""
    x = y = 0
    seen = {(0, 0)}
    for move in moves:
        dx, dy = _STEPS[move]
        x, y = x + dx, y + dy
        if (x, y) in seen:
            return True
        seen.add((x, y))
    return False


def grown_walk(rng: random.Random, limit: int) -> str:
    """A self-avoiding walk of at most `limit` moves, grown by rejection: each
    run takes a random direction that leads to a free cell and a random
    length, and stops early at a visited cell.  The walk ends at `limit`
    moves or when every neighbour of its last cell is visited."""
    x = y = 0
    seen = {(0, 0)}
    moves: list[str] = []
    while len(moves) < limit:
        free = [m for m, (dx, dy) in _STEPS.items() if (x + dx, y + dy) not in seen]
        if not free:
            break
        move = rng.choice(free)
        dx, dy = _STEPS[move]
        for _ in range(rng.randint(1, 64)):
            if (x + dx, y + dy) in seen or len(moves) == limit:
                break
            x, y = x + dx, y + dy
            seen.add((x, y))
            moves.append(move)
    return "".join(moves)


# -- reference parser ------------------------------------------------------------
#
# The recursive character scanner the engine parsed with before its
# tokenizer and explicit-stack loop; kept unchanged apart from the entry
# point names as the oracle for values and error positions.  It reads
# naturals with str.isdigit, so it is a reference on ASCII input only, and
# it recurses once per nesting level.


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


def scan_ordinal(text: str) -> Ordinal:
    sc = _Scanner(text)
    value = _ordinal(sc)
    sc.expect_end()
    return value


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


def scan_endspace(text: str) -> EndSpaceExpr:
    sc = _Scanner(text)
    expr = _endspace(sc)
    sc.expect_end()
    return expr


def scan_surface(text: str) -> SurfaceDescriptor:
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


def random_marked_expr(rng: random.Random, depth: int = 4) -> EndSpaceExpr:
    """Random expression with every mark drawn freely, so compactification
    points marked planar over non-planar material occur."""

    def mark():
        return NONPLANAR if rng.random() < 0.35 else PLANAR

    if depth <= 0 or rng.random() < 0.25:
        return rng.choice([Pt(mark()), Cantor(mark()), Interval(random_ordinal(rng), mark())])
    roll = rng.random()
    if roll < 0.45:
        return union(*(random_marked_expr(rng, depth - 1) for _ in range(rng.randint(2, 4))))
    if roll < 0.88:
        return SeqCompactification(random_marked_expr(rng, depth - 1), mark())
    return LimitCompactification(random_limit_ordinal(rng), mark())


# -- descriptor texts, spelled freely ----------------------------------------------


def random_ordinal_text(rng: random.Random, depth: int = 2) -> str:
    """An ordinal as a user might type it: terms in any order (so not in
    normal form), zero coefficients, explicit exponents and nested w^(...)."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.3:
            terms.append(str(rng.randint(0, 12)))
            continue
        roll, term = rng.random(), "w"
        if roll < 0.3:
            term += f"^{rng.randint(0, 4)}"
        elif roll < 0.45:
            term += "^w"
        elif roll < 0.6 and depth > 0:
            term += f"^({random_ordinal_text(rng, depth - 1)})"
        if rng.random() < 0.4:
            term += f"*{rng.randint(0, 5)}"
        terms.append(term)
    return rng.choice(["+", " + ", "+ "]).join(terms)


def random_endspace_text(rng: random.Random, depth: int = 3) -> str:
    """An end space with optional spelled-out marks and uneven whitespace."""
    roll = rng.random()
    if depth <= 0 or roll < 0.3:
        leaf = rng.choice(["pt", "cantor", f"I({random_ordinal_text(rng)})"])
        return leaf + rng.choice(["", "", "!p", "!np", " !np"])
    if roll < 0.55:
        children = (random_endspace_text(rng, depth - 1) for _ in range(rng.randint(1, 3)))
        return "U(" + rng.choice([",", ", "]).join(children) + ")"
    point = rng.choice(["", "", "; np", ";p", " ; p"])
    if roll < 0.8:
        return f"seq1pc({random_endspace_text(rng, depth - 1)}{point})"
    return f"lim1pc({random_ordinal_text(rng)}{point})"


def random_surface_text(rng: random.Random) -> str:
    genus = rng.choice(["inf", "0", "1", "3", "12"])
    return f"surface(genus={genus}, boundary={rng.randint(0, 2)}, ends={random_endspace_text(rng)})"


MUTATION_ALPHABET = "()!,;=^*+ wpnI0123456789xU\t"


def mutate_text(rng: random.Random, text: str) -> str:
    """One truncation, single-character insertion or deletion."""
    roll = rng.random()
    if roll < 0.33:
        return text[: rng.randint(0, len(text))]
    if roll < 0.66 or not text:
        k = rng.randint(0, len(text))
        return text[:k] + rng.choice(MUTATION_ALPHABET) + text[k:]
    k = rng.randrange(len(text))
    return text[:k] + text[k + 1 :]


def huge_natural_texts(rng: random.Random, count: int, max_digits: int) -> list[str]:
    """Generated descriptors with one natural of ``max_digits`` - 1,
    ``max_digits`` or ``max_digits`` + 1 digits, after four fixed ones that
    put such a natural in the genus, a puncture count, a distinguished-end
    count and an ordinal exponent."""
    big = "9" * (max_digits - 1)
    texts = [
        f"surface(genus={big}, boundary=0, ends=cantor)",
        f"surface(genus=inf, boundary=0, ends=U(cantor!np, I({big})))",
        f"surface(genus=0, boundary=0, ends=I(w^2*{big}))",
        f"surface(genus=0, boundary=0, ends=U(cantor, I(w^{big})))",
    ]
    while len(texts) < count:
        text = random_surface_text(rng)
        start, end = rng.choice([m.span() for m in re.finditer(r"[0-9]+", text)])
        digits = rng.choice((max_digits - 1, max_digits, max_digits + 1))
        natural = str(rng.randint(1, 9)) + "".join(rng.choice("0123456789") for _ in range(digits - 1))
        texts.append(text[:start] + natural + text[end:])
    return texts


def nested_endspace_text(kind: str, depth: int) -> str:
    """An end space with ``depth`` parentheses of ``kind`` open at once."""
    if kind == "seq1pc":
        return "seq1pc(" * depth + "pt" + ")" * depth
    if kind == "U":
        return "U(pt, " * depth + "cantor" + ")" * depth
    # I( holds the ordinal, so one level fewer of w^(
    return "I(" + "w^(" * (depth - 1) + "1" + ")" * depth


def differential_texts(rng: random.Random, bases: int, max_depth: int) -> list[str]:
    """Generated descriptors, each followed by two mutations of it, and
    descriptors nested ``max_depth`` deep and one level deeper."""
    texts = []
    for _ in range(bases):
        text = random_surface_text(rng)
        texts += [text, mutate_text(rng, text), mutate_text(rng, mutate_text(rng, text))]
    for kind in ("seq1pc", "U", "w^("):
        for depth in (max_depth, max_depth + 1):
            for genus in ("0", "inf"):
                texts.append(f"surface(genus={genus}, boundary=0, ends={nested_endspace_text(kind, depth)})")
    return texts


def _shell(radius: int) -> list[tuple[int, int]]:
    """Cells at sup-norm distance exactly `radius`, ordered along the walk.

    Odd shells run bottom-right, up, across and down to the bottom-left;
    even shells run the mirror image, so consecutive shells stay adjacent.
    """
    r = radius
    start = r if r % 2 else -r
    column_up = [(start, y) for y in range(0, r + 1)]
    top = [(x, r) for x in (range(start - 1, -start - 1, -1) if start > 0 else range(start + 1, -start + 1))]
    column_down = [(-start, y) for y in range(r - 1, -1, -1)]
    return column_up + top + column_down


def snake_cells(count: int) -> tuple[tuple[int, int], ...]:
    """The first `count` cells of the snake, walked shell by shell as cell
    lists: the reference for `constructions.snake_bijection`."""
    cells: list[tuple[int, int]] = [(0, 0)]
    radius = 1
    while len(cells) < count:
        cells.extend(_shell(radius))
        radius += 1
    return tuple(cells[:count])
