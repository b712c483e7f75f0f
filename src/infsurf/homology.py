"""Exact integer linear algebra and the group-theoretic witness arithmetic.

Everything here is exact: matrices hold arbitrary-precision integers, the
Smith normal form comes with its unimodular transforms, abelianizations are
cokernels of exponent-sum matrices, and the power-series coefficients are
computed as integers.  These computations back every positive verdict of
the decision engine.
"""

from __future__ import annotations

from math import comb, fsum, gcd, log10
from typing import Iterable, Iterator, NamedTuple

from ._value import Value


class UnknownPreset(ValueError):
    pass


class BadParameter(ValueError):
    pass


class OutOfTable(LookupError):
    pass


class ResourceLimit(ValueError):
    """A parameter asks for more than a declared budget allows."""


# ---------------------------------------------------------------------------
# matrices


class IntegerMatrix(Value):
    __slots__ = ("entries",)

    def __init__(self, entries: tuple[tuple[int, ...], ...]) -> None:
        widths = {len(r) for r in entries}
        if len(widths) > 1:
            raise ValueError("ragged rows")
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "IntegerMatrix":
        return cls(tuple(tuple(int(x) for x in row) for row in rows))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0


class SNFResult(NamedTuple):
    diagonal: tuple[int, ...]
    left: IntegerMatrix
    right: IntegerMatrix


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) = s*a + t*b and g >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if a < 0:
        return -a, -s0, -t0
    return a, s0, t0


def _hermite_pass(rows: list[list[int]], width: int) -> list[list[int]]:
    """Reduced row Hermite form of the first ``width`` columns of ``rows``.

    The entries past ``width`` are the row's transform and take part in
    every row operation.  Rows are added one at a time in Kannan-Bachem
    order: an incoming row is reduced against the pivot rows, and after it
    the entries above each pivot are brought into [0, pivot).  That keeps
    every entry, transforms included, from growing beyond what the
    pivots force.  Returns the pivot rows (positive pivots, in column
    order) followed by the zero rows; the given rows are changed in place.

    A row operation at column c touches only the columns [c, hi): both
    rows are zero before c, and every row taken so far is zero from ``hi``
    on, the end of the furthest last nonzero entry among them.  A pass that
    starts from an identity transform so skips most of it.
    """
    pivots: list[list[int]] = []
    cols: list[int] = []
    zeros: list[list[int]] = []
    hi = 0
    for row in rows:
        end = len(row)
        while end > hi and not row[end - 1]:
            end -= 1
        hi = max(hi, end)
        k = c = 0
        changed = None  # index of the first pivot row this row altered
        while True:
            while c < width and not row[c]:
                c += 1
            if c == width:
                zeros.append(row)
                break
            while k < len(cols) and cols[k] < c:
                k += 1
            if k == len(cols) or cols[k] != c:
                if row[c] < 0:
                    row[c:hi] = [-x for x in row[c:hi]]
                pivots.insert(k, row)
                cols.insert(k, c)
                if changed is None:
                    changed = k
                break
            p = pivots[k]
            a, b = p[c], row[c]
            if b % a:
                g, s, t = _xgcd(a, b)
                a, b = a // g, b // g
                ps, rs = p[c:hi], row[c:hi]
                p[c:hi] = [s * x + t * y for x, y in zip(ps, rs)]
                row[c:hi] = [a * y - b * x for x, y in zip(ps, rs)]
                if changed is None:
                    changed = k
            else:
                q = b // a
                row[c:hi] = [y - q * x for x, y in zip(p[c:hi], row[c:hi])]
            k += 1
            c += 1
        if changed is None:
            continue
        for k in range(changed, len(cols)):
            c, p = cols[k], pivots[k]
            v = p[c]
            live = p[c:hi]
            for j in range(k):
                q = pivots[j][c] // v
                if q:
                    above = pivots[j]
                    above[c:hi] = [y - q * x for x, y in zip(live, above[c:hi])]
    return pivots + zeros


MAX_SNF_DIM = 512
"""Most rows, and most columns, of a matrix ``smith_normal_form`` takes.

The transforms are dense, rows x rows and cols x cols: 512 x 1 takes
0.1 s, but 12 000 x 1 would build a 12 000 x 12 000 identity.
"""

MAX_SNF_ENTRIES = 128 * 128
"""Most entries, rows times columns, of a matrix ``smith_normal_form`` takes.

The transform entries grow with the smaller side.  On entries in [-9, 9]
(Python 3.11, shared 2-vCPU VM) 128 x 128 takes 2.1 s and prints 3.4 MB of
JSON, 512 x 32 takes 0.6 s, and past the bound 192 x 192 takes 12 s and
512 x 128 takes 5 s and 27 MB.
"""


MAX_SNF_MINOR_DIGITS = 384
"""Most digits of Hadamard's bound on the minors of a matrix
``smith_normal_form`` takes, r * (d + log10(r) / 2) for the smaller side r
and entries of at most d digits.

So the entries may have at most ``_snf_entry_digits(r)`` digits: 384 at
r = 1, 23 at r = 16, 11 at 32, 5 at 64 and 1 at 128.  The diagonal entries
divide such minors.  The transforms grow faster: on seeded square, tall
and wide matrices (r = 1 to 128, d = 1 to 512; Python 3.11, shared 2-vCPU
VM) their largest entry had up to twice the bound's digits on square
matrices and up to six times on others.  At the bound, over r = 1 to 128
with every allowed larger side from r to 512, the largest had 2 271
digits (4 x 512 with 95-digit entries), inside Python's 4 300-digit print
limit, and the dearest matrix took 2.5 s (96 x 170 with 3-digit entries).
Past it, 16 x 16 with 400-digit entries has transform entries of 12 401
digits, and 128 x 128 with 2-digit entries takes 3.9 s.
"""


def _snf_entry_digits(r: int) -> int:
    """Most digits of an entry of a matrix whose smaller side is ``r`` > 0."""
    return int(MAX_SNF_MINOR_DIGITS / r - log10(r) / 2)


def smith_normal_form(a: IntegerMatrix) -> SNFResult:
    """Smith normal form with unimodular transforms: left @ a @ right is
    diagonal with d1 | d2 | ... and all di >= 0.

    Row and column Hermite passes alternate until the matrix is diagonal;
    a column pass is a row pass on the transpose, with the right transform
    kept transposed.  A gcd/lcm step per pair of diagonal entries then
    repairs the divisibility chain.  The diagonal is unique; the
    transforms are one valid unimodular pair, not a canonical one.
    Reducing above every pivot after each new row, as Kannan and Bachem
    (1979) do, keeps their entries near the size of the matrix's minors
    instead of letting them compound from pass to pass.  A matrix past
    ``MAX_SNF_DIM`` rows or columns, ``MAX_SNF_ENTRIES`` entries or
    ``MAX_SNF_MINOR_DIGITS`` raises ResourceLimit.
    """
    m, n = a.rows, a.cols
    if max(m, n) > MAX_SNF_DIM or m * n > MAX_SNF_ENTRIES:
        raise ResourceLimit(
            f"a Smith normal form takes at most {MAX_SNF_DIM} rows or columns and {MAX_SNF_ENTRIES} entries, "
            f"got {m} x {n}"
        )
    if m and n:
        digits = _snf_entry_digits(min(m, n))
        if max(max(map(abs, row)) for row in a.entries) >= 10**digits:
            raise ResourceLimit(
                f"a Smith normal form of a {m} x {n} matrix takes entries of at most {digits} digits"
            )
    diag, left, right_t = _diagonalize(a, transforms=True)
    return SNFResult(
        tuple(diag),
        IntegerMatrix(tuple(map(tuple, left))),
        IntegerMatrix(tuple(map(tuple, zip(*right_t)))),
    )


def _diagonalize(a: IntegerMatrix, transforms: bool) -> tuple[list[int], list[list[int]], list[list[int]]]:
    """The Smith diagonal of ``a``, the left transform and the right
    transform transposed.  Without ``transforms`` no identity is carried
    along and both transforms come back as empty rows."""
    m, n = a.rows, a.cols

    def identity(k: int) -> list[list[int]]:
        return [[int(i == j) for j in range(k)] if transforms else [] for i in range(k)]

    # [matrix row | transform row]; ``other`` is the transform of the other
    # side, transposed, and ``flipped`` says the matrix is held transposed
    rows = [list(r) + t for r, t in zip(a.entries, identity(m))]
    other = identity(n)
    width, flipped = n, False
    while True:
        rows = _hermite_pass(rows, width)
        if all(not x or i == j for i, r in enumerate(rows) for j, x in enumerate(r[:width])):
            break
        rows, other = (
            [list(col) + t for col, t in zip(zip(*(r[:width] for r in rows)), other)],
            [r[width:] for r in rows],
        )
        width, flipped = len(other), not flipped
    # every diagonal entry is a pivot, so positive, and zero rows came last
    diag = [rows[i][i] for i in range(min(m, n))]
    side = [r[width:] for r in rows]
    left, right_t = (other, side) if flipped else (side, other)
    rank = sum(1 for d in diag if d)
    for i in range(rank):
        for j in range(i + 1, rank):
            x, y = diag[i], diag[j]
            if y % x == 0:
                continue
            # diag(x, y) -> diag(g, xy/g)
            g, s, t = _xgcd(x, y)
            x, y = x // g, y // g
            li, lj, ri, rj = left[i], left[j], right_t[i], right_t[j]
            left[i] = [s * u + t * v for u, v in zip(li, lj)]
            left[j] = [x * v - y * u for u, v in zip(li, lj)]
            right_t[i] = [u + v for u, v in zip(ri, rj)]
            right_t[j] = [s * x * v - t * y * u for u, v in zip(ri, rj)]
            diag[i], diag[j] = g, g * x * y
    return diag, left, right_t


# ---------------------------------------------------------------------------
# presentations and abelianization

MAX_GENERATORS = 128
"""Most generators of a ``FinitePresentation``, and so of a ``preset``.

Abelianization is dense: every exponent row is ``ngens`` wide, and the
braid presets have about n^2/2 relators, all but about n of them
commutators whose zero rows are dropped as they are built.  At this bound
``spherical_braid`` abelianizes in about 0.06 s, and ``hom abelianize
--preset spherical_braid -n 129`` peaks at 17 MB of RSS, 3 MB above
importing ``infsurf.cli`` (Python 3.11, shared 2-vCPU VM); at twice the
bound it takes 0.18 s and 20 MB.
"""


def _check_generators(ngens: int) -> None:
    if ngens > MAX_GENERATORS:
        raise ResourceLimit(f"a presentation has at most {MAX_GENERATORS} generators, got {ngens}")


class FinitePresentation(Value):
    """Generators 1..ngens; a relator is a word of signed generator indices."""

    __slots__ = ("ngens", "relators")

    def __init__(self, ngens: int, relators: tuple[tuple[int, ...], ...]) -> None:
        if ngens < 0:
            raise ValueError("negative generator count")
        _check_generators(ngens)
        for w in relators:
            for letter in w:
                if letter == 0 or abs(letter) > ngens:
                    raise ValueError(f"letter {letter} out of range for {ngens} generators")
        object.__setattr__(self, "ngens", ngens)
        object.__setattr__(self, "relators", relators)

    def exponent_matrix(self) -> IntegerMatrix:
        return IntegerMatrix(tuple(_exponent_rows(self)))

    def __str__(self) -> str:
        parts = [f"gens={self.ngens}"]
        parts.extend("rel=" + " ".join(str(x) for x in w) for w in self.relators)
        return "; ".join(parts)


class AbelianGroup(Value):
    """Z^rank plus cyclic torsion with invariant factors t1 | t2 | ..."""

    __slots__ = ("rank", "torsion")

    def __init__(self, rank: int, torsion: tuple[int, ...] = ()) -> None:
        if rank < 0:
            raise ValueError("negative rank")
        for t in torsion:
            if t < 2:
                raise ValueError("torsion factors must be >= 2")
        for a, b in zip(torsion, torsion[1:]):
            if b % a:
                raise ValueError("torsion factors must form a divisibility chain")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "torsion", torsion)

    def order(self) -> int | None:
        if self.rank:
            return None
        out = 1
        for t in self.torsion:
            out *= t
        return out

    def __str__(self) -> str:
        parts = ["Z"] * self.rank + [f"Z/{t}" for t in self.torsion]
        return " + ".join(parts) if parts else "0"


def _exponent_rows(p: FinitePresentation) -> Iterator[tuple[int, ...]]:
    """The exponent-sum row of each relator of `p`, built one at a time."""
    for w in p.relators:
        row = [0] * p.ngens
        for letter in w:
            row[abs(letter) - 1] += 1 if letter > 0 else -1
        yield tuple(row)


def abelianize(p: FinitePresentation) -> AbelianGroup:
    """Cokernel of the exponent-sum matrix, via the Smith diagonal.

    Zero rows (commutator relators, for instance) are dropped as they are
    built: they do not change the cokernel.  Only the diagonal is read, so
    the Hermite passes carry no transforms.
    """
    rows = tuple(r for r in _exponent_rows(p) if any(r))
    diag, _, _ = _diagonalize(IntegerMatrix(rows), transforms=False)
    nonzero = [x for x in diag if x]
    return AbelianGroup(rank=p.ngens - len(nonzero), torsion=tuple(x for x in nonzero if x > 1))


def _braid_relators(n: int) -> list[tuple[int, ...]]:
    rels: list[tuple[int, ...]] = []
    for i in range(1, n - 1):
        rels.append((i, i + 1, i, -(i + 1), -i, -(i + 1)))
    for i in range(1, n):
        for j in range(i + 2, n):
            rels.append((i, j, -i, -j))
    return rels


def preset(name: str, n: int | None = None) -> FinitePresentation:
    """Standard presentations: braid(n), symmetric(n), spherical_braid(n)
    for n >= 2, and sl2z (two generators s, t with s^4 = 1 and s^2 = t^3)."""
    if name == "sl2z":
        if n is not None:
            raise BadParameter("sl2z takes no parameter")
        return FinitePresentation(2, ((1, 1, 1, 1), (1, 1, -2, -2, -2)))
    if name not in ("braid", "symmetric", "spherical_braid"):
        raise UnknownPreset(name)
    if n is None or n < 2:
        raise BadParameter(f"{name} needs n >= 2, got {n!r}")
    _check_generators(n - 1)
    rels = _braid_relators(n)
    if name == "symmetric":
        rels.extend((i, i) for i in range(1, n))
    elif name == "spherical_braid":
        rels.append(tuple(range(1, n)) + tuple(range(n - 1, 0, -1)))
    return FinitePresentation(n - 1, tuple(rels))


# ---------------------------------------------------------------------------
# witness arithmetic


def k_of(n: int) -> int:
    """k = n-1 for even n and (n-1)/2 for odd n."""
    if n < 2:
        raise BadParameter("need n >= 2")
    return n - 1 if n % 2 == 0 else (n - 1) // 2


class SquareReport(NamedTuple):
    """The checked multiplication-by-2 square from Z/k into Z/2k."""

    n: int
    k: int
    modulus: int  # 2k
    element: int  # the class of 2 in Z/2k
    element_nonzero: bool
    square_commutes: bool
    full_twist_residue: int  # image of the full twist in Z/2k


def prop74_square(n: int) -> SquareReport:
    """Build and verify the degree-one witness square for n distinguished ends.

    The doubling map Z/k -> Z/2k must be a well-defined injection, the
    square against reduction from Z must commute, and the full twist must
    die in Z/2k.  The witness class 2 is nonzero exactly when k >= 2,
    i.e. when n >= 4.
    """
    k = k_of(n)
    two_k = 2 * k
    # both ways round the square are homomorphisms out of Z, so they agree
    # when they agree on 1; doubling Z/k -> Z/2k is injective when the
    # class 2 has order k in Z/2k
    commutes = (2 * (1 % k)) % two_k == 2 % two_k
    injective = two_k // gcd(2, two_k) == k
    twist = (n * (n - 1)) % two_k
    if twist:
        # raised, not asserted: python -O must not certify a live twist
        raise AssertionError(f"the full twist must vanish in Z/2k, got {twist} in Z/{two_k}")
    return SquareReport(
        n=n,
        k=k,
        modulus=two_k,
        element=2 % two_k,
        element_nonzero=(2 % two_k) != 0,
        square_commutes=commutes and injective,
        full_twist_residue=twist,
    )


# ---------------------------------------------------------------------------
# low-degree lookup table (cited values, not recomputed)


_H2_TABLE = {2: AbelianGroup(0, (2,)), 3: AbelianGroup(1, (2,))}


def h2_closed(g: int) -> AbelianGroup:
    """Second homology of the mapping class group of a closed surface."""
    if g < 2:
        raise OutOfTable(f"H2 table starts at genus 2, got {g}")
    return _H2_TABLE.get(g, AbelianGroup(1))


# ---------------------------------------------------------------------------
# Poincare series


TORUS_POWER = "TorusPower"
WREATH_QUOTIENT = "WreathQuotient"

MAX_SERIES_DEGREE = 2000
"""Highest degree ``poincare_series`` computes to.

The wreath recurrence makes up to (max_degree/2)^2 additions and the
result holds max_degree + 1 integers; at this bound a call takes well
under a second.
"""

MAX_SERIES_DIGITS = 4300
"""Most decimal digits in a coefficient of ``poincare_series``.

Python prints no longer int by default (its int-to-string limit).  The
torus series grows with p without bound, and past this size its comb()
calls alone can run for minutes.
"""


def _log10_comb(n: int, m: int) -> float:
    """log10 C(n, m) from min(m, n-m) logarithms, without computing C(n, m)."""
    m = min(m, n - m)
    return fsum(log10(n - m + i) - log10(i) for i in range(1, m + 1))


def poincare_series(kind: str, p: int, max_degree: int) -> tuple[int, ...]:
    """Exact coefficients, degrees 0..max_degree, of the rational series for
    the classifying space of a p-torus, 1/(1-t^2)^p, or of its wreath
    quotient, prod_{i=1..p} 1/(1-t^(2i)).

    The torus coefficient of t^(2d) counts the monomials of degree d in p
    variables, C(d+p-1, p-1).  The wreath coefficient of t^(2d) counts the
    partitions of d into parts of size at most p.
    """
    if p < 1:
        raise BadParameter("need p >= 1")
    if max_degree < 0 or max_degree % 2:
        raise BadParameter("max_degree must be a non-negative even integer")
    if max_degree > MAX_SERIES_DEGREE:
        raise ResourceLimit(f"max_degree is at most {MAX_SERIES_DEGREE}, got {max_degree}")
    if kind == TORUS_POWER:
        # the coefficients grow with the degree, so the last one is the largest
        if _log10_comb(max_degree // 2 + p - 1, max_degree // 2) >= MAX_SERIES_DIGITS:
            raise ResourceLimit(
                f"the torus series to degree {max_degree} has a coefficient of more than "
                f"{MAX_SERIES_DIGITS} digits"
            )
        return tuple(0 if deg % 2 else comb(deg // 2 + p - 1, p - 1) for deg in range(max_degree + 1))
    if kind != WREATH_QUOTIENT:
        raise BadParameter(f"unknown series kind {kind!r}")
    coeff = [0] * (max_degree + 1)
    coeff[0] = 1
    # a part above max_degree/2 adds nothing
    for s in range(2, 2 * min(p, max_degree // 2) + 1, 2):
        for deg in range(s, max_degree + 1):
            coeff[deg] += coeff[deg - s]
    return tuple(coeff)
