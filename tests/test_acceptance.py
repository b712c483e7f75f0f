"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; a
pytest failure on a test is the fail line for its criterion.
"""

import random
import time

from infsurf.catalog import CATALOG
from infsurf.constructions import snake_bijection
from infsurf.decide import ANY_COEFFICIENTS, ANY_FIELD, INTEGRAL, NO, UNKNOWN, YES, decide
from infsurf.dsl import parse_surface
from infsurf.endspace import (
    CanonicalEndSpace,
    Interval,
    Pt,
    Scattered,
    SeqCompactification,
    LimitCompactification,
    cb_derivative,
    cb_rank,
    normalize,
    strip_marks,
    union,
)
from infsurf.homology import (
    IntegerMatrix,
    WREATH_QUOTIENT,
    abelianize,
    k_of,
    poincare_series,
    preset,
    prop74_square,
    smith_normal_form,
)
from infsurf.ordinal import ONE, ZERO, Ordinal, add, from_int, omega_pow
from oracles import (
    ball_size,
    determinant,
    embed,
    full_twist_image,
    gcd_of_minors,
    matmul,
    partitions_with_max_part,
    top_rank_profile,
    triple,
)

EXPECTED_CODES = {
    "yes": (YES, INTEGRAL),
    "no_field": (NO, ANY_FIELD),
    "no_any": (NO, ANY_COEFFICIENTS),
    "unknown": (UNKNOWN, None),
}


def _report(num: int, name: str) -> None:
    print(f"[criterion {num:2d}] PASS  {name}")


def _random_alpha_below_w3(rng: random.Random, minimum: int = 0) -> Ordinal:
    while True:
        terms = []
        for e in (2, 1, 0):
            c = rng.randint(0, 3)
            if c:
                terms.append((from_int(e), c))
        o = Ordinal(terms)
        if not (minimum and o.is_zero()):
            return o


def test_criterion_01_table_conformance():
    start = time.perf_counter()
    assert len(CATALOG) == 14
    cells = {entry.cell for entry in CATALOG}
    assert len(cells) == 11  # every decision-table cell is covered
    for entry in CATALOG:
        verdict = decide(parse_surface(entry.descriptor))
        got = tuple(a.result for a in verdict.answers())
        want = tuple(EXPECTED_CODES[e][0] for e in entry.expected)
        assert got == want, f"{entry.name}: {got} != {want}"
        for answer, expected in zip(verdict.answers(), entry.expected):
            assert answer.coefficients == EXPECTED_CODES[expected][1], entry.name
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    _report(1, f"verdict-table conformance on {len(CATALOG)} descriptors in {elapsed * 1000:.0f} ms")


def test_criterion_02_interval_calculus_suite():
    rng = random.Random(202)
    mismatches = 0

    # unique-maximum unions collapse to their top interval
    for _ in range(50):
        top = _random_alpha_below_w3(rng, minimum=1)
        others = []
        while len(others) < rng.randint(1, 4):
            cand = _random_alpha_below_w3(rng)
            if cand < top:
                others.append(cand)
        pieces = [Interval(omega_pow(a)) for a in [top, *others]]
        rng.shuffle(pieces)
        e = union(*pieces)
        nf = normalize(e)
        if nf != CanonicalEndSpace(False, Scattered(1, top)):
            mismatches += 1
        if top_rank_profile(e) != (add(top, ONE), 1):
            mismatches += 1

    # compactified sequences of copies raise the rank by one
    for _ in range(50):
        alpha = _random_alpha_below_w3(rng)
        n = rng.randint(1, 4)
        child = union(*[Pt() for _ in range(n)]) if alpha.is_zero() else Interval(omega_pow(alpha, n))
        e = SeqCompactification(child)
        nf = normalize(e)
        want = Scattered(1, add(alpha, ONE))
        if not (isinstance(nf, CanonicalEndSpace) and nf.scattered == want and not nf.has_kernel):
            mismatches += 1
        if top_rank_profile(e) != (add(alpha, from_int(2)), 1):
            mismatches += 1

    # limit compactifications realize their limit exponent
    for _ in range(50):
        lam = None
        while lam is None or lam.is_finite() or lam.terms[-1][0].is_zero():
            lam = _random_alpha_below_w3(rng, minimum=1)
        e = LimitCompactification(lam)
        nf = normalize(e)
        if not (isinstance(nf, CanonicalEndSpace) and nf.scattered == Scattered(1, lam)):
            mismatches += 1
        if top_rank_profile(e) != (add(lam, ONE), 1):
            mismatches += 1

    assert mismatches == 0
    _report(2, "150 randomized interval-calculus instances, zero mismatches")


def test_criterion_03_cantor_bendixson_calculus():
    rng = random.Random(303)
    for _ in range(200):
        alpha = _random_alpha_below_w3(rng)
        assert cb_rank(Interval(omega_pow(alpha))) == add(alpha, ONE)

    # one derivative drops a finite rank by exactly one
    for _ in range(100):
        n = rng.randint(1, 5)
        delta = rng.randint(1, 40)
        e = embed(CanonicalEndSpace(False, Scattered(n, from_int(delta + 1))))
        assert cb_rank(e) == from_int(delta + 2)
        assert cb_rank(cb_derivative(e)) == from_int(delta + 1)
        base = embed(CanonicalEndSpace(False, Scattered(n, ONE)))
        d = normalize(cb_derivative(base))
        assert isinstance(d, CanonicalEndSpace) and d.scattered == Scattered(n, ZERO)

    # derivative and normalization commute
    from oracles import random_expr
    from test_endspace import _predicted_derivative

    done = 0
    while done < 500:
        e = random_expr(rng, depth=4)
        nf = normalize(e)
        if not isinstance(nf, CanonicalEndSpace):
            continue
        done += 1
        derived = normalize(cb_derivative(e))
        assert isinstance(derived, CanonicalEndSpace)
        assert derived == _predicted_derivative(nf)
    _report(3, "rank anchor (200), finite rank drop (100) and derivative/normalize commutation (500)")


def test_criterion_04_homology_golden_values():
    start = time.perf_counter()
    assert str(abelianize(preset("sl2z"))) == "Z/12"
    for n in range(2, 11):
        group = abelianize(preset("spherical_braid", n))
        assert group.rank == 0 and group.torsion == (2 * n - 2,)
    for n in range(2, 9):
        assert str(abelianize(preset("symmetric", n))) == "Z/2"
    for n in range(2, 11):
        assert str(abelianize(preset("braid", n))) == "Z"
    for n in range(2, 11):
        assert full_twist_image(n) == (0 if n % 2 == 0 else n - 1)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    _report(4, f"abelianization and full-twist golden values in {elapsed * 1000:.0f} ms")


def test_criterion_05_witness_square_arithmetic():
    for n in range(2, 11):
        report = prop74_square(n)
        assert report.k == (n - 1 if n % 2 == 0 else (n - 1) // 2) == k_of(n)
        assert report.element_nonzero == (n >= 4)
        assert report.square_commutes
    _report(5, "witness squares for n = 2..10: k formula, nonzero class iff n >= 4, commutativity")


def test_criterion_06_even_degree_witness_series():
    for p in range(1, 7):
        coeffs = poincare_series(WREATH_QUOTIENT, p, 40)
        for degree in range(0, 41):
            if degree % 2:
                assert coeffs[degree] == 0
            else:
                assert coeffs[degree] == partitions_with_max_part(degree // 2, p)
                assert coeffs[degree] >= 1
    _report(6, "wreath series equals bounded partition counts for p <= 6, degree <= 40, all even degrees positive")


def test_criterion_07_smith_normal_form_properties():
    rng = random.Random(707)
    for _ in range(1000):
        a = IntegerMatrix.from_rows([[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)])
        res = smith_normal_form(a)
        prev = None
        for d in res.diagonal:
            assert d >= 0
            if prev not in (None, 0):
                assert d % prev == 0
            if prev == 0:
                assert d == 0
            prev = d
        assert abs(determinant(res.left)) == 1
        assert abs(determinant(res.right)) == 1
        product = matmul(matmul(res.left, a), res.right)
        for i in range(4):
            for j in range(4):
                assert product.entries[i][j] == (res.diagonal[i] if i == j else 0)
        running = 1
        for j, d in enumerate(res.diagonal, start=1):
            running *= d
            assert running == gcd_of_minors(a, j)
    _report(7, "1000 random 4x4 matrices: chain, unimodular transforms, minor-gcd identity")


def test_criterion_08_snake_enumeration():
    start = time.perf_counter()
    count = 10_000
    path = snake_bijection(count)
    assert path.points[0] == (0, 0)
    assert len(set(path.points)) == count
    for (x0, y0), (x1, y1) in zip(path.points, path.points[1:]):
        assert abs(x1 - x0) + abs(y1 - y0) == 1
    r = 0
    while ball_size(r) <= count:
        ball = {(x, y) for x in range(-r, r + 1) for y in range(r + 1)}
        assert set(path.points[: ball_size(r)]) == ball
        r += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    _report(8, f"snake enumeration verified on {count} cells in {elapsed * 1000:.0f} ms")


def test_criterion_09_flute_end_to_end():
    descriptor = parse_surface("surface(genus=0, boundary=0, ends=I(w))")
    nf = normalize(strip_marks(descriptor.ends))
    assert isinstance(nf, CanonicalEndSpace)
    assert nf.scattered == Scattered(1, ONE) and not nf.has_kernel
    verdict = decide(descriptor)
    assert triple(verdict) == (NO, NO, NO)
    assert all(a.coefficients == ANY_FIELD for a in verdict.answers())
    _report(9, "plane-minus-a-lattice descriptor parses, normalizes to one interval copy, gets three field noes")


def test_criterion_10_implication_chain_fuzz():
    from test_surface import _random_valid_descriptor

    rng = random.Random(1010)
    total = 100_000
    for _ in range(total):
        v = decide(_random_valid_descriptor(rng))
        a, b, c = triple(v)
        assert not (a == YES and b != YES)
        assert not (b == YES and c != YES)
        assert not (c == NO and b != NO)
        assert not (b == NO and a != NO)
    _report(10, f"implication chain held on {total} fuzzed valid descriptors")
