import random
import time
from math import comb

import pytest

from infsurf import homology
from infsurf.homology import (
    AbelianGroup,
    BadParameter,
    FinitePresentation,
    IntegerMatrix,
    MAX_GENERATORS,
    MAX_SERIES_DIGITS,
    OutOfTable,
    ResourceLimit,
    TORUS_POWER,
    UnknownPreset,
    WREATH_QUOTIENT,
    abelianize,
    h2_closed,
    k_of,
    poincare_series,
    preset,
    prop74_square,
    smith_normal_form,
)
from oracles import (
    determinant,
    full_twist_image,
    gcd_of_minors,
    identity_matrix,
    matmul,
    partitions_with_max_part,
    torus_power_series,
    zero_matrix,
)


def _random_matrix(rng, rows, cols, lo=-9, hi=9):
    return IntegerMatrix.from_rows([[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


def _check_snf(a: IntegerMatrix):
    res = smith_normal_form(a)
    m, n = a.rows, a.cols
    assert len(res.diagonal) == min(m, n)
    # unimodular transforms that actually diagonalize
    assert abs(determinant(res.left)) == 1
    assert abs(determinant(res.right)) == 1
    product = matmul(matmul(res.left, a), res.right)
    for i in range(m):
        for j in range(n):
            want = res.diagonal[i] if i == j else 0
            assert product.entries[i][j] == want
    # non-negative divisibility chain
    prev = None
    for d in res.diagonal:
        assert d >= 0
        if prev not in (None, 0):
            assert d % prev == 0
        if prev == 0:
            assert d == 0
        prev = d
    return res


def test_snf_identity():
    res = smith_normal_form(identity_matrix(3))
    assert res.diagonal == (1, 1, 1)


def test_snf_worked_example():
    res = _check_snf(IntegerMatrix.from_rows([[2, 4], [6, 8]]))
    # gcd of entries is 2 and |det| = 8, so the diagonal is forced
    assert res.diagonal == (2, 4)


def test_snf_zero_matrix():
    res = smith_normal_form(zero_matrix(2, 3))
    assert res.diagonal == (0, 0)


def test_snf_properties_and_minor_gcds():
    rng = random.Random(101)
    for _ in range(200):
        a = _random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        res = _check_snf(a)
        running = 1
        for j, d in enumerate(res.diagonal, start=1):
            running *= d
            assert abs(running) == gcd_of_minors(a, j)


def test_snf_is_deterministic():
    a = IntegerMatrix.from_rows([[3, 1, -4], [2, 2, 8], [0, 5, 7]])
    assert smith_normal_form(a) == smith_normal_form(a)


def test_snf_matches_sympy_oracle():
    normalforms = pytest.importorskip("sympy.matrices.normalforms")
    from sympy import ZZ, Matrix

    rng = random.Random(109)
    shapes = [(k, k) for k in range(1, 9)] + [(2, 7), (7, 2), (3, 8), (8, 5), (1, 6), (6, 1)]
    for rows, cols in shapes:
        for kind in ("random", "singular", "sparse", "zero"):
            if kind == "zero":
                a = zero_matrix(rows, cols)
            elif kind == "singular" and rows > 1:
                # the last row repeats a combination of two others
                base = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows - 1)]
                x, y = rng.choice(base), rng.choice(base)
                c = rng.randint(-3, 3)
                a = IntegerMatrix.from_rows(base + [[u + c * v for u, v in zip(x, y)]])
            elif kind == "sparse":
                a = IntegerMatrix.from_rows(
                    [[rng.randint(-30, 30) if rng.random() < 0.3 else 0 for _ in range(cols)] for _ in range(rows)]
                )
            else:
                a = _random_matrix(rng, rows, cols)
            res = _check_snf(a)
            want = normalforms.smith_normal_form(Matrix(a.entries), domain=ZZ)
            assert list(res.diagonal) == [want[i, i] for i in range(min(rows, cols))]


def test_snf_dense_transforms_stay_small():
    rng = random.Random(113)
    for size in (16, 24):
        a = _random_matrix(rng, size, size)
        res = smith_normal_form(a)
        assert matmul(matmul(res.left, a), res.right) == IntegerMatrix.from_rows(
            [[res.diagonal[i] if i == j else 0 for j in range(size)] for i in range(size)]
        )
        product = 1
        for d in res.diagonal:
            product *= d
        assert product == abs(determinant(a))
        # the transforms stay within a few times the digit count of |det a|
        bound = 4 * len(str(product)) + 10
        assert max(len(str(abs(x))) for m in (res.left, res.right) for row in m.entries for x in row) <= bound


# -- presentations ---------------------------------------------------------------


def test_presentation_validation():
    with pytest.raises(ValueError):
        FinitePresentation(2, ((1, 3),))
    with pytest.raises(ValueError):
        FinitePresentation(2, ((0,),))


def test_braid_presentation_shape():
    b3 = preset("braid", 3)
    assert b3.ngens == 2
    assert b3.relators == ((1, 2, 1, -2, -1, -2),)


@pytest.mark.parametrize(
    "name, n, expected",
    [
        ("sl2z", None, "Z/12"),
        ("spherical_braid", 4, "Z/6"),
        ("symmetric", 5, "Z/2"),
        ("braid", 5, "Z"),
        ("spherical_braid", 2, "Z/2"),
        ("symmetric", 2, "Z/2"),
    ],
)
def test_abelianization_golden_values(name, n, expected):
    assert str(abelianize(preset(name, n))) == expected


@pytest.mark.parametrize("name", ["braid", "symmetric", "spherical_braid", "sl2z"])
def test_abelianize_drops_zero_rows_without_changing_the_group(name):
    for n in [None] if name == "sl2z" else range(2, 25):
        pres = preset(name, n)
        full = pres.exponent_matrix()
        kept = IntegerMatrix(tuple(r for r in full.entries if any(r)))
        full_diag = [d for d in smith_normal_form(full).diagonal if d]
        assert [d for d in smith_normal_form(kept).diagonal if d] == full_diag
        group = AbelianGroup(pres.ngens - len(full_diag), tuple(d for d in full_diag if d > 1))
        assert abelianize(pres) == group



def test_abelianize_matches_the_snf_diagonal_on_random_presentations():
    # abelianize reads the diagonal without building transforms; each
    # random row becomes a relator with those exponent sums
    rng = random.Random(97)
    for _ in range(200):
        rows, cols = rng.randint(0, 7), rng.randint(1, 7)
        a = _random_matrix(rng, rows, cols, lo=-6, hi=6)
        relators = tuple(
            tuple(letter for j, e in enumerate(row) for letter in [(j + 1) if e > 0 else -(j + 1)] * abs(e))
            for row in a.entries
        )
        pres = FinitePresentation(cols, relators)
        assert pres.exponent_matrix() == a
        nonzero = [d for d in smith_normal_form(a).diagonal if d]
        assert abelianize(pres) == AbelianGroup(cols - len(nonzero), tuple(d for d in nonzero if d > 1))

def test_spherical_braid_family():
    for n in range(2, 11):
        group = abelianize(preset("spherical_braid", n))
        assert group == AbelianGroup(0, (2 * n - 2,))


def test_preset_errors():
    with pytest.raises(UnknownPreset):
        preset("frieze", 3)
    with pytest.raises(BadParameter):
        preset("braid", 1)
    with pytest.raises(BadParameter):
        preset("sl2z", 4)


def test_generator_budget(monkeypatch):
    assert FinitePresentation(MAX_GENERATORS, ()).ngens == MAX_GENERATORS
    with pytest.raises(ResourceLimit):
        FinitePresentation(MAX_GENERATORS + 1, ())

    def no_relators(n):
        raise AssertionError("relators built past the budget")

    # a preset on n strands has n - 1 generators and is refused before any
    # of its ~n^2/2 relators is built
    monkeypatch.setattr(homology, "_braid_relators", no_relators)
    for name in ("braid", "symmetric", "spherical_braid"):
        with pytest.raises(ResourceLimit):
            preset(name, MAX_GENERATORS + 2)
        with pytest.raises(ResourceLimit):
            preset(name, 10**9)


def test_abelianize_is_invariant_under_tietze_moves():
    rng = random.Random(103)
    bases = [preset("braid", 4), preset("spherical_braid", 5), preset("symmetric", 3), preset("sl2z")]
    for base in bases:
        want = abelianize(base)
        for _ in range(25):
            move = rng.randrange(2)
            if move == 0 and base.ngens:
                # add a new generator defined by a random word in the old ones
                word = tuple(rng.choice([1, -1]) * rng.randint(1, base.ngens) for _ in range(rng.randint(0, 4)))
                new = FinitePresentation(
                    base.ngens + 1,
                    base.relators + ((base.ngens + 1,) + tuple(-x for x in reversed(word)),),
                )
            else:
                # add a product of conjugates of existing relators
                parts = []
                for _ in range(rng.randint(1, 3)):
                    if not base.relators:
                        continue
                    rel = rng.choice(base.relators)
                    conj = tuple(rng.choice([1, -1]) * rng.randint(1, base.ngens) for _ in range(rng.randint(0, 2)))
                    parts.extend(conj + rel + tuple(-x for x in reversed(conj)))
                new = FinitePresentation(base.ngens, base.relators + (tuple(parts),))
            got = abelianize(new)
            if new.ngens == base.ngens:
                assert got == want
            else:
                # the new generator is killed into the old ones, same group
                assert got == want


def test_abelian_group_formatting():
    assert str(AbelianGroup(0, ())) == "0"
    assert str(AbelianGroup(2, (2, 4))) == "Z + Z + Z/2 + Z/4"
    assert AbelianGroup(0, (2, 4)).order() == 8
    assert AbelianGroup(1, (2,)).order() is None
    with pytest.raises(ValueError):
        AbelianGroup(0, (4, 2))


# -- witness arithmetic ------------------------------------------------------------


@pytest.mark.parametrize("n, expected", [(4, 0), (5, 4), (2, 0)])
def test_full_twist_image_examples(n, expected):
    assert full_twist_image(n) == expected


def test_full_twist_parity_family():
    for n in range(2, 11):
        want = 0 if n % 2 == 0 else n - 1
        assert full_twist_image(n) == want


@pytest.mark.parametrize(
    "n, k, nonzero",
    [(4, 3, True), (3, 1, False), (7, 3, True), (2, 1, False), (5, 2, True)],
)
def test_square_reports(n, k, nonzero):
    report = prop74_square(n)
    assert report.k == k == k_of(n)
    assert report.element_nonzero is nonzero
    assert report.square_commutes
    assert report.full_twist_residue == 0


def test_square_report_matches_the_residue_scan():
    # the closed form against the scan over residues that it replaced
    for n in range(2, 300):
        k = k_of(n)
        commutes = all((2 * (x % k)) % (2 * k) == (2 * x) % (2 * k) for x in range(4 * k))
        injective = len({(2 * x) % (2 * k) for x in range(k)}) == k
        assert prop74_square(n).square_commutes is (commutes and injective), n
    # a huge n answers at once
    report = prop74_square(10**30)
    assert report.square_commutes and report.full_twist_residue == 0


# -- lookup table -------------------------------------------------------------------


@pytest.mark.parametrize(
    "g, expected",
    [(2, "Z/2"), (3, "Z + Z/2"), (4, "Z"), (6, "Z")],
)
def test_h2_lookup(g, expected):
    assert str(h2_closed(g)) == expected


def test_torus_h1_and_table_bounds():
    # H1 of the genus-1 mapping class group is computed, not looked up
    assert str(abelianize(preset("sl2z"))) == "Z/12"
    with pytest.raises(OutOfTable):
        h2_closed(1)


# -- series ---------------------------------------------------------------------------


def test_torus_power_series():
    assert poincare_series(TORUS_POWER, 1, 6) == (1, 0, 1, 0, 1, 0, 1)
    rng = random.Random(107)
    for _ in range(50):
        p = rng.randint(1, 5)
        deg = 2 * rng.randint(0, 12)
        assert poincare_series(TORUS_POWER, p, deg) == torus_power_series(p, deg)


def test_torus_series_stops_at_the_digit_budget():
    # C(p+9, 10) ~ p^10/10!: 4 294 digits at p = 10^430, 4 314 at 10^432
    p = 10**430
    top = poincare_series(TORUS_POWER, p, 20)[20]
    assert top == comb(p + 9, 10) and len(str(top)) <= MAX_SERIES_DIGITS
    p = 10**432
    assert comb(p + 9, 10) >= 10**MAX_SERIES_DIGITS
    with pytest.raises(ResourceLimit):
        poincare_series(TORUS_POWER, p, 20)
    # refused from an estimate, before any coefficient is computed
    for p in (10**11, 10**300, 10**4000):
        start = time.perf_counter()
        with pytest.raises(ResourceLimit):
            poincare_series(TORUS_POWER, p, 2000)
        assert time.perf_counter() - start < 1.0


def test_snf_entries_stop_at_the_digit_budget():
    # at the bound every integer of the result prints; one digit more is
    # refused before any work, also past Python's int-to-string limit
    rng = random.Random(43)
    for m, n in ((1, 1), (2, 2), (6, 3), (3, 12), (16, 16), (24, 8)):
        digits = homology._snf_entry_digits(min(m, n))
        top = 10**digits - 1
        rows = [[rng.randint(-top, top) for _ in range(n)] for _ in range(m)]
        rows[rng.randrange(m)][rng.randrange(n)] = rng.choice((top, -top))
        res = smith_normal_form(IntegerMatrix.from_rows(rows))
        printed = (*res.diagonal, *(x for t in (res.left, res.right) for row in t.entries for x in row))
        assert all(abs(x) < 10**4300 for x in printed)  # Python's default print limit
        rows[0][0] = 10**digits
        with pytest.raises(ResourceLimit):
            smith_normal_form(IntegerMatrix.from_rows(rows))
    start = time.perf_counter()
    with pytest.raises(ResourceLimit):
        smith_normal_form(IntegerMatrix.from_rows([[10**5000, 1], [1, 1]]))
    assert time.perf_counter() - start < 1.0


def test_wreath_series_counts_bounded_partitions():
    coeffs = poincare_series(WREATH_QUOTIENT, 3, 12)
    assert coeffs[12] == 7 == partitions_with_max_part(6, 3)
    for p in range(1, 7):
        coeffs = poincare_series(WREATH_QUOTIENT, p, 30)
        assert coeffs[0] == 1
        for d in range(0, 31):
            if d % 2:
                assert coeffs[d] == 0
            else:
                assert coeffs[d] == partitions_with_max_part(d // 2, p)
                assert coeffs[d] >= 1


def test_wreath_series_ignores_steps_above_the_degree():
    for p in range(1, 31):
        coeffs = poincare_series(WREATH_QUOTIENT, p, 40)
        assert coeffs == tuple(
            0 if d % 2 else partitions_with_max_part(d // 2, p) for d in range(41)
        )
    # only parts <= 10 fit in degree 20
    assert poincare_series(WREATH_QUOTIENT, 10**5, 20) == poincare_series(WREATH_QUOTIENT, 10, 20)


def test_series_parameter_validation():
    with pytest.raises(BadParameter):
        poincare_series(WREATH_QUOTIENT, 0, 10)
    with pytest.raises(BadParameter):
        poincare_series(WREATH_QUOTIENT, 2, 7)
    with pytest.raises(BadParameter):
        poincare_series("other", 2, 8)
