import random

import pytest

from infsurf import surface
from infsurf.catalog import CATALOG
from infsurf.dsl import parse_surface
from infsurf.endspace import (
    EMPTY,
    Cantor,
    DisjointUnion,
    Empty,
    Homeo,
    INFINITE,
    Interval,
    LimitCompactification,
    NONPLANAR,
    PLANAR,
    Pt,
    SeqCompactification,
    union,
)
from infsurf.ordinal import OMEGA, from_int, omega_pow
from infsurf.surface import (
    ClosednessViolation,
    GenusMarkMismatch,
    SurfaceDescriptor,
    has_mixed_end,
    punctures_of,
    surface_invariants,
    surfaces_homeomorphic,
    validate,
)
from oracles import embed, has_nonplanar, is_infinite_type

NP_PT = Pt(NONPLANAR)
LOCH_NESS = SurfaceDescriptor(INFINITE, 0, NP_PT)
FLUTE = SurfaceDescriptor(0, 0, SeqCompactification(Pt()))


def test_validate_accepts_one_nonplanar_end():
    validate(LOCH_NESS)


def test_validate_rejects_genus_mark_mismatch():
    with pytest.raises(GenusMarkMismatch):
        validate(SurfaceDescriptor(0, 0, NP_PT))
    with pytest.raises(GenusMarkMismatch):
        validate(SurfaceDescriptor(INFINITE, 0, Pt()))


def test_validate_rejects_open_nonplanar_sets():
    bad = SeqCompactification(union(Pt(), NP_PT), PLANAR)
    with pytest.raises(ClosednessViolation) as exc:
        validate(SurfaceDescriptor(INFINITE, 0, bad))
    assert exc.value.path == "ends"
    nested = union(Cantor(), SeqCompactification(union(Pt(), NP_PT), PLANAR))
    with pytest.raises(ClosednessViolation) as exc:
        validate(SurfaceDescriptor(INFINITE, 0, nested))
    assert exc.value.path == "ends.children[1]"


def test_descriptor_field_validation():
    with pytest.raises(ValueError):
        SurfaceDescriptor(-1, 0, Pt())
    with pytest.raises(ValueError):
        SurfaceDescriptor(0, -2, Pt())


@pytest.mark.parametrize(
    "descriptor, expected",
    [
        (FLUTE, INFINITE),
        (LOCH_NESS, 0),
        (SurfaceDescriptor(INFINITE, 0, union(NP_PT, Pt())), 1),
        (SurfaceDescriptor(INFINITE, 0, Interval(OMEGA, NONPLANAR)), 0),
        (SurfaceDescriptor(INFINITE, 0, LimitCompactification(OMEGA, NONPLANAR)), INFINITE),
    ],
)
def test_puncture_counts(descriptor, expected):
    assert punctures_of(descriptor) == expected


def test_mixed_end_detection():
    # an isolated non-planar end next to a convergent sequence of punctures
    # is not mixed: the limit point is planar
    unmixed = SurfaceDescriptor(INFINITE, 0, union(NP_PT, SeqCompactification(Pt())))
    assert not has_mixed_end(unmixed)
    # a non-planar limit of punctures is mixed
    mixed = SurfaceDescriptor(INFINITE, 0, SeqCompactification(union(Pt(), NP_PT), NONPLANAR))
    assert has_mixed_end(mixed)
    # no punctures anywhere: nothing to accumulate
    blooming = SurfaceDescriptor(INFINITE, 0, Cantor(NONPLANAR))
    assert not has_mixed_end(blooming)
    # a non-planar compactification of interval pieces accumulates their punctures
    limit = SurfaceDescriptor(INFINITE, 0, LimitCompactification(OMEGA, NONPLANAR))
    assert has_mixed_end(limit)


def test_mixed_end_forces_infinite_genus_and_punctures():
    rng = random.Random(61)
    for _ in range(300):
        d = _random_valid_descriptor(rng)
        if has_mixed_end(d):
            assert d.genus == INFINITE
            assert punctures_of(d) == INFINITE


def test_infinite_type_detection():
    assert is_infinite_type(LOCH_NESS)
    assert is_infinite_type(FLUTE)
    assert is_infinite_type(SurfaceDescriptor(0, 0, Cantor()))
    assert not is_infinite_type(SurfaceDescriptor(2, 0, union(Pt(), Pt())))
    assert not is_infinite_type(SurfaceDescriptor(0, 3, Pt()))


def test_surface_invariants_bundle():
    inv = surface_invariants(SurfaceDescriptor(INFINITE, 0, union(NP_PT, SeqCompactification(Pt()))))
    assert inv.genus == INFINITE
    assert inv.punctures == INFINITE
    assert not inv.mixed_end
    assert inv.ends_invariants.countable


# -- homeomorphism -----------------------------------------------------------


def test_homeomorphic_surfaces_examples():
    assert surfaces_homeomorphic(LOCH_NESS, SurfaceDescriptor(INFINITE, 0, NP_PT)) is Homeo.YES
    # the flute in two guises: a compactified sequence and an ordinal interval
    other = SurfaceDescriptor(0, 0, Interval(OMEGA))
    assert surfaces_homeomorphic(FLUTE, other) is Homeo.YES
    # kernel presence differs
    left = SurfaceDescriptor(INFINITE, 0, union(Cantor(NONPLANAR), Pt()))
    right = SurfaceDescriptor(INFINITE, 0, SeqCompactification(Pt(), NONPLANAR))
    assert surfaces_homeomorphic(left, right) is Homeo.NO


def test_homeo_distinguishes_genus_boundary_and_punctures():
    a = SurfaceDescriptor(1, 0, Interval(OMEGA))
    b = SurfaceDescriptor(2, 0, Interval(OMEGA))
    assert surfaces_homeomorphic(a, b) is Homeo.NO
    c = SurfaceDescriptor(1, 1, Interval(OMEGA))
    assert surfaces_homeomorphic(a, c) is Homeo.NO
    d = SurfaceDescriptor(INFINITE, 0, union(NP_PT, Pt()))
    e = SurfaceDescriptor(INFINITE, 0, union(NP_PT, Pt(), Pt()))
    assert surfaces_homeomorphic(d, e) is Homeo.NO


def test_homeo_splits_clopen_marked_pairs():
    a = SurfaceDescriptor(INFINITE, 0, union(Cantor(NONPLANAR), Interval(OMEGA)))
    b = SurfaceDescriptor(INFINITE, 0, union(Cantor(NONPLANAR), SeqCompactification(Pt()), Pt()))
    assert surfaces_homeomorphic(a, b) is Homeo.YES
    # same unmarked ends but the non-planar parts differ
    c = SurfaceDescriptor(INFINITE, 0, union(Cantor(NONPLANAR), Interval(OMEGA), Pt(NONPLANAR)))
    d = SurfaceDescriptor(INFINITE, 0, union(Cantor(NONPLANAR), Interval(OMEGA), Pt()))
    assert surfaces_homeomorphic(c, d) is Homeo.NO
    # irreducible planar parts: Yes when their normal forms agree, Unknown
    # when only their invariants do
    left = parse_surface("surface(genus=inf, boundary=0, ends=U(pt!np, seq1pc(U(cantor, pt))))")
    same = parse_surface("surface(genus=inf, boundary=0, ends=U(seq1pc(U(pt, cantor)), pt!np))")
    assert surfaces_homeomorphic(left, same) is Homeo.YES
    other = parse_surface("surface(genus=inf, boundary=0, ends=U(pt!np, seq1pc(U(cantor, pt, pt))))")
    assert surfaces_homeomorphic(left, other) is Homeo.UNKNOWN
    assert surfaces_homeomorphic(other, left) is Homeo.UNKNOWN


def test_homeo_gives_up_on_forced_marks_over_planar_content():
    a = SurfaceDescriptor(INFINITE, 0, SeqCompactification(union(Cantor(NONPLANAR), Pt()), NONPLANAR))
    b = SurfaceDescriptor(INFINITE, 0, SeqCompactification(union(Cantor(NONPLANAR), Pt()), NONPLANAR))
    # identical descriptors, but the non-planar set is not clopen
    assert surfaces_homeomorphic(a, b) is Homeo.UNKNOWN


def test_homeo_is_reflexive_and_symmetric():
    rng = random.Random(67)
    pool = [_random_valid_descriptor(rng) for _ in range(60)]
    for d in pool:
        r = surfaces_homeomorphic(d, d)
        assert r in (Homeo.YES, Homeo.UNKNOWN)
    for _ in range(150):
        a, b = rng.choice(pool), rng.choice(pool)
        assert surfaces_homeomorphic(a, b) is surfaces_homeomorphic(b, a)
        if surfaces_homeomorphic(a, b) is Homeo.YES:
            ia, ib = surface_invariants(a), surface_invariants(b)
            assert (ia.genus, ia.boundary, ia.punctures, ia.mixed_end) == (
                ib.genus,
                ib.boundary,
                ib.punctures,
                ib.mixed_end,
            )


def test_homeo_summarizes_each_summand_once(monkeypatch):
    # the summaries of the top-level summands give both the validation (their
    # join) and the clopen split, so each end tree is walked once and a
    # union's root is never summarized on its own
    seen = []
    fold = surface.summarize

    def counting(e):
        seen.append(e)
        return fold(e)

    monkeypatch.setattr(surface, "summarize", counting)
    texts = [c.descriptor for c in CATALOG] + [
        "surface(genus=inf, boundary=0, ends=U(cantor!np, I(w), seq1pc(pt)))",
        "surface(genus=inf, boundary=0, ends=seq1pc(U(cantor!np, pt); np))",
    ]
    pairs = [(parse_surface(t), parse_surface(t)) for t in texts]
    pairs.append((SurfaceDescriptor(0, 0, EMPTY), SurfaceDescriptor(0, 0, EMPTY)))
    for a, b in pairs:
        seen.clear()
        surfaces_homeomorphic(a, b)
        summands = []
        for e in (a.ends, b.ends):
            summands += e.children if isinstance(e, DisjointUnion) else [] if isinstance(e, Empty) else [e]
        assert len(seen) == len(summands) and all(x is y for x, y in zip(seen, summands)), str(a)


# -- random valid descriptors --------------------------------------------------


def _random_marked_expr(rng: random.Random, depth: int):
    roll = rng.random()
    mark = NONPLANAR if rng.random() < 0.3 else PLANAR
    if depth <= 0 or roll < 0.3:
        return rng.choice([Pt(mark), Cantor(mark), Interval(omega_pow(from_int(rng.randint(0, 2)), rng.randint(1, 3)), mark)])
    if roll < 0.65:
        return union(*(_random_marked_expr(rng, depth - 1) for _ in range(rng.randint(2, 3))))
    if roll < 0.9:
        child = _random_marked_expr(rng, depth - 1)
        pm = NONPLANAR if has_nonplanar(child) or rng.random() < 0.3 else PLANAR
        return SeqCompactification(child, pm)
    return LimitCompactification(omega_pow(ONE_OR_TWO(rng)), NONPLANAR if rng.random() < 0.3 else PLANAR)


def ONE_OR_TWO(rng):
    return from_int(rng.randint(1, 2))


def _random_valid_descriptor(rng: random.Random) -> SurfaceDescriptor:
    while True:
        ends = _random_marked_expr(rng, rng.randint(1, 3))
        genus = INFINITE if has_nonplanar(ends) else rng.choice([0, 0, 1, 3])
        d = SurfaceDescriptor(genus, 0, ends)
        if is_infinite_type(d):
            return d


def test_random_descriptors_round_trip_through_text():
    from infsurf.dsl import parse_surface

    rng = random.Random(71)
    for _ in range(300):
        d = _random_valid_descriptor(rng)
        again = parse_surface(str(d))
        assert again == d
        validate(again)


def test_planar_descriptor_punctures_match_isolated_counts():
    from infsurf.endspace import CanonicalEndSpace, isolated_count, normalize

    rng = random.Random(73)
    checked = 0
    while checked < 200:
        d = _random_valid_descriptor(rng)
        if has_nonplanar(d.ends):
            continue
        checked += 1
        assert punctures_of(d) == isolated_count(d.ends)
        nf = normalize(d.ends)
        if isinstance(nf, CanonicalEndSpace):
            assert punctures_of(d) == isolated_count(embed(nf))


def test_homeo_yes_propagates_all_invariants():
    rng = random.Random(77)
    pool = [_random_valid_descriptor(rng) for _ in range(80)]
    hits = 0
    for a in pool:
        for b in pool:
            if surfaces_homeomorphic(a, b) is Homeo.YES:
                hits += 1
                assert surface_invariants(a) == surface_invariants(b)
    assert hits >= len(pool)  # at least the decidable self-pairs
