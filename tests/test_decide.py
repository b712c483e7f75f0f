import random
import re

import pytest

from infsurf import decide as decide_module, endspace, surface
from infsurf.catalog import CATALOG
from infsurf.decide import (
    ANY_COEFFICIENTS,
    ANY_FIELD,
    EVERY_EVEN_DEGREE,
    HasBoundary,
    INTEGRAL,
    InternalInvariantViolation,
    InvalidDescriptor,
    NO,
    NoWitness,
    NotInfiniteType,
    UNKNOWN,
    YES,
    decide,
    verdict,
    witness_for,
)
from infsurf.dsl import ParseError, parse_surface
from oracles import random_surface_text, triple


def D(text):
    return decide(parse_surface(text))


def test_one_nonplanar_end_gets_three_field_noes():
    v = D("surface(genus=inf, boundary=0, ends=pt!np)")
    assert triple(v) == (NO, NO, NO)
    assert all(a.coefficients == ANY_FIELD for a in v.answers())
    assert "coincide" in (v.qI.note or "")


def test_infinite_genus_with_two_punctures():
    v = D("surface(genus=inf, boundary=0, ends=U(pt!np, pt, pt))")
    assert triple(v) == (NO, YES, YES)
    assert v.qI.coefficients == ANY_FIELD
    assert v.qII.coefficients == INTEGRAL
    assert v.qII.witness.degree == EVERY_EVEN_DEGREE


def test_flute_is_negative_for_fields():
    v = D("surface(genus=0, boundary=0, ends=I(w))")
    assert triple(v) == (NO, NO, NO)
    assert all(a.coefficients == ANY_FIELD for a in v.answers())


def test_kernel_with_five_punctures_is_positive():
    v = D("surface(genus=0, boundary=0, ends=U(cantor, pt, pt, pt, pt, pt))")
    assert triple(v) == (YES, YES, YES)
    assert v.qI.witness.computation["n"] == 5
    assert v.qI.witness.computation["k"] == 2
    assert v.derived.witness_set == "punctures"


def test_two_interval_stacks_are_open():
    v = D("surface(genus=0, boundary=0, ends=U(I(w^w), I(w^w)))")
    assert triple(v) == (UNKNOWN, UNKNOWN, UNKNOWN)
    assert v.qI.coefficients is None and v.qI.witness is None


def test_finite_genus_is_always_positive():
    v = D("surface(genus=3, boundary=0, ends=cantor)")
    assert triple(v) == (YES, YES, YES)
    assert v.qI.witness.degree == 2
    v = D("surface(genus=1, boundary=0, ends=I(w))")
    assert v.qI.witness.degree == 1
    assert v.qI.witness.computation["group"] == "Z/12"


def test_mixed_and_unmixed_infinite_rows():
    mixed = D("surface(genus=inf, boundary=0, ends=seq1pc(U(pt, pt!np); np))")
    assert triple(mixed) == (NO, NO, NO)
    assert mixed.derived.mixed_end
    unmixed = D("surface(genus=inf, boundary=0, ends=U(pt!np, seq1pc(pt)))")
    assert triple(unmixed) == (NO, UNKNOWN, UNKNOWN)
    assert not unmixed.derived.mixed_end


def test_cantor_tree_rows_hold_for_any_coefficients():
    for ends in ("cantor", "U(cantor, pt)"):
        v = D(f"surface(genus=0, boundary=0, ends={ends})")
        assert triple(v) == (NO, NO, NO)
        assert all(a.coefficients == ANY_COEFFICIENTS for a in v.answers())


def test_braid_sign_row():
    v = D("surface(genus=0, boundary=0, ends=U(cantor, pt, pt))")
    assert triple(v) == (UNKNOWN, UNKNOWN, YES)
    assert v.qIII.witness.degree == 1
    assert v.qIII.witness.computation["h1_symmetric"] == "Z/2"


def test_distinguished_row_with_infinitely_many_punctures():
    v = D("surface(genus=0, boundary=0, ends=I(w^2*4))")
    assert triple(v) == (YES, YES, YES)
    assert v.derived.witness_set == "distinguished end set"
    assert v.derived.td is not None and v.derived.td.value == 4 and v.derived.td.exact


def test_certified_lower_bound_yields_yes():
    # four copies of an irreducible compactification: the four added points
    # form a certified distinguished set
    atom = "seq1pc(U(cantor, pt))"
    v = D(f"surface(genus=0, boundary=0, ends=U({atom}, {atom}, {atom}, {atom}))")
    assert triple(v) == (YES, YES, YES)
    assert v.derived.td is not None and not v.derived.td.exact and v.derived.td.value == 4
    assert v.qI.note is not None and "lower bound" in v.qI.note


def test_uncertified_lower_bound_stays_unknown_with_a_note():
    v = D("surface(genus=0, boundary=0, ends=seq1pc(U(cantor, pt)))")
    assert triple(v) == (UNKNOWN, UNKNOWN, UNKNOWN)
    assert any("indeterminate" in n for n in v.derived.notes)


def test_preconditions():
    with pytest.raises(HasBoundary):
        D("surface(genus=0, boundary=1, ends=cantor)")
    with pytest.raises(NotInfiniteType):
        D("surface(genus=2, boundary=0, ends=U(pt, pt))")
    with pytest.raises(InvalidDescriptor):
        D("surface(genus=0, boundary=0, ends=pt!np)")
    # a type failing several checks reports the first: invalid, boundary, finite type
    with pytest.raises(InvalidDescriptor):
        D("surface(genus=0, boundary=1, ends=U(pt, pt!np))")
    with pytest.raises(HasBoundary):
        D("surface(genus=2, boundary=1, ends=U(pt, pt))")


def test_witness_for_accessor():
    v = D("surface(genus=1, boundary=0, ends=I(w))")
    w = witness_for(v, "I")
    assert w.degree == 1 and "Z/12" in w.description
    v = D("surface(genus=inf, boundary=0, ends=U(pt!np, pt))")
    w = witness_for(v, "II")
    assert w.degree == EVERY_EVEN_DEGREE
    assert w.computation["positive_in_every_even_degree"]
    with pytest.raises(NoWitness):
        witness_for(v, "I")
    with pytest.raises(ValueError):
        witness_for(v, "IV")


def test_prop_square_witness_values():
    v = D("surface(genus=0, boundary=0, ends=U(cantor, pt, pt, pt, pt))")
    w = witness_for(v, "I")
    assert w.computation["n"] == 4 and w.computation["k"] == 3
    assert w.computation["element"] == 2 and w.computation["element_nonzero"]


def test_verdicts_depend_only_on_derived_facts():
    rng = random.Random(89)
    from test_surface import _random_valid_descriptor

    seen = {}
    for _ in range(400):
        d = _random_valid_descriptor(rng)
        if d.boundary != 0:
            continue
        try:
            v = decide(d)
        except (HasBoundary, NotInfiniteType, InvalidDescriptor):
            continue
        dd = v.derived
        td = (dd.td.value, dd.td.exact) if dd.td else None
        key = (dd.genus_class, dd.genus, dd.punctures, dd.mixed_end, dd.end_space, td)
        if key in seen:
            assert seen[key] == triple(v)
        seen[key] = triple(v)


def test_every_possible_verdict_respects_the_implication_chain():
    rng = random.Random(97)
    from test_surface import _random_valid_descriptor

    for _ in range(800):
        d = _random_valid_descriptor(rng)
        v = decide(d)
        a, b, c = triple(v)
        if a == YES:
            assert b == YES
        if b == YES:
            assert c == YES
        if c == NO:
            assert b == NO
        if b == NO:
            assert a == NO


def test_a_broken_implication_chain_is_an_internal_error(monkeypatch):
    # a rule whose row answers yes to I but no to II and III
    torus = "surface(genus=1, boundary=0, ends=I(w))"
    qI = D(torus).qI
    no = decide_module.Answer(NO, "infinite-genus-no-punctures-vanishing", coefficients=ANY_FIELD)
    monkeypatch.setitem(decide_module._RULES, "finite_genus", lambda g: (qI, no, no, None, None, ()))
    decide_module.row.cache_clear()
    with pytest.raises(InternalInvariantViolation) as info:
        D(torus)
    assert str(info.value) == "implication chain broken: yes, no, no"


def test_any_coefficient_noes_occur_only_for_near_cantor_trees():
    rng = random.Random(111)
    from test_surface import _random_valid_descriptor

    for _ in range(600):
        v = decide(_random_valid_descriptor(rng))
        for a in v.answers():
            if a.coefficients == ANY_COEFFICIENTS:
                assert v.derived.genus_class == "zero"
                assert v.derived.punctures in (0, 1)


def test_decide_summarizes_the_ends_once(monkeypatch):
    # the summary of the root carries every fact the table reads, so the
    # ends are validated and summarized once per decision
    seen = []
    fold = endspace.summarize

    def counting(e):
        seen.append(e)
        return fold(e)

    monkeypatch.setattr(endspace, "summarize", counting)
    monkeypatch.setattr(surface, "summarize", counting)
    monkeypatch.setattr(decide_module, "summarize", counting)
    for entry in CATALOG:
        d = parse_surface(entry.descriptor)
        seen.clear()
        decide(d)
        assert sum(e is d.ends for e in seen) == 1, entry.name


def test_decide_is_validate_then_a_table_of_the_surface_type():
    rng = random.Random(11)
    texts = [c.descriptor for c in CATALOG] + [random_surface_text(rng) for _ in range(300)]
    kinds = set()
    for text in texts:
        try:
            d = parse_surface(text)
        except ParseError:
            continue
        try:
            want = decide(d)
        except (HasBoundary, NotInfiniteType, InvalidDescriptor) as err:
            kinds.add(type(err))
            with pytest.raises(type(err), match=re.escape(str(err))):
                verdict(d.genus, d.boundary, endspace.summarize(d.ends))
            continue
        kinds.add(None)
        assert verdict(d.genus, d.boundary, endspace.summarize(d.ends)) == want
    assert kinds == {None, HasBoundary, NotInfiniteType, InvalidDescriptor}
