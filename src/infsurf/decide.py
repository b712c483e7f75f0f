"""Answer the three compact-support questions for an infinite-type surface.

For a boundaryless infinite-type surface the engine reports whether the
homology of its mapping class group contains nonzero classes supported on
(I) a compact subsurface, (II) a finite-type subsurface fixing the
punctures, and (III) an arbitrary properly-embedded finite-type subsurface.
Positive answers hold integrally and come with an executed witness
computation; negative answers record whether they hold for all field
coefficients or for arbitrary coefficients.  Cells the theory leaves open
are reported as unknown, which is a successful outcome, not an error.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Optional

from . import homology
from ._value import Value
from .endspace import INFINITE, Summary, TdMax, summarize
from .surface import SurfaceDescriptor, ValidationError, validate_type

YES = "yes"
NO = "no"
UNKNOWN = "unknown"

INTEGRAL = "integral"
ANY_FIELD = "any_field"
ANY_COEFFICIENTS = "any_coefficients"

EVERY_EVEN_DEGREE = "every even degree"

QUESTIONS = ("I", "II", "III")


class DecisionError(ValueError):
    pass


class HasBoundary(DecisionError):
    pass


class NotInfiniteType(DecisionError):
    pass


class InvalidDescriptor(DecisionError):
    pass


class InternalInvariantViolation(RuntimeError):
    """The engine produced a verdict violating one of its own invariants."""


CITATIONS = {
    "infinite-genus-compact-vanishing": (
        "With infinite genus, every compact subsurface is shiftable after a homology "
        "transfer, so compactly supported classes die with any field coefficients."
    ),
    "infinite-genus-no-punctures-vanishing": (
        "With infinite genus and no punctures, finite-type-supported classes die with "
        "any field coefficients."
    ),
    "infinite-genus-finite-punctures-nonvanishing": (
        "With infinite genus and finitely many (at least one) punctures, the circle "
        "wreath product detects compactly supported integral classes: the image "
        "contains a Z summand in every even degree."
    ),
    "mixed-end-vanishing": (
        "A mixed end makes every finite-type subsurface shiftable after transfer, so "
        "finite-type-supported classes die with any field coefficients."
    ),
    "infinite-genus-unmixed-open": (
        "With infinite genus and infinitely many punctures but no mixed end, the "
        "shifting methods do not apply; the question is open."
    ),
    "finite-genus-nonvanishing": (
        "With finite positive genus, capping surjects low-degree homology onto that "
        "of the closed-surface mapping class group, which is nonzero in degree 1 "
        "(genus 1) or degree 2 (genus >= 2)."
    ),
    "cantor-tree-vanishing": (
        "Genus zero with at most one puncture: the mapping class group of the "
        "one-holed Cantor tree is acyclic, so finite-type-supported classes die with "
        "any coefficients."
    ),
    "two-or-three-punctures-braid-sign": (
        "With 2 or 3 punctures the braid sign class survives: first homology of the "
        "braid group surjects onto that of the symmetric group, Z/2."
    ),
    "two-or-three-punctures-open": (
        "Genus zero with 2 or 3 punctures: compact and puncture-fixing support "
        "remain open."
    ),
    "distinguished-ends-nonvanishing": (
        "Genus zero with a topologically distinguished end set of size n >= 4: the "
        "class 2 in Z/2k is nonzero and compactly supported in degree 1."
    ),
    "single-interval-vanishing": (
        "Genus zero with end space a single ordinal interval [0, w^a]: the surface "
        "is a grid (successor a) or an exhausted union of shiftable pieces (limit "
        "a), so finite-type-supported classes die with any field coefficients."
    ),
    "genus-zero-infinite-punctures-open": (
        "Genus zero with infinitely many punctures, end space neither certified "
        "distinguished-rich nor a single ordinal interval: open."
    ),
    "positive-answers-propagate": (
        "Compact support is a special case of puncture-fixing finite-type support, "
        "which is a special case of finite-type support, so positive answers "
        "propagate from I to II to III."
    ),
}


class WitnessRef(NamedTuple):
    degree: int | str  # a positive degree, or EVERY_EVEN_DEGREE
    description: str
    computation: dict


class Answer(Value):
    __slots__ = ("result", "citation", "coefficients", "witness", "note")

    def __init__(
        self,
        result: str,  # YES / NO / UNKNOWN
        citation: str,
        coefficients: Optional[str] = None,
        witness: Optional[WitnessRef] = None,
        note: Optional[str] = None,
    ) -> None:
        if citation not in CITATIONS:
            raise InternalInvariantViolation(f"unknown citation {citation!r}")
        if result == YES and (coefficients != INTEGRAL or witness is None):
            raise InternalInvariantViolation("a positive answer needs integral coefficients and a witness")
        if result == NO and coefficients not in (ANY_FIELD, ANY_COEFFICIENTS):
            raise InternalInvariantViolation("a negative answer needs its coefficient scope")
        if result == UNKNOWN and (coefficients or witness):
            raise InternalInvariantViolation("an unknown answer carries no scope or witness")
        object.__setattr__(self, "result", result)
        object.__setattr__(self, "citation", citation)
        object.__setattr__(self, "coefficients", coefficients)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "note", note)


class DerivedFacts(NamedTuple):
    genus: int | float
    genus_class: str  # "zero" | "finite_positive" | "infinite"
    punctures: int | float
    mixed_end: bool
    end_space: str
    td: Optional[TdMax] = None
    witness_set: Optional[str] = None
    notes: tuple[str, ...] = ()


class Verdict(NamedTuple):
    qI: Answer
    qII: Answer
    qIII: Answer
    derived: DerivedFacts

    def answers(self) -> tuple[Answer, Answer, Answer]:
        return (self.qI, self.qII, self.qIII)


# -- executed witnesses -----------------------------------------------------

MAX_WITNESS_ENDS = homology.MAX_GENERATORS + 1
"""Most distinguished ends, or punctures, the genus-0 witness covers: it
abelianizes the spherical braid group on n strands, n - 1 generators."""


def _torus_witness() -> WitnessRef:
    group = homology.abelianize(homology.preset("sl2z"))
    if str(group) != "Z/12":
        raise InternalInvariantViolation(f"expected Z/12, computed {group}")
    return WitnessRef(
        degree=1,
        description="first homology of the genus-1 mapping class group is Z/12",
        computation={"kind": "abelianization", "presentation": "sl2z", "group": str(group)},
    )


def _closed_surface_witness(g: int) -> WitnessRef:
    group = homology.h2_closed(g)
    if group.rank == 0 and not group.torsion:
        raise InternalInvariantViolation(f"H2 lookup for genus {g} is trivial")
    return WitnessRef(
        degree=2,
        description=f"second homology of the closed genus-{g} mapping class group is {group}",
        computation={"kind": "h2_lookup", "genus": g, "group": str(group)},
    )


def _braid_sign_witness(p: int) -> WitnessRef:
    braid = homology.abelianize(homology.preset("braid", p))
    sym = homology.abelianize(homology.preset("symmetric", p))
    if str(braid) != "Z" or str(sym) != "Z/2":
        raise InternalInvariantViolation(f"braid sign data wrong: {braid}, {sym}")
    return WitnessRef(
        degree=1,
        description=f"the sign class: H1 of the {p}-strand braid group ({braid}) surjects onto H1 of the symmetric group ({sym})",
        computation={"kind": "braid_sign", "strands": p, "h1_braid": str(braid), "h1_symmetric": str(sym)},
    )


def _distinguished_witness(n: int, counted: str) -> WitnessRef:
    """The witness for `n` distinguished ends; `counted` names what n counts."""
    if n > MAX_WITNESS_ENDS:
        raise homology.ResourceLimit(f"the genus-0 witness covers at most {MAX_WITNESS_ENDS} {counted}, got {n}")
    report = homology.prop74_square(n)
    if not (report.element_nonzero and report.square_commutes and report.full_twist_residue == 0):
        raise InternalInvariantViolation(f"distinguished-end witness failed for n={n}: {report}")
    spherical = homology.abelianize(homology.preset("spherical_braid", n))
    if spherical.order() != 2 * n - 2:
        raise InternalInvariantViolation(f"spherical braid abelianization wrong for n={n}: {spherical}")
    return WitnessRef(
        degree=1,
        description=f"the class 2 in Z/{report.modulus} pulled back from {n} distinguished ends is nonzero",
        computation={
            "kind": "distinguished_square",
            "n": n,
            "k": report.k,
            "modulus": report.modulus,
            "element": report.element,
            "element_nonzero": report.element_nonzero,
            "square_commutes": report.square_commutes,
            "full_twist_residue": report.full_twist_residue,
            "spherical_braid_abelianization": str(spherical),
        },
    )


def _even_degree_witness(p: int) -> WitnessRef:
    degree = 20
    coeffs = homology.poincare_series(homology.WREATH_QUOTIENT, p, degree)
    if any(coeffs[d] < 1 for d in range(0, degree + 1, 2)):
        raise InternalInvariantViolation(f"wreath series not positive in every even degree: {coeffs}")
    return WitnessRef(
        degree=EVERY_EVEN_DEGREE,
        description=(
            f"the circle-wreath classifying space for {p} punctures retracts onto the image: "
            "a Z summand in every even degree"
        ),
        computation={
            "kind": "even_degree_summands",
            "punctures": p,
            "series_coefficients": list(coeffs),
            "positive_in_every_even_degree": True,
        },
    )


# -- the decision table -----------------------------------------------------


def decide(d: SurfaceDescriptor) -> Verdict:
    """Map a valid, boundaryless, infinite-type descriptor to its verdict."""
    return verdict(d.genus, d.boundary, summarize(d.ends))


def verdict(genus: int | float, boundary: int, s: Summary) -> Verdict:
    """The verdict on the surface type given by a genus, a boundary count and
    the summary of the ends.

    The one place a surface type is validated and decided: an invalid type
    raises InvalidDescriptor, then a boundary HasBoundary, then a finite type
    NotInfiniteType.  A pure function of its arguments: equal arguments give
    equal verdicts, so a caller may keep the result per type.
    """
    try:
        validate_type(genus, s)
    except ValidationError as err:
        raise InvalidDescriptor(str(err)) from err
    if boundary != 0:
        raise HasBoundary(f"the decision table covers boundaryless surfaces, got boundary={boundary}")
    if genus != INFINITE and not s.is_infinite():
        raise NotInfiniteType("the decision table covers infinite-type surfaces")

    qI, qII, qIII, td, witness_set, notes = row(row_key(genus, s))
    end_text = s.normal_text()
    end_desc = f"irreducible: {end_text}" if s.atoms else s.canon.describe()
    derived = DerivedFacts(
        genus=genus,
        genus_class="infinite" if genus == INFINITE else ("zero" if genus == 0 else "finite_positive"),
        punctures=s.planar_isolated,
        mixed_end=s.mixed,
        end_space=f"{end_text} ({end_desc})",
        td=td,
        witness_set=witness_set,
        notes=notes,
    )
    return Verdict(qI, qII, qIII, derived)


_Row = tuple[Answer, Answer, Answer, Optional[TdMax], Optional[str], tuple[str, ...]]

ROW_CACHE_SIZE = 256
"""Rows kept by `row`.  A row reads only the few inputs of its key, so a
batch of many surface types names few rows, and one of many sizes cannot
grow the cache without limit."""


def row_key(genus: int | float, s: Summary) -> tuple:
    """The row of the table that a valid, boundaryless, infinite-type surface
    type falls in, named by the rule and the only inputs that rule reads:
    the genus g when it is finite and positive, the punctures and whether
    an end is mixed at infinite genus, and at genus 0 the punctures when
    finite, else the distinguished-set bound and whether the ends form a
    single ordinal interval."""
    p = s.planar_isolated
    if genus == INFINITE:
        return ("infinite_genus", p, s.mixed)
    if genus > 0:
        return ("finite_genus", int(genus))
    if p != INFINITE:
        return ("finite_punctures", int(p))
    td = s.td_max()
    part = s.canon.scattered
    # one copy of [0, w^0] is one point, never infinitely many punctures
    single = not s.atoms and not s.canon.has_kernel and part is not None and part.copies == 1
    return ("infinite_punctures", td.value, td.exact, single)


@lru_cache(maxsize=ROW_CACHE_SIZE)
def row(key: tuple) -> _Row:
    """The row `key` names (see `row_key`), its witnesses executed and its
    answers checked against I => II => III.  Equal keys give equal rows, so
    the rows, and with them the witnesses, are kept."""
    rule, *inputs = key
    return _check_chain(_RULES[rule](*inputs))


def _check_chain(r: _Row) -> _Row:
    a, b, c = (answer.result for answer in r[:3])
    if (a == YES and b != YES) or (b == YES and c != YES):
        raise InternalInvariantViolation(f"implication chain broken: {a}, {b}, {c}")
    return r


def _yes_from_I(
    citation: str,
    witness: WitnessRef,
    td: Optional[TdMax] = None,
    witness_set: Optional[str] = None,
    note: Optional[str] = None,
) -> _Row:
    """Question I answered yes with its witness; II and III follow from I."""
    qI = Answer(YES, citation, coefficients=INTEGRAL, witness=witness, note=note)
    propagated = _propagated("I", witness)
    return (qI, propagated, propagated, td, witness_set, ())


def _propagated(question: str, witness: WitnessRef) -> Answer:
    """The yes that follows from a yes to `question`, with its witness."""
    note = f"propagated from question {question}"
    return Answer(YES, "positive-answers-propagate", coefficients=INTEGRAL, witness=witness, note=note)


def _decide_infinite_genus(p: int | float, mixed: bool) -> _Row:
    no_compact = Answer(NO, "infinite-genus-compact-vanishing", coefficients=ANY_FIELD)
    if p == 0:
        note = "questions I, II and III coincide without punctures"
        qI = Answer(NO, "infinite-genus-compact-vanishing", coefficients=ANY_FIELD, note=note)
        a = Answer(NO, "infinite-genus-no-punctures-vanishing", coefficients=ANY_FIELD, note=note)
        return (qI, a, a, None, None, (note,))
    if p != INFINITE:
        witness = _even_degree_witness(int(p))
        qII = Answer(YES, "infinite-genus-finite-punctures-nonvanishing", coefficients=INTEGRAL, witness=witness)
        return (no_compact, qII, _propagated("II", witness), None, "punctures", ())
    if mixed:
        a = Answer(NO, "mixed-end-vanishing", coefficients=ANY_FIELD)
    else:
        a = Answer(UNKNOWN, "infinite-genus-unmixed-open")
    return (no_compact, a, a, None, None, ())


def _decide_finite_genus(g: int) -> _Row:
    witness = _torus_witness() if g == 1 else _closed_surface_witness(g)
    return _yes_from_I("finite-genus-nonvanishing", witness)


def _decide_finite_punctures(p: int) -> _Row:
    """Genus 0 with finitely many punctures."""
    if p <= 1:
        a = Answer(NO, "cantor-tree-vanishing", coefficients=ANY_COEFFICIENTS)
        return (a, a, a, None, None, ())
    if p <= 3:
        a = Answer(UNKNOWN, "two-or-three-punctures-open")
        qIII = Answer(
            YES,
            "two-or-three-punctures-braid-sign",
            coefficients=INTEGRAL,
            witness=_braid_sign_witness(p),
        )
        return (a, a, qIII, None, "punctures", ())
    return _yes_from_I(
        "distinguished-ends-nonvanishing", _distinguished_witness(p, "punctures"), witness_set="punctures"
    )


def _decide_infinite_punctures(td_value: int, td_exact: bool, single_interval: bool) -> _Row:
    """Genus 0 with infinitely many punctures, from the bound on the
    distinguished set and whether the ends are one ordinal interval."""
    td = TdMax(td_value, td_exact)
    if td.at_least(4):
        note = None if td.exact else "distinguished set certified by a lower bound"
        return _yes_from_I(
            "distinguished-ends-nonvanishing",
            _distinguished_witness(td.value, "distinguished ends"),
            td=td,
            witness_set="distinguished end set",
            note=note,
        )
    if single_interval:
        a = Answer(NO, "single-interval-vanishing", coefficients=ANY_FIELD)
        return (a, a, a, td, None, ())
    notes = () if td.exact else ("indeterminate invariant: only a lower bound for the distinguished set is certified",)
    a = Answer(UNKNOWN, "genus-zero-infinite-punctures-open")
    return (a, a, a, td, None, notes)


_RULES = {
    "infinite_genus": _decide_infinite_genus,
    "finite_genus": _decide_finite_genus,
    "finite_punctures": _decide_finite_punctures,
    "infinite_punctures": _decide_infinite_punctures,
}


class NoWitness(LookupError):
    pass


def witness_for(v: Verdict, question: str) -> WitnessRef:
    """Witness backing a positive answer; raises NoWitness otherwise."""
    if question not in QUESTIONS:
        raise ValueError(f"question must be one of {QUESTIONS}, got {question!r}")
    answer = dict(zip(QUESTIONS, v.answers()))[question]
    if answer.result != YES or answer.witness is None:
        raise NoWitness(f"question {question} is not answered positively")
    return answer.witness
