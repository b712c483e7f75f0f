"""Value semantics of the engine's immutable classes.

Every class below is compared, hashed, printed and copied by its fields:
equal fields give equal objects with the hash of the field tuple, fields
cannot be reassigned, and ``repr`` is ``Name(field=value, ...)``.

Two kinds of class meet that contract.  The canonical forms (``Scattered``,
``CanonicalEndSpace``) and the result records, which check nothing and
nest to a fixed depth (``TdMax``, ``SpaceInvariants``,
``SurfaceInvariants``, ``SNFResult``, ``SquareReport``, ``WitnessRef``,
``DerivedFacts``, ``Verdict``, ``CatalogEntry``), are named tuples, as an
``Ordinal`` is the tuple of its terms: each also equals the plain tuple of
its fields.  The rest keep ``_value.Value``, which makes objects of
different classes unequal: the expression classes, where classes with
equal fields such as ``Pt`` and ``Cantor`` must differ, and the classes
whose constructor checks its arguments.
"""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import infsurf
from infsurf.catalog import CatalogEntry
from infsurf.constructions import GridPath
from infsurf.decide import Answer, DerivedFacts, InternalInvariantViolation, Verdict, WitnessRef
from infsurf.endspace import (
    EMPTY,
    NONPLANAR,
    PLANAR,
    CanonicalEndSpace,
    Cantor,
    DisjointUnion,
    Empty,
    Interval,
    LimitCompactification,
    Pt,
    Scattered,
    SeqCompactification,
    SpaceInvariants,
    TdMax,
    union,
)
from infsurf.homology import AbelianGroup, FinitePresentation, IntegerMatrix, SNFResult, SquareReport
from infsurf.ordinal import OMEGA, ONE, ZERO, from_int
from infsurf.surface import SurfaceDescriptor, SurfaceInvariants

_M = IntegerMatrix(((1, 0), (0, 1)))
_A = Answer("unknown", "infinite-genus-unmixed-open")
_T = TdMax(4)
_D = DerivedFacts(0, "zero", 2, False, "I(1)")
_S = SpaceInvariants(True, 2, ONE, False, _T)
_PT = "Pt(mark=<Mark.PLANAR: 'p'>)"
_TD = "TdMax(value=4, exact=True)"
_SI = f"SpaceInvariants(countable=True, isolated_count=2, scattered_rank=Ordinal(1), has_kernel=False, td_max={_TD})"
_ANS = "Answer(result='unknown', citation='infinite-genus-unmixed-open', coefficients=None, witness=None, note=None)"

# three points: the finite form of the scattered part
_POINTS = (Scattered, "copies exponent", (3, ZERO), "Scattered(copies=3, exponent=Ordinal(0))")

# (class, field names, field values, repr of the class built from them)
VALUES = [
    (Empty, "", (), "Empty()"),
    (Pt, "mark", (NONPLANAR,), "Pt(mark=<Mark.NONPLANAR: 'np'>)"),
    (Interval, "bound mark", (OMEGA, PLANAR), "Interval(bound=Ordinal(w), mark=<Mark.PLANAR: 'p'>)"),
    (Cantor, "mark", (PLANAR,), "Cantor(mark=<Mark.PLANAR: 'p'>)"),
    (DisjointUnion, "children", ((Pt(), Cantor()),), f"DisjointUnion(children=({_PT}, Cantor(mark=<Mark.PLANAR: 'p'>)))"),
    (
        SeqCompactification,
        "child point_mark",
        (Pt(), NONPLANAR),
        f"SeqCompactification(child={_PT}, point_mark=<Mark.NONPLANAR: 'np'>)",
    ),
    (
        LimitCompactification,
        "sup point_mark",
        (OMEGA, PLANAR),
        "LimitCompactification(sup=Ordinal(w), point_mark=<Mark.PLANAR: 'p'>)",
    ),
    _POINTS,
    (Scattered, "copies exponent", (2, ONE), "Scattered(copies=2, exponent=Ordinal(1))"),
    (
        CanonicalEndSpace,
        "has_kernel scattered",
        (True, Scattered(1, ZERO)),
        "CanonicalEndSpace(has_kernel=True, scattered=Scattered(copies=1, exponent=Ordinal(0)))",
    ),
    (TdMax, "value exact", (3, False), "TdMax(value=3, exact=False)"),
    (SpaceInvariants, "countable isolated_count scattered_rank has_kernel td_max", (True, 2, ONE, False, _T), _SI),
    (IntegerMatrix, "entries", (((1, 2), (3, 4)),), "IntegerMatrix(entries=((1, 2), (3, 4)))"),
    (
        SNFResult,
        "diagonal left right",
        ((1, 1), _M, _M),
        "SNFResult(diagonal=(1, 1), left=IntegerMatrix(entries=((1, 0), (0, 1))), "
        "right=IntegerMatrix(entries=((1, 0), (0, 1))))",
    ),
    (FinitePresentation, "ngens relators", (2, ((1, 2), (-1,))), "FinitePresentation(ngens=2, relators=((1, 2), (-1,)))"),
    (AbelianGroup, "rank torsion", (1, (2, 4)), "AbelianGroup(rank=1, torsion=(2, 4))"),
    (
        SquareReport,
        "n k modulus element element_nonzero square_commutes full_twist_residue",
        (5, 2, 4, 2, True, True, 0),
        "SquareReport(n=5, k=2, modulus=4, element=2, element_nonzero=True, square_commutes=True, "
        "full_twist_residue=0)",
    ),
    (
        WitnessRef,
        "degree description computation",
        (1, "w", {"kind": "k"}),
        "WitnessRef(degree=1, description='w', computation={'kind': 'k'})",
    ),
    (Answer, "result citation coefficients witness note", ("unknown", "infinite-genus-unmixed-open", None, None, None), _ANS),
    (
        DerivedFacts,
        "genus genus_class punctures mixed_end end_space td witness_set notes",
        (0, "zero", 2, False, "I(1)", _T, None, ("n",)),
        f"DerivedFacts(genus=0, genus_class='zero', punctures=2, mixed_end=False, end_space='I(1)', td={_TD}, "
        "witness_set=None, notes=('n',))",
    ),
    (
        Verdict,
        "qI qII qIII derived",
        (_A, _A, _A, _D),
        f"Verdict(qI={_ANS}, qII={_ANS}, qIII={_ANS}, derived=DerivedFacts(genus=0, genus_class='zero', "
        "punctures=2, mixed_end=False, end_space='I(1)', td=None, witness_set=None, notes=()))",
    ),
    (SurfaceDescriptor, "genus boundary ends", (1, 0, Pt()), f"SurfaceDescriptor(genus=1, boundary=0, ends={_PT})"),
    (
        SurfaceInvariants,
        "genus boundary punctures mixed_end ends_invariants",
        (1, 0, 2, False, _S),
        f"SurfaceInvariants(genus=1, boundary=0, punctures=2, mixed_end=False, ends_invariants={_SI})",
    ),
    (GridPath, "moves", ("R",), "GridPath(moves='R')"),
    (
        CatalogEntry,
        "name cell descriptor expected",
        ("n", "c", "d", ("yes", "yes", "yes")),
        "CatalogEntry(name='n', cell='c', descriptor='d', expected=('yes', 'yes', 'yes'))",
    ),
]
IDS = ["Scattered-points" if row is _POINTS else row[0].__name__ for row in VALUES]

RECORDS = [row for row in VALUES if issubclass(row[0], tuple) and row[0] not in (Scattered, CanonicalEndSpace)]


def _hash_or_error(x):
    try:
        return hash(x)
    except TypeError:
        return TypeError


@pytest.mark.parametrize("cls, names, values, text", VALUES, ids=IDS)
def test_equal_fields_give_equal_objects_and_the_field_tuple_hash(cls, names, values, text):
    a, b = cls(*values), cls(*values)
    assert a is not b
    assert a == b and not (a != b)
    assert _hash_or_error(a) == _hash_or_error(b) == _hash_or_error(tuple(values))


@pytest.mark.parametrize("cls, names, values, text", VALUES, ids=IDS)
def test_keyword_construction_and_field_access(cls, names, values, text):
    fields = names.split()
    obj = cls(**dict(zip(fields, values)))
    assert obj == cls(*values)
    assert tuple(getattr(obj, f) for f in fields) == values


@pytest.mark.parametrize("cls, names, values, text", VALUES, ids=IDS)
def test_repr_is_the_field_list(cls, names, values, text):
    assert repr(cls(*values)) == text


@pytest.mark.parametrize("cls, names, values, text", VALUES, ids=IDS)
def test_fields_are_frozen(cls, names, values, text):
    obj = cls(*values)
    for field in names.split() or ["anything"]:
        with pytest.raises(AttributeError):
            setattr(obj, field, None)
        with pytest.raises(AttributeError):
            delattr(obj, field)
    assert obj == cls(*values)


@pytest.mark.parametrize("cls, names, values, text", VALUES, ids=IDS)
def test_copy_and_pickle_keep_the_value(cls, names, values, text):
    obj = cls(*values)
    pickled = [pickle.loads(pickle.dumps(obj, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in (copy.copy(obj), copy.deepcopy(obj), *pickled):
        assert type(twin) is cls and twin == obj


@pytest.mark.parametrize("cls, names, values, text", RECORDS, ids=[row[0].__name__ for row in RECORDS])
def test_a_record_is_the_plain_tuple_of_its_fields(cls, names, values, text):
    obj = cls(*values)
    assert isinstance(obj, tuple) and obj._fields == tuple(names.split())
    assert obj == values and _hash_or_error(obj) == _hash_or_error(values)


def test_equal_fields_across_classes_are_unequal():
    assert Pt(PLANAR) != Cantor(PLANAR)
    assert not (Pt(PLANAR) == Cantor(PLANAR))
    # a canonical form is a named tuple, so it equals the plain tuple of its fields
    assert Scattered(1, ZERO) == (1, ZERO) and hash(Scattered(1, ZERO)) == hash((1, ZERO))
    # so is a result record, its defaults included
    assert TdMax(4) == (4, True) and hash(TdMax(4)) == hash((4, True))
    # a class on Value equals no tuple
    assert Pt(PLANAR) != (PLANAR,)
    assert Empty() == Empty() == EMPTY
    assert Empty() != Scattered(1, ZERO)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: DisjointUnion((Pt(),)), ValueError, "a union needs at least two summands; use union()"),
        (lambda: DisjointUnion((Pt(), EMPTY)), ValueError, "union children must be flattened and nonempty; use union()"),
        (lambda: SeqCompactification(EMPTY), ValueError, "cannot compactify copies of the empty space"),
        (lambda: LimitCompactification(ONE), ValueError, "limit compactification needs a limit ordinal, got 1"),
        (lambda: Scattered(0, ONE), ValueError, "need at least one copy"),
        # _replace builds through _make, and _make through the constructor
        pytest.param(
            lambda: Scattered(1, ONE)._replace(copies=0), ValueError, "need at least one copy", id="Scattered-_replace"
        ),
        pytest.param(lambda: Scattered._make((0, ONE)), ValueError, "need at least one copy", id="Scattered-_make"),
        (lambda: ZERO.leading(), ValueError, "0 has no leading term"),
        (lambda: OMEGA.as_int(), ValueError, "w is not a natural number"),
        (lambda: from_int(-1), ValueError, "ordinals are non-negative"),
        (lambda: from_int(True), ValueError, "coefficient must be a positive integer, got True"),
        (lambda: from_int(1.5), ValueError, "coefficient must be a positive integer, got 1.5"),
        (lambda: IntegerMatrix(((1, 2), (3,))), ValueError, "ragged rows"),
        (lambda: AbelianGroup(-1), ValueError, "negative rank"),
        (lambda: AbelianGroup(0, (1,)), ValueError, "torsion factors must be >= 2"),
        (lambda: AbelianGroup(0, (2, 3)), ValueError, "torsion factors must form a divisibility chain"),
        (lambda: FinitePresentation(-1, ()), ValueError, "negative generator count"),
        (lambda: FinitePresentation(1, ((2,),)), ValueError, "letter 2 out of range for 1 generators"),
        (lambda: GridPath("RX"), ValueError, "not a grid move: 'X'"),
        # a move after a gap: the first row's message, so an id of its own
        pytest.param(lambda: GridPath("RXR"), ValueError, "not a grid move: 'X'", id="GridPath-RXR"),
        pytest.param(lambda: GridPath("RL"), ValueError, "grid path revisits a cell", id="GridPath-RL"),
        (lambda: GridPath(5), TypeError, "grid path moves are a str, got int"),
        (
            lambda: SurfaceDescriptor(-1, 0, Pt()),
            ValueError,
            "genus must be a non-negative integer or INFINITE, got -1",
        ),
        (lambda: SurfaceDescriptor(0, 1.5, Pt()), ValueError, "boundary must be a non-negative integer, got 1.5"),
        (lambda: Answer("no", "no-such-citation"), InternalInvariantViolation, "unknown citation 'no-such-citation'"),
        (
            lambda: Answer("yes", "finite-genus-nonvanishing", coefficients="integral"),
            InternalInvariantViolation,
            "a positive answer needs integral coefficients and a witness",
        ),
        (
            lambda: Answer("no", "infinite-genus-no-punctures-vanishing"),
            InternalInvariantViolation,
            "a negative answer needs its coefficient scope",
        ),
        (
            lambda: Answer("unknown", "infinite-genus-unmixed-open", coefficients="any_field"),
            InternalInvariantViolation,
            "an unknown answer carries no scope or witness",
        ),
        # a bad mark or bound is refused where it is given, not in a later walk
        pytest.param(lambda: Pt("np"), TypeError, "mark must be a Mark, got 'np'", id="Pt-str"),
        pytest.param(lambda: Cantor(None), TypeError, "mark must be a Mark, got None", id="Cantor-None"),
        pytest.param(lambda: Interval(5), TypeError, "bound must be an Ordinal, got 5", id="Interval-int"),
        pytest.param(lambda: Interval(OMEGA, "p"), TypeError, "mark must be a Mark, got 'p'", id="Interval-str"),
        pytest.param(lambda: LimitCompactification(5), TypeError, "sup must be an Ordinal, got 5", id="Limit-int"),
        pytest.param(
            lambda: LimitCompactification(OMEGA, "np"), TypeError, "point_mark must be a Mark, got 'np'", id="Limit-str"
        ),
        pytest.param(
            lambda: SeqCompactification(Pt(), "np"), TypeError, "point_mark must be a Mark, got 'np'", id="Seq-str"
        ),
        # a lone summand and the ends of a descriptor are checked too, so
        # neither hands 42 on to a later walk
        pytest.param(lambda: union(42), TypeError, "not an end-space expression: 42", id="union-int"),
        pytest.param(lambda: union(EMPTY, 42), TypeError, "not an end-space expression: 42", id="union-empty-int"),
        pytest.param(
            lambda: SurfaceDescriptor(0, 0, 42), TypeError, "not an end-space expression: 42", id="SurfaceDescriptor-int"
        ),
    ],
)
def test_construction_checks_still_raise(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error
    assert str(info.value) == message


def test_cli_import_loads_no_code_generation_modules():
    """Importing the CLI stays free of dataclasses and what it drags in."""
    code = (
        "import infsurf.cli, sys; "
        "print(' '.join(m for m in ('dataclasses', 'inspect', 'ast', 'dis', 'tokenize') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(infsurf.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
