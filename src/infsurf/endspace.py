"""Symbolic end spaces: closed subsets of the Cantor set and their calculus.

Expressions are finite trees built from a point, a closed ordinal interval
[0, b], the Cantor set, finite disjoint unions and two one-point
compactifications: ``SeqCompactification(c)`` compactifies countably many
copies of ``c`` and ``LimitCompactification(s)`` compactifies the disjoint
union of the intervals [0, w^a_i] along the canonical sequence a_i
converging to the limit ordinal ``s``.

Every countable expression normalizes to a canonical form, ``n`` disjoint
copies of [0, w^a] (a = 0 gives ``n`` points; by Mazurkiewicz-Sierpinski
every countable compact space is one of these), and every expression whose
isolated points stay away from the perfect kernel normalizes to that
canonical scattered part next to a Cantor set.  A compactification point
accumulated by both kernel and scattered material falls outside the
decidable fragment and is reported as irreducible.

Leaves and compactification points carry a planar/non-planar mark used by
the surface layer.  Normal forms, ranks, invariants and the homeomorphism
decision ignore marks.  A ``Summary`` holds every fact the engine needs;
next to the mark-free reduced form it carries the mark facts of the surface
layer: the marks present as two bits, the planar isolated points, mixed
ends and the first closedness violation.  The reduced form is a canonical
part next to irreducible atoms, and each atom is the plain pair
``(canon, atoms)`` of the space whose copies it compactifies, so a summary
holds no expression tree.  Everything in a summary is a tuple: ``Summary``
and the canonical forms ``CanonicalEndSpace`` and ``Scattered`` are named
tuples, and an ``Ordinal`` is the tuple of its terms, so a summary is
built, compared and hashed in C.

The summary rules (the point, Cantor, interval and ``lim1pc`` leaves,
``join`` for unions, where one summand is its own union, and the
compactification rule) are one bottom-up fold, ``SUMMARIES``; the surface
layer joins top-level summands with the same ``join``.  Three drivers
run a fold: ``fold_tree`` over a tree and ``fold_reduced`` over a reduced
form recurse once a level, within ``MAX_NESTING``, and the parser in
``dsl`` folds descriptor text on an explicit stack, straight into a
summary (``dsl.parse_surface_type``).  ``summarize``,
``strip_marks``, ``cb_derivative`` and the ``str`` of an expression are
each one ``fold_tree`` call; ``normalize``, ``normal_text``, the ``str`` of
a canonical form and the ranks are ``fold_reduced`` calls.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Any, Callable, Mapping, NamedTuple, Optional, Sequence, Union as TUnion

from ._value import Value
from .ordinal import Kind, ONE, ZERO, Ordinal, _cnf, add, div_omega, kind, power_str

INFINITE = math.inf


class Mark(Enum):
    PLANAR = "p"
    NONPLANAR = "np"

    # members are singletons, so hashing by identity agrees with equality
    # and keeps the summary's mark tables off Enum's Python-level __hash__
    __hash__ = object.__hash__


PLANAR = Mark.PLANAR
NONPLANAR = Mark.NONPLANAR

# the bits of ``Summary.marks``: some end is marked planar, non-planar
PLANAR_BIT = 1
NONPLANAR_BIT = 2
_BIT = {PLANAR: PLANAR_BIT, NONPLANAR: NONPLANAR_BIT}


# ---------------------------------------------------------------------------
# expression trees


MAX_NESTING = 100
"""Most levels of ``DisjointUnion`` and ``SeqCompactification`` in a tree,
past which they raise ValueError; a leaf has none.  It is ``dsl.MAX_DEPTH``,
so every parsed tree is admitted.  The walks and the equality, hash, repr
and pickle of a tree recurse a few frames a level: at the bound, over the
deepest ordinal, ``repr`` takes about 850, inside Python's limit of 1 000."""


class _Expr(Value):
    """The base of the seven expression classes; the text is the ``TEXTS`` fold."""

    __slots__ = ()
    # the nesting level; a _Nest node stores its own
    _depth = 0

    def __str__(self) -> str:
        return fold_tree(TEXTS, self)

    # a tree is immutable, so it is its own copy
    def __deepcopy__(self, memo: Optional[dict] = None) -> "_Expr":
        return self

    __copy__ = __deepcopy__


def _typed(value: Any, cls: type, what: str) -> Any:
    """`value`, if it is a `cls`; otherwise a TypeError, `what` and its repr."""
    if not isinstance(value, cls):
        raise TypeError(f"{what}{value!r}")
    return value


class _Nest(_Expr):
    """The base of the two nodes over expressions: each stores its level in
    a slot here, not a ``Value`` field, so the bound costs O(children)."""

    __slots__ = ("_depth",)

    def _nest(self, children: Sequence[_Expr]) -> None:
        depth = max(_typed(c, _Expr, "not an end-space expression: ")._depth for c in children)
        if depth >= MAX_NESTING:
            raise ValueError(f"end-space expression nested deeper than {MAX_NESTING} levels")
        object.__setattr__(self, "_depth", depth + 1)


class Empty(_Expr):
    __slots__ = ()


class Pt(_Expr):
    __slots__ = ("mark",)

    def __init__(self, mark: Mark = PLANAR) -> None:
        object.__setattr__(self, "mark", _typed(mark, Mark, "mark must be a Mark, got "))


class Interval(_Expr):
    """The closed ordinal interval [0, bound] with the order topology."""

    __slots__ = ("bound", "mark")

    def __init__(self, bound: Ordinal, mark: Mark = PLANAR) -> None:
        object.__setattr__(self, "bound", _typed(bound, Ordinal, "bound must be an Ordinal, got "))
        object.__setattr__(self, "mark", _typed(mark, Mark, "mark must be a Mark, got "))


class Cantor(_Expr):
    __slots__ = ("mark",)
    __init__ = Pt.__init__


class DisjointUnion(_Nest):
    __slots__ = ("children",)

    def __init__(self, children: tuple["EndSpaceExpr", ...]) -> None:
        if len(children) < 2:
            raise ValueError("a union needs at least two summands; use union()")
        if any(isinstance(c, (Empty, DisjointUnion)) for c in children):
            raise ValueError("union children must be flattened and nonempty; use union()")
        self._nest(children)
        object.__setattr__(self, "children", children)


class SeqCompactification(_Nest):
    """One-point compactification of countably many disjoint copies of `child`."""

    __slots__ = ("child", "point_mark")

    def __init__(self, child: "EndSpaceExpr", point_mark: Mark = PLANAR) -> None:
        if isinstance(child, Empty):
            raise ValueError("cannot compactify copies of the empty space")
        self._nest((child,))
        object.__setattr__(self, "child", child)
        object.__setattr__(self, "point_mark", _typed(point_mark, Mark, "point_mark must be a Mark, got "))


class LimitCompactification(_Expr):
    """One-point compactification of the intervals [0, w^a_i] with a_i -> sup.

    The a_i are the canonical fundamental sequence of the limit ordinal
    `sup`; the resulting space does not depend on that choice.  The implicit
    interval pieces are planar; only the added point carries a mark.
    """

    __slots__ = ("sup", "point_mark")

    def __init__(self, sup: Ordinal, point_mark: Mark = PLANAR) -> None:
        object.__setattr__(self, "sup", _require_limit(sup))
        object.__setattr__(self, "point_mark", _typed(point_mark, Mark, "point_mark must be a Mark, got "))


EndSpaceExpr = TUnion[Empty, Pt, Interval, Cantor, DisjointUnion, SeqCompactification, LimitCompactification]

EMPTY = Empty()


def _require_limit(sup: Ordinal) -> Ordinal:
    if kind(_typed(sup, Ordinal, "sup must be an Ordinal, got ")) is not Kind.LIMIT:
        raise ValueError(f"limit compactification needs a limit ordinal, got {sup}")
    return sup


def union(*children: EndSpaceExpr) -> EndSpaceExpr:
    """Disjoint union with construction-time flattening.

    Nested unions are inlined and empty summands dropped, so the returned
    expression satisfies the union invariants (or collapses to its single
    summand, or to the empty space).
    """
    flat: list[EndSpaceExpr] = []
    for c in children:
        if isinstance(c, DisjointUnion):
            flat += c.children
        elif not isinstance(c, Empty):
            flat.append(c)
    if len(flat) < 2:
        return flat[0] if flat else EMPTY
    return DisjointUnion(tuple(flat))


def strip_marks(e: EndSpaceExpr) -> EndSpaceExpr:
    """The same expression with every mark reset to planar."""
    return fold_tree(UNMARKED, e)


# ---------------------------------------------------------------------------
# canonical forms


# ``_form(cls, fields)`` builds a form or a Summary in C and checks nothing,
# as ``ordinal._cnf`` builds an Ordinal; the fold rules build every form
# with it, since their fields hold by construction
_form = tuple.__new__


class _ScatteredFields(NamedTuple):
    copies: int
    exponent: Ordinal


class Scattered(_ScatteredFields):
    """`copies` disjoint copies of the ordinal interval [0, w^exponent];
    exponent 0 makes it `copies` points."""

    __slots__ = ()

    def __new__(cls, copies: int, exponent: Ordinal) -> "Scattered":
        if copies < 1:
            raise ValueError("need at least one copy")
        return _form(cls, (copies, exponent))

    @classmethod
    def _make(cls, iterable) -> "Scattered":
        # through the constructor's check, as ``_replace`` builds with it
        return cls(*iterable)

    def describe(self) -> str:
        copies, exponent = self
        if not exponent:
            return "1 isolated point" if copies == 1 else f"{copies} isolated points"
        noun = "copy" if copies == 1 else "copies"
        return f"{copies} {noun} of [0,{power_str(exponent)}]"


class CanonicalEndSpace(NamedTuple):
    """Normal form: an optional Cantor kernel next to an optional scattered part."""

    has_kernel: bool
    scattered: Optional[Scattered]

    def is_empty(self) -> bool:
        return not self.has_kernel and self.scattered is None

    def describe(self) -> str:
        if self.is_empty():
            return "empty space"
        parts = []
        if self.has_kernel:
            parts.append("Cantor set")
        if self.scattered is not None:
            parts.append(self.scattered.describe())
        return " plus ".join(parts)

    def __str__(self) -> str:
        return fold_reduced(TEXTS, self, ())


def _union_text(*pieces: str) -> str:
    """``str(union(...))`` of summands with these texts, none of them a union."""
    if len(pieces) > 1:
        return "U(" + ", ".join(pieces) + ")"
    return pieces[0] if pieces else "empty"


EMPTY_CANON = CanonicalEndSpace(False, None)
CANTOR_CANON = CanonicalEndSpace(True, None)


class RankUndecidable(ValueError):
    """Raised when a Cantor-Bendixson rank is requested outside the canonical fragment."""


def _discrete(n: int) -> CanonicalEndSpace:
    """The discrete space of n >= 1 points."""
    return _form(CanonicalEndSpace, (False, _form(Scattered, (n, ZERO))))


def _union_canon(canons: Sequence[CanonicalEndSpace]) -> CanonicalEndSpace:
    """Normal form of the disjoint union of canonical spaces."""
    kernel = False
    top: Optional[Scattered] = None
    copies = 0
    for has_kernel, s in canons:
        if has_kernel:
            kernel = True
        if s is None:
            continue
        # only the copies of maximal rank survive; they absorb the others
        if top is None or s.exponent > top.exponent:
            top, copies = s, s.copies
        elif s.exponent == top.exponent:
            copies += s.copies
    if top is None:
        return CANTOR_CANON if kernel else EMPTY_CANON
    scattered = top if copies == top.copies else _form(Scattered, (copies, top.exponent))
    return _form(CanonicalEndSpace, (kernel, scattered))


# ---------------------------------------------------------------------------
# the one-pass summary


class Summary(NamedTuple):
    """Every fact the engine reads off an expression, from one bottom-up pass.

    The reduced form (``canon`` next to the irreducible ``atoms``) and the
    counts ignore marks; the mark fields are what the surface layer reads.
    Each atom is the reduced form ``(canon, atoms)`` of the space whose
    copies it compactifies, its atoms in input order; ``normal_text``
    writes the normal form from them, and only ``normalize`` builds its
    expression.  ``marks`` ORs the bits of the marks present.  ``violation``
    is the path, relative to the summarized node, of the first
    compactification point marked planar over non-planar material.

    The number of isolated points and the distinguished-end bound are no
    fields: the reduced form fixes them (see ``isolated`` and ``td_max``).
    """

    canon: CanonicalEndSpace
    atoms: tuple[tuple[CanonicalEndSpace, tuple], ...]
    planar_isolated: int | float
    marks: int
    mixed: bool
    violation: Optional[str]

    def normal_text(self) -> str:
        """``str`` of the normal form, ``normalize``'s value, written without building it."""
        return fold_reduced(TEXTS, self.canon, self.atoms)

    @property
    def isolated(self) -> int | float:
        """Number of isolated points, as an integer or INFINITE.

        Every irreducible atom compactifies infinitely many copies of a space
        with isolated points, and [0, w^a] has infinitely many for a > 0, so
        only a canonical form of points has finitely many: its copies."""
        s = self.canon.scattered
        if self.atoms or (s is not None and not s.exponent.is_zero()):
            return INFINITE
        return 0 if s is None else s.copies

    def is_infinite(self) -> bool:
        """True when the space has infinitely many points."""
        return self.canon.has_kernel or self.isolated == INFINITE

    def td_max(self) -> TdMax:
        if not self.atoms:
            return TdMax(_canonical_td(self.canon))
        # a compactification inside the atoms could alias their points' germs
        claimed = 0 if any(inner for _, inner in self.atoms) else len(self.atoms)
        s = self.canon.scattered
        # the atom rank is >= 1 here, so a part of points never counts
        if s is not None and add(s.exponent, ONE) > _atom_rank(self.atoms):
            claimed += s.copies
        return TdMax(claimed, exact=False)

    def invariants(self) -> SpaceInvariants:
        if self.atoms:
            has_kernel, rank = True, None
        else:
            has_kernel, rank = self.canon.has_kernel, fold_reduced(RANKS, self.canon, ())
        return SpaceInvariants(
            countable=not has_kernel,
            isolated_count=self.isolated,
            scattered_rank=rank,
            has_kernel=has_kernel,
            td_max=self.td_max(),
        )

    def homeomorphic_to(self, other: "Summary") -> Homeo:
        """Decide homeomorphism of the unmarked spaces where the calculus can."""
        if not self.atoms and not other.atoms:
            return Homeo.YES if self.canon == other.canon else Homeo.NO
        if self.canon == other.canon and self.normal_text() == other.normal_text():
            return Homeo.YES
        ka = bool(self.atoms) or self.canon.has_kernel
        kb = bool(other.atoms) or other.canon.has_kernel
        # at least one side is irreducible, so no rank comparison can decide
        if ka != kb or self.isolated != other.isolated:
            return Homeo.NO
        return Homeo.UNKNOWN


def _atom_rank(atoms: tuple) -> Ordinal:
    """Bound for the ranks of ordinal-interval germs inside the pieces of the
    atoms: the largest ``RANKS`` value of the spaces they compactify."""
    return max((fold_reduced(RANKS, c, inner) for c, inner in atoms), default=ZERO)


_EMPTY_SUMMARY = Summary(EMPTY_CANON, (), 0, 0, False, None)
_CANTOR_SUMMARY = {m: Summary(CANTOR_CANON, (), 0, _BIT[m], False, None) for m in Mark}


def summarize(e: EndSpaceExpr) -> Summary:
    """The summary of `e`: the ``SUMMARIES`` fold, run over the tree."""
    return fold_tree(SUMMARIES, e)


def _scattered_leaf(canon: CanonicalEndSpace, n: int | float, mark: Mark) -> Summary:
    """Summary of a leaf with `n` isolated points, all marked `mark`."""
    return _form(Summary, (canon, (), n if mark is PLANAR else 0, _BIT[mark], False, None))


# [0, n] for n < 100 is summarized once and shared, as dsl shares the small naturals
_SMALL_INTERVALS = {m: tuple(_scattered_leaf(_discrete(n + 1), n + 1, m) for n in range(100)) for m in Mark}
# a point is the interval [0, 0]
_PT_SUMMARY = {m: _SMALL_INTERVALS[m][0] for m in Mark}


def _interval_summary(bound: Ordinal, mark: Mark) -> Summary:
    """Summary of the closed interval [0, bound]."""
    # a natural n > 0 is the one term w^0*n, and 0 has no terms
    exp, coeff = bound[0] if bound else (ZERO, 0)
    if not exp:
        if coeff < 100:
            return _SMALL_INTERVALS[mark][coeff]
        return _scattered_leaf(_discrete(coeff + 1), coeff + 1, mark)
    # [0, w^g*n + rest] splits off n copies of [0, w^g]; the tail has
    # strictly smaller rank and is absorbed by them
    return _scattered_leaf(_form(CanonicalEndSpace, (False, _form(Scattered, (coeff, exp)))), INFINITE, mark)


def _limit_summary(sup: Ordinal, point: Mark) -> Summary:
    """Summary of ``LimitCompactification(sup, point)``; raises ValueError
    unless `sup` is a limit ordinal."""
    _require_limit(sup)
    # the interval pieces are planar
    marks = PLANAR_BIT | _BIT[point]
    canon = _form(CanonicalEndSpace, (False, _form(Scattered, (1, sup))))
    return _form(Summary, (canon, (), INFINITE, marks, point is NONPLANAR, None))


def join(*parts: Summary) -> Summary:
    """Summary of the disjoint union of the summarized spaces, in order: a
    single summand is the union, and the empty space is the union of none."""
    if len(parts) < 2:
        return parts[0] if parts else _EMPTY_SUMMARY
    canons = []
    # one list, so a union of n atoms copies them once, not once a summand
    atoms: list = []
    planar: int | float = 0
    marks, mixed, violation = 0, False, None
    for i, (canon, more, p_planar, p_marks, p_mixed, p_violation) in enumerate(parts):
        canons.append(canon)
        if more:
            atoms += more
        # INFINITE plus an int past the float range would overflow
        if p_planar and planar != INFINITE:
            planar = INFINITE if p_planar == INFINITE else planar + p_planar
        marks |= p_marks
        mixed = mixed or p_mixed
        if violation is None and p_violation is not None:
            violation = f".children[{i}]{p_violation}"
    return _form(Summary, (_union_canon(canons), tuple(atoms), planar, marks, mixed, violation))


def _compactify(r: Summary, point: Mark) -> Summary:
    """Summary of the one-point compactification of countably many copies
    of the non-empty space `r` summarizes, the added point marked `point`."""
    c, inner, planar, marks, mixed, violation = r
    # a planar limit of non-planar ends would leave the non-planar set open
    if point is PLANAR and marks & NONPLANAR_BIT:
        violation = ""
    elif violation is not None:
        violation = ".child" + violation
    atoms: tuple = ()
    has_kernel, s = c
    if inner:
        canon = EMPTY_CANON
        atoms = ((c, inner),)
    elif has_kernel and s is None:
        # countably many Cantor sets plus a limit point: compact, perfect,
        # totally disconnected and metrizable, hence a Cantor set again
        canon = CANTOR_CANON
    elif has_kernel:
        # the added point is accumulated by kernel and scattered material
        canon = EMPTY_CANON
        atoms = ((c, ()),)
    else:
        canon = _form(CanonicalEndSpace, (False, _form(Scattered, (1, add(s.exponent, ONE)))))
    mixed = (point is NONPLANAR and planar > 0) or mixed
    planar = INFINITE if planar > 0 else 0
    return _form(Summary, (canon, atoms, planar, marks | _BIT[point], mixed, violation))


class Fold(NamedTuple):
    """What to build for each end-space construct, children first.

    ``dsl`` runs a fold over the text as it parses it, ``fold_tree`` over an
    expression tree and ``fold_reduced`` over a reduced form.  ``union``
    receives the flattened summands: a single summand is the union, and the
    empty space is the union of none.
    """

    point: Mapping[Mark, Any]
    cantor: Mapping[Mark, Any]
    interval: Callable[[Ordinal, Mark], Any]
    union: Callable[..., Any]
    seq: Callable[[Any, Mark], Any]
    lim: Callable[[Ordinal, Mark], Any]


TREES = Fold(
    {m: Pt(m) for m in Mark},
    {m: Cantor(m) for m in Mark},
    Interval,
    union,
    SeqCompactification,
    LimitCompactification,
)
"""Builds the expression; its point and Cantor leaves are shared, one per mark."""

SUMMARIES = Fold(_PT_SUMMARY, _CANTOR_SUMMARY, _interval_summary, join, _compactify, _limit_summary)
"""Builds the summary of the expression, as ``summarize`` does."""

UNMARKED = Fold(
    dict.fromkeys(Mark, TREES.point[PLANAR]), dict.fromkeys(Mark, TREES.cantor[PLANAR]), lambda bound, _: Interval(bound),
    union, lambda child, _: SeqCompactification(child), lambda sup, _: LimitCompactification(sup),
)
"""Builds the expression with every mark planar, as ``strip_marks`` does."""

TEXTS = Fold(
    {PLANAR: "pt", NONPLANAR: "pt!np"}, {PLANAR: "cantor", NONPLANAR: "cantor!np"},
    lambda b, mark: f"I({b})!np" if mark is NONPLANAR else f"I({b})", _union_text,
    lambda inner, point: f"seq1pc({inner}; np)" if point is NONPLANAR else f"seq1pc({inner})",
    lambda sup, point: f"lim1pc({sup}; np)" if point is NONPLANAR else f"lim1pc({sup})",
)
"""Writes the expression, as its ``str`` does; ``dsl`` parses the text back."""

RANKS = Fold(
    dict.fromkeys(Mark, ONE), dict.fromkeys(Mark, ZERO), lambda b, _: ONE if b.is_zero() else add(b.leading()[0], ONE),
    lambda *ranks: max(ranks, default=ZERO), lambda rank, _: add(rank, ONE), lambda sup, _: add(sup, ONE),
)
"""Builds the Cantor-Bendixson rank of a countable space; a Cantor set adds none."""


def fold_tree(f: Fold, e: EndSpaceExpr) -> Any:
    """The value `f` builds for the expression tree `e`, children first,
    recursing once a level.  It is the one place that dispatches on the
    expression classes; anything else raises TypeError."""
    if isinstance(e, Pt):
        return f.point[e.mark]
    if isinstance(e, DisjointUnion):
        return f.union(*[fold_tree(f, c) for c in e.children])
    if isinstance(e, Interval):
        return f.interval(e.bound, e.mark)
    if isinstance(e, SeqCompactification):
        return f.seq(fold_tree(f, e.child), e.point_mark)
    if isinstance(e, Cantor):
        return f.cantor[e.mark]
    if isinstance(e, LimitCompactification):
        return f.lim(e.sup, e.point_mark)
    if isinstance(e, Empty):
        return f.union()
    raise TypeError(f"not an end-space expression: {e!r}")


def _canonical_summands(f: Fold, c: CanonicalEndSpace) -> list:
    """The values `f` builds for the summands of the canonical space `c`."""
    out = [f.cantor[PLANAR]] if c.has_kernel else []
    s = c.scattered
    if s is not None and s.exponent.is_zero():
        out.append(f.point[PLANAR] if s.copies == 1 else f.interval(_cnf(Ordinal, ((ZERO, s.copies - 1),)), PLANAR))
    elif s is not None:
        out.append(f.interval(_cnf(Ordinal, ((s.exponent, s.copies),)), PLANAR))
    return out


def fold_reduced(f: Fold, canon: CanonicalEndSpace, atoms: tuple) -> Any:
    """The value `f` builds for the unmarked expression of the reduced form
    ``(canon, atoms)``: the union of the summands of ``canon`` and of
    the atoms' values passed through ``f.seq``, sorted by ``str``.  It
    recurses once a level of atoms, which nest no deeper than their tree."""
    seqs = sorted([f.seq(fold_reduced(f, c, inner), PLANAR) for c, inner in atoms], key=str)
    return f.union(*_canonical_summands(f, canon), *seqs)


def normalize(e: EndSpaceExpr) -> CanonicalEndSpace | EndSpaceExpr:
    """Confluent normal form of an end-space expression (marks are ignored):
    its canonical form, or outside the decidable fragment the fully
    simplified expression."""
    s = summarize(e)
    return fold_reduced(TREES, s.canon, s.atoms) if s.atoms else s.canon


# ---------------------------------------------------------------------------
# Cantor-Bendixson calculus


def cb_derivative(e: EndSpaceExpr) -> EndSpaceExpr:
    """Expression for the derived set (isolated points removed); marks survive."""
    return fold_tree(DERIVED, e)


def _derived_interval(bound: Ordinal, mark: Mark) -> EndSpaceExpr:
    q = div_omega(bound)
    if not q.is_finite():
        return Interval(q, mark)
    # the derived set is the q limit ordinals in [0, bound], discrete
    n = q.as_int()
    return EMPTY if n == 0 else TREES.point[mark] if n == 1 else Interval(_cnf(Ordinal, ((ZERO, n - 1),)), mark)


# An empty derived set is always EMPTY; the point added to copies that lose
# all their points survives as their limit.  Each interval piece of a lim1pc
# loses a layer, but the exponents approach the same limit: the same space.
DERIVED = Fold(
    dict.fromkeys(Mark, EMPTY), TREES.cantor, _derived_interval, union,
    lambda d, point: TREES.point[point] if d is EMPTY else SeqCompactification(d, point), LimitCompactification,
)
"""Builds the expression of the derived set, as ``cb_derivative`` does."""


def cb_rank(e: EndSpaceExpr) -> Ordinal:
    """Cantor-Bendixson rank of the space; requires a canonical normal form."""
    s = summarize(e)
    if s.atoms:
        raise RankUndecidable(f"rank undecidable outside the canonical fragment: {s.normal_text()}")
    return fold_reduced(RANKS, s.canon, ())


def isolated_count(e: EndSpaceExpr) -> int | float:
    """Number of isolated points, as an integer or INFINITE."""
    return summarize(e).isolated


# ---------------------------------------------------------------------------
# topologically distinguished subsets


class TdMax(NamedTuple):
    """Size of the largest finite topologically distinguished subset.

    ``exact`` is False when only a certified lower bound is known (this
    happens exactly on irreducible forms).
    """

    value: int
    exact: bool = True

    def at_least(self, n: int) -> bool:
        return self.value >= n


def _canonical_td(c: CanonicalEndSpace) -> int:
    # the finite germ classes of a canonical space: the (finitely many)
    # top-rank points of the copies, all of them when the copies are points;
    # Cantor points form an infinite class and contribute nothing
    s = c.scattered
    return 0 if s is None else s.copies


def td_max(e: EndSpaceExpr) -> TdMax:
    """Maximum size of a finite topologically distinguished subset.

    Exact on canonical forms.  On irreducible forms a conservative lower
    bound is certified: the compactification points of the top-level
    irreducible summands (when no deeper compactification could alias
    their neighbourhood germs) plus any canonical top-rank class whose
    germ rank exceeds everything realised inside the irreducible summands.
    """
    return summarize(e).td_max()


# ---------------------------------------------------------------------------
# invariants and the homeomorphism decision


class SpaceInvariants(NamedTuple):
    countable: bool
    isolated_count: int | float
    scattered_rank: Optional[Ordinal]
    has_kernel: bool
    td_max: TdMax


def invariants(e: EndSpaceExpr) -> SpaceInvariants:
    return summarize(e).invariants()


class Homeo(Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


def is_homeomorphic(a: EndSpaceExpr, b: EndSpaceExpr) -> Homeo:
    """Decide homeomorphism of the unmarked spaces where the calculus can."""
    return summarize(a).homeomorphic_to(summarize(b))
