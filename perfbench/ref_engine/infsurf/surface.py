"""Surface descriptors: genus, boundary count and a marked end space.

A boundaryless surface is determined up to homeomorphism by its genus, its
number of boundary components, and the pair (ends, non-planar ends).  The
non-planar ends are those accumulated by genus; they form a closed subset,
which the marks on an end-space expression must respect.  The genus is
infinite exactly when a non-planar mark is present.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .endspace import (
    Cantor,
    DisjointUnion,
    Empty,
    EndSpaceExpr,
    Homeo,
    INFINITE,
    Interval,
    LimitCompactification,
    Mark,
    NONPLANAR,
    PLANAR,
    Pt,
    SeqCompactification,
    SpaceInvariants,
    invariants,
    is_homeomorphic,
    strip_marks,
    union,
)


class ValidationError(ValueError):
    """A descriptor violates one of the realizability rules."""

    def __init__(self, message: str, path: str = "ends"):
        super().__init__(f"{message} (at {path})")
        self.message = message
        self.path = path


class ClosednessViolation(ValidationError):
    """A compactification point marked planar sits over non-planar material."""


class GenusMarkMismatch(ValidationError):
    """Genus and the presence of non-planar marks disagree."""


@dataclass(frozen=True)
class SurfaceDescriptor:
    genus: int | float  # a non-negative integer or INFINITE
    boundary: int
    ends: EndSpaceExpr

    def __post_init__(self) -> None:
        if self.genus != INFINITE and (not isinstance(self.genus, int) or self.genus < 0):
            raise ValueError(f"genus must be a non-negative integer or INFINITE, got {self.genus!r}")
        if not isinstance(self.boundary, int) or self.boundary < 0:
            raise ValueError(f"boundary must be a non-negative integer, got {self.boundary!r}")

    def __str__(self) -> str:
        g = "inf" if self.genus == INFINITE else str(self.genus)
        return f"surface(genus={g}, boundary={self.boundary}, ends={self.ends})"


@dataclass(frozen=True)
class SurfaceInvariants:
    genus: int | float
    boundary: int
    punctures: int | float
    mixed_end: bool
    ends_invariants: SpaceInvariants


def _marks(e: EndSpaceExpr) -> Iterator[Mark]:
    if isinstance(e, (Pt, Interval, Cantor)):
        yield e.mark
    elif isinstance(e, DisjointUnion):
        for c in e.children:
            yield from _marks(c)
    elif isinstance(e, SeqCompactification):
        yield e.point_mark
        yield from _marks(e.child)
    elif isinstance(e, LimitCompactification):
        yield e.point_mark
        yield PLANAR  # the implicit interval pieces are planar


def has_nonplanar(e: EndSpaceExpr) -> bool:
    return any(m is NONPLANAR for m in _marks(e))


def _closedness_violation(e: EndSpaceExpr, path: str) -> Optional[str]:
    if isinstance(e, DisjointUnion):
        for i, c in enumerate(e.children):
            bad = _closedness_violation(c, f"{path}.children[{i}]")
            if bad:
                return bad
    elif isinstance(e, SeqCompactification):
        if e.point_mark is PLANAR and has_nonplanar(e.child):
            return path
        return _closedness_violation(e.child, f"{path}.child")
    return None


def validate(d: SurfaceDescriptor) -> None:
    """Check mark-closedness and the genus/non-planar biconditional.

    Raises ClosednessViolation or GenusMarkMismatch with the path of the
    first offending subexpression.
    """
    bad = _closedness_violation(d.ends, "ends")
    if bad is not None:
        raise ClosednessViolation(
            "a compactification point over non-planar ends is a limit of them and must be marked non-planar",
            bad,
        )
    np_present = has_nonplanar(d.ends)
    if (d.genus == INFINITE) != np_present:
        if np_present:
            raise GenusMarkMismatch("non-planar ends force infinite genus")
        raise GenusMarkMismatch("infinite genus requires a non-planar end")


def is_infinite_type(d: SurfaceDescriptor) -> bool:
    if d.genus == INFINITE:
        return True
    inv = invariants(strip_marks(d.ends))
    return inv.has_kernel or inv.isolated_count == INFINITE


def punctures_of(d: SurfaceDescriptor) -> int | float:
    """Number of isolated planar ends (a planar end has a neighbourhood free
    of non-planar ends, so whole-space and subspace isolation agree)."""
    validate(d)
    return _planar_isolated(d.ends)


def _planar_isolated(e: EndSpaceExpr) -> int | float:
    if isinstance(e, Empty):
        return 0
    if isinstance(e, Pt):
        return 1 if e.mark is PLANAR else 0
    if isinstance(e, Cantor):
        return 0
    if isinstance(e, Interval):
        if e.mark is not PLANAR:
            return 0
        return e.bound.as_int() + 1 if e.bound.is_finite() else INFINITE
    if isinstance(e, DisjointUnion):
        return sum(_planar_isolated(c) for c in e.children)
    if isinstance(e, SeqCompactification):
        return INFINITE if _planar_isolated(e.child) > 0 else 0
    if isinstance(e, LimitCompactification):
        return INFINITE  # the interval pieces are planar and full of isolated points
    raise TypeError(f"not an end-space expression: {e!r}")


def has_mixed_end(d: SurfaceDescriptor) -> bool:
    """True when some end is accumulated by both genus and punctures.

    Under leaf-uniform marking this can only happen at a non-planar
    compactification point whose pieces contain punctures.
    """
    validate(d)
    return _mixed(d.ends)


def _mixed(e: EndSpaceExpr) -> bool:
    if isinstance(e, DisjointUnion):
        return any(_mixed(c) for c in e.children)
    if isinstance(e, SeqCompactification):
        if e.point_mark is NONPLANAR and _planar_isolated(e.child) > 0:
            return True
        return _mixed(e.child)
    if isinstance(e, LimitCompactification):
        return e.point_mark is NONPLANAR
    return False


def surface_invariants(d: SurfaceDescriptor) -> SurfaceInvariants:
    validate(d)
    return SurfaceInvariants(
        genus=d.genus,
        boundary=d.boundary,
        punctures=punctures_of(d),
        mixed_end=has_mixed_end(d),
        ends_invariants=invariants(strip_marks(d.ends)),
    )


def _uniform_mark(e: EndSpaceExpr) -> Optional[Mark]:
    """The common mark of every end in the subtree, or None if mixed."""
    seen = set(_marks(e))
    if len(seen) == 1:
        return seen.pop()
    return None


def _split_pair(e: EndSpaceExpr) -> Optional[tuple[EndSpaceExpr, EndSpaceExpr]]:
    """Split the ends into (non-planar part, planar part) when the non-planar
    set is a union of whole top-level summands (hence clopen); None otherwise."""
    summands = e.children if isinstance(e, DisjointUnion) else (e,)
    np_parts: list[EndSpaceExpr] = []
    p_parts: list[EndSpaceExpr] = []
    for s in summands:
        if isinstance(s, Empty):
            continue
        m = _uniform_mark(s)
        if m is None:
            return None
        (np_parts if m is NONPLANAR else p_parts).append(s)
    return union(*np_parts), union(*p_parts)


def surfaces_homeomorphic(d1: SurfaceDescriptor, d2: SurfaceDescriptor) -> Homeo:
    """Decide homeomorphism of two valid descriptors where possible.

    Genus, boundary count, puncture count and the unmarked end space are
    compared first; a definite mismatch is a No.  A Yes needs the marked
    pair to fall in the clopen fragment on both sides, with the non-planar
    parts and their complements each decidably homeomorphic.
    """
    validate(d1)
    validate(d2)
    if d1.genus != d2.genus or d1.boundary != d2.boundary:
        return Homeo.NO
    if punctures_of(d1) != punctures_of(d2):
        return Homeo.NO
    whole = is_homeomorphic(strip_marks(d1.ends), strip_marks(d2.ends))
    if whole is Homeo.NO:
        return Homeo.NO
    s1 = _split_pair(d1.ends)
    s2 = _split_pair(d2.ends)
    if s1 is None or s2 is None:
        return Homeo.UNKNOWN
    hx = is_homeomorphic(strip_marks(s1[0]), strip_marks(s2[0]))
    hy = is_homeomorphic(strip_marks(s1[1]), strip_marks(s2[1]))
    if hx is Homeo.NO or hy is Homeo.NO:
        return Homeo.NO
    if hx is Homeo.YES and hy is Homeo.YES:
        return Homeo.YES
    return Homeo.UNKNOWN
