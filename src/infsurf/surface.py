"""Surface descriptors: genus, boundary count and a marked end space.

A boundaryless surface is determined up to homeomorphism by its genus, its
number of boundary components, and the pair (ends, non-planar ends).  The
non-planar ends are those accumulated by genus; they form a closed subset,
which the marks on an end-space expression must respect.  The genus is
infinite exactly when a non-planar mark is present.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from ._value import Value
from .endspace import (
    DisjointUnion,
    Empty,
    EndSpaceExpr,
    Homeo,
    INFINITE,
    NONPLANAR_BIT,
    PLANAR_BIT,
    SpaceInvariants,
    Summary,
    _Expr,
    _typed,
    join,
    summarize,
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


class SurfaceDescriptor(Value):
    __slots__ = ("genus", "boundary", "ends")

    def __init__(
        self,
        genus: int | float,  # a non-negative integer or INFINITE
        boundary: int,
        ends: EndSpaceExpr,
    ) -> None:
        if genus != INFINITE and (not isinstance(genus, int) or genus < 0):
            raise ValueError(f"genus must be a non-negative integer or INFINITE, got {genus!r}")
        if not isinstance(boundary, int) or boundary < 0:
            raise ValueError(f"boundary must be a non-negative integer, got {boundary!r}")
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "boundary", boundary)
        object.__setattr__(self, "ends", _typed(ends, _Expr, "not an end-space expression: "))

    def __str__(self) -> str:
        g = "inf" if self.genus == INFINITE else str(self.genus)
        return f"surface(genus={g}, boundary={self.boundary}, ends={self.ends})"


class SurfaceInvariants(NamedTuple):
    genus: int | float
    boundary: int
    punctures: int | float
    mixed_end: bool
    ends_invariants: SpaceInvariants


def validate(d: SurfaceDescriptor) -> Summary:
    """Check mark-closedness and the genus/non-planar biconditional, and
    return the summary of the ends.

    Raises ClosednessViolation or GenusMarkMismatch with the path of the
    first offending subexpression.
    """
    return validate_type(d.genus, summarize(d.ends))


def validate_type(genus: int | float, s: Summary) -> Summary:
    """``validate`` on a descriptor of this genus whose ends summarize to `s`;
    returns `s`."""
    if s.violation is not None:
        raise ClosednessViolation(
            "a compactification point over non-planar ends is a limit of them and must be marked non-planar",
            "ends" + s.violation,
        )
    np_present = bool(s.marks & NONPLANAR_BIT)
    if (genus == INFINITE) != np_present:
        if np_present:
            raise GenusMarkMismatch("non-planar ends force infinite genus")
        raise GenusMarkMismatch("infinite genus requires a non-planar end")
    return s


def punctures_of(d: SurfaceDescriptor) -> int | float:
    """Number of isolated planar ends (a planar end has a neighbourhood free
    of non-planar ends, so whole-space and subspace isolation agree)."""
    return validate(d).planar_isolated


def has_mixed_end(d: SurfaceDescriptor) -> bool:
    """True when some end is accumulated by both genus and punctures.

    Under leaf-uniform marking this can only happen at a non-planar
    compactification point whose pieces contain punctures.
    """
    return validate(d).mixed


def surface_invariants(d: SurfaceDescriptor) -> SurfaceInvariants:
    s = validate(d)
    return SurfaceInvariants(
        genus=d.genus,
        boundary=d.boundary,
        punctures=s.planar_isolated,
        mixed_end=s.mixed,
        ends_invariants=s.invariants(),
    )


def _summands(d: SurfaceDescriptor) -> tuple[Summary, list[Summary]]:
    """``validate(d)`` and the summaries of the top-level summands of the ends
    that it joins, each summarized once; the empty space has no summands."""
    e = d.ends
    summands = e.children if isinstance(e, DisjointUnion) else () if isinstance(e, Empty) else (e,)
    parts = [summarize(c) for c in summands]
    return validate_type(d.genus, join(*parts)), parts


def _split(parts: list[Summary]) -> Optional[tuple[Summary, Summary]]:
    """Summaries of the (non-planar part, planar part) of the ends with these
    summands when the non-planar set is a union of whole summands (hence
    clopen); None otherwise."""
    if any(s.marks not in (PLANAR_BIT, NONPLANAR_BIT) for s in parts):
        return None
    return join(*[s for s in parts if s.marks & NONPLANAR_BIT]), join(*[s for s in parts if not s.marks & NONPLANAR_BIT])


def surfaces_homeomorphic(d1: SurfaceDescriptor, d2: SurfaceDescriptor) -> Homeo:
    """Decide homeomorphism of two valid descriptors where possible.

    Genus, boundary count, puncture count and the unmarked end space are
    compared first; a definite mismatch is a No.  A Yes needs the marked
    pair to fall in the clopen fragment on both sides, with the non-planar
    parts and their complements each decidably homeomorphic.
    """
    s1, parts1 = _summands(d1)
    s2, parts2 = _summands(d2)
    if d1.genus != d2.genus or d1.boundary != d2.boundary:
        return Homeo.NO
    if s1.planar_isolated != s2.planar_isolated:
        return Homeo.NO
    if s1.homeomorphic_to(s2) is Homeo.NO:
        return Homeo.NO
    split1, split2 = _split(parts1), _split(parts2)
    if split1 is None or split2 is None:
        return Homeo.UNKNOWN
    hx = split1[0].homeomorphic_to(split2[0])
    hy = split1[1].homeomorphic_to(split2[1])
    if hx is Homeo.NO or hy is Homeo.NO:
        return Homeo.NO
    if hx is Homeo.YES and hy is Homeo.YES:
        return Homeo.YES
    return Homeo.UNKNOWN
