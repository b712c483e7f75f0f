"""A catalog of descriptors covering every cell of the decision table.

Each entry records the descriptor text and the expected verdict triple,
where an expected answer is one of "yes" (integral coefficients),
"no_field", "no_any" or "unknown".
"""

from __future__ import annotations

from typing import NamedTuple


class CatalogEntry(NamedTuple):
    name: str
    cell: str
    descriptor: str
    expected: tuple[str, str, str]


CATALOG: tuple[CatalogEntry, ...] = (
    CatalogEntry(
        "loch ness monster",
        "genus infinite, no punctures",
        "surface(genus=inf, boundary=0, ends=pt!np)",
        ("no_field", "no_field", "no_field"),
    ),
    CatalogEntry(
        "blooming cantor tree",
        "genus infinite, no punctures",
        "surface(genus=inf, boundary=0, ends=cantor!np)",
        ("no_field", "no_field", "no_field"),
    ),
    CatalogEntry(
        "loch ness with two punctures",
        "genus infinite, finitely many punctures",
        "surface(genus=inf, boundary=0, ends=U(pt!np, pt, pt))",
        ("no_field", "yes", "yes"),
    ),
    CatalogEntry(
        "mixed end",
        "genus infinite, infinitely many punctures, mixed",
        "surface(genus=inf, boundary=0, ends=seq1pc(U(pt, pt!np); np))",
        ("no_field", "no_field", "no_field"),
    ),
    CatalogEntry(
        "loch ness minus a convergent sequence",
        "genus infinite, infinitely many punctures, no mixed end",
        "surface(genus=inf, boundary=0, ends=U(pt!np, seq1pc(pt)))",
        ("no_field", "unknown", "unknown"),
    ),
    CatalogEntry(
        "flute with one handle",
        "genus finite positive",
        "surface(genus=1, boundary=0, ends=I(w))",
        ("yes", "yes", "yes"),
    ),
    CatalogEntry(
        "genus three with cantor ends",
        "genus finite positive",
        "surface(genus=3, boundary=0, ends=cantor)",
        ("yes", "yes", "yes"),
    ),
    CatalogEntry(
        "cantor tree",
        "genus zero, at most one puncture",
        "surface(genus=0, boundary=0, ends=cantor)",
        ("no_any", "no_any", "no_any"),
    ),
    CatalogEntry(
        "punctured cantor tree",
        "genus zero, at most one puncture",
        "surface(genus=0, boundary=0, ends=U(cantor, pt))",
        ("no_any", "no_any", "no_any"),
    ),
    CatalogEntry(
        "twice-punctured cantor tree",
        "genus zero, two or three punctures",
        "surface(genus=0, boundary=0, ends=U(cantor, pt, pt))",
        ("unknown", "unknown", "yes"),
    ),
    CatalogEntry(
        "five-times-punctured cantor tree",
        "genus zero, four or more punctures",
        "surface(genus=0, boundary=0, ends=U(cantor, pt, pt, pt, pt, pt))",
        ("yes", "yes", "yes"),
    ),
    CatalogEntry(
        "four rank-three spikes",
        "genus zero, infinitely many punctures, distinguished set of size 4",
        "surface(genus=0, boundary=0, ends=I(w^2*4))",
        ("yes", "yes", "yes"),
    ),
    CatalogEntry(
        "flute",
        "genus zero, end space a single ordinal interval",
        "surface(genus=0, boundary=0, ends=I(w))",
        ("no_field", "no_field", "no_field"),
    ),
    CatalogEntry(
        "double spike",
        "genus zero, infinitely many punctures, other",
        "surface(genus=0, boundary=0, ends=U(I(w^2), I(w^2)))",
        ("unknown", "unknown", "unknown"),
    ),
)
