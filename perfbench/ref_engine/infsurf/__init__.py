"""End-space calculus and compact-support homology verdicts for
infinite-type surfaces."""

from . import constructions, decide, dsl, endspace, homology, ordinal, surface
from .decide import Verdict, decide as decide_surface, witness_for
from .dsl import ParseError, parse_endspace, parse_ordinal, parse_surface
from .endspace import (
    Cantor,
    EndSpaceExpr,
    Interval,
    LimitCompactification,
    Pt,
    SeqCompactification,
    cb_derivative,
    cb_rank,
    invariants,
    is_homeomorphic,
    isolated_count,
    normalize,
    td_max,
    union,
)
from .ordinal import Ordinal
from .surface import SurfaceDescriptor, has_mixed_end, punctures_of, surfaces_homeomorphic, validate

__all__ = [
    "Cantor",
    "EndSpaceExpr",
    "Interval",
    "LimitCompactification",
    "Ordinal",
    "ParseError",
    "Pt",
    "SeqCompactification",
    "SurfaceDescriptor",
    "Verdict",
    "cb_derivative",
    "cb_rank",
    "constructions",
    "decide",
    "decide_surface",
    "dsl",
    "endspace",
    "has_mixed_end",
    "homology",
    "invariants",
    "is_homeomorphic",
    "isolated_count",
    "normalize",
    "ordinal",
    "parse_endspace",
    "parse_ordinal",
    "parse_surface",
    "punctures_of",
    "surface",
    "surfaces_homeomorphic",
    "td_max",
    "union",
    "validate",
    "witness_for",
]

__version__ = "0.1.0"
