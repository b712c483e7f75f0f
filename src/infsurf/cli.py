"""Command-line interface.

Exit codes: 0 success (an unknown verdict is a success), 2 parse error,
3 validation error (invalid descriptor, boundary, finite type, bad
parameters), 4 internal invariant violation.  A reader that closes stdout
early ends the command quietly with 0.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from functools import lru_cache
from itertools import islice
from typing import Any, Optional

from . import constructions, homology
from .decide import (
    Answer,
    DerivedFacts,
    InternalInvariantViolation,
    ROW_CACHE_SIZE,
    Verdict,
    WitnessRef,
    CITATIONS,
    row,
    row_key,
    verdict,
)
from .dsl import MAX_CHARS, ParseError, parse_endspace, parse_ordinal, parse_surface, parse_surface_type
from .endspace import INFINITE, SpaceInvariants, Summary, is_homeomorphic, summarize
from .ordinal import compare, kind
from .surface import surface_invariants, surfaces_homeomorphic, validate

OK, PARSE_ERROR, VALIDATION_ERROR, INTERNAL_ERROR = 0, 2, 3, 4

# a broken invariant of the engine itself, reported as kind "internal"
_INTERNAL = (InternalInvariantViolation, AssertionError)

# json.dumps(obj, sort_keys=True) builds its encoder on every call; this one is kept
_dumps_sorted = json.JSONEncoder(sort_keys=True).encode


def _count_json(n: int | float) -> Any:
    return "infinity" if n == INFINITE else n


def _invariants_json(inv: SpaceInvariants) -> dict:
    return {
        "countable": inv.countable,
        "isolated_count": _count_json(inv.isolated_count),
        "scattered_rank": None if inv.scattered_rank is None else str(inv.scattered_rank),
        "has_kernel": inv.has_kernel,
        "td_max": {"value": inv.td_max.value, "exact": inv.td_max.exact},
    }


def _witness_json(w: Optional[WitnessRef]) -> Optional[dict]:
    if w is None:
        return None
    return {"degree": w.degree, "description": w.description, "computation": w.computation}


def _answer_json(a: Answer) -> dict:
    out: dict[str, Any] = {"answer": a.result, "citation": a.citation}
    if a.coefficients:
        out["coefficients"] = a.coefficients
    if a.note:
        out["note"] = a.note
    out["witness"] = _witness_json(a.witness)
    return out


def _derived_json(d: DerivedFacts) -> dict:
    derived: dict[str, Any] = {
        "genus": _count_json(d.genus),
        "genus_class": d.genus_class,
        "punctures": _count_json(d.punctures),
        "mixed_end": d.mixed_end,
        "end_space": d.end_space,
    }
    if d.td is not None:
        derived["td_max"] = {"value": d.td.value, "exact": d.td.exact}
    if d.witness_set:
        derived["witness_set"] = d.witness_set
    if d.notes:
        derived["notes"] = list(d.notes)
    return derived


def verdict_json(v: Verdict) -> dict:
    return {
        "qI": _answer_json(v.qI),
        "qII": _answer_json(v.qII),
        "qIII": _answer_json(v.qIII),
        "derived": _derived_json(v.derived),
    }


_GLYPHS = {"yes": "yes", "no": "no", "unknown": "?"}


def _verdict_text(v: Verdict) -> str:
    lines = []
    for q, a in zip(("I", "II", "III"), v.answers()):
        scope = f" ({a.coefficients})" if a.coefficients else ""
        extra = f" -- {a.note}" if a.note else ""
        lines.append(f"question {q}: {_GLYPHS[a.result]}{scope} [{a.citation}]{extra}")
        if a.witness:
            lines.append(f"  witness, degree {a.witness.degree}: {a.witness.description}")
    d = v.derived
    lines.append(
        f"derived: genus={_count_json(d.genus)} punctures={_count_json(d.punctures)} "
        f"mixed_end={str(d.mixed_end).lower()} ends={d.end_space}"
    )
    for note in d.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines)


def _emit(args: argparse.Namespace, payload: dict, text: str) -> int:
    if args.json:
        print(_dumps_sorted(payload))
    else:
        print(text)
    return OK


# -- command handlers ---------------------------------------------------------


def _cmd_ord_eval(args) -> int:
    o = parse_ordinal(args.ordinal)
    payload = {
        "normal_form": str(o),
        "kind": kind(o).value,
        "terms": [[str(e), c] for e, c in o.terms],
    }
    return _emit(args, payload, str(o))


def _cmd_ord_compare(args) -> int:
    c = compare(parse_ordinal(args.left), parse_ordinal(args.right))
    word = {-1: "less", 0: "equal", 1: "greater"}[c]
    return _emit(args, {"result": word}, word)


def _cmd_ends_normalize(args) -> int:
    s = summarize(parse_endspace(args.endspace))
    expr = s.normal_text()
    if not s.atoms:
        payload = {"status": "canonical", "expr": expr, "description": s.canon.describe()}
        text = f"canonical: {expr} ({s.canon.describe()})"
    else:
        payload = {"status": "irreducible", "expr": expr}
        text = f"irreducible: {expr}"
    return _emit(args, payload, text)


def _cmd_ends_invariants(args) -> int:
    inv = summarize(parse_endspace(args.endspace)).invariants()
    payload = _invariants_json(inv)
    rank = "undecidable" if inv.scattered_rank is None else str(inv.scattered_rank)
    text = (
        f"countable={str(inv.countable).lower()} isolated={_count_json(inv.isolated_count)} "
        f"rank={rank} kernel={str(inv.has_kernel).lower()} "
        f"td_max={'>=' if not inv.td_max.exact else ''}{inv.td_max.value}"
    )
    return _emit(args, payload, text)


def _cmd_ends_homeo(args) -> int:
    h = is_homeomorphic(parse_endspace(args.left), parse_endspace(args.right))
    return _emit(args, {"result": h.value}, h.value.capitalize())


def _cmd_surface_validate(args) -> int:
    validate(parse_surface(args.surface))
    return _emit(args, {"ok": True}, "ok")


def _cmd_surface_invariants(args) -> int:
    inv = surface_invariants(parse_surface(args.surface))
    payload = {
        "genus": _count_json(inv.genus),
        "boundary": inv.boundary,
        "punctures": _count_json(inv.punctures),
        "mixed_end": inv.mixed_end,
        "ends": _invariants_json(inv.ends_invariants),
    }
    text = (
        f"genus={_count_json(inv.genus)} boundary={inv.boundary} "
        f"punctures={_count_json(inv.punctures)} mixed_end={str(inv.mixed_end).lower()}"
    )
    return _emit(args, payload, text)


def _cmd_surface_homeo(args) -> int:
    h = surfaces_homeomorphic(parse_surface(args.left), parse_surface(args.right))
    return _emit(args, {"result": h.value}, h.value.capitalize())


def _cmd_decide(args) -> int:
    if args.jsonl:
        return _run_batch(args)
    v = verdict(*parse_surface_type(args.surface))
    return _emit(args, verdict_json(v), _verdict_text(v))


VERDICT_CACHE_SIZE = 2048
"""Surface types whose verdict lines ``decide --jsonl`` keeps
(``_verdict_line``), so that lines of one type are decided once.

A 10 000-line ``batch_mixed`` file has 1 124-1 160 distinct valid types
(seeds 1, 7 and 101), so each is decided once; with the invalid types,
whose errors are raised, not kept, the cache misses 1 712-1 781 times.  At
1 024 it thrashed and missed 1 922-2 057 times.  A kept type costs about
0.86 kB under tracemalloc, its summary, the head of its line and the pair
that refers to the tail, so a full cache holds about 1.8 MB.  The tail,
the answers, is one string per table row (``_answers_text``), not one per
type."""

LINE_CACHE_SIZE = 8192
"""Lines whose finished output lines one ``decide --jsonl`` run keeps
(``_batch_line``), so that a repeated line is not parsed again.  Each
entry's key is the line's words joined by a space only where deleting it
could join two tokens: for a line that parses, the line with all its
whitespace deleted.

A 10 000-line ``batch_mixed`` file has 4 648-4 705 distinct keys (seeds
1, 7 and 101); a pass parses 4 731-4 773 lines, for parse-error lines of
one key but other texts.  At 1 024 the cache thrashed and parsed
5 452-5 524 lines.  A key there holds about 82 characters.  An entry
costs about 200 bytes under tracemalloc, its key, its slot and, for an
error line, the line itself in its pair or list (a verdict line's pair is
shared with ``_verdict_line``), so a full cache holds about 1.6 MB.  An entry whose
type has dropped out of ``_verdict_line`` keeps its pair alone, about
330 bytes an entry on a batch that overflows both caches."""


def _run_batch(args) -> int:
    try:
        # utf-8-sig drops a byte-order mark at the start of the file only
        fh = open(args.jsonl, "r", encoding="utf-8-sig", errors="surrogateescape")
    except OSError as err:
        _report_error(args, type(err).__name__, f"cannot read batch file: {err}")
        return VALIDATION_ERROR
    kept: dict[str, tuple[str, str] | list[str]] = {}
    # one write per output line; print would make two
    write = sys.stdout.write
    with fh:
        while True:
            try:
                chunk = fh.readline()
            except OSError as err:
                _report_error(args, type(err).__name__, f"cannot read batch file: {err}")
                return VALIDATION_ERROR
            if not chunk:
                return OK
            # universal newlines end every chunk but the last with "\n", so
            # splitting chunk by chunk gives the lines of str.splitlines()
            # on the whole text
            for line in chunk.splitlines():
                write(_batch_line(line, kept))


# a space that would join two tokens if deleted (see _batch_line)
_GLUE = re.compile(r" (?<=[\w!] )(?=\w)")


_EMPTY_LINE = json.dumps({"error": {"kind": "empty_line"}}) + "\n"


def _batch_line(line: str, kept: dict[str, tuple[str, str] | list[str]]) -> str:
    """The output line of one input line, with its newline.  `kept` maps
    keys to the output lines of the LINE_CACHE_SIZE most recently seen
    ones, least recently seen first, in one of two shapes: a pair whose
    concatenation is the line, which is the ``(head, tail)`` of
    ``_verdict_line`` for a verdict and ``(line, "")`` for a DecisionError
    or a ResourceLimit, or, for a parse error, a list of the line and the
    stripped text it answers.

    The key joins the line's words (``str.split`` splits on what the
    tokenizer skips) with a space where it stands between a character of
    ``[\\w!]`` and one of ``\\w``, and with nothing elsewhere.  A token of
    more than one character is a digit run, a word, ``!np`` or ``!p``: it
    begins with ``[\\w!]`` and goes on with ``\\w``, so no other space can
    join two tokens, and lines with one key have one token sequence.  A
    verdict, DecisionError or ResourceLimit line depends on the tokens
    alone; a parse error's offset on the text too, so a kept one answers
    its own stripped text only.  Internal errors, and lines longer than
    ``MAX_CHARS``, which are not split, are not kept."""
    key = out = None
    if len(line) <= MAX_CHARS:
        words = line.split()
        if not words:
            return _EMPTY_LINE
        spaced = " ".join(words)
        # few lines have a glue space, and for the rest joining the words is cheaper than the split
        if _GLUE.search(spaced) is None:
            key = "".join(words)
        else:
            key = " ".join(part.replace(" ", "") for part in _GLUE.split(spaced))
        out = kept.pop(key, None)
        if type(out) is list and out[1] != line.strip():
            out = None
    elif line.isspace():
        return _EMPTY_LINE
    if out is not None:
        kept[key] = out  # back at the end, as the most recently seen
    else:
        text = line.strip()
        try:
            out = _verdict_line(*parse_surface_type(text))
        except ParseError as err:
            out = [json.dumps({"error": {"kind": "parse", "offset": err.offset, "message": err.message}}) + "\n", text]
        except ValueError as err:
            # a DecisionError or a ResourceLimit, as the single call reports it
            out = json.dumps({"error": {"kind": type(err).__name__, "message": str(err)}}) + "\n", ""
        except _INTERNAL as err:
            return json.dumps({"error": {"kind": "internal", "message": str(err)}}) + "\n"
        if key is not None:
            kept[key] = out
            if len(kept) > LINE_CACHE_SIZE:
                del kept[next(iter(kept))]
    return out[0] if type(out) is list else out[0] + out[1]


@lru_cache(maxsize=VERDICT_CACHE_SIZE)
def _verdict_line(genus: int | float, boundary: int, s: Summary) -> tuple[str, str]:
    """The JSON line of the verdict on one surface type, with its newline,
    as a head and a tail whose concatenation it is; batch lines of the same
    type share the pair.  Errors are raised, not kept.  Validity depends on
    the key alone, so a hit skips the validation as well.

    The line is ``json.dumps(verdict_json(v), sort_keys=True)``: "derived"
    sorts first, so the head holds the type's derived facts and the tail
    its answers, the ``_answers_text`` of its table row, one string that
    every type of the row refers to."""
    derived = _dumps_sorted(_derived_json(verdict(genus, boundary, s).derived))
    return f'{{"derived": {derived}, ', _answers_text(row_key(genus, s))


@lru_cache(maxsize=ROW_CACHE_SIZE)
def _answers_text(key: tuple) -> str:
    """The "qI", "qII" and "qIII" members of a verdict line in the table row
    `key`, then the closing brace and the newline."""
    qI, qII, qIII = row(key)[:3]
    answers = {"qI": _answer_json(qI), "qII": _answer_json(qII), "qIII": _answer_json(qIII)}
    return _dumps_sorted(answers)[1:] + "\n"


def _cmd_hom_snf(args) -> int:
    try:
        rows = json.loads(args.matrix)
        # json gives floats and booleans that int() would silently truncate
        if not isinstance(rows, list) or any(
            not isinstance(row, list) or any(type(x) is not int for x in row) for row in rows
        ):
            raise ValueError("every matrix entry must be an integer")
        matrix = homology.IntegerMatrix.from_rows(rows)
    except (RecursionError, TypeError, ValueError) as err:
        raise ParseError(0, ("JSON matrix, e.g. [[2,4],[6,8]]",), str(err)) from err
    res = homology.smith_normal_form(matrix)
    if not args.json:
        print("diagonal: " + " ".join(str(x) for x in res.diagonal))
        return OK
    # the bytes of json.dumps({"diagonal": ..., "left": ..., "right": ...},
    # sort_keys=True) and a newline, written a row at a time, so neither the
    # rows as lists nor the whole text are held at once
    write = sys.stdout.write
    write(f'{{"diagonal": [{", ".join(map(str, res.diagonal))}], "left": [')
    for head, m in (("", res.left), ('], "right": [', res.right)):
        write(head)
        for i, r in enumerate(m.entries):
            write(f'{", " if i else ""}[{", ".join(map(str, r))}]')
    write("]}\n")
    return OK


def _parse_presentation(text: str) -> homology.FinitePresentation:
    ngens = None
    relators = []
    start = 0
    for raw in text.split(";"):
        chunk = raw.strip()
        at = start + len(raw) - len(raw.lstrip())
        start += len(raw) + 1
        if not chunk:
            continue
        if not chunk.startswith(("gens=", "rel=")):
            raise ParseError(at, ("'gens='", "'rel='"), f"bad presentation chunk {chunk!r}")
        # integers are ASCII digit runs, a relator letter may have one leading
        # '-', and whitespace may surround each token; the patterns compile on
        # first use, not at import
        if re.fullmatch(r"gens=\s*[0-9]+", chunk):
            ngens = int(chunk[5:])
        elif re.fullmatch(r"rel=\s*(-?[0-9]+(\s+-?[0-9]+)*)?", chunk):
            relators.append(tuple(map(int, chunk[4:].split())))
        else:
            raise ParseError(at, ("integers",), f"bad presentation chunk {chunk!r}")
    if ngens is None:
        raise ParseError(0, ("'gens='",), "presentation needs a generator count")
    return homology.FinitePresentation(ngens, tuple(relators))


def _cmd_hom_abelianize(args) -> int:
    if bool(args.preset) == bool(args.presentation):
        raise homology.BadParameter("give either --preset or a presentation")
    if args.preset:
        pres = homology.preset(args.preset, args.n)
    elif args.n is not None:
        raise homology.BadParameter("a presentation takes no parameter")
    else:
        pres = _parse_presentation(args.presentation)
    group = homology.abelianize(pres)
    payload = {
        "presentation": str(pres),
        "group": str(group),
        "rank": group.rank,
        "torsion": list(group.torsion),
    }
    return _emit(args, payload, str(group))


def _cmd_hom_poincare(args) -> int:
    # argparse has already refused any other kind
    kind_name = {"torus": homology.TORUS_POWER, "wreath": homology.WREATH_QUOTIENT}[args.kind]
    coeffs = homology.poincare_series(kind_name, args.p, args.max_degree)
    return _emit(args, {"coefficients": list(coeffs)}, " ".join(str(c) for c in coeffs))


def _cmd_construct_snake(args) -> int:
    path = constructions.snake_bijection(args.count)
    # written 4096 cells at a time, so neither the cells nor the whole text
    # are held at once
    cells, write = path.cells(), sys.stdout.write
    if args.json:
        # the bytes of json.dumps(path.points) and a newline
        write("[")
        sep = ""
        while block := ", ".join([f"[{x}, {y}]" for x, y in islice(cells, 4096)]):
            write(sep)
            write(block)
            sep = ", "
        write("]\n")
        return OK
    # one line a cell
    while block := "".join([f"{x} {y}\n" for x, y in islice(cells, 4096)]):
        write(block)
    return OK


def _cmd_citations(args) -> int:
    payload = dict(sorted(CITATIONS.items()))
    text = "\n".join(f"{tag}: {text}" for tag, text in sorted(CITATIONS.items()))
    return _emit(args, payload, text)


# -- wiring -------------------------------------------------------------------


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it was."""
    top = argparse.ArgumentParser(prog="infsurf", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def with_json(p: argparse.ArgumentParser) -> argparse.ArgumentParser:
        p.add_argument("--json", action="store_true", help="emit JSON")
        return p

    ordp = sub.add_parser("ord", help="ordinal arithmetic").add_subparsers(dest="sub", required=True)
    p = with_json(ordp.add_parser("eval", help="normalize an ordinal expression"))
    p.add_argument("ordinal")
    p.set_defaults(func=_cmd_ord_eval)
    p = with_json(ordp.add_parser("compare", help="compare two ordinals"))
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=_cmd_ord_compare)

    endsp = sub.add_parser("ends", help="end-space calculus").add_subparsers(dest="sub", required=True)
    p = with_json(endsp.add_parser("normalize"))
    p.add_argument("endspace")
    p.set_defaults(func=_cmd_ends_normalize)
    p = with_json(endsp.add_parser("invariants"))
    p.add_argument("endspace")
    p.set_defaults(func=_cmd_ends_invariants)
    p = with_json(endsp.add_parser("homeo"))
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=_cmd_ends_homeo)

    surfp = sub.add_parser("surface", help="surface descriptors").add_subparsers(dest="sub", required=True)
    p = with_json(surfp.add_parser("validate"))
    p.add_argument("surface")
    p.set_defaults(func=_cmd_surface_validate)
    p = with_json(surfp.add_parser("invariants"))
    p.add_argument("surface")
    p.set_defaults(func=_cmd_surface_invariants)
    p = with_json(surfp.add_parser("homeo"))
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=_cmd_surface_homeo)

    p = with_json(sub.add_parser("decide", help="answer the three support questions"))
    p.add_argument("surface", nargs="?", default=None)
    p.add_argument("--jsonl", metavar="FILE", help="batch mode: one descriptor per line")
    p.set_defaults(func=_cmd_decide)

    homp = sub.add_parser("hom", help="homology oracle").add_subparsers(dest="sub", required=True)
    p = with_json(homp.add_parser("snf"))
    p.add_argument("matrix", help="JSON rows, e.g. [[2,4],[6,8]]")
    p.set_defaults(func=_cmd_hom_snf)
    p = with_json(homp.add_parser("abelianize"))
    p.add_argument("presentation", nargs="?", default=None, help="gens=2; rel=1 2 1 -2 -1 -2")
    p.add_argument("--preset", choices=["braid", "symmetric", "spherical_braid", "sl2z"])
    p.add_argument("-n", type=int, default=None)
    p.set_defaults(func=_cmd_hom_abelianize)
    p = with_json(homp.add_parser("poincare"))
    p.add_argument("kind", choices=["torus", "wreath"])
    p.add_argument("p", type=int)
    p.add_argument("max_degree", type=int)
    p.set_defaults(func=_cmd_hom_poincare)

    conp = sub.add_parser("construct", help="combinatorial witnesses").add_subparsers(dest="sub", required=True)
    p = with_json(conp.add_parser("snake"))
    p.add_argument("count", type=int)
    p.set_defaults(func=_cmd_construct_snake)

    p = with_json(sub.add_parser("citations", help="list the citation tags used in verdicts"))
    p.set_defaults(func=_cmd_citations)

    return top


def _report_error(args, kind_name: str, message: str, extra: Optional[dict] = None) -> None:
    if args.json:
        payload = {"error": {"kind": kind_name, "message": message, **(extra or {})}}
        print(_dumps_sorted(payload))
    else:
        print(f"error ({kind_name}): {message}", file=sys.stderr)


def main(argv: Optional[list[str]] = None) -> int:
    try:
        code = _main(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout because it wants no more: stop quietly,
        # with stdout on devnull so the interpreter's last flush cannot fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return OK
    return code


def _main(argv: Optional[list[str]]) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "decide" and bool(args.jsonl) == bool(args.surface):
        parser.error("decide needs a descriptor or --jsonl FILE")
    try:
        return args.func(args)
    except ParseError as err:
        _report_error(args, "parse", str(err), {"offset": err.offset, "expected": list(err.expected)})
        return PARSE_ERROR
    except _INTERNAL as err:
        _report_error(args, "internal", str(err))
        return INTERNAL_ERROR
    except ValueError as err:
        _report_error(args, type(err).__name__, str(err))
        return VALIDATION_ERROR


if __name__ == "__main__":
    sys.exit(main())
