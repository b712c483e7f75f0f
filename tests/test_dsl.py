import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from infsurf import ordinal
from infsurf.catalog import CATALOG
from infsurf.dsl import (
    MAX_CHARS,
    MAX_DEPTH,
    MAX_DIGITS,
    ParseError,
    parse_endspace,
    parse_ordinal,
    parse_surface,
    parse_surface_type,
)
from infsurf.endspace import (
    Cantor,
    DisjointUnion,
    EMPTY,
    INFINITE,
    Interval,
    LimitCompactification,
    MAX_NESTING,
    NONPLANAR,
    Pt,
    SeqCompactification,
    strip_marks,
    summarize,
    union,
)
from infsurf.ordinal import OMEGA, ZERO, Ordinal, add, from_int, omega_pow
from infsurf.surface import ValidationError, validate, validate_type
from oracles import (
    NESTING_KINDS,
    best_times,
    differential_texts,
    mutate_text,
    nested_endspace_text,
    nesting,
    random_endspace_text,
    random_expr,
    random_ordinal,
    random_ordinal_text,
    random_surface_text,
    scan_endspace,
    scan_ordinal,
    scan_surface,
)


def test_parse_ordinal_terms():
    o = parse_ordinal("w^2*3 + w + 1")
    assert [(str(e), c) for e, c in o.terms] == [("2", 3), ("1", 1), ("0", 1)]


def test_parse_ordinal_normalizes():
    assert parse_ordinal("1 + w") == OMEGA
    assert parse_ordinal("w + w") == omega_pow(from_int(1), 2)
    assert parse_ordinal("w*0") == ZERO


def test_parse_ordinal_nested_exponents():
    o = parse_ordinal("w^(w*2+1)*3 + w + 5")
    assert str(o) == "w^(w*2+1)*3 + w + 5"
    assert parse_ordinal("w^w") == omega_pow(OMEGA)


def test_parse_ordinal_error_position():
    with pytest.raises(ParseError) as exc:
        parse_ordinal("w^^2")
    assert exc.value.offset == 2
    with pytest.raises(ParseError):
        parse_ordinal("w +")
    with pytest.raises(ParseError):
        parse_ordinal("w 3")


@pytest.mark.parametrize(
    "text, expected",
    [
        ("U(cantor!np, pt)", union(Cantor(NONPLANAR), Pt())),
        ("seq1pc(pt!p; np)", SeqCompactification(Pt(), NONPLANAR)),
        ("lim1pc(w)", LimitCompactification(OMEGA)),
        ("I(w^2)!np", Interval(omega_pow(from_int(2)), NONPLANAR)),
        ("U(pt, U(pt, pt))", DisjointUnion((Pt(), Pt(), Pt()))),
    ],
)
def test_parse_endspace_examples(text, expected):
    assert parse_endspace(text) == expected


def test_parse_endspace_errors():
    with pytest.raises(ParseError):
        parse_endspace("plane")
    with pytest.raises(ParseError):
        parse_endspace("lim1pc(w+1)")  # successor ordinal
    with pytest.raises(ParseError):
        parse_endspace("seq1pc(pt; q)")
    with pytest.raises(ParseError):
        parse_endspace("U(pt,)")


def test_parse_surface_examples():
    d = parse_surface("surface(genus=inf, boundary=0, ends=pt!np)")
    assert d.genus == INFINITE and d.boundary == 0 and d.ends == Pt(NONPLANAR)
    d = parse_surface("surface(genus=3, boundary=2, ends=U(cantor, pt))")
    assert d.genus == 3 and d.boundary == 2


def test_parse_surface_errors():
    with pytest.raises(ParseError):
        parse_surface("surface(genus=-1, boundary=0, ends=pt)")
    with pytest.raises(ParseError):
        parse_surface("surface(boundary=0, genus=1, ends=pt)")
    with pytest.raises(ParseError):
        parse_surface("surface(genus=1, boundary=0, ends=pt) junk")


def test_ordinal_round_trips():
    rng = random.Random(79)
    for _ in range(400):
        o = random_ordinal(rng, max_exp=3, max_coeff=9)
        assert parse_ordinal(str(o)) == o
    # nested exponents too
    deep = omega_pow(parse_ordinal("w^2*2 + 3"), 5)
    assert parse_ordinal(str(deep)) == deep


def test_endspace_round_trips():
    rng = random.Random(83)
    for _ in range(400):
        e = random_expr(rng, depth=4)
        if e == strip_marks(e):  # random generator emits planar-only trees
            assert parse_endspace(str(e)) == e
    # the one exception: the empty space prints, but a parsed space is never empty
    assert str(EMPTY) == "empty"
    with pytest.raises(ParseError):
        parse_endspace("empty")


def test_marked_round_trips():
    texts = [
        "U(cantor!np, pt, I(w*2)!np)",
        "seq1pc(U(pt, pt!np); np)",
        "lim1pc(w^2; np)",
    ]
    for t in texts:
        e = parse_endspace(t)
        assert parse_endspace(str(e)) == e


# -- the scanner oracle, non-ASCII digits and the nesting budget ---------------


def _outcome(parse, text):
    try:
        return "value", parse(text)
    except ParseError as err:
        return "error", err.offset, err.expected, err.message


PARSERS = {
    "surface": (parse_surface, scan_surface),
    "endspace": (parse_endspace, scan_endspace),
    "ordinal": (parse_ordinal, scan_ordinal),
}


@pytest.mark.parametrize(
    "kind, text",
    [
        # "inf" is read as a prefix: the error is at the "x"
        ("surface", "surface(genus=infx, boundary=0, ends=pt)"),
        ("surface", "surface(genus=in f, boundary=0, ends=pt)"),
        # keyword mismatches are placed after the whole word
        ("surface", "surfaces(genus=1, boundary=0, ends=pt)"),
        ("surface", "3surface(genus=1, boundary=0, ends=pt)"),
        ("surface", "surface(genus3=1, boundary=0, ends=pt)"),
        ("surface", "surface(genus=1, boundaryx=0, ends=pt)"),
        ("surface", "surface(genus=1, boundary=0, ends3abc=pt)"),
        ("endspace", "seq1pc(pt; npx)"),
        ("endspace", "seq1pc(pt; 3np)"),
        ("endspace", "seq1pc(pt;)"),
        ("ordinal", "w^wx"),
        # a bad head, or "wx" in a term, is placed at the start of the word
        ("endspace", "ptx"),
        ("endspace", "3pt"),
        ("ordinal", "wx"),
        ("ordinal", "w + w3"),
        # "3abc" is a natural and a word in number position
        ("surface", "surface(genus=3abc, boundary=0, ends=pt)"),
        ("endspace", "I(3abc)"),
        ("ordinal", "w*3abc"),
        # marks are read as literals
        ("endspace", "pt!npx"),
        ("endspace", "pt!pnp"),
        ("endspace", "pt!n"),
        ("endspace", "lim1pc(w+1; np)"),
        ("endspace", "lim1pc(w+1; np"),
        ("surface", ""),
        ("surface", "\x1csurface\x1d(genus\x1e=\x1f1,boundary=0,ends=pt)\x0b"),
    ],
)
def test_error_positions_match_the_scanner(kind, text):
    parse, scan = PARSERS[kind]
    assert _outcome(parse, text) == _outcome(scan, text)


def test_parser_agrees_with_the_scanner_on_mutated_descriptors():
    rng = random.Random(4711)
    generators = {"surface": random_surface_text, "endspace": random_endspace_text, "ordinal": random_ordinal_text}
    bases = [("surface", entry.descriptor) for entry in CATALOG]
    bases += [(kind, generators[kind](rng)) for kind in rng.choices(list(generators), k=2500)]
    mutated = errors = 0
    for kind, base in bases:
        parse, scan = PARSERS[kind]
        assert _outcome(parse, base) == _outcome(scan, base), base
        for _ in range(8):
            text = base
            for _ in range(rng.randint(1, 3)):
                text = mutate_text(rng, text)
            got = _outcome(parse, text)
            assert got == _outcome(scan, text), text
            mutated += 1
            errors += got[0] == "error"
    assert mutated >= 20_000
    # most mutations break the text, but not all of them
    assert 0.5 * mutated < errors < 0.97 * mutated


_NAT = st.integers(0, 30).map(str)
_WS = st.sampled_from(["", " ", "  ", "\t"])


def _ordinal_texts(ordinal):
    exponent = st.one_of(ordinal.map("({})".format), st.just("w"), _NAT)
    power = st.builds(
        lambda e, c: "w" + ("" if e is None else "^" + e) + ("" if c is None else "*" + c),
        st.none() | exponent,
        st.none() | _NAT,
    )
    return st.builds(lambda terms, ws: (ws + "+" + ws).join(terms), st.lists(power | _NAT, min_size=1, max_size=3), _WS)


ORDINAL_TEXTS = st.recursive(_NAT | st.just("w"), _ordinal_texts, max_leaves=6)
_LEAF_TEXTS = st.builds(
    "{}{}".format,
    st.one_of(st.just("pt"), st.just("cantor"), ORDINAL_TEXTS.map("I({})".format)),
    st.sampled_from(["", "!p", "!np"]),
)
_POINT = st.sampled_from(["", "; p", ";np"])
_LIMIT_TEXTS = st.builds("lim1pc({}{})".format, ORDINAL_TEXTS, _POINT)
ENDSPACE_TEXTS = st.recursive(
    _LEAF_TEXTS | _LIMIT_TEXTS,
    lambda inner: st.one_of(
        st.builds(lambda cs, ws: "U(" + ("," + ws).join(cs) + ")", st.lists(inner, min_size=1, max_size=3), _WS),
        st.builds("seq1pc({}{})".format, inner, _POINT),
    ),
    max_leaves=8,
)
SURFACE_TEXTS = st.builds(
    "surface(genus={}, boundary={},{}ends={})".format, st.just("inf") | _NAT, _NAT, _WS, ENDSPACE_TEXTS
)


@settings(max_examples=150, deadline=None)
@given(ORDINAL_TEXTS)
def test_grammar_ordinals_round_trip_and_agree_with_the_scanner(text):
    got = _outcome(parse_ordinal, text)
    assert got == _outcome(scan_ordinal, text)
    assert got[0] == "value"
    assert parse_ordinal(str(got[1])) == got[1]


@settings(max_examples=150, deadline=None)
@given(SURFACE_TEXTS)
def test_grammar_surfaces_round_trip_and_agree_with_the_scanner(text):
    got = _outcome(parse_surface, text)
    assert got == _outcome(scan_surface, text)
    if got[0] == "value":
        d = got[1]
        assert parse_surface(str(d)) == d
        assert parse_endspace(str(d.ends)) == d.ends
    else:
        # the grammar admits successor ordinals under lim1pc; nothing else fails
        assert got[2] == ("limit ordinal",)


@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_surface, "surface(genus=\u00b2, boundary=0, ends=cantor)"),
        (parse_surface, "surface(genus=1, boundary=3\u0663, ends=cantor)"),
        (parse_endspace, "I(\u0663)"),
        (parse_ordinal, "w^\u00b2"),
        (parse_ordinal, "w*\u0663"),
    ],
)
def test_naturals_are_ascii_digits(parse, text):
    # str.isdigit accepts these, and int() read "\u0663" as 3 or failed
    with pytest.raises(ParseError):
        parse(text)


@pytest.mark.parametrize("kind", NESTING_KINDS)
def test_nesting_budget(kind):
    # one budget: every parsed tree is admitted, and so is every parsed
    # ordinal, a w^w inside MAX_DEPTH open w^(
    assert MAX_DEPTH == MAX_NESTING and MAX_DEPTH + 3 <= ordinal.MAX_NESTING
    text = nested_endspace_text(kind, MAX_DEPTH)
    e = parse_endspace(text)
    assert e == scan_endspace(text)
    # a parsed tree nests no deeper than its open parentheses: a union
    # directly inside a union is flattened, and w^( nests the ordinal only
    assert nesting(e) == {"seq1pc": MAX_DEPTH, "U": 1, "w^(": 0, "lim1pc": 0, "mixed": 33}[kind]
    text = nested_endspace_text(kind, MAX_DEPTH + 1)
    with pytest.raises(ParseError) as exc:
        parse_endspace(text)
    assert exc.value.message == "nesting too deep"
    # at the parenthesis that opens one level too many
    assert exc.value.offset == [i for i, c in enumerate(text) if c == "("][MAX_DEPTH]
    deep = "w^(" * MAX_DEPTH + "1" + ")" * MAX_DEPTH
    assert parse_ordinal(deep) == parse_ordinal(str(parse_ordinal(deep)))
    with pytest.raises(ParseError):
        parse_ordinal("w^(" + deep + ")")
    with pytest.raises(ParseError):
        parse_surface(f"surface(genus=0, boundary=0, ends={nested_endspace_text(kind, 1300)})")


def _frames() -> int:
    """The Python frames of the caller and of the calls it is inside."""
    n, frame = 0, sys._getframe(1)
    while frame is not None:
        n, frame = n + 1, frame.f_back
    return n


@pytest.mark.parametrize("kind", NESTING_KINDS)
def test_a_parse_at_the_nesting_bound_takes_a_frame_a_level(kind):
    # the parser recurses once per open parenthesis, and a fold adds a few
    # frames at the innermost level only
    ends = nested_endspace_text(kind, MAX_DEPTH)
    surface = f"surface(genus=0, boundary=0, ends={ends})"
    calls = [
        (parse_ordinal, "w^(" * MAX_DEPTH + "w^w" + ")" * MAX_DEPTH),
        (parse_endspace, ends),
        (parse_surface, surface),
        (parse_surface_type, surface),
    ]
    got = []
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frames() + MAX_DEPTH + 20)
    try:
        for parse, text in calls:
            got.append(parse(text))
    finally:
        sys.setrecursionlimit(limit)
    assert got == [parse(text) for parse, text in calls]


@pytest.mark.parametrize(
    "parse, before, after",
    [
        (parse_surface, "surface(genus=", ", boundary=0, ends=cantor)"),
        (parse_surface, "surface(genus=0, boundary=", ", ends=cantor)"),
        (parse_endspace, "I(", ")"),
        (parse_ordinal, "w^", ""),
        (parse_ordinal, "w*", ""),
    ],
    ids=["genus", "boundary", "term", "exponent", "coefficient"],
)
def test_natural_length_budget(parse, before, after):
    assert parse(before + "7" * MAX_DIGITS + after)
    # Python's own int() limit (4 300 digits) would raise a plain ValueError
    with pytest.raises(ParseError) as exc:
        parse(before + "1" * 5000 + after)
    assert exc.value.message == "natural too long"
    assert exc.value.offset == len(before)
    with pytest.raises(ParseError):
        parse(before + "0" * (MAX_DIGITS + 1) + after)


def test_text_length_budget():
    # whitespace counts: a text is refused before it is split into tokens
    text = "surface(genus=1, boundary=0, ends=cantor)"
    padded = text + " " * (MAX_CHARS - len(text))
    assert parse_surface(padded) == parse_surface(text)
    assert parse_surface_type(padded) == parse_surface_type(text)
    longer = [
        (parse_surface, padded + " "),
        (parse_surface_type, "surface(genus=inf, boundary=0, ends=U(cantor" + ", pt" * (MAX_CHARS // 4) + "))"),
        (parse_endspace, "U(" + "cantor, " * (MAX_CHARS // 8) + "pt)"),
        (parse_ordinal, "1 + " * (MAX_CHARS // 4) + "1"),
    ]
    for parse, long_text in longer:
        assert len(long_text) > MAX_CHARS
        with pytest.raises(ParseError) as exc:
            parse(long_text)
        assert (exc.value.offset, exc.value.message) == (MAX_CHARS, "text too long"), parse


def test_a_union_of_atoms_is_summarized_in_linear_time():
    # a guard: n and 8n irreducible summands take about 8 times as long, and
    # toward 64 times if each summand copied the atoms before it
    def text(n):
        return "surface(genus=0, boundary=0, ends=U(" + ", ".join(["seq1pc(U(cantor, pt))"] * n) + "))"

    texts = [text(700), text(5600)]
    assert len(texts[1]) <= MAX_CHARS and len(parse_surface_type(texts[1])[2].atoms) == 5600
    small, large = best_times([lambda t=t: parse_surface_type(t) for t in texts])
    assert large <= 12 * small, (small, large)


def test_an_ordinal_sum_is_read_in_linear_time():
    # a guard: n and 8n decreasing terms take about 8 times as long, and
    # toward 64 times if each term copied the sum before it
    def text(n):
        return " + ".join(f"w^{k}" for k in range(n, 0, -1))

    texts = [text(1000), text(8000)]
    assert len(texts[1]) <= MAX_CHARS and len(parse_ordinal(texts[1])) == 8000
    small, large = best_times([lambda t=t: parse_ordinal(t) for t in texts])
    assert large <= 20 * small, (small, large)


def _random_sum(rng: random.Random, depth: int) -> tuple[str, Ordinal, list[Ordinal]]:
    """The text of a sum of random terms, in any order, with equal exponents,
    zero coefficients and w^(...) exponents, the ordinal that folding its
    terms with ``ordinal.add`` gives, and the exponents of its nonzero terms."""
    pieces, total, exps = [], ZERO, []
    for _ in range(rng.randint(1, 6)):
        coeff = rng.choice((0, 1, 1, 2, 3, 150))
        roll = rng.random()
        if roll < 0.25:
            exp, piece = ZERO, str(coeff)
        else:
            if roll < 0.55 or depth == 0:
                exp = from_int(rng.randint(0, 3))
                head = f"w^{exp}"
            elif roll < 0.65:
                exp, head = OMEGA, "w^w"
            else:
                inner, exp, _ = _random_sum(rng, depth - 1)
                head = f"w^({inner})"
            piece = head if coeff == 1 and rng.random() < 0.5 else f"{head}*{coeff}"
        pieces.append(piece)
        total = add(total, omega_pow(exp, coeff))
        if coeff:
            exps.append(exp)
    return " + ".join(pieces), total, exps


def test_the_one_list_sum_agrees_with_folding_the_terms_by_add():
    rng = random.Random(20261020)
    shapes = {"absorbed": 0, "merged": 0, "nested": 0}
    for _ in range(3000):
        text, want, exps = _random_sum(rng, 2)
        got = parse_ordinal(text)
        assert got == want and type(got) is Ordinal and Ordinal(got) == got, text
        # a term below a later one is absorbed by it
        shapes["absorbed"] += any(a < b for a, b in zip(exps, exps[1:]))
        # no term's coefficient is drawn as one of these, so it is a merge
        shapes["merged"] += any(c not in (1, 2, 3, 150) for _, c in got)
        shapes["nested"] += "w^(" in text
    assert min(shapes.values()) >= 300, shapes


# -- the summary fold run by the parser ---------------------------------------


def _tree_result(text: str) -> tuple:
    """(genus, boundary, summary of the ends, validation message or None)
    from the expression tree, or the parse error."""
    try:
        d = parse_surface(text)
    except ParseError as err:
        return ("parse", err.offset, err.expected, err.message)
    s = summarize(d.ends)
    try:
        validate(d)
    except ValidationError as err:
        return (d.genus, d.boundary, s, str(err))
    return (d.genus, d.boundary, s, None)


def _fused_result(text: str) -> tuple:
    """The same, read off the text by the summary fold."""
    try:
        genus, boundary, s = parse_surface_type(text)
    except ParseError as err:
        return ("parse", err.offset, err.expected, err.message)
    try:
        assert validate_type(genus, s) is s
    except ValidationError as err:
        return (genus, boundary, s, str(err))
    return (genus, boundary, s, None)


FUSED_CORNERS = [
    # flattened unions: violation paths index the flattened summands
    "surface(genus=inf, boundary=0, ends=U(pt!np, U(U(cantor, seq1pc(pt!np)), seq1pc(U(pt, pt!np)))))",
    "surface(genus=inf, boundary=0, ends=U(U(pt!np), U(pt, U(seq1pc(U(pt!np))))))",
    # a union of one summand is that summand, and its path is not wrapped
    "surface(genus=inf, boundary=0, ends=U(seq1pc(U(pt!np))))",
    "surface(genus=inf, boundary=0, ends=seq1pc(U(U(pt, U(seq1pc(pt!np)))); np))",
    "surface(genus=inf, boundary=0, ends=U(U(pt, seq1pc(U(U(pt!np, pt))))))",
    "surface(genus=inf, boundary=0, ends=U(U(U(U(pt!np)))))",
    # genus and marks disagree
    "surface(genus=0, boundary=0, ends=U(pt, U(lim1pc(w; np))))",
    "surface(genus=inf, boundary=0, ends=U(pt, U(I(w^w*3))))",
    # lim1pc of a non-limit ordinal, inside unions and compactifications
    "surface(genus=0, boundary=0, ends=U(pt, U(seq1pc(lim1pc(w+1)))))",
    "surface(genus=0, boundary=0, ends=lim1pc(w^(w+2)+3; np))",
    "surface(genus=0, boundary=0, ends=lim1pc(0))",
    # intervals on both sides of the shared small table
    "surface(genus=0, boundary=0, ends=U(I(98), I(99)!np, I(100), I(0), I(w^2*5+w+7)))",
    "surface(genus=inf, boundary=0, ends=U(I(98)!np, I(99), I(100)!np, seq1pc(I(w)!np; np)))",
]


def test_summary_fold_agrees_with_the_tree():
    rng = random.Random(6151)
    texts = [c.descriptor for c in CATALOG] + FUSED_CORNERS
    texts += differential_texts(rng, 2000, MAX_DEPTH)
    outcomes = {"parse": 0, "invalid": 0, "valid": 0}
    for text in texts:
        want = _tree_result(text)
        got = _fused_result(text)
        # repr also tells an int count from a float one
        assert got == want and repr(got) == repr(want), text
        outcomes["parse" if want[0] == "parse" else "valid" if want[3] is None else "invalid"] += 1
    assert min(outcomes.values()) >= 500, outcomes


def test_the_parser_leaves_the_term_checks_to_the_api(monkeypatch):
    # the grammar already gives each w^e*c an Ordinal exponent and a natural
    # coefficient, so parsing builds its ordinals without Ordinal(terms)
    calls = []
    checked = Ordinal.__new__
    monkeypatch.setattr(Ordinal, "__new__", lambda cls, *args: calls.append(args) or checked(cls, *args))
    texts = (Path(__file__).parent / "data" / "golden_batch.txt").read_text(encoding="utf-8").splitlines()
    texts += [c.descriptor for c in CATALOG] + FUSED_CORNERS
    parsed = 0
    for text in texts:
        for parse in (parse_surface, parse_surface_type):
            try:
                parse(text)
                parsed += 1
            except ParseError:
                pass
    for text in ("00", "007", "w^00", "w*0 + 3", "1234567890123", "w^(w^0100*007+00)*0 + w^(0)*120"):
        parse_ordinal(text)
    assert parsed > 100 and calls == []
    # the API builders do go through it
    assert omega_pow(OMEGA, 2) == parse_ordinal("w^w*2") and len(calls) == 1
