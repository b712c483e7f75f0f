"""Seeded input generators.  Every generated operation carries the outcome
the checker expects; nothing here imports infsurf.

End spaces are tuples:
    ("pt", mark) ("cantor", mark) ("I", terms, mark) ("U", [children])
    ("seq", child, mark) ("lim", terms, mark)
with mark "p" or "np" and ordinal terms as in oracles.py.
"""

from __future__ import annotations

import random
import re

import oracles as O

INF = "inf"

# -- rendering ----------------------------------------------------------------


def render_ord(terms, rng=None) -> str:
    """Ordinal text; with rng, an equal but unnormalized spelling."""
    if rng is None or rng.random() < 0.5:
        return O.ord_str(terms)
    if O.ord_is_finite(terms):
        k = terms[0][1] if terms else 0
        if k < 2:
            return O.ord_str(terms)
        a = rng.randint(1, k - 1)
        return f"{a} + {k - a}"
    (e, c), rest = terms[0], list(terms[1:])
    if c >= 2 and rng.random() < 0.5:
        a = rng.randint(1, c - 1)
        return " + ".join([O.ord_str([(e, a)]), O.ord_str([(e, c - a)])] + ([O.ord_str(rest)] if rest else []))
    # a finite summand in front of an infinite ordinal is absorbed
    return f"{rng.randint(1, 9)} + {O.ord_str(terms)}"


def render(e, rng=None) -> str:
    """Descriptor text.  With rng, a rewrite denoting the same marked space:
    unions permuted and regrouped, default marks spelled out, ordinals
    unnormalized and whitespace varied."""
    sp = (lambda: " " * rng.choice((0, 0, 1, 2))) if rng else (lambda: "")
    tag = e[0]
    if tag in ("pt", "cantor", "I"):
        mark = e[-1]
        suffix = "!np" if mark == "np" else ("!p" if rng and rng.random() < 0.3 else "")
        head = f"I({sp()}{render_ord(e[1], rng)}{sp()})" if tag == "I" else tag
        return head + suffix
    if tag == "U":
        kids = list(e[1])
        if rng:
            rng.shuffle(kids)
            if len(kids) >= 3 and rng.random() < 0.3:
                cut = rng.randint(1, len(kids) - 2)
                kids = kids[:cut] + [("U", kids[cut:])]
        return "U(" + ("," + sp()).join(sp() + render(k, rng) for k in kids) + sp() + ")"
    mark = e[2]
    point = "; np" if mark == "np" else ("; p" if rng and rng.random() < 0.3 else "")
    inner = render(e[1], rng) if tag == "seq" else render_ord(e[1], rng)
    name = "seq1pc" if tag == "seq" else "lim1pc"
    return f"{name}({sp()}{inner}{point}{sp()})"


def surface(genus, ends, rng=None, boundary=0) -> str:
    g = "inf" if genus == INF else str(genus)
    if rng and rng.random() < 0.3:
        return f"surface( genus = {g} , boundary = {boundary} , ends = {render(ends, rng)} )"
    return f"surface(genus={g}, boundary={boundary}, ends={render(ends, rng)})"


# -- parsing the catalog's descriptors ----------------------------------------

_TOKEN = re.compile(r"\s*(surface|genus|boundary|ends|inf|seq1pc|lim1pc|cantor|pt|np|p|I|U|w|!np|!p|\d+|[(),;=^*+])")


def _tokens(text):
    pos, out = 0, []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"cannot tokenize {text[pos:]!r}")
            break
        out.append(m.group(1))
        pos = m.end()
    return out


def parse_surface(text):
    """(genus, boundary, ends) from descriptor text, ordinals below w^w only."""
    toks = _tokens(text)
    i = 0

    def take(want=None):
        nonlocal i
        t = toks[i]
        if want is not None and t != want:
            raise ValueError(f"expected {want!r}, got {t!r}")
        i += 1
        return t

    def ordinal():
        terms = []
        while True:
            if toks[i] == "w":
                take()
                e = 1
                if toks[i] == "^":
                    take()
                    e = int(take())
                c = 1
                if toks[i] == "*":
                    take()
                    c = int(take())
                terms = list(O.ord_add(terms, [(e, c)]))
            else:
                k = int(take())
                terms = list(O.ord_add(terms, [(0, k)] if k else []))
            if toks[i] != "+":
                return tuple(terms)
            take()

    def mark():
        if toks[i] in ("!np", "!p"):
            return take()[1:]
        return "p"

    def point_mark():
        if toks[i] == ";":
            take()
            return take()
        return "p"

    def space():
        t = take()
        if t in ("pt", "cantor"):
            return (t, mark())
        if t == "I":
            take("(")
            o = ordinal()
            take(")")
            return ("I", o, mark())
        if t == "U":
            take("(")
            kids = [space()]
            while toks[i] == ",":
                take()
                kids.append(space())
            take(")")
            return ("U", kids)
        take("(")
        inner = space() if t == "seq1pc" else ordinal()
        m = point_mark()
        take(")")
        return ("seq" if t == "seq1pc" else "lim", inner, m)

    take("surface"), take("("), take("genus"), take("=")
    genus = INF if toks[i] == "inf" else int(toks[i])
    take(), take(","), take("boundary"), take("=")
    boundary = int(take())
    take(","), take("ends"), take("=")
    ends = space()
    take(")")
    return genus, boundary, ends


# -- random end spaces --------------------------------------------------------


def rand_ord(rng, limit=False):
    if not limit and rng.random() < 0.3:
        return ((0, rng.randint(1, 4)),)
    exps = sorted(rng.sample(range(0, 6), rng.choice((1, 1, 2, 2, 3))), reverse=True)
    if exps[0] == 0:
        exps[0] = rng.randint(1, 5)
    if limit and exps[-1] == 0:
        exps.pop()
    return tuple((e, rng.randint(1, 3)) for e in exps)


def rand_leaf(rng):
    r = rng.random()
    if r < 0.35:
        return ("pt", "p")
    if r < 0.55:
        return ("cantor", "p")
    return ("I", rand_ord(rng), "p")


def rand_space(rng, budget, depth=0):
    if budget <= 1 or depth >= 7:
        return rand_leaf(rng) if rng.random() < 0.85 else ("lim", rand_ord(rng, limit=True), "p")
    kind = rng.choices(("U", "seq", "lim"), weights=(6, 3, 1))[0]
    if kind == "lim":
        return ("lim", rand_ord(rng, limit=True), "p")
    if kind == "seq":
        return ("seq", rand_space(rng, budget - 1, depth + 1), "p")
    k = rng.randint(2, max(2, min(5, budget - 1)))
    cuts = sorted(rng.sample(range(1, budget - 1), k - 1)) if budget - 1 > k else list(range(1, k))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [budget - 1])]
    return ("U", [rand_space(rng, max(1, s), depth + 1) for s in sizes])


def nodes(e):
    if e[0] == "U":
        return [e] + [n for k in e[1] for n in nodes(k)]
    if e[0] == "seq":
        return [e] + nodes(e[1])
    return [e]


def is_infinite(e) -> bool:
    """An end space with infinitely many points makes the surface infinite type."""
    return any(
        n[0] in ("cantor", "seq", "lim") or (n[0] == "I" and not O.ord_is_finite(n[1])) for n in nodes(e)
    )


def top_count_bound(e) -> int:
    """Upper bound on both the finite puncture count and the size of the
    distinguished end set at genus zero: each top-level summand adds at most
    its isolated points, interval copies or its one compactification point."""
    if e[0] == "U":
        return sum(top_count_bound(k) for k in e[1])
    if e[0] == "pt":
        return 1
    if e[0] == "I":
        return e[1][0][1] + (1 if O.ord_is_finite(e[1]) else 0)
    return 0 if e[0] == "cantor" else 1


def has_np(e) -> bool:
    return any(n[-1] == "np" for n in nodes(e) if n[0] != "U")


def mark_nonplanar(rng, e):
    """Random marks for genus infinity, with compactification points over
    non-planar material marked non-planar so the non-planar set is closed."""
    tag = e[0]
    if tag in ("pt", "cantor", "I"):
        return (*e[:-1], "np" if rng.random() < 0.4 else "p")
    if tag == "U":
        return ("U", [mark_nonplanar(rng, k) for k in e[1]])
    if tag == "lim":
        return ("lim", e[1], "np" if rng.random() < 0.3 else "p")
    child = mark_nonplanar(rng, e[1])
    return ("seq", child, "np" if has_np(child) or rng.random() < 0.3 else "p")


WITNESS_BOUND = 12  # keeps genus-zero witnesses small and shared across lines


def budget(rng) -> int:
    r = rng.random()
    if r < 0.6:
        return rng.randint(1, 3)
    if r < 0.9:
        return rng.randint(4, 12)
    if r < 0.98:
        return rng.randint(13, 40)
    return rng.randint(60, 130)


def random_descriptor(rng):
    """(genus, ends) for a valid, boundaryless, infinite-type surface."""
    genus = rng.choice((0, "fin", INF))
    e = rand_space(rng, budget(rng))
    if not is_infinite(e):
        e = ("U", [e, ("cantor", "p")] if e[0] != "U" else e[1] + [("seq", ("pt", "p"), "p")])
    if genus == INF:
        e = mark_nonplanar(rng, e)
        if not has_np(e):
            e = ("U", (e[1] if e[0] == "U" else [e]) + [("pt", "np")])
        return INF, e
    if genus == 0 and top_count_bound(e) > WITNESS_BOUND:
        e = ("seq", e, "p")
    return (0 if genus == 0 else rng.randint(1, 5)), e


# -- workloads ----------------------------------------------------------------


BATCH_LINES = 10_000


def batch_mixed(seed: int, catalog):
    """~40% catalog lines and rewrites, ~45% random lines in pairs with a
    permuted rewrite, ~15% lines that must fail with a known error kind."""
    rng = random.Random(seed)
    parsed = [(c, parse_surface(c["descriptor"])) for c in catalog]
    out = []
    n_cat, n_err = BATCH_LINES * 40 // 100, BATCH_LINES * 15 // 100
    for _ in range(n_cat):
        c, (g, b, ends) = rng.choice(parsed)
        text = c["descriptor"] if rng.random() < 0.25 else surface(g, ends, rng)
        out.append([text, {"catalog": c["expected"]}])
    pair = 0
    while len(out) < BATCH_LINES - n_err - 1:
        g, ends = random_descriptor(rng)
        out.append([surface(g, ends), {"pair": pair}])
        out.append([surface(g, ends, rng), {"pair": pair}])
        pair += 1
    while len(out) < BATCH_LINES:
        out.append(error_line(rng, parsed))
    rng.shuffle(out)
    return out


def error_line(rng, parsed):
    kind = rng.choice(("parse", "HasBoundary", "NotInfiniteType", "InvalidDescriptor"))
    c, (g, b, ends) = rng.choice(parsed)
    if kind == "parse":
        if rng.random() < 0.2:
            text = f"surface(genus=0, boundary=0, ends=lim1pc({O.ord_str(rand_ord(rng, limit=True))} + 1))"
        else:
            # every proper prefix lacks the closing parenthesis
            full = surface(g, ends, rng)
            text = full[: rng.randint(len("surface("), len(full) - 1)]
    elif kind == "HasBoundary":
        text = surface(g, ends, rng, boundary=rng.randint(1, 3))
    elif kind == "NotInfiniteType":
        finite = ("U", [("pt", "p") if rng.random() < 0.5 else ("I", ((0, rng.randint(1, 4)),), "p") for _ in range(rng.randint(1, 3))])
        text = surface(rng.randint(0, 4), finite if len(finite[1]) > 1 else finite[1][0], rng)
    else:
        r = rng.random()
        if r < 0.34:
            text = surface(rng.randint(0, 4), ("U", [("pt", "np"), ("cantor", "p")]), rng)
        elif r < 0.67:
            text = surface(INF, ("U", [("cantor", "p"), ("I", rand_ord(rng), "p")]), rng)
        else:
            text = surface(INF, ("U", [("seq", ("pt", "np"), "p"), ("pt", "np")]), rng)
    return [text, {"error": kind}]


# -- small spaces with closed-form answers ------------------------------------


def canonical_family(rng):
    """A union of points, intervals and Cantor sets with its normal form."""
    pieces, pts = [], 0
    exp, copies = 0, 0
    cantor = rng.random() < 0.3
    for _ in range(rng.randint(1, 4)):
        r = rng.random()
        if r < 0.3:
            pieces.append(("pt", "p"))
            pts += 1
        elif r < 0.5:
            k = rng.randint(1, 3)
            pieces.append(("I", ((0, k),), "p"))
            pts += k + 1
        else:
            e, m = rng.randint(1, 4), rng.randint(1, 3)
            pieces.append(("I", ((e, m),), "p"))
            if e > exp:
                exp, copies = e, m
            elif e == exp:
                copies += m
    if cantor:
        pieces.append(("cantor", "p"))
    if exp:
        scattered = f"I({O.ord_str(((exp, copies),))})"
    elif pts:
        scattered = "pt" if pts == 1 else f"I({pts - 1})"
    else:
        scattered = None
    parts = (["cantor"] if cantor else []) + ([scattered] if scattered else [])
    normal = parts[0] if len(parts) == 1 else "U(" + ", ".join(parts) + ")"
    # [0, w^e] has Cantor-Bendixson rank e + 1
    rank = "0" if not scattered else str(exp + 1)
    space = pieces[0] if len(pieces) == 1 else ("U", pieces)
    return space, {"normal": normal, "rank": rank, "cantor": cantor}


def other_space(space, facts):
    """A space that differs from `space` in its Cantor kernel."""
    kids = space[1] if space[0] == "U" else [space]
    if facts["cantor"]:
        rest = [k for k in kids if k[0] != "cantor"]
        return rest[0] if len(rest) == 1 else ("U", rest)
    return ("U", kids + [("cantor", "p")])


def derivative(e):
    """Derived-set text for the points, intervals and unions of canonical_family."""
    if e[0] == "pt":
        return None
    if e[0] == "cantor":
        return "cantor"
    if e[0] == "I":
        q = tuple((x - 1, c) for x, c in e[1] if x > 0)
        if not q:
            return None
        if q == ((0, 1),):
            return "pt"
        if O.ord_is_finite(q):
            return f"I({q[0][1] - 1})"
        return f"I({O.ord_str(q)})"
    parts = [d for d in (derivative(k) for k in e[1]) if d is not None]
    if not parts:
        return None
    return parts[0] if len(parts) == 1 else "U(" + ", ".join(parts) + ")"


def rand_cnf(rng):
    """A random ordinal below w^6, as oracle terms."""
    exps = sorted(rng.sample(range(0, 6), rng.randint(1, 3)), reverse=True)
    return tuple((e, rng.randint(1, 4)) for e in exps)


CLI_ROUNDS = 9


def cli_calls(seed: int, catalog):
    """CLI calls with their checks, in rounds that run every subcommand once."""
    rng = random.Random(seed)
    parsed = [(c, parse_surface(c["descriptor"])) for c in catalog]
    ops = []
    for _ in range(CLI_ROUNDS):
        c, (g, b, ends) = rng.choice(parsed)
        text = surface(g, ends, rng)
        space, facts = canonical_family(rng)
        a, bb = rand_cnf(rng), rand_cnf(rng)
        if rng.random() < 0.2:
            bb = a
        preset = rng.choice(("braid", "symmetric", "spherical_braid"))
        n = rng.randint(3, 9)
        size = rng.randint(2, 4)
        matrix = [[rng.randint(-9, 9) for _ in range(size)] for _ in range(size)]
        p, deg = rng.randint(1, 8), 2 * rng.randint(2, 10)
        count = rng.randint(20, 300)
        word = {-1: "less", 0: "equal", 1: "greater"}[O.ord_cmp(a, bb)]
        round_ops = [
            (["decide", text], {"verdict_text": c["expected"]}),
            (["decide", "--json", text], {"verdict_json": c["expected"]}),
            (["ends", "normalize", "--json", render(space, rng)], {"json": {"status": "canonical", "expr": facts["normal"]}}),
            (["ends", "homeo", render(space), render(space, rng)], {"text": "Yes"}),
            (["ends", "homeo", "--json", render(space, rng), render(other_space(space, facts))], {"json": {"result": "no"}}),
            (["surface", "homeo", surface(0, ("U", [space, ("cantor", "p")])), surface(0, ("U", [space, ("cantor", "p")]), rng)], {"text": "Yes"}),
            (["ord", "compare", render_ord(a, rng), render_ord(bb, rng)], {"text": word}),
            (["hom", "abelianize", "--json", "--preset", preset, "-n", str(n)], {"json": {"group": O.PRESET_H1[preset](n)}}),
            (["hom", "snf", "--json", str(matrix)], {"snf": matrix}),
            (["hom", "poincare", "wreath", str(p), str(deg)], {"series": O.wreath_series(p, deg)}),
            (["hom", "poincare", "--json", "torus", str(p), str(deg)], {"series": O.torus_series(p, deg)}),
            (["construct", "snake", str(count)], {"snake": count}),
        ]
        rng.shuffle(round_ops)
        ops.extend([list(argv), check] for argv, check in round_ops)
    return ops


# Sizes are fixed so that every seed gives the same shape of work.  The Smith
# normal forms are over half of the calls, so the median call is a 16x16 one
# and p90 lies among the 32x32 ones.  The cost of one matrix varies by ~15%
# with its entries; many matrices of each size keep the sum within a few
# percent from seed to seed.
SNF_SIZES = (16,) * 40 + (24,) * 20 + (32,) * 16
SNAKE_COUNTS = (100, 1_000, 10_000, 100_000) * 2


def dense_matrix(rng, size):
    while True:
        m = [[rng.randint(-9, 9) for _ in range(size)] for _ in range(size)]
        if O.determinant(m):
            return m


CALC_PER_KIND = 7


def calculus(seed: int):
    """One pass of library calls: dense Smith normal forms, snake paths and
    the end-space, surface and ordinal calculi on closed-form families."""
    rng = random.Random(seed)
    ops = [{"fn": "homology.smith_normal_form", "matrix": dense_matrix(rng, s)} for s in SNF_SIZES]
    ops += [{"fn": "constructions.snake_bijection", "count": c - rng.randrange(c // 10)} for c in SNAKE_COUNTS]
    for _ in range(CALC_PER_KIND):
        space, facts = canonical_family(rng)
        same = rng.random() < 0.5
        ops.append({
            "fn": "endspace.is_homeomorphic",
            "a": render(space, rng),
            "b": render(space, rng) if same else render(other_space(space, facts), rng),
            "want": "yes" if same else "no",
        })
        space, facts = canonical_family(rng)
        if space[0] == "U":
            # the derived set keeps summand order, so permute before rendering
            space = ("U", rng.sample(space[1], len(space[1])))
        ops.append({"fn": "endspace.cb_derivative", "e": render(space), "want": derivative(space) or "empty"})
        space, facts = canonical_family(rng)
        ops.append({"fn": "endspace.cb_rank", "e": render(space, rng), "want": facts["rank"]})
        space, facts = canonical_family(rng)
        whole = ("U", [space, ("cantor", "p")])
        g = rng.randint(0, 3)
        same = rng.random() < 0.5
        ops.append({
            "fn": "surface.surfaces_homeomorphic",
            "a": surface(g, whole, rng),
            "b": surface(g if same else g + 1, whole, rng),
            "want": "yes" if same else "no",
        })
        a, b = rand_cnf(rng), rand_cnf(rng)
        if rng.random() < 0.2:
            b = a
        ops.append({"fn": "ordinal.compare", "a": render_ord(a, rng), "b": render_ord(b, rng), "want": O.ord_cmp(a, b)})
        ops.append({"fn": "ordinal.add", "a": render_ord(a, rng), "b": render_ord(b, rng), "want": O.ord_str(O.ord_add(a, b))})
    rng.shuffle(ops)
    return ops
