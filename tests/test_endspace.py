import copy
import json
import pickle
import random
import sys
from pathlib import Path

import pytest

from infsurf import endspace, ordinal
from infsurf.decide import decide
from infsurf.dsl import parse_endspace, parse_surface_type
from infsurf.endspace import (
    CANTOR_CANON,
    CanonicalEndSpace,
    Cantor,
    DisjointUnion,
    EMPTY,
    EMPTY_CANON,
    Empty,
    Homeo,
    INFINITE,
    Interval,
    LimitCompactification,
    MAX_NESTING,
    NONPLANAR,
    NONPLANAR_BIT,
    PLANAR,
    PLANAR_BIT,
    Pt,
    RANKS,
    RankUndecidable,
    Scattered,
    SeqCompactification,
    SUMMARIES,
    TREES,
    TdMax,
    cb_derivative,
    cb_rank,
    fold_reduced,
    fold_tree,
    invariants,
    is_homeomorphic,
    isolated_count,
    normalize,
    strip_marks,
    summarize,
    td_max,
    union,
)
from infsurf._value import Value
from infsurf.ordinal import ONE, OMEGA, ZERO, Ordinal, add, from_int, omega_pow
from infsurf.surface import SurfaceDescriptor
import oracles
from oracles import chain, embed, nesting, random_countable_expr, random_expr, random_marked_expr, top_rank_profile

W2 = omega_pow(from_int(2))
W3 = omega_pow(from_int(3))


def canon(has_kernel, scattered):
    return CanonicalEndSpace(has_kernel, scattered)


# -- constructors -------------------------------------------------------------


def test_constructors_enforce_invariants():
    with pytest.raises(ValueError):
        SeqCompactification(EMPTY)
    with pytest.raises(ValueError):
        LimitCompactification(add(OMEGA, ONE))  # successor
    with pytest.raises(ValueError):
        DisjointUnion((Pt(),))
    assert union(Pt()) == Pt()
    assert union(EMPTY, EMPTY) == EMPTY
    assert union(Pt(), union(Pt(), Cantor())) == DisjointUnion((Pt(), Pt(), Cantor()))


# -- normalization ------------------------------------------------------------


def test_union_of_intervals_keeps_only_the_top_rank():
    e = union(Interval(W2), Interval(OMEGA))
    assert normalize(e) == canon(False, Scattered(1, from_int(2)))


def test_seq_compactification_raises_rank_by_one():
    assert normalize(SeqCompactification(Interval(OMEGA))) == canon(False, Scattered(1, from_int(2)))


def test_limit_compactification_realizes_its_limit():
    assert normalize(LimitCompactification(OMEGA)) == canon(False, Scattered(1, OMEGA))


def test_compactified_cantor_dust_is_again_cantor():
    e = SeqCompactification(Cantor())
    # fixed point of the derivative with no isolated points: compact,
    # metrizable, totally disconnected and perfect, hence a Cantor set
    assert isolated_count(e) == 0
    assert cb_derivative(e) == e
    nf = normalize(e)
    assert nf == CANTOR_CANON


def test_compactification_over_kernel_and_points_is_irreducible():
    e = SeqCompactification(union(Cantor(), Pt()))
    nf = normalize(e)
    assert not isinstance(nf, CanonicalEndSpace)
    assert nf == SeqCompactification(union(Cantor(), Pt()))
    # fully simplified: normalizing again returns the same expression
    assert normalize(nf) == nf


def test_discrete_children_compactify_to_a_convergent_sequence():
    e = SeqCompactification(union(Pt(), Pt(), Pt()))
    assert normalize(e) == canon(False, Scattered(1, ONE))


def test_finite_interval_is_discrete():
    assert normalize(Interval(from_int(6))) == canon(False, Scattered(7, ZERO))
    assert normalize(Pt()) == canon(False, Scattered(1, ZERO))


def test_union_merge_rules():
    # equal ranks add up, lower ranks and finite parts are absorbed
    assert normalize(union(Interval(W2), Interval(W2))) == canon(False, Scattered(2, from_int(2)))
    assert normalize(union(Interval(W2), Pt(), Interval(from_int(4)))) == canon(False, Scattered(1, from_int(2)))
    assert normalize(union(Cantor(), Cantor())) == CANTOR_CANON
    assert normalize(union(Cantor(), Pt(), Pt())) == canon(True, Scattered(2, ZERO))
    assert normalize(union(Cantor(), Interval(OMEGA), Pt())) == canon(True, Scattered(1, ONE))


def test_interval_decomposition_matches_explicit_split():
    # [0, w^g*n + rest] = n copies of [0, w^g] next to a tail interval
    rng = random.Random(23)
    for _ in range(200):
        from oracles import random_ordinal

        b = random_ordinal(rng, max_exp=3, allow_zero=False)
        if b.is_finite():
            continue
        exp, coeff = b.leading()
        tail = Ordinal_rest(b)
        pieces = [Interval(omega_pow(exp)) for _ in range(coeff)]
        if tail is not None:
            pieces.append(Interval(tail))
        assert normalize(union(*pieces)) == normalize(Interval(b))


def Ordinal_rest(b):
    rest = b.terms[1:]
    if not rest:
        return None
    from infsurf.ordinal import Ordinal

    return Ordinal(rest)


# -- confluence and idempotence -------------------------------------------------


def _random_partial_rewrite(e, rng):
    """Apply the rewrite rules at random positions before the final pass."""
    if not isinstance(e, Empty) and rng.random() < 0.4:
        nf = normalize(e)
        return embed(nf) if isinstance(nf, CanonicalEndSpace) else nf
    if isinstance(e, DisjointUnion):
        kids = list(e.children)
        rng.shuffle(kids)
        if len(kids) > 2 and rng.random() < 0.5:
            cut = rng.randint(2, len(kids) - 1)
            head = _random_partial_rewrite(union(*kids[:cut]), rng)
            return union(head, *(_random_partial_rewrite(k, rng) for k in kids[cut:]))
        return union(*(_random_partial_rewrite(k, rng) for k in kids))
    if isinstance(e, SeqCompactification):
        return SeqCompactification(_random_partial_rewrite(e.child, rng), e.point_mark)
    return e


def test_normalization_is_confluent_under_random_rule_orders():
    rng = random.Random(29)
    for _ in range(60):
        e = random_expr(rng, depth=5)
        want = normalize(e)
        for _ in range(100):
            assert normalize(_random_partial_rewrite(e, rng)) == want


def test_normalize_is_idempotent_through_embedding():
    rng = random.Random(31)
    for _ in range(300):
        e = random_expr(rng, depth=4)
        nf = normalize(e)
        if isinstance(nf, CanonicalEndSpace):
            assert normalize(embed(nf)) == nf
        else:
            assert normalize(nf) == nf
        # no walk that builds a tree nests it deeper than its input
        tree = embed(nf) if isinstance(nf, CanonicalEndSpace) else nf
        assert max(nesting(tree), nesting(cb_derivative(e)), nesting(strip_marks(e))) <= nesting(e)


# -- derivatives ----------------------------------------------------------------


@pytest.mark.parametrize(
    "e, expected",
    [
        (Interval(OMEGA), Pt()),
        (union(Pt(), Cantor()), Cantor()),
        (SeqCompactification(Pt()), Pt()),
        (Interval(omega_pow(ONE, 3)), Interval(from_int(2))),
        (Interval(from_int(9)), EMPTY),
    ],
)
def test_derivative_examples(e, expected):
    assert cb_derivative(e) == expected


def _predicted_derivative(c: CanonicalEndSpace) -> CanonicalEndSpace:
    s = c.scattered
    if s is None or s.exponent.is_zero():
        return CanonicalEndSpace(c.has_kernel, None)
    if s.exponent == ONE:
        return CanonicalEndSpace(c.has_kernel, Scattered(s.copies, ZERO))
    if s.exponent.is_finite():
        return CanonicalEndSpace(c.has_kernel, Scattered(s.copies, from_int(s.exponent.as_int() - 1)))
    return c


def test_derivative_commutes_with_normalization():
    rng = random.Random(37)
    done = 0
    while done < 500:
        e = random_expr(rng, depth=4)
        nf = normalize(e)
        if not isinstance(nf, CanonicalEndSpace):
            continue
        done += 1
        derived = normalize(cb_derivative(e))
        assert isinstance(derived, CanonicalEndSpace)
        assert derived == _predicted_derivative(nf)


def test_derivative_drops_finite_ranks_by_exactly_one():
    rng = random.Random(41)
    for _ in range(200):
        n = rng.randint(1, 5)
        delta = rng.randint(1, 30)
        e = Interval(omega_pow(from_int(delta + 1), n))
        assert normalize(e) == canon(False, Scattered(n, from_int(delta + 1)))
        assert normalize(cb_derivative(e)) == canon(False, Scattered(n, from_int(delta)))
        base = Interval(omega_pow(ONE, n))
        assert normalize(cb_derivative(base)) == canon(False, Scattered(n, ZERO))


def test_derivative_fixes_infinite_ranks():
    # a single step removes isolated points but cannot lower an infinite rank:
    # the limit ordinals below w^(w+1) again have order type w^(w+1)
    for exponent in (OMEGA, add(OMEGA, ONE), omega_pow(from_int(2))):
        e = Interval(omega_pow(exponent, 2))
        assert normalize(cb_derivative(e)) == normalize(e)


# -- ranks, isolated points, distinguished sets ----------------------------------


@pytest.mark.parametrize(
    "e, rank",
    [
        (Interval(W3), from_int(4)),
        (Cantor(), ZERO),
        (Interval(from_int(6)), ONE),
        (union(Cantor(), Interval(OMEGA)), from_int(2)),
    ],
)
def test_rank_examples(e, rank):
    assert cb_rank(e) == rank


def test_rank_undecidable_outside_the_canonical_fragment():
    with pytest.raises(RankUndecidable):
        cb_rank(SeqCompactification(union(Cantor(), Pt())))


@pytest.mark.parametrize(
    "e, count",
    [
        (Cantor(), 0),
        (Interval(add(omega_pow(ONE, 2), from_int(3))), INFINITE),
        (union(Pt(), Pt(), Cantor()), 2),
        (SeqCompactification(Cantor()), 0),
        (LimitCompactification(OMEGA), INFINITE),
        (Interval(from_int(4)), 5),
    ],
)
def test_isolated_count_examples(e, count):
    assert isolated_count(e) == count


def test_invariants_agree_between_raw_and_normal_form():
    rng = random.Random(43)
    for _ in range(300):
        e = random_expr(rng, depth=4)
        nf = normalize(e)
        if not isinstance(nf, CanonicalEndSpace):
            continue
        back = embed(nf)
        assert isolated_count(e) == isolated_count(back)
        assert cb_rank(e) == cb_rank(back)
        assert td_max(e) == td_max(back)


@pytest.mark.parametrize(
    "e, value",
    [
        (Interval(omega_pow(from_int(2), 3)), 3),
        (Cantor(), 0),
        (union(Cantor(), Interval(from_int(3))), 4),
        (union(Pt(), Pt()), 2),
        (union(Cantor(), Interval(omega_pow(ONE, 5))), 5),
    ],
)
def test_td_max_exact_examples(e, value):
    assert td_max(e) == TdMax(value, exact=True)


def test_td_max_certified_lower_bounds():
    one_atom = SeqCompactification(union(Cantor(), Pt()))
    assert td_max(one_atom) == TdMax(1, exact=False)
    # the added points of two summands are both claimed
    assert td_max(union(one_atom, one_atom)) == TdMax(2, exact=False)
    # a canonical class of strictly higher rank than anything inside the
    # irreducible summand stays distinguished
    assert td_max(union(Interval(omega_pow(from_int(5), 2)), one_atom)) == TdMax(3, exact=False)
    # the top germ of [0, w] also occurs inside the summand: not claimed
    spoiled = union(Interval(OMEGA), SeqCompactification(union(Cantor(), Interval(OMEGA))))
    assert td_max(spoiled) == TdMax(1, exact=False)
    # nested compactifications could alias the added point's germ: claim nothing
    nested = SeqCompactification(SeqCompactification(union(Cantor(), Pt())))
    assert td_max(nested) == TdMax(0, exact=False)


# -- homeomorphism ----------------------------------------------------------------


@pytest.mark.parametrize(
    "a, b, expected",
    [
        (union(Interval(OMEGA), Pt(), Pt()), Interval(OMEGA), Homeo.YES),
        (Cantor(), Interval(omega_pow(OMEGA)), Homeo.NO),
        (
            SeqCompactification(union(Cantor(), Pt())),
            union(Cantor(), Interval(OMEGA)),
            Homeo.UNKNOWN,
        ),
        (union(Cantor(), Pt()), union(Cantor(), Pt(), Pt()), Homeo.NO),
        (SeqCompactification(union(Cantor(), Pt())), SeqCompactification(union(Pt(), Cantor())), Homeo.YES),
    ],
)
def test_homeo_examples(a, b, expected):
    assert is_homeomorphic(a, b) is expected


def _homeo_on_oracle_trees(a, b):
    """The homeomorphism rule, read off the oracles' reduced forms and the
    expressions they assemble."""
    (ca, ta), (cb, tb) = oracles.reduce_expr(a), oracles.reduce_expr(b)
    if not ta and not tb:
        return Homeo.YES if ca == cb else Homeo.NO
    if oracles.assemble(ca, ta) == oracles.assemble(cb, tb):
        return Homeo.YES
    if (bool(ta) or ca.has_kernel) != (bool(tb) or cb.has_kernel):
        return Homeo.NO
    return Homeo.NO if oracles.isolated_count(a) != oracles.isolated_count(b) else Homeo.UNKNOWN


def test_homeo_decides_as_the_rule_on_oracle_trees():
    rng = random.Random(149)
    pool = [random_marked_expr(rng, rng.randint(1, 4)) for _ in range(600)]
    irreducible = [e for e in pool if oracles.reduce_expr(e)[1]]
    pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(600)]
    pairs += [(rng.choice(irreducible), rng.choice(irreducible)) for _ in range(400)]
    # respellings: unions shuffled and parts normalized at random positions
    pairs += [(e, _random_partial_rewrite(e, rng)) for e in irreducible for _ in range(5)]
    seen = set()
    respelled_yes = 0
    for a, b in pairs:
        got = is_homeomorphic(a, b)
        assert got is _homeo_on_oracle_trees(a, b), (a, b)
        sa, sb = summarize(a), summarize(b)
        seen.add((got, bool(sa.atoms)))
        # equal reduced forms whose atoms come in another order
        respelled_yes += got is Homeo.YES and sa.atoms != sb.atoms
    assert seen >= {(h, True) for h in Homeo} | {(h, False) for h in Homeo}
    assert respelled_yes >= 15


def test_homeo_is_an_equivalence_on_the_canonical_fragment():
    rng = random.Random(47)
    pool = [random_expr(rng, depth=3) for _ in range(40)]
    pool = [e for e in pool if isinstance(normalize(e), CanonicalEndSpace)]
    for e in pool:
        assert is_homeomorphic(e, e) is Homeo.YES
    for _ in range(200):
        a, b, c = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        assert is_homeomorphic(a, b) is is_homeomorphic(b, a)
        if is_homeomorphic(a, b) is Homeo.YES and is_homeomorphic(b, c) is Homeo.YES:
            assert is_homeomorphic(a, c) is Homeo.YES
        if is_homeomorphic(a, b) is Homeo.YES:
            assert invariants(a) == invariants(b)


def test_canonical_forms_are_separated_by_their_invariants():
    # distinct canonical spaces always differ in countability, kernel,
    # rank or top-rank multiplicity
    from infsurf.ordinal import Ordinal

    alphas = []
    for a in range(3):
        for b in range(3):
            for c in range(3):
                terms = []
                if a:
                    terms.append((from_int(2), a))
                if b:
                    terms.append((ONE, b))
                if c:
                    terms.append((ZERO, c))
                o = Ordinal(terms)
                if not o.is_zero():
                    alphas.append(o)
    forms = [EMPTY_CANON, CANTOR_CANON]
    for kernel in (False, True):
        for m in range(1, 6):
            forms.append(CanonicalEndSpace(kernel, Scattered(m, ZERO)))
        for n in range(1, 6):
            for alpha in alphas:
                forms.append(CanonicalEndSpace(kernel, Scattered(n, alpha)))

    def signature(f: CanonicalEndSpace):
        s = f.scattered
        mult = 0 if s is None else s.copies
        return (f.has_kernel, str(_rank(f)), mult)

    def _rank(f):
        s = f.scattered
        return ZERO if s is None else add(s.exponent, ONE)

    seen = {}
    for f in forms:
        sig = signature(f)
        assert sig not in seen or seen[sig] == f
        seen[sig] = f


def test_profile_oracle_agrees_with_normal_forms():
    rng = random.Random(53)
    for _ in range(300):
        e = random_countable_expr(rng, depth=4)
        nf = normalize(e)
        assert isinstance(nf, CanonicalEndSpace)
        s = nf.scattered
        rank, mult = top_rank_profile(e)
        assert (rank, mult) == (add(s.exponent, ONE), s.copies)


# -- the one-pass summary -----------------------------------------------------


def _mark_bits(marks) -> int:
    return sum({PLANAR_BIT if m is PLANAR else NONPLANAR_BIT for m in marks})


def test_summary_matches_the_per_fact_oracles():
    rng = random.Random(131)
    violations = irreducible = nested = 0
    for i in range(2500):
        e = EMPTY if i == 0 else random_marked_expr(rng, rng.randint(0, 4))
        s = summarize(e)
        canon, atoms = oracles.reduce_expr(e)
        # the reduced form ignores marks and holds no input node
        assert s.canon == canon
        assert tuple(SeqCompactification(fold_reduced(TREES, *a)) for a in s.atoms) == atoms
        assert s.isolated == oracles.isolated_count(e)
        assert s.planar_isolated == oracles.isolated_count(e, planar_only=True)
        assert s.marks == _mark_bits(oracles.marks(e))
        assert s.mixed == oracles.mixed(e)
        bad = oracles.closedness_violation(e)
        assert (None if s.violation is None else "ends" + s.violation) == bad
        assert endspace._atom_rank(s.atoms) == max((oracles.rank_bound(a.child) for a in atoms), default=ZERO)
        assert fold_tree(RANKS, e) == oracles.rank_bound(e)
        assert any(inner for _, inner in s.atoms) == any(oracles.has_compactification(a.child) for a in atoms)
        assert s.td_max() == oracles.td_max(e)
        violations += bad is not None
        irreducible += bool(atoms)
        nested += any(inner for _, inner in s.atoms)
    # the generator must exercise the rare branches
    assert violations >= 300 and irreducible >= 200 and nested >= 50


_TREE_NODES = (Pt, Interval, Cantor, DisjointUnion, SeqCompactification, LimitCompactification)


def _held_values(v):
    """`v` and every value inside it: container elements, ordinal terms and
    the fields of value classes."""
    stack = [v]
    while stack:
        v = stack.pop()
        yield v
        if isinstance(v, (tuple, list, frozenset)):
            stack.extend(v)
        elif isinstance(v, Ordinal):
            stack.extend(v.terms)
        elif isinstance(v, Value):
            stack.extend(getattr(v, name) for name in v.__slots__)


def test_a_summary_holds_no_expression_node():
    # an irreducible atom is the reduced form of the space it compactifies,
    # so neither walk builds a tree into the summary it keeps
    rng = random.Random(139)
    irreducible = nested = 0
    for _ in range(800):
        e = random_marked_expr(rng, rng.randint(0, 4))
        for s in (summarize(e), parse_surface_type(f"surface(genus=inf, boundary=0, ends={e})")[2]):
            assert not any(isinstance(v, _TREE_NODES) for v in _held_values(s)), e
        irreducible += bool(s.atoms)
        nested += any(inner for _, inner in s.atoms)
    assert irreducible >= 60 and nested >= 8


def test_summaries_share_their_mark_sets():
    # a batch keeps many summaries; each holds its marks as two bits
    rng = random.Random(137)
    seen = set()
    for _ in range(800):
        e = random_marked_expr(rng, rng.randint(0, 4))
        for node in oracles.walk(e):
            s = summarize(node)
            assert s.marks == _mark_bits(oracles.marks(node))
            seen.add(s.marks)
        s = parse_surface_type(f"surface(genus=inf, boundary=0, ends={e})")[2]
        assert s.marks == _mark_bits(oracles.marks(e))
    assert seen == {PLANAR_BIT, NONPLANAR_BIT, PLANAR_BIT | NONPLANAR_BIT}
    assert summarize(EMPTY).marks == 0


def test_a_summary_keeps_the_reduced_form_and_the_mark_facts():
    # the isolated count and the distinguished-end bound are read off the atoms
    assert endspace.Summary._fields == ("canon", "atoms", "planar_isolated", "marks", "mixed", "violation")
    s = summarize(union(SeqCompactification(union(Cantor(), Pt())), Interval(omega_pow(from_int(3))), Pt(NONPLANAR)))
    assert type(s.marks) is int and s.marks == PLANAR_BIT | NONPLANAR_BIT
    assert (s.isolated, s.td_max()) == (INFINITE, TdMax(2, exact=False))


def test_text_of_a_normal_form_is_the_text_of_its_expression():
    # the canonical text and the summary's normal text are written without
    # building the expressions; they must print what the expressions print
    rng = random.Random(7717)
    exprs = [random_expr(rng, depth=4) for _ in range(1500)] + [random_marked_expr(rng) for _ in range(500)]
    exprs += [EMPTY, Pt(), Cantor(), Interval(from_int(7)), Interval(omega_pow(OMEGA, 3))]
    kinds = set()
    for e in exprs:
        s = summarize(e)
        nf = normalize(e)
        canonical = isinstance(nf, CanonicalEndSpace)
        assert canonical == (not s.atoms), e
        kinds.add(canonical)
        expr = embed(nf) if canonical else nf
        assert s.normal_text() == str(expr), e
        assert str(nf) == s.normal_text(), e
        if canonical:
            assert str(nf) == str(embed(nf)), e
    # both kinds of normal form occurred
    assert kinds == {True, False}


# -- the tree walks ------------------------------------------------------------

GOLDEN = Path(__file__).parent / "data"


def _walks(text):
    e = parse_endspace(text)
    d = cb_derivative(e)
    line = {
        "text": text,
        "str": str(e),
        "strip_marks": str(strip_marks(e)),
        "cb_derivative": str(d),
        "cb_derivative2": str(cb_derivative(d)),
        "summarize": repr(summarize(e)),
    }
    return json.dumps(line, sort_keys=True) + "\n"


def test_golden_tree_walks():
    # one line per expression of golden_ends.txt, recorded from the
    # recursive walks that fold_tree replaced
    texts = (GOLDEN / "golden_ends.txt").read_text(encoding="utf-8").splitlines()
    assert len(texts) == 301
    assert "".join(_walks(t) for t in texts).encode("utf-8") == (GOLDEN / "golden_ends.walks.jsonl").read_bytes()
    for t in texts:
        e = parse_endspace(t)
        assert fold_tree(TREES, e) == e, t


def test_the_empty_space_is_the_union_of_no_summands():
    assert fold_tree(TREES, Empty()) is EMPTY
    assert str(Empty()) == "empty"
    assert summarize(Empty()) == endspace.join() == SUMMARIES.union()
    # and a single summand is its own union
    cantor = summarize(Cantor())
    assert endspace.join(cantor) is SUMMARIES.union(cantor) is cantor
    assert strip_marks(Empty()) is EMPTY and cb_derivative(Empty()) is EMPTY
    empty = CanonicalEndSpace(False, None)
    assert empty.describe() == "empty space" and str(empty) == "empty" and embed(empty) is EMPTY


@pytest.mark.parametrize("walk", [summarize, strip_marks, cb_derivative])
@pytest.mark.parametrize(
    "bad",
    [lambda: 42, lambda: DisjointUnion((Pt(), 42)), lambda: SeqCompactification(42)],
    ids=["int", "in-union", "in-seq"],
)
def test_tree_walks_refuse_a_non_expression(walk, bad):
    # a walk refuses 42 itself; a union or a compactification refuses it as
    # a child when it is built, with the same error, so no tree holds it
    with pytest.raises(TypeError, match="^not an end-space expression: 42$"):
        walk(bad())


def _alternating(leaf, levels):
    """`leaf` under `levels` alternating levels of seq1pc and of a union with
    a Cantor set, so every level from the third holds one atom in the last."""
    e = leaf
    for i in range(levels):
        e = SeqCompactification(e) if i % 2 == 0 else union(e, Cantor())
    return e


# the leaf; the atoms' rank, the leaf's plus 49; the td_max of the tree
# beside [0, w^w], which counts [0, w^w]'s top point only when it ranks
# above the atoms; the levels of the derived tree; the length of the text
AT_THE_BOUND = [
    pytest.param(Pt, from_int(50), 1, MAX_NESTING - 1, 946, id="pt"),
    pytest.param(
        lambda: Interval(chain(ordinal.MAX_NESTING)),
        add(chain(ordinal.MAX_NESTING - 1), from_int(50)),
        0,
        MAX_NESTING,
        1450,
        id="deepest-interval",
    ),
]


@pytest.mark.parametrize("leaf, rank, td, derived, length", AT_THE_BOUND)
def test_every_operation_returns_on_a_tree_at_the_nesting_bound(leaf, rank, td, derived, length):
    # each recurses a few frames a level, and at the bound, over the deepest
    # ordinal too, stays inside the default recursion limit
    assert sys.getrecursionlimit() == 1000
    e, twin = _alternating(leaf(), MAX_NESTING), _alternating(leaf(), MAX_NESTING)
    assert nesting(e) == MAX_NESTING and e is not twin
    assert e == twin and hash(e) == hash(twin) and repr(e) == repr(twin) and str(e) == str(twin)
    assert copy.copy(e) is e and copy.deepcopy(e) is e
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(e, protocol)) == e
    s = summarize(e)
    nf = normalize(e)
    text = s.normal_text()
    assert type(nf) is DisjointUnion and str(nf) == text and len(text) == length and normalize(nf) == nf
    assert strip_marks(e) == e and nesting(cb_derivative(e)) == derived
    assert is_homeomorphic(e, twin) is Homeo.YES
    assert decide(SurfaceDescriptor(0, 0, e)) == decide(SurfaceDescriptor(0, 0, twin))
    assert endspace._atom_rank(s.atoms) == rank
    for b, claimed in ((OMEGA, 0), (omega_pow(OMEGA), td)):
        inv = invariants(union(e, Interval(b)))
        assert inv == (False, INFINITE, None, True, TdMax(claimed, exact=False))
        assert td_max(union(e, Interval(b))) == inv.td_max
    with pytest.raises(RankUndecidable) as err:
        cb_rank(e)
    assert str(err.value) == "rank undecidable outside the canonical fragment: " + text


def test_a_tree_at_the_nesting_bound_parses_back():
    # it opens no more parentheses than dsl.MAX_DEPTH admits
    e = _alternating(Pt(), MAX_NESTING)
    assert parse_endspace(str(e)) == e


def test_an_api_tree_100000_deep_is_refused_cleanly():
    # the parser stops at dsl.MAX_DEPTH and the constructors at MAX_NESTING,
    # each node checking only its children's stored levels
    message = f"^end-space expression nested deeper than {MAX_NESTING} levels$"
    e = Pt()
    with pytest.raises(ValueError, match=message):
        for n in range(100_000):
            e = SeqCompactification(e) if n % 2 == 0 else union(e, Cantor())
    assert n == MAX_NESTING and nesting(e) == MAX_NESTING
    seqs = Pt()
    for _ in range(MAX_NESTING):
        seqs = SeqCompactification(seqs)
    with pytest.raises(ValueError, match=message):
        union(seqs, Cantor())
