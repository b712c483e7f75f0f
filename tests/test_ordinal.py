import copy
import os
import pickle
import random
import subprocess
import sys
from functools import cmp_to_key
from pathlib import Path

import pytest

import infsurf
from infsurf.ordinal import (
    MAX_NESTING,
    Kind,
    ONE,
    OMEGA,
    ZERO,
    Ordinal,
    add,
    compare,
    div_omega,
    from_int,
    kind,
    omega_pow,
)
from infsurf.dsl import MAX_DEPTH, parse_ordinal
from oracles import (
    chain,
    cnf_compare,
    div_omega_vector,
    from_vector,
    fundamental_sequence,
    max_of,
    random_ordinal,
    random_ordinal_text,
    to_vector,
)

W2 = omega_pow(from_int(2))
W_OMEGA = omega_pow(OMEGA)


def test_rejects_bad_terms():
    with pytest.raises(ValueError):
        Ordinal([(ZERO, 0)])
    with pytest.raises(ValueError):
        Ordinal([(ZERO, 1), (ONE, 1)])  # exponents must decrease


@pytest.mark.parametrize(
    "a, b, expected",
    [
        (OMEGA, OMEGA, 0),
        (add(OMEGA, ONE), omega_pow(ONE, 2), -1),
        (W_OMEGA, add(omega_pow(from_int(3), 5), OMEGA), 1),
    ],
)
def test_compare_examples(a, b, expected):
    assert compare(a, b) == expected


@pytest.mark.parametrize(
    "a, b, expected",
    [
        (add(OMEGA, ONE), ZERO, add(OMEGA, ONE)),
        (ONE, OMEGA, OMEGA),
        (add(W2, OMEGA), omega_pow(from_int(2), 2), omega_pow(from_int(2), 3)),
    ],
)
def test_add_examples(a, b, expected):
    assert add(a, b) == expected


@pytest.mark.parametrize(
    "a, expected",
    [
        (ZERO, Kind.ZERO),
        (add(W2, from_int(3)), Kind.SUCCESSOR),
        (W_OMEGA, Kind.LIMIT),
    ],
)
def test_kind_examples(a, expected):
    assert kind(a) is expected


@pytest.mark.parametrize(
    "a, expected",
    [
        (omega_pow(from_int(2), 3), omega_pow(ONE, 3)),
        (OMEGA, ONE),
        (W_OMEGA, W_OMEGA),
    ],
)
def test_div_omega_examples(a, expected):
    assert div_omega(a) == expected


def test_div_omega_keeps_infinite_exponents():
    # w * w^(w+1) = w^(w+1): dividing by w only lowers finite exponents
    a = omega_pow(add(OMEGA, ONE), 2)
    assert div_omega(a) == a
    mixed = add(omega_pow(add(OMEGA, ONE)), add(W2, from_int(7)))
    assert div_omega(mixed) == add(omega_pow(add(OMEGA, ONE)), OMEGA)


@pytest.mark.parametrize(
    "values, expected",
    [
        ([OMEGA, from_int(3), OMEGA], (OMEGA, 2)),
        ([W2], (W2, 1)),
        ([ONE, from_int(2), omega_pow(OMEGA, 2)], (omega_pow(OMEGA, 2), 1)),
    ],
)
def test_max_of_examples(values, expected):
    assert max_of(values) == expected


def test_max_of_rejects_empty():
    with pytest.raises(ValueError):
        max_of([])


def test_compare_is_a_total_order():
    rng = random.Random(7)
    pool = [random_ordinal(rng) for _ in range(60)]
    for _ in range(400):
        a, b, c = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        assert compare(a, b) == -compare(b, a)
        if compare(a, b) <= 0 and compare(b, c) <= 0:
            assert compare(a, c) <= 0
        if compare(a, b) == 0:
            assert a == b


def test_add_properties():
    rng = random.Random(11)
    for _ in range(300):
        a = random_ordinal(rng)
        b = random_ordinal(rng)
        c = random_ordinal(rng)
        assert add(add(a, b), c) == add(a, add(b, c))
        assert add(a, ZERO) == a
        assert add(ZERO, a) == a
        if compare(b, c) < 0:
            assert compare(add(a, b), add(a, c)) < 0
        assert kind(add(a, ONE)) is Kind.SUCCESSOR


def test_lower_powers_are_absorbed():
    rng = random.Random(13)
    for _ in range(200):
        alpha = random_ordinal(rng, max_exp=2, allow_zero=False)
        beta = random_ordinal(rng, max_exp=2)
        if compare(beta, alpha) < 0:
            assert add(omega_pow(beta), omega_pow(alpha)) == omega_pow(alpha)


def test_div_omega_matches_vector_oracle():
    # 500 random ordinals below w^4, checked against the dense-vector shift
    rng = random.Random(17)
    for _ in range(500):
        vec = [rng.randint(0, 9) for _ in range(4)]
        o = from_vector(vec)
        assert to_vector(div_omega(o), 4) == div_omega_vector(vec)


def test_print_parse_roundtrip_canonical_form():
    assert str(ZERO) == "0"
    assert str(add(omega_pow(add(omega_pow(ONE, 2), ONE), 3), add(OMEGA, from_int(5)))) == "w^(w*2+1)*3 + w + 5"
    assert str(omega_pow(OMEGA, 2)) == "w^w*2"


def test_fundamental_sequence_approaches_its_limit():
    rng = random.Random(19)
    for _ in range(100):
        lam = None
        while lam is None or kind(lam) is not Kind.LIMIT:
            lam = random_ordinal(rng, max_exp=3, allow_zero=False)
        prev = ZERO
        for i in range(6):
            step = fundamental_sequence(lam, i)
            assert compare(step, lam) < 0
            if i:
                assert compare(prev, step) <= 0
            prev = step
        # the sequence eventually passes any fixed earlier entry
        assert compare(fundamental_sequence(lam, 40), fundamental_sequence(lam, 2)) > 0


def _checked(o: Ordinal) -> Ordinal:
    """`o` rebuilt through Ordinal(terms) at every level of its exponents."""
    return Ordinal([(_checked(e), c) for e, c in o.terms])


def test_arithmetic_results_pass_the_checked_constructor():
    # the parser, add and div_omega build Cantor normal form with _cnf,
    # without the checks of Ordinal(...); rebuilding each parsed ordinal and
    # each result through Ordinal(...) at every level must accept it and
    # give an equal, equally hashing value
    rng = random.Random(23)
    # naturals past the parser's small table or with leading zeros, and a zero coefficient
    edges = {"00": "0", "007": "7", "w^00": "1", "w*0 + 3": "3", "1234567890123": "1234567890123"}
    assert {t: str(parse_ordinal(t)) for t in edges} == edges
    pool = [parse_ordinal(t) for t in [*(random_ordinal_text(rng) for _ in range(150)), *edges]]
    pool += [random_ordinal(rng) for _ in range(50)] + [ZERO, ONE, OMEGA, W2, W_OMEGA]
    results = []
    for _ in range(1500):
        a, b = rng.choice(pool), rng.choice(pool)
        results += [add(a, b), omega_pow(a, rng.randint(0, 5)), div_omega(a), from_int(rng.randint(0, 200))]
    assert sum(not r.is_finite() for r in results) > 1000
    for r in pool + results:
        checked = _checked(r)
        assert checked == r and hash(checked) == hash(r)
        assert str(r) == str(checked)


@pytest.mark.parametrize(
    "terms, error",
    [
        ([(ZERO, 0)], ValueError),
        ([(ZERO, -2)], ValueError),
        ([(ZERO, True)], ValueError),
        ([(ZERO, 1.5)], ValueError),
        ([(1, 1)], TypeError),
        ([(ONE, 1), (OMEGA, 1)], ValueError),
        ([(ONE, 1), (ONE, 2)], ValueError),
    ],
)
def test_checked_constructor_still_rejects_bad_terms(terms, error):
    with pytest.raises(error):
        Ordinal(terms)


@pytest.mark.parametrize("coeff", [-1, True, 1.5, "2"])
def test_omega_pow_rejects_a_bad_coefficient(coeff):
    # omega_pow leaves the checks to Ordinal(terms): same type, same message
    for exp, error, message in [
        (ONE, ValueError, f"coefficient must be a positive integer, got {coeff!r}"),
        (2, TypeError, "exponent must be an Ordinal, got int"),
    ]:
        for build in (omega_pow, lambda e, c: Ordinal([(e, c)])):
            with pytest.raises(error) as info:
                build(exp, coeff)
            assert type(info.value) is error and str(info.value) == message


NESTED_TEXTS = ["w^(w^w+1)*2", "w^(w^w+1)*2 + w^(w^w)", "w^(w^w)*3", "w^(w^(w+1))", "w^(w^w+1) + 5", "w^(w*2+1)*3 + w + 5"]


def _ordinal_pool(rng):
    """Random ordinals with nested exponents, each text parsed twice so that
    equal ordinals also meet as distinct objects."""
    texts = NESTED_TEXTS + [random_ordinal_text(rng, depth=3) for _ in range(120)]
    pool = [parse_ordinal(t) for t in texts for _ in range(2)]
    pool += [random_ordinal(rng) for _ in range(40)] + [ZERO, ONE, OMEGA, W2, W_OMEGA]
    assert sum(any(not e.is_finite() for e, _ in o.terms) for o in pool) > 40
    return pool


def test_tuple_order_matches_the_term_walk():
    rng = random.Random(41)
    pool = _ordinal_pool(rng)
    outcomes = set()
    for _ in range(2500):
        a, b = rng.choice(pool), rng.choice(pool)
        want = cnf_compare(a, b)
        outcomes.add(want)
        assert compare(a, b) == want, (a, b)
        assert (a < b) is (want < 0) and (a <= b) is (want <= 0), (a, b)
        assert (a > b) is (want > 0) and (a >= b) is (want >= 0), (a, b)
        assert (a == b) is (want == 0) and (a != b) is (want != 0), (a, b)
        if want == 0:
            assert hash(a) == hash(b)
    assert outcomes == {-1, 0, 1}
    assert sorted(pool) == sorted(pool, key=cmp_to_key(cnf_compare))
    assert sorted(pool, reverse=True) == sorted(pool, key=cmp_to_key(cnf_compare), reverse=True)
    assert len(set(pool)) == len({str(o) for o in pool})


def test_tuple_order_matches_the_vector_oracle_below_w4():
    rng = random.Random(43)
    for _ in range(1000):
        u, v = [rng.randint(0, 3) for _ in range(4)], [rng.randint(0, 3) for _ in range(4)]
        a, b = from_vector(u), from_vector(v)
        want = (u > v) - (u < v)
        assert compare(a, b) == want and (a < b) is (u < v) and (a == b) is (u == v), (u, v)


def test_an_ordinal_is_the_tuple_of_its_terms():
    o = parse_ordinal("w^(w^w+1)*2 + w + 3")
    assert o == tuple(o.terms) and hash(o) == hash(tuple(o.terms))
    assert o.terms is o and len(o) == 3 and not ZERO
    # + is ordinal addition, not concatenation
    assert ONE + ONE == from_int(2)
    assert OMEGA + ONE == add(OMEGA, ONE) and ONE + OMEGA == OMEGA


@pytest.mark.parametrize("op", [lambda: ONE * 2, lambda: 2 * ONE, lambda: OMEGA * OMEGA, lambda: ONE + (1,)])
def test_tuple_repetition_and_concatenation_are_refused(op):
    with pytest.raises(TypeError):
        op()


@pytest.mark.parametrize("text", ["0", "5", "w^(w^w+1)*2 + w^w + 1"])
def test_copy_and_pickle_keep_an_ordinal(text):
    o = parse_ordinal(text)
    for twin in (copy.copy(o), copy.deepcopy(o), pickle.loads(pickle.dumps(o))):
        assert type(twin) is Ordinal and twin == o and hash(twin) == hash(o) and str(twin) == str(o)
        assert all(type(e) is Ordinal for e, _ in twin.terms)


def nesting(o: Ordinal) -> int:
    """Levels of exponents, by recursion: 0 has none, a natural one."""
    return max((1 + nesting(e) for e, _ in o), default=0)


def test_the_nesting_budget_admits_every_parsed_ordinal():
    # the deepest ordinal the parser builds: a w^w inside MAX_DEPTH open w^(
    deepest = parse_ordinal("w^(" * MAX_DEPTH + "w^w" + ")" * MAX_DEPTH)
    assert nesting(deepest) == MAX_DEPTH + 3 <= MAX_NESTING
    assert Ordinal(deepest) == deepest and omega_pow(deepest, 2) > deepest


def test_at_the_nesting_bound_an_ordinal_prints_hashes_and_compares():
    a, b, twin = chain(MAX_NESTING), chain(MAX_NESTING, 2), chain(MAX_NESTING)
    assert nesting(a) == nesting(b) == MAX_NESTING
    assert a is not twin and a == twin and hash(a) == hash(twin) and str(a) == str(twin)
    assert copy.deepcopy(a) is a and copy.copy(a) is a
    # they differ only at the innermost level
    assert a < b and not b < a and a != b and compare(b, a) == 1
    assert str(b).endswith("w^2" + ")" * (MAX_NESTING - 2))
    for build in (lambda: omega_pow(a), lambda: Ordinal([(b, 1)]), lambda: omega_pow(a) + ONE):
        with pytest.raises(ValueError, match=f"deeper than {MAX_NESTING} levels"):
            build()


def test_an_ordinal_nested_100000_deep_is_refused_cleanly():
    # hashing such an ordinal once crashed the interpreter: CPython's tuple
    # hash has no recursion guard
    script = """
from infsurf.ordinal import ZERO, omega_pow
e = ZERO
try:
    for n in range(10**5):
        e = omega_pow(e)
except ValueError as err:
    print(n, err)
print(hash(e) != hash(omega_pow(ZERO)), len(str(e)))
"""
    env = dict(os.environ, PYTHONPATH=str(Path(infsurf.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == [
        f"{MAX_NESTING} ordinal nested deeper than {MAX_NESTING} levels of exponents",
        f"True {len(str(chain(MAX_NESTING)))}",
    ]
