"""Independent oracles for the benchmark: none of this imports infsurf.

Ordinals below w^w are tuples of (exponent, coefficient) pairs with integer
exponents in strictly decreasing order.  Group orders, moduli and series
coefficients come from closed forms or brute-force enumeration, Smith
normal forms are checked by exact matrix products and determinants, and
verdicts are checked against the rules of docs/verdict-schema.md.
"""

from __future__ import annotations

from math import comb

# -- ordinals below w^w -------------------------------------------------------


def ord_str(terms) -> str:
    """Print an ordinal the way infsurf prints its normal form."""
    if not terms:
        return "0"
    parts = []
    for e, c in terms:
        if e == 0:
            parts.append(str(c))
            continue
        head = "w" if e == 1 else f"w^{e}"
        parts.append(head if c == 1 else f"{head}*{c}")
    return " + ".join(parts)


def ord_cmp(a, b) -> int:
    for (ea, ca), (eb, cb) in zip(a, b):
        if ea != eb:
            return -1 if ea < eb else 1
        if ca != cb:
            return -1 if ca < cb else 1
    return (len(a) > len(b)) - (len(a) < len(b))


def ord_add(a, b):
    """Cantor-normal-form sum: terms of a below b's leading exponent vanish."""
    if not b:
        return tuple(a)
    lead, coeff = b[0]
    kept = [(e, c) for e, c in a if e > lead]
    same = sum(c for e, c in a if e == lead)
    return (*kept, (lead, coeff + same), *b[1:])


def ord_is_finite(terms) -> bool:
    return not terms or (len(terms) == 1 and terms[0][0] == 0)


# -- witness arithmetic -------------------------------------------------------


def k_closed(n: int) -> int:
    """k with Z/2k the target of the distinguished-end witness for n ends."""
    return n - 1 if n % 2 == 0 else (n - 1) // 2


def spherical_braid_h1(n: int) -> str:
    """H1 of the spherical braid group on n strands is Z/(2n-2)."""
    return f"Z/{2 * n - 2}"


PRESET_H1 = {"braid": lambda n: "Z", "symmetric": lambda n: "Z/2", "spherical_braid": spherical_braid_h1}
SL2Z_H1 = "Z/12"
# second homology of closed-surface mapping class groups (Harer; Korkmaz-Stipsicz)
H2_CLOSED = {2: "Z/2", 3: "Z + Z/2"}


def partitions_bounded(d: int, p: int) -> int:
    """Number of partitions of d into parts of size at most p, by enumeration."""

    def count(rest: int, largest: int) -> int:
        if rest == 0:
            return 1
        return sum(count(rest - part, part) for part in range(min(rest, largest), 0, -1))

    return count(d, p)


def wreath_series(p: int, max_degree: int) -> list[int]:
    return [0 if deg % 2 else partitions_bounded(deg // 2, p) for deg in range(max_degree + 1)]


def torus_series(p: int, max_degree: int) -> list[int]:
    return [0 if deg % 2 else comb(deg // 2 + p - 1, p - 1) for deg in range(max_degree + 1)]


# -- integer matrices ---------------------------------------------------------


def matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def determinant(rows) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else 1


def check_snf(a, diagonal, left, right) -> list[str]:
    """Problems with a claimed Smith normal form left @ a @ right = diag."""
    rows, cols = len(a), len(a[0]) if a else 0
    diag = list(diagonal)
    if len(diag) != min(rows, cols):
        return [f"diagonal has {len(diag)} entries for a {rows}x{cols} matrix"]
    problems = []
    if any(x < 0 for x in diag):
        problems.append("negative diagonal entry")
    for x, y in zip(diag, diag[1:]):
        if (x == 0 and y != 0) or (x and y % x):
            problems.append(f"divisibility chain broken at {x}, {y}")
            break
    product = matmul(matmul(left, a), right)
    want = [[diag[i] if i == j else 0 for j in range(cols)] for i in range(rows)]
    if product != want:
        problems.append("left @ a @ right is not the claimed diagonal")
    det_a = determinant(a) if rows == cols else 0
    if det_a:
        # det(left) det(a) det(right) = prod(diag) with integer determinants,
        # so |prod(diag)| = |det(a)| forces both transforms to be unimodular
        prod = 1
        for x in diag:
            prod *= x
        if abs(prod) != abs(det_a):
            problems.append("transforms are not unimodular")
    elif abs(determinant(left)) != 1 or abs(determinant(right)) != 1:
        problems.append("transforms are not unimodular")
    return problems


# -- the snake enumeration ----------------------------------------------------


def check_snake(points, count: int) -> list[str]:
    """A unit-step, non-repeating walk on Z x N from the origin whose first
    (2r+1)(r+1) cells are exactly the sup-norm ball of radius r."""
    if len(points) != count:
        return [f"{len(points)} cells, expected {count}"]
    if tuple(points[0]) != (0, 0):
        return ["does not start at the origin"]
    radius = 0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if abs(x1 - x0) + abs(y1 - y0) != 1:
            return [f"non-adjacent step {(x0, y0)} -> {(x1, y1)}"]
        if y1 < 0:
            return [f"cell {(x1, y1)} leaves the half-plane"]
        r = max(abs(x1), y1)
        if r < radius:
            return [f"cell {(x1, y1)} re-enters a filled ball"]
        radius = r
    if len({tuple(p) for p in points}) != count:
        return ["revisits a cell"]
    r = 0
    while (2 * r + 1) * (r + 1) < count:
        last = points[(2 * r + 1) * (r + 1) - 1]
        if max(abs(last[0]), last[1]) != r:
            return [f"ball of radius {r} not filled in order"]
        r += 1
    return []


# -- verdicts -----------------------------------------------------------------

EXPECTED_ANSWER = {
    "yes": ("yes", "integral"),
    "no_field": ("no", "any_field"),
    "no_any": ("no", "any_coefficients"),
    "unknown": ("unknown", None),
}
QUESTIONS = ("qI", "qII", "qIII")
WITNESS_DEGREE = 20


def check_witness(w) -> list[str]:
    """Recompute a witness payload from closed forms and enumeration."""
    comp = w.get("computation") or {}
    kind = comp.get("kind")
    if kind == "distinguished_square":
        n = comp.get("n")
        if not isinstance(n, int) or n < 4:
            return [f"distinguished witness with n={n!r}"]
        k = k_closed(n)
        want = {
            "k": k,
            "modulus": 2 * k,
            "element": 2,
            "element_nonzero": True,
            "square_commutes": True,
            "full_twist_residue": 0,
            "spherical_braid_abelianization": spherical_braid_h1(n),
        }
        return [f"{key}={comp.get(key)!r}, expected {v!r}" for key, v in want.items() if comp.get(key) != v]
    if kind == "even_degree_summands":
        p = comp.get("punctures")
        want = wreath_series(p, WITNESS_DEGREE) if isinstance(p, int) and p >= 1 else None
        if comp.get("series_coefficients") != want:
            return [f"wreath series for p={p!r} differs from partition counts"]
        return []
    if kind == "braid_sign":
        if comp.get("h1_braid") != "Z" or comp.get("h1_symmetric") != "Z/2":
            return ["braid sign groups wrong"]
        return []
    if kind == "abelianization":
        return [] if comp.get("group") == SL2Z_H1 else [f"sl2z abelianization {comp.get('group')!r}"]
    if kind == "h2_lookup":
        g = comp.get("genus")
        want = H2_CLOSED.get(g, "Z") if isinstance(g, int) and g >= 2 else None
        return [] if comp.get("group") == want else [f"H2 of genus {g!r} is {comp.get('group')!r}"]
    return [f"unknown witness kind {kind!r}"]


def check_verdict(v) -> list[str]:
    """Schema rules: answer shapes, the chain I => II => III, checked witnesses."""
    if not isinstance(v, dict) or "error" in v or not all(q in v for q in QUESTIONS):
        return [f"not a verdict: {str(v)[:120]}"]
    problems = []
    results = []
    for q in QUESTIONS:
        a = v[q]
        ans, coeff, wit = a.get("answer"), a.get("coefficients"), a.get("witness")
        results.append(ans)
        if not a.get("citation"):
            problems.append(f"{q} has no citation")
        if ans == "yes":
            if coeff != "integral" or not wit:
                problems.append(f"{q} yes without integral coefficients and a witness")
            else:
                problems.extend(f"{q} witness: {p}" for p in check_witness(wit))
        elif ans == "no":
            if coeff not in ("any_field", "any_coefficients") or wit:
                problems.append(f"{q} no with coefficients {coeff!r}")
        elif ans == "unknown":
            if coeff is not None or wit is not None:
                problems.append(f"{q} unknown is not bare")
        else:
            problems.append(f"{q} answer {ans!r}")
    if (results[0] == "yes" and results[1] != "yes") or (results[1] == "yes" and results[2] != "yes"):
        problems.append(f"implication chain broken: {results}")
    return problems


def answers(v) -> tuple:
    """The verdict proper: answer, coefficient scope and citation per question."""
    return tuple((v[q].get("answer"), v[q].get("coefficients"), v[q].get("citation")) for q in QUESTIONS)


def check_expected(v, expected) -> list[str]:
    got = tuple((v[q].get("answer"), v[q].get("coefficients")) for q in QUESTIONS)
    want = tuple(EXPECTED_ANSWER[e] for e in expected)
    return [] if got == want else [f"verdict {got}, expected {want}"]
