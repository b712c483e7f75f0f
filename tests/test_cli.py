import hashlib
import json
import math
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import infsurf
from infsurf.catalog import CATALOG
from infsurf.cli import LINE_CACHE_SIZE, VERDICT_CACHE_SIZE, main
from infsurf.dsl import MAX_CHARS, MAX_DEPTH, MAX_DIGITS, ParseError, parse_endspace, parse_surface
from infsurf.constructions import MAX_SNAKE_CELLS
from infsurf.decide import CITATIONS, MAX_WITNESS_ENDS
from infsurf.homology import (
    MAX_GENERATORS,
    MAX_SERIES_DEGREE,
    MAX_SNF_DIM,
    MAX_SNF_ENTRIES,
    WREATH_QUOTIENT,
    IntegerMatrix,
    _snf_entry_digits,
    poincare_series,
)
from oracles import huge_natural_texts, matmul, mutate_text, random_endspace_text, random_surface_text


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_ord_eval(capsys):
    code, out, _ = run(capsys, "ord", "eval", "1 + w")
    assert code == 0 and out.strip() == "w"


def test_ord_compare_json(capsys):
    code, out, _ = run(capsys, "ord", "compare", "w+1", "w*2", "--json")
    assert code == 0
    assert json.loads(out) == {"result": "less"}


def test_ends_normalize(capsys):
    code, out, _ = run(capsys, "ends", "normalize", "U(I(w^2), I(w))", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "canonical"
    assert payload["expr"] == "I(w^2)"


@pytest.mark.parametrize(
    "flag, expected",
    [
        ((), "irreducible: seq1pc(U(cantor, pt))\n"),
        (("--json",), '{"expr": "seq1pc(U(cantor, pt))", "status": "irreducible"}\n'),
    ],
)
def test_ends_normalize_irreducible(capsys, flag, expected):
    code, out, err = run(capsys, "ends", "normalize", "seq1pc(U(cantor,pt))", *flag)
    assert (code, out, err) == (0, expected, "")


def test_ends_homeo(capsys):
    code, out, _ = run(capsys, "ends", "homeo", "I(w)", "U(I(w), pt)")
    assert code == 0 and out.strip() == "Yes"


def test_ends_invariants(capsys):
    code, out, _ = run(capsys, "ends", "invariants", "U(cantor, pt, pt)", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["isolated_count"] == 2
    assert payload["has_kernel"] is True
    assert payload["td_max"] == {"value": 2, "exact": True}


# two intervals of 10^1000 points each: the normal form writes their union as
# [0, 2 * 10^1000 - 1], a natural of MAX_DIGITS + 1 digits that the parser refuses
_NINES = "9" * MAX_DIGITS
_OVERLONG = f"seq1pc(U(cantor, I({_NINES}), I({_NINES})))"
_OVERLONG_NF = f"seq1pc(U(cantor, I(1{_NINES})))"


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("ends", "normalize", _OVERLONG), f"irreducible: {_OVERLONG_NF}\n"),
        (("ends", "normalize", _OVERLONG, "--json"), f'{{"expr": "{_OVERLONG_NF}", "status": "irreducible"}}\n'),
        (
            ("ends", "invariants", _OVERLONG, "--json"),
            '{"countable": false, "has_kernel": true, "isolated_count": "infinity", "scattered_rank": null, '
            '"td_max": {"exact": false, "value": 1}}\n',
        ),
        (("ends", "homeo", _OVERLONG, f"seq1pc(U(I({_NINES}), cantor, I({_NINES})))"), "Yes\n"),
    ],
)
def test_normal_forms_write_naturals_the_parser_refuses(capsys, argv, expected):
    assert run(capsys, *argv) == (0, expected, "")
    with pytest.raises(ParseError, match="natural too long"):
        parse_endspace(_OVERLONG_NF)


def test_decide_writes_naturals_the_parser_refuses(tmp_path, capsys):
    text = f"surface(genus=0, boundary=0, ends=U({_OVERLONG}, pt))"
    ends = f"U(pt, {_OVERLONG_NF})"
    open_answer = {"answer": "unknown", "citation": "genus-zero-infinite-punctures-open", "witness": None}
    derived = {
        "end_space": f"{ends} (irreducible: {ends})",
        "genus": 0,
        "genus_class": "zero",
        "mixed_end": False,
        "notes": ["indeterminate invariant: only a lower bound for the distinguished set is certified"],
        "punctures": "infinity",
        "td_max": {"exact": False, "value": 1},
    }
    expected = json.dumps({"derived": derived, "qI": open_answer, "qII": open_answer, "qIII": open_answer}) + "\n"
    assert run(capsys, "decide", "--json", text) == (0, expected, "")
    f = tmp_path / "batch.txt"
    f.write_text(text + "\n", encoding="utf-8")
    assert run(capsys, "decide", "--jsonl", str(f)) == (0, expected, "")


def test_decide_loch_ness(capsys):
    code, out, _ = run(capsys, "decide", "surface(genus=inf, boundary=0, ends=pt!np)", "--json")
    assert code == 0
    payload = json.loads(out)
    assert [payload[q]["answer"] for q in ("qI", "qII", "qIII")] == ["no", "no", "no"]
    assert payload["qI"]["coefficients"] == "any_field"
    assert payload["derived"]["punctures"] == 0


def test_decide_rejects_boundary(capsys):
    code, _, err = run(capsys, "decide", "surface(genus=0, boundary=1, ends=cantor)")
    assert code == 3
    assert "boundary" in err


def test_decide_unknown_exits_zero(capsys):
    code, out, _ = run(capsys, "decide", "surface(genus=0, boundary=0, ends=U(I(w^2), I(w^2)))")
    assert code == 0
    assert "?" in out


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "ord", "eval", "w^^2")
    assert code == 2
    assert "offset" in err or "expected" in err


def test_validation_error_exit_code(capsys):
    code, _, _ = run(capsys, "surface", "validate", "surface(genus=0, boundary=0, ends=pt!np)")
    assert code == 3


def test_surface_validate_ok(capsys):
    code, out, _ = run(capsys, "surface", "validate", "surface(genus=inf, boundary=0, ends=pt!np)")
    assert code == 0 and out.strip() == "ok"


def test_surface_homeo(capsys):
    code, out, _ = run(
        capsys,
        "surface",
        "homeo",
        "surface(genus=0, boundary=0, ends=seq1pc(pt))",
        "surface(genus=0, boundary=0, ends=I(w))",
    )
    assert code == 0 and out.strip() == "Yes"


def test_hom_snf(capsys):
    code, out, _ = run(capsys, "hom", "snf", "[[2,4],[6,8]]", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["diagonal"] == [2, 4]
    assert run(capsys, "hom", "snf", "[[2,4],[6,8]]") == (0, "diagonal: 2 4\n", "")


def test_hom_snf_64x64_json(capsys):
    rng = random.Random(64)
    rows = [[rng.randint(-9, 9) for _ in range(64)] for _ in range(64)]
    code, out, _ = run(capsys, "hom", "snf", json.dumps(rows), "--json")
    assert code == 0
    payload = json.loads(out)
    diag = payload["diagonal"]
    left, right = IntegerMatrix.from_rows(payload["left"]), IntegerMatrix.from_rows(payload["right"])
    product = matmul(matmul(left, IntegerMatrix.from_rows(rows)), right)
    assert product == IntegerMatrix.from_rows([[diag[i] if i == j else 0 for j in range(64)] for i in range(64)])


def test_hom_snf_bad_json(capsys):
    code, _, _ = run(capsys, "hom", "snf", "[[2,4],[6,8")
    assert code == 2


@pytest.mark.parametrize(
    "matrix", ["[[1.5,2.7]]", "[[true,2]]", "[[1,2],[3,null]]", "[1,2]", pytest.param("[" * 20000, id="nested-20000")]
)
def test_hom_snf_rejects_non_integer_entries(capsys, matrix):
    # int() would truncate 1.5 to 1 and read true as 1: a silently wrong
    # answer; json.loads raises RecursionError on nesting 20 000 deep
    code, out, err = run(capsys, "hom", "snf", matrix)
    assert code == 2
    assert out == "" and "error (parse)" in err


def test_hom_abelianize_preset(capsys):
    code, out, _ = run(capsys, "hom", "abelianize", "--preset", "sl2z", "--json")
    assert code == 0
    assert json.loads(out)["group"] == "Z/12"


def test_hom_abelianize_text_presentation(capsys):
    code, out, _ = run(capsys, "hom", "abelianize", "gens=2; rel=1 2 1 -2 -1 -2")
    assert code == 0 and out.strip() == "Z"


def test_hom_abelianize_skips_empty_chunks(capsys):
    code, out, err = run(capsys, "hom", "abelianize", "gens=2;; rel=1 1;")
    assert (code, out, err) == (0, "Z + Z/2\n", "")


@pytest.mark.parametrize(
    "text", ["gens=x; rel=1", "gens=2; rel=1 a", "gens=; rel=1", "gens=1_0", "gens=٣; rel=1", "gens=2; rel=+1"]
)
def test_hom_abelianize_bad_integer_is_a_parse_error(capsys, text):
    code, _, err = run(capsys, "hom", "abelianize", text)
    assert code == 2
    assert "error (parse)" in err


@pytest.mark.parametrize(
    "text, error",
    [
        (
            "gens=2; foo=1",
            {
                "expected": ["'gens='", "'rel='"],
                "kind": "parse",
                "message": "bad presentation chunk 'foo=1' at offset 8 (expected 'gens=', 'rel=')",
                "offset": 8,
            },
        ),
        (
            "rel=1 2",
            {
                "expected": ["'gens='"],
                "kind": "parse",
                "message": "presentation needs a generator count at offset 0 (expected 'gens=')",
                "offset": 0,
            },
        ),
        # each chunk is found where it starts, not where its text first occurs
        (
            "gens=12; s=1",
            {
                "expected": ["'gens='", "'rel='"],
                "kind": "parse",
                "message": "bad presentation chunk 's=1' at offset 9 (expected 'gens=', 'rel=')",
                "offset": 9,
            },
        ),
        (
            "gens=2; rel=1 2; el=1",
            {
                "expected": ["'gens='", "'rel='"],
                "kind": "parse",
                "message": "bad presentation chunk 'el=1' at offset 17 (expected 'gens=', 'rel=')",
                "offset": 17,
            },
        ),
    ],
)
def test_hom_abelianize_malformed_presentation(capsys, text, error):
    code, out, err = run(capsys, "hom", "abelianize", text)
    assert (code, out) == (2, "")
    assert err == f"error (parse): {error['message']}\n"
    code, out, _ = run(capsys, "hom", "abelianize", text, "--json")
    assert code == 2 and json.loads(out) == {"error": error}


def test_hom_abelianize_needs_a_preset_or_a_presentation(capsys):
    code, out, err = run(capsys, "hom", "abelianize")
    assert (code, out, err) == (3, "", "error (BadParameter): give either --preset or a presentation\n")
    code, out, _ = run(capsys, "hom", "abelianize", "--json")
    assert code == 3
    assert json.loads(out) == {"error": {"kind": "BadParameter", "message": "give either --preset or a presentation"}}
    # an argument the call would not read is refused, not dropped
    code, out, err = run(capsys, "hom", "abelianize", "gens=1; rel=1 1", "--preset", "braid", "-n", "3")
    assert (code, out, err) == (3, "", "error (BadParameter): give either --preset or a presentation\n")
    code, out, err = run(capsys, "hom", "abelianize", "gens=1; rel=1 1", "-n", "3")
    assert (code, out, err) == (3, "", "error (BadParameter): a presentation takes no parameter\n")


def test_decide_needs_a_descriptor_or_a_batch_file(capsys):
    # with both, one of them would be dropped
    both = ["decide", "surface(genus=0, boundary=0, ends=U(cantor, pt))", "--jsonl", str(GOLDEN / "golden_batch.txt")]
    for argv in (["decide"], both):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: infsurf")
        assert err.endswith("error: decide needs a descriptor or --jsonl FILE\n")


def test_hom_poincare(capsys):
    code, out, _ = run(capsys, "hom", "poincare", "torus", "1", "6", "--json")
    assert code == 0
    assert json.loads(out)["coefficients"] == [1, 0, 1, 0, 1, 0, 1]


def test_construct_snake(capsys):
    code, out, _ = run(capsys, "construct", "snake", "3")
    assert code == 0
    assert out.splitlines() == ["0 0", "1 0", "1 1"]


def test_construct_snake_json(capsys):
    code, out, _ = run(capsys, "construct", "snake", "2", "--json")
    assert code == 0
    assert json.loads(out) == [[0, 0], [1, 0]]


def test_citations_listing(capsys):
    code, out, _ = run(capsys, "citations", "--json")
    assert code == 0
    payload = json.loads(out)
    assert "finite-genus-nonvanishing" in payload


def test_batch_mode(tmp_path, capsys):
    lines = [
        "surface(genus=inf, boundary=0, ends=pt!np)",
        "surface(genus=0, boundary=1, ends=cantor)",
        "not a descriptor",
        "surface(genus=1, boundary=0, ends=I(w))",
    ]
    f = tmp_path / "batch.jsonl"
    f.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, _ = run(capsys, "decide", "--jsonl", str(f))
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == len(lines)
    assert rows[0]["qI"]["answer"] == "no"
    assert rows[1]["error"]["kind"] == "HasBoundary"
    assert rows[2]["error"]["kind"] == "parse"
    assert rows[3]["qI"]["answer"] == "yes"



def test_batch_mode_non_ascii_digit_is_a_parse_error_line(tmp_path, capsys):
    # str.isdigit accepts the superscript two but int() does not; this line
    # used to end the whole batch with exit 3
    f = tmp_path / "batch.jsonl"
    f.write_text(
        "surface(genus=\u00b2, boundary=0, ends=cantor)\nsurface(genus=1, boundary=0, ends=I(w))\n", encoding="utf-8"
    )
    code, out, err = run(capsys, "decide", "--jsonl", str(f))
    assert code == 0 and err == ""
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 2
    assert rows[0] == {"error": {"kind": "parse", "offset": 14, "message": "unexpected input"}}
    assert rows[1]["qI"]["answer"] == "yes"
    code, _, err = run(capsys, "decide", "surface(genus=1, boundary=0, ends=I(\u0663))")
    assert code == 2 and err.startswith("error (parse)")


def test_batch_mode_too_deep_line_is_a_parse_error_line(tmp_path, capsys):
    deep = "seq1pc(" * 1300 + "pt" + ")" * 1300
    f = tmp_path / "batch.jsonl"
    f.write_text(f"surface(genus=0, boundary=0, ends={deep})\nsurface(genus=1, boundary=0, ends=I(w))\n", encoding="utf-8")
    code, out, err = run(capsys, "decide", "--jsonl", str(f))
    assert code == 0 and err == ""
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 2
    assert rows[0]["error"]["kind"] == "parse" and rows[0]["error"]["message"] == "nesting too deep"
    assert rows[1]["qI"]["answer"] == "yes"


def test_batch_mode_too_long_natural_is_a_parse_error_line(tmp_path, capsys):
    # past Python's 4 300-digit int() limit this line used to end the batch
    # with exit 3 and no output at all
    long_line = f"surface(genus={'1' * 5000}, boundary=0, ends=cantor)"
    f = tmp_path / "batch.jsonl"
    f.write_text(f"{long_line}\nsurface(genus=1, boundary=0, ends=I(w))\n", encoding="utf-8")
    code, out, err = run(capsys, "decide", "--jsonl", str(f))
    assert code == 0 and err == ""
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 2
    assert rows[0] == {"error": {"kind": "parse", "offset": 14, "message": "natural too long"}}
    assert rows[1]["qI"]["answer"] == "yes"
    code, out, err = run(capsys, "decide", long_line)
    assert code == 2 and out == "" and err.startswith("error (parse): natural too long")


def test_batch_mode_over_budget_line_is_a_resource_limit_line(tmp_path, capsys):
    # its witness would abelianize a presentation on 1 999 generators; this
    # line used to end the batch in a MemoryError before the second line.
    # The error names the surface's count and its bound, not the presentation
    over = "surface(genus=0, boundary=0, ends=I(w^2*2000))"
    f = tmp_path / "batch.jsonl"
    f.write_text(f"{over}\nsurface(genus=1, boundary=0, ends=I(w))\n", encoding="utf-8")
    code, out, err = run(capsys, "decide", "--jsonl", str(f))
    assert code == 0 and err == ""
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 2
    message = f"the genus-0 witness covers at most {MAX_WITNESS_ENDS} distinguished ends, got 2000"
    assert rows[0] == {"error": {"kind": "ResourceLimit", "message": message}}
    assert rows[1]["qI"]["answer"] == "yes"
    code, out, err = run(capsys, "decide", over)
    assert (code, out, err) == (3, "", f"error (ResourceLimit): {message}\n")


@pytest.mark.parametrize(
    ("ends", "counted"),
    [("I(w^2*{n})", "distinguished ends"), ("U(cantor, I({m}))", "punctures")],
)
def test_witness_budget_names_the_count_and_its_bound(capsys, ends, counted):
    assert MAX_WITNESS_ENDS == MAX_GENERATORS + 1 == 129
    for n in (MAX_WITNESS_ENDS, MAX_WITNESS_ENDS + 1, 10**40):
        text = "surface(genus=0, boundary=0, ends=" + ends.format(n=n, m=n - 1) + ")"
        if n == MAX_WITNESS_ENDS:
            assert run(capsys, "decide", text)[0] == 0
            continue
        message = f"the genus-0 witness covers at most {MAX_WITNESS_ENDS} {counted}, got {n}"
        assert run(capsys, "decide", text) == (3, "", f"error (ResourceLimit): {message}\n")


@pytest.mark.parametrize(
    "ends",
    [
        "seq1pc(" * MAX_DEPTH + "pt" + ")" * MAX_DEPTH,
        "U(pt, " * MAX_DEPTH + "cantor" + ")" * MAX_DEPTH,
        "I(" + "w^(" * (MAX_DEPTH - 1) + "1" + ")" * MAX_DEPTH,
    ],
    ids=["seq1pc", "U", "w^("],
)
def test_commands_answer_at_the_nesting_budget(capsys, ends):
    descriptor = f"surface(genus=0, boundary=0, ends={ends})"
    for argv in (
        ("decide", descriptor),
        ("ends", "normalize", ends),
        ("ends", "invariants", ends),
        ("surface", "invariants", descriptor),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 0 and out and err == "", argv


def test_batch_mode_unreadable_file(tmp_path, capsys):
    code, out, err = run(capsys, "decide", "--jsonl", str(tmp_path / "missing.txt"))
    assert code == 3
    assert out == ""
    assert err.startswith("error (FileNotFoundError): cannot read batch file") and "Traceback" not in err
    code, out, _ = run(capsys, "decide", "--jsonl", str(tmp_path), "--json")
    assert code == 3
    assert json.loads(out)["error"]["kind"] == "IsADirectoryError"


def _run_capped(*argv):
    """`python -m infsurf ARGV` in a child with a 1 GiB address-space cap, so
    that a computation sized by a huge parameter fails fast instead of
    exhausting memory."""

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = dict(os.environ, PYTHONPATH=str(Path(infsurf.__file__).resolve().parent.parent))
    return subprocess.run(
        [sys.executable, "-m", "infsurf", *argv],
        capture_output=True, text=True, timeout=60, env=env, preexec_fn=cap_memory,
    )


def _dense_rows(m, n, digits=1):
    """An m x n matrix of seeded entries of at most `digits` digits."""
    rng = random.Random(m * n)
    top = 10**digits - 1
    return [[rng.randint(-top, top) for _ in range(n)] for _ in range(m)]


# the largest square matrix the Smith normal form budget allows
_SNF_SIDE = math.isqrt(MAX_SNF_ENTRIES)


def test_decide_huge_puncture_count_answers_at_once():
    proc = _run_capped("decide", "--json", "surface(genus=inf, boundary=0, ends=U(pt!np, I(100000000000)))")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["derived"]["punctures"] == 100000000001
    assert payload["qII"]["answer"] == "yes"
    coeffs = payload["qII"]["witness"]["computation"]["series_coefficients"]
    assert coeffs == list(poincare_series(WREATH_QUOTIENT, 10, 20))


def test_torus_poincare_huge_p_answers_at_once():
    proc = _run_capped("hom", "poincare", "torus", "100000000000", "20", "--json")
    assert proc.returncode == 0, proc.stderr
    coeffs = json.loads(proc.stdout)["coefficients"]
    p = 10**11
    assert coeffs[:5] == [1, 0, p, 0, p * (p + 1) // 2]
    assert coeffs[20] == math.comb(10 + p - 1, p - 1)
    assert all(c == 0 for c in coeffs[1::2])


@pytest.mark.parametrize(
    "argv",
    [
        ("hom", "poincare", "torus", "5", "10000000000"),
        ("hom", "poincare", "wreath", "5", "10000000000"),
        ("construct", "snake", "100000000000"),
        # the torus coefficients would pass Python's 4 300-digit print limit
        ("hom", "poincare", "torus", "100000000000", "2000"),
        ("hom", "poincare", "torus", "1" + "0" * 300, "2000"),
        # the witness for n distinguished ends abelianizes a presentation on
        # n - 1 generators
        ("decide", "surface(genus=0, boundary=0, ends=I(w^2*1000))"),
        ("decide", "surface(genus=0, boundary=0, ends=U(cantor, I(1000000000)))"),
        ("hom", "abelianize", "--preset", "spherical_braid", "-n", "2000"),
        ("hom", "abelianize", "--preset", "braid", "-n", str(MAX_GENERATORS + 2)),
        ("hom", "abelianize", "gens=1000000000; rel=1"),
        # the left transform alone would be 12 000 x 12 000
        ("hom", "snf", json.dumps([[1]] * 12000)),
        ("hom", "snf", json.dumps([[1] * (MAX_SNF_DIM + 1)])),
        ("hom", "snf", json.dumps(_dense_rows(_SNF_SIDE + 1, _SNF_SIDE))),
        # the transforms would print integers past Python's 4 300-digit limit
        ("hom", "snf", json.dumps(_dense_rows(16, 16, 400))),
        ("hom", "snf", json.dumps(_dense_rows(16, 16, _snf_entry_digits(16) + 1))),
        ("hom", "snf", json.dumps([[10 ** _snf_entry_digits(1)]])),
    ],
)
def test_oversized_parameters_are_resource_limits(argv):
    proc = _run_capped(*argv)
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error (ResourceLimit): ")
    proc = _run_capped(*argv, "--json")
    assert proc.returncode == 3, proc.stderr
    assert json.loads(proc.stdout)["error"]["kind"] == "ResourceLimit"


@pytest.mark.parametrize(
    "argv",
    [
        ("hom", "poincare", "wreath", str(MAX_SERIES_DEGREE), str(MAX_SERIES_DEGREE)),
        ("hom", "poincare", "torus", "5", str(MAX_SERIES_DEGREE)),
        ("construct", "snake", str(MAX_SNAKE_CELLS), "--json"),
        ("construct", "snake", str(MAX_SNAKE_CELLS)),
        ("hom", "abelianize", "--preset", "spherical_braid", "-n", str(MAX_GENERATORS + 1)),
        ("decide", f"surface(genus=0, boundary=0, ends=U(cantor, I({MAX_GENERATORS})))"),
        ("hom", "snf", json.dumps([[1]] * MAX_SNF_DIM)),
        ("hom", "snf", json.dumps(_dense_rows(_SNF_SIDE, _SNF_SIDE))),
        ("hom", "snf", json.dumps(_dense_rows(16, 16, _snf_entry_digits(16)))),
        ("hom", "snf", json.dumps([[-(10 ** _snf_entry_digits(1)) + 1]])),
    ],
)
def test_largest_allowed_parameters_answer(argv):
    proc = _run_capped(*argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


# Runs `python ARGV` as its only child and writes that child's ru_maxrss
# (KiB on Linux) on stderr.  On Linux a child starts with the peak RSS of the
# process it was spawned from, so the test process, far larger than a CLI
# call, spawns this launcher, and the launcher spawns the measured call.
_PEAK_RSS_LAUNCHER = """\
import os, sys
pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[1:]], os.environ)
_, status, usage = os.wait4(pid, 0)
sys.stderr.write(f"{usage.ru_maxrss}\\n")
sys.exit(os.waitstatus_to_exitcode(status))
"""


def _sha1_and_peak_rss(*argv):
    """The sha1 of the stdout of a fresh `python ARGV` and its peak RSS in
    bytes; stdout is hashed as it arrives, so the test holds none of it."""
    env = dict(os.environ, PYTHONPATH=str(Path(infsurf.__file__).resolve().parent.parent))
    proc = subprocess.Popen(
        [sys.executable, "-S", "-c", _PEAK_RSS_LAUNCHER, *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    digest = hashlib.sha1()
    with proc.stdout:
        while chunk := proc.stdout.read(1 << 16):
            digest.update(chunk)
    with proc.stderr:
        err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 0, err
    return digest.hexdigest(), int(err) * 1024


def test_a_snake_at_the_bound_prints_the_same_bytes_in_little_memory():
    # checked through a set of its cells, and printed with --json from a
    # tuple per cell and the whole JSON text, this call peaked 35 MB (text)
    # and 69 MB (--json) above the import alone; it now peaks about 2 MB above
    _, base = _sha1_and_peak_rss("-c", "import infsurf.cli")
    want = {(): "bfc1188ad15ba6633f5e1e66721e205286cb4839", ("--json",): "ba6adf9b2c1c7464e560242523be9089f439c394"}
    for flag, sha1 in want.items():
        digest, peak = _sha1_and_peak_rss("-m", "infsurf", "construct", "snake", str(MAX_SNAKE_CELLS), *flag)
        assert digest == sha1, flag
        assert peak - base <= 8_000_000, (flag, peak, base)


def test_a_smith_normal_form_at_the_bound_streams_its_json():
    # built whole before it was printed, the JSON of the two 128 x 128
    # transforms (3.4 MB) peaked about 7 MB above the text output; written a
    # row at a time, it peaks about as high
    matrix = json.dumps(_dense_rows(_SNF_SIDE, _SNF_SIDE))
    digest, text_peak = _sha1_and_peak_rss("-m", "infsurf", "hom", "snf", matrix)
    assert digest == "d6a4c470449aace91164e98c1c5fbddaeeadae64"
    digest, peak = _sha1_and_peak_rss("-m", "infsurf", "hom", "snf", matrix, "--json")
    assert digest == "5f510ddc0cfd2a3f64f4329391cae5f3d62ec3a2"
    assert peak - text_peak <= 2_000_000, (peak, text_peak)


def test_the_witness_at_its_bound_keeps_only_nonzero_rows():
    # 8 001 of the 8 129 exponent rows of spherical_braid(129) are zero;
    # built whole before the zero rows were dropped, the matrix took either
    # call about 17 MB above the import alone; it now takes about 2 MB
    _, base = _sha1_and_peak_rss("-c", "import infsurf.cli")
    n = str(MAX_GENERATORS + 1)
    want = {
        ("hom", "abelianize", "--preset", "spherical_braid", "-n", n, "--json"): "b2a66fcbd5126f3ade33781a43497edc48c97a8c",
        ("decide", f"surface(genus=0, boundary=0, ends=U(cantor, I({MAX_GENERATORS})))", "--json"): "b70f634c7d45bacb802800b4c959cc9c1863873d",
    }
    for argv, sha1 in want.items():
        digest, peak = _sha1_and_peak_rss("-m", "infsurf", *argv)
        assert digest == sha1, argv
        assert peak - base <= 6_000_000, (argv, peak, base)


def test_a_batch_past_both_caches_keeps_one_answers_text_per_row(tmp_path):
    # 3 000 surface types of infinite genus, each in three spellings with
    # different tokens, one spelling after the other: 9 000 distinct lines,
    # so both batch caches fill up and every line is decided.  With each
    # kept verdict line holding its own copy of its row's answers, this
    # call peaked about 7.0 MB above the import alone on Python 3.11; it now
    # takes 5.3 MB there and up to 6.3 MB on 3.10
    spellings = [
        "surface(genus=inf, boundary=0, ends=U(cantor!np, I(w^{k})))",
        "surface(genus=inf, boundary=0, ends=U(I(w^{k}), cantor!np))",
        "surface(genus=inf, boundary=0, ends=U(cantor!np, I(w^({k}))))",
    ]
    lines = [s.format(k=k) for s in spellings for k in range(1, 3001)]
    assert len(lines) > LINE_CACHE_SIZE and 3000 > VERDICT_CACHE_SIZE
    f = tmp_path / "batch.txt"
    f.write_text("\n".join(lines) + "\n", encoding="utf-8")
    _, base = _sha1_and_peak_rss("-c", "import infsurf.cli")
    digest, peak = _sha1_and_peak_rss("-m", "infsurf", "decide", "--jsonl", str(f))
    assert digest == "0da2d9159c638283deb315b324bc2b3af05abb6c"
    assert peak - base <= 7_000_000, (peak, base)


def test_a_batch_line_past_the_text_budget_is_refused_in_little_memory(tmp_path):
    # a 4 MB line of a million points, refused before it is split into
    # tokens: it takes 8-13 MB above the import alone, the line and its
    # copies.  Split whole, a line of a quarter of its size took 54 MB
    line = "surface(genus=inf, boundary=0, ends=U(cantor" + ", pt" * (1 << 20) + "))"
    assert len(line) > 4_000_000 > MAX_CHARS
    f = tmp_path / "batch.txt"
    f.write_text(line + "\n", encoding="utf-8")
    want = json.dumps({"error": {"kind": "parse", "offset": MAX_CHARS, "message": "text too long"}}) + "\n"
    _, base = _sha1_and_peak_rss("-c", "import infsurf.cli")
    digest, peak = _sha1_and_peak_rss("-m", "infsurf", "decide", "--jsonl", str(f))
    assert digest == hashlib.sha1(want.encode()).hexdigest()
    assert peak - base <= 20_000_000, (peak, base)


def test_internal_invariant_violation_exit_code(capsys, monkeypatch):
    import infsurf.cli as cli
    from infsurf.decide import InternalInvariantViolation

    def boom(*_):
        raise InternalInvariantViolation("chain broken")

    monkeypatch.setattr(cli, "verdict", boom)
    code, _, err = run(capsys, "decide", "surface(genus=0, boundary=0, ends=cantor)")
    assert code == 4
    assert "chain broken" in err


def test_citation_docs_stay_in_sync():
    from pathlib import Path

    from infsurf.decide import CITATIONS

    doc = Path(__file__).resolve().parent.parent / "docs" / "citations.md"
    rows = [line.split(" | ") for line in doc.read_text(encoding="utf-8").splitlines() if line.startswith("| `")]
    table = {tag.strip("|` "): statement.rstrip(" |") for tag, statement in rows}
    assert table == CITATIONS


def _homeo_pairs(rng, make_text, catalog_texts):
    """Pairs of the fixed texts, then 240 generated pairs, a quarter of
    their texts mutated and so mostly invalid."""
    pairs = [(a, b) for i, a in enumerate(catalog_texts) for b in catalog_texts[i:]]
    for _ in range(240):
        a, b = make_text(rng), make_text(rng)
        pairs.append((mutate_text(rng, a) if rng.random() < 0.25 else a, mutate_text(rng, b) if rng.random() < 0.25 else b))
    return pairs


@pytest.mark.parametrize("command", ["surface", "ends"])
def test_homeo_is_symmetric_at_the_cli(capsys, command):
    rng = random.Random(6101)
    if command == "surface":
        catalog = [c.descriptor for c in CATALOG] + huge_natural_texts(rng, 8, MAX_DIGITS)
        make = random_surface_text
        check = ("surface", "validate")
    else:
        catalog = [str(parse_surface(c.descriptor).ends) for c in CATALOG]
        make = random_endspace_text
        check = ("ends", "invariants")
    rejected = both = 0
    for a, b in _homeo_pairs(rng, make, catalog):
        for flag in ((), ("--json",)):
            forward = run(capsys, command, "homeo", a, b, *flag)
            backward = run(capsys, command, "homeo", b, a, *flag)
            alone = {t: run(capsys, *check, t, *flag) for t in (a, b)}
            failed = [t for t in (a, b) if alone[t][0] != 0]
            assert forward[0] == backward[0], (a, b)
            if len(failed) < 2 or not flag:
                assert forward[1] == backward[1], (a, b)
            if not failed:
                assert forward[0] == 0 and forward[2] == backward[2] == "", (a, b)
                continue
            rejected += 1
            both += len(failed) == 2 and a != b
            # both arguments are parsed before either is validated, so an
            # order reports its first unparsable argument, else its first
            # invalid one: with one bad argument that is the same error
            for result, order in ((forward, (a, b)), (backward, (b, a))):
                errors = [alone[t] for t in order if alone[t][0] == 2] or [alone[t] for t in order if alone[t][0]]
                assert result == errors[0], order
    assert rejected > 20 and both > 0


def _python_m_infsurf(argv, **kw):
    env = dict(os.environ, PYTHONPATH=str(Path(infsurf.__file__).resolve().parent.parent))
    return subprocess.Popen([sys.executable, "-m", "infsurf", *argv], env=env, **kw)


@pytest.mark.parametrize(
    "argv", [("construct", "snake", "100000"), ("decide", "--jsonl", "{batch}"), ("construct", "snake", "100000", "--json")],
)
def test_a_reader_that_stops_early_ends_the_command_cleanly(tmp_path, argv):
    # the output is far larger than a pipe holds, so the command is still
    # writing when the reader closes its end
    batch = tmp_path / "batch.txt"
    batch.write_text("surface(genus=inf, boundary=0, ends=U(cantor!np, I(w*3)))\n" * 5000, encoding="utf-8")
    argv = [arg.format(batch=batch) for arg in argv]
    proc = _python_m_infsurf(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert first.endswith(b"\n") and err == b""


def test_main_called_again_in_one_process_behaves_like_a_new_process(capsys):
    calls = [
        ("decide", "--json", "surface(genus=0, boundary=0, ends=U(cantor, pt, pt))"),
        ("decide",),  # a usage error: decide needs a descriptor
        ("ord", "eval", "w + 1"),
        ("surface", "homeo", "surface(genus=inf, boundary=0, ends=pt!np)", "surface(genus=inf, boundary=0, ends=cantor!np)"),
        ("hom", "poincare", "klein", "1", "2"),  # argparse refuses the choice
        ("ends", "normalize", "--json", "U(pt, seq1pc(pt))"),
        ("decide", "surface(genus=0, boundary=0, ends=U(cantor, pt, pt))"),
        ("hom", "abelianize", "--preset", "braid", "-n", "4", "--json"),
        ("citations",),
        ("decide",),
    ]

    def in_process(argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err

    separate = []
    for argv in calls:
        proc = _python_m_infsurf(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        out, err = proc.communicate(timeout=60)
        separate.append((proc.returncode, out, err))
    assert {code for code, _, _ in separate} == {0, 2}
    for _ in range(2):
        assert [in_process(argv) for argv in calls] == separate


GOLDEN = Path(__file__).parent / "data"


def test_golden_batch_output(capsys):
    code, out, err = run(capsys, "decide", "--jsonl", str(GOLDEN / "golden_batch.txt"))
    assert (code, err) == (0, "")
    assert out.encode("utf-8") == (GOLDEN / "golden_batch.jsonl").read_bytes()


@pytest.mark.parametrize("copies", [1, 2])
def test_golden_batch_spacing_output(capsys, tmp_path, copies):
    # the golden lines respaced, the near collisions, non-ASCII letters and
    # parse errors whose offset moves with the spacing, recorded before the
    # line cache keyed lines by their whitespace-free text; a second copy
    # comes from kept lines
    f = tmp_path / "batch.txt"
    f.write_bytes((GOLDEN / "golden_batch_spacing.txt").read_bytes() * copies)
    code, out, err = run(capsys, "decide", "--jsonl", str(f))
    assert (code, err) == (0, "")
    assert out.encode("utf-8") == (GOLDEN / "golden_batch_spacing.jsonl").read_bytes() * copies


@pytest.mark.parametrize("command", ["normalize", "invariants"])
def test_golden_ends_output(capsys, command):
    exprs = (GOLDEN / "golden_ends.txt").read_text(encoding="utf-8").splitlines()
    lines = []
    for e in exprs:
        code, out, err = run(capsys, "ends", command, e, "--json")
        assert (code, err) == (0, ""), e
        lines.append(out)
    assert "".join(lines).encode("utf-8") == (GOLDEN / f"golden_ends.{command}.jsonl").read_bytes()


def test_golden_surface_output(capsys):
    # one call a line: `surface validate|invariants --json` on each descriptor
    # (the catalog, then marked cases) and `surface homeo --json` on each
    # descriptor and the next one, with its exit code and exact stdout
    calls = [json.loads(line) for line in (GOLDEN / "golden_surface.txt").read_text(encoding="utf-8").splitlines()]
    assert {c["exit"] for c in calls} == {0, 3}
    homeo = {json.loads(c["stdout"]).get("result") for c in calls if c["argv"][1] == "homeo"}
    assert homeo == {"yes", "no", "unknown", None}
    for c in calls:
        code, out, err = run(capsys, *c["argv"])
        assert (code, err) == (c["exit"], ""), c["argv"]
        assert out.encode("utf-8") == c["stdout"].encode("utf-8"), c["argv"]


def test_golden_ord_output(capsys):
    # `ord eval` (text and --json) on seeded ordinal texts, some not in
    # normal form and some with nested exponents, and `ord compare --json`
    # on neighbouring texts and on each seventh text against itself
    calls = [json.loads(line) for line in (GOLDEN / "golden_ord.txt").read_text(encoding="utf-8").splitlines()]
    assert {json.loads(c["stdout"])["result"] for c in calls if c["argv"][1] == "compare"} == {"less", "equal", "greater"}
    for c in calls:
        code, out, err = run(capsys, *c["argv"])
        assert (code, err) == (c["exit"], ""), c["argv"]
        assert out.encode("utf-8") == c["stdout"].encode("utf-8"), c["argv"]


def test_golden_construct_output(capsys):
    # `construct snake` (text and --json) at 1, 2, 3, 9, 10, 11 and 100
    # cells, across the first shells, and refused at 0 and past the bound
    calls = [json.loads(line) for line in (GOLDEN / "golden_construct.txt").read_text(encoding="utf-8").splitlines()]
    assert [c["argv"][2] for c in calls if c["exit"]] == ["0", "0", str(MAX_SNAKE_CELLS + 1), str(MAX_SNAKE_CELLS + 1)]
    for c in calls:
        code, out, err = run(capsys, *c["argv"])
        assert code == c["exit"], c["argv"]
        assert out.encode("utf-8") == c["stdout"].encode("utf-8"), c["argv"]
        # a refused text call reports on stderr, as every command does
        assert err.startswith("error (") if code and "--json" not in c["argv"] else err == "", c["argv"]


def test_a_live_full_twist_is_refused_under_python_O(tmp_path):
    # with a wrong k the full twist does not vanish in Z/2k; the check must
    # not be an assert, which python -O strips
    batch = tmp_path / "batch.txt"
    batch.write_text("surface(genus=0, boundary=0, ends=U(cantor, I(4)))\n", encoding="utf-8")
    code = f"""
import sys
from infsurf import homology
from infsurf.cli import main
assert sys.flags.optimize == 1
homology.k_of = lambda n: n + 1
try:
    homology.prop74_square(5)
except AssertionError as err:
    print("raised:", err)
sys.exit(main(["decide", "--jsonl", {str(batch)!r}]))
"""
    env = dict(os.environ, PYTHONPATH=str(Path(infsurf.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=60, env=env)
    assert (proc.returncode, proc.stderr) == (0, "")
    raised, line = proc.stdout.splitlines()
    assert raised.startswith("raised: the full twist must vanish")
    assert json.loads(line)["error"]["kind"] == "internal"


def test_golden_batch_covers_every_row_and_error_kind():
    rows = [json.loads(line) for line in (GOLDEN / "golden_batch.jsonl").read_text(encoding="utf-8").splitlines()]
    verdicts = [r for r in rows if "error" not in r]
    cited = {r[q]["citation"] for r in verdicts for q in ("qI", "qII", "qIII")}
    # every citation is given by some row of the table
    assert cited == set(CITATIONS)
    assert {r["error"]["kind"] for r in rows if "error" in r} == {
        "empty_line", "parse", "HasBoundary", "NotInfiniteType", "InvalidDescriptor", "ResourceLimit"
    }
    derived = [r["derived"] for r in verdicts]
    assert {d["genus_class"] for d in derived} == {"zero", "finite_positive", "infinite"}
    assert {d["genus"] for d in derived} >= {1, 2, "infinity", 0}
    assert {d["punctures"] for d in derived if d["genus"] == "infinity"} >= {0, 1, 6, "infinity"}
    assert {d["mixed_end"] for d in derived if d["genus"] == "infinity" and d["punctures"] == "infinity"} == {True, False}
    assert {d["punctures"] for d in derived if d["genus"] == 0} >= {0, 1, 2, 3, 4, "infinity"}
    td = {(d["td_max"]["value"] >= 4, d["td_max"]["exact"]) for d in derived if "td_max" in d}
    assert td == {(True, True), (True, False), (False, True), (False, False)}
    assert any("irreducible" in d["end_space"] for d in derived)
