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
from infsurf.cli import main
from infsurf.dsl import MAX_DEPTH
from infsurf.constructions import MAX_SNAKE_CELLS
from infsurf.homology import MAX_GENERATORS, MAX_SERIES_DEGREE, WREATH_QUOTIENT, IntegerMatrix, poincare_series
from oracles import matmul


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


@pytest.mark.parametrize("text", ["gens=x; rel=1", "gens=2; rel=1 a", "gens=; rel=1"])
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


def test_decide_needs_a_descriptor_or_a_batch_file(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["decide"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: infsurf") and err.endswith("error: decide needs a descriptor or --jsonl FILE\n")


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
    # line used to end the batch in a MemoryError before the second line
    over = "surface(genus=0, boundary=0, ends=I(w^2*2000))"
    f = tmp_path / "batch.jsonl"
    f.write_text(f"{over}\nsurface(genus=1, boundary=0, ends=I(w))\n", encoding="utf-8")
    code, out, err = run(capsys, "decide", "--jsonl", str(f))
    assert code == 0 and err == ""
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 2
    message = f"a presentation has at most {MAX_GENERATORS} generators, got 1999"
    assert rows[0] == {"error": {"kind": "ResourceLimit", "message": message}}
    assert rows[1]["qI"]["answer"] == "yes"
    code, out, err = run(capsys, "decide", over)
    assert (code, out, err) == (3, "", f"error (ResourceLimit): {message}\n")


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
    ],
)
def test_largest_allowed_parameters_answer(argv):
    proc = _run_capped(*argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


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
    text = doc.read_text(encoding="utf-8")
    for tag in CITATIONS:
        assert f"`{tag}`" in text
