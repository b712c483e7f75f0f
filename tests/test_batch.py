"""Batch mode: the line cache (a line's words, joined by a space only
where deleting it could join two tokens -> output line, and for a parse
error the text it answers) and the verdict-line cache (surface type ->
verdict line) against the uncached path, and the streamed batch file
against ``str.splitlines()``."""

import hashlib
import importlib.util
import io
import itertools
import json
import random
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from infsurf import cli
from infsurf import decide as decide_module
from infsurf import dsl
from infsurf.catalog import CATALOG
from infsurf.cli import LINE_CACHE_SIZE, main, verdict_json
from infsurf.decide import DecisionError, InternalInvariantViolation, decide
from infsurf.dsl import _TOKEN, MAX_CHARS, MAX_DEPTH, MAX_DIGITS, ParseError, parse_surface, parse_surface_type
from infsurf.endspace import (
    INFINITE,
    NONPLANAR,
    Cantor,
    DisjointUnion,
    Interval,
    LimitCompactification,
    Pt,
    SeqCompactification,
)
from infsurf.surface import ValidationError
from oracles import (
    DECISION_TABLE,
    check_verdict_line,
    differential_texts,
    huge_natural_texts,
    mutate_text,
    random_surface_text,
)

VERDICT = "surface(genus=1, boundary=0, ends=I(w))"
ERROR_LINES = [
    "surface(genus=0, boundary=1, ends=cantor)",  # HasBoundary
    "surface(genus=2, boundary=0, ends=U(pt, pt))",  # NotInfiniteType
    "surface(genus=0, boundary=0, ends=pt!np)",  # InvalidDescriptor
    "surface(genus=inf, boundary=0, ends=seq1pc(pt!np))",  # InvalidDescriptor
    "surface(genus=0, boundary=0, ends=U(pt,))",  # parse
    "",
]


def uncached(line: str) -> str:
    """The output line for one input line, computed without the cache."""
    line = line.strip()
    if not line:
        return json.dumps({"error": {"kind": "empty_line"}})
    try:
        return json.dumps(verdict_json(decide(parse_surface(line))), sort_keys=True)
    except ParseError as err:
        return json.dumps({"error": {"kind": "parse", "offset": err.offset, "message": err.message}})
    except (ValidationError, DecisionError) as err:
        return json.dumps({"error": {"kind": type(err).__name__, "message": str(err)}})


def run_batch(capsys, path):
    code = main(["decide", "--jsonl", str(path)])
    out = capsys.readouterr()
    assert out.err == ""
    return code, out.out.split("\n")[:-1]


def squeeze(line: str) -> str:
    """The line with all its whitespace deleted: the line cache's key for a
    glue-free line, which every line that parses is."""
    return "".join(line.split())


def token_exact(text: str) -> str:
    """The line cache's key for `text`, by the rule it states: the words
    joined by a space where it stands between a character of ``[\\w!]``
    and one of ``\\w``, and by nothing elsewhere."""
    words = text.split()
    key = words[0] if words else ""
    for word in words[1:]:
        glue = re.fullmatch(r"[\w!]", key[-1]) and re.match(r"\w", word)
        key += (" " if glue else "") + word
    return key


def glue_free(text: str) -> bool:
    """Whether deleting the whitespace of `text` cannot join two tokens:
    no space between its words follows a word character or "!" and
    precedes a word character."""
    return " " not in token_exact(text)


def looked_up(text: str) -> list:
    """The keys the line cache is asked for on `text`, from an empty cache."""
    kept = Lookups()
    cli._batch_line(text, kept)
    return kept.asked


class Lookups(dict):
    """A line cache that records the keys it is asked for."""

    def __init__(self):
        super().__init__()
        self.asked = []

    def pop(self, key, *default):
        self.asked.append(key)
        return super().pop(key, *default)


def misses(lines: list, outs: list) -> list:
    """The stripped lines the line cache parses, by the rule it states, when
    no key drops out of it: a line whose key is new, and a parse-error line
    whose key last answered another text."""
    kept, parsed = {}, []
    for line, out in zip(lines, outs):
        text = line.strip()
        if text:
            key = token_exact(text)
            answers = text if '"kind": "parse"' in out else None
            if key not in kept or kept[key] != answers:
                parsed.append(text)
            kept[key] = answers
    return parsed


def count_parses(monkeypatch) -> list:
    """The lines batch mode parses from now on, which are the misses of its
    line cache, in order."""
    parsed = []
    parse = cli.parse_surface_type
    monkeypatch.setattr(cli, "parse_surface_type", lambda text: parsed.append(text) or parse(text))
    return parsed


def respace(text: str, rng: random.Random) -> str:
    """`text` with the whitespace around its tokens redrawn: the same token
    sequence, spelled another way."""
    toks = _TOKEN.findall(text)
    out = "".join(rng.choice(["", "", " ", "  ", "\t"]) + tok for tok in toks) + rng.choice(["", " "])
    if _TOKEN.findall(out) != toks:
        # a dropped space joined two tokens; spaces everywhere cannot
        out = "".join(rng.choice([" ", "  ", "\t"]) + tok for tok in toks)
    assert _TOKEN.findall(out) == toks
    return out


def respell(e, rng: random.Random) -> str:
    """The same end space with its unions permuted and regrouped, default
    marks spelled out and extra whitespace."""

    def sp() -> str:
        return rng.choice(["", " ", "  "])

    def mark(m) -> str:
        return "!np" if m is NONPLANAR else rng.choice(["", "!p", " !p"])

    def point(m) -> str:
        if m is NONPLANAR:
            return f"{sp()};{sp()}np"
        return rng.choice(["", f"{sp()};{sp()}p"])

    if isinstance(e, Pt):
        return "pt" + mark(e.mark)
    if isinstance(e, Cantor):
        return "cantor" + mark(e.mark)
    if isinstance(e, Interval):
        return f"I({sp()}{e.bound}{sp()})" + mark(e.mark)
    if isinstance(e, SeqCompactification):
        return f"seq1pc({sp()}{respell(e.child, rng)}{point(e.point_mark)})"
    if isinstance(e, LimitCompactification):
        return f"lim1pc({e.sup}{point(e.point_mark)})"
    assert isinstance(e, DisjointUnion)
    parts = [respell(c, rng) for c in e.children]
    rng.shuffle(parts)
    if len(parts) > 2 and rng.random() < 0.5:
        k = rng.randint(2, len(parts) - 1)
        parts = [f"U({', '.join(parts[:k])})", *parts[k:]]
    return f"U({sp()}{f',{sp()}'.join(parts)})"


def rewrite(text: str, rng: random.Random) -> str:
    """The same descriptor, respelled."""
    d = parse_surface(text)
    genus = "inf" if d.genus == INFINITE else str(d.genus)
    return f"surface( genus={genus},boundary = {d.boundary} , ends={rng.choice(['', ' '])}{respell(d.ends, rng)} )"


def test_cached_batch_equals_the_uncached_path(tmp_path, capsys, monkeypatch):
    rng = random.Random(5)
    lines = [c.descriptor for c in CATALOG]
    lines += [rewrite(c.descriptor, rng) for c in CATALOG for _ in range(4)]
    for _ in range(300):
        text = random_surface_text(rng)
        lines.append(mutate_text(rng, text) if rng.random() < 0.2 else text)
    lines += ERROR_LINES * 3
    lines += rng.sample(lines, 100)
    rng.shuffle(lines)
    expected = [uncached(line) for line in lines]
    f = tmp_path / "batch.txt"
    f.write_text("\n".join(lines) + "\n", encoding="utf-8")

    parsed = count_parses(monkeypatch)
    cli._verdict_line.cache_clear()
    assert run_batch(capsys, f) == (0, expected)
    cold = cli._verdict_line.cache_info()
    # every repeat of a kept whitespace-free text (not empty, not a parse
    # error) is a hit of the line cache, so it is not parsed again
    kept = [squeeze(line) for line, out in zip(lines, expected) if line.strip() and '"kind": "parse"' not in out]
    line_hits = sum(1 for line in lines if line.strip()) - len(parsed)
    assert line_hits >= len(kept) - len(set(kept)) > 0
    # distinct texts of one surface type still share a verdict line
    verdicts = [line for line, out in zip(lines, expected) if '"error"' not in out]
    types = {parse_surface_type(line) for line in verdicts}
    assert cold.hits >= len({squeeze(line) for line in verdicts}) - len(types) > 0
    assert 0 < cold.currsize <= cold.maxsize
    assert run_batch(capsys, f) == (0, expected)
    warm = cli._verdict_line.cache_info()
    assert warm.hits > cold.hits and warm.currsize <= warm.maxsize
    for error in ERROR_LINES:
        rows = [json.loads(out) for line, out in zip(lines, expected) if line == error]
        assert len(rows) >= 3 and all("error" in row for row in rows)


def test_cache_stays_bounded_past_its_size(tmp_path, capsys):
    maxsize = cli._verdict_line.cache_info().maxsize
    # one surface type per line: k copies of [0, w] next to a non-planar Cantor set
    lines = [f"surface(genus=inf, boundary=0, ends=U(cantor!np, I(w*{k})))" for k in range(1, maxsize + 50)]
    lines += lines[:10]
    f = tmp_path / "batch.txt"
    f.write_text("\n".join(lines), encoding="utf-8")
    assert run_batch(capsys, f) == (0, [uncached(line) for line in lines])
    info = cli._verdict_line.cache_info()
    assert info.currsize == maxsize
    # the first lines were evicted before they came round again
    assert info.hits == 0


def test_line_cache_stays_bounded_past_its_size(tmp_path, capsys, monkeypatch):
    # one token sequence per line; `fresh` comes back every 256 lines, so it
    # stays among the most recently used
    distinct = [f"surface(genus=inf, boundary=0, ends=U(cantor!np, I(w*{k})))" for k in range(1, LINE_CACHE_SIZE + 50)]
    fresh = distinct[0]
    lines = []
    for i, line in enumerate(distinct):
        lines.append(line)
        if i % 256 == 255:
            lines.append(fresh)
    # the next ten were evicted and are parsed again; the last ten were not
    lines += distinct[1:11] + [fresh] + distinct[-10:]
    f = tmp_path / "batch.txt"
    f.write_text("\n".join(lines), encoding="utf-8")
    parsed = count_parses(monkeypatch)
    assert run_batch(capsys, f) == (0, [uncached(line) for line in lines])
    assert parsed == distinct + distinct[1:11]
    kept = {}
    for line in lines:
        cli._batch_line(line, kept)
    assert len(kept) == LINE_CACHE_SIZE
    assert list(kept)[-11:] == [squeeze(line) for line in [fresh] + distinct[-10:]]


def test_respaced_lines_give_the_uncached_output(tmp_path, capsys, monkeypatch):
    # a line and its respellings share one token sequence: the first of them
    # misses the line cache and the others hit it, and every one of them,
    # error lines included, must print what the uncached path prints for it
    rng = random.Random(1201)
    bases = [c.descriptor for c in CATALOG] + ERROR_LINES[:-1]
    for _ in range(300):
        text = random_surface_text(rng)
        bases.append(mutate_text(rng, text) if rng.random() < 0.3 else text)
    lines, respelled = [], 0
    for base in bases:
        group = [base, respace(base, rng), respace(base, rng)]
        respelled += (group[1] != base) + (group[2] != base)
        rng.shuffle(group)
        lines += group
    assert respelled > len(bases)
    expected = [uncached(line) for line in lines]
    assert sum('"kind": "parse"' in out for out in expected) > 100
    assert sum('"error"' not in out for out in expected) > 100
    f = tmp_path / "batch.txt"
    f.write_text("\n".join(lines) + "\n", encoding="utf-8")
    parsed = count_parses(monkeypatch)
    assert run_batch(capsys, f) == (0, expected)
    assert len(parsed) < len(lines) - len(bases)


def test_every_repeated_line_is_a_hit(tmp_path, capsys, monkeypatch):
    # more token sequences than 1 024, each spelled two ways and some lines
    # repeated, with parse errors among them: a token sequence that parses
    # is parsed once, and a parse-error text again only when another text
    # of its key came in between
    rng = random.Random(2203)
    bases = [c.descriptor for c in CATALOG] + ERROR_LINES[:-1]
    while len(bases) < 2400:
        text = random_surface_text(rng)
        bases.append(mutate_text(rng, text) if rng.random() < 0.1 else text)
    lines = [spelling for base in bases for spelling in (base, respace(base, rng))]
    lines += rng.sample(lines, 600) + ERROR_LINES * 3
    rng.shuffle(lines)
    expected = [uncached(line) for line in lines]
    outs = {line.strip(): out for line, out in zip(lines, expected)}

    def fails(text: str) -> bool:
        return '"kind": "parse"' in outs[text]

    sequences = {tuple(_TOKEN.findall(text)) for text in outs if text and not fails(text)}
    errors = [text for text in map(str.strip, lines) if text and fails(text)]
    reparsed = [text for text in misses(lines, expected) if fails(text)]
    assert len(sequences) > 1024 and len(errors) > len(reparsed) > len(set(errors)) > 300
    assert len(sequences) + len(set(errors)) <= LINE_CACHE_SIZE
    f = tmp_path / "batch.txt"
    f.write_text("\n".join(lines) + "\n", encoding="utf-8")
    parsed = count_parses(monkeypatch)
    assert run_batch(capsys, f) == (0, expected)
    assert sorted(tuple(_TOKEN.findall(text)) for text in parsed if not fails(text)) == sorted(sequences)
    assert parsed == misses(lines, expected)


@pytest.mark.parametrize("first", [0, 1])
def test_a_parse_error_line_keeps_its_own_offset(tmp_path, capsys, first):
    # the two texts have one key, and without whitespace both are the
    # valid I(12); both fail at the second natural: a kept parse error
    # answers its own text, so neither line may print the other's offset
    tight = "surface(genus=0, boundary=0, ends=I(1 2))"
    spaced = "surface ( genus = 0 , boundary = 0 , ends = I ( 1 2 ) )"
    assert _TOKEN.findall(tight) == _TOKEN.findall(spaced)
    assert squeeze(tight) == squeeze(spaced) == squeeze(tight.replace("1 2", "12"))
    assert not glue_free(tight) and token_exact(tight) == token_exact(spaced)
    offsets = {tight: 38, spaced: 50}
    order = [tight, spaced] if first == 0 else [spaced, tight]
    lines = [order[0], order[0], order[1], order[1], *order]
    f = tmp_path / "batch.txt"
    f.write_text("\n".join(lines), encoding="utf-8")
    code, out = run_batch(capsys, f)
    assert (code, out) == (0, [uncached(line) for line in lines])
    assert [json.loads(line)["error"]["offset"] for line in out] == [offsets[line] for line in lines]


def test_re_whitespace_is_str_isspace():
    # the tokenizer skips what re's \s matches and the line cache's key
    # drops what str.split splits on; over every code point they are one set
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"\s", every) == [c for c in every if c.isspace()]


# the grammar's punctuation, letters and digits (ASCII and not), an
# undecodable byte and whitespace (ASCII and not)
_SPACING = "()!,;=^*+_wpnI0123456789xU" + "\u00e9\uff11\u0663\udcff" + " \t\x1f\u00a0\u3000"


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.text(), st.text(alphabet=_SPACING, max_size=40)))
def test_a_glue_free_text_has_the_tokens_of_its_whitespace_free_text(text):
    # the line cache keys a glue-free line by its whitespace-free text, and
    # any other line by that text with the spaces kept that would join two
    # tokens; either key names the token sequence because it splits into it
    if glue_free(text):
        assert _TOKEN.findall(squeeze(text)) == _TOKEN.findall(text)
    assert_token_exact_key(text)


def assert_token_exact_key(text: str) -> None:
    """The line cache looks `text` up under the key it states, one that
    splits into the tokens of `text` and holds a space exactly when `text`
    is not glue-free."""
    if not text.strip():
        assert looked_up(text) == [], repr(text)
        return
    key = token_exact(text)
    assert looked_up(text) == [key], repr(text)
    assert _TOKEN.findall(key) == _TOKEN.findall(text), repr(text)
    assert (key == squeeze(text)) == glue_free(text), repr(text)


# the grammar's punctuation, letters and digit, a non-ASCII letter and
# digit, and whitespace: ASCII, U+3000, and \x1f, which str.split splits
# on and str.splitlines does not
_SHORT = "(,!wpn1\u00e9\u0663" + " \t\x1f\u3000"


def test_every_short_text_has_a_token_exact_key():
    # every text of at most 4 of these characters, no randomness
    count = 0
    for n in range(5):
        for chars in itertools.product(_SHORT, repeat=n):
            assert_token_exact_key("".join(chars))
            count += 1
    assert count == sum(len(_SHORT) ** n for n in range(5))


def test_every_line_that_parses_takes_the_whitespace_free_key():
    # the golden lines, each respaced and respelled: a line without a parse
    # error is kept under its whitespace-free text, and a parse error under
    # its key, with its text
    rng = random.Random(2311)
    golden = (Path(__file__).parent / "data" / "golden_batch.txt").read_text(encoding="utf-8").splitlines()
    lines = golden + [respace(text, rng) for text in golden if text.strip()]
    lines += [rewrite(c.descriptor, rng) for c in CATALOG for _ in range(4)]
    kinds = set()
    for line in lines:
        kept = {}
        out_line = cli._batch_line(line, kept)
        out = json.loads(out_line)
        kind = out["error"]["kind"] if "error" in out else "verdict"
        kinds.add(kind)
        if kind == "parse":
            assert kept == {token_exact(line): [out_line, line.strip()]}, line
        elif kind != "empty_line":
            assert glue_free(line) and list(kept) == [squeeze(line)], line
    assert {"verdict", "parse", "empty_line", "ResourceLimit", "HasBoundary"} <= kinds


def test_tokens_are_read_only_by_the_parse(tmp_path, capsys, monkeypatch):
    # a hit reads no tokens: the tokenizer runs once per parse, and cli has none
    class Counting:
        def __init__(self, pattern):
            self.pattern, self.calls = pattern, 0

        def findall(self, text):
            self.calls += 1
            return self.pattern.findall(text)

        def __getattr__(self, name):
            return getattr(self.pattern, name)

    assert not hasattr(cli, "_TOKEN")
    tokens = Counting(dsl._TOKEN)
    monkeypatch.setattr(dsl, "_TOKEN", tokens)
    data = Path(__file__).parent / "data"
    text = "".join((data / name).read_text(encoding="utf-8") for name in ("golden_batch.txt", "golden_batch_spacing.txt"))
    f = tmp_path / "batch.txt"
    f.write_text(text * 2, encoding="utf-8")
    parsed = count_parses(monkeypatch)
    code, out = run_batch(capsys, f)
    lines = (text * 2).splitlines()
    assert code == 0 and len(out) == len(lines)
    assert 0 < tokens.calls == len(parsed) < len(out) // 2
    assert parsed == misses(lines, out)


@pytest.mark.parametrize(
    "left, right",
    [
        ("pt!np", "pt ! np"),
        ("pt!p", "pt! p"),
        ("I(12)", "I(1 2)"),
        ("seq1pc(pt; np)", "seq1pc(pt; n p)"),
        ("I(w^23)", "I(w^2 3)"),
    ],
)
def test_near_collisions_keep_their_own_lines(tmp_path, capsys, left, right):
    # equal once whitespace is dropped, but other token sequences: each line
    # gets its own output in either order; the verdict is kept under its
    # whitespace-free text, and the parse error under a key that keeps the
    # space joining its tokens
    texts = [f"surface(genus=inf, boundary=0, ends=U(cantor!np, {e}))" for e in (left, right)]
    assert _TOKEN.findall(texts[0]) != _TOKEN.findall(texts[1])
    assert squeeze(texts[0]) == squeeze(texts[1])
    assert glue_free(texts[0]) and not glue_free(texts[1])
    expected = [uncached(text) for text in texts]
    assert '"error"' not in expected[0] and '"kind": "parse"' in expected[1]
    keys = {texts[0]: squeeze(texts[0]), texts[1]: token_exact(texts[1])}
    assert keys[texts[1]] != keys[texts[0]] == keys[texts[1]].replace(" ", "")
    for order in (texts, texts[::-1]):
        f = tmp_path / "batch.txt"
        f.write_text("\n".join(order * 2), encoding="utf-8")
        assert run_batch(capsys, f) == (0, [uncached(text) for text in order * 2])
        kept = Lookups()
        for text in order:
            cli._batch_line(text, kept)
        assert kept.asked == list(kept) == [keys[text] for text in order]


def test_a_line_past_the_text_budget_is_not_kept(tmp_path, capsys):
    # the middle line has the words of the first, so its key, but is too
    # long once stripped and so a parse error; whitespace at the ends of a
    # line does not count, and a line of whitespace alone is empty, at the
    # budget and past it
    pad = " " * MAX_CHARS
    lines = [VERDICT, VERDICT.replace(" ", pad), pad + VERDICT + pad, pad, pad + "\t", VERDICT]
    expected = [uncached(line) for line in lines]
    assert json.loads(expected[1]) == {"error": {"kind": "parse", "offset": MAX_CHARS, "message": "text too long"}}
    assert expected[0] == expected[2] == expected[5] and expected[3] == expected[4]
    assert json.loads(expected[3])["error"]["kind"] == "empty_line"
    f = tmp_path / "batch.txt"
    f.write_text("\n".join(lines), encoding="utf-8")
    assert run_batch(capsys, f) == (0, expected)
    kept = {}
    for line in lines:
        cli._batch_line(line, kept)
    assert list(kept) == [squeeze(VERDICT)]


def test_respaced_operators_share_their_line(tmp_path, capsys, monkeypatch):
    # "w^2" and "w ^ 2" are one whitespace-free text: the second line is a hit
    texts = [f"surface(genus=1, boundary=0, ends=I({w}))" for w in ("w^2", "w ^ 2")]
    assert squeeze(texts[0]) == squeeze(texts[1]) and glue_free(texts[1])
    f = tmp_path / "batch.txt"
    f.write_text("\n".join(texts), encoding="utf-8")
    parsed = count_parses(monkeypatch)
    assert run_batch(capsys, f) == (0, [uncached(text) for text in texts])
    assert parsed == texts[:1]


def test_every_functools_cache_is_bounded(functools_caches):
    # the verdict lines, the answers of a row, the rows and the argument parser
    assert set(functools_caches) == {cli._verdict_line, cli._answers_text, decide_module.row, cli._build_parser}
    for f in functools_caches:
        maxsize = f.cache_info().maxsize
        assert maxsize is not None and maxsize > 0, f


def test_stream_splits_lines_like_splitlines(tmp_path, capsys):
    text = (
        f"{VERDICT}\r\n"
        "surface(genus=inf, boundary=0, ends=pt!np)\x0c"
        f"{VERDICT}\x85 \n\n   \n"
        "surface(genus=0, boundary=1, ends=cantor)\r"
        "surface(genus=0, boundary=0, ends=I(w^2*4))\x1e\x0b"
        "not a descriptor "
        f"{VERDICT}"
    )
    f = tmp_path / "batch.txt"
    f.write_text(text, encoding="utf-8", newline="")
    code, out = run_batch(capsys, f)
    assert code == 0
    assert len(out) == len(text.splitlines()) == 12
    assert out == [uncached(line) for line in text.splitlines()]


def test_read_failure_midway_keeps_the_lines_written(tmp_path, capsys, monkeypatch):
    f = tmp_path / "batch.txt"
    f.write_text(f"{VERDICT}\n{VERDICT}\n", encoding="utf-8")

    class Failing(io.StringIO):
        def readline(self, *args):
            line = super().readline(*args)
            if not line:
                raise OSError(5, "Input/output error")
            return line

    monkeypatch.setattr(cli, "open", lambda *a, **kw: Failing(f.read_text()), raising=False)
    code = main(["decide", "--jsonl", str(f)])
    out = capsys.readouterr()
    assert code == 3
    assert out.out.splitlines() == [uncached(VERDICT)] * 2
    assert out.err.startswith("error (OSError): cannot read batch file")


def test_a_leading_byte_order_mark_is_dropped(tmp_path, capsys):
    # only a mark at the start of the file is dropped; a U+FEFF anywhere
    # else stays in its line, which is then a parse error
    bom = "\ufeff"
    inner = f"{VERDICT[:8]}{bom}{VERDICT[8:]}"
    cases = {
        bom + VERDICT: [VERDICT],
        f"{bom}{ERROR_LINES[4]}\n{VERDICT}": [ERROR_LINES[4], VERDICT],
        f"{VERDICT}\n{bom}{VERDICT}\n{inner}": [VERDICT, bom + VERDICT, inner],
        bom * 2 + VERDICT: [bom + VERDICT],
    }
    for text, lines in cases.items():
        f = tmp_path / "batch.txt"
        f.write_bytes(text.encode("utf-8"))
        assert run_batch(capsys, f) == (0, [uncached(line) for line in lines])
    assert json.loads(uncached(ERROR_LINES[4]))["error"]["offset"] > 0
    assert [json.loads(uncached(line))["error"]["offset"] for line in (bom + VERDICT, inner)] == [0, 8]


def test_undecodable_line_is_a_parse_error_line(tmp_path, capsys):
    f = tmp_path / "batch.txt"
    f.write_bytes(f"{VERDICT}\n".encode() + b"\xff\n" + f"{VERDICT}".encode())
    code, out = run_batch(capsys, f)
    assert code == 0
    rows = [json.loads(line) for line in out]
    assert len(rows) == 3
    assert rows[0]["qI"]["answer"] == rows[2]["qI"]["answer"] == "yes"
    assert rows[1]["error"]["kind"] == "parse"


def test_batch_equals_the_tree_path_on_generated_and_nested_lines(tmp_path, capsys):
    # batch lines are summarized straight from the text; each output line
    # must still be what the expression tree gives
    rng = random.Random(907)
    lines = [c.descriptor for c in CATALOG] + differential_texts(rng, 2000, MAX_DEPTH)
    expected = [uncached(line) for line in lines]
    assert sum('"kind": "parse"' in out for out in expected) > 1000
    assert sum('"error"' not in out for out in expected) > 200
    f = tmp_path / "batch.txt"
    f.write_text("\n".join(lines) + "\n", encoding="utf-8")
    cli._verdict_line.cache_clear()
    assert run_batch(capsys, f) == (0, expected)
    assert run_batch(capsys, f) == (0, expected)


def test_single_call_prints_the_batch_line(tmp_path, capsys):
    # one decide path: a single `decide --json` and a batch line of the same
    # text agree, on verdicts byte for byte and on errors by kind
    rng = random.Random(4409)
    texts = [c.descriptor for c in CATALOG] + differential_texts(rng, 150, MAX_DEPTH)
    texts += huge_natural_texts(rng, 60, MAX_DIGITS)
    f = tmp_path / "batch.txt"
    f.write_text("\n".join(texts) + "\n", encoding="utf-8")
    code, lines = run_batch(capsys, f)
    assert code == 0 and len(lines) == len(texts)
    kinds = set()
    for text, line in zip(texts, lines):
        row = json.loads(line)
        if "error" not in row:
            answers = [row[q]["answer"] for q in ("qI", "qII", "qIII")]
            for premise, conclusion in zip(answers, answers[1:]):
                assert premise != "yes" or conclusion == "yes", text
        if not text.strip():
            continue  # a single call needs a descriptor; the batch line is empty_line
        rc = main(["decide", "--json", text])
        out = capsys.readouterr()
        assert rc in (0, 2, 3, 4) and "Traceback" not in out.err, text
        kind = row["error"]["kind"] if "error" in row else "verdict"
        kinds.add(kind)
        if kind == "verdict":
            assert (rc, out.out) == (0, line + "\n"), text
        else:
            assert json.loads(out.out)["error"]["kind"] == kind, text
            assert rc == {"parse": 2, "internal": 4}.get(kind, 3), text
    assert kinds == {"verdict", "parse", "HasBoundary", "NotInfiniteType", "InvalidDescriptor", "ResourceLimit"}


def test_answers_are_serialized_once_per_row(tmp_path, capsys, monkeypatch):
    # many surface types, two rows: closed genus 2, and genus 0 with exactly
    # four distinguished ends next to a Cantor set
    lines = [f"surface(genus=2, boundary=0, ends=U(cantor, I(w^{k})))" for k in range(1, 41)]
    lines += [f"surface(genus=0, boundary=0, ends=U(cantor, I(w^{k}*4)))" for k in range(1, 41)]
    expected = [uncached(line) for line in lines]
    assert len(set(expected)) == len(lines)
    calls = []
    serialize = cli._answer_json
    monkeypatch.setattr(cli, "_answer_json", lambda a: calls.append(a) or serialize(a))
    f = tmp_path / "batch.txt"
    f.write_text("\n".join(lines), encoding="utf-8")
    assert run_batch(capsys, f) == (0, expected)
    assert cli._verdict_line.cache_info().misses == len(lines)
    assert len(calls) == 2 * 3
    assert decide_module.row.cache_info().misses == 2


def test_types_of_one_row_share_one_answers_text():
    # closed genus 2 next to a Cantor set and one interval: two surface
    # types on one table row, so two heads and one tail
    lines = [f"surface(genus=2, boundary=0, ends=U(cantor, I(w^{k})))" for k in (1, 2)]
    kept = {}
    for line in lines * 2:
        assert cli._batch_line(line, kept) == uncached(line) + "\n"
    (head_a, tail_a), (head_b, tail_b) = kept[squeeze(lines[0])], kept[squeeze(lines[1])]
    assert head_a != head_b and tail_a is tail_b
    genus, boundary, summary = parse_surface_type(lines[0])
    assert kept[squeeze(lines[0])] is cli._verdict_line(genus, boundary, summary)
    assert tail_a is cli._answers_text(decide_module.row_key(genus, summary))


def test_a_kept_error_line_is_the_output_line_itself():
    # an error line is kept as the string written, in a pair with the empty
    # tail or, for a parse error, in a list with the text whose offset it gives
    for line in ERROR_LINES[:-1]:
        kept = {}
        out = cli._batch_line(line, kept)
        assert out == uncached(line) + "\n"
        (value,) = kept.values()
        if '"kind": "parse"' in out:
            assert value == [out, line] and value[0] is out
        else:
            assert value == (out, "") and value[0] is out
        assert cli._batch_line(line, kept) == out


def test_internal_error_is_one_error_line(tmp_path, capsys, monkeypatch):
    def broken():
        raise InternalInvariantViolation("witness self-check failed")

    monkeypatch.setattr(decide_module, "_torus_witness", broken)
    torus = "surface(genus=1, boundary=0, ends=cantor)"
    f = tmp_path / "batch.txt"
    f.write_text(f"{VERDICT.replace('genus=1', 'genus=2')}\n{torus}\n{ERROR_LINES[0]}\n{torus}\n", encoding="utf-8")
    parsed = count_parses(monkeypatch)
    code, out = run_batch(capsys, f)
    assert code == 0
    assert len(out) == 4
    assert json.loads(out[0])["qI"]["answer"] == "yes"
    assert json.loads(out[1]) == {"error": {"kind": "internal", "message": "witness self-check failed"}}
    assert json.loads(out[2])["error"]["kind"] == "HasBoundary"
    # an internal error is not kept: the repeated line is decided again
    assert out[3] == out[1] and parsed.count(torus) == 2
    # a single call still exits 4
    assert main(["decide", torus]) == 4
    assert "witness self-check failed" in capsys.readouterr().err


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def perfbench_gen():
    """The benchmark's generator, ``perfbench/gen.py``, read only: no
    bytecode is written under ``perfbench/``.  It imports perfbench's
    ``oracles``, whose name this directory's takes, so that entry of
    ``sys.modules`` is swapped while it loads."""
    dont_write, ours = sys.dont_write_bytecode, sys.modules["oracles"]
    sys.dont_write_bytecode = True
    try:
        sys.modules["oracles"] = _perfbench_module("oracles")
        return _perfbench_module("gen")
    finally:
        sys.dont_write_bytecode, sys.modules["oracles"] = dont_write, ours


def test_every_batch_line_passes_the_verdict_line_checker(tmp_path, capsys, perfbench_gen):
    data = Path(__file__).parent / "data"
    lines = []
    for name in ("golden_batch.jsonl", "golden_batch_spacing.jsonl"):
        lines += (data / name).read_text(encoding="utf-8").splitlines()
    catalog = [{"descriptor": c.descriptor, "expected": list(c.expected)} for c in CATALOG]
    # each output's sha1, as the CI step over the installed console script pins it
    want = {
        1: "e9edc6bd9d28bc4fcbf02f8cdd420576410cfca4",
        7: "6a154312e58bf7d86ed4f71f5491b6bee42c60c5",
        101: "d28c86d9c19b27aa45f4001294e95e3aa5816d87",
    }
    for seed, sha1 in want.items():
        f = tmp_path / f"batch_mixed_{seed}.txt"
        f.write_text("".join(text + "\n" for text, _ in perfbench_gen.batch_mixed(seed, catalog)), encoding="utf-8")
        code, out = run_batch(capsys, f)
        assert code == 0
        assert hashlib.sha1("".join(line + "\n" for line in out).encode("utf-8")).hexdigest() == sha1
        lines += out
    assert [(line, p) for line in lines for p in check_verdict_line(line)] == []
    assert sum(line.count('"kind": "distinguished_square"') for line in lines) == 5553 + 108
    # every witness kind and every citation of the decision table is among the lines checked
    for kind in ("abelianization", "h2_lookup", "braid_sign", "even_degree_summands"):
        assert any(f'"kind": "{kind}"' in line for line in lines), kind
    for tag in {citation for row in DECISION_TABLE.values() for _, _, citation in row}:
        assert any(f'"citation": "{tag}"' in line for line in lines), tag
