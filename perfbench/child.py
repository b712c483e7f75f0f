"""Engine-side half of the benchmark, started by run.py with PYTHONPATH=src.

    child.py catalog                       print the catalog as JSON
    child.py batch LINES OUT TEXT          one `decide --jsonl` call through
                                           cli.main, a time stamp per line
    child.py calculus OPS CHECK OUT        one timed pass of library calls
    child.py replay WORKLOAD INPUTS SECONDS SEED SPANS
                                           alternate untraced and traced
                                           in-process passes, write spans
    child.py cli OPS OUT                   CLI calls through cli.main(argv)
    child.py curve N                       one spherical-braid abelianization
    child.py probe SEED                    witness and dense-SNF micro-timings

Spans wrap calls into infsurf's public functions from this file only; the
engine itself is not instrumented.  `batch` and `calculus` also run against
the reference engine (PYTHONPATH=perfbench/ref_engine), so they use only
what both engines provide.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import random
import statistics
import sys
import time

import oracles
from gen import dense_matrix

from infsurf import cli, constructions, decide, endspace, homology, ordinal, surface
from infsurf.dsl import ParseError, parse_endspace, parse_ordinal, parse_surface

now = time.perf_counter_ns


class Tracer:
    """Spans kept in memory as (name, start_ns, end_ns, op id)."""

    def __init__(self):
        self.rows = []

    def call(self, name, op, fn, *args, **kw):
        t0 = now()
        try:
            return fn(*args, **kw)
        finally:
            self.rows.append((name, t0, now(), op))


class Untraced:
    @staticmethod
    def call(name, op, fn, *args, **kw):
        return fn(*args, **kw)


def witness_caches():
    return [f for f in vars(decide).values() if hasattr(f, "cache_info") and hasattr(f, "cache_clear")]


def clear_caches():
    for mod in (decide, homology, endspace, surface, ordinal):
        for f in vars(mod).values():
            if hasattr(f, "cache_clear") and hasattr(f, "cache_info"):
                f.cache_clear()


def count_nodes(e) -> int:
    kids = getattr(e, "children", None) or ((e.child,) if hasattr(e, "child") else ())
    return 1 + sum(count_nodes(k) for k in kids)


# -- descriptor lines ---------------------------------------------------------


def line_pass(sp, lines):
    """The stages `decide --jsonl` runs per line, each called directly."""
    for i, text in enumerate(lines):
        try:
            d = sp.call("dsl.parse_surface", i, parse_surface, text)
            sp.call("surface.validate", i, surface.validate, d)
            p = sp.call("surface.punctures_of", i, surface.punctures_of, d)
            sp.call("surface.has_mixed_end", i, surface.has_mixed_end, d)
            unmarked = sp.call("endspace.strip_marks", i, endspace.strip_marks, d.ends)
            sp.call("endspace.normalize", i, endspace.normalize, unmarked)
            if d.genus == 0 and p == endspace.INFINITE:
                sp.call("endspace.td_max", i, endspace.td_max, unmarked)
            v = sp.call("decide.decide", i, decide.decide, d)
            j = sp.call("cli.verdict_json", i, cli.verdict_json, v)
            sp.call("cli.json_dumps", i, json.dumps, j, sort_keys=True)
        except (ParseError, surface.ValidationError, decide.DecisionError):
            pass


def line_counts(lines):
    sizes = []
    for text in lines:
        try:
            sizes.append(count_nodes(parse_surface(text).ends))
        except ParseError:
            pass
    return {"nodes": sizes}


# -- CLI calls, in process ----------------------------------------------------


def cli_call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = now()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code
        elapsed = now() - t0
    return {"rc": rc, "out": out.getvalue(), "err": err.getvalue(), "ns": elapsed}


def cli_probe(ops_path, out_path):
    """Each call once untimed (first-call costs), then once timed."""
    with open(ops_path) as fh:
        argvs = [argv for argv, _check in json.load(fh)]
    for argv in argvs:
        cli_call(argv)
    with open(out_path, "w") as fh:
        json.dump([cli_call(argv) for argv in argvs], fh)


# -- library calls ------------------------------------------------------------


def prepare(op):
    """(function, args, check) for one calculus op; inputs parsed untimed."""
    fn = op["fn"]
    if fn == "homology.smith_normal_form":
        a = op["matrix"]
        return homology.smith_normal_form, (homology.IntegerMatrix.from_rows(a),), lambda r: oracles.check_snf(
            a, r.diagonal, r.left.entries, r.right.entries
        )
    if fn == "constructions.snake_bijection":
        return constructions.snake_bijection, (op["count"],), lambda r: oracles.check_snake(r.points, op["count"])
    want = op["want"]

    def same(got):
        return [] if got == want else [f"{fn} gave {got!r}, expected {want!r}"]

    if fn == "endspace.is_homeomorphic":
        return endspace.is_homeomorphic, (parse_endspace(op["a"]), parse_endspace(op["b"])), lambda r: same(r.value)
    if fn == "endspace.cb_derivative":
        return endspace.cb_derivative, (parse_endspace(op["e"]),), lambda r: same(str(r))
    if fn == "endspace.cb_rank":
        return endspace.cb_rank, (parse_endspace(op["e"]),), lambda r: same(str(r))
    if fn == "surface.surfaces_homeomorphic":
        return surface.surfaces_homeomorphic, (parse_surface(op["a"]), parse_surface(op["b"])), lambda r: same(r.value)
    if fn == "ordinal.compare":
        return ordinal.compare, (parse_ordinal(op["a"]), parse_ordinal(op["b"])), same
    if fn == "ordinal.add":
        return ordinal.add, (parse_ordinal(op["a"]), parse_ordinal(op["b"])), lambda r: same(str(r))
    raise ValueError(f"unknown op {fn}")


def calc_pass(sp, prepared):
    return [sp.call(name, i, fn, *args) for i, (name, fn, args, _check) in enumerate(prepared)]


def prepare_all(ops):
    return [(op["fn"], *prepare(op)) for op in ops]


def check_pass(prepared, results):
    return [f"op {i}: {p}" for i, ((_n, _f, _a, check), r) in enumerate(zip(prepared, results)) for p in check(r)]


def calculus(ops_path, check, out_path):
    """One pass over the library calls, each timed on its own, from a
    collected heap.  With CHECK=1 every result is checked by the oracles;
    every pass reports a digest of each result, so the parent can tell that
    later passes computed the same."""
    with open(ops_path) as fh:
        prepared = prepare_all(json.load(fh))
    gc.collect()
    tracer = Tracer()
    results = calc_pass(tracer, prepared)
    failures = check_pass(prepared, results) if check == "1" else []
    with open(out_path, "w") as fh:
        json.dump({
            "ns": [e - s for _n, s, e, _i in tracer.rows],
            "digests": [hashlib.sha1(repr(r).encode()).hexdigest() for r in results],
            "failures": failures,
        }, fh)


# -- batch call, stamped per line ---------------------------------------------


class Stamps(io.TextIOBase):
    """Stands in for stdout: keeps the text, and at every write that ends
    lines stamps the time with the number of lines written so far."""

    def __init__(self):
        self.parts, self.marks, self.lines = [], [], 0

    def writable(self):
        return True

    def write(self, text):
        self.parts.append(text)
        k = text.count("\n")
        if k:
            self.lines += k
            self.marks.append((now(), self.lines))
        return len(text)


def batch(lines_path, out_path, text_path):
    """`decide --jsonl LINES` through cli.main in this process.  Line i's
    time runs from the end of line i-1 (for the first, from the call) to the
    write that ends it; argument parsing and reading the file fall to the
    first line.  If the program writes several lines at once, the earlier
    ones read 0 and the write's time falls to the last."""
    with open(lines_path) as fh:
        n = sum(1 for _ in fh)
    out, err = Stamps(), io.StringIO()
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = now()
        rc = cli.main(["decide", "--jsonl", lines_path])
        t1 = now()
    ends, j = [], 0
    for i in range(1, n + 1):
        while j < len(out.marks) and out.marks[j][1] < i:
            j += 1
        ends.append(out.marks[j][0] if j < len(out.marks) else t1)
    ns = [b - a for a, b in zip([t0] + ends, ends)]
    with open(text_path, "w", encoding="utf-8") as fh:
        fh.write("".join(out.parts))
    with open(out_path, "w") as fh:
        json.dump({"rc": rc, "err": err.getvalue(), "ns": ns, "call_ns": t1 - t0}, fh)


def max_digits(snf_results) -> int:
    return max(
        (len(str(abs(x))) for r in snf_results for m in (r.left, r.right) for row in m.entries for x in row),
        default=0,
    )


# -- traced replay ------------------------------------------------------------


def replay(workload, inputs_path, seconds, seed, spans_path):
    with open(inputs_path) as fh:
        data = json.load(fh)
    if workload == "calculus_lib":
        run, items, counts = calc_pass, prepare_all(data), {}
    else:
        run, items = line_pass, [text for text, _ in data]
        counts = line_counts(items)
    tracer = Tracer()
    deadline = now() + int(float(seconds) * 1e9)
    run(Untraced, items)  # warm-up: first-call costs stay out of both sides
    hits = misses = 0
    for _ in range(4):
        for traced in (False, True):
            clear_caches()
            before = [f.cache_info() for f in witness_caches()]
            t0 = now()
            run(tracer if traced else Untraced, items)
            tracer.rows.append(("pass.traced" if traced else "pass.untraced", t0, now(), -1))
            if traced:
                after = [f.cache_info() for f in witness_caches()]
                hits += sum(a.hits - b.hits for a, b in zip(after, before))
                misses += sum(a.misses - b.misses for a, b in zip(after, before))
        if now() >= deadline:
            break
    counts.update(witness_cache_hits=hits, witness_cache_misses=misses)
    with open(spans_path, "w") as fh:
        fh.write(json.dumps({"workload": workload, "seed": int(seed), "fields": ["name", "start_ns", "end_ns", "op"], "counts": counts}) + "\n")
        fh.writelines(json.dumps(row) + "\n" for row in tracer.rows)


# -- probes -------------------------------------------------------------------


def curve(n):
    pres = homology.preset("spherical_braid", int(n))
    t0 = now()
    group = homology.abelianize(pres)
    elapsed = now() - t0
    rows = pres.exponent_matrix().entries
    print(json.dumps({
        "n": int(n),
        "ns": elapsed,
        "group": str(group),
        "rows": len(rows),
        "nonzero_rows": sum(1 for r in rows if any(r)),
    }))


def probe(seed):
    def p50_us(fn, args_list):
        samples = []
        for args in args_list:
            t0 = now()
            fn(*args)
            samples.append((now() - t0) / 1e3)
        return statistics.median(samples)

    rng = random.Random(int(seed))
    out = {
        "prop74_square_p50_us": p50_us(homology.prop74_square, [(n,) for n in range(4, 49)] * 3),
        "poincare_series_p50_us": p50_us(
            homology.poincare_series, [(homology.WREATH_QUOTIENT, p, oracles.WITNESS_DEGREE) for p in range(1, 200)] * 3
        ),
    }
    results = []
    for size in (16, 24, 32):
        times = []
        for _ in range(3):
            m = homology.IntegerMatrix.from_rows(dense_matrix(rng, size))
            t0 = now()
            results.append(homology.smith_normal_form(m))
            times.append((now() - t0) / 1e6)
        out[f"snf_dense{size}_ms"] = statistics.median(times)
    out["max_digits"] = max_digits(results)
    print(json.dumps(out))


def main(argv):
    mode, args = argv[1], argv[2:]
    if mode == "catalog":
        from infsurf.catalog import CATALOG

        print(json.dumps([{"descriptor": c.descriptor, "expected": list(c.expected)} for c in CATALOG]))
    elif mode == "batch":
        batch(*args)
    elif mode == "calculus":
        calculus(*args)
    elif mode == "replay":
        replay(*args)
    elif mode == "cli":
        cli_probe(*args)
    elif mode == "curve":
        curve(*args)
    elif mode == "probe":
        probe(*args)
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv)
