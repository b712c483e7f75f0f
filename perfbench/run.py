#!/usr/bin/env python3
"""The infsurf benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

It may be started from any directory; all paths are relative to the
repository root above this file.  The engine is always the working tree:
every engine child runs `python -m infsurf` or child.py with the fixed
environment PYTHONPATH=src, one child at a time.  Each timed pass is paired
with a pass of the frozen reference engine in perfbench/ref_engine, which
measures the shared host's speed at that moment.  Inputs come from --seed;
every output is checked against an expected outcome or an independent
oracle.  With --trace 0 the end-to-end metrics are printed, with --trace 1
the per-layer metrics from a traced in-process replay plus per-module
probes.  The last stdout line is one JSON object: {"correct", "attempted",
"failed", "metrics"}.  perfbench/NOTES.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import oracles as O  # noqa: E402

WORKLOADS = ("batch_mixed", "calculus_lib")
PY = sys.executable
ENV = {
    "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
    "PYTHONPATH": "src",
    "PYTHONHASHSEED": "0",
    "LC_ALL": "C.UTF-8",
}
# The reference engine: a frozen copy of src/infsurf (see NOTES.md), timed
# on the same inputs next to every timed run of the engine under test.
REF_ENV = {**ENV, "PYTHONPATH": "perfbench/ref_engine"}
# Typical times of the reference engine on the 2-vCPU VM the benchmark was
# calibrated on (medians over runs on several seeds, rounded): one timed
# pass of each workload, and one interpreter start with `import infsurf.cli`.
# Every time of the engine under test is scaled by the ratio of these to the
# reference engine's times in the same run, so the figures read as times on
# that VM at its typical speed.
REF_PASS_S = {"batch_mixed": 2.5, "calculus_lib": 1.9}
REF_SETUP_S = 0.17

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

SPAN_FUNCS = (
    "dsl.parse_surface",
    "surface.validate",
    "surface.punctures_of",
    "surface.has_mixed_end",
    "endspace.strip_marks",
    "endspace.normalize",
    "endspace.td_max",
    "decide.decide",
    "cli.verdict_json",
    "cli.json_dumps",
    "homology.smith_normal_form",
    "endspace.is_homeomorphic",
    "endspace.cb_derivative",
    "endspace.cb_rank",
    "surface.surfaces_homeomorphic",
    "ordinal.compare",
    "ordinal.add",
    "constructions.snake_bijection",
)
SPAN_STATS = {"calls": "count", "busy_ms": "ms", "p50_us": "us", "p99_us": "us"}
CURVE_N = (8, 16, 24, 32, 40, 48)
SNF_DENSE = (16, 24, 32)


def per_layer_units() -> dict:
    units = {f"{f}.{s}": u for f in SPAN_FUNCS + ("cli.main",) for s, u in SPAN_STATS.items()}
    units.update({"endspace.nodes.p50": "count", "endspace.nodes.p99": "count", "decide.witness_cache_hit_ratio": "ratio"})
    units.update({f"homology.abelianize.ms.n{n}": "ms" for n in CURVE_N})
    units.update({f"homology.abelianize.peak_rss_mb.n{n}": "MB" for n in CURVE_N})
    units.update({
        "homology.abelianize.growth_exponent": "1",
        "homology.exponent_matrix.nonzero_row_frac": "ratio",
        "homology.prop74_square.p50_us": "us",
        "homology.poincare_series.p50_us": "us",
    })
    units.update({f"homology.smith_normal_form.ms.dense{s}": "ms" for s in SNF_DENSE})
    units.update({"homology.smith_normal_form.max_digits": "count", "startup.import_ms": "ms", "trace.overhead_frac": "ratio"})
    return units


PER_LAYER = per_layer_units()


# -- statistics ---------------------------------------------------------------


def pct(xs, q):
    """Percentile by linear interpolation between order statistics."""
    s = sorted(xs)
    pos = (len(s) - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


# -- engine children ----------------------------------------------------------


class Child:
    """Outcome of one engine child: exit code, wall seconds, max RSS, output."""

    def __init__(self, reply, out_path, err_path):
        self.rc, self.wall, self.rss_mb = reply["rc"], reply["wall"], reply["maxrss_kb"] / 1024
        self.out = out_path.read_text(encoding="utf-8", errors="replace")
        self.err = err_path.read_text(encoding="utf-8", errors="replace")

    @property
    def ok(self) -> bool:
        return self.rc == 0 and not self.err.strip()


class Spawner:
    """The small launcher (spawn.py) that runs every engine child, one at a time."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [PY, str(HERE / "spawn.py")], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT
        )

    def run(self, argv, timeout=60, env=ENV) -> Child:
        out_path, err_path = WORK / "stdout", WORK / "stderr"
        req = {"argv": argv, "cwd": str(ROOT), "env": env, "stdout": str(out_path), "stderr": str(err_path), "timeout": timeout}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise SystemExit("the launcher exited early")
        return Child(json.loads(reply), out_path, err_path)

    def engine(self, *args, timeout=60) -> Child:
        return self.run([PY, "-m", "infsurf", *args], timeout)

    def helper(self, *args, timeout=60, env=ENV) -> Child:
        return self.run([PY, str(HERE / "child.py"), *map(str, args)], timeout, env)

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def load_catalog(sp: Spawner):
    c = sp.helper("catalog")
    if c.rc != 0:
        raise SystemExit(f"cannot load the catalog: {c.err.strip()}")
    return json.loads(c.out)


def setup_wall(sp: Spawner, env) -> float:
    """Wall time of a fresh interpreter importing infsurf.cli."""
    c = sp.run([PY, "-c", "import infsurf.cli"], env=env)
    if c.rc != 0:
        raise SystemExit(f"import infsurf.cli failed: {c.err.strip()}")
    return c.wall


# -- checking outputs ---------------------------------------------------------


def check_lines(lines, child: Child) -> list[str]:
    """One problem string per failed batch line."""
    if child.rc != 0 or child.err.strip():
        return [f"batch exited {child.rc}: {child.err.strip()[-200:]}"] * len(lines)
    outs = child.out.splitlines()
    if len(outs) != len(lines):
        return [f"{len(outs)} output lines for {len(lines)} input lines"] * len(lines)
    problems, pairs = [], {}
    for (text, expect), raw in zip(lines, outs):
        try:
            obj = json.loads(raw)
        except ValueError:
            problems.append(f"not JSON: {raw[:80]}")
            continue
        if "error" in expect:
            err = obj.get("error") if isinstance(obj, dict) else None
            kind = err.get("kind") if isinstance(err, dict) else None
            if kind != expect["error"]:
                problems.append(f"{text[:60]}: error kind {kind!r}, expected {expect['error']}")
            continue
        found = O.check_verdict(obj)
        if not found and "catalog" in expect:
            found = O.check_expected(obj, expect["catalog"])
        if not found and "pair" in expect:
            pairs.setdefault(expect["pair"], []).append(O.answers(obj))
        problems += [f"{text[:60]}: {p}" for p in found[:1]]
    problems += [f"pair {k}: permuted rewrite changed the verdict {v}" for k, v in pairs.items() if len(set(v)) > 1] * 2
    return problems


_QLINE = re.compile(r"question (I|II|III): (yes|no|\?)(?: \((\w+)\))? \[")
_GLYPH = {k: ("?" if a == "unknown" else a, c) for k, (a, c) in O.EXPECTED_ANSWER.items()}


def check_cli(check, rc, out, err) -> list[str]:
    """Problems with the output of one CLI call."""
    if rc != 0 or err.strip():
        return [f"exit {rc}: {err.strip()[-200:]}"]
    (kind, want), = check.items()
    try:
        if kind == "verdict_text":
            got = [(m.group(2), m.group(3)) for m in _QLINE.finditer(out)]
            return [] if got == [_GLYPH[e] for e in want] else [f"text verdict {got}, expected {want}"]
        if kind == "verdict_json":
            obj = json.loads(out)
            return O.check_verdict(obj) or O.check_expected(obj, want)
        if kind == "json":
            obj = json.loads(out)
            return [] if all(obj.get(k) == v for k, v in want.items()) else [f"{out.strip()[:120]}, expected {want}"]
        if kind == "text":
            return [] if out.strip() == want else [f"{out.strip()[:80]!r}, expected {want!r}"]
        if kind == "snf":
            obj = json.loads(out)
            return O.check_snf(want, obj["diagonal"], obj["left"], obj["right"])
        if kind == "series":
            got = json.loads(out)["coefficients"] if out.lstrip().startswith("{") else [int(x) for x in out.split()]
            return [] if got == want else [f"series {got}, expected {want}"]
        if kind == "snake":
            return O.check_snake([tuple(map(int, ln.split())) for ln in out.splitlines()], want)
    except (ValueError, KeyError, TypeError) as err:
        return [f"unreadable output ({err}): {out[:80]!r}"]
    return [f"unknown check {kind}"]


# -- workloads, tracing off ---------------------------------------------------


class Result:
    """Metrics of one run, with the operations attempted and the failures."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.metrics: dict[str, float] = {}
        self.notes: dict[str, str] = {}
        self.samples: dict[str, list] = {}

    def add(self, name, value, note=""):
        self.metrics[name] = value
        self.notes[name] = note


SETUPS_PER_ROUND = 2


def paired(sp: Spawner, seconds, one_pass):
    """Whole rounds until the next would end after `seconds`.  A round runs
    one pass of the workload on the engine under test and one on the
    reference engine, then interpreter starts on each, taking turns at
    going first.  Returns the rounds whose two passes both ran, as
    (engine pass, reference pass, engine set-ups, reference set-ups)."""
    rounds, walls = [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start + walls[-1] <= seconds:
        t0 = time.perf_counter()
        order = (False, True) if len(walls) % 2 == 0 else (True, False)
        got = {ref: one_pass(len(walls), ref) for ref in order}
        setup = {False: [], True: []}
        for _ in range(SETUPS_PER_ROUND):
            for ref in order:
                setup[ref].append(setup_wall(sp, REF_ENV if ref else ENV))
        if got[False] is not None and got[True] is not None:
            rounds.append((got[False], got[True], setup[False], setup[True]))
        walls.append(time.perf_counter() - t0)
    return rounds


def paired_metrics(res: Result, workload, rounds, units, what):
    """A burst of other tenants' work slows a stretch of one pass, so each
    operation's time is its median over the rounds, for both engines.  The
    reference engine's medians, against its time at the calibration
    machine's speed, give the host's speed in this run; every time of the
    engine under test is scaled by that."""
    n = len(rounds)
    eng = [statistics.median(r[0][j] for r in rounds) for j in range(len(rounds[0][0]))]
    ref = [statistics.median(r[1][j] for r in rounds) for j in range(len(rounds[0][1]))]
    k = REF_PASS_S[workload] / sum(ref)
    res.add("ops_per_s", units / (k * sum(eng)),
            f"work of one pass over the sum of its operations' medians over {n} rounds, {what}; host at {1 / k:.3f}x the calibration time")
    res.add("op_p50_ms", 1e3 * k * pct(eng, 50), f"p50 over {len(eng)} operations of their median time, {what}")
    res.add("op_p90_ms", 1e3 * k * pct(eng, 90), f"p90 of the same, {len(eng) // 10} operations beyond it")
    eng_setup = [x for r in rounds for x in r[2]]
    ref_setup = [x for r in rounds for x in r[3]]
    res.add("setup_s", statistics.median(eng_setup) * REF_SETUP_S / statistics.median(ref_setup),
            f"interpreter start with `import infsurf.cli`, median of {len(eng_setup)}")
    res.samples.update({
        "engine_op_s": [r[0] for r in rounds],
        "ref_op_s": [r[1] for r in rounds],
        "engine_setup_s": [r[2] for r in rounds],
        "ref_setup_s": [r[3] for r in rounds],
    })


def run_batch(sp: Spawner, seed, seconds, catalog) -> Result:
    """One real `python -m infsurf decide --jsonl FILE` call, checked line by
    line, gives the verdicts and the peak RSS.  The timed passes make the
    same call through cli.main in fresh children, with a time stamp at every
    line written; the engine's passes must print the checked output byte
    for byte."""
    res = Result()
    lines = gen.batch_mixed(seed, catalog)
    path = WORK / "batch_mixed.txt"
    path.write_text("".join(text + "\n" for text, _ in lines), encoding="utf-8")
    rel = str(path.relative_to(ROOT))
    real = sp.engine("decide", "--jsonl", rel, timeout=120)
    res.attempted += len(lines)
    res.failures += check_lines(lines, real)
    out_path, text_path = WORK / "batch_pass.json", WORK / "batch_pass.txt"

    def one_pass(_i, ref):
        child = sp.helper("batch", rel, out_path, text_path, timeout=120, env=REF_ENV if ref else ENV)
        if not ref:
            res.attempted += len(lines)
        if not child.ok or not out_path.exists():
            res.failures += [f"{'reference' if ref else 'engine'} batch pass exited {child.rc}: {child.err.strip()[-200:]}"] * len(lines)
            return None
        got = json.loads(out_path.read_text())
        out_path.unlink()
        if not ref and (got["rc"] != 0 or got["err"].strip() or text_path.read_text(encoding="utf-8") != real.out):
            res.failures += [f"cli.main batch pass (exit {got['rc']}) differs from the checked `decide --jsonl` output"] * len(lines)
        return [ns / 1e9 for ns in got["ns"]]

    rounds = paired(sp, seconds, one_pass)
    if rounds:
        paired_metrics(res, "batch_mixed", rounds, len(lines), f"{len(lines)} lines a pass")
    res.add("peak_rss_mb", real.rss_mb, "max RSS of the `decide --jsonl` call")
    return res


def run_calculus(sp: Spawner, seed, seconds) -> Result:
    res = Result()
    ops = gen.calculus(seed)
    ops_path, out_path = WORK / "calculus_ops.json", WORK / "calculus_out.json"
    ops_path.write_text(json.dumps(ops))
    reference, rss = [], []

    def one_pass(i, ref):
        child = sp.helper("calculus", ops_path, int(i == 0 and not ref), out_path, timeout=120, env=REF_ENV if ref else ENV)
        if not ref:
            res.attempted += len(ops)
        if not child.ok or not out_path.exists():
            res.failures += [f"{'reference' if ref else 'engine'} calculus pass exited {child.rc}: {child.err.strip()[-300:]}"] * len(ops)
            return None
        got = json.loads(out_path.read_text())
        out_path.unlink()
        if not ref:
            res.failures += got["failures"]
            if not reference:
                reference.extend(got["digests"])
            res.failures += [f"op {k}: {ops[k]['fn']} result changed between passes"
                             for k, (a, b) in enumerate(zip(got["digests"], reference)) if a != b]
            rss.append(child.rss_mb)
        return [ns / 1e9 for ns in got["ns"]]

    rounds = paired(sp, seconds, one_pass)
    if rounds:
        paired_metrics(res, "calculus_lib", rounds, len(ops), f"{len(ops)} library calls a pass")
    if rss:
        res.add("peak_rss_mb", statistics.median(rss), f"max RSS per pass child, median of {len(rss)}")
    return res


def end_to_end(sp: Spawner, workload, seed, seconds, catalog) -> Result:
    setup_wall(sp, ENV), setup_wall(sp, REF_ENV)  # write the bytecode caches
    if workload == "calculus_lib":
        return run_calculus(sp, seed, seconds)
    return run_batch(sp, seed, seconds, catalog)


# -- workloads, traced --------------------------------------------------------


def replay_inputs(workload, seed, catalog):
    return gen.calculus(seed) if workload == "calculus_lib" else gen.batch_mixed(seed, catalog)


def span_metrics(res: Result, spans_path: Path):
    with open(spans_path) as fh:
        header = json.loads(fh.readline())
        durations: dict[str, list[int]] = {}
        for line in fh:
            name, start, end, _op = json.loads(line)
            durations.setdefault(name, []).append(end - start)
    traced, untraced = durations.pop("pass.traced"), durations.pop("pass.untraced")
    for name in SPAN_FUNCS:
        d = durations.get(name, [])
        res.add(f"{name}.calls", len(d) / len(traced), "calls per traced pass")
        res.add(f"{name}.busy_ms", sum(d) / len(traced) / 1e6, "time inside the calls per traced pass")
        res.add(f"{name}.p50_us", pct(d, 50) / 1e3 if d else 0.0)
        res.add(f"{name}.p99_us", pct(d, 99) / 1e3 if d else 0.0)
    res.add("trace.overhead_frac", statistics.median(traced) / statistics.median(untraced) - 1,
            f"traced versus untraced replay, medians of {len(traced)} passes each")
    counts = header["counts"]
    nodes = counts.get("nodes") or [0]
    res.add("endspace.nodes.p50", pct(nodes, 50), "expression nodes per parsed line")
    res.add("endspace.nodes.p99", pct(nodes, 99), "expression nodes per parsed line")
    lookups = counts["witness_cache_hits"] + counts["witness_cache_misses"]
    res.add("decide.witness_cache_hit_ratio", counts["witness_cache_hits"] / lookups if lookups else 0.0,
            f"{counts['witness_cache_hits']} hits of {lookups} witness lookups in the traced passes")


def cli_metrics(sp: Spawner, res: Result, seed, catalog):
    """Every subcommand through in-process `cli.main(argv)`, outputs checked."""
    ops = gen.cli_calls(seed, catalog)
    ops_path, out_path = WORK / "cli_ops.json", WORK / "cli_out.json"
    ops_path.write_text(json.dumps(ops))
    out_path.unlink(missing_ok=True)
    c = sp.helper("cli", ops_path, out_path, timeout=120)
    res.attempted += len(ops)
    if not c.ok or not out_path.exists():
        res.failures += [f"cli probe exited {c.rc}: {c.err.strip()[-200:]}"] * len(ops)
        return
    calls = json.loads(out_path.read_text())
    for (argv, check), call in zip(ops, calls):
        problems = check_cli(check, call["rc"], call["out"], call["err"])
        res.failures += [f"{' '.join(argv)[:80]}: {p}" for p in problems[:1]]
    ns = [call["ns"] for call in calls]
    res.add("cli.main.calls", len(ns), "one pass after a warm-up pass")
    res.add("cli.main.busy_ms", sum(ns) / 1e6, "time inside the calls")
    res.add("cli.main.p50_us", pct(ns, 50) / 1e3)
    res.add("cli.main.p99_us", pct(ns, 99) / 1e3)


def probe_metrics(sp: Spawner, res: Result, seed):
    points = []
    for n in CURVE_N:
        c = sp.helper("curve", n, timeout=60)
        res.attempted += 1
        if not c.ok:
            res.failures.append(f"curve n={n} exited {c.rc}: {c.err.strip()[-200:]}")
            continue
        p = json.loads(c.out)
        if p["group"] != O.spherical_braid_h1(n):
            res.failures.append(f"spherical braid group for n={n} is {p['group']}")
        points.append((n, p["ns"] / 1e6))
        res.add(f"homology.abelianize.ms.n{n}", p["ns"] / 1e6, "one abelianization in its own child")
        res.add(f"homology.abelianize.peak_rss_mb.n{n}", c.rss_mb, "max RSS of that child")
        if n == CURVE_N[-1]:
            res.add("homology.exponent_matrix.nonzero_row_frac", p["nonzero_rows"] / p["rows"], f"n={n}")
    xs, ys = [math.log(n) for n, _ in points], [math.log(ms) for _, ms in points]
    if len(xs) > 1:
        mx, my = statistics.fmean(xs), statistics.fmean(ys)
        slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
        res.add("homology.abelianize.growth_exponent", slope, "log-log slope of time over n")
    c = sp.helper("probe", seed, timeout=60)
    res.attempted += 1
    if not c.ok:
        res.failures.append(f"probe exited {c.rc}: {c.err.strip()[-200:]}")
    else:
        p = json.loads(c.out)
        res.add("homology.prop74_square.p50_us", p["prop74_square_p50_us"], "n = 4..48")
        res.add("homology.poincare_series.p50_us", p["poincare_series_p50_us"], "wreath, p = 1..199, degree 20")
        for s in SNF_DENSE:
            res.add(f"homology.smith_normal_form.ms.dense{s}", p[f"snf_dense{s}_ms"], "median of 3 seeded matrices")
        res.add("homology.smith_normal_form.max_digits", p["max_digits"], "largest transform entry")
    imports = []
    for _ in range(5):
        c = sp.run([PY, "-X", "importtime", "-c", "import infsurf.cli"])
        m = re.search(r"\|\s*(\d+)\s*\|\s*infsurf\.cli\s*$", c.err, re.M)
        if m:
            imports.append(int(m.group(1)) / 1e3)
    res.attempted += 1
    if imports:
        res.add("startup.import_ms", statistics.median(imports), "cumulative import of infsurf.cli, -X importtime")
    else:
        res.failures.append("no infsurf.cli line in -X importtime output")


def traced(sp: Spawner, workload, seed, seconds, catalog) -> Result:
    res = Result()
    inputs = replay_inputs(workload, seed, catalog)
    inputs_path, spans_path = WORK / f"replay_{workload}.json", WORK / f"spans_{workload}_{seed}.jsonl"
    inputs_path.write_text(json.dumps(inputs))
    spans_path.unlink(missing_ok=True)
    probe_metrics(sp, res, seed)
    cli_metrics(sp, res, seed, catalog)
    c = sp.helper("replay", workload, inputs_path, seconds, seed, spans_path, timeout=seconds + 120)
    res.attempted += 1
    if not c.ok or not spans_path.exists():
        res.failures.append(f"replay exited {c.rc}: {c.err.strip()[-300:]}")
        return res
    span_metrics(res, spans_path)
    return res


# -- reporting ----------------------------------------------------------------


def source_digest() -> str:
    h = hashlib.sha1()
    for p in sorted((ROOT / "src").rglob("*.py")):
        h.update(p.relative_to(ROOT).as_posix().encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:12]


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_one(sp: Spawner, workload, seed, seconds, trace, catalog, load_before):
    res = (traced if trace else end_to_end)(sp, workload, seed, seconds, catalog)
    units = PER_LAYER if trace else END_TO_END
    missing = [m for m in units if m not in res.metrics]
    res.failures += [f"metric {m} was not measured" for m in missing]
    stamp = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "commit": commit(),
        "src_sha1": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_before": load_before,
        "loadavg_after": list(os.getloadavg()),
    }
    print("env " + json.dumps(stamp))
    (WORK / f"samples_{workload}_{seed}_{trace}.json").write_text(json.dumps({"env": stamp, **res.samples}))
    for name, unit in units.items():
        value = res.metrics.get(name, float("nan"))
        note = res.notes.get(name, "")
        print(f"{workload:13s} {name:44s} {value:14.6g} {unit:6s} {note}")
    failed = len(res.failures)
    attempted = max(res.attempted, failed, 1)
    print(f"{workload:13s} {'ops_failed_frac':44s} {failed / attempted:14.6g} {'ratio':6s} {failed} of {attempted} operations failed")
    for f in res.failures[:10]:
        print(f"  failure: {f}")
    metrics = {m: {"value": res.metrics[m], "unit": u} for m, u in units.items() if math.isfinite(res.metrics.get(m, math.nan))}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "infsurf" / "__init__.py").is_file():
        print(f"no infsurf sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    load_before = list(os.getloadavg())
    sp = Spawner()
    try:
        catalog = load_catalog(sp)
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for w in workloads:
            results[w] = run_one(sp, w, args.seed, args.seconds, args.trace, catalog, load_before)
            load_before = list(os.getloadavg())
    finally:
        sp.close()
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
