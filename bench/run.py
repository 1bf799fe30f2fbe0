#!/usr/bin/env python3
"""Benchmark for vdwkit: certified W(r, k) values and the radix analysis.

Run from the root of a checkout:

    python3 bench/run.py --workload proof-k3 --seed 1 --seconds 15 --trace 0

Workloads (see README.md for why each exists):
  proof-k3        W(4,3) = 76: one exhaustive proof on the k = 3 mask path
  climb-counter   W(2,5) = 178: a climb of 28 lengths on the counter path
  radix-analysis  the paper's radix, bound and ratio analysis, no big search

Every run makes the same search calls: five fresh-process set-ups, 102
small exact derivations (W(2,3), W(3,3), W(2,4)), five `vdw search`
calls on W(2,4), the workload's headline derivations and three
node-budgeted W(2,6) + W(3,4) pairs.  An analysis batch (radix round
trips, full analysis passes, certificate verification) follows every
second round of small derivations, and more batches fill the rest of
the --seconds window.  Each output is checked by bench/checks.py, which
does not use vdwkit.

The last line of standard output is one JSON object: correct,
attempted, failed and metrics; the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1.  A traced run also writes its
spans to .bench_build/vdwbench/spans/.  The program is imported from
src/ of the checkout; without it the run exits with code 2.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from bisect import bisect_right
from collections import defaultdict
from pathlib import Path

import checks
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "vdwbench"

SMALL = ((2, 3), (3, 3), (2, 4))
SMALL_ROUNDS = 34  # 102 latency samples, so ten or more lie beyond p90
CLI_PAIR = (2, 4)
CLI_EVERY = 7  # a `vdw search` call every 7th round: 5 per run
BATCH_EVERY = 2  # an analysis batch every 2nd round: 17 per run
BOUND_PAIRS = ((2, 6), (3, 4))
BOUND_NODES = 20_000  # fixed, so bound_s measures speed, not the budget
BOUND_RUNS = 3
SETUPS = 5

# headline: the pair whose derivation time is exact_s; runs: how many
# times the run derives it (0: exact_s comes from the small W(2,4) samples)
WORKLOADS = {
    "proof-k3": {"headline": (4, 3), "runs": 1, "setup": "kernel"},
    "climb-counter": {"headline": (2, 5), "runs": 3, "setup": "kernel"},
    "radix-analysis": {"headline": (2, 4), "runs": 0, "setup": "registry"},
}

# An analysis batch follows every BATCH_EVERY-th round of small
# derivations, and more batches fill the window.  Its inputs are fresh seeded draws of fixed sizes,
# so every batch, and every seed, costs about the same.
SWEEP_VALUES = 150  # consecutive values from [10**6, 2 * 10**6), each in bases 2..16
BIG_BITS = (400, 800, 1200)  # one value of each length, each in bases 2..16
EXTRA_BITS = (8, 40, 72, 104, 136, 168)  # floor_log / interval / log_display inputs
PASSES = 3  # full analysis passes per batch
MUTANTS = 4  # recolored copies of each certificate
BASES = range(2, 17)

# The shared 2-vCPU box the bounds were set on shifts between two speeds
# about a third apart, for seconds to minutes at a time.  A fixed
# pure-Python loop is timed between the measured calls.  The samples of
# short calls (set-ups, small derivations, analysis batches) are rescaled
# to the speed at which that loop takes REF_SECONDS (this box in its
# faster state); the loop slows in step with both the C kernel and the
# interpreter (README.md).  The headline derivations and budgeted pairs
# stay raw wall time: the speed can change during them, and they average
# it out themselves.
REF_SECONDS = 0.35e-3


def reference_loop() -> int:
    acc, table = 0, {}
    for i in range(3000):
        acc = (acc * 31 + i) % 1000003
        table[i & 255] = acc
    return acc


SETUP_CODE = {
    "kernel": (
        "import sys, vdwkit\n"
        "from vdwkit._engine import compiled_library\n"
        "sys.exit(0 if compiled_library() is not None else 3)\n"
    ),
    "registry": (
        "import sys, vdwkit\n"
        "sys.exit(0 if vdwkit.default_registry().lookup(2, 3) is not None else 3)\n"
    ),
}


class Run:
    """Counts, samples and checks of one benchmark run."""

    def __init__(self, tracer: tracing.Tracer):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.samples: dict[str, list] = defaultdict(list)  # name -> [(value, start, end)]
        self.refs: list[tuple[float, float]] = []  # (time, reference loop seconds)
        self.work: dict[str, float] = defaultdict(float)  # calls and seconds of this batch
        self.certs: dict = {}  # (r, k) -> colors of the latest small or budgeted derivation

    def fail(self, what: str, problems=()) -> None:
        self.failed += 1
        if problems:
            self.wrong += 1
        print(f"FAILED {what}: {'; '.join(problems) or 'raised'}", file=sys.stderr)

    def check(self, what: str, problems: list[str]) -> bool:
        if problems:
            self.fail(what, problems)
        return not problems

    def checkpoint(self) -> None:
        """Time the reference loop: best of five."""
        best = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            reference_loop()
            best = min(best, time.perf_counter() - t0)
        self.refs.append((time.perf_counter(), best))

    def add(self, name: str, value: float, start: float, end: float) -> None:
        self.samples[name].append((value, start, end))

    def raw(self, name: str) -> list[float]:
        return [v for v, _, _ in self.samples[name]]

    def slowness(self, t: float) -> float:
        """Mean reference time of the checkpoints either side of t, over REF_SECONDS."""
        i = bisect_right(self.refs, (t, float("inf")))
        near = [self.refs[j][1] for j in (i - 1, i) if 0 <= j < len(self.refs)]
        return sum(near) / len(near) / REF_SECONDS

    def at_reference(self, name: str, rate: bool = False) -> list[float]:
        """The samples rescaled to the reference speed."""
        return [v * self.slowness((start + end) / 2) if rate
                else v / self.slowness((start + end) / 2)
                for v, start, end in self.samples[name]]


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q: int):
    """The q-th percentile by statistics.quantiles (exclusive method)."""
    if len(values) < 2:
        return median(values)
    return statistics.quantiles(values, n=100)[q - 1]


# ---------------------------------------------------------------- set-up


def fresh_setup(kind: str) -> float:
    """Wall time of a new interpreter that imports vdwkit and builds the
    kernel into an empty cache (kernel) or loads the registry (registry)."""
    cache = tempfile.mkdtemp(prefix="setup-", dir=WORK)
    env = dict(os.environ, PYTHONPATH=str(SRC), VDWKIT_CACHE_DIR=cache)
    try:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE[kind]],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        dt = time.perf_counter() - t0
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up exited {proc.returncode}: {proc.stderr.strip()}")
    return dt


# ---------------------------------------------------------------- search


def derive(run: Run, vdw, r: int, k: int, role: str, budget=None):
    """One compute_vdw call, timed and checked; returns its (start, end)
    or None."""
    what = f"compute_vdw({r},{k}) [{role}]"
    run.attempted += 1
    try:
        with run.tracer.span("search.compute_vdw", r=r, k=k, role=role) as attrs:
            t0 = time.perf_counter()
            out = vdw.compute_vdw(r, k, budget)
            t1 = time.perf_counter()
            attrs.update(value=out.value, status=out.status)
    except Exception:
        traceback.print_exc()
        run.fail(what)
        return None
    colors = out.certificate.colors
    judge = checks.check_budgeted if budget is not None else checks.check_exact
    problems = judge(r, k, out.status, out.value, colors)
    if (out.r, out.k) != (r, k):
        problems.append(f"outcome names W({out.r},{out.k})")
    if not run.check(what, problems):
        return None
    if role != "headline":
        run.certs[(r, k)] = colors
    return t0, t1


def cli_search(run: Run, cli, r: int, k: int):
    """`vdw search --format json` through cli.main, timed and checked."""
    what = f"cli search W({r},{k})"
    run.attempted += 1
    out = io.StringIO()
    try:
        with run.tracer.span("cli.main", r=r, k=k):
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out):
                code = cli.main(["search", "--r", str(r), "--k", str(k), "--format", "json"])
            t1 = time.perf_counter()
        doc = json.loads(out.getvalue())
        cert = doc["certificate"]
        problems = checks.check_exact(r, k, doc["status"], doc["value"], cert["colors"])
    except Exception:
        traceback.print_exc()
        run.fail(what)
        return
    if code != 0:
        problems.append(f"exit code {code}")
    if run.check(what, problems):
        run.add("cli_s", t1 - t0, t0, t1)


def bound_pair(run: Run, vdw) -> None:
    spans = [derive(run, vdw, r, k, "bound", vdw.SearchBudget(max_nodes=BOUND_NODES))
             for r, k in BOUND_PAIRS]
    if None not in spans:
        run.add("bound_s", sum(t1 - t0 for t0, t1 in spans), spans[0][0], spans[-1][1])
    run.checkpoint()


def small_round(run: Run, vdw, cli, rng: random.Random, index: int) -> None:
    for r, k in rng.sample(SMALL, len(SMALL)):
        span = derive(run, vdw, r, k, "small")
        if span is not None:
            run.add("small_s", span[1] - span[0], *span)
            run.add("small_s_%d_%d" % (r, k), span[1] - span[0], *span)
    if index % CLI_EVERY == 0:
        cli_search(run, cli, *CLI_PAIR)
    run.checkpoint()


def exact_seconds(run: Run, spec: dict) -> list[float]:
    """The headline derivations, raw, or else the small ones of the
    headline pair, rescaled."""
    if spec["runs"]:
        return run.raw("exact_s")
    return run.at_reference("small_s_%d_%d" % spec["headline"])


def measure(run: Run, vdw, cli, spec: dict, rng: random.Random, deadline: float) -> None:
    """The run's fixed calls, spread over the window, then analysis
    batches until the deadline.

    The machine's speed drifts, so the small derivations and analysis
    batches are cut into rounds placed evenly between the long calls,
    and the reference loop is timed between calls (see REF_SECONDS).
    """
    run.checkpoint()
    bound_pair(run, vdw)  # first, so its certificates are verified in every batch
    # the remaining long calls, each kind spaced evenly over the window
    long_calls = sorted(
        [((i + 0.5) / spec["runs"], "headline") for i in range(spec["runs"])]
        + [((i + 0.5) / (BOUND_RUNS - 1), "bound") for i in range(BOUND_RUNS - 1)]
    )
    long_calls = [kind for _, kind in long_calls]
    gaps = len(long_calls) + 1
    index = 0
    for gap in range(gaps):
        # the rounds split over the gaps as evenly as whole numbers allow
        for _ in range(SMALL_ROUNDS * (gap + 1) // gaps - SMALL_ROUNDS * gap // gaps):
            small_round(run, vdw, cli, rng, index)
            if index % BATCH_EVERY == 0:
                analysis_batch(run, vdw, rng)
            index += 1
        if gap < len(long_calls):
            if long_calls[gap] == "bound":
                bound_pair(run, vdw)
            else:
                span = derive(run, vdw, *spec["headline"], "headline")
                if span is not None:
                    run.add("exact_s", span[1] - span[0], *span)
                run.checkpoint()
    while time.perf_counter() < deadline:
        analysis_batch(run, vdw, rng)


# ---------------------------------------------------------------- analysis


class Inputs:
    """Seeded inputs of one analysis batch."""

    def __init__(self, rng: random.Random, vdw, certs):
        start = rng.randrange(10**6, 2 * 10**6)
        self.sweep = range(start, start + SWEEP_VALUES)
        self.big = [rng.getrandbits(bits) | (1 << (bits - 1)) for bits in BIG_BITS]
        self.extra = []  # (value, base, r, k, places)
        for bits in EXTRA_BITS:
            value = rng.getrandbits(bits) | (1 << (bits - 1))
            self.extra.append(
                (value, rng.choice(BASES), rng.randint(2, 6), rng.randint(3, 8), rng.randint(3, 12))
            )
        self.certs, self.verdicts = [], []
        for r, k, colors in certs:
            versions = [list(colors)]
            for _ in range(MUTANTS):
                mutant = list(colors)
                i = rng.randrange(len(mutant))
                mutant[i] = rng.choice([c for c in range(r) if c != mutant[i]])
                versions.append(mutant)
            for cs in versions:
                self.certs.append(vdw.Certificate(r, k, len(cs), vdw.Coloring(r, tuple(cs))))
                self.verdicts.append(checks.progression_free(cs, r, k))


PAIRS = sorted(checks.PUBLISHED)
THEOREM = [(r, k, k - 1 if (r, k - 1) in checks.PUBLISHED else None) for r, k in PAIRS]
RATIO_PAIRS = [(r, k) for r, k in PAIRS if (r, k + 1) in checks.PUBLISHED]


class Expected:
    """What the analysis of the published values must return, worked
    out once by checks.py."""

    def __init__(self):
        pub = checks.PUBLISHED
        self.theorem = [checks.theorem_facts(*t) for t in THEOREM]
        self.ratio = [checks.ratio_facts(r, k) for r, k in RATIO_PAIRS]
        self.table1 = [(r, k, checks.ilog(pub[(r, k)], r), pub[(r, k)],
                        checks.log_text(pub[(r, k)], r, 5)) for r, k in PAIRS]
        self.table2 = []
        for r, k in PAIRS:
            n = checks.ilog(pub[(r, k)], r)
            with checks.decimal.localcontext() as ctx:
                ctx.prec = 40
                root = checks.truncated_text(checks.decimal.Decimal(n + 1).sqrt(), 3)
            self.table2.append((r, k, n, pub[(r, k)], root, f"{r}^{n + 1}", f"{r}^{k * k}"))
        self.gaps = [((r, k), (r, k + 1), f["gap"]) for (r, k), f in zip(RATIO_PAIRS, self.ratio)]


EXPECTED = Expected()


@contextlib.contextmanager
def timed(run: Run, name: str, count: int):
    """Time one batch of `count` calls of the same kind."""
    with run.tracer.span(name, count=count):
        t0 = time.perf_counter()
        yield
        run.work[name + ".s"] += time.perf_counter() - t0
    run.work[name + ".n"] += count


def radix_batch(run: Run, vdw, inp: Inputs) -> None:
    to_radix, from_radix = vdw.to_radix, vdw.from_radix
    for kind, values in (("", inp.sweep), ("big_", inp.big)):
        jobs = [(v, b) for v in values for b in BASES]
        run.attempted += len(jobs)
        with timed(run, f"radix.{kind}to_radix", len(jobs)):
            reps = [to_radix(v, b) for v, b in jobs]
        with timed(run, f"radix.{kind}from_radix", len(jobs)):
            back = [from_radix(rep.digits, b) for rep, (v, b) in zip(reps, jobs)]
        for (v, b), rep, w in zip(jobs, reps, back):
            problems = checks.check_digits(v, b, rep.digits)
            if w != v:
                problems.append(f"from_radix gave {w}")
            if rep.exponent != len(rep.digits) - 1:
                problems.append(f"exponent {rep.exponent}")
            if problems:
                run.fail(f"radix round trip {v} base {b}", problems)


def analysis_pass(run: Run, vdw, inp: Inputs) -> None:
    """One full pass of the paper's analysis over the published values,
    plus floor logs, intervals and log displays of the seeded values."""
    reg = vdw.default_registry()
    run.attempted += 1
    problems = []
    pub = checks.PUBLISHED
    jobs = [(w, b) for w in list(pub.values()) + [e[0] for e in inp.extra] for b in BASES]

    with timed(run, "registry.lookup", len(PAIRS)):
        found = [reg.lookup(r, k) for r, k in PAIRS]
    problems += [f"lookup W{p} gave {f}" for p, f in zip(PAIRS, found)
                 if f is None or f.value != pub[p]]

    with timed(run, "radix.floor_log", len(jobs)):
        logs = [vdw.floor_log(w, b) for w, b in jobs]
    problems += [f"floor_log({w},{b}) = {n}" for (w, b), n in zip(jobs, logs)
                 if not b**n <= w < b ** (n + 1)]

    duals = [(pub[p], *p) for p in PAIRS] + [(e[0], e[2], e[3]) for e in inp.extra]
    with timed(run, "radix.interval", len(jobs) + len(duals)):
        boxes = [vdw.containing_interval(w, b) for w, b in jobs]
        meets = [vdw.dual_interval_intersection(w, r, k) for w, r, k in duals]
    for (w, b), box in zip(jobs, boxes):
        n = checks.ilog(w, b)
        if (box.low, box.high) != (b**n, b ** (n + 1)):
            problems.append(f"containing_interval({w},{b}) = [{box.low},{box.high})")
    for (w, r, k), box in zip(duals, meets):
        lo = max(r ** checks.ilog(w, r), k ** checks.ilog(w, k))
        hi = min(r ** (checks.ilog(w, r) + 1), k ** (checks.ilog(w, k) + 1))
        if (box.low, box.high) != (lo, hi):
            problems.append(f"dual_interval_intersection({w},{r},{k})")

    shows = [(pub[p], p[0], 5) for p in PAIRS] + [(e[0], e[1], e[4]) for e in inp.extra]
    with timed(run, "radix.log_display", len(shows)):
        texts = [vdw.log_display(w, b, places) for w, b, places in shows]
    problems += [f"log_display({w},{b},{pl}) = {t}" for (w, b, pl), t in zip(shows, texts)
                 if t != checks.log_text(w, b, pl)]

    with timed(run, "bounds.verify_log_bound", len(PAIRS)):
        verdicts = [vdw.verify_log_bound(r, k, pub[(r, k)]) for r, k in PAIRS]
    for (r, k), v, row in zip(PAIRS, verdicts, EXPECTED.table1):
        n = row[2]
        if (v.holds, v.n_plus_one, v.k_squared) != (n + 1 <= k * k, n + 1, k * k):
            problems.append(f"verify_log_bound({r},{k})")

    with timed(run, "bounds.check_theorem", len(THEOREM)):
        reports = [vdw.check_theorem(r, k, kp) for r, k, kp in THEOREM]
    for t, rep, facts in zip(THEOREM, reports, EXPECTED.theorem):
        problems += [f"check_theorem{t}.{key} = {getattr(rep, key)}"
                     for key, want in facts.items() if getattr(rep, key) != want]

    with timed(run, "ratio.analyze", len(RATIO_PAIRS)):
        analyses = [vdw.analyze(r, k) for r, k in RATIO_PAIRS]
    for p, a, facts in zip(RATIO_PAIRS, analyses, EXPECTED.ratio):
        problems += [f"analyze{p}.{key} = {getattr(a, key)}"
                     for key, want in facts.items() if getattr(a, key) != want]

    with timed(run, "ratio.exact_identity_rhs", len(RATIO_PAIRS)):
        rhs = [vdw.exact_identity_rhs(r, k) for r, k in RATIO_PAIRS]
    problems += [f"exact_identity_rhs{p} = {q}" for p, q, facts in zip(RATIO_PAIRS, rhs, EXPECTED.ratio)
                 if q != facts["exact"]]

    with timed(run, "bounds.table1", 1):
        rows1 = vdw.table1()
    if [(q.r, q.k, q.n, q.W, q.exponent) for q in rows1] != EXPECTED.table1:
        problems.append("table1 rows")

    with timed(run, "bounds.table2", 1):
        rows2 = vdw.table2()
    if [(q.r, q.k, q.n, q.W, q.sqrt_n_plus_1, q.r_pow_n_plus_1, q.r_pow_k_squared)
            for q in rows2] != EXPECTED.table2:
        problems.append("table2 rows")

    with timed(run, "ratio.gap_survey", 1):
        gaps = vdw.gap_survey()
    if [(tuple(g.pair_lo), tuple(g.pair_hi), g.gap) for g in gaps] != EXPECTED.gaps:
        problems.append("gap_survey entries")

    run.work["analysis.passes"] += 1
    if problems:
        run.fail("analysis pass", problems)


def verify_batch(run: Run, vdw, inp: Inputs) -> None:
    run.attempted += len(inp.certs)
    with timed(run, "search.verify_certificate", len(inp.certs)):
        verdicts = [vdw.verify_certificate(c) for c in inp.certs]
    for cert, got, want in zip(inp.certs, verdicts, inp.verdicts):
        if got != want:
            run.fail(f"verify_certificate W({cert.r},{cert.k}) length {cert.length}",
                     [f"verdict {got}, independent check {want}"])


RADIX_GROUPS = ("radix.to_radix", "radix.from_radix", "radix.big_to_radix", "radix.big_from_radix")
ANALYSIS_GROUPS = (
    "registry.lookup", "radix.floor_log", "radix.interval", "radix.log_display",
    "bounds.verify_log_bound", "bounds.check_theorem", "ratio.analyze",
    "ratio.exact_identity_rhs", "bounds.table1", "bounds.table2", "ratio.gap_survey",
)


def analysis_batch(run: Run, vdw, rng: random.Random) -> None:
    """Radix round trips, full analysis passes and certificate checks on
    fresh inputs; each rate of the batch becomes one sample."""
    run.work = work = defaultdict(float)
    inp = Inputs(rng, vdw, [(r, k, colors) for (r, k), colors in sorted(run.certs.items())])
    t0 = time.perf_counter()
    radix_batch(run, vdw, inp)
    for _ in range(PASSES):
        analysis_pass(run, vdw, inp)
    verify_batch(run, vdw, inp)
    t1 = time.perf_counter()
    run.checkpoint()

    def add_rate(name, calls, seconds):
        if seconds > 0:
            run.add(name, calls / seconds, t0, t1)

    for group in RADIX_GROUPS + ANALYSIS_GROUPS + ("search.verify_certificate",):
        add_rate("rate:" + group, work[group + ".n"], work[group + ".s"])
        if work[group + ".n"]:
            run.add("call:" + group, work[group + ".s"] / work[group + ".n"], t0, t1)
    add_rate("radix_ops_per_s", work["radix.to_radix.n"] + work["radix.big_to_radix.n"],
             sum(work[g + ".s"] for g in RADIX_GROUPS))
    add_rate("analysis_per_s", work["analysis.passes"], sum(work[g + ".s"] for g in ANALYSIS_GROUPS))
    add_rate("verify_per_s", work["search.verify_certificate.n"],
             work["search.verify_certificate.s"])


# ---------------------------------------------------------------- metrics


def end_to_end(run: Run, spec: dict) -> dict:
    """Medians (and the p90) of the samples, the short ones rescaled."""
    small_ms = [1e3 * s for s in run.at_reference("small_s")]
    return {
        "setup_s": (median(run.at_reference("setup_s")), "s"),
        "exact_s": (median(exact_seconds(run, spec)), "s"),
        "small_exact_p50_ms": (median(small_ms), "ms"),
        "small_exact_p90_ms": (percentile(small_ms, 90), "ms"),
        "bound_s": (median(run.raw("bound_s")), "s"),
        "radix_ops_per_s": (median(run.at_reference("radix_ops_per_s", rate=True)), "1/s"),
        "analysis_per_s": (median(run.at_reference("analysis_per_s", rate=True)), "1/s"),
        "verify_per_s": (median(run.at_reference("verify_per_s", rate=True)), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def covered(start: float, end: float, spans) -> float:
    """Length of [start, end] covered by the union of the spans."""
    total, reach = 0.0, start
    for s in sorted(spans, key=lambda s: s["start"]):
        lo, hi = max(s["start"], reach), min(s["end"], end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def length_profile(children, found: int) -> dict:
    """Per target length T of one compute_vdw call: wall interval,
    kernel and split nodes, kernel busy time, nodes per cube and the
    cubes that found a coloring."""
    lengths: dict = {}
    for s in children:
        if "T" not in s:
            continue
        t = lengths.setdefault(s["T"], {"start": s["start"], "end": s["end"], "nodes": 0,
                                        "split": 0, "busy": 0.0, "cubes": defaultdict(int),
                                        "found": []})
        t["start"], t["end"] = min(t["start"], s["start"]), max(t["end"], s["end"])
        if s["name"] == "engine.split_into_cubes":
            t["split"] += s["nodes"]
        elif s["name"] == "kernel.step":
            t["nodes"] += s["nodes"]
            t["busy"] += s["end"] - s["start"]
            t["cubes"][s["cube"]] += s["nodes"]
            if s["status"] == found:
                t["found"].append(s["cube"])
    return lengths


HEADLINE_UNITS = {
    "search.lengths": "count", "search.climb_s": "s", "search.climb_nodes": "count",
    "search.moot_nodes": "count", "search.proof_s": "s", "search.proof_nodes": "count",
    "search.worker_util": "ratio", "search.cube_max_share": "ratio",
}


def headline_metrics(op, children, workers: int, found: int) -> dict:
    """The HEADLINE_UNITS figures of one headline derivation."""
    lengths = length_profile(children, found)
    value = op["value"]
    climb = [t for T, t in lengths.items() if T < value]
    proof = lengths.get(value) if op["status"] == "exact" else None
    moot = 0
    for t in climb:
        if t["found"] and None not in t["found"]:
            win = min(t["found"])
            moot += sum(n for c, n in t["cubes"].items() if c is not None and c > win)
    out = {
        "search.lengths": len(lengths),
        "search.climb_s": sum(t["end"] - t["start"] for t in climb),
        "search.climb_nodes": sum(t["nodes"] + t["split"] for t in climb),
        "search.moot_nodes": moot,
        "search.proof_s": 0.0,
        "search.proof_nodes": 0,
        "search.worker_util": 0.0,
        "search.cube_max_share": 0.0,
    }
    if proof is not None:
        wall = proof["end"] - proof["start"]
        out.update({
            "search.proof_s": wall,
            "search.proof_nodes": proof["nodes"] + proof["split"],
            "search.worker_util": proof["busy"] / (workers * wall) if wall else 0.0,
            "search.cube_max_share": (max(proof["cubes"].values()) / proof["nodes"]
                                      if proof["nodes"] else 0.0),
        })
    return out


def per_layer(run: Run, spec: dict, build_s: float, traced_exact_s: float) -> dict:
    from vdwkit._engine import ST_FOUND

    spans = run.tracer.spans
    named = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        named[s["name"]].append(s)
        if s["op"] != s["id"]:
            children[s["op"]].append(s)

    def dur(s):
        return s["end"] - s["start"]

    def rate(group):  # median over the analysis batches
        return median(run.raw("rate:" + group))

    def call(group):
        return median(run.raw("call:" + group))

    steps = named["kernel.step"]
    mask = [s for s in steps if s["k"] == 3 and s["T"] <= 128]
    counter = [s for s in steps if not (s["k"] == 3 and s["T"] <= 128)]

    def nodes_per_s(group):
        t = sum(dur(s) for s in group)
        return sum(s["nodes"] for s in group) / t if t else 0.0

    ops = named["search.compute_vdw"]
    role = "headline" if spec["runs"] else "small"
    heads = [op for op in ops if op["role"] == role and (op["r"], op["k"]) == spec["headline"]]
    workers = os.cpu_count() or 1
    head = defaultdict(list)
    for op in heads:
        for key, value in headline_metrics(op, children[op["id"]], workers, ST_FOUND).items():
            head[key].append(value)
    small = [op for op in ops if op["role"] == "small"]
    witness = named["search.power_residue_witness"]
    splits = named["engine.split_into_cubes"]
    opens = named["engine.open_run"]
    small_w24 = run.at_reference("small_s_%d_%d" % CLI_PAIR)

    metrics = {
        "kernel.nodes": (sum(s["nodes"] for s in steps), "count"),
        "kernel.steps": (len(steps), "count"),
        "kernel.busy_s": (sum(dur(s) for s in steps), "s"),
        "kernel.mask_nodes_per_s": (nodes_per_s(mask), "1/s"),
        "kernel.counter_nodes_per_s": (nodes_per_s(counter), "1/s"),
        "engine.build_s": (build_s, "s"),
        "engine.opens": (len(opens), "count"),
        "engine.open_s": (sum(dur(s) for s in opens), "s"),
        "engine.split_s": (sum(dur(s) for s in splits), "s"),
        "engine.split_nodes": (sum(s["nodes"] for s in splits), "count"),
        "engine.cubes": (sum(s["cubes"] for s in splits), "count"),
        "search.witness_s": (median([dur(s) for s in witness]), "s"),
        "search.witness_len": (median([s["length"] for s in witness]), "count"),
    }
    for key, unit in HEADLINE_UNITS.items():
        metrics[key] = (median(head[key]), unit)
    metrics.update({
        "search.self_s": (median([dur(op) - covered(op["start"], op["end"], children[op["id"]])
                                  for op in small]), "s"),
        "search.verify_s": (call("search.verify_certificate"), "s"),
        "radix.to_radix_per_s": (rate("radix.to_radix"), "1/s"),
        "radix.from_radix_per_s": (rate("radix.from_radix"), "1/s"),
        "radix.big_to_radix_per_s": (rate("radix.big_to_radix"), "1/s"),
        "radix.big_from_radix_per_s": (rate("radix.big_from_radix"), "1/s"),
        "radix.floor_log_per_s": (rate("radix.floor_log"), "1/s"),
        "radix.interval_per_s": (rate("radix.interval"), "1/s"),
        "radix.log_display_per_s": (rate("radix.log_display"), "1/s"),
        "bounds.table1_s": (call("bounds.table1"), "s"),
        "bounds.table2_s": (call("bounds.table2"), "s"),
        "bounds.check_theorem_per_s": (rate("bounds.check_theorem"), "1/s"),
        "ratio.analyze_per_s": (rate("ratio.analyze"), "1/s"),
        "ratio.gap_survey_s": (call("ratio.gap_survey"), "s"),
        "registry.lookup_per_s": (rate("registry.lookup"), "1/s"),
        "cli.search_ms": (1e3 * (median(run.at_reference("cli_s")) - median(small_w24)), "ms"),
        "trace.exact_s": (traced_exact_s, "s"),
        "bench.ref_ms": (1e3 * median([ref for _, ref in run.refs]), "ms"),
    })
    return metrics


# ---------------------------------------------------------------- main


def import_program():
    """vdwkit from src/ of this checkout, never from anywhere else."""
    if not (SRC / "vdwkit" / "__init__.py").is_file():
        print(f"error: no vdwkit package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import vdwkit
    from vdwkit import cli, search

    if Path(vdwkit.__file__).resolve().parent != SRC / "vdwkit":
        print(f"error: imported vdwkit from {vdwkit.__file__}", file=sys.stderr)
        sys.exit(2)
    return vdwkit, cli, search


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = WORKLOADS[args.workload]

    vdwkit, cli, search = import_program()
    from vdwkit._engine import compiled_library

    # the kernel builds and the compiler keep their temporary files here too
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = tempfile.tempdir = str(tmp)
    tracer = tracing.Tracer(enabled=bool(args.trace))
    run = Run(tracer)
    rng = random.Random(args.seed)

    run.checkpoint()
    for _ in range(SETUPS):
        run.attempted += 1
        t0 = time.perf_counter()
        dt = fresh_setup(spec["setup"])
        run.add("setup_s", dt, t0, time.perf_counter())
        run.checkpoint()

    cache = tempfile.mkdtemp(prefix="kernel-", dir=WORK)
    try:
        os.environ["VDWKIT_CACHE_DIR"] = cache
        t0 = time.perf_counter()
        lib = compiled_library()
        build_s = time.perf_counter() - t0
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    if lib is None:
        print("error: the compiled kernel could not be built", file=sys.stderr)
        return 1
    if args.trace:
        missing = tracing.install(tracer, search)
        if missing:
            print(f"note: untraced, not found in vdwkit.search: {missing}", file=sys.stderr)

    window_start = time.perf_counter()
    measure(run, vdwkit, cli, spec, rng, window_start + args.seconds)

    if args.trace:
        spans_dir = WORK / "spans"
        spans_dir.mkdir(exist_ok=True)
        tracer.write(spans_dir / f"{args.workload}-seed{args.seed}.jsonl")
        metrics = per_layer(run, spec, build_s, median(exact_seconds(run, spec)))
    else:
        metrics = end_to_end(run, spec)
    print(f"samples: small {len(run.samples['small_s'])}, exact {len(exact_seconds(run, spec))}, "
          f"bound {len(run.samples['bound_s'])}, analysis batches {len(run.samples['analysis_per_s'])}, "
          f"window {time.perf_counter() - window_start:.1f} s", file=sys.stderr)
    result = {
        "correct": run.wrong == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
