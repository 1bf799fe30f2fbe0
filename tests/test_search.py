"""Search engine, certificates, budgets, and the file format."""
import ctypes
import functools
import itertools
import os
import random
import re
import subprocess
import sys
import threading
import time

import pytest

from vdwkit import _engine, search
from vdwkit._engine import (
    CUBE_PATTERNS,
    ORDER_LOWEST,
    ORDER_MOST_BLOCKED,
    ST_EXHAUSTED,
    ST_FOUND,
    ST_PAUSED,
    SPLIT_FROM,
    SPLIT_LEVELS,
    compiled_library,
    Walk,
    middle_out,
    open_run,
    open_walk,
    search_cubes,
)
from vdwkit.cli import main as cli_main
from vdwkit.registry import (
    KNOWN_VALUES,
    USER_SUPPLIED,
    Registry,
    RegistryConflictError,
    VdwRecord,
)
from vdwkit.search import (
    Certificate,
    CertificateParseError,
    Coloring,
    SearchBudget,
    ap_free,
    compute_vdw,
    find_monochromatic_ap,
    last_position_check,
    read_certificate,
    verify_certificate,
    write_certificate,
)

# lexicographically first valid colorings, frozen from independent runs
LEX_FIRST = {
    (2, 4): "0010001110100100011101001000111011",
    (3, 3): "00110012122020010112022121",
}


class BruteForceCapped(Exception):
    """reference_lex_first tried more colors than its cap allows."""


def reference_lex_first(r, k, T, fixed=None, cap=None):
    """Plain depth-first search: no propagation, no symmetry reduction.

    Independent of the engine under test; returns the lexicographically
    first valid coloring of length T that gives each position in fixed
    (a dict) its color there, or None when none exists.  Raises
    BruteForceCapped once it has tried more than cap colors.
    """
    fixed = fixed or {}
    colors = []
    tried = 0

    def rec():
        nonlocal tried
        if len(colors) == T:
            return True
        for c in [fixed[len(colors)]] if len(colors) in fixed else range(r):
            tried += 1
            if cap is not None and tried > cap:
                raise BruteForceCapped
            colors.append(c)
            if last_position_check(colors, k) and rec():
                return True
            colors.pop()
        return False

    return list(colors) if rec() else None


def is_first_use(pattern):
    """Each color at most one above the largest before it."""
    return all(c <= max(pattern[:i], default=-1) + 1 for i, c in enumerate(pattern))


def mirror(pattern, T, positions):
    """The pattern on a prefix of positions reflected (position p takes
    the color of T-1-p) and relabeled by first appearance along them."""
    line = [-1] * T
    for p, c in zip(positions, pattern):
        line[p] = c
    image = [line[T - 1 - p] for p in positions[: len(pattern)]]
    seen = sorted(set(image), key=image.index)
    return tuple(seen.index(c) for c in image)


def mirror_levels(r, T, positions, depth, levels):
    """Per level, each pattern that level splits into, with its mirror:
    level 0 has every first-use pattern of the depth, each later level
    every first-use extension of the last level's self-mirror patterns
    on the next two positions."""
    patterns = [p for p in itertools.product(range(r), repeat=depth) if is_first_use(p)]
    out = []
    for level in range(levels + 1):
        images = {p: mirror(p, T, positions[: depth + 2 * level]) for p in patterns}
        out.append(images)
        patterns = [
            p + pair
            for p, m in images.items()
            if m == p
            for pair in itertools.product(range(r), repeat=2)
            if is_first_use(p + pair)
        ]
    return out


def kept_by_mirror(levels):
    """The patterns a split of mirror_levels keeps, in lexicographic
    order: each whose mirror is larger, and the self-mirror ones of the
    last level."""
    return sorted(
        p
        for level, images in enumerate(levels)
        for p, m in images.items()
        if m > p or m == p and level == len(levels) - 1
    )


# a trivial threaded program, to tell whether ThreadSanitizer works here
TRIVIAL_THREADS = r"""
#include <pthread.h>
static int x;
static void *bump(void *arg)
{
    (void)arg;
    __atomic_fetch_add(&x, 1, __ATOMIC_RELAXED);
    return 0;
}
int main(void)
{
    pthread_t t;
    pthread_create(&t, 0, bump, 0);
    pthread_join(t, 0);
    return x != 1;
}
"""

# reads "r k T order n", n + 1 offsets, then the positions and the colors
# of the cells; four threads each open a run on the walk and step it 3
# nodes at a time.  Prints the verdict and the lowest cube found (-1 when
# none), read from the statuses after the threads join, then that cube's
# coloring
WALK_DRIVER = r"""
#include <pthread.h>
#include <stdio.h>
#include "_kernel.c"

static int r, k, T, order;
static walk_t w;

static void *walk_it(void *arg)
{
    (void)arg;
    run_t *s = vdw_new(r, k, T, order, &w);
    if (!s)
        return (void *)1;
    while (vdw_step(s, 3) == ST_PAUSED)
        ;
    vdw_free(s);
    return 0;
}

int main(void)
{
    int n;
    if (scanf("%d %d %d %d %d", &r, &k, &T, &order, &n) != 5)
        return 2;
    int *offset = malloc((n + 1) * sizeof(int));
    for (int i = 0; i <= n; i++)
        if (scanf("%d", &offset[i]) != 1)
            return 2;
    int m = offset[n];
    int *pos = malloc((m + 1) * sizeof(int)), *col = malloc((m + 1) * sizeof(int));
    for (int j = 0; j < m; j++)
        if (scanf("%d", &pos[j]) != 1)
            return 2;
    for (int j = 0; j < m; j++)
        if (scanf("%d", &col[j]) != 1)
            return 2;
    w.n = n;
    w.offset = offset;
    w.pos = pos;
    w.col = col;
    w.best = n;
    w.status = calloc(n, sizeof(int));
    w.depth = calloc(n, sizeof(int));
    w.nodes = calloc(n, sizeof(long long));
    w.colours = calloc((size_t)n * T, sizeof(int));
    pthread_t threads[4];
    for (int t = 0; t < 4; t++)
        pthread_create(&threads[t], 0, walk_it, 0);
    for (int t = 0; t < 4; t++) {
        void *failed;
        pthread_join(threads[t], &failed);
        if (failed)
            return 3;
    }
    int exhausted = 0;
    for (int i = 0; i < n; i++) {
        if (w.status[i] == ST_FOUND) {
            printf("%d %d", ST_FOUND, i);
            for (int p = 0; p < T; p++)
                printf(" %d", w.colours[(size_t)i * T + p]);
            printf("\n");
            return 0;
        }
        exhausted += w.status[i] == ST_EXHAUSTED;
    }
    printf("%d -1\n", exhausted == n ? ST_EXHAUSTED : 0);
    return 0;
}
"""

HAVE_COMPILER = _engine._compiler() is not None
needs_compiler = pytest.mark.skipif(
    not HAVE_COMPILER, reason="no C compiler to build the compiled kernel"
)


def one_cube_run(engine, r, k, T, order, cube=()):
    """A run on a walk of one cube, the given root assumptions."""
    return open_run(engine, r, k, T, order, Walk(r, T, _engine._table(r, T, [cube])))


def compiled_engine():
    """The compiled kernel must really load wherever a compiler exists,
    so that jit-versus-python comparisons never compare python with
    itself."""
    assert compiled_library() is not None, "compiled kernel failed to build"
    return "jit"


@pytest.fixture
def helpers_started(monkeypatch):
    """The threads a search starts, collected as they are made."""
    started = []
    real = threading.Thread

    def counting(*args, **kwargs):
        thread = real(*args, **kwargs)
        started.append(thread)
        return thread

    monkeypatch.setattr(search.threading, "Thread", counting)
    return started


class TestOracle:
    def test_detects_planted_progression(self):
        # positions 0, 3, 6 all carry color 1, and the scan runs in
        # (step, start) order so that progression is reported first
        assert find_monochromatic_ap([1, 0, 1, 1, 0, 1, 1, 0, 1], 3) == (0, 3)
        assert find_monochromatic_ap([0, 1, 1, 1, 0], 3) == (1, 1)

    def test_clean_coloring(self):
        assert find_monochromatic_ap([0, 0, 1, 1, 0, 0, 1, 1], 3) is None
        assert ap_free([0, 0, 1, 1, 0, 0, 1, 1], 3)

    def test_short_colorings_are_trivially_clean(self):
        assert ap_free([], 3)
        assert ap_free([0, 0], 3)

    def test_every_length_nine_two_coloring_contains_a_progression(self):
        # W(2, 3) = 9 stated as a brute-force fact about all 2^9 colorings
        for bits in range(2**9):
            coloring = [(bits >> i) & 1 for i in range(9)]
            assert not ap_free(coloring, 3)

    def test_k_below_three_rejected(self):
        for check in (ap_free, find_monochromatic_ap, last_position_check):
            for k in (1, 2):
                with pytest.raises(ValueError, match="need an integer k >= 3"):
                    check([0, 1], k)


class TestLastPositionCheck:
    def test_spotted_at_the_last_position(self):
        # appending 0 completes 0, 4, 8; appending 1 completes 6, 7, 8
        assert not last_position_check([0, 0, 1, 1, 0, 0, 1, 1, 0], 3)
        assert not last_position_check([0, 0, 1, 1, 0, 0, 1, 1, 1], 3)
        # the last clean extension before that point is fine
        assert last_position_check([0, 0, 1, 1, 0, 0, 1, 1], 3)

    def test_explicit_position(self):
        colors = [0, 0, 0, 1, 1]
        assert not last_position_check(colors, 3, i=2)
        assert last_position_check(colors, 3, i=4)

    def test_position_out_of_range(self):
        with pytest.raises(ValueError):
            last_position_check([0, 1], 3, i=2)

    @pytest.mark.parametrize("r", [2, 3])
    def test_incremental_agrees_with_oracle(self, r):
        rng = random.Random(1000 + r)
        for _ in range(300):
            n = rng.randrange(1, 41)
            colors = [rng.randrange(r) for _ in range(n)]
            incremental = all(
                last_position_check(colors[: i + 1], 3) for i in range(n)
            )
            assert incremental == ap_free(colors, 3)


class TestComputeVdw:
    @pytest.mark.parametrize("r, k, value", [(2, 3, 9), (2, 4, 35), (3, 3, 27)])
    def test_small_values_python_engine(self, r, k, value):
        outcome = compute_vdw(r, k, engine="python")
        assert outcome.status == "exact"
        assert outcome.value == value
        assert outcome.certificate.length == value - 1
        assert verify_certificate(outcome.certificate)

    @pytest.mark.parametrize("r, k", [(2, 4), (3, 3)])
    def test_certificate_is_lexicographically_first(self, r, k):
        outcome = compute_vdw(r, k, mode="canonical", engine="python")
        assert "".join(map(str, outcome.certificate.colors)) == LEX_FIRST[(r, k)]

    @pytest.mark.parametrize("r, k, T", [(2, 3, 8), (2, 4, 34)])
    def test_matches_reference_search_at_the_frontier(self, r, k, T):
        reference = reference_lex_first(r, k, T)
        outcome = compute_vdw(r, k, mode="canonical", engine="python")
        assert list(outcome.certificate.colors) == reference
        assert reference_lex_first(r, k, T + 1) is None

    # k = 3 runs the compiled kernel's bit-mask propagation, k = 4 its
    # counter propagation; the Python reference always watches clauses
    @needs_compiler
    @pytest.mark.parametrize("r, k", [(2, 3), (2, 4), (3, 3)])
    def test_engines_agree_exactly(self, warm_engine, r, k):
        engine = compiled_engine()
        for mode in ("witness-proof", "canonical"):
            py = compute_vdw(r, k, mode=mode, workers=1, engine="python")
            jit = compute_vdw(r, k, mode=mode, workers=1, engine=engine)
            assert (py.status, py.value) == (jit.status, jit.value), mode
            assert py.certificate.colors == jit.certificate.colors, mode
            # same algorithm, same tree: the node counts and depths must
            # match too
            assert (py.stats.nodes, py.stats.max_depth) == (
                jit.stats.nodes, jit.stats.max_depth
            ), mode

    # node counts measured on the per-progression colour counting that the
    # C counter path used before it watched clauses, kept as its oracle;
    # they also catch a reference whose propagation is weakened but sound
    @pytest.mark.parametrize(
        "r, k, mode, nodes",
        [
            (2, 4, "witness-proof", 172),
            (2, 4, "canonical", 943),
            (3, 3, "witness-proof", 383),
            (3, 3, "canonical", 4674),
        ],
    )
    def test_node_counts_are_pinned(self, warm_engine, r, k, mode, nodes):
        engines = ["python"] + ([compiled_engine()] if HAVE_COMPILER else [])
        for engine in engines:
            outcome = compute_vdw(r, k, mode=mode, workers=1, engine=engine)
            assert outcome.status == "exact", engine
            assert outcome.stats.nodes == nodes, engine

    # a multi-worker canonical search must give the single-worker
    # canonical certificate, which is the lexicographically first one;
    # with more workers than cores and the interpreter switching threads
    # about every microsecond, a lost update to the shared winner or cube
    # claims would change the certificate.  With no solo phase the helpers
    # start at every length, however short
    @pytest.mark.parametrize("r, k", [(2, 4), (3, 3)])
    def test_parallel_matches_canonical(
        self, warm_engine, monkeypatch, helpers_started, r, k
    ):
        canonical = compute_vdw(r, k, mode="canonical", workers=1)
        assert canonical.status == "exact"
        assert "".join(map(str, canonical.certificate.colors)) == LEX_FIRST[(r, k)]
        monkeypatch.setattr(search, "_SOLO_SECONDS", 0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (2, 4, 8):
                helpers_started.clear()
                parallel = compute_vdw(r, k, mode="canonical", workers=workers)
                assert (parallel.status, parallel.value) == (canonical.status, canonical.value)
                assert parallel.certificate.colors == canonical.certificate.colors
                assert helpers_started, workers
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("r, k", [(2, 4), (3, 3)])
    def test_witness_proof_certificate_ignores_worker_count(self, warm_engine, r, k):
        one = compute_vdw(r, k, workers=1)
        assert one.status == "exact"
        for workers in (2, 4):
            many = compute_vdw(r, k, workers=workers)
            assert (many.status, many.value) == (one.status, one.value)
            assert many.certificate.colors == one.certificate.colors

    # the W(2, 5) climb from its 149-long stored start runs T = 150..176 on
    # the split cubes of lengths from SPLIT_FROM on; with no solo phase the
    # helpers start at every length
    def test_split_cube_certificates_ignore_engine_and_worker_count(
        self, warm_engine, monkeypatch, helpers_started
    ):
        monkeypatch.setattr(search, "_SOLO_SECONDS", 0)
        one = compute_vdw(2, 5, workers=1, max_length=176, engine="python")
        assert (one.status, one.value) == ("lower-bound-only", 177)
        assert verify_certificate(one.certificate)
        if not HAVE_COMPILER:
            return
        for workers in (1, 2, 4):
            helpers_started.clear()
            many = compute_vdw(
                2, 5, workers=workers, max_length=176, engine=compiled_engine()
            )
            assert (many.status, many.value) == (one.status, one.value)
            assert many.certificate.colors == one.certificate.colors, workers
            assert bool(helpers_started) == (workers > 1)

    @needs_compiler
    def test_compiled_engine_builds_no_reference_run(self, warm_engine, monkeypatch):
        engine = compiled_engine()

        def refuse(*args, **kwargs):
            raise AssertionError("the reference kernel ran on the compiled engine")

        monkeypatch.setattr(_engine, "PythonRun", refuse)
        for mode in ("witness-proof", "canonical"):
            outcome = compute_vdw(3, 3, mode=mode, engine=engine)
            assert (outcome.status, outcome.value) == ("exact", 27)

    # each worker opens one run per length and walks the cubes in it, so
    # with no solo phase the second open is the helper's first.  One node
    # per step lets the other worker see the error before the walk ends
    def test_worker_errors_reach_the_caller(
        self, warm_engine, monkeypatch, helpers_started
    ):
        lock = threading.Lock()
        opened, openers, walks = [], [], []
        real_open = search.open_run

        def failing_open(engine, r, k, T, order, walk):
            with lock:
                opened.append(T)
                openers.append(threading.current_thread())
                walks.append(walk)
                if len(opened) == 2:
                    raise RuntimeError("second cube refused")
            return real_open(engine, r, k, T, order, walk)

        monkeypatch.setattr(search, "open_run", failing_open)
        monkeypatch.setattr(search, "_SOLO_SECONDS", 0)
        monkeypatch.setattr(search, "_STEP", 1)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="second cube refused"):
            compute_vdw(3, 3, workers=2)
        assert threading.active_count() == threads
        assert len(helpers_started) == 1
        assert openers[1] is helpers_started[0]
        # the other worker stops at its next step instead of running the
        # cubes still waiting
        rooted = [status for status in walks[0].status if status]
        assert len(opened) < len(search_cubes(3, opened[0], ORDER_MOST_BLOCKED))
        assert len(rooted) < len(search_cubes(3, opened[0], ORDER_MOST_BLOCKED))

    # the helper's cube never ends by itself; the error on the calling
    # thread, raised in the caller's first step once the solo phase (none
    # here) has started the helper, must stop it at its next step
    @needs_compiler
    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_an_error_stops_the_cube_in_flight(
        self, warm_engine, monkeypatch, helpers_started, error
    ):
        caller = threading.current_thread()
        stepping, raised = threading.Event(), threading.Event()
        steps_after = []

        class EndlessRun:
            nodes = 0

            def step(self, quota):
                if threading.current_thread() is caller:
                    stepping.wait(5)
                    raised.set()
                    raise error("stop")
                stepping.set()
                if raised.is_set():
                    steps_after.append(quota)
                time.sleep(0.001)
                self.nodes += quota
                return ST_EXHAUSTED if len(steps_after) >= 100 else ST_PAUSED

        monkeypatch.setattr(search, "open_run", lambda *args, **kwargs: EndlessRun())
        monkeypatch.setattr(search, "_SOLO_SECONDS", 0)
        threads = threading.active_count()
        with pytest.raises(error):
            compute_vdw(3, 3, workers=2, engine=compiled_engine())
        assert threading.active_count() == threads
        assert len(helpers_started) == 1
        assert stepping.is_set()
        assert len(steps_after) <= 2

    # the calling thread searches each length alone until it has taken
    # _SOLO_SECONDS, and these lengths end well before that.  One that the
    # machine stalls past it does start a helper, so each pair has three
    # tries
    def test_short_lengths_start_no_thread(self, warm_engine, helpers_started):
        for r, k, value in [(2, 3, 9), (2, 4, 35)]:
            for _ in range(3):
                helpers_started.clear()
                outcome = compute_vdw(r, k, workers=2)
                assert (outcome.status, outcome.value) == ("exact", value)
                if not helpers_started:
                    break
            assert not helpers_started, (r, k)

    # one length, T = 27, past the 26-long stored start; only the calling
    # thread starts helpers, so a helper that started its own would show here
    @pytest.mark.parametrize("workers", [2, 4])
    def test_helpers_join_once_the_solo_phase_is_over(
        self, warm_engine, monkeypatch, helpers_started, workers
    ):
        monkeypatch.setattr(search, "_SOLO_SECONDS", 0)
        outcome = compute_vdw(3, 3, workers=workers)
        assert (outcome.status, outcome.value) == ("exact", 27)
        assert outcome.stats.nodes == 383
        cubes = len(search_cubes(3, 27, ORDER_MOST_BLOCKED))
        assert len(helpers_started) == min(workers, cubes) - 1

    # the W(4, 3) proof: its stored start is 75 long, so the search is the one
    # exhausted length, whose cubes all run whatever the worker count; a
    # change of tree shows here
    @pytest.mark.slow
    def test_w43_proof_node_count_is_pinned(self, warm_engine):
        outcome = compute_vdw(4, 3)
        assert (outcome.status, outcome.value) == ("exact", 76)
        assert outcome.stats.nodes == 47_322_017

    def test_one_worker_starts_no_thread(self, warm_engine, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a one-worker search started a thread")

        monkeypatch.setattr(search.threading, "Thread", refuse)
        for kwargs in ({"workers": 1}, {"engine": "python"}):
            outcome = compute_vdw(2, 4, **kwargs)
            assert (outcome.status, outcome.value) == ("exact", 35), kwargs
            assert outcome.stats.nodes == 172, kwargs

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            compute_vdw(1, 3)
        with pytest.raises(ValueError):
            compute_vdw(2, 2)
        with pytest.raises(ValueError, match="mode"):
            compute_vdw(2, 3, mode="sideways")
        with pytest.raises(ValueError, match="max_length"):
            compute_vdw(2, 4, max_length=3)
        for engine in ("jit", "python"):
            with pytest.raises(ValueError, match="workers"):
                compute_vdw(2, 3, workers=0, engine=engine)
        with pytest.raises(ValueError, match="max_nodes"):
            compute_vdw(2, 3, SearchBudget(max_nodes=-1))
        with pytest.raises(ValueError, match="max_seconds"):
            compute_vdw(2, 3, SearchBudget(max_seconds=-2.0))
        # r, k and the counts must be ints on both engines; a bool is not one
        for engine in ("jit", "python"):
            for args in [(2.0, 3), (2, 3.0)]:
                with pytest.raises(ValueError, match=r"need an integer (r .*r=2\.0|k .*k=3\.0)"):
                    compute_vdw(*args, engine=engine)
            for name, count in [("workers", 2.5), ("workers", True), ("max_length", 20.5)]:
                with pytest.raises(ValueError, match=f"need an integer {name} "):
                    compute_vdw(2, 4, engine=engine, **{name: count})
            for count in (100.0, 1.5, True):
                with pytest.raises(ValueError, match="need an integer max_nodes "):
                    compute_vdw(2, 4, SearchBudget(max_nodes=count), engine=engine)
            # True would run as a 1 s budget, "1" fail in the comparison
            for seconds in ("1", True, False):
                with pytest.raises(ValueError, match="max_seconds must be an int or a float"):
                    compute_vdw(2, 4, SearchBudget(max_seconds=seconds), engine=engine)
            for seconds in (-2, float("nan")):
                with pytest.raises(ValueError, match="max_seconds must be a number >= 0"):
                    compute_vdw(2, 4, SearchBudget(max_seconds=seconds), engine=engine)

    @pytest.mark.parametrize("assumption", [(-1, 0), (10, 0), (0, 3)])
    def test_root_assumptions_outside_the_run_are_refused(self, assumption):
        engines = ["python"] + ([compiled_engine()] if HAVE_COMPILER else [])
        for engine in engines:
            with pytest.raises(ValueError, match="root assumption"):
                one_cube_run(engine, 3, 3, 10, ORDER_MOST_BLOCKED, [assumption])
        # a table of several cubes makes the same check, once, when it is
        # built
        with pytest.raises(ValueError, match="root assumption"):
            _engine._table(3, 10, [[(0, 0)], [assumption]])

    def test_a_walk_opens_runs_of_its_own_length_only(self):
        engines = ["python"] + ([compiled_engine()] if HAVE_COMPILER else [])
        walk = open_walk(3, 10, ORDER_MOST_BLOCKED)
        for engine in engines:
            for r, T in [(3, 11), (2, 10)]:
                with pytest.raises(ValueError, match="a walk of r=3 T=10"):
                    open_run(engine, r, 3, T, ORDER_MOST_BLOCKED, walk)


class TestCompiledKernel:
    """The compiled kernel against the reference after every step, on
    both its paths: the k = 3 mask path at the 64-bit word boundary and at
    the full 128-bit mask, and the counter path on k = 3 at 129, the first
    length past the masks, for r its blocked-colour count specialises
    (3, 4) and a generic r (5); the counter path at the lengths its
    searches run.  Then its pinned counts, its warnings, the constants it
    shares with _engine and its cache key."""

    # the counter path's lengths: both sides of W(2, 5) = 178, the W(3, 4)
    # witness-proof start, the W(2, 6) budgeted start and a generic r,
    # whose root search backtracks from about T = 500 (its first two cubes
    # put one colour on four neighbours and are refuted at once).  A paused
    # step reports its quota as nodes whatever the tree, so max_depth and
    # the coloring are compared too: each path propagates in its own
    # order, but between steps a run shows its found coloring, the
    # fixpoint of its deepest open frame, or nothing.
    @needs_compiler
    @pytest.mark.parametrize(
        "r, k, T",
        [(r, 3, T) for r in (3, 4, 5) for T in (64, 65, 127, 128, 129)]
        + [(2, 5, 177), (2, 5, 178), (3, 4, 292), (2, 6, 697), (5, 4, 500)],
    )
    def test_engines_agree_after_every_step(self, warm_engine, r, k, T):
        engine = compiled_engine()
        for order in (ORDER_LOWEST, ORDER_MOST_BLOCKED):
            # root propagation alone refutes many cubes, so beside the
            # empty start take one refuted cube and three that search.  A
            # run's first node is its cube's pattern node: the step that
            # spends it opens the cube and rests at its root
            live, dead = [], []
            for cube in search_cubes(r, T, order):
                probe = one_cube_run(engine, r, k, T, order, cube)
                (live if probe.step(1) == ST_PAUSED else dead).append(cube)
            assert live, f"order={order}: every cube is refuted at its root"
            for start in [[]] + dead[:1] + live[:2] + [live[len(live) // 2]]:
                where = f"order={order} start={start}"
                py = one_cube_run("python", r, k, T, order, start)
                jit = one_cube_run(engine, r, k, T, order, start)
                assert (py.step(1), py.coloring()) == (jit.step(1), jit.coloring()), where
                for _ in range(3):
                    status = py.step(500)
                    assert (status, py.nodes, py.walk.max_depth, py.coloring()) == (
                        jit.step(500), jit.nodes, jit.walk.max_depth, jit.coloring()
                    ), where
                    if status != ST_PAUSED:
                        break

    # W(2, 5) cubes too long for the reference, pinned from the colour
    # counting the counter path used before it watched clauses: at T = 178
    # two extensions of a split self-mirror cube, one at each level, and at
    # T = 177 a cube of depth 5 that no split reaches
    @needs_compiler
    @pytest.mark.parametrize(
        "T, index, status, nodes",
        [
            (178, 11, ST_EXHAUSTED, 21880),
            (178, 14, ST_EXHAUSTED, 10546),
            (177, 7, ST_FOUND, 43654),
        ],
    )
    def test_counter_path_node_counts_are_pinned(self, warm_engine, T, index, status, nodes):
        cube = search_cubes(2, T, ORDER_MOST_BLOCKED)[index]
        run = one_cube_run(compiled_engine(), 2, 5, T, ORDER_MOST_BLOCKED, cube)
        # the run's nodes are the cube's pattern node and its decisions
        assert (run.step(1 << 40), run.nodes - 1) == (status, nodes)
        if status == ST_FOUND:
            assert verify_certificate(Certificate(2, 5, T, Coloring(2, tuple(run.coloring()))))

    # four threads walking one table through the kernel itself, under
    # ThreadSanitizer: the claims, best and the per-cube slots must show
    # no data race, and the lowest finding cube must be a one-run walk's
    @needs_compiler
    def test_a_shared_walk_is_free_of_data_races(self, warm_engine, tmp_path):
        engine = compiled_engine()

        def build(name, source, *flags):
            (tmp_path / f"{name}.c").write_text(source)
            proc = subprocess.run(
                [_engine._compiler(), "-fsanitize=thread", "-g", "-O1", "-pthread",
                 *flags, "-o", str(tmp_path / name), str(tmp_path / f"{name}.c")],
                capture_output=True, text=True,
            )
            return proc.returncode == 0, proc.stderr

        def run(name, stdin=""):
            return subprocess.run(
                [str(tmp_path / name)], input=stdin, capture_output=True, text=True,
                env={**os.environ, "TSAN_OPTIONS": "halt_on_error=1"}, timeout=120,
            )

        built, err = build("trivial", TRIVIAL_THREADS)
        if built:
            trivial = run("trivial")
            built, err = trivial.returncode == 0, trivial.stderr
        if not built:
            pytest.skip(f"a -fsanitize=thread program cannot be built or run here: {err}")
        built, err = build("walk", WALK_DRIVER, f"-I{_engine._SOURCE.parent}")
        assert built, err
        for r, k, T, verdict in [
            (3, 3, 26, ST_FOUND), (2, 4, 34, ST_FOUND), (4, 3, 60, ST_FOUND),
            (3, 3, 27, ST_EXHAUSTED),
        ]:
            cubes = search_cubes(r, T, ORDER_MOST_BLOCKED)
            offsets = list(itertools.accumulate((len(c) for c in cubes), initial=0))
            cells = [cell for cube in cubes for cell in cube]
            table = [r, k, T, ORDER_MOST_BLOCKED, len(cubes), *offsets,
                     *(p for p, _ in cells), *(c for _, c in cells)]
            proc = run("walk", " ".join(map(str, table)))
            assert proc.returncode == 0, proc.stderr
            one = open_walk(r, T, ORDER_MOST_BLOCKED)
            assert open_run(engine, r, k, T, ORDER_MOST_BLOCKED, one).step(1 << 40) == verdict
            first = one.status[:].index(ST_FOUND) if verdict == ST_FOUND else -1
            expected = [verdict, first, *(one.result()[1] or [])]
            assert proc.stdout.split() == [str(x) for x in expected], (r, k, T)

    # compiled to an object file with the build's flags, not -fsyntax-only:
    # gcc reports unused static functions only when it compiles, and some
    # warnings (-Wmaybe-uninitialized) only when it optimises
    @needs_compiler
    def test_kernel_compiles_without_warnings(self, tmp_path):
        proc = subprocess.run(
            [_engine._compiler(), *_engine._CFLAGS, "-c", "-Wall", "-Wextra",
             "-Werror", "-o", str(tmp_path / "kernel.o"), str(_engine._SOURCE)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr

    # an undeclared function would get ctypes' default of C ints, so a
    # 64-bit run handle would be cut to 32 bits
    @needs_compiler
    def test_every_exported_function_is_declared(self):
        c_types = {
            "int": ctypes.c_int,
            "long long": ctypes.c_longlong,
            "void": None,
            "run_t *": ctypes.c_void_p,
            "int *": ctypes.POINTER(ctypes.c_int),
            "walk_t *": ctypes.POINTER(_engine._Block),
        }

        def c_type(decl):
            # drop const and normalise the spacing
            decl = " ".join(re.sub(r"\bconst\b", "", decl).split())
            return c_types[re.sub(r"\s*\*", " *", decl)]

        definitions = re.findall(
            r"^(?!static\b)([A-Za-z_][\w ]*?[\s*]+)(\w+)\(([^)]*)\)\s*\{",
            _engine._SOURCE.read_text(),
            re.M,
        )
        names = [name for _, name, _ in definitions]
        assert {"vdw_new", "vdw_step", "vdw_free"} <= set(names)
        lib = compiled_library()
        for returns, name, params in definitions:
            fn = getattr(lib, name)
            assert fn.restype is c_type(returns), name
            # each parameter less its name
            declared = [re.sub(r"\w+\s*$", "", decl) for decl in params.split(",")]
            assert fn.argtypes is not None, name
            assert list(fn.argtypes) == [c_type(decl) for decl in declared], name

    def test_status_and_order_constants_match_the_kernel(self):
        defines = re.findall(
            r"^#define ((?:ST|ORDER)_\w+)\s+(\S+)", _engine._SOURCE.read_text(), re.M
        )
        ours = {n: v for n, v in vars(_engine).items() if n.startswith(("ST_", "ORDER_"))}
        assert {name: int(value) for name, value in defines} == ours

    def test_library_name_covers_the_compile_flags(self):
        source = _engine._SOURCE.read_bytes()
        name = _engine._library_name
        assert name(source) == name(source, _engine._CFLAGS)
        assert name(source, ("-O2", "-shared", "-fPIC")) != name(
            source, ("-O3", "-shared", "-fPIC")
        )
        assert name(source) != name(source + b"\n")


class TestKernelSoundness:
    """Every pruning rule against brute force: at each fixed length, each
    engine and branching order must agree with reference_lex_first on
    whether a valid coloring exists.  The lengths run as far as the plain
    reference finishes quickly; for (3, 4) each length past about 95
    costs it half a second or more."""

    @pytest.mark.parametrize(
        "r, k, lengths",
        [
            (2, 3, range(3, 11)),
            (2, 4, range(4, 37)),
            (3, 3, range(3, 29)),
            (3, 4, range(4, 65)),
            (4, 3, range(3, 56)),
            (5, 3, range(3, 70)),
            (2, 5, range(5, 90)),
        ],
    )
    def test_verdicts_match_brute_force(self, warm_engine, r, k, lengths):
        engines = ["python"] + ([compiled_engine()] if HAVE_COMPILER else [])
        for T in lengths:
            reference = reference_lex_first(r, k, T)
            satisfiable = reference is not None
            verdict = ST_FOUND if satisfiable else ST_EXHAUSTED
            for engine in engines:
                for order in (ORDER_LOWEST, ORDER_MOST_BLOCKED):
                    where = f"T={T} engine={engine} order={order}"
                    run = one_cube_run(engine, r, k, T, order)
                    assert run.step(1 << 40) == verdict, where
                    if satisfiable:
                        cert = Certificate(r, k, T, Coloring(r, tuple(run.coloring())))
                        assert verify_certificate(cert)
                    # the walk of the cubes a search opens decides the same
                    # length; with ORDER_MOST_BLOCKED it leaves out the
                    # mirror images
                    walk = open_walk(r, T, order)
                    run = open_run(engine, r, k, T, order, walk)
                    assert run.step(1 << 40) == verdict, where
                    status, found = walk.result()
                    assert status == verdict, where
                    if satisfiable:
                        cert = Certificate(r, k, T, Coloring(r, tuple(found)))
                        assert verify_certificate(cert), where
                    else:
                        assert found is None, where
                        assert set(walk.status) == {ST_EXHAUSTED}, where
                    if order == ORDER_LOWEST:
                        assert found == reference, where

    # random root assumptions, up to T/2 of them on distinct positions, on
    # one-cube walks of short lengths against the plain brute force: the
    # engines must agree node for node and with its verdict, and a found
    # coloring must be valid and keep the assumptions.  An instance the
    # brute force cannot settle within its cap is left out.  At r = 4 and 5
    # every exhausted instance dies at its root, in a conflict among its
    # assumptions; deeper exhaustion there needs lengths past brute force
    def test_random_root_assumptions_match_brute_force(self, warm_engine):
        engines = ["python"] + ([compiled_engine()] if HAVE_COMPILER else [])
        rng = random.Random(9)
        seen = set()
        for r, k in itertools.product(range(2, 6), range(3, 6)):
            for _ in range(25):
                T = rng.randint(k, 30)
                positions = rng.sample(range(T), rng.randint(0, T // 2))
                cube = [(p, rng.randrange(r)) for p in positions]
                try:
                    reference = reference_lex_first(r, k, T, dict(cube), cap=20_000)
                except BruteForceCapped:
                    continue
                verdict = ST_EXHAUSTED if reference is None else ST_FOUND
                for order in (ORDER_LOWEST, ORDER_MOST_BLOCKED):
                    where = f"r={r} k={k} T={T} order={order} cube={cube}"
                    results = []
                    for engine in engines:
                        run = one_cube_run(engine, r, k, T, order, cube)
                        results.append((run.step(1 << 40), run.nodes, run.coloring()))
                        assert run.walk.result() == (
                            verdict, results[-1][2] if reference else None
                        ), where
                    assert results.count(results[0]) == len(results), where
                    status, nodes, found = results[0]
                    assert status == verdict, where
                    if reference:
                        assert ap_free(found, k), where
                        assert all(found[p] == c for p, c in cube), where
                    seen.add((r >= 4, status, nodes == 1))
        # at r = 4 and 5 the walk is exhausted, by a root conflict
        assert (True, ST_EXHAUSTED, True) in seen
        assert (False, ST_EXHAUSTED, False) in seen

    # with k = T + 1 there are no progressions, so nothing is blocked or
    # forced and each decision colors the next position of the branching
    # order; T = 2 takes the mask path, every longer T the counter path
    @pytest.mark.parametrize("engine", ["python", "jit"])
    def test_decisions_follow_the_branching_order(self, warm_engine, engine):
        if engine == "jit":
            if not HAVE_COMPILER:
                pytest.skip("no C compiler to build the compiled kernel")
            engine = compiled_engine()
        for T in range(2, 261):
            for order, sequence in (
                (ORDER_LOWEST, list(range(T))),
                (ORDER_MOST_BLOCKED, middle_out(T)),
            ):
                run = one_cube_run(engine, 2, T + 1, T, order)
                # the first node opens the run's one cube
                assert run.step(1) == ST_PAUSED
                for q in range(1, T):
                    assert run.step(1) == ST_PAUSED
                    colored = [p for p, c in enumerate(run.coloring()) if c >= 0]
                    assert colored == sorted(sequence[:q]), (T, order, q)
                assert run.step(1) == ST_FOUND

    # one run walking the cubes of a length, as a lone worker does, against
    # a fresh run per cube: the same status, nodes and max_depth for each
    # cube up to the first that finds a coloring, none opened past it, and
    # that cube's coloring.  The walk steps a small quota, so it pauses
    # inside cubes and between them.  A case is (r, k, T, quota, cap): at
    # the long lengths the table is the longest prefix of the cubes whose
    # fresh runs each end within cap nodes, which keeps the reference quick
    @pytest.mark.parametrize(
        "cases",
        [
            [(3, 3, 26, 4, None), (3, 3, 27, 4, None)],
            [(2, 4, 34, 5, None), (2, 5, 178, 100, 500), (2, 6, 697, 30, 60)],
        ],
        ids=["mask", "counter"],
    )
    def test_a_walk_matches_a_fresh_run_per_cube(self, warm_engine, cases):
        engines = ["python"] + ([compiled_engine()] if HAVE_COMPILER else [])
        for engine in engines:
            paused = set()  # whether a pause left a cube open
            for r, k, T, quota, cap in cases:
                cubes, fresh = [], []
                for cube in search_cubes(r, T, ORDER_MOST_BLOCKED):
                    run = one_cube_run(engine, r, k, T, ORDER_MOST_BLOCKED, cube)
                    status = run.step(cap or 1 << 40)
                    if status == ST_PAUSED:
                        break
                    cubes.append(cube)
                    fresh.append((status, run.nodes, run.walk.max_depth, run.coloring()))
                where = f"engine={engine} T={T} cubes={len(cubes)}"
                walk = Walk(r, T, _engine._table(r, T, cubes))
                run = open_run(engine, r, k, T, ORDER_MOST_BLOCKED, walk)
                while (status := run.step(quota)) == ST_PAUSED:
                    paused.add(max(run.coloring()) >= 0)
                    # a pause inside a cube records the nodes spent so far
                    assert sum(walk.nodes) == run.nodes, where
                found = [i for i, res in enumerate(fresh) if res[0] == ST_FOUND]
                last = found[0] if found else len(cubes) - 1
                assert status == fresh[last][0], where
                assert walk.result() == (
                    (ST_FOUND, fresh[last][3]) if found else (ST_EXHAUSTED, None)
                ), where
                results = list(zip(walk.status, walk.nodes, walk.depth))
                assert results[: last + 1] == [res[:3] for res in fresh[: last + 1]], where
                assert results[last + 1 :] == [(0, 0, 0)] * (len(cubes) - last - 1), where
                assert run.nodes == sum(res[1] for res in fresh[: last + 1]), where
                assert walk.max_depth == max(res[2] for res in fresh[: last + 1]), where
                if found:
                    assert run.coloring() == fresh[last][3], where
            assert paused == {True, False}, engine

    # two runs sharing one walk on lengths that every cube exhausts, so
    # that no cube is moot, stepped in turn and, on the compiled kernel, on
    # two threads: the same result for each cube as one run
    @pytest.mark.parametrize("r, k, T", [(3, 3, 27), (2, 4, 35)])
    def test_runs_sharing_a_walk_match_one_run(self, warm_engine, r, k, T):
        engines = ["python"] + ([compiled_engine()] if HAVE_COMPILER else [])

        def results(walk):
            return list(zip(walk.status, walk.nodes, walk.depth))

        for engine in engines:
            one = open_walk(r, T, ORDER_MOST_BLOCKED)
            run = open_run(engine, r, k, T, ORDER_MOST_BLOCKED, one)
            assert run.step(1 << 40) == ST_EXHAUSTED
            assert set(one.status) == {ST_EXHAUSTED}
            shared = open_walk(r, T, ORDER_MOST_BLOCKED)
            runs = [open_run(engine, r, k, T, ORDER_MOST_BLOCKED, shared) for _ in range(2)]
            statuses = [ST_PAUSED, ST_PAUSED]
            while ST_PAUSED in statuses:
                statuses = [run.step(3) for run in runs]
            assert statuses == [ST_EXHAUSTED, ST_EXHAUSTED], engine
            assert results(shared) == results(one), engine
            assert all(run.nodes for run in runs), engine
            assert sum(run.nodes for run in runs) == sum(one.nodes), engine
            if engine == "python":
                continue
            shared = open_walk(r, T, ORDER_MOST_BLOCKED)

            def walk_it():
                run = open_run(engine, r, k, T, ORDER_MOST_BLOCKED, shared)
                while run.step(5) == ST_PAUSED:
                    pass

            threads = [threading.Thread(target=walk_it) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
                assert not thread.is_alive()
            assert results(shared) == results(one)

    # two runs sharing one walk of a satisfiable length: the first walks
    # up to the cube that finds a coloring, the second opens the next one,
    # then they take one node each in turn.  Once the first finds its
    # coloring, the second drops its cube, unfinished, at its next
    # decision and claims no other; the earlier cubes and the coloring are
    # those of one run
    @pytest.mark.parametrize("r, k, T", [(3, 3, 26), (2, 4, 34)])
    def test_a_found_cube_makes_the_later_ones_moot(self, warm_engine, r, k, T):
        engines = ["python"] + ([compiled_engine()] if HAVE_COMPILER else [])
        for engine in engines:
            one = open_walk(r, T, ORDER_MOST_BLOCKED)
            assert open_run(engine, r, k, T, ORDER_MOST_BLOCKED, one).step(1 << 40) == ST_FOUND
            best = one.status[:].index(ST_FOUND)
            shared = open_walk(r, T, ORDER_MOST_BLOCKED)
            first, second = (
                open_run(engine, r, k, T, ORDER_MOST_BLOCKED, shared) for _ in range(2)
            )
            while shared.block.next <= best:
                first.step(1)
            statuses = [ST_PAUSED, second.step(1)]
            while ST_PAUSED in statuses:
                statuses = [first.step(1), second.step(1)]
            assert statuses == [ST_FOUND, ST_EXHAUSTED], engine
            assert shared.result() == one.result(), engine
            results = list(zip(shared.status, shared.nodes, shared.depth))
            assert results[: best + 1] == list(zip(one.status, one.nodes, one.depth))[: best + 1]
            assert shared.status[best + 1 :] == [ST_PAUSED] + [0] * (shared.cubes - best - 2)

    # the verdict is read from the statuses once the runs stop, so neither
    # the order in which cubes report a coloring nor best, a hint that a
    # race could leave at the later cube, decides the coloring: the
    # earlier cube's wins either way
    def test_the_lowest_finding_cube_wins_in_either_order(self):
        T = 26
        colorings = {2: [0, 1] * (T // 2), 5: [1, 0] * (T // 2)}
        for arrivals in ([5, 2], [2, 5]):
            walk = open_walk(3, T, ORDER_MOST_BLOCKED)
            for i in arrivals:
                walk.record(i, ST_FOUND, 1, 0)
                walk.colors[i * T : (i + 1) * T] = colorings[i]
                walk.block.best = i
            assert walk.result() == (ST_FOUND, colorings[2]), arrivals

    # each r has an odd T, an even T and a T below the cube depth, and
    # r = 2 the lengths on either side of SPLIT_FROM
    @pytest.mark.parametrize(
        "r, T",
        [(2, 3), (2, 35), (3, 27), (4, 76), (2, 178), (3, 4), (3, 26), (4, 3), (4, 75),
         (2, 63), (2, 64)],
    )
    def test_cubes_are_the_first_use_patterns(self, r, T):
        def first_use(d):
            return [p for p in itertools.product(range(r), repeat=d) if is_first_use(p)]

        def closed(positions):
            return {T - 1 - p for p in positions} == set(positions)

        for order in (ORDER_LOWEST, ORDER_MOST_BLOCKED):
            cubes = search_cubes(r, T, order)
            depth = min(len(cube) for cube in cubes)
            positions = list(range(T)) if order == ORDER_LOWEST else middle_out(T)
            # each cube fixes a prefix of the branching order
            assert all([p for p, _ in cube] == positions[: len(cube)] for cube in cubes)
            patterns = [tuple(c for _, c in cube) for cube in cubes]
            assert patterns == sorted(patterns)
            every = first_use(depth)
            assert len(every) >= CUBE_PATTERNS or depth == T
            if order == ORDER_LOWEST:
                # every pattern, at the least depth with enough of them
                assert patterns == every
                assert len(first_use(depth - 1)) < CUBE_PATTERNS
                continue
            # under ORDER_MOST_BLOCKED the least depth with enough patterns
            # whose positions reflection maps onto themselves
            assert closed(positions[:depth])
            assert all(
                len(first_use(d)) < CUBE_PATTERNS or not closed(positions[:d])
                for d in range(depth)
            )
            # from SPLIT_FROM on, SPLIT_LEVELS levels, each adding a
            # reflection pair of positions; below it, one depth for all
            levels = SPLIT_LEVELS if T >= SPLIT_FROM else 0
            assert all(closed(positions[: depth + 2 * j]) for j in range(levels + 1))
            if levels == 0:
                assert all(len(cube) == depth for cube in cubes)
            split = mirror_levels(r, T, positions, depth, levels)
            for images in split:
                # mirroring is an involution on each level's patterns, so
                # they fall into the kept (mirror larger), the dropped
                # (mirror smaller, and kept) and the self-mirror ones
                assert all(images[m] == p for p, m in images.items())
            # a self-mirror pattern of the last level is kept whole, one
            # of an earlier level gives way to its extensions
            assert patterns == kept_by_mirror(split)

    # the split of search_cubes built at lengths short enough for brute
    # force, from _kept_patterns at SPLIT_LEVELS on the depth search_cubes
    # cuts these lengths at.  Each pattern of each level, kept or not,
    # must share its verdict with its mirror (argument (4), level by
    # level), and the kept ones must decide the length
    @pytest.mark.parametrize("r, k, lengths", [(2, 4, range(28, 36)), (3, 3, range(20, 28))])
    def test_split_cubes_share_verdicts_with_their_mirrors(
        self, warm_engine, r, k, lengths
    ):
        engines = ["python"] + ([compiled_engine()] if HAVE_COMPILER else [])
        seen = set()
        for T in lengths:
            depth = len(search_cubes(r, T, ORDER_MOST_BLOCKED)[0])
            positions = middle_out(T)[: depth + 2 * SPLIT_LEVELS]
            split = mirror_levels(r, T, positions, depth, SPLIT_LEVELS)
            kept = _engine._kept_patterns(r, depth, SPLIT_LEVELS)
            assert list(kept) == kept_by_mirror(split), T
            satisfiable = reference_lex_first(r, k, T) is not None
            for engine in engines:
                verdicts = {}

                def verdict(pattern):
                    if pattern not in verdicts:
                        cube = list(zip(positions, pattern))
                        run = one_cube_run(engine, r, k, T, ORDER_MOST_BLOCKED, cube)
                        verdicts[pattern] = run.step(1 << 40)
                    return verdicts[pattern]

                for level, images in enumerate(split):
                    for p, m in images.items():
                        assert verdict(p) == verdict(m), f"T={T} engine={engine} {p}"
                        seen.add((level, verdict(p)))
                found = any(verdict(p) == ST_FOUND for p in kept)
                assert found == satisfiable, f"T={T} engine={engine}"
        # the lengths reach both verdicts at every level
        assert seen == {
            (level, status)
            for level in range(SPLIT_LEVELS + 1)
            for status in (ST_FOUND, ST_EXHAUSTED)
        }


class TestBudgets:
    def test_node_budget_yields_verified_lower_bound(self, warm_engine):
        outcome = compute_vdw(2, 6, SearchBudget(max_nodes=20000))
        assert outcome.status == "budget-exhausted"
        assert outcome.value == outcome.certificate.length + 1
        assert outcome.value <= 1132
        assert verify_certificate(outcome.certificate)
        # every node, each cube's pattern node included, comes from the pool
        assert outcome.stats.nodes <= 20000

    @needs_compiler
    def test_time_budget_stops_close_to_its_limit(self, warm_engine):
        outcome = compute_vdw(2, 6, SearchBudget(max_seconds=0.5), engine=compiled_engine())
        assert outcome.status == "budget-exhausted"
        assert outcome.stats.elapsed < 0.6

    # W(2, 12) has no stored start, so it climbs from 11 zeros until a time
    # budget stops it; a budget past the float range never expires
    def test_time_budget_bounds_a_climb(self, warm_engine):
        outcome = compute_vdw(2, 12, SearchBudget(max_seconds=0.5))
        assert outcome.status == "budget-exhausted"
        assert outcome.stats.elapsed < 1.5
        assert verify_certificate(outcome.certificate)
        outcome = compute_vdw(2, 3, SearchBudget(max_seconds=10**400))
        assert (outcome.status, outcome.value) == ("exact", 9)

    # no start is built, so a node budget bounds the whole run: W(2, 10) and
    # W(3, 6) have no stored start and climb from k-1 zeros
    @pytest.mark.parametrize("r, k", [(2, 10), (3, 6)])
    def test_node_budget_bounds_the_start(self, warm_engine, r, k):
        began = time.perf_counter()
        outcome = compute_vdw(r, k, SearchBudget(max_nodes=100))
        assert time.perf_counter() - began < 1
        assert outcome.status == "budget-exhausted"
        assert outcome.stats.nodes <= 100
        assert verify_certificate(outcome.certificate)

    def test_zero_second_budget_still_answers(self):
        # the stored start is read without reading the budget
        outcome = compute_vdw(2, 5, SearchBudget(max_seconds=0.0), engine="python")
        assert (outcome.status, outcome.value) == ("budget-exhausted", 150)
        assert outcome.certificate.colors == search._stored_start(2, 5)
        # with none stored, the starting frontier of length k-1 is the
        # trivial certificate
        outcome = compute_vdw(2, 8, SearchBudget(max_seconds=0.0), engine="python")
        assert (outcome.status, outcome.value) == ("budget-exhausted", 8)
        assert outcome.certificate.colors == (0,) * 7

    def test_budget_does_not_truncate_exact_results(self, warm_engine):
        outcome = compute_vdw(2, 3, SearchBudget(max_seconds=30, max_nodes=10**6))
        assert (outcome.status, outcome.value) == ("exact", 9)

    def test_max_length_reports_lower_bound_only(self):
        outcome = compute_vdw(2, 3, max_length=5, engine="python")
        assert outcome.status == "lower-bound-only"
        assert outcome.value == 6
        assert outcome.certificate.length == 5
        assert verify_certificate(outcome.certificate)

    # W(2, 3) needs no decision: every cube is decided by its pattern and
    # propagation, so max_depth is 0 on every engine
    def test_stats_are_populated(self, warm_engine):
        engines = ["python"] + ([compiled_engine()] if HAVE_COMPILER else [])
        for engine in engines:
            outcome = compute_vdw(2, 3, engine=engine)
            assert outcome.stats.nodes > 0, engine
            assert outcome.stats.elapsed >= 0, engine
            assert outcome.stats.max_depth == 0, engine


class TestRegistryRecording:
    def test_exact_result_recorded(self):
        reg = Registry(seed=False)
        compute_vdw(2, 3, engine="python", registry=reg)
        record = reg.lookup(2, 3)
        assert record.value == 9 and record.provenance == ("search-derived",)

    def test_rederivation_merges_with_seed(self, registry):
        compute_vdw(2, 3, engine="python", registry=registry)
        assert set(registry.lookup(2, 3).provenance) == {
            "paper-table",
            "search-derived",
        }

    def test_contradicting_stored_value_raises(self):
        reg = Registry(seed=False)
        reg.upsert_search_result(
            VdwRecord(r=2, k=3, value=10, provenance=(USER_SUPPLIED,))
        )
        with pytest.raises(RegistryConflictError):
            compute_vdw(2, 3, engine="python", registry=reg)

    def test_inexact_results_not_recorded(self):
        reg = Registry(seed=False)
        compute_vdw(2, 5, SearchBudget(max_nodes=10), engine="python", registry=reg)
        assert reg.lookup(2, 5) is None


class TestVerifyCertificate:
    def make(self, r, k, colors):
        return Certificate(r, k, len(colors), Coloring(r, tuple(colors)))

    def test_valid(self):
        assert verify_certificate(self.make(2, 3, [0, 0, 1, 1, 0, 0, 1, 1]))

    def test_planted_progression(self):
        assert not verify_certificate(self.make(2, 3, [0, 0, 1, 1, 0, 1, 1, 0, 0]))

    def test_color_out_of_range(self):
        assert not verify_certificate(self.make(2, 3, [0, 0, 2]))

    def test_length_mismatch(self):
        cert = Certificate(2, 3, 5, Coloring(2, (0, 1)))
        assert not verify_certificate(cert)

    def test_degenerate_parameters(self):
        assert not verify_certificate(self.make(1, 3, [0, 0]))
        assert not verify_certificate(self.make(2, 2, [0, 1]))

    def test_empty_certificate_is_valid(self):
        assert verify_certificate(self.make(2, 3, []))

    # int() would turn these into 1, 1 and 1, and (True, 0.9, 1) would
    # then pass as the valid coloring (1, 0, 1)
    @pytest.mark.parametrize("bad", [1.5, True, "1"])
    def test_non_integer_colors_are_refused(self, bad):
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            self.make(2, 3, [0, bad, 1])


class TestCertificateFiles:
    def test_round_trip(self, tmp_path):
        outcome = compute_vdw(2, 4, engine="python")
        path = tmp_path / "w24.crt"
        write_certificate(outcome.certificate, path)
        loaded = read_certificate(path)
        assert loaded == outcome.certificate

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "ok.crt"
        path.write_text("# lower bound witness\n\n2 3 8\n0 0 1 1 0 0 1 1\n")
        cert = read_certificate(path)
        assert (cert.r, cert.k, cert.length) == (2, 3, 8)
        assert verify_certificate(cert)

    def test_zero_length_certificate(self, tmp_path):
        path = tmp_path / "empty.crt"
        write_certificate(Certificate(2, 3, 0, Coloring(2, ())), path)
        cert = read_certificate(path)
        assert cert.length == 0 and cert.colors == ()
        assert verify_certificate(cert)

    @pytest.mark.parametrize(
        "body, lineno, fragment",
        [
            ("", 1, "missing header"),
            ("# only a comment\n", 2, "missing header"),
            ("2 3\n0 1\n", 1, "header"),
            ("2 3 eight\n0 1\n", 1, "non-integer header"),
            ("2 3 -1\n\n", 1, "negative length"),
            ("2 3 4\n", 2, "missing colors"),
            ("2 3 4\n0 1 x 1\n", 2, "non-integer color"),
            ("2 3 4\n0 1 0\n", 2, "expected 4 colors, found 3"),
            ("2 3 2\n0 1\n0 1\n", 3, "unexpected content"),
            ("2 3 0\n0\n", 2, "unexpected content"),
        ],
    )
    def test_malformed_files_name_the_line(self, tmp_path, body, lineno, fragment):
        path = tmp_path / "bad.crt"
        path.write_text(body)
        with pytest.raises(CertificateParseError, match=fragment) as info:
            read_certificate(path)
        assert info.value.lineno == lineno

    def test_out_of_range_color_parses_but_fails_verification(self, tmp_path):
        path = tmp_path / "range.crt"
        path.write_text("2 3 3\n0 1 2\n")
        cert = read_certificate(path)
        assert not verify_certificate(cert)


# the committed starts, one certificate file per pair, and their lengths
STORED_STARTS = {
    (2, 3): 8, (3, 3): 26, (2, 4): 34, (2, 5): 149, (4, 3): 75, (2, 6): 696,
    (3, 4): 292, (5, 3): 48, (6, 3): 207, (4, 4): 592, (3, 5): 965, (2, 7): 1375,
}
STARTS_DIR = search._STARTS
START_FILES = sorted(STARTS_DIR.glob("*.crt"))


@pytest.fixture
def start_store(tmp_path, monkeypatch):
    """Point the start loader at an empty tmp_path, with a cache of its own."""
    monkeypatch.setattr(search, "_STARTS", tmp_path)
    monkeypatch.setattr(
        search, "_stored_start", functools.cache(search._stored_start.__wrapped__)
    )
    return tmp_path


class TestStoredStarts:
    def test_the_store_holds_the_pinned_pairs(self):
        assert [p.name for p in START_FILES] == sorted(
            f"{r}-{k}.crt" for r, k in STORED_STARTS
        )

    @pytest.mark.parametrize("path", START_FILES, ids=lambda p: p.stem)
    def test_each_start_certifies_its_pair(self, path, capsys):
        cert = read_certificate(path)
        assert path.name == f"{cert.r}-{cert.k}.crt"
        assert cert.length == STORED_STARTS[cert.r, cert.k]
        assert verify_certificate(cert)
        assert cli_main(["verify", str(path)]) == 0
        capsys.readouterr()
        # below the registry's value for the known pairs, which checks the
        # registry too
        known = {(r, k): value for r, k, value in KNOWN_VALUES}
        if (cert.r, cert.k) in known:
            assert cert.length < known[cert.r, cert.k]
        assert search._stored_start(cert.r, cert.k) == cert.colors

    def test_each_pair_is_read_once_and_every_search_gets_the_same_start(
        self, start_store, monkeypatch
    ):
        stored = STARTS_DIR / "2-4.crt"
        (start_store / "2-4.crt").write_text(stored.read_text())
        reads = []

        def counting(path):
            reads.append(path)
            return read_certificate(path)

        monkeypatch.setattr(search, "read_certificate", counting)
        first = compute_vdw(2, 4, engine="python")
        second = compute_vdw(2, 4, engine="python")
        assert reads == [start_store / "2-4.crt"]
        assert first.certificate == second.certificate
        # the kept start is a tuple, so no search can change the next one's
        start = search._stored_start(2, 4)
        assert type(start) is tuple
        assert start == read_certificate(stored).colors

    # a start with a progression could put the climb past the true W, so
    # its file is refused by name, and the CLI exits 2
    def test_a_start_with_a_progression_is_refused(self, start_store, capsys):
        text = (STARTS_DIR / "2-4.crt").read_text()
        comment, header, colors = text.splitlines()
        colors = [int(c) for c in colors.split()]
        flip = next(
            i for i in range(len(colors))
            if not ap_free(colors[:i] + [1 - colors[i]] + colors[i + 1:], 4)
        )
        colors[flip] = 1 - colors[flip]
        path = start_store / "2-4.crt"
        path.write_text(f"{comment}\n{header}\n{' '.join(map(str, colors))}\n")
        with pytest.raises(ValueError, match=re.escape(str(path))):
            compute_vdw(2, 4, engine="python")
        assert cli_main(["search", "--r", "2", "--k", "4", "--engine", "python"]) == 2
        assert str(path) in capsys.readouterr().err

    def test_a_start_naming_another_pair_is_refused(self, start_store):
        path = start_store / "3-4.crt"
        path.write_text((STARTS_DIR / "2-4.crt").read_text())
        # no node to spend, so a start wrongly taken ends the run at once
        with pytest.raises(ValueError, match=re.escape(str(path))):
            compute_vdw(3, 4, SearchBudget(max_nodes=0), engine="python")
