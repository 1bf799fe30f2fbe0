"""Search engine, certificates, budgets, and the file format."""
import ctypes
import itertools
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
    compiled_library,
    middle_out,
    open_run,
    search_cubes,
)
from vdwkit.registry import USER_SUPPLIED, Registry, RegistryConflictError, VdwRecord
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


def reference_lex_first(r, k, T):
    """Plain depth-first search: no propagation, no symmetry reduction.

    Independent of the engine under test; returns the lexicographically
    first valid coloring of length T, or None when none exists.
    """
    colors = []

    def rec():
        if len(colors) == T:
            return True
        for c in range(r):
            colors.append(c)
            if last_position_check(colors, k) and rec():
                return True
            colors.pop()
        return False

    return list(colors) if rec() else None


HAVE_COMPILER = _engine._compiler() is not None
needs_compiler = pytest.mark.skipif(
    not HAVE_COMPILER, reason="no C compiler to build the compiled kernel"
)


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
                with pytest.raises(ValueError, match="at least 3"):
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

    @needs_compiler
    def test_compiled_engine_builds_no_reference_run(self, warm_engine, monkeypatch):
        engine = compiled_engine()

        def refuse(*args, **kwargs):
            raise AssertionError("the reference kernel ran on the compiled engine")

        monkeypatch.setattr(_engine, "PythonRun", refuse)
        for mode in ("witness-proof", "canonical"):
            outcome = compute_vdw(3, 3, mode=mode, engine=engine)
            assert (outcome.status, outcome.value) == ("exact", 27)

    def test_witness_is_built_once_per_pair(self, monkeypatch):
        calls = []
        grow = search._grow_witness

        def counting(r, k):
            calls.append((r, k))
            return grow(r, k)

        monkeypatch.setattr(search, "_grow_witness", counting)
        search._cached_witness.cache_clear()
        try:
            first = compute_vdw(2, 3, engine="python")
            second = compute_vdw(2, 3, engine="python")
            # every call hands out its own list
            handed = search.power_residue_witness(2, 3)
            handed.append(1)
            assert search.power_residue_witness(2, 3) == handed[:-1]
        finally:
            search._cached_witness.cache_clear()
        assert calls == [(2, 3)]
        assert first.certificate == second.certificate

    # each worker opens one run per length and re-roots it for every later
    # cube, so with no solo phase the second open is the helper's first
    def test_worker_errors_reach_the_caller(
        self, warm_engine, monkeypatch, helpers_started
    ):
        lock = threading.Lock()
        opened, openers, rooted = [], [], []
        real_open = search.open_run

        def failing_open(engine, r, k, T, order, assumptions=()):
            with lock:
                opened.append(T)
                openers.append(threading.current_thread())
                if len(opened) == 2:
                    raise RuntimeError("second cube refused")
            return real_open(engine, r, k, T, order, assumptions)

        for run_class in (_engine.CompiledRun, _engine.PythonRun):
            def counting_root(run, assumptions=(), real_root=run_class.root):
                rooted.append(assumptions)
                real_root(run, assumptions)

            monkeypatch.setattr(run_class, "root", counting_root)
        monkeypatch.setattr(search, "open_run", failing_open)
        monkeypatch.setattr(search, "_SOLO_SECONDS", 0)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="second cube refused"):
            compute_vdw(3, 3, workers=2)
        assert threading.active_count() == threads
        assert len(helpers_started) == 1
        assert openers[1] is helpers_started[0]
        # the other worker stops at its next step instead of running the
        # cubes still waiting
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
            nodes = max_depth = 0

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

    # one length, T = 27, past the 26-long witness; only the calling thread
    # starts helpers, so a helper that started its own would show here
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
                with pytest.raises(ValueError, match="must be an integer"):
                    compute_vdw(*args, engine=engine)
            for name, count in [("workers", 2.5), ("workers", True), ("max_length", 20.5)]:
                with pytest.raises(ValueError, match=f"{name} must be an integer"):
                    compute_vdw(2, 4, engine=engine, **{name: count})
            for count in (100.0, 1.5, True):
                with pytest.raises(ValueError, match="max_nodes must be an integer"):
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
                open_run(engine, 3, 3, 10, ORDER_MOST_BLOCKED, [assumption])
            # a run re-rooted makes the same check
            run = open_run(engine, 3, 3, 10, ORDER_MOST_BLOCKED)
            with pytest.raises(ValueError, match="root assumption"):
                run.root([assumption])


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
            for start in [[]] + search_cubes(r, T, order)[:2]:
                where = f"order={order} start={start}"
                py = open_run("python", r, k, T, order, start)
                jit = open_run(engine, r, k, T, order, start)
                assert py.coloring() == jit.coloring(), where
                for _ in range(3):
                    status = py.step(500)
                    assert (status, py.nodes, py.max_depth, py.coloring()) == (
                        jit.step(500), jit.nodes, jit.max_depth, jit.coloring()
                    ), where
                    if status != ST_PAUSED:
                        break

    # W(2, 5) cubes too long for the reference, pinned from the colour
    # counting the counter path used before it watched clauses
    @needs_compiler
    @pytest.mark.parametrize(
        "T, index, status, nodes", [(178, 2, ST_EXHAUSTED, 82380), (177, 1, ST_FOUND, 43654)]
    )
    def test_counter_path_node_counts_are_pinned(self, warm_engine, T, index, status, nodes):
        cube = search_cubes(2, T, ORDER_MOST_BLOCKED)[index]
        run = open_run(compiled_engine(), 2, 5, T, ORDER_MOST_BLOCKED, cube)
        assert (run.step(1 << 40), run.nodes) == (status, nodes)
        if status == ST_FOUND:
            assert verify_certificate(Certificate(2, 5, T, Coloring(2, tuple(run.coloring()))))

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
        assert {"vdw_new", "vdw_root", "vdw_step", "vdw_free"} <= set(names)
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
        ],
    )
    def test_verdicts_match_brute_force(self, warm_engine, r, k, lengths):
        engines = ["python"] + ([compiled_engine()] if HAVE_COMPILER else [])
        for T in lengths:
            reference = reference_lex_first(r, k, T)
            satisfiable = reference is not None
            for engine in engines:
                for order in (ORDER_LOWEST, ORDER_MOST_BLOCKED):
                    where = f"T={T} engine={engine} order={order}"
                    run = open_run(engine, r, k, T, order)
                    status = run.step(1 << 40)
                    assert status == (ST_FOUND if satisfiable else ST_EXHAUSTED), where
                    if satisfiable:
                        cert = Certificate(r, k, T, Coloring(r, tuple(run.coloring())))
                        assert verify_certificate(cert)
                    # the cubes a search opens, searched in order up to
                    # the first that finds a coloring, decide the same
                    # length; with ORDER_MOST_BLOCKED that leaves out the
                    # mirror images
                    found = None
                    for cube in search_cubes(r, T, order):
                        run = open_run(engine, r, k, T, order, cube)
                        if run.step(1 << 40) == ST_FOUND:
                            found = run.coloring()
                            break
                    assert (found is not None) == satisfiable, where
                    if order == ORDER_LOWEST:
                        assert found == reference, where

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
                run = open_run(engine, 2, T + 1, T, order)
                for q in range(1, T):
                    assert run.step(1) == ST_PAUSED
                    colored = [p for p, c in enumerate(run.coloring()) if c >= 0]
                    assert colored == sorted(sequence[:q]), (T, order, q)
                assert run.step(1) == ST_FOUND

    # one run re-rooted through every cube of a length, as each worker
    # does, against a fresh run per cube, after every step; the re-rooted
    # run leaves cubes found, exhausted and paused.  A case is (r, k, T,
    # quota, steps per cube); the quotas and step counts keep the
    # reference quick
    @pytest.mark.parametrize(
        "cases",
        [
            [(3, 3, 26, 4, 10), (3, 3, 27, 4, 10)],
            [(2, 4, 34, 8, 10), (2, 5, 178, 100, 2), (2, 6, 697, 30, 2)],
        ],
        ids=["mask", "counter"],
    )
    def test_a_rerooted_run_matches_a_fresh_one(self, warm_engine, cases):
        engines = ["python"] + ([compiled_engine()] if HAVE_COMPILER else [])
        for engine in engines:
            left = set()  # statuses at which the run was re-rooted
            for r, k, T, quota, steps in cases:
                run = None
                for cube in search_cubes(r, T, ORDER_MOST_BLOCKED):
                    fresh = open_run(engine, r, k, T, ORDER_MOST_BLOCKED, cube)
                    if run is None:
                        run = open_run(engine, r, k, T, ORDER_MOST_BLOCKED, cube)
                    else:
                        left.add(status)
                        run.root(cube)
                    where = f"engine={engine} T={T} cube={cube}"
                    assert run.coloring() == fresh.coloring(), where
                    for _ in range(steps):
                        status = run.step(quota)
                        assert (status, run.nodes, run.max_depth, run.coloring()) == (
                            fresh.step(quota), fresh.nodes, fresh.max_depth,
                            fresh.coloring()
                        ), where
                        if status != ST_PAUSED:
                            break
            assert left == {ST_FOUND, ST_EXHAUSTED, ST_PAUSED}, engine

    # each r has an odd T, an even T and a T below the cube depth
    @pytest.mark.parametrize(
        "r, T",
        [(2, 3), (2, 35), (3, 27), (4, 76), (2, 178), (3, 4), (3, 26), (4, 3), (4, 75)],
    )
    def test_cubes_are_the_first_use_patterns(self, r, T):
        def first_use(d):
            return [
                pattern
                for pattern in itertools.product(range(r), repeat=d)
                if all(c <= max(pattern[:i], default=-1) + 1
                       for i, c in enumerate(pattern))
            ]

        def closed(positions):
            return {T - 1 - p for p in positions} == set(positions)

        def mirror(pattern, positions):
            # reflect (position p takes the color of T-1-p), then relabel
            # by first appearance along the cube positions
            line = [-1] * T
            for p, c in zip(positions, pattern):
                line[p] = c
            image = [line[T - 1 - p] for p in positions]
            seen = sorted(set(image), key=image.index)
            return tuple(seen.index(c) for c in image)

        for order in (ORDER_LOWEST, ORDER_MOST_BLOCKED):
            cubes = search_cubes(r, T, order)
            depth = len(cubes[0])
            positions = list(range(T)) if order == ORDER_LOWEST else middle_out(T)
            assert all([p for p, _ in cube] == positions[:depth] for cube in cubes)
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
            # mirroring is an involution on the patterns, and the kept ones
            # are those whose mirror is no smaller: one of each pair and
            # every self-mirror pattern
            cut = positions[:depth]
            assert all(mirror(mirror(pattern, cut), cut) == pattern for pattern in every)
            assert patterns == [
                pattern for pattern in every if mirror(pattern, cut) >= pattern
            ]


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

    def test_zero_second_budget_still_answers(self):
        outcome = compute_vdw(2, 5, SearchBudget(max_seconds=0.0), engine="python")
        assert outcome.status == "budget-exhausted"
        # the starting frontier of length k-1 is the trivial certificate
        assert outcome.value == 5
        assert outcome.certificate.colors == (0, 0, 0, 0)

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
