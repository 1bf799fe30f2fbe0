"""Search engine, certificates, budgets, and the file format."""
import itertools
import random
import subprocess

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
        with pytest.raises(ValueError):
            ap_free([0, 1], 2)


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
            # same algorithm, same tree: the node counts must match too
            assert py.stats.nodes == jit.stats.nodes, mode

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
    # canonical certificate, which is the lexicographically first one
    @pytest.mark.parametrize("r, k", [(2, 4), (3, 3)])
    def test_parallel_matches_canonical(self, warm_engine, r, k):
        canonical = compute_vdw(r, k, mode="canonical", workers=1)
        assert canonical.status == "exact"
        assert "".join(map(str, canonical.certificate.colors)) == LEX_FIRST[(r, k)]
        for workers in (2, 4):
            parallel = compute_vdw(r, k, mode="canonical", workers=workers)
            assert (parallel.status, parallel.value) == (canonical.status, canonical.value)
            assert parallel.certificate.colors == canonical.certificate.colors

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

    @pytest.mark.parametrize("assumption", [(-1, 0), (10, 0), (0, 3)])
    def test_root_assumptions_outside_the_run_are_refused(self, assumption):
        engines = ["python"] + ([compiled_engine()] if HAVE_COMPILER else [])
        for engine in engines:
            with pytest.raises(ValueError, match="root assumption"):
                open_run(engine, 3, 3, 10, ORDER_MOST_BLOCKED, [assumption])


class TestCompiledKernel:
    """The compiled kernel's own edges: the k = 3 mask path at the 64-bit
    word boundary and at the full 128-bit mask, and the counter path on
    k = 3 at 129, the first length past the masks, for r its blocked-colour
    count specialises (3, 4) and a generic r (5); the counter path at the
    lengths its searches run; its warnings; its cache key.  At r = 4 the first 1500 nodes rarely block through a position
    past 63, so r = 3 is the case that sees a lost upper dilation word."""

    @needs_compiler
    @pytest.mark.parametrize("T", [64, 65, 127, 128, 129])
    @pytest.mark.parametrize("r", [3, 4, 5])
    def test_engines_agree_at_mask_path_edges(self, warm_engine, r, T):
        engine = compiled_engine()
        for order in (ORDER_LOWEST, ORDER_MOST_BLOCKED):
            for start in [[]] + search_cubes(r, T, order)[:2]:
                where = f"order={order} start={start}"
                py = open_run("python", r, 3, T, order, start)
                jit = open_run(engine, r, 3, T, order, start)
                for _ in range(3):
                    status = py.step(500)
                    assert (status, py.nodes) == (jit.step(500), jit.nodes), where
                    if status == ST_FOUND:
                        assert py.coloring() == jit.coloring(), where
                    if status != ST_PAUSED:
                        break

    # the counter path against the reference at the lengths its searches
    # run: both sides of W(2, 5) = 178, the W(3, 4) witness-proof start,
    # the W(2, 6) budgeted start and a generic r, whose root search
    # backtracks from about T = 500 (its first two cubes put one colour on
    # four neighbours and are refuted at once).  A paused step reports its
    # quota as nodes whatever the tree, so the partial coloring and
    # max_depth are compared too: the counter path processes forced moves
    # in the reference's order, so they agree even when the last node
    # ended in a conflict.
    @needs_compiler
    @pytest.mark.parametrize(
        "r, k, T", [(2, 5, 177), (2, 5, 178), (3, 4, 292), (2, 6, 697), (5, 4, 500)]
    )
    def test_engines_agree_on_long_counter_runs(self, warm_engine, r, k, T):
        engine = compiled_engine()
        for order in (ORDER_LOWEST, ORDER_MOST_BLOCKED):
            for start in [[]] + search_cubes(r, T, order)[:2]:
                where = f"order={order} start={start}"
                py = open_run("python", r, k, T, order, start)
                jit = open_run(engine, r, k, T, order, start)
                for _ in range(3):
                    status = py.step(500)
                    assert (status, py.nodes, py.max_depth) == (
                        jit.step(500), jit.nodes, jit.max_depth
                    ), where
                    assert py.coloring() == jit.coloring(), where
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

    # compiled to an object file, not -fsyntax-only: gcc reports unused
    # static functions only when it compiles
    @needs_compiler
    def test_kernel_compiles_without_warnings(self, tmp_path):
        proc = subprocess.run(
            [_engine._compiler(), "-c", "-Wall", "-Wextra", "-Werror",
             "-o", str(tmp_path / "kernel.o"), str(_engine._SOURCE)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr

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

    @pytest.mark.parametrize("r, T", [(2, 3), (2, 35), (3, 27), (4, 76), (2, 178)])
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

    def test_stats_are_populated(self):
        outcome = compute_vdw(2, 3, engine="python")
        assert outcome.stats.nodes > 0
        assert outcome.stats.elapsed >= 0
        assert outcome.stats.max_depth == 9


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
