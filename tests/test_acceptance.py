"""End-to-end acceptance checks, one test per shipping requirement.

Each test exercises one requirement at its stated tolerance; the
terminal summary prints one PASS/FAIL line per requirement.  The
re-derivation check runs every pair under its stated wall-clock limit
and reports all five outcomes together, so a miss on one pair still
shows the others.
"""
import decimal
import math
import random
import time

import pytest

from vdwkit.bounds import table1, table2, verify_log_bound
from vdwkit.radix import from_radix, to_radix
from vdwkit.ratio import analyze, binomial_expansion_estimate, exact_identity_rhs, exact_ratio
from vdwkit.registry import default_registry
from vdwkit.search import (
    SearchBudget,
    ap_free,
    compute_vdw,
    last_position_check,
    verify_certificate,
)

EXPANSIONS = [
    (9, 3, [1, 0, 0]),
    (35, 4, [2, 0, 3]),
    (178, 5, [1, 2, 0, 3]),
    (1132, 6, [5, 1, 2, 4]),
    (27, 3, [1, 0, 0, 0]),
    (293, 4, [1, 0, 2, 1, 1]),
    (76, 3, [2, 2, 1, 1]),
]

TABLE_ROWS = [(2, 3, 3, 9), (2, 4, 5, 35), (2, 5, 7, 178), (2, 6, 10, 1132),
              (3, 3, 3, 27), (3, 4, 5, 293), (4, 3, 3, 76)]


@pytest.mark.acceptance
def test_radix_expansions_exact_and_fast():
    for value, base, digits in EXPANSIONS:
        best = min(
            _timed(to_radix, value, base)[1] for _ in range(5)
        )
        rep = to_radix(value, base)
        assert list(rep.digits) == digits, f"{value} base {base}"
        assert best < 1e-3, f"to_radix({value}, {base}) took {best * 1e3:.3f} ms"


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


@pytest.mark.acceptance
def test_exponent_table_rows_and_displays():
    rows = table1()
    assert [(q.r, q.k, q.n, q.W) for q in rows] == TABLE_ROWS
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        for row in rows:
            true_log = decimal.Decimal(row.W).ln() / decimal.Decimal(row.r).ln()
            shown = decimal.Decimal(row.exponent)
            assert int(shown) == row.n
            assert abs(shown - true_log) <= decimal.Decimal("0.0000051"), (
                f"log_{row.r} {row.W}: shown {row.exponent}, true {true_log}"
            )
    # exact power: the display must not echo a misrounded tail
    assert rows[4].exponent == "3.00000"


@pytest.mark.acceptance
def test_bound_table_displays_and_integer_chain():
    ln_display = {2: "0.6931", 3: "1.0986", 4: "1.3862", 5: "1.6094", 6: "1.7917"}
    rows = table2()
    seen = set()
    for row in rows:
        assert row.ln_r == ln_display[row.r]
        assert row.ln_k == ln_display[row.k]
        seen.update((row.ln_r, row.ln_k))
        assert abs(float(row.sqrt_n_plus_1) - math.sqrt(row.n + 1)) < 1e-3
        assert row.W < row.r ** (row.n + 1) <= row.r ** (row.k * row.k)
        assert row.r_pow_n_plus_1 == f"{row.r}^{row.n + 1}"
        assert row.r_pow_k_squared == f"{row.r}^{row.k * row.k}"
    assert seen == set(ln_display.values())
    assert rows[3].sqrt_n_plus_1 == "3.316"  # n = 10


@pytest.mark.acceptance
def test_log_bound_holds_with_expected_witnesses():
    expected = [(4, 9), (6, 16), (8, 25), (11, 36), (4, 9), (6, 16), (4, 9)]
    witnesses = []
    for rec in default_registry().records():
        res = verify_log_bound(rec.r, rec.k, rec.value)
        assert res.holds, f"W({rec.r}, {rec.k})"
        witnesses.append((res.n_plus_one, res.k_squared))
    assert witnesses == expected


@pytest.mark.acceptance
def test_ratio_identities_and_gaps():
    pairs = [(2, 3), (2, 4), (2, 5), (3, 3)]
    for r, k in pairs:
        assert exact_identity_rhs(r, k) == exact_ratio(r, k), f"({r}, {k})"
        a = analyze(r, k)
        assert a.gap in (0, 1), f"({r}, {k}) gap {a.gap}"
        assert (a.gap == 1) == ((r, k) in ((2, 4), (3, 3))), f"({r}, {k})"
        if a.gap >= 1:
            assert binomial_expansion_estimate(r, k) == a.leading_estimate


@pytest.mark.acceptance
@pytest.mark.slow
def test_search_rederives_known_values(warm_engine):
    runs = [
        (2, 3, 9, 1.0),
        (3, 3, 27, 1.0),
        (2, 4, 35, 1.0),
        (4, 3, 76, 60.0),
        (2, 5, 178, 600.0),
    ]
    report = []
    failed = False
    for r, k, expected, limit in runs:
        t0 = time.perf_counter()
        outcome = compute_vdw(r, k, SearchBudget(max_seconds=limit))
        elapsed = time.perf_counter() - t0
        cert_ok = outcome.certificate is not None and verify_certificate(outcome.certificate)
        ok = (
            outcome.status == "exact"
            and outcome.value == expected
            and elapsed < limit
            and cert_ok
        )
        failed = failed or not ok
        report.append(
            f"W({r}, {k}): {outcome.status} value={outcome.value} "
            f"in {elapsed:.1f}s (limit {limit:.0f}s, "
            f"{outcome.stats.nodes} nodes, certificate "
            f"{'valid' if cert_ok else 'INVALID'}) "
            f"{'ok' if ok else '** MISS, need exact ' + str(expected) + ' **'}"
        )
    if failed:
        pytest.fail("\n".join(report), pytrace=False)


@pytest.mark.acceptance
@pytest.mark.slow
def test_budgeted_run_yields_verified_lower_bound(warm_engine):
    outcome = compute_vdw(2, 6, SearchBudget(max_seconds=5.0))
    assert outcome.status == "budget-exhausted"
    cert = outcome.certificate
    assert cert is not None and verify_certificate(cert)
    assert cert.length >= 100, f"lower bound only {cert.length}"
    assert outcome.value == cert.length + 1


@pytest.mark.acceptance
@pytest.mark.slow
def test_incremental_detector_matches_brute_force():
    rng = random.Random(0x5EED)
    disagreements = 0
    for _ in range(10_000):
        r = rng.choice((2, 3))
        k = rng.randint(3, 5)
        length = rng.randint(1, 40)
        colors = [rng.randrange(r) for _ in range(length)]
        incremental = all(
            last_position_check(colors[: i + 1], k) for i in range(length)
        )
        if incremental != ap_free(colors, k):
            disagreements += 1
    assert disagreements == 0


@pytest.mark.acceptance
@pytest.mark.slow
def test_radix_round_trip_and_sandwich_sweep():
    t0 = time.perf_counter()
    for base in range(2, 17):
        powers = [base ** i for i in range(22)]
        for v in range(1, 1_000_001):
            rep = to_radix(v, base)
            n = len(rep.digits) - 1
            assert from_radix(rep) == v
            assert powers[n] <= v < powers[n + 1]
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"
