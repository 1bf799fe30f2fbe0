"""Each check of the benchmark rejects a deliberately wrong answer.

    python3 bench/test_checks.py        (or: python3 -m pytest bench/test_checks.py)

The first group feeds wrong values, certificates and digit strings to
checks.py directly.  The second runs the benchmark's own batches against
a copy of vdwkit with one function made wrong, and requires the run to
count the failure.
"""
from __future__ import annotations

import itertools
import os
import random
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run as bench  # noqa: E402
import tracing  # noqa: E402

os.environ.setdefault("VDWKIT_CACHE_DIR", str(bench.WORK / "test-kernel"))


def brute_progression_free(colors, r, k):
    n = len(colors)
    for a, d in itertools.product(range(n), range(1, n)):
        idx = [a + j * d for j in range(k)]
        if idx[-1] < n and len({colors[i] for i in idx}) == 1:
            return False
    return all(0 <= c < r for c in colors)


def test_progression_check_matches_brute_force():
    rng = random.Random(7)
    for _ in range(2000):
        r, k, n = rng.choice((2, 3)), rng.randint(3, 5), rng.randint(0, 30)
        colors = [rng.randrange(r) for _ in range(n)]
        assert checks.progression_free(colors, r, k) == brute_progression_free(colors, r, k)


def test_progression_check_rejects_bad_colors():
    assert checks.progression_free([0, 1, 1, 0], 2, 3)
    assert not checks.progression_free([0, 1, 2, 0], 2, 3)
    assert not checks.progression_free([0, -1, 1, 0], 2, 3)
    assert not checks.progression_free([0, 1, 0, 1, 0], 2, 3)


# W(2,3) = 9: this coloring of 8 is the classic witness
GOOD_8 = [0, 0, 1, 1, 0, 0, 1, 1]


def test_exact_check():
    assert checks.check_exact(2, 3, "exact", 9, GOOD_8) == []
    assert checks.check_exact(2, 3, "exact", 10, GOOD_8 + [0])  # wrong value
    assert checks.check_exact(2, 3, "budget-exhausted", 9, GOOD_8)  # wrong status
    assert checks.check_exact(2, 3, "exact", 9, GOOD_8[:-1])  # short certificate
    assert checks.check_exact(2, 3, "exact", 9, [0, 0, 0] + GOOD_8[3:])  # progression


def progression_free_2_coloring(n, k):
    """Depth-first search for a 2-coloring of n positions free of k-term
    progressions, extending only where no progression ends at the new
    position."""
    colors, tried = [], []
    while len(colors) < n:
        c = tried.pop() + 1 if len(tried) > len(colors) else 0
        if c > 1:
            colors.pop()
            continue
        i = len(colors)
        clean = all(
            any(colors[i - j * d] != c for j in range(1, k)) for d in range(1, i // (k - 1) + 1)
        )
        tried.append(c)
        if clean:
            colors.append(c)
    return colors


def test_budgeted_check():
    long = progression_free_2_coloring(120, 6)
    assert checks.progression_free(long, 2, 6)
    value = len(long) + 1
    assert checks.check_budgeted(2, 6, "budget-exhausted", value, long) == []
    assert checks.check_budgeted(2, 6, "exact", value, long)
    assert checks.check_budgeted(2, 6, "budget-exhausted", value, long[:99])
    assert checks.check_budgeted(2, 6, "budget-exhausted", 1133, long + [0] * (1132 - len(long)))
    assert checks.check_budgeted(2, 6, "budget-exhausted", value, [0] * 6 + long[6:])


def test_digit_check():
    assert checks.check_digits(178, 5, (1, 2, 0, 3)) == []
    assert checks.check_digits(178, 5, (1, 2, 0, 4))  # wrong digit
    assert checks.check_digits(178, 5, (0, 1, 2, 0, 3))  # leading zero
    assert checks.check_digits(178, 5, (1, 1, 5, 3))  # digit out of range, same sum
    assert checks.check_digits(178, 5, (7, 0, 3))  # short: sum right, sandwich wrong
    assert checks.check_digits(178, 5, ())


def test_floor_log_and_log_text():
    assert checks.ilog(1132, 2) == 10
    assert checks.ilog(27, 3) == 3
    assert checks.log_text(27, 3, 5) == "3.00000"
    assert checks.log_text(1132, 2, 5) == "10.14466"  # log2(1132) = 10.1446582...
    assert checks.log_text(1132, 2, 5) != "10.14467"


def test_theorem_and_ratio_facts():
    facts = checks.theorem_facts(2, 5, 4)
    assert facts["n"] == 7 and facts["conclusion_holds"]
    assert facts["condition1"] and facts["condition2"] and facts["condition3"] is None
    ratio = checks.ratio_facts(2, 3)
    assert ratio["exact"] == checks.Fraction(35, 9)
    assert (ratio["m_lo"], ratio["m_hi"], ratio["gap"]) == (2, 2, 0)
    assert (ratio["c_lead_lo"], ratio["c_lead_hi"]) == (1, 2)


# the benchmark's batches against a deliberately broken vdwkit


def broken(**replace):
    import vdwkit

    fake = types.SimpleNamespace(**{n: getattr(vdwkit, n) for n in vdwkit.__all__})
    fake.__dict__.update(replace)
    return fake


def fresh_run():
    return bench.Run(tracing.Tracer(enabled=False))


def small_inputs(vdw):
    certs = [(2, 3, tuple(GOOD_8))]
    return bench.Inputs(random.Random(1), vdw, certs)


def test_batch_passes_on_the_real_program():
    run = fresh_run()
    run.certs[(2, 3)] = tuple(GOOD_8)
    bench.analysis_batch(run, broken(), random.Random(1))
    assert run.failed == 0 and run.wrong == 0 and run.attempted > 0
    assert all(len(run.samples[m]) == 1 for m in ("radix_ops_per_s", "analysis_per_s", "verify_per_s"))


def test_radix_batch_counts_wrong_digits():
    real = broken().to_radix

    def to_radix(v, b):
        rep = real(v, b)
        if v % 97 == 0:
            object.__setattr__(rep, "digits", rep.digits[:-1] + ((rep.digits[-1] + 1) % b,))
        return rep

    run = fresh_run()
    vdw = broken(to_radix=to_radix)
    bench.radix_batch(run, vdw, small_inputs(vdw))
    assert run.failed > 0 and run.wrong == run.failed


def test_analysis_pass_counts_a_wrong_floor_log():
    real = broken().floor_log
    run = fresh_run()
    vdw = broken(floor_log=lambda v, b: real(v, b) + (v == 1132))
    bench.analysis_pass(run, vdw, small_inputs(vdw))
    assert run.failed == 1 and run.wrong == 1


def test_analysis_pass_counts_a_wrong_log_display():
    real = broken().log_display
    run = fresh_run()
    vdw = broken(log_display=lambda v, b, p: real(v, b, p)[:-1] + "9")
    bench.analysis_pass(run, vdw, small_inputs(vdw))
    assert run.failed == 1 and run.wrong == 1


def test_verify_batch_counts_a_wrong_verdict():
    run = fresh_run()
    vdw = broken(verify_certificate=lambda cert: True)
    inp = small_inputs(vdw)
    assert not all(inp.verdicts)  # some mutants hold a progression
    bench.verify_batch(run, vdw, inp)
    assert run.failed == inp.verdicts.count(False)


def test_derive_counts_a_wrong_value():
    real = broken().compute_vdw

    def compute_vdw(r, k, budget=None):
        out = real(r, k, budget)
        object.__setattr__(out, "value", out.value + 1)
        return out

    run = fresh_run()
    assert bench.derive(run, broken(compute_vdw=compute_vdw), 2, 3, "small") is None
    assert run.failed == 1 and run.wrong == 1 and run.certs == {}


if __name__ == "__main__":
    tests = [(n, f) for n, f in sorted(globals().items()) if n.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok  {name}")
    print(f"{len(tests)} checks passed")
