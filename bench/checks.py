"""Checks on vdwkit's outputs that do not rely on vdwkit.

Every fact here is written down or recomputed with plain integer,
Fraction and decimal arithmetic: the published values are literals, the
progression check is a bit-mask test of its own, digits are re-summed
with powers, and logarithms come from a decimal context with many more
guard digits than the program uses.  A check returns a list of problems;
an empty list means the output passed.
"""
from __future__ import annotations

import decimal
from fractions import Fraction

# W(r, k) as published; never read from vdwkit.registry.
PUBLISHED = {
    (2, 3): 9,
    (2, 4): 35,
    (2, 5): 178,
    (2, 6): 1132,
    (3, 3): 27,
    (3, 4): 293,
    (4, 3): 76,
}


def ilog(value: int, base: int) -> int:
    """The n with base**n <= value < base**(n+1), by repeated multiplication."""
    n, power = 0, base
    while power <= value:
        n, power = n + 1, power * base
    return n


def progression_free(colors, r: int, k: int) -> bool:
    """True when colors uses only 0..r-1 and no color class holds a k-term
    arithmetic progression.

    Each class is a bit mask; a progression with step d starting at a
    exists exactly when bit a survives the AND of the mask shifted by
    0, d, ..., (k-1)d.
    """
    n = len(colors)
    masks = [0] * r
    for i, c in enumerate(colors):
        if not (type(c) is int and 0 <= c < r):
            return False
        masks[c] |= 1 << i
    for d in range(1, (n - 1) // (k - 1) + 1):
        for m in masks:
            hits = m
            for j in range(1, k):
                hits &= m >> (j * d)
                if not hits:
                    break
            if hits:
                return False
    return True


def check_exact(r: int, k: int, status: str, value: int, colors) -> list[str]:
    """An exact outcome: the published value and a progression-free
    certificate of length value - 1."""
    problems = []
    want = PUBLISHED[(r, k)]
    if status != "exact":
        problems.append(f"W({r},{k}) status {status!r}, want 'exact'")
    if value != want:
        problems.append(f"W({r},{k}) = {value}, published {want}")
    if len(colors) != value - 1:
        problems.append(f"W({r},{k}) certificate length {len(colors)}, want {value - 1}")
    if not progression_free(colors, r, k):
        problems.append(f"W({r},{k}) certificate holds a monochromatic {k}-term progression")
    return problems


def check_budgeted(r: int, k: int, status: str, value: int, colors) -> list[str]:
    """A node-budgeted outcome: budget-exhausted, a progression-free
    certificate of length value - 1 >= 100, and value <= W(r, k)."""
    problems = []
    if status != "budget-exhausted":
        problems.append(f"W({r},{k}) status {status!r}, want 'budget-exhausted'")
    if len(colors) != value - 1:
        problems.append(f"W({r},{k}) certificate length {len(colors)}, want {value - 1}")
    if len(colors) < 100:
        problems.append(f"W({r},{k}) certificate length {len(colors)} below 100")
    if value > PUBLISHED[(r, k)]:
        problems.append(f"W({r},{k}) >= {value} exceeds published {PUBLISHED[(r, k)]}")
    if not progression_free(colors, r, k):
        problems.append(f"W({r},{k}) certificate holds a monochromatic {k}-term progression")
    return problems


def check_digits(value: int, base: int, digits) -> list[str]:
    """Digits most significant first: each in range, a nonzero lead,
    sum of d * base**i equal to value, and base**n <= value < base**(n+1)
    for n = len(digits) - 1."""
    problems = []
    digits = tuple(digits)
    if not digits:
        return [f"{value} base {base}: no digits"]
    if any(not (type(d) is int and 0 <= d < base) for d in digits):
        problems.append(f"{value} base {base}: digit out of range")
    if digits[0] == 0:
        problems.append(f"{value} base {base}: leading zero")
    total, power = 0, 1
    for d in reversed(digits):
        total += d * power
        power *= base
    if total != value:
        problems.append(f"{value} base {base}: digits sum to {total}")
    n = len(digits) - 1
    if not pow(base, n) <= value < pow(base, n + 1):
        problems.append(f"{value} base {base}: {n + 1} digits break the power sandwich")
    return problems


def log_text(value: int, base: int, places: int) -> str:
    """log_base(value) rounded half-even to `places` decimals, with 60
    guard digits; exact powers print as integers."""
    n = ilog(value, base)
    quantum = decimal.Decimal(1).scaleb(-places)
    if pow(base, n) == value:
        return str(decimal.Decimal(n).quantize(quantum))
    with decimal.localcontext() as ctx:
        ctx.prec = places + 60
        log = decimal.Decimal(value).ln() / decimal.Decimal(base).ln()
        return str(log.quantize(quantum, rounding=decimal.ROUND_HALF_EVEN))


def truncated_text(x: decimal.Decimal, places: int) -> str:
    return str(x.quantize(decimal.Decimal(1).scaleb(-places), rounding=decimal.ROUND_DOWN))


def theorem_facts(r: int, k: int, k_prime: int | None) -> dict:
    """What check_theorem must report for published values."""
    w = PUBLISHED[(r, k)]
    n = ilog(w, r)
    facts = {"w": w, "n": n, "conclusion_holds": n + 1 <= k * k}
    if k_prime is not None:
        wp = PUBLISHED[(r, k_prime)]
        n_prime = ilog(wp, r)
        facts.update(
            w_prime=wp,
            n_prime=n_prime,
            condition1=w > wp,
            condition2=n_prime < n,
            condition3=None if n + 1 <= 9 else (k_prime >= 3 and k_prime**2 < n + 1),
        )
    return facts


def ratio_facts(r: int, k: int) -> dict:
    """What analyze(r, k) must report: each value in the radix of its own
    progression length, leading digits, exponent gap and the exact ratio."""
    lo, hi = PUBLISHED[(r, k)], PUBLISHED[(r, k + 1)]
    m_lo, m_hi = ilog(lo, k), ilog(hi, k + 1)
    c_lo, c_hi = lo // k**m_lo, hi // (k + 1) ** m_hi
    exact = Fraction(hi, lo)
    leading = Fraction(k) ** (m_hi - m_lo) * Fraction(c_hi, c_lo)
    return {
        "exact": exact,
        "m_lo": m_lo,
        "m_hi": m_hi,
        "gap": m_hi - m_lo,
        "c_lead_lo": c_lo,
        "c_lead_hi": c_hi,
        "leading_estimate": leading,
        "residual": exact / leading,
    }
