"""Exact rational analysis of consecutive-value ratios W(r, k+1) / W(r, k).

Each value is expanded in the radix equal to its own progression length
(W(r, k) in base k, W(r, k+1) in base k+1).  The ratio then factors into
a power of k, a power of (1 + 1/k), and a quotient of digit tails; the
leading-order part k**gap * c_hi/c_lo is what survives when the tails
are dropped.  Everything here is evaluated in exact rational arithmetic,
so the dropped part is not an assumption but a measured residual, and at
these small k it is visibly not close to 1.

The alpha decomposition writes the lower index as k = r + alpha when
k > r and k = r - alpha when k <= r, which turns the k-power form into
an r-power form; the two are identical because r * (1 +- alpha/r) = k.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from . import radix
from ._record import Record, require_int
from .registry import PAPER_TABLE, Registry, default_registry, stored_value


def _expansions(r: int, k: int, registry: Registry | None):
    """W(r, k) in base k and W(r, k+1) in base k+1, each carrying its value."""
    return (
        radix.to_radix(stored_value(r, k, registry), k),
        radix.to_radix(stored_value(r, k + 1, registry), k + 1),
    )


def exact_ratio(r: int, k: int, registry: Registry | None = None) -> Fraction:
    """W(r, k+1) / W(r, k) as a reduced fraction."""
    w_lo = stored_value(r, k, registry)
    return Fraction(stored_value(r, k + 1, registry), w_lo)


@dataclass(frozen=True)
class AlphaDecomposition(Record):
    """k = r + alpha (sign '+') or k = r - alpha (sign '-', includes k = r)."""

    alpha: int
    sign: str

    def __post_init__(self):
        if self.sign not in ("+", "-"):
            raise ValueError(f"sign must be '+' or '-', got {self.sign!r}")
        require_int("alpha", self.alpha, 0)


def alpha_decompose(r: int, k: int) -> AlphaDecomposition:
    """Write k as r + alpha or r - alpha; k = r takes alpha 0 with sign '-'."""
    require_int("r", r, 2)
    require_int("k", k, 3)
    if k > r:
        return AlphaDecomposition(k - r, "+")
    return AlphaDecomposition(r - k, "-")


@dataclass(frozen=True)
class RatioAnalysis(Record):
    """All the exact pieces of one consecutive-value ratio.

    gap is m_hi - m_lo, the difference of the two radix exponents.  The
    leading estimate k**gap * c_lead_hi / c_lead_lo and its r-form twin
    must agree identically; residual is exact / leading_estimate.
    """

    r: int
    k: int
    w_lo: int
    w_hi: int
    exact: Fraction
    m_lo: int
    m_hi: int
    gap: int
    c_lead_lo: int
    c_lead_hi: int
    alpha: AlphaDecomposition
    leading_estimate: Fraction
    r_form_estimate: Fraction
    residual: Fraction


def analyze(r: int, k: int, registry: Registry | None = None) -> RatioAnalysis:
    """Exact ratio, exponent gap, leading digits, estimates, and residual."""
    rep_lo, rep_hi = _expansions(r, k, registry)
    w_lo, w_hi = rep_lo.value, rep_hi.value
    m_lo, m_hi = rep_lo.exponent, rep_hi.exponent
    gap = m_hi - m_lo
    c_lo, c_hi = rep_lo.digits[0], rep_hi.digits[0]
    exact = Fraction(w_hi, w_lo)

    leading = Fraction(k) ** gap * Fraction(c_hi, c_lo)
    alpha = alpha_decompose(r, k)
    signed = 1 + Fraction(alpha.alpha, r) if alpha.sign == "+" else 1 - Fraction(alpha.alpha, r)
    r_form = Fraction(r) ** gap * signed ** gap * Fraction(c_hi, c_lo)
    if leading != r_form:
        raise AssertionError(
            f"k-power and r-power estimates disagree for ({r}, {k}): "
            f"{leading} vs {r_form}"
        )
    return RatioAnalysis(
        r=r,
        k=k,
        w_lo=w_lo,
        w_hi=w_hi,
        exact=exact,
        m_lo=m_lo,
        m_hi=m_hi,
        gap=gap,
        c_lead_lo=c_lo,
        c_lead_hi=c_hi,
        alpha=alpha,
        leading_estimate=leading,
        r_form_estimate=r_form,
        residual=exact / leading,
    )


def exact_identity_rhs(r: int, k: int, registry: Registry | None = None) -> Fraction:
    """The factored form of the ratio, evaluated exactly.

    k**gap * (1 + 1/k)**m_hi times the quotient of full digit tails,
    where each tail is the digit expansion read against descending
    powers of its own radix.  This is an algebraic identity for the
    ratio, so the return value equals exact_ratio(r, k); the function
    exists to let that be checked by evaluation rather than trusted.
    """
    rep_lo, rep_hi = _expansions(r, k, registry)
    gap = rep_hi.exponent - rep_lo.exponent
    tail_hi, tail_lo = (
        sum((Fraction(d, rep.base**i) for i, d in enumerate(rep.digits)), Fraction(0))
        for rep in (rep_hi, rep_lo)
    )
    rhs = Fraction(k) ** gap * (1 + Fraction(1, k)) ** rep_hi.exponent * tail_hi / tail_lo
    if rhs != Fraction(rep_hi.value, rep_lo.value):
        raise AssertionError(
            f"factored form failed to reproduce {rep_hi.value}/{rep_lo.value} for ({r}, {k})"
        )
    return rhs


def binomial_expansion_estimate(r: int, k: int, registry: Registry | None = None) -> Fraction:
    """The leading estimate with (1 +- alpha/r)**gap expanded binomially.

    Requires gap >= 1.  Evaluates
    r**gap * sum_j (+-1)^j C(gap, j) (alpha/r)^j * c_hi/c_lo
    exactly and asserts it equals the unexpanded leading estimate, which
    is the binomial theorem doing the work.
    """
    ana = analyze(r, k, registry)
    if ana.gap < 1:
        raise ValueError(
            f"binomial expansion needs exponent gap >= 1, got gap={ana.gap} "
            f"for ({r}, {k})"
        )
    unit = 1 if ana.alpha.sign == "+" else -1
    total = sum(
        (
            Fraction(unit) ** j * comb(ana.gap, j) * Fraction(ana.alpha.alpha, r) ** j
            for j in range(ana.gap + 1)
        ),
        Fraction(0),
    )
    est = Fraction(r) ** ana.gap * total * Fraction(ana.c_lead_hi, ana.c_lead_lo)
    if est != ana.leading_estimate:
        raise AssertionError(
            f"binomial expansion disagrees with leading estimate for ({r}, {k}): "
            f"{est} vs {ana.leading_estimate}"
        )
    return est


@dataclass(frozen=True)
class GapEntry(Record):
    pair_lo: tuple[int, int]
    pair_hi: tuple[int, int]
    gap: int


def gap_survey(registry: Registry | None = None) -> list[GapEntry]:
    """Exponent gaps for every stored consecutive pair, sorted by (r, k).

    For the seeded data the gap always lands in {0, 1}; a seeded pair
    outside that range means broken arithmetic and raises.  Pairs added
    by extension are reported as found, whatever their gap.
    """
    reg = registry if registry is not None else default_registry()
    entries = []
    for rec in reg.records():
        hi = reg.lookup(rec.r, rec.k + 1)
        if hi is None:
            continue
        m_lo = radix.floor_log(rec.value, rec.k)
        m_hi = radix.floor_log(hi.value, rec.k + 1)
        gap = m_hi - m_lo
        seeded = PAPER_TABLE in rec.provenance and PAPER_TABLE in hi.provenance
        if seeded and gap not in (0, 1):
            raise AssertionError(
                f"stored pair ({rec.r}, {rec.k})->({rec.r}, {rec.k + 1}) "
                f"has exponent gap {gap}, outside {{0, 1}}"
            )
        entries.append(GapEntry((rec.r, rec.k), (rec.r, rec.k + 1), gap))
    return entries
