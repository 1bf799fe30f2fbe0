"""Exact rational ratio analysis of consecutive stored values."""
from fractions import Fraction

import pytest

from vdwkit._record import rational_as_dict
from vdwkit.ratio import (
    alpha_decompose,
    analyze,
    binomial_expansion_estimate,
    exact_identity_rhs,
    exact_ratio,
    gap_survey,
)
from vdwkit.registry import USER_SUPPLIED, VdwRecord

# the four consecutive pairs available from stored values
RATIOS = [
    (2, 3, Fraction(35, 9)),
    (2, 4, Fraction(178, 35)),
    (2, 5, Fraction(566, 89)),
    (3, 3, Fraction(293, 27)),
]

# (r, k) -> (m_lo, m_hi, gap, c_lo, c_hi, leading, residual)
ANALYSIS = [
    (2, 3, 2, 2, 0, 1, 2, Fraction(2), Fraction(35, 18)),
    (2, 4, 2, 3, 1, 2, 1, Fraction(2), Fraction(89, 35)),
    (2, 5, 3, 3, 0, 1, 5, Fraction(5), Fraction(566, 445)),
    (3, 3, 3, 4, 1, 1, 1, Fraction(3), Fraction(293, 81)),
]


class TestExactRatio:
    @pytest.mark.parametrize("r, k, expected", RATIOS)
    def test_known_pairs(self, registry, r, k, expected):
        assert exact_ratio(r, k, registry) == expected

    def test_fractions_arrive_reduced(self, registry):
        q = exact_ratio(2, 5, registry)
        assert (q.numerator, q.denominator) == (566, 89)

    def test_missing_pair(self, registry):
        with pytest.raises(LookupError, match=r"W\(2, 7\)"):
            exact_ratio(2, 6, registry)


class TestAlphaDecompose:
    @pytest.mark.parametrize(
        "r, k, alpha, sign",
        [(2, 3, 1, "+"), (2, 5, 3, "+"), (3, 3, 0, "-"), (4, 3, 1, "-")],
    )
    def test_cases(self, r, k, alpha, sign):
        decomp = alpha_decompose(r, k)
        assert (decomp.alpha, decomp.sign) == (alpha, sign)
        # the decomposition reconstructs k from r
        assert r + alpha == k if sign == "+" else r - alpha == k

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            alpha_decompose(1, 3)


class TestAnalyze:
    @pytest.mark.parametrize(
        "r, k, m_lo, m_hi, gap, c_lo, c_hi, leading, residual", ANALYSIS
    )
    def test_known_pairs(
        self, registry, r, k, m_lo, m_hi, gap, c_lo, c_hi, leading, residual
    ):
        ana = analyze(r, k, registry)
        assert (ana.m_lo, ana.m_hi, ana.gap) == (m_lo, m_hi, gap)
        assert (ana.c_lead_lo, ana.c_lead_hi) == (c_lo, c_hi)
        assert ana.leading_estimate == leading
        assert ana.r_form_estimate == leading
        assert ana.residual == residual
        # residual is a measured quantity, not an approximation claim
        assert ana.exact == ana.leading_estimate * ana.residual

    def test_residuals_are_far_from_one(self, registry):
        for r, k, *_ in RATIOS:
            residual = analyze(r, k, registry).residual
            assert abs(residual - 1) > Fraction(1, 4)

    def test_as_dict_renders_rationals(self, registry):
        d = analyze(2, 3, registry).as_dict()
        assert d["exact"] == {
            "numerator": 35,
            "denominator": 9,
            "decimal": "3.888889",
        }
        assert d["residual"]["numerator"] == 35
        assert d["alpha"] == {"alpha": 1, "sign": "+"}


class TestExactIdentity:
    @pytest.mark.parametrize("r, k, expected", RATIOS)
    def test_factored_form_reproduces_the_ratio(self, registry, r, k, expected):
        assert exact_identity_rhs(r, k, registry) == expected


class TestBinomialExpansion:
    @pytest.mark.parametrize("r, k, value", [(2, 4, Fraction(2)), (3, 3, Fraction(3))])
    def test_gap_one_pairs(self, registry, r, k, value):
        assert binomial_expansion_estimate(r, k, registry) == value

    @pytest.mark.parametrize("r, k", [(2, 3), (2, 5)])
    def test_gap_zero_pairs_are_rejected(self, registry, r, k):
        with pytest.raises(ValueError, match="gap >= 1"):
            binomial_expansion_estimate(r, k, registry)


class TestGapSurvey:
    def test_stored_pairs(self, registry):
        entries = gap_survey(registry)
        got = [(e.pair_lo, e.pair_hi, e.gap) for e in entries]
        assert got == [
            ((2, 3), (2, 4), 0),
            ((2, 4), (2, 5), 1),
            ((2, 5), (2, 6), 0),
            ((3, 3), (3, 4), 1),
        ]

    def test_extension_pairs_reported_whatever_their_gap(self, registry):
        # a wildly larger follow-on value makes the gap jump past 1;
        # user-supplied data is reported, not asserted against
        registry.upsert_search_result(
            VdwRecord(r=2, k=7, value=10**8, provenance=(USER_SUPPLIED,))
        )
        entries = gap_survey(registry)
        entry = next(e for e in entries if e.pair_lo == (2, 6))
        assert entry.gap == 9 - 3


class TestRationalAsDict:
    def test_rounding_and_places(self):
        assert rational_as_dict(Fraction(35, 18)) == {
            "numerator": 35,
            "denominator": 18,
            "decimal": "1.944444",
        }
        assert rational_as_dict(Fraction(1, 3), places=2)["decimal"] == "0.33"

    def test_integers_render_with_full_places(self):
        assert rational_as_dict(Fraction(2))["decimal"] == "2.000000"

    # more integer digits than the 25 guard digits, all of them kept
    def test_values_past_the_guard_digits_keep_every_digit(self):
        assert rational_as_dict(Fraction(10**40, 3))["decimal"] == "3" * 40 + ".333333"
