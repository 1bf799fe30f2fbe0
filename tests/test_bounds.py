"""Square-exponent bound verdicts and the two summary tables."""
import pytest

from vdwkit.bounds import check_theorem, table1, table2, verify_log_bound

# (r, k, W) -> (n+1, k^2) for the seven stored values, in table order
WITNESSES = [
    (2, 3, 9, 4, 9),
    (2, 4, 35, 6, 16),
    (2, 5, 178, 8, 25),
    (2, 6, 1132, 11, 36),
    (3, 3, 27, 4, 9),
    (3, 4, 293, 6, 16),
    (4, 3, 76, 4, 9),
]


class TestVerifyLogBound:
    @pytest.mark.parametrize("r, k, w, n_plus_one, k_squared", WITNESSES)
    def test_holds_for_every_stored_value(self, r, k, w, n_plus_one, k_squared):
        result = verify_log_bound(r, k, w)
        assert result.holds and bool(result)
        assert (result.n_plus_one, result.k_squared) == (n_plus_one, k_squared)

    def test_arithmetic_counterexample(self):
        # floor_log(16, 2) = 4, so n+1 = 5 > 4 = 2*2: the bound needs k >= 3
        result = verify_log_bound(2, 2, 16)
        assert not result.holds and not bool(result)
        assert (result.n_plus_one, result.k_squared) == (5, 4)

    def test_verdict_is_sharp_at_the_boundary(self):
        assert verify_log_bound(2, 3, 2**8).holds  # n+1 = 9 = k^2
        assert not verify_log_bound(2, 3, 2**9).holds  # n+1 = 10 > 9

    @pytest.mark.parametrize("r, k, w", [(1, 3, 9), (2, 1, 9), (2, 3, 0)])
    def test_domain_errors(self, r, k, w):
        with pytest.raises(ValueError):
            verify_log_bound(r, k, w)

    def test_as_dict(self):
        assert verify_log_bound(2, 3, 9).as_dict() == {
            "holds": True,
            "n_plus_one": 4,
            "k_squared": 9,
        }


class TestCheckTheorem:
    def test_full_three_condition_case(self, registry):
        report = check_theorem(2, 6, 3, registry=registry)
        assert (report.w, report.w_prime) == (1132, 9)
        assert (report.n, report.n_prime) == (10, 3)
        assert report.condition1 and report.condition2 and report.condition3
        assert not report.condition3_vacuous
        assert report.condition3_display == "true"
        assert report.k_lower_bound_holds and report.conclusion_holds

    def test_third_condition_can_fail_alone(self, registry):
        # k' = 4 gives 16 >= 11 = n+1, outside [3, sqrt(n+1))
        report = check_theorem(2, 6, 4, registry=registry)
        assert report.condition1 and report.condition2
        assert report.condition3 is False
        assert report.condition3_display == "false"
        assert report.conclusion_holds

    def test_vacuous_interval_for_small_exponents(self, registry):
        # n+1 = 4 <= 9: [3, 2) holds no integer, so nothing is evaluated
        report = check_theorem(2, 3, registry=registry)
        assert report.condition3_vacuous
        assert report.condition3 is None
        assert report.condition3_display == "vacuous"
        assert report.conclusion_holds

    def test_unevaluated_display_without_k_prime(self, registry):
        report = check_theorem(2, 6, registry=registry)
        assert report.condition1 is None and report.condition2 is None
        assert report.condition3_display == "not-evaluated"

    @pytest.mark.parametrize("r, k, expect_n", [(r, k, n - 1) for r, k, _, n, _ in WITNESSES])
    def test_conclusion_holds_for_every_stored_value(self, registry, r, k, expect_n):
        report = check_theorem(r, k, registry=registry)
        assert report.n == expect_n
        assert report.k_lower_bound_holds and report.conclusion_holds

    def test_explicit_values_bypass_the_registry(self, registry):
        report = check_theorem(2, 4, 3, w=35, w_prime=9, registry=registry)
        assert report.condition1 and report.condition2
        assert (report.w, report.w_prime) == (35, 9)

    def test_k_prime_must_be_smaller(self, registry):
        with pytest.raises(ValueError, match="k_prime < k"):
            check_theorem(2, 4, 4, registry=registry)

    @pytest.mark.parametrize("k_prime", [3.0, True, "3", 0, 2, -1])
    def test_k_prime_must_be_an_integer_of_at_least_three(self, registry, k_prime):
        with pytest.raises(ValueError, match="k_prime >= 3") as info:
            check_theorem(2, 6, k_prime, registry=registry)
        assert f"k_prime={k_prime!r}" in str(info.value)

    # an explicit w bypasses the registry, so check_theorem checks k itself
    @pytest.mark.parametrize("k, w", [(-5, 16), (2, 16), (6.5, 1132), (True, 9)])
    def test_k_must_be_an_integer_of_at_least_three(self, registry, k, w):
        with pytest.raises(ValueError, match="k >= 3") as info:
            check_theorem(2, k, w=w, registry=registry)
        assert f"k={k!r}" in str(info.value)

    def test_unknown_pair_needs_explicit_value(self, registry):
        with pytest.raises(LookupError, match=r"W\(5, 3\)"):
            check_theorem(5, 3, registry=registry)


# table order: (2,3), (2,4), (2,5), (2,6), (3,3), (3,4), (4,3)
TABLE1_EXPECTED = [
    (2, 3, 3, 9, "3.16993", "2^3"),
    (2, 4, 5, 35, "5.12928", "2^5"),
    (2, 5, 7, 178, "7.47573", "2^7"),
    (2, 6, 10, 1132, "10.14466", "2^10"),
    (3, 3, 3, 27, "3.00000", "3^3"),
    (3, 4, 5, 293, "5.17032", "3^5"),
    (4, 3, 3, 76, "3.12396", "4^3"),
]

TABLE2_EXPECTED = [
    (2, 3, "2.000", 3, "0.6931", "1.0986", "2^3", 9, "2^4", "2^9"),
    (2, 4, "2.449", 5, "0.6931", "1.3862", "2^5", 35, "2^6", "2^16"),
    (2, 5, "2.828", 7, "0.6931", "1.6094", "2^7", 178, "2^8", "2^25"),
    (2, 6, "3.316", 10, "0.6931", "1.7917", "2^10", 1132, "2^11", "2^36"),
    (3, 3, "2.000", 3, "1.0986", "1.0986", "3^3", 27, "3^4", "3^9"),
    (3, 4, "2.449", 5, "1.0986", "1.3862", "3^5", 293, "3^6", "3^16"),
    (4, 3, "2.000", 3, "1.3862", "1.0986", "4^3", 76, "4^4", "4^9"),
]


class TestTable1:
    def test_all_rows(self, registry):
        rows = table1(registry)
        got = [(x.r, x.k, x.n, x.W, x.exponent, x.r_pow_n) for x in rows]
        assert got == TABLE1_EXPECTED

    def test_places_parameter(self, registry):
        rows = table1(registry, places=2)
        assert rows[0].exponent == "3.17"
        assert rows[4].exponent == "3.00"

    def test_row_as_dict_keys(self, registry):
        d = table1(registry)[0].as_dict()
        assert list(d) == ["r", "k", "n", "W", "exponent", "r_pow_n"]


class TestTable2:
    def test_all_rows(self, registry):
        rows = table2(registry)
        got = [
            (
                x.r,
                x.k,
                x.sqrt_n_plus_1,
                x.n,
                x.ln_r,
                x.ln_k,
                x.r_pow_n,
                x.W,
                x.r_pow_n_plus_1,
                x.r_pow_k_squared,
            )
            for x in rows
        ]
        assert got == TABLE2_EXPECTED

    def test_decimal_columns_are_truncated_not_rounded(self, registry):
        # sqrt(11) = 3.3166..., truncation gives 3.316 where rounding
        # would give 3.317; ln 6 = 1.79175... truncates to 1.7917
        rows = {(x.r, x.k): x for x in table2(registry)}
        assert rows[(2, 6)].sqrt_n_plus_1 == "3.316"
        assert rows[(2, 6)].ln_k == "1.7917"

    def test_perfect_squares_still_print_three_places(self, registry):
        assert table2(registry)[0].sqrt_n_plus_1 == "2.000"

    def test_bound_chain_reverified_per_row(self, registry):
        for row in table2(registry):
            n = row.n
            assert row.W < row.r ** (n + 1) <= row.r ** (row.k * row.k)
