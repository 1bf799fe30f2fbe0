"""Radix expansions, floor logarithms, intervals, and log display."""
import random

import pytest

from vdwkit.radix import (
    Interval,
    RadixRep,
    containing_interval,
    dual_interval_intersection,
    floor_log,
    from_radix,
    log_display,
    to_radix,
)

# the digit expansions the rest of the package leans on most
KNOWN_EXPANSIONS = [
    (9, 3, (1, 0, 0)),
    (35, 4, (2, 0, 3)),
    (178, 5, (1, 2, 0, 3)),
    (1132, 6, (5, 1, 2, 4)),
    (293, 4, (1, 0, 2, 1, 1)),
    (27, 3, (1, 0, 0, 0)),
    (76, 3, (2, 2, 1, 1)),
    (76, 4, (1, 0, 3, 0)),
]


class TestFloorLog:
    @pytest.mark.parametrize(
        "value, base, expected",
        [
            (1, 2, 0),
            (2, 2, 1),
            (3, 2, 1),
            (4, 2, 2),
            (9, 2, 3),
            (178, 2, 7),
            (1132, 2, 10),
            (27, 3, 3),
            (293, 3, 5),
            (76, 4, 3),
            (10**18, 10, 18),
        ],
    )
    def test_known_values(self, value, base, expected):
        assert floor_log(value, base) == expected

    def test_sandwich_property(self):
        for value, base, n in [(178, 5, 3), (1132, 6, 3), (9, 3, 2)]:
            assert floor_log(value, base) == n
            assert base**n <= value < base ** (n + 1)

    @pytest.mark.parametrize("value, base", [(0, 2), (-5, 2), (9, 1), (9, 0)])
    def test_domain_errors(self, value, base):
        with pytest.raises(ValueError):
            floor_log(value, base)

    def test_rejects_non_integers(self):
        with pytest.raises(ValueError):
            floor_log(9.0, 2)
        with pytest.raises(ValueError):
            floor_log(True, 2)


class TestToRadix:
    @pytest.mark.parametrize("value, base, digits", KNOWN_EXPANSIONS)
    def test_known_expansions(self, value, base, digits):
        rep = to_radix(value, base)
        assert rep.digits == digits
        assert rep.exponent == len(digits) - 1
        assert rep.value == value and rep.base == base

    def test_round_trip_random_sample(self):
        rng = random.Random(20240817)
        for _ in range(500):
            value = rng.randrange(1, 10**9)
            base = rng.randrange(2, 17)
            rep = to_radix(value, base)
            assert from_radix(rep) == value
            assert base**rep.exponent <= value < base ** (rep.exponent + 1)

    def test_single_digit(self):
        rep = to_radix(7, 10)
        assert rep.digits == (7,) and rep.exponent == 0


class TestRadixRepValidation:
    def test_accepts_consistent_fields(self):
        RadixRep(value=35, base=4, digits=(2, 0, 3), exponent=2)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(value=35, base=4, digits=(0, 2, 0, 3), exponent=3),  # leading zero
            dict(value=35, base=4, digits=(2, 0, 4), exponent=2),  # digit >= base
            dict(value=35, base=4, digits=(2, 0, 2), exponent=2),  # wrong value
            dict(value=35, base=4, digits=(2, 0, 3), exponent=3),  # wrong exponent
            dict(value=35, base=4, digits=(), exponent=0),  # empty
            dict(value=1, base=2, digits=(1.0,), exponent=0),  # float digit
            dict(value=1, base=2, digits=(True,), exponent=0),  # bool digit
        ],
    )
    def test_rejects_inconsistent_fields(self, kwargs):
        with pytest.raises(ValueError):
            RadixRep(**kwargs)


class TestFromRadix:
    def test_digit_sequence_with_base(self):
        assert from_radix((1, 2, 0, 3), base=5) == 178
        assert from_radix([5, 1, 2, 4], base=6) == 1132

    def test_rep_without_base(self):
        assert from_radix(to_radix(293, 4)) == 293

    @pytest.mark.parametrize(
        "digits, base",
        [((), 5), ((0, 1), 5), ((1, 5), 5), ((1, 2), 1)],
    )
    def test_rejects_bad_digit_sequences(self, digits, base):
        with pytest.raises(ValueError):
            from_radix(digits, base=base)

    def test_sequence_needs_explicit_base(self):
        with pytest.raises(ValueError, match="explicit base"):
            from_radix((1, 2, 0, 3))

    def test_rep_with_its_own_base(self):
        assert from_radix(to_radix(10, 2), 2) == 10

    @pytest.mark.parametrize("base", [3, 2.0])
    def test_rep_refuses_another_base(self, base):
        with pytest.raises(ValueError, match="base"):
            from_radix(to_radix(10, 2), base)


class TestIntervals:
    @pytest.mark.parametrize(
        "value, base, low, high",
        [(178, 5, 125, 625), (178, 2, 128, 256), (9, 3, 9, 27), (1, 7, 1, 7)],
    )
    def test_containing_interval(self, value, base, low, high):
        interval = containing_interval(value, base)
        assert (interval.low, interval.high) == (low, high)
        assert value in interval

    def test_half_open_membership(self):
        interval = Interval(8, 16)
        assert 8 in interval and 15 in interval
        assert 16 not in interval and 7 not in interval

    def test_degenerate_interval_rejected(self):
        with pytest.raises(ValueError):
            Interval(5, 5)

    @pytest.mark.parametrize(
        "value, r, k, low, high",
        [(178, 2, 5, 128, 256), (9, 2, 3, 9, 16), (27, 3, 3, 27, 81)],
    )
    def test_dual_interval_intersection(self, value, r, k, low, high):
        inter = dual_interval_intersection(value, r, k)
        assert (inter.low, inter.high) == (low, high)
        assert value in inter


class TestLogDisplay:
    @pytest.mark.parametrize(
        "value, base, places, expected",
        [
            (9, 2, 5, "3.16993"),
            (8, 2, 5, "3.00000"),
            (35, 2, 4, "5.1293"),
            (178, 2, 5, "7.47573"),
            (1132, 2, 5, "10.14466"),
            (293, 3, 5, "5.17032"),
            (76, 4, 5, "3.12396"),
            (27, 3, 2, "3.00"),
        ],
    )
    def test_rounded_strings(self, value, base, places, expected):
        assert log_display(value, base, places) == expected

    def test_exact_powers_never_drift(self):
        # huge exact powers must print as integers, not 4.99999 or 5.00001
        for base in (2, 3, 7):
            assert log_display(base**40, base, 6) == "40.000000"

    def test_rejects_bad_places(self):
        with pytest.raises(ValueError):
            log_display(9, 2, 0)
