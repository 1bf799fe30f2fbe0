"""The package's three shared rules: integer arguments, decimal display
and JSON-ready records.

require_int is the one check of an integer argument: an int that is not
a bool, and at least some floor when one is given.  A float such as 2.0
is refused rather than truncated, since every verdict here is an integer
statement.  The ValueError names the argument, and the CLI turns it into
exit 2.

decimal_text is the one way a number becomes display decimals: evaluated
in decimal with 25 guard digits past the places shown (and past the
integer digits, when there are more than 25 of them), then quantized,
rounding half-even or, for the truncated table columns, down.  No verdict
reads these strings.

Every result type is a frozen dataclass, and its as_dict() lists its
fields in declared order (the CSV header order), with tuples as lists,
Fractions as rational_as_dict and nested records as their own dicts.
Certificate alone overrides as_dict: its JSON flattens the coloring to a
list of colors.
"""
from __future__ import annotations

import dataclasses
import decimal
from fractions import Fraction


def require_int(name: str, value, least: int | None = None) -> int:
    """Return value when it is an int, not a bool, and at least least."""
    # a bool is an int to isinstance
    if (
        not isinstance(value, int)
        or isinstance(value, bool)
        or least is not None and value < least
    ):
        floor = "" if least is None else f" >= {least}"
        raise ValueError(f"need an integer {name}{floor}, got {name}={value!r}")
    return value


def decimal_text(compute, places: int, rounding=decimal.ROUND_HALF_EVEN) -> str:
    """compute() at precision places + 25, quantized to `places` decimals.

    compute takes no argument and returns a Decimal; it runs inside the
    widened context, so its divisions, logarithms and roots carry the
    guard digits.  A value with more than 25 integer digits is computed
    again with the precision widened by them, since quantize keeps every
    integer digit.  rounding is ROUND_HALF_EVEN or ROUND_DOWN.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = places + 25
        value = compute()
        if value.adjusted() >= 25:
            ctx.prec += value.adjusted() + 1
            value = compute()
        return str(value.quantize(decimal.Decimal(1).scaleb(-places), rounding=rounding))


def rational_as_dict(q: Fraction, places: int = 6) -> dict:
    """Numerator/denominator plus a fixed-point decimal rendering."""
    return {
        "numerator": q.numerator,
        "denominator": q.denominator,
        "decimal": decimal_text(
            lambda: decimal.Decimal(q.numerator) / decimal.Decimal(q.denominator), places
        ),
    }


def _plain(value):
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, Fraction):
        return rational_as_dict(value)
    if isinstance(value, Record):
        return value.as_dict()
    return value


class Record:
    """Mixin for result dataclasses: as_dict() by the one rule above."""

    def as_dict(self) -> dict:
        return {f.name: _plain(getattr(self, f.name)) for f in dataclasses.fields(self)}
