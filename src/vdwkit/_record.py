"""The package's two shared rules: integer arguments and JSON-ready records.

require_int is the one check of an integer argument: an int that is not
a bool, and at least some floor when one is given.  A float such as 2.0
is refused rather than truncated, since every verdict here is an integer
statement.  The ValueError names the argument, and the CLI turns it into
exit 2.

Every result type is a frozen dataclass, and its as_dict() lists its
fields in declared order (the CSV header order), with tuples as lists,
Fractions as rational_as_dict and nested records as their own dicts.
A type whose JSON is not its fields overrides as_dict.
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


def rational_as_dict(q: Fraction, places: int = 6) -> dict:
    """Numerator/denominator plus a fixed-point decimal rendering."""
    with decimal.localcontext() as ctx:
        ctx.prec = places + 25
        dec = decimal.Decimal(q.numerator) / decimal.Decimal(q.denominator)
        quantum = decimal.Decimal(1).scaleb(-places)
        rendered = str(dec.quantize(quantum, rounding=decimal.ROUND_HALF_EVEN))
    return {
        "numerator": q.numerator,
        "denominator": q.denominator,
        "decimal": rendered,
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
