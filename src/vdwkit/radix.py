"""Integer radix expansions and floor logarithms.

Digits are kept most significant first, so to_radix(178, 5) gives
(1, 2, 0, 3).  Every verdict-bearing operation here is pure integer
arithmetic; the one function allowed near floating point is
log_display, which exists for table output and nothing else, and even
that runs on decimal with guard digits (_record.decimal_text) rather
than binary floats.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from decimal import Decimal

from ._record import Record, decimal_text, require_int

# Cache of [1, b, b^2, ...] per base, grown on demand.  floor_log is a
# bisect over this list, which keeps the full-range property sweeps fast
# while staying repeated-multiplication underneath.
_powers: dict[int, list[int]] = {}

# Bases whose digits str.format writes directly, and the byte table that
# turns those digit characters back into digit values.
_FORMAT_SPECS = {2: "b", 8: "o", 10: "d", 16: "x"}
_DIGIT_VALUES = bytes.maketrans(b"0123456789abcdef", bytes(range(16)))


def _powers_for(base: int, value: int) -> list[int]:
    table = _powers.get(base)
    if table is None:
        table = [1]
        _powers[base] = table
    while table[-1] <= value:
        table.append(table[-1] * base)
    return table


def floor_log(value: int, base: int) -> int:
    """The unique n with base**n <= value < base**(n+1)."""
    if type(value) is not int or type(base) is not int or value < 1 or base < 2:
        require_int("value", value, 1)
        require_int("base", base, 2)
    table = _powers_for(base, value)
    # table[-1] > value >= 1 = table[0], so the insertion point is >= 1
    return bisect_right(table, value) - 1


@dataclass(frozen=True)
class RadixRep(Record):
    """A positive integer together with its digit expansion in some base.

    Invariants enforced at construction: the leading digit is nonzero,
    every digit is an int in [0, base-1], the digits reconstruct the value,
    and exponent + 1 equals the digit count.  Together these imply
    base**exponent <= value < base**(exponent+1).
    """

    value: int
    base: int
    digits: tuple[int, ...]
    exponent: int

    def __post_init__(self):
        require_int("value", self.value, 1)
        require_int("base", self.base, 2)
        object.__setattr__(self, "digits", tuple(self.digits))
        from_radix(self)  # digit range and type, leading digit, value
        if require_int("exponent", self.exponent) != len(self.digits) - 1:
            raise ValueError(
                f"exponent {self.exponent!r} does not match {len(self.digits)} digits"
            )


@dataclass(frozen=True)
class Interval(Record):
    """Half-open integer interval [low, high)."""

    low: int
    high: int

    def __post_init__(self):
        # plain ints skip the calls: containing_interval builds one per call
        if type(self.low) is not int or type(self.high) is not int:
            require_int("low", self.low)
            require_int("high", self.high)
        if self.low >= self.high:
            raise ValueError(f"need low < high, got [{self.low}, {self.high})")

    def __contains__(self, value: int) -> bool:
        return self.low <= value < self.high


def to_radix(value: int, base: int) -> RadixRep:
    """Digit expansion of value in the given base, most significant first."""
    if type(value) is not int or type(base) is not int or value < 1 or base < 2:
        require_int("value", value, 1)
        require_int("base", base, 2)
    spec = _FORMAT_SPECS.get(base)
    if spec is not None:
        digits = tuple(format(value, spec).encode().translate(_DIGIT_VALUES))
    else:
        digs = []
        v = value
        while v:
            v, d = divmod(v, base)
            digs.append(d)
        digs.reverse()
        digits = tuple(digs)
    # Built by construction to satisfy every invariant; skip the
    # re-validation pass (and the frozen-dataclass setattr guard) so
    # full-range sweeps stay cheap.
    rep = object.__new__(RadixRep)
    fields = rep.__dict__
    fields["value"] = value
    fields["base"] = base
    fields["digits"] = digits
    fields["exponent"] = len(digits) - 1
    return rep


def from_radix(rep, base: int | None = None) -> int:
    """Reconstruct the integer from a RadixRep or a digit sequence plus base.

    Rejects empty or out-of-range digits and a leading zero.  When given
    a RadixRep the reconstruction is also checked against its stored value,
    and a base, if one is passed too, must be the RadixRep's own.
    """
    if isinstance(rep, RadixRep):
        digits, expect = rep.digits, rep.value
        if base is None:
            base = rep.base
        elif base != rep.base:
            raise ValueError(f"base {base!r} does not match the RadixRep's base {rep.base}")
    elif base is None:
        raise ValueError("a digit sequence needs an explicit base")
    else:
        digits, expect = tuple(rep), None
    if type(base) is not int or base < 2:
        require_int("base", base, 2)
    if not digits:
        raise ValueError("digit sequence is empty")
    if digits[0] == 0:
        raise ValueError("leading digit is zero")
    acc = 0
    for d in digits:
        # plain ints skip the call, which the sweeps feel
        if type(d) is not int:
            require_int("digit", d)
        if not 0 <= d < base:
            raise ValueError(f"digit {d!r} out of range for base {base}")
        acc = acc * base + d
    if expect is not None and acc != expect:
        raise ValueError(f"digits reconstruct to {acc}, not the stored {expect}")
    return acc


def containing_interval(value: int, base: int) -> Interval:
    """The half-open interval [base**n, base**(n+1)) holding value."""
    n = floor_log(value, base)
    table = _powers_for(base, value)
    return Interval(table[n], table[n + 1])


def dual_interval_intersection(value: int, r: int, k: int) -> Interval:
    """Intersection of the base-r and base-k containing intervals of value.

    Nonempty by construction since value lies in both.
    """
    require_int("r", r, 2)
    require_int("k", k, 2)
    a = containing_interval(value, r)
    b = containing_interval(value, k)
    low = max(a.low, b.low)
    high = min(a.high, b.high)
    inter = Interval(low, high)
    if value not in inter:
        raise AssertionError(
            f"{value} escaped its own interval intersection [{low}, {high})"
        )
    return inter


def log_display(value: int, base: int, places: int) -> str:
    """log_base(value) rounded to `places` decimals, as a string.

    Display-only: bounds logic never consumes this.  Exact powers short
    circuit to an integer result so no rounding artifact can print, and
    everything else is evaluated with generous guard digits.
    """
    n = floor_log(value, base)
    require_int("places", places, 1)
    if _powers_for(base, value)[n] == value:
        return decimal_text(lambda: Decimal(n), places)
    return decimal_text(lambda: Decimal(value).ln() / Decimal(base).ln(), places)
