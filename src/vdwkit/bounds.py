"""Square-exponent bound checks and the two summary tables.

The central fact being verified: whenever k*k >= n+1 for n the base-r
floor-log of W(r, k), integer arithmetic gives W(r, k) < r**(n+1) <=
r**(k*k), so log_r W(r, k) < k**2.  The three-condition variant adds a
second pair (r, k') and locates k' inside [3, sqrt(n+1)), an interval
that is integer-empty for every stored value with n + 1 <= 9; such
reports say "vacuous" rather than guessing.

No floating point participates in any verdict.  The decimal columns of
the tables are display strings produced with guard digits, and the
square-root and natural-log columns are truncated rather than rounded
to match how the reference tabulation prints them.
"""
from __future__ import annotations

import decimal
from dataclasses import dataclass

from . import radix
from ._record import Record
from .registry import Registry, default_registry, stored_value


def _resolve(r: int, k: int, w: int | None, registry: Registry | None) -> int:
    if w is None:
        return stored_value(r, k, registry)
    if not isinstance(w, int) or isinstance(w, bool) or w < 1:
        raise ValueError(f"need a positive integer for W({r}, {k}), got {w!r}")
    return w


@dataclass(frozen=True)
class LogBoundResult(Record):
    """Verdict on floor_log(w, r) + 1 <= k*k, with both integers attached."""

    holds: bool
    n_plus_one: int
    k_squared: int

    def __bool__(self) -> bool:
        return self.holds


def verify_log_bound(r: int, k: int, w: int) -> LogBoundResult:
    """Check n + 1 <= k*k for n = floor_log(w, r).

    Since w < r**(n+1) by definition of n, a true verdict implies
    log_r w < k**2.  The domain of interest is k >= 3; k = 2 is still
    accepted so the arithmetic counterexample (2, 2, 16) can be
    exercised directly.
    """
    if not isinstance(r, int) or isinstance(r, bool) or r < 2:
        raise ValueError(f"need r >= 2, got {r!r}")
    if not isinstance(k, int) or isinstance(k, bool) or k < 2:
        raise ValueError(f"need k >= 2, got {k!r}")
    n = radix.floor_log(w, r)  # also validates w
    return LogBoundResult(n + 1 <= k * k, n + 1, k * k)


@dataclass(frozen=True)
class TheoremReport(Record):
    """Evaluated conditions and conclusion for one (r, k) pair.

    condition1 and condition2 are None when no k' was supplied.
    condition3 is None when unevaluated (no k') and is reported through
    condition3_display as "vacuous" whenever [3, sqrt(n+1)) contains no
    integer, which happens exactly when n + 1 <= 9.
    """

    r: int
    k: int
    k_prime: int | None
    w: int
    w_prime: int | None
    n: int
    n_prime: int | None
    condition1: bool | None
    condition2: bool | None
    condition3: bool | None
    condition3_vacuous: bool
    k_lower_bound_holds: bool
    conclusion_holds: bool

    @property
    def condition3_display(self) -> str:
        if self.condition3_vacuous:
            return "vacuous"
        if self.condition3 is None:
            return "not-evaluated"
        return "true" if self.condition3 else "false"

    def as_dict(self) -> dict:
        return {
            "r": self.r,
            "k": self.k,
            "k_prime": self.k_prime,
            "w": self.w,
            "w_prime": self.w_prime,
            "n": self.n,
            "n_prime": self.n_prime,
            "condition1": self.condition1,
            "condition2": self.condition2,
            "condition3": self.condition3,
            "condition3_display": self.condition3_display,
            "k_lower_bound_holds": self.k_lower_bound_holds,
            "conclusion_holds": self.conclusion_holds,
        }


def check_theorem(
    r: int,
    k: int,
    k_prime: int | None = None,
    *,
    w: int | None = None,
    w_prime: int | None = None,
    registry: Registry | None = None,
) -> TheoremReport:
    """Evaluate the three conditions and the conclusion for (r, k).

    Values resolve through the registry unless supplied explicitly.
    Condition 1: W(r, k) > W(r, k') with k > k'.
    Condition 2: log_r W(r, k') < n, checked as floor_log(W(r, k'), r) < n.
    Condition 3: k' in [3, sqrt(n+1)), checked as k'*k' < n+1 since k'
    must be an integer >= 3; vacuous when n + 1 <= 9 since the interval
    then contains no integer.
    Conclusion: W(r, k) < r**(n+1) <= r**(k*k); the first comparison holds
    by definition of n, so the verdict is exactly n + 1 <= k*k.
    """
    # an explicit w skips the registry, which also checks k
    if not isinstance(k, int) or isinstance(k, bool) or k < 3:
        raise ValueError(f"need an integer k >= 3, got k={k!r}")
    w_val = _resolve(r, k, w, registry)
    n = radix.floor_log(w_val, r)
    vacuous = n + 1 <= 9

    n_prime = None
    cond1 = cond2 = cond3 = None
    if k_prime is not None:
        # a bool is an int to isinstance
        if isinstance(k_prime, bool) or not isinstance(k_prime, int) or k_prime < 3:
            raise ValueError(f"need an integer k_prime >= 3, got k_prime={k_prime!r}")
        if k_prime >= k:
            raise ValueError(f"need k_prime < k, got k_prime={k_prime!r}, k={k!r}")
        wp = _resolve(r, k_prime, w_prime, registry)
        n_prime = radix.floor_log(wp, r)
        cond1 = w_val > wp and k > k_prime
        cond2 = n_prime < n
        if not vacuous:
            cond3 = k_prime * k_prime < n + 1
        w_prime = wp

    k_bound = k * k >= n + 1
    conclusion = w_val < r ** (n + 1) and n + 1 <= k * k
    if k_bound and not conclusion:
        raise AssertionError(
            f"k*k >= n+1 held for ({r}, {k}) but the conclusion failed; "
            "floor_log is broken"
        )
    return TheoremReport(
        r=r,
        k=k,
        k_prime=k_prime,
        w=w_val,
        w_prime=w_prime,
        n=n,
        n_prime=n_prime,
        condition1=cond1,
        condition2=cond2,
        condition3=cond3,
        condition3_vacuous=vacuous,
        k_lower_bound_holds=k_bound,
        conclusion_holds=conclusion,
    )


def _truncated(value: decimal.Decimal, places: int) -> str:
    quantum = decimal.Decimal(1).scaleb(-places)
    return str(value.quantize(quantum, rounding=decimal.ROUND_DOWN))


def _ln_truncated(x: int, places: int) -> str:
    with decimal.localcontext() as ctx:
        ctx.prec = places + 25
        return _truncated(decimal.Decimal(x).ln(), places)


def _sqrt_truncated(x: int, places: int) -> str:
    with decimal.localcontext() as ctx:
        ctx.prec = places + 25
        return _truncated(decimal.Decimal(x).sqrt(), places)


@dataclass(frozen=True)
class Table1Row(Record):
    r: int
    k: int
    n: int
    W: int
    exponent: str
    r_pow_n: str


@dataclass(frozen=True)
class Table2Row(Record):
    r: int
    k: int
    sqrt_n_plus_1: str
    n: int
    ln_r: str
    ln_k: str
    r_pow_n: str
    W: int
    r_pow_n_plus_1: str
    r_pow_k_squared: str


def table1(registry: Registry | None = None, places: int = 5) -> list[Table1Row]:
    """One row per stored value: (r, k, n, W, log_r W to `places`, r^n).

    The exponent column is correctly rounded; where the reference
    tabulation's printed decimals drift from the true logarithms (for
    instance 27 = 3^3 exactly), this table prints the true value.
    """
    reg = registry if registry is not None else default_registry()
    rows = []
    for rec in reg.records():
        n = radix.floor_log(rec.value, rec.r)
        rows.append(
            Table1Row(
                r=rec.r,
                k=rec.k,
                n=n,
                W=rec.value,
                exponent=radix.log_display(rec.value, rec.r, places),
                r_pow_n=f"{rec.r}^{n}",
            )
        )
    return rows


def table2(registry: Registry | None = None) -> list[Table2Row]:
    """One row per stored value with the sqrt(n+1) and natural-log columns.

    sqrt(n+1) is truncated to 3 places and ln r, ln k to 4, matching the
    reference tabulation's print convention.  Power columns render
    symbolically; the chain W < r^(n+1) <= r^(k^2) is re-verified in
    integer arithmetic for every row before the row is emitted.
    """
    reg = registry if registry is not None else default_registry()
    rows = []
    for rec in reg.records():
        r, k, w = rec.r, rec.k, rec.value
        n = radix.floor_log(w, r)
        if not (w < r ** (n + 1) <= r ** (k * k)):
            raise AssertionError(f"bound chain failed for W({r}, {k}) = {w}")
        rows.append(
            Table2Row(
                r=r,
                k=k,
                sqrt_n_plus_1=_sqrt_truncated(n + 1, 3),
                n=n,
                ln_r=_ln_truncated(r, 4),
                ln_k=_ln_truncated(k, 4),
                r_pow_n=f"{r}^{n}",
                W=w,
                r_pow_n_plus_1=f"{r}^{n + 1}",
                r_pow_k_squared=f"{r}^{k * k}",
            )
        )
    return rows
