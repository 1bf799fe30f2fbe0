"""The two rules shared by the whole package.

Each record's as_dict() must survive a JSON round trip unchanged, so no
tuple, Fraction or nested record leaks through, and a record that
follows the rule lists its fields in declared order, which is the CSV
header order the command line takes from the first row.

Every integer argument of a public entry point refuses a float, a bool
and a string with a ValueError that names the argument.
"""
import dataclasses
import json

import pytest

from vdwkit import (
    AlphaDecomposition,
    Certificate,
    Coloring,
    Interval,
    RadixRep,
    Registry,
    SearchBudget,
    SearchOutcome,
    SearchStats,
    VdwRecord,
    alpha_decompose,
    analyze,
    ap_free,
    binomial_expansion_estimate,
    check_theorem,
    compute_vdw,
    containing_interval,
    dual_interval_intersection,
    exact_identity_rhs,
    exact_ratio,
    find_monochromatic_ap,
    floor_log,
    from_radix,
    gap_survey,
    last_position_check,
    log_display,
    table1,
    table2,
    to_radix,
    verify_certificate,
    verify_log_bound,
)
from vdwkit.registry import SEARCH_DERIVED, stored_value


def _certificate():
    return Certificate(2, 3, 8, Coloring(2, (0, 0, 1, 1, 0, 0, 1, 1)))


def _stats():
    return SearchStats(nodes=172, elapsed=0.25, max_depth=35)


# type name -> a builder of one instance
FOLLOW_RULE = {
    "RadixRep": lambda: to_radix(1132, 6),
    "Interval": lambda: containing_interval(178, 5),
    "LogBoundResult": lambda: verify_log_bound(2, 5, 178),
    "Table1Row": lambda: table1()[0],
    "Table2Row": lambda: table2()[0],
    "VdwRecord": lambda: VdwRecord(2, 3, 9),
    "AlphaDecomposition": lambda: alpha_decompose(2, 4),
    "RatioAnalysis": lambda: analyze(2, 4),
    "GapEntry": lambda: gap_survey()[0],
    "SearchStats": _stats,
    "SearchOutcome": lambda: SearchOutcome(2, 3, "exact", 9, _certificate(), _stats()),
    "TheoremReport": lambda: check_theorem(2, 6, 4),
}

# type name -> (builder, the keys its as_dict gives, in order): the
# Certificate has its own as_dict; the TheoremReport's keys are pinned
# here because the CLI prints them as its JSON layout.
OWN_RULE = {
    "Certificate": (_certificate, ["r", "k", "length", "colors"]),
    "TheoremReport": (
        lambda: check_theorem(2, 6, 4),
        [
            "r", "k", "k_prime", "w", "w_prime", "n", "n_prime",
            "condition1", "condition2", "condition3", "condition3_display",
            "k_lower_bound_holds", "conclusion_holds",
        ],
    ),
}


def _round_trips(d: dict) -> None:
    assert json.loads(json.dumps(d)) == d


@pytest.mark.parametrize("name", sorted(FOLLOW_RULE))
def test_fields_in_declared_order_as_plain_json(name):
    obj = FOLLOW_RULE[name]()
    assert type(obj).__name__ == name
    d = obj.as_dict()
    _round_trips(d)
    assert list(d) == [f.name for f in dataclasses.fields(obj)]


@pytest.mark.parametrize("name", sorted(OWN_RULE))
def test_own_layout_as_plain_json(name):
    build, keys = OWN_RULE[name]
    obj = build()
    assert type(obj).__name__ == name
    d = obj.as_dict()
    _round_trips(d)
    assert list(d) == keys


# entry point and argument -> (a call that puts x in that argument, its name)
INT_ARGUMENTS = {
    "floor_log.value": (lambda x: floor_log(x, 5), "value"),
    "floor_log.base": (lambda x: floor_log(178, x), "base"),
    "to_radix.value": (lambda x: to_radix(x, 5), "value"),
    "to_radix.base": (lambda x: to_radix(178, x), "base"),
    "from_radix.base": (lambda x: from_radix((1, 2), x), "base"),
    "from_radix.digit": (lambda x: from_radix((1, x), 5), "digit"),
    "RadixRep.value": (lambda x: RadixRep(x, 5, (2,), 0), "value"),
    "RadixRep.base": (lambda x: RadixRep(2, x, (2,), 0), "base"),
    "RadixRep.exponent": (lambda x: RadixRep(2, 5, (2,), x), "exponent"),
    "Interval.low": (lambda x: Interval(x, 5), "low"),
    "Interval.high": (lambda x: Interval(1, x), "high"),
    "containing_interval.value": (lambda x: containing_interval(x, 5), "value"),
    "containing_interval.base": (lambda x: containing_interval(178, x), "base"),
    "dual_interval_intersection.r": (lambda x: dual_interval_intersection(178, x, 5), "r"),
    "dual_interval_intersection.k": (lambda x: dual_interval_intersection(178, 2, x), "k"),
    "log_display.places": (lambda x: log_display(178, 5, x), "places"),
    "Registry.lookup.r": (lambda x: Registry().lookup(x, 3), "r"),
    "Registry.lookup.k": (lambda x: Registry().lookup(2, x), "k"),
    "stored_value.r": (lambda x: stored_value(x, 3), "r"),
    "VdwRecord.r": (lambda x: VdwRecord(x, 3, 9), "r"),
    "VdwRecord.k": (lambda x: VdwRecord(2, x, 9), "k"),
    "VdwRecord.value": (lambda x: VdwRecord(2, 3, x), "value"),
    "verify_log_bound.r": (lambda x: verify_log_bound(x, 5, 178), "r"),
    "verify_log_bound.k": (lambda x: verify_log_bound(2, x, 178), "k"),
    "verify_log_bound.w": (lambda x: verify_log_bound(2, 5, x), "w"),
    "check_theorem.r": (lambda x: check_theorem(x, 3, w=9), "r"),
    "check_theorem.k": (lambda x: check_theorem(2, x, w=9), "k"),
    "check_theorem.k_prime": (lambda x: check_theorem(2, 6, x), "k_prime"),
    "check_theorem.w": (lambda x: check_theorem(2, 6, w=x), "w"),
    "check_theorem.w_prime": (lambda x: check_theorem(2, 6, 5, w_prime=x), "w_prime"),
    "table1.places": (lambda x: table1(places=x), "places"),
    "exact_ratio.k": (lambda x: exact_ratio(2, x), "k"),
    "analyze.r": (lambda x: analyze(x, 3), "r"),
    "exact_identity_rhs.k": (lambda x: exact_identity_rhs(2, x), "k"),
    "binomial_expansion_estimate.r": (lambda x: binomial_expansion_estimate(x, 4), "r"),
    "alpha_decompose.r": (lambda x: alpha_decompose(x, 3), "r"),
    "alpha_decompose.k": (lambda x: alpha_decompose(2, x), "k"),
    "AlphaDecomposition.alpha": (lambda x: AlphaDecomposition(x, "+"), "alpha"),
    "find_monochromatic_ap.k": (lambda x: find_monochromatic_ap([0, 1, 0], x), "k"),
    "ap_free.k": (lambda x: ap_free([0, 1, 0], x), "k"),
    "last_position_check.k": (lambda x: last_position_check([0, 1, 0], x), "k"),
    "last_position_check.i": (lambda x: last_position_check([0, 1, 0], 3, x), "i"),
    "Coloring.r": (lambda x: Coloring(x, (0, 1)), "r"),
    "Coloring.color": (lambda x: Coloring(2, (0, x)), "color"),
    "Certificate.r": (lambda x: Certificate(x, 3, 2, Coloring(2, (0, 1))), "r"),
    "Certificate.k": (lambda x: Certificate(2, x, 2, Coloring(2, (0, 1))), "k"),
    "Certificate.length": (lambda x: Certificate(2, 3, x, Coloring(2, (0, 1))), "length"),
    "compute_vdw.r": (lambda x: compute_vdw(x, 3), "r"),
    "compute_vdw.k": (lambda x: compute_vdw(2, x), "k"),
    "compute_vdw.workers": (lambda x: compute_vdw(2, 3, workers=x), "workers"),
    "compute_vdw.max_length": (lambda x: compute_vdw(2, 3, max_length=x), "max_length"),
    "compute_vdw.max_nodes": (
        lambda x: compute_vdw(2, 3, SearchBudget(max_nodes=x)), "max_nodes"
    ),
}


@pytest.mark.parametrize("bad", [2.0, True, "3"], ids=["float", "bool", "str"])
@pytest.mark.parametrize("entry", sorted(INT_ARGUMENTS))
def test_integer_arguments_refuse_other_types(entry, bad):
    call, name = INT_ARGUMENTS[entry]
    with pytest.raises(ValueError, match="need an integer") as info:
        call(bad)
    assert f"{name}={bad!r}" in str(info.value)


def test_a_float_record_leaves_the_stored_one_in_place():
    registry = Registry()
    stored = registry.lookup(2, 3)
    with pytest.raises(ValueError, match="r=2.0"):
        registry.upsert_search_result(VdwRecord(2.0, 3, 9, (SEARCH_DERIVED,)))
    assert registry.lookup(2, 3) is stored
    assert type(stored.r) is int


def test_certificate_ranges_stay_verification_findings():
    # an int out of range is a certificate that fails to verify, not a refusal
    for r, k, length in [(1, 3, 2), (2, 2, 2), (2, 3, 5), (2, 3, -1)]:
        assert not verify_certificate(Certificate(r, k, length, Coloring(2, (0, 1))))
