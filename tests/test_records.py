"""The as_dict rule shared by every result record.

Each record's as_dict() must survive a JSON round trip unchanged, so no
tuple, Fraction or nested record leaks through, and a record that
follows the rule lists its fields in declared order, which is the CSV
header order the command line takes from the first row.
"""
import dataclasses
import json

import pytest

from vdwkit import (
    Certificate,
    Coloring,
    SearchOutcome,
    SearchStats,
    VdwRecord,
    alpha_decompose,
    analyze,
    check_theorem,
    containing_interval,
    gap_survey,
    table1,
    table2,
    to_radix,
    verify_log_bound,
)


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
}

# type name -> (builder, the keys its own as_dict gives, in order)
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
