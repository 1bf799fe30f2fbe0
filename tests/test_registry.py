"""Registry of known W(r, k) values: seeding, lookup, upserts, extensions."""
import threading

import pytest

from vdwkit.bounds import check_theorem
from vdwkit.ratio import analyze
from vdwkit.registry import (
    KNOWN_VALUES,
    PAPER_TABLE,
    SEARCH_DERIVED,
    USER_SUPPLIED,
    Registry,
    RegistryConflictError,
    VdwRecord,
    default_registry,
)

# the seven seeded values, in table order
EXPECTED = [
    (2, 3, 9),
    (2, 4, 35),
    (2, 5, 178),
    (2, 6, 1132),
    (3, 3, 27),
    (3, 4, 293),
    (4, 3, 76),
]


class TestVdwRecord:
    def test_fields_and_default_provenance(self):
        rec = VdwRecord(r=2, k=3, value=9)
        assert (rec.r, rec.k, rec.value) == (2, 3, 9)
        assert rec.provenance == (PAPER_TABLE,)

    def test_string_provenance_coerced_to_tuple(self):
        rec = VdwRecord(r=2, k=3, value=9, provenance=SEARCH_DERIVED)
        assert rec.provenance == (SEARCH_DERIVED,)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(r=1, k=3, value=9), "r >= 2"),
            (dict(r=2, k=2, value=9), "k >= 3"),
            (dict(r=2, k=3, value=2), "impossible"),
            (dict(r=2, k=3, value=9, provenance=("hearsay",)), "provenance"),
        ],
    )
    def test_rejects_bad_fields(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            VdwRecord(**kwargs)

    def test_frozen(self):
        rec = VdwRecord(r=2, k=3, value=9)
        with pytest.raises(AttributeError):
            rec.value = 10

    def test_as_dict(self):
        rec = VdwRecord(r=3, k=4, value=293)
        assert rec.as_dict() == {
            "r": 3,
            "k": 4,
            "value": 293,
            "provenance": [PAPER_TABLE],
        }


class TestSeeding:
    def test_seeded_registry_holds_all_known_values(self, registry):
        assert len(registry) == len(EXPECTED) == len(KNOWN_VALUES)
        got = [(rec.r, rec.k, rec.value) for rec in registry.records()]
        assert got == EXPECTED

    def test_unseeded_registry_is_empty(self):
        assert len(Registry(seed=False)) == 0

    def test_default_registry_is_a_seeded_singleton(self):
        assert default_registry() is default_registry()
        assert len(default_registry()) == len(EXPECTED)


class TestLookup:
    @pytest.mark.parametrize("r, k, value", EXPECTED)
    def test_known_values(self, registry, r, k, value):
        rec = registry.lookup(r, k)
        assert rec is not None and rec.value == value

    def test_missing_pair_returns_none(self, registry):
        assert registry.lookup(2, 7) is None

    @pytest.mark.parametrize("r, k", [(1, 3), (2, 2), (0, 0)])
    def test_domain_errors(self, registry, r, k):
        with pytest.raises(ValueError):
            registry.lookup(r, k)

    # 2.0 hashes as 2, so a float equal to a stored key would find it; the
    # callers that resolve through lookup refuse the same arguments
    @pytest.mark.parametrize(
        "call",
        [Registry.lookup, lambda reg, r, k: check_theorem(r, k, registry=reg),
         lambda reg, r, k: analyze(r, k, registry=reg)],
        ids=["lookup", "check_theorem", "analyze"],
    )
    @pytest.mark.parametrize(
        "r, k, named",
        [(2.0, 3, "r=2.0"), (2, 6.0, "k=6.0"), (True, 3, "r=True"),
         (2, True, "k=True"), ("2", 3, "r='2'")],
    )
    def test_non_integers_are_refused(self, registry, call, r, k, named):
        with pytest.raises(ValueError, match="need an integer") as info:
            call(registry, r, k)
        assert named in str(info.value)


class TestUpsert:
    def test_new_pair_is_stored(self, registry):
        registry.upsert_search_result(
            VdwRecord(r=5, k=3, value=125, provenance=(USER_SUPPLIED,))
        )
        rec = registry.lookup(5, 3)
        assert rec.value == 125 and rec.provenance == (USER_SUPPLIED,)

    def test_matching_value_merges_provenance(self, registry):
        registry.upsert_search_result(
            VdwRecord(r=2, k=3, value=9, provenance=(SEARCH_DERIVED,))
        )
        rec = registry.lookup(2, 3)
        assert set(rec.provenance) == {PAPER_TABLE, SEARCH_DERIVED}

    def test_merge_is_idempotent(self, registry):
        for _ in range(2):
            registry.upsert_search_result(
                VdwRecord(r=2, k=3, value=9, provenance=(SEARCH_DERIVED,))
            )
        assert registry.lookup(2, 3).provenance.count(SEARCH_DERIVED) == 1

    def test_conflicting_value_raises(self, registry):
        with pytest.raises(RegistryConflictError, match="W\\(2, 3\\)"):
            registry.upsert_search_result(
                VdwRecord(r=2, k=3, value=10, provenance=(SEARCH_DERIVED,))
            )
        # the stored record is untouched
        assert registry.lookup(2, 3).value == 9

    def test_concurrent_upserts_stay_consistent(self, registry):
        rec = VdwRecord(r=6, k=3, value=207, provenance=(USER_SUPPLIED,))
        threads = [
            threading.Thread(target=registry.upsert_search_result, args=(rec,))
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert registry.lookup(6, 3).value == 207


class TestExtensionFiles:
    def test_load_extension(self, registry, tmp_path):
        path = tmp_path / "extra.txt"
        path.write_text(
            "# extra values\n"
            "5 3 125 user-supplied\n"
            "\n"
            "2 3 9 search-derived\n"
        )
        registry.load_extension(path)
        assert registry.lookup(5, 3).value == 125
        assert SEARCH_DERIVED in registry.lookup(2, 3).provenance

    @pytest.mark.parametrize(
        "line",
        ["5 3 125", "5 3 banana user-supplied", "5 3 125 hearsay"],
    )
    def test_malformed_line_names_the_location(self, registry, tmp_path, line):
        path = tmp_path / "bad.txt"
        path.write_text("# header\n" + line + "\n")
        with pytest.raises(ValueError, match=r"bad\.txt:2"):
            registry.load_extension(path)

    def test_conflicting_extension_value_raises(self, registry, tmp_path):
        path = tmp_path / "wrong.txt"
        path.write_text("2 3 10 user-supplied\n")
        with pytest.raises(RegistryConflictError):
            registry.load_extension(path)
