"""Known van der Waerden numbers with provenance tracking.

The seven settled diagonal values W(r, k) seed every other module in
this package: the radix tables, the bound checks, the ratio analysis,
and the search targets.  A registry can be extended from a text file
and accepts search-derived confirmations, but a value that contradicts
a stored one is always a hard error, never a silent overwrite.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass

from ._record import Record

PAPER_TABLE = "paper-table"
SEARCH_DERIVED = "search-derived"
USER_SUPPLIED = "user-supplied"
PROVENANCE_TAGS = (PAPER_TABLE, SEARCH_DERIVED, USER_SUPPLIED)

# The settled diagonal values, in the order they are usually tabulated.
KNOWN_VALUES = (
    (2, 3, 9),
    (2, 4, 35),
    (2, 5, 178),
    (2, 6, 1132),
    (3, 3, 27),
    (3, 4, 293),
    (4, 3, 76),
)


class RegistryConflictError(ValueError):
    """A record disagrees with the value already stored for its (r, k) pair."""


@dataclass(frozen=True)
class VdwRecord(Record):
    """One known value W(r, k) and where it came from.

    provenance holds one or more tags; a record confirmed by more than
    one route (say, a seeded value re-derived by search) carries all of
    its tags.
    """

    r: int
    k: int
    value: int
    provenance: tuple[str, ...] = (PAPER_TABLE,)

    def __post_init__(self):
        if isinstance(self.provenance, str):
            object.__setattr__(self, "provenance", (self.provenance,))
        else:
            object.__setattr__(self, "provenance", tuple(self.provenance))
        if self.r < 2:
            raise ValueError(f"need r >= 2, got {self.r!r}")
        if self.k < 3:
            raise ValueError(f"need k >= 3, got {self.k!r}")
        if self.value < self.k:
            # a k-term progression needs at least k integers
            raise ValueError(f"W({self.r}, {self.k}) = {self.value!r} is impossible (< k)")
        if not self.provenance:
            raise ValueError("record needs at least one provenance tag")
        for tag in self.provenance:
            if tag not in PROVENANCE_TAGS:
                raise ValueError(f"unknown provenance tag {tag!r}")


class Registry:
    """Mapping from (r, k) to VdwRecord.

    Reads are safe from any number of threads; mutation is serialized
    behind a lock.
    """

    def __init__(self, seed: bool = True):
        self._records: dict[tuple[int, int], VdwRecord] = {}
        self._lock = threading.Lock()
        if seed:
            for r, k, value in KNOWN_VALUES:
                self._records[(r, k)] = VdwRecord(r, k, value)

    def __len__(self) -> int:
        return len(self._records)

    def records(self) -> list[VdwRecord]:
        """All records sorted by (r, k)."""
        return [self._records[key] for key in sorted(self._records)]

    def lookup(self, r: int, k: int) -> VdwRecord | None:
        """The record for (r, k), or None when the pair is unknown."""
        # 2.0 would hash as 2 and find W(2, k); a bool is an int to isinstance
        for name, value, least in (("r", r, 2), ("k", k, 3)):
            if not isinstance(value, int) or isinstance(value, bool) or value < least:
                raise ValueError(f"need an integer {name} >= {least}, got {name}={value!r}")
        return self._records.get((r, k))

    def upsert_search_result(self, record: VdwRecord) -> VdwRecord:
        """Insert a record, or merge it with an existing one for the same pair.

        A new value for an empty slot is stored as given.  A value equal
        to the stored one merges provenance tags.  A value different from
        the stored one raises RegistryConflictError: either the search or
        the stored data is wrong, and every downstream table would be
        poisoned by guessing which.
        """
        key = (record.r, record.k)
        with self._lock:
            old = self._records.get(key)
            if old is None:
                self._records[key] = record
                return record
            if old.value != record.value:
                raise RegistryConflictError(
                    f"W({record.r}, {record.k}): stored value {old.value} "
                    f"({'+'.join(old.provenance)}) contradicts new value "
                    f"{record.value} ({'+'.join(record.provenance)})"
                )
            tags = old.provenance + tuple(
                t for t in record.provenance if t not in old.provenance
            )
            merged = VdwRecord(record.r, record.k, old.value, tags)
            self._records[key] = merged
            return merged

    def load_extension(self, path) -> int:
        """Read extra records from a text file, one `r k value tag` per line.

        Lines starting with `#` and blank lines are skipped.  Returns the
        number of records loaded.  Malformed lines raise ValueError naming
        the line number; value conflicts raise RegistryConflictError.
        """
        count = 0
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split()
                if len(parts) != 4:
                    raise ValueError(
                        f"{path}:{lineno}: expected 'r k value provenance-tag', got {line!r}"
                    )
                try:
                    r, k, value = int(parts[0]), int(parts[1]), int(parts[2])
                except ValueError:
                    raise ValueError(
                        f"{path}:{lineno}: non-integer field in {line!r}"
                    ) from None
                tag = parts[3]
                try:
                    record = VdwRecord(r, k, value, (tag,))
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
                self.upsert_search_result(record)
                count += 1
        return count


_default = None
_default_lock = threading.Lock()


def default_registry() -> Registry:
    """The shared seeded registry, created on first use."""
    global _default
    with _default_lock:
        if _default is None:
            _default = Registry()
        return _default


def stored_value(r: int, k: int, registry: Registry | None = None) -> int:
    """W(r, k) from the registry, or from the default one when none is given.

    Raises LookupError naming W(r, k) when the pair is not stored.
    """
    reg = registry if registry is not None else default_registry()
    record = reg.lookup(r, k)
    if record is None:
        raise LookupError(f"no stored value for W({r}, {k})")
    return record.value
