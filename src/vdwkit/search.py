"""Exhaustive search for van der Waerden numbers, with certificates.

W(r, k) is the least N such that every r-coloring of 1..N contains a
monochromatic k-term arithmetic progression.  compute_vdw climbs a
ladder of target lengths, by default from a power-residue witness: a
valid coloring of length N plus a failed exhaustive search at N+1 pins
W(r, k) = N+1 exactly.  Every outcome, exact or not, carries the longest
valid coloring seen as a checkable certificate.

Colorings are 0-based here: positions 0..N-1, colors 0..r-1.
"""
from __future__ import annotations

import functools
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from ._engine import (
    ORDER_LOWEST,
    ORDER_MOST_BLOCKED,
    ST_EXHAUSTED,
    ST_FOUND,
    ST_PAUSED,
    open_run,
    resolve_engine,
    search_cubes,
)
from ._record import Record
from .registry import SEARCH_DERIVED, VdwRecord

STATUS_EXACT = "exact"
STATUS_BUDGET = "budget-exhausted"
STATUS_LOWER_BOUND = "lower-bound-only"

MODE_WITNESS_PROOF = "witness-proof"
MODE_CANONICAL = "canonical"
MODES = (MODE_WITNESS_PROOF, MODE_CANONICAL)

# decisions per kernel step; the deadline, the node pool and moot cubes
# are checked between steps.  On the compiled kernel 1024 decisions take
# from 0.4 ms (W(4,3) at length 76) to 25 ms (W(2,6) at length 697), so a
# budget stops within tens of milliseconds while the per-step overhead
# stays near 1% on the fastest path; the Python reference can need
# seconds for them at long lengths
_STEP = 1024

# the calling thread searches a length alone, _SOLO_STEP decisions at a
# time, until the length has taken _SOLO_SECONDS; only then do the helper
# threads start.  Most short lengths end first: W(2,3), W(3,3) and W(2,4)
# take a fraction of a millisecond per length, less than starting and
# joining a thread costs
_SOLO_STEP = 64
_SOLO_SECONDS = 1e-3

# power_residue_witness tries primes below this; it covers the p = 37
# (W(4,3), W(2,5)) and p = 139 (W(2,6)) constructions in about 0.1 s
_WITNESS_PRIMES = 256


def find_monochromatic_ap(colors, k: int):
    """First (start, step) of a monochromatic k-term progression, or None.

    Scans every progression; this is the oracle the incremental search
    machinery is measured against, so it stays deliberately plain.
    """
    if k < 3:
        raise ValueError("progression length k must be at least 3")
    n = len(colors)
    for d in range(1, (n - 1) // (k - 1) + 1):
        for a in range(n - (k - 1) * d):
            c0 = colors[a]
            j = 1
            while j < k and colors[a + j * d] == c0:
                j += 1
            if j == k:
                return a, d
    return None


def ap_free(colors, k: int) -> bool:
    """True when no k-term monochromatic progression is present."""
    return find_monochromatic_ap(colors, k) is None


def last_position_check(colors, k: int, i: int | None = None) -> bool:
    """True when no monochromatic k-term progression ends at position i.

    i is 0-based and defaults to the last position.  Appending one color
    to a clean prefix only needs this check: any new progression must
    end at the new position, so a sequence built left to right under
    this check is ap-free in full.
    """
    if k < 3:
        raise ValueError("progression length k must be at least 3")
    if i is None:
        i = len(colors) - 1
    if not 0 <= i < len(colors):
        raise ValueError(f"position {i} outside coloring of length {len(colors)}")
    c0 = colors[i]
    d = 1
    while (k - 1) * d <= i:
        j = 1
        while j < k and colors[i - j * d] == c0:
            j += 1
        if j == k:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class Coloring:
    """An assignment of one of r colors to each of len(colors) positions.

    Color values are kept as given, even out of range, so that defective
    certificates can be represented and then rejected by verification.
    A color that is not an int, or is a bool, is refused: converting it
    would let a certificate pass that is not the one supplied.
    """

    r: int
    colors: tuple[int, ...]

    def __post_init__(self):
        colors = tuple(self.colors)
        for c in colors:
            if isinstance(c, bool) or not isinstance(c, int):
                raise ValueError(f"color {c!r} is not an integer")
        object.__setattr__(self, "colors", colors)


@dataclass(frozen=True)
class Certificate(Record):
    """A claimed ap-free r-coloring witnessing W(r, k) > length."""

    r: int
    k: int
    length: int
    coloring: Coloring

    @property
    def colors(self) -> tuple[int, ...]:
        return self.coloring.colors

    def as_dict(self) -> dict:
        return {
            "r": self.r,
            "k": self.k,
            "length": self.length,
            "colors": list(self.colors),
        }


@dataclass(frozen=True)
class SearchBudget:
    """Resource ceiling for compute_vdw; None fields are unlimited."""

    max_seconds: float | None = None
    max_nodes: int | None = None


@dataclass(frozen=True)
class SearchStats(Record):
    """nodes counts decisions: one per opened cube, for its pattern, and
    one per color tried inside it.  Both come from a node budget's pool,
    the pattern node before the cube is opened, so nodes never exceeds
    max_nodes.  A cube that search_cubes leaves out as the mirror image
    of a kept one is never opened and counts none.
    max_depth is the most decisions on one branch inside a cube: the
    deepest decision frame at which a color was tried.  A cube's pattern
    and other root assumptions are not decisions.  It is fixed by the
    search tree, so every engine reports the same."""

    nodes: int
    elapsed: float
    max_depth: int


@dataclass(frozen=True)
class SearchOutcome(Record):
    """Result of a compute_vdw run.

    status "exact": value is W(r, k) and the certificate has length
    value - 1.  status "budget-exhausted" or "lower-bound-only": value
    is only a lower bound, W(r, k) >= value, again with a certificate
    of length value - 1.
    """

    r: int
    k: int
    status: str
    value: int
    certificate: Certificate
    stats: SearchStats


def certificate_problems(cert: Certificate) -> list[str]:
    problems = []
    if cert.r < 2:
        problems.append(f"color count r={cert.r} below 2")
    if cert.k < 3:
        problems.append(f"progression length k={cert.k} below 3")
    colors = cert.colors
    if cert.length != len(colors):
        problems.append(
            f"declared length {cert.length} but {len(colors)} colors present"
        )
    bad = next((c for c in colors if not 0 <= c < max(cert.r, 1)), None)
    if bad is not None:
        problems.append(f"color {bad} outside range 0..{cert.r - 1}")
    if not problems:
        hit = find_monochromatic_ap(colors, cert.k)
        if hit is not None:
            a, d = hit
            positions = ", ".join(str(a + j * d) for j in range(cert.k))
            problems.append(
                f"monochromatic progression at positions {positions} (step {d})"
            )
    return problems


def verify_certificate(cert: Certificate) -> bool:
    """Check a certificate from scratch: shape, color range, ap-freeness."""
    return not certificate_problems(cert)


class CertificateParseError(ValueError):
    """Raised for a structurally broken certificate file."""

    def __init__(self, path, lineno: int, message: str):
        super().__init__(f"{path}:{lineno}: {message}")
        self.path = str(path)
        self.lineno = lineno


def write_certificate(cert: Certificate, path) -> None:
    """Write the two-line certificate format: 'r k length' then colors."""
    body = f"{cert.r} {cert.k} {cert.length}\n"
    body += " ".join(str(c) for c in cert.colors) + "\n"
    Path(path).write_text(body, encoding="ascii")


def read_certificate(path) -> Certificate:
    """Parse a certificate file; '#' comment lines and blanks are skipped.

    Raises CertificateParseError, carrying the offending line number,
    for anything structurally wrong.  Semantic validity (ap-freeness,
    color range) is verify_certificate's job, not the parser's.
    """
    text = Path(path).read_text(encoding="ascii")
    content = []
    last_no = 0
    for no, raw in enumerate(text.splitlines(), 1):
        last_no = no
        line = raw.strip()
        if line and not line.startswith("#"):
            content.append((no, line))
    if not content:
        raise CertificateParseError(path, last_no + 1, "missing header line")
    no, header = content[0]
    tokens = header.split()
    if len(tokens) != 3:
        raise CertificateParseError(
            path, no, f"header needs 'r k length', got {len(tokens)} tokens"
        )
    try:
        r, k, length = (int(t) for t in tokens)
    except ValueError:
        raise CertificateParseError(path, no, f"non-integer header field in {header!r}")
    if length < 0:
        raise CertificateParseError(path, no, f"negative length {length}")
    if length == 0:
        if len(content) > 1:
            raise CertificateParseError(
                path, content[1][0], "unexpected content after empty certificate"
            )
        return Certificate(r, k, 0, Coloring(r, ()))
    if len(content) < 2:
        raise CertificateParseError(path, last_no + 1, "missing colors line")
    no, colors_line = content[1]
    try:
        colors = tuple(int(t) for t in colors_line.split())
    except ValueError:
        raise CertificateParseError(path, no, "non-integer color token")
    if len(colors) != length:
        raise CertificateParseError(
            path, no, f"expected {length} colors, found {len(colors)}"
        )
    if len(content) > 2:
        raise CertificateParseError(
            path, content[2][0], "unexpected content after colors line"
        )
    return Certificate(r, k, length, Coloring(r, colors))


class _Budget:
    """Shared wall-clock deadline and node pool, thread safe."""

    def __init__(self, budget: SearchBudget, start: float):
        self.deadline = (
            start + budget.max_seconds if budget.max_seconds is not None else None
        )
        self._pool = budget.max_nodes
        self._lock = threading.Lock()

    def out_of_time(self) -> bool:
        return self.deadline is not None and time.perf_counter() >= self.deadline

    def draw(self, want: int) -> int:
        """Reserve up to want nodes; 0 means the deadline has passed or the
        pool is dry, so a worker reads the deadline only through here."""
        if self.out_of_time():
            return 0
        if self._pool is None:
            return want
        with self._lock:
            take = min(want, self._pool)
            self._pool -= take
            return take

    def refund(self, unused: int) -> None:
        if self._pool is None or unused <= 0:
            return
        with self._lock:
            self._pool += unused


def _primes_below(n: int) -> list[int]:
    sieve = bytearray([1]) * n
    sieve[:2] = b"\x00\x00"
    for i in range(2, int(n**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i in range(n) if sieve[i]]


def _primitive_root(p: int) -> int:
    factors = [q for q in _primes_below(p) if (p - 1) % q == 0]
    return next(
        g for g in range(2, p) if all(pow(g, (p - 1) // q, p) != 1 for q in factors)
    )


def _first_ap_ends(colors, r: int, k: int) -> list[int]:
    """For each start a, the end of the shortest monochromatic k-term
    progression starting at a (len(colors) when there is none)."""
    n = len(colors)
    masks = [0] * r
    for i, c in enumerate(colors):
        masks[c] |= 1 << i
    ends = [n] * n
    seen = 0
    for d in range(1, (n - 1) // (k - 1) + 1):
        starts = 0
        for m in masks:
            hits = m
            for j in range(1, k):
                hits &= m >> (j * d)
            starts |= hits
        fresh = starts & ~seen
        seen |= starts
        while fresh:
            low = fresh & -fresh
            a = low.bit_length() - 1
            ends[a] = a + (k - 1) * d
            fresh ^= low
    return ends


def power_residue_witness(r: int, k: int) -> list[int]:
    """An ap-free coloring grown from tiled power-residue colorings (see
    _grow_witness), built once per (r, k) in a process; each call
    returns a fresh list."""
    return list(_cached_witness(r, k))


@functools.cache
def _cached_witness(r: int, k: int) -> tuple[int, ...]:
    return tuple(_grow_witness(r, k))


def _grow_witness(r: int, k: int) -> list[int]:
    """An ap-free coloring grown from tiled power-residue colorings.

    For a prime p with r | p - 1 and a primitive root g, the residue
    x != 0 gets color ind_g(x) mod r and 0 gets a chosen color c0; the
    coloring repeats with period p (Rabung 1979; Rabung & Lotts 2012,
    EJC 19(2) P35).  Every prime below _WITNESS_PRIMES with r | p - 1, every
    c0 and every start offset is tried.  A window is at most (k-1)p
    long, since the progression with step p is monochromatic, so k
    periods hold every window that starts in the first.  Each longest
    window free of monochromatic k-term progressions is then grown by
    _extend_at_ends, and the longest result wins (ties: smallest p, c0,
    offset).  Empty when no prime qualifies.
    """
    best_len, windows = 0, []
    for p in _primes_below(_WITNESS_PRIMES):
        if p < 3 or (p - 1) % r:
            continue
        g = _primitive_root(p)
        residue_color = [0] * p
        x = 1
        for i in range(p - 1):
            residue_color[x] = i % r
            x = x * g % p
        for c0 in range(r):
            residue_color[0] = c0
            tiled = [residue_color[i % p] for i in range(k * p)]
            ends = _first_ap_ends(tiled, r, k)
            end = len(tiled)
            found = []
            for start in range(len(tiled) - 1, -1, -1):
                end = min(end, ends[start])
                if start < p:
                    found.append((end - start, tiled[start:end]))
            for length, window in reversed(found):
                if length > best_len:
                    best_len, windows = length, []
                if length == best_len:
                    windows.append(window)
    grown = [_extend_at_ends(window, r, k) for window in windows]
    return max(grown, key=len, default=[])


def _extend_at_ends(colors, r: int, k: int) -> list[int]:
    """Grow an ap-free coloring one position at a time, appending the
    lowest color that keeps it ap-free, else prepending one, until
    neither works."""
    colors = list(colors)
    while True:
        for c in range(r):
            if last_position_check(colors + [c], k):
                colors.append(c)
                break
            # prepending c is appending it to the reversed coloring
            if last_position_check(colors[::-1] + [c], k):
                colors.insert(0, c)
                break
        else:
            return colors


def _search_target(r, k, T, order, budget: _Budget, engine: str, workers: int):
    """Search length T.  Returns (verdict, colors, nodes, max_depth) with
    verdict ST_FOUND, ST_EXHAUSTED, or None when the budget stopped it.

    The length is cut into the cubes of search_cubes, and every worker
    runs work(): it claims the next cube in order, opens its kernel run
    for its first cube or re-roots it for a later one, and steps the run
    until a verdict, until the cube is moot or until budget.draw, which
    also reads the deadline, grants nothing.  The run is freed on the
    thread that opened it.  The calling thread is a worker, at first the
    only one: it steps _SOLO_STEP decisions at a time, and once the
    length has taken _SOLO_SECONDS it starts min(workers, cubes) - 1
    helper threads.  So a short length, and any length on one worker (the
    Python engine always), starts no thread.  A cube that finds a
    coloring makes the later ones moot; the earliest finding cube wins,
    so a search that runs to a verdict returns the same coloring for any
    worker count.  The length is exhausted when every cube of
    search_cubes is.  An exception in any worker, an interrupt of the
    calling thread included, stops every worker at its next step; it is
    raised once the helpers have finished.
    """
    solo_end = time.perf_counter() + _SOLO_SECONDS
    cubes = search_cubes(r, T, order)
    lock = threading.Lock()
    claims = iter(range(len(cubes)))
    best_found = len(cubes)  # smallest cube index that found a coloring
    errors: list[BaseException] = []  # any entry stops every worker
    # (status, nodes, max_depth, colors) per opened cube, ST_PAUSED if undecided
    results: list = [None] * len(cubes)
    helpers: list[threading.Thread] = []
    wanted = min(workers, len(cubes)) - 1  # helpers not started yet

    def work() -> None:
        nonlocal best_found, wanted
        # this worker's run, local so that it is freed on this thread
        run = None
        try:
            while True:
                with lock:
                    idx = None if errors else next(claims, None)
                if idx is None:
                    return
                # the cube's pattern node comes from the pool, so a node
                # budget caps the reported nodes
                if best_found < idx or not budget.draw(1):
                    continue
                if run is None:
                    run = open_run(engine, r, k, T, order, cubes[idx])
                else:
                    run.root(cubes[idx])
                status = ST_PAUSED
                while status == ST_PAUSED and not errors and best_found >= idx:
                    if wanted and time.perf_counter() >= solo_end:
                        # zero first: a helper that read a nonzero count
                        # would start helpers of its own
                        count, wanted = wanted, 0
                        for _ in range(count):
                            helper = threading.Thread(target=work)
                            helper.start()
                            helpers.append(helper)
                    quota = budget.draw(_SOLO_STEP if wanted else _STEP)
                    if not quota:
                        break
                    before = run.nodes
                    status = run.step(quota)
                    budget.refund(quota - (run.nodes - before))
                colors = run.coloring() if status == ST_FOUND else None
                results[idx] = (status, 1 + run.nodes, run.max_depth, colors)
                if status == ST_FOUND:
                    with lock:
                        best_found = min(best_found, idx)
        except BaseException as exc:
            with lock:
                errors.append(exc)

    try:
        work()
        for helper in helpers:
            helper.join()
    except BaseException as exc:
        # an interrupt outside work(): while joining helpers
        with lock:
            errors.append(exc)
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[0]

    opened = [res for res in results if res is not None]
    nodes = sum(res[1] for res in opened)
    max_depth = max((res[2] for res in opened), default=0)
    if best_found < len(cubes):
        return ST_FOUND, results[best_found][3], nodes, max_depth
    if all(res is not None and res[0] == ST_EXHAUSTED for res in results):
        return ST_EXHAUSTED, None, nodes, max_depth
    return None, None, nodes, max_depth


def compute_vdw(
    r: int,
    k: int,
    budget: SearchBudget | None = None,
    *,
    mode: str = MODE_WITNESS_PROOF,
    workers: int | None = None,
    max_length: int | None = None,
    registry=None,
    engine: str | None = None,
) -> SearchOutcome:
    """Determine W(r, k) by exhaustive search, or bound it under a budget.

    Every mode climbs target lengths T = frontier + 1 from a starting
    frontier: finding a valid coloring of length T moves the frontier
    up; exhausting length T proves W(r, k) = T.

    mode "witness-proof" (the default) starts from power_residue_witness
    and branches most-blocked-first, so the climb is short and usually
    ends in one exhaustive proof.  mode "canonical" starts from the
    all-zero coloring of length k-1 and branches lowest-first, and its
    certificate is the lexicographically least valid coloring of its
    length.  In both modes each length is cut into the same cubes
    (search_cubes) whatever the worker count, so certificates are
    deterministic: the same for either engine and any worker count.

    workers defaults to the CPU count, the calling thread being one of
    them.  The others join a length only once it has run for
    _SOLO_SECONDS, so short lengths run on the calling thread alone, and
    so does the Python engine, since threads cannot overlap its
    bytecode.  Workers read the deadline through the node pool
    (_Budget.draw).  Every stop reports value = frontier + 1: exact when
    that length was exhausted, else a lower bound, when the budget ran
    out or the climb reached max_length.  When a registry is supplied,
    an exact result is recorded in it.
    """
    budget = budget or SearchBudget()
    # a float would reach range() or the kernel's C integers, and a bool
    # is an int to isinstance
    for name, count in (
        ("r", r), ("k", k), ("workers", workers), ("max_length", max_length),
        ("max_nodes", budget.max_nodes),
    ):
        if count is not None and (isinstance(count, bool) or not isinstance(count, int)):
            raise ValueError(f"{name} must be an integer, got {name}={count!r}")
    if r < 2:
        raise ValueError(f"need at least 2 colors, got r={r}")
    if k < 3:
        raise ValueError(f"progression length k must be at least 3, got k={k}")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if max_length is not None and max_length < k:
        raise ValueError(f"max_length {max_length} below the shortest target {k}")
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be at least 1, got workers={workers}")
    seconds = budget.max_seconds
    if seconds is not None and (
        isinstance(seconds, bool) or not isinstance(seconds, (int, float))
    ):
        raise ValueError(
            f"max_seconds must be an int or a float, got max_seconds={seconds!r}"
        )
    for name in ("max_seconds", "max_nodes"):
        limit = getattr(budget, name)
        # not >= also rejects a NaN time budget, which would never expire
        if limit is not None and not limit >= 0:
            raise ValueError(f"{name} must be a number >= 0, got {name}={limit}")
    engine = resolve_engine(engine)
    if engine == "python":
        workers = 1
    elif workers is None:
        workers = os.cpu_count() or 1
    order = ORDER_MOST_BLOCKED if mode == MODE_WITNESS_PROOF else ORDER_LOWEST

    start = time.perf_counter()
    tracker = _Budget(budget, start)

    frontier_colors: list[int] = [0] * (k - 1)
    if mode == MODE_WITNESS_PROOF and not tracker.out_of_time():
        witness = power_residue_witness(r, k)
        if len(witness) > len(frontier_colors):
            frontier_colors = witness
    if max_length is not None:
        frontier_colors = frontier_colors[:max_length]
    total_nodes = max_depth = 0

    while max_length is None or len(frontier_colors) < max_length:
        verdict, colors, nodes, depth = _search_target(
            r, k, len(frontier_colors) + 1, order, tracker, engine, workers
        )
        total_nodes += nodes
        max_depth = max(max_depth, depth)
        if verdict != ST_FOUND:
            status = STATUS_EXACT if verdict == ST_EXHAUSTED else STATUS_BUDGET
            break
        frontier_colors = colors
    else:
        status = STATUS_LOWER_BOUND

    elapsed = time.perf_counter() - start
    value = len(frontier_colors) + 1
    cert = Certificate(r, k, value - 1, Coloring(r, tuple(frontier_colors)))
    outcome = SearchOutcome(
        r=r,
        k=k,
        status=status,
        value=value,
        certificate=cert,
        stats=SearchStats(nodes=total_nodes, elapsed=elapsed, max_depth=max_depth),
    )
    if registry is not None and status == STATUS_EXACT:
        registry.upsert_search_result(
            VdwRecord(r=r, k=k, value=value, provenance=(SEARCH_DERIVED,))
        )
    return outcome

