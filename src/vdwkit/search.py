"""Exhaustive search for van der Waerden numbers, with certificates.

W(r, k) is the least N such that every r-coloring of 1..N contains a
monochromatic k-term arithmetic progression.  compute_vdw climbs a
ladder of target lengths, by default from a committed start coloring
(starts/{r}-{k}.crt, a certificate file): a valid coloring of length N
plus a failed exhaustive search at N+1 pins W(r, k) = N+1 exactly.
Every outcome, exact or not, carries the longest valid coloring seen as
a checkable certificate.

Colorings are 0-based here: positions 0..N-1, colors 0..r-1.
"""
from __future__ import annotations

import functools
import os
import sys
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
    open_walk,
    resolve_engine,
)
from ._record import Record, require_int
from .registry import SEARCH_DERIVED, VdwRecord

STATUS_EXACT = "exact"
STATUS_BUDGET = "budget-exhausted"
STATUS_LOWER_BOUND = "lower-bound-only"

MODE_WITNESS_PROOF = "witness-proof"
MODE_CANONICAL = "canonical"
MODES = (MODE_WITNESS_PROOF, MODE_CANONICAL)

# nodes (decisions and cubes opened) per kernel step; the deadline and the
# node pool are checked between steps, moot cubes inside the kernel before
# each decision.  On the compiled kernel 1024 decisions take
# from 0.4 ms (W(4,3) at length 76) to 25 ms (W(2,6) at length 697), so a
# budget stops within tens of milliseconds while the per-step overhead
# stays near 1% on the fastest path; the Python reference can need
# seconds for them at long lengths
_STEP = 1024

# the calling thread searches a length alone, _SOLO_STEP nodes at a
# time, until the length has taken _SOLO_SECONDS; only then do the helper
# threads start.  Most short lengths end first: W(2,3), W(3,3) and W(2,4)
# take a fraction of a millisecond per length, less than starting and
# joining a thread costs
_SOLO_STEP = 64
_SOLO_SECONDS = 1e-3

# the committed start colorings, one certificate file {r}-{k}.crt per pair
_STARTS = Path(__file__).with_name("starts")


def find_monochromatic_ap(colors, k: int):
    """First (start, step) of a monochromatic k-term progression, or None.

    Scans every progression; this is the oracle the incremental search
    machinery is measured against, so it stays deliberately plain.
    """
    require_int("k", k, 3)
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
    require_int("k", k, 3)
    i = len(colors) - 1 if i is None else require_int("i", i)
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

    r and the color values are kept as given, even out of range, so that
    defective certificates can be represented and then rejected by
    verification.  One that is not an int, or is a bool, is refused:
    converting it would let a certificate pass that is not the one
    supplied.
    """

    r: int
    colors: tuple[int, ...]

    def __post_init__(self):
        require_int("r", self.r)
        colors = tuple(self.colors)
        for c in colors:
            if type(c) is not int:
                require_int("color", c)
        object.__setattr__(self, "colors", colors)


@dataclass(frozen=True)
class Certificate(Record):
    """A claimed ap-free r-coloring witnessing W(r, k) > length.

    r, k and length must be ints; their ranges, like the coloring's, are
    verification's findings (certificate_problems), not refusals.
    """

    r: int
    k: int
    length: int
    coloring: Coloring

    def __post_init__(self):
        require_int("r", self.r)
        require_int("k", self.k)
        require_int("length", self.length)

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
    """Resource ceiling for compute_vdw; None fields are unlimited, and so
    is a max_seconds past the float range."""

    max_seconds: float | None = None
    max_nodes: int | None = None


@dataclass(frozen=True)
class SearchStats(Record):
    """nodes counts decisions: one per opened cube, for its pattern, and
    one per color tried inside it.  Both are spent from the quota of a
    kernel step, which a node budget's pool grants, so nodes never
    exceeds max_nodes.  A cube that search_cubes leaves out as the mirror
    image of a kept one, or that is moot when claimed, is never opened
    and counts none.
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
        seconds = budget.max_seconds
        # a limit past the float range, 10**400 say, never expires
        self.deadline = (
            start + seconds
            if seconds is not None and seconds < sys.float_info.max
            else None
        )
        self._pool = budget.max_nodes
        self._lock = threading.Lock()

    def draw(self, want: int) -> int:
        """Reserve up to want nodes; 0 means the deadline has passed or the
        pool is dry, so a worker reads the deadline only through here."""
        if self.deadline is not None and time.perf_counter() >= self.deadline:
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


@functools.cache
def _stored_start(r: int, k: int) -> tuple[int, ...]:
    """The committed start coloring of (r, k), or () when none is stored.

    _STARTS/{r}-{k}.crt is a certificate file, read once per pair in a
    process.  One whose header names another pair, or that fails
    verify_certificate, raises ValueError naming the file: a start with a
    progression could put the climb past the true W, whose exhausted
    length would then be reported as a wrong exact value.
    """
    path = _STARTS / f"{r}-{k}.crt"
    if not path.is_file():
        return ()
    cert = read_certificate(path)
    if (cert.r, cert.k) != (r, k) or not verify_certificate(cert):
        raise ValueError(f"{path} is not a valid W({r}, {k}) certificate")
    return cert.colors


def _search_target(r, k, T, order, budget: _Budget, engine: str, workers: int):
    """Search length T.  Returns its walk, the length's record: each
    cube's status, nodes and depth, and the verdict and coloring that
    Walk.result reads from them (None for a verdict the budget stopped).

    The length is cut into the cubes of search_cubes, one walk of them
    (open_walk), and every worker runs work(): it opens a kernel run on
    the walk and steps it, each step claiming, searching and dropping
    moot cubes inside the kernel, until the run stops or budget.draw,
    which also reads the deadline, grants nothing.  The run is freed on
    the thread that opened it.  The calling thread is a worker, at first
    the only one: it steps _SOLO_STEP nodes at a time, and once the
    length has taken _SOLO_SECONDS it starts min(workers, cubes) - 1
    helper threads.  So a short length, and any length on one worker (the
    Python engine always), starts no thread.  A cube that finds a
    coloring makes the later ones moot; the lowest finding cube wins,
    whatever order the workers found theirs in, so a search that runs to
    a verdict returns the same coloring for any worker count.  The length
    is exhausted when every cube of the walk is.  An exception in any
    worker, an interrupt of the calling thread included, stops every
    worker at its next step; it is raised once the helpers have finished.
    """
    solo_end = time.perf_counter() + _SOLO_SECONDS
    walk = open_walk(r, T, order)
    lock = threading.Lock()
    errors: list[BaseException] = []  # any entry stops every worker
    helpers: list[threading.Thread] = []
    wanted = min(workers, walk.cubes) - 1  # helpers not started yet

    def work() -> None:
        nonlocal wanted
        try:
            # this worker's run, local so that it is freed on this thread
            run = open_run(engine, r, k, T, order, walk)
            status = ST_PAUSED
            while status == ST_PAUSED and not errors:
                if wanted and time.perf_counter() >= solo_end:
                    # zero first: a helper that read a nonzero count
                    # would start helpers of its own
                    count, wanted = wanted, 0
                    for _ in range(count):
                        helper = threading.Thread(target=work)
                        helper.start()
                        helpers.append(helper)
                # each cube's pattern node comes from the quota, so a node
                # budget caps the reported nodes
                quota = budget.draw(_SOLO_STEP if wanted else _STEP)
                if not quota:
                    break
                before = run.nodes
                status = run.step(quota)
                budget.refund(quota - (run.nodes - before))
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
    return walk


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

    mode "witness-proof" (the default) starts from the pair's stored
    coloring (_stored_start; k-1 zeros when none is stored), which no
    budget reads, and branches most-blocked-first, so the climb is short
    and usually ends in one exhaustive proof.  mode "canonical" starts
    from the all-zero coloring of length k-1 and branches lowest-first,
    and its certificate is the lexicographically least valid coloring of
    its length.  In both modes each length is cut into the same cubes
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
    # a float would reach range() or the kernel's C integers
    require_int("r", r, 2)
    require_int("k", k, 3)
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    # the shortest target is length k
    for name, count, least in (
        ("workers", workers, 1), ("max_length", max_length, k),
        ("max_nodes", budget.max_nodes, 0),
    ):
        if count is not None:
            require_int(name, count, least)
    seconds = budget.max_seconds
    if seconds is not None and (
        isinstance(seconds, bool) or not isinstance(seconds, (int, float))
    ):
        raise ValueError(
            f"max_seconds must be an int or a float, got max_seconds={seconds!r}"
        )
    # not >= also rejects a NaN time budget, which would never expire
    if seconds is not None and not seconds >= 0:
        raise ValueError(f"max_seconds must be a number >= 0, got max_seconds={seconds}")
    engine = resolve_engine(engine)
    if engine == "python":
        workers = 1
    elif workers is None:
        workers = os.cpu_count() or 1
    order = ORDER_MOST_BLOCKED if mode == MODE_WITNESS_PROOF else ORDER_LOWEST

    start = time.perf_counter()
    tracker = _Budget(budget, start)

    frontier_colors = [0] * (k - 1)
    if mode == MODE_WITNESS_PROOF:
        frontier_colors = list(_stored_start(r, k)) or frontier_colors
    if max_length is not None:
        frontier_colors = frontier_colors[:max_length]
    total_nodes = max_depth = 0

    while max_length is None or len(frontier_colors) < max_length:
        walk = _search_target(
            r, k, len(frontier_colors) + 1, order, tracker, engine, workers
        )
        total_nodes += sum(walk.nodes)
        max_depth = max(max_depth, walk.max_depth)
        verdict, colors = walk.result()
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

