"""Depth-first search kernel for fixed-length coloring targets.

One kernel run answers a single question: does a valid r-coloring of
positions 0..T-1 exist, and if so, which one does the depth-first search
reach first?  The kernel is resumable; it pauses after a caller-chosen
number of decisions so the orchestration layer can enforce wall-clock
and node budgets between steps without the kernel ever reading a clock.

Two engines implement the same rules:
  "jit"     _kernel.c, compiled on first use with the system C compiler
            (CC, else cc) into a cache directory keyed by a hash of the
            source and the compile flags, and loaded with ctypes.  ctypes
            releases the GIL, so runs in different threads overlap.
  "python"  PythonRun below, the plain reference.  Tests require both
            engines to return the same verdicts, colorings and node
            counts.
If the compiled kernel cannot be built or loaded, resolve_engine says so
with a RuntimeWarning and the Python reference runs instead.

Propagation is unit propagation on the direct encoding: one variable per
(position, color) pair, true when the position has that color.  The
clauses are one negative k-clause per progression and color ("not every
member has this color") and one at-least-one clause per position.
Assigning a position sets all r of its variables, so at-most-one needs
no clauses.  A negative clause with k-1 members colored c makes c false
at its last member, which is then blocked for c.  A position with r-1
blocked colors is forced to the remaining one; a position with r blocked
colors, or a progression with k members of one color, kills the branch.
The fixpoint of unit propagation, and whether it is a conflict, does not
depend on the order in which forced moves are processed.  So the Python
reference and the C kernel's counter path (any k), which both watch
clauses, and its mask path (k = 3, T <= 128), which shifts bit masks,
reach the same fixpoints, the same blocked colors and the same search
tree.  The order of forced moves is each path's own, and nothing outside
a step can see it: a step that pauses on its quota undoes to its deepest
open frame.  So between steps a run shows its found coloring (FOUND),
the fixpoint at which its deepest open frame was opened (PAUSED, a fresh
run included), or nothing, every position -1 (EXHAUSTED).

Branching order, fixed per run: a sequence of the positions and a stop
count.  Decide the first free position in the sequence with the most
blocked colors, taking one at once when its count reaches the stop.
  ORDER_LOWEST        0, 1, ..., T-1 with stop 0: the lowest free position.
  ORDER_MOST_BLOCKED  middle_out(T) with stop r-2, the most a free
                      position can have, since r-1 would force it.
Colors are tried in ascending order, skipping blocked ones, and capped
at one past the largest color assigned so far.  Each color tried is one
node.  max_depth is the most decisions on one branch, the deepest
decision frame at which a color was tried (root assumptions are not
decisions); it is fixed by the search tree, so every engine reports the
same.

Soundness of that cap (first use of colors in decision order) under any
branching order, dynamic ones included.  Invariant: the colors assigned
so far are exactly 0..m for some m.  A decision keeps it by construction.
A forced move keeps it too: the r-1 blocked colors at the forced
position each complete a progression whose other members are already
colored, so they are used colors, m >= r-2, and the one color left is
at most m+1.  Given the invariant, colors m+1..r-1 appear nowhere in
the partial coloring, and the constraints are symmetric under permuting
colors, so swapping any two of them maps the valid completions of one
branch one to one onto the valid completions of another.  Trying only
m+1 among them therefore loses no satisfiable branch: when some valid
coloring extends the current node, the search finds a valid coloring
that extends it.  Which position is decided next plays no part in the
argument, so it holds for ORDER_MOST_BLOCKED as for ORDER_LOWEST, and an
exhausted run proves that no valid coloring of length T exists.  With
ORDER_LOWEST the first coloring found is the lexicographically least
valid coloring (any coloring relabels by first appearance to a
lexicographically no larger one that the cap admits).

Root assumptions: a run may start from a list of (position, color)
pairs, assigned and propagated in order before the first decision; a
conflict among them makes the run exhausted at once.  A run's root
method starts it afresh from other assumptions, in any state, keeping
what it built for length T; it then searches exactly as a fresh run
opened with them.  search_cubes
uses them to cut length T into cubes, each fixing the first d positions
of the branching order (0, 1, ... for ORDER_LOWEST, middle_out(T) for
ORDER_MOST_BLOCKED) to one first-use pattern: each color at most one
above the largest before it.  The cubes decide length T:
  (1) Any valid coloring, relabeled by first appearance along the d
      positions, is a valid coloring inside exactly one cube.
  (2) After a first-use pattern is replayed the colors in use are 0..m,
      since a pattern color and a forced move each add at most m+1.  So
      the invariant above holds at a cube's root and the cap stays sound.
  (3) With ORDER_LOWEST the cubes come in lexicographic order and each
      is searched lowest-first.  The lexicographically least valid
      coloring is first-use, so it lies in a cube, and a coloring in an
      earlier cube would be smaller; so it is the first one found.
  (4) With ORDER_MOST_BLOCKED, d is the least depth that gives at least
      CUBE_PATTERNS and whose first d positions of middle_out(T) are
      closed under the reflection i -> T-1-i: d odd for odd T, even for
      even T.  Reflection maps the k-term progressions in 0..T-1 onto
      themselves and relabeling colors keeps a progression monochromatic
      or not, so a coloring is valid exactly when its reflected image,
      relabeled, is.  As the d positions map onto themselves, a pattern
      reflected onto them and relabeled by first use along them is
      another first-use pattern of depth d: its mirror.  A valid coloring
      in a cube, reflected and relabeled the same way, is a valid
      coloring in the cube of the mirror.  Reflecting twice is the
      identity and relabeling commutes with it, so mirroring is an
      involution: the patterns fall into pairs and self-mirror
      singletons, and a cube holds a valid coloring exactly when the cube
      of its mirror does.  search_cubes keeps a pattern exactly when
      mirror >= pattern as tuples, the lexicographically lesser of each
      pair and every singleton, so some kept cube holds a valid coloring
      exactly when some cube does, and by (1) and (2) the kept cubes
      decide length T.

The Python reference and the C counter path watch two members of each
negative clause, both not colored in the clause's color (Moskewicz et
al. 2001, Chaff).  When a watched member gets that color the watch moves
to another member not colored in it; when there is none, the clause
blocks its color at the other watched member or, when that one has the
color too, is a conflict.
A watch left on a member of the clause's color sits beside a member
colored otherwise or blocked, in the same decision or an earlier one.
A backtrack undoes whole decisions from the last, so it never leaves a
watch on a member of the clause's color beside a free, unblocked one,
and the watches need no restoring.  The trail holds only colorings and
blocks.  The mask path keeps no watches: it counts the blocked colors of
every position after each assignment and takes the lowest forced
position next.
"""
from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import tempfile
import warnings
import weakref
from pathlib import Path

# kernel status codes, shared with _kernel.c
ST_FOUND = 1
ST_EXHAUSTED = 2
ST_PAUSED = 3

# branching orders, shared with _kernel.c
ORDER_LOWEST = 0
ORDER_MOST_BLOCKED = 1

ENGINES = ("jit", "python")

# search_cubes cuts each length into at least this many cubes: enough to
# keep a few workers busy and each cube small, few enough to open cheaply
CUBE_PATTERNS = 16

_SOURCE = Path(__file__).with_name("_kernel.c")
# the kernel's compile flags, fixed; _library_name hashes them
_CFLAGS = ("-O3", "-shared", "-fPIC")


def middle_out(T: int) -> list[int]:
    """Positions 0..T-1 ordered by distance from the middle, lower first."""
    return sorted(range(T), key=lambda x: (abs(2 * x - (T - 1)), x))


@functools.lru_cache(maxsize=8)
def _progressions(k: int, T: int):
    """All k-term progressions inside positions [0, T); for each position
    the indices of the progressions whose first or second member it is,
    the initial watches; and per progression the sum of those two members
    (read-only)."""
    members = []
    watched: list[list[int]] = [[] for _ in range(T)]
    for d in range(1, (T - 1) // (k - 1) + 1):
        for a in range(T - (k - 1) * d):
            watched[a].append(len(members))
            watched[a + d].append(len(members))
            members.append(tuple(a + j * d for j in range(k)))
    sums = tuple(ap[0] + ap[1] for ap in members)
    return tuple(members), tuple(tuple(w) for w in watched), sums


def _check_assumptions(r: int, T: int, assumptions) -> None:
    # the C side indexes with these unchecked, and Python would wrap a
    # negative position around
    if any(not (0 <= p < T and 0 <= c < r) for p, c in assumptions):
        raise ValueError(f"root assumption outside {T} positions and {r} colors")


class PythonRun:
    """Search state for one target length T on the plain reference kernel:
    unit propagation with two watched members per negative clause."""

    def __init__(self, r: int, k: int, T: int, order: int, assumptions=()):
        self.r = r
        self.members, watched, sums = _progressions(k, T)
        # watches[c][p]: the progressions whose clause in color c watches
        # p; pair[c][a]: the sum of the two positions that clause watches,
        # so that either one gives the other
        self.watches = [[list(w) for w in watched] for _ in range(r)]
        self.pair = [list(sums) for _ in range(r)]
        self.col = [-1] * T
        self.false = [0] * T  # bit c: color c is blocked at this position
        self.trail: list[tuple[int, int]] = []  # (p, 0) colored, (p, bit) blocked
        # the branching order's sequence and stop count
        if order == ORDER_MOST_BLOCKED:
            self.sequence, self.enough = middle_out(T), r - 2
        else:
            self.sequence, self.enough = range(T), 0
        self.root(assumptions)

    def root(self, assumptions=()) -> None:
        """Start afresh from nothing colored with the given root
        assumptions.  The watches stay where they are: with nothing
        colored, any two members of a clause may be its watches."""
        _check_assumptions(self.r, len(self.col), assumptions)
        self._undo(0)
        # one frame per decision: (position, color tried, maxused, trail mark)
        self.frames: list[tuple[int, int, int, int]] = []
        self.maxused = -1
        self.max_depth = self.nodes = 0
        self.status = ST_PAUSED
        for p, c in assumptions:
            have = self.col[p]
            if have != c and (have >= 0 or not self._propagate(p, c)):
                self.status = ST_EXHAUSTED
                return
        q = self._select()
        if q < 0:
            self.status = ST_FOUND
        else:
            self.frames.append((q, -1, self.maxused, len(self.trail)))

    def _undo(self, mark: int) -> None:
        trail, col, false = self.trail, self.col, self.false
        while len(trail) > mark:
            p, bit = trail.pop()
            if bit:
                false[p] ^= bit
            else:
                col[p] = -1

    def _assign(self, p: int, c: int, queue: list) -> None:
        self.col[p] = c
        self.trail.append((p, 0))
        self.maxused = max(self.maxused, c)
        queue.append((p, c))

    def _unit(self, o: int, c: int, queue: list) -> bool:
        """Every member of a clause of color c but o is colored c: block c
        at o, forcing o when one color is left; False on a conflict."""
        have, bit = self.col[o], 1 << c
        if have >= 0:
            return have != c
        if self.false[o] & bit:
            return True
        self.false[o] |= bit
        self.trail.append((o, bit))
        # the at-least-one clause of o: no color left is a conflict, one
        # color left is forced
        left = ((1 << self.r) - 1) ^ self.false[o]
        if left and not left & (left - 1):
            self._assign(o, left.bit_length() - 1, queue)
        return left != 0

    def _propagate(self, p: int, c: int) -> bool:
        """Assign p := c and propagate to a fixpoint; False on a conflict."""
        col, members = self.col, self.members
        queue: list[tuple[int, int]] = []
        self._assign(p, c, queue)
        # the queue grows while it is walked
        for x, cx in queue:
            watches, pair = self.watches[cx], self.pair[cx]
            watching, kept = watches[x], []
            for i, a in enumerate(watching):
                other = pair[a] - x
                for m in members[a]:
                    if col[m] != cx and m != other:
                        pair[a] = other + m
                        watches[m].append(a)
                        break
                else:
                    kept.append(a)
                    if not self._unit(other, cx, queue):
                        watches[x] = kept + watching[i + 1:]
                        return False
            watches[x] = kept
        return True

    def _select(self) -> int:
        """Next position to decide, or -1 when every position is colored."""
        col, false, best, best_nb = self.col, self.false, -1, -1
        for p in self.sequence:
            if col[p] < 0 and false[p].bit_count() > best_nb:
                best, best_nb = p, false[p].bit_count()
                if best_nb >= self.enough:
                    break
        return best

    def step(self, node_quota: int) -> int:
        """Run until FOUND, EXHAUSTED, or node_quota more decisions; a
        pause undoes to the deepest open frame."""
        if self.status in (ST_FOUND, ST_EXHAUSTED):
            return self.status
        frames, nodes = self.frames, 0
        while nodes < node_quota:
            p, tried, maxused, mark = frames[-1]
            self._undo(mark)
            cmax = min(maxused + 1, self.r - 1)
            c = tried + 1
            while c <= cmax and self.false[p] >> c & 1:
                c += 1
            if c > cmax:
                frames.pop()
                if not frames:
                    self.status = ST_EXHAUSTED
                    break
                continue
            frames[-1] = (p, c, maxused, mark)
            nodes += 1
            self.max_depth = max(self.max_depth, len(frames))
            self.maxused = maxused
            if self._propagate(p, c):
                q = self._select()
                if q < 0:
                    self.status = ST_FOUND
                    break
                frames.append((q, -1, self.maxused, len(self.trail)))
        else:
            # the quota ran out: rest at the deepest open frame's fixpoint
            self._undo(frames[-1][3])
        self.nodes += nodes
        return self.status

    def coloring(self) -> list[int]:
        if self.status == ST_EXHAUSTED:
            return [-1] * len(self.col)
        return list(self.col)


class CompiledRun:
    """Search state for one target length T on the compiled kernel."""

    def __init__(self, lib, r: int, k: int, T: int, order: int, assumptions=()):
        handle = lib.vdw_new(r, k, T, order)
        if not handle:
            raise MemoryError(f"kernel state for T={T} could not be allocated")
        self._lib, self._handle, self.r, self.T = lib, handle, r, T
        self._free = weakref.finalize(self, lib.vdw_free, handle)
        # the cubes of one length share their positions, so their array
        # is built once per run
        self._positions, self._pos = None, None
        self.root(assumptions)

    def root(self, assumptions=()) -> None:
        """Start afresh from nothing colored with the given root
        assumptions."""
        _check_assumptions(self.r, self.T, assumptions)
        n = len(assumptions)
        positions, colors = tuple(zip(*assumptions)) or ((), ())
        if positions != self._positions:
            self._positions = positions
            self._pos = (ctypes.c_int * max(n, 1))(*positions)
        cols = (ctypes.c_int * max(n, 1))(*colors)
        self._lib.vdw_root(self._handle, n, self._pos, cols)

    def step(self, node_quota: int) -> int:
        return self._lib.vdw_step(self._handle, node_quota)

    @property
    def nodes(self) -> int:
        return self._lib.vdw_nodes(self._handle)

    @property
    def max_depth(self) -> int:
        return self._lib.vdw_max_depth(self._handle)

    def coloring(self) -> list[int]:
        out = (ctypes.c_int * self.T)()
        self._lib.vdw_coloring(self._handle, out)
        return list(out)


def _cache_dir() -> Path:
    base = os.environ.get("VDWKIT_CACHE_DIR")
    if base:
        return Path(base)
    xdg = os.environ.get("XDG_CACHE_HOME")
    return (Path(xdg) if xdg else Path.home() / ".cache") / "vdwkit"


def _compiler() -> str | None:
    return os.environ.get("CC") or shutil.which("cc") or shutil.which("gcc")


def _library_name(source: bytes, flags: tuple[str, ...] = _CFLAGS) -> str:
    """The cached library's file name: a hash of the source together with
    the flags it is compiled with, so that a change to either rebuilds."""
    key = hashlib.sha256(source)
    for flag in flags:
        key.update(b"\0" + flag.encode())
    return f"kernel-{key.hexdigest()[:16]}.so"


def _build_library(source: bytes, target: Path) -> None:
    compiler = _compiler()
    if not compiler:
        raise OSError("no C compiler found (set CC or install cc)")
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=target.parent)
    os.close(fd)
    try:
        # the hashed bytes go in on stdin, so the library is built from
        # exactly the source its name was computed from
        proc = subprocess.run(
            [compiler, *_CFLAGS, "-o", tmp, "-x", "c", "-"],
            input=source,
            capture_output=True,
        )
        if proc.returncode != 0:
            stderr = proc.stderr.decode(errors="replace").strip()
            raise OSError(f"{compiler} failed: {stderr}")
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load_library(source: bytes, directory: Path):
    target = directory / _library_name(source)
    if not target.exists():
        _build_library(source, target)
    return ctypes.CDLL(str(target))


@functools.cache
def compiled_library():
    """The loaded compiled kernel, building it on first use; None (after
    a RuntimeWarning) when it cannot be built or loaded."""
    problems: list[str] = []
    lib = None
    try:
        source = _SOURCE.read_bytes()
    except OSError as exc:
        problems.append(str(exc))
    else:
        try:
            lib = _load_library(source, _cache_dir())
        except OSError as exc:
            problems.append(str(exc))
        if lib is None:
            # an unwritable cache falls back to a private build directory;
            # the loaded library stays mapped after the directory is removed
            try:
                with tempfile.TemporaryDirectory(
                    prefix="vdwkit-", ignore_cleanup_errors=True
                ) as tmp:
                    lib = _load_library(source, Path(tmp))
            except OSError as exc:
                if str(exc) not in problems:
                    problems.append(str(exc))
    if lib is None:
        warnings.warn(
            f"compiled search kernel unavailable ({'; '.join(problems)}); "
            "running the pure-Python reference kernel, which is far slower",
            RuntimeWarning,
            stacklevel=2,
        )
        return None
    handle, ints = ctypes.c_void_p, ctypes.POINTER(ctypes.c_int)
    lib.vdw_new.argtypes = [ctypes.c_int] * 4
    lib.vdw_new.restype = handle
    lib.vdw_root.argtypes = [handle, ctypes.c_int, ints, ints]
    lib.vdw_root.restype = ctypes.c_int
    lib.vdw_step.argtypes = [handle, ctypes.c_longlong]
    lib.vdw_step.restype = ctypes.c_int
    lib.vdw_nodes.argtypes = [handle]
    lib.vdw_nodes.restype = ctypes.c_longlong
    lib.vdw_max_depth.argtypes = [handle]
    lib.vdw_max_depth.restype = ctypes.c_int
    lib.vdw_coloring.argtypes = [handle, ints]
    lib.vdw_coloring.restype = None
    lib.vdw_free.argtypes = [handle]
    lib.vdw_free.restype = None
    return lib


def resolve_engine(engine: str | None) -> str:
    """The engine that will actually run: "jit" unless "python" was
    asked for or the compiled kernel is unavailable (which warns)."""
    if engine not in (None, *ENGINES):
        raise ValueError(f"unknown engine {engine!r}")
    if engine == "python" or compiled_library() is None:
        return "python"
    return "jit"


def open_run(engine: str, r: int, k: int, T: int, order: int, assumptions=()):
    """A fresh run on a resolved engine (see resolve_engine).  Its root
    method starts it again from other root assumptions."""
    # the C side indexes with these unchecked
    if r < 2 or k < 3 or T < 1 or order not in (ORDER_LOWEST, ORDER_MOST_BLOCKED):
        raise ValueError(f"bad kernel parameters r={r} k={k} T={T} order={order}")
    if engine == "jit":
        return CompiledRun(compiled_library(), r, k, T, order, assumptions)
    return PythonRun(r, k, T, order, assumptions)


def search_cubes(r: int, T: int, order: int) -> list[list[tuple[int, int]]]:
    """The cubes a search of length T opens, in order, as root assumptions:
    the first-use color patterns, in lexicographic order, on the first d
    positions of the branching order, where d (at most T) is the least
    depth that gives at least CUBE_PATTERNS and, with ORDER_MOST_BLOCKED,
    has the parity of T.  ORDER_LOWEST keeps every pattern;
    ORDER_MOST_BLOCKED keeps a pattern only when its mirror (reflected,
    position p taking the color of T-1-p, then relabeled by first use)
    is not lexicographically smaller.  See the module docstring for
    soundness."""
    # the first d middle-out positions are closed under reflection
    # exactly when d has the parity of T
    mirrored = order == ORDER_MOST_BLOCKED
    d = 0
    while d < T and (
        len(_first_use_patterns(r, d)) < CUBE_PATTERNS or mirrored and (T - d) % 2
    ):
        d += 1
    # with d of T's parity, the first d middle-out positions of 0..T-1 are
    # those of 0..d-1 moved to the centre
    positions = [p + (T - d) // 2 for p in middle_out(d)] if mirrored else range(d)
    return [list(zip(positions, pattern)) for pattern in _kept_patterns(r, order, d)]


@functools.cache
def _first_use_patterns(r: int, d: int) -> tuple[tuple[int, ...], ...]:
    """Every first-use pattern of length d with r colors, in lexicographic
    order: each color at most one above the largest before it."""
    if d == 0:
        return ((),)
    return tuple(
        pattern + (c,)
        for pattern in _first_use_patterns(r, d - 1)
        for c in range(min(max(pattern, default=-1) + 2, r))
    )


@functools.cache
def _kept_patterns(r: int, order: int, d: int) -> tuple[tuple[int, ...], ...]:
    """The patterns of depth d that search_cubes keeps.  Under
    ORDER_MOST_BLOCKED they lie on the middle-out positions of 0..d-1
    moved to the centre of 0..T-1, and reflection in T maps them as
    reflection in d does: a fixed swap of pattern indices."""
    patterns = _first_use_patterns(r, d)
    if order == ORDER_LOWEST:
        return patterns
    cut = middle_out(d)
    index = {p: i for i, p in enumerate(cut)}
    image = [index[d - 1 - p] for p in cut]
    kept = []
    for pattern in patterns:
        relabel: dict[int, int] = {}
        mirror = tuple(relabel.setdefault(pattern[i], len(relabel)) for i in image)
        if mirror >= pattern:
            kept.append(pattern)
    return tuple(kept)
