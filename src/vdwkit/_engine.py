"""Depth-first search kernel for fixed-length coloring targets.

One kernel run answers a question about a table of cubes of length T
(a Walk): does a valid r-coloring of positions 0..T-1 exist inside one of
them, and if so, which one does the depth-first search of the earliest
such cube reach first?  The kernel is resumable; it pauses after a
caller-chosen number of nodes so the orchestration layer can enforce
wall-clock and node budgets between steps without the kernel ever
reading a clock.

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
the fixpoint at which its deepest open frame was opened (PAUSED inside a
cube), or nothing, every position -1 (no cube open: a fresh run, a pause
between cubes, EXHAUSTED).

Branching order, fixed per run: a sequence of the positions and a stop
count.  Decide the first free position in the sequence with the most
blocked colors, taking one at once when its count reaches the stop.
  ORDER_LOWEST        0, 1, ..., T-1 with stop 0: the lowest free position.
  ORDER_MOST_BLOCKED  middle_out(T) with stop r-2, the most a free
                      position can have, since r-1 would force it.
Colors are tried in ascending order, skipping blocked ones, and capped
at one past the largest color assigned so far.  Each cube opened is one
node, its pattern node, and each color tried is one more.  A cube's
max_depth is the most decisions on one branch inside it, the deepest
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

Root assumptions: a cube is a list of (position, color) pairs, assigned
and propagated in order before the first decision; a conflict among them
exhausts the cube at once.  Every run walks the cubes of a walk: each step
claims the next cube, charges its pattern node to the step's quota,
starts afresh from nothing colored with the cube's assumptions, keeping
what the run built for length T, and searches it exactly as a run of
that cube alone would.  Before each decision it drops the cube once an
earlier cube has found a coloring, and a run that finds one stops.
Runs of one engine may share a walk, each claiming the cubes in order.
A cube's status, nodes, depth and coloring lie in slots of its own,
written only by the run that claimed it, and the length's verdict is
read from the statuses once the runs stop (Walk.result): the lowest cube
that found a coloring gives it.  The walk's best, the earliest finding
cube known so far, is only a hint for dropping moot cubes.
search_cubes cuts length T into cubes, each fixing the first d positions
of the branching order (0, 1, ... for ORDER_LOWEST, middle_out(T) for
ORDER_MOST_BLOCKED), or a few more after the split at the end of (4), to
one first-use pattern: each color at most one above the largest before
it.  The cubes decide length T:
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
      From T = SPLIT_FROM on, search_cubes splits each kept self-mirror
      pattern again, for SPLIT_LEVELS levels, and the kept cubes still
      decide length T, by induction on the levels.  Let P be a
      self-mirror pattern of level j, on the first d+2j middle-out
      positions.  Its extensions are the first-use patterns on the first
      d+2j+2 that begin with P.  The two added positions are x and
      T-1-x, so these positions are closed under reflection too.  Every
      coloring in P's cube, relabeled by first use along them, lies in
      the cube of exactly one extension, as in (1).  Relabeling along
      the longer prefix leaves its first d+2j colors as they were, so the
      mirror of an extension begins with mirror(P) = P: it is another
      extension of P.  So mirroring is again an involution, now on P's
      extensions, and a cube of one holds a valid coloring exactly when
      the cube of its mirror does.  Replacing P by the extensions whose
      mirror is no smaller keeps a valid coloring in P's cube when there
      is one, and by (2) each of their cubes is searched soundly.  The
      extensions are in lexicographic order, each above P and below
      every pattern after P, so replacing P in place keeps the cubes in
      lexicographic order: the earliest cube that finds a coloring, and
      with it the certificate, is fixed by the cubes alone, whatever the
      engine or the worker count.

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
import threading
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
# under ORDER_MOST_BLOCKED, lengths from SPLIT_FROM on split every
# self-mirror cube SPLIT_LEVELS more reflection levels.  Such a cube
# searches each coloring together with its mirror image, and the split
# keeps one cube of each mirror pair of its extensions.  Shorter lengths
# end in milliseconds, where the extra cubes cost more than they save:
# W(3, 3)'s T = 27 would open 201 cubes instead of 25
SPLIT_FROM = 64
SPLIT_LEVELS = 2

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


_ints = ctypes.POINTER(ctypes.c_int)


class _Block(ctypes.Structure):
    """walk_t of _kernel.c: a table of cubes, the claims on it and each
    cube's result (see Walk)."""

    _fields_ = [
        ("n", ctypes.c_int),
        ("offset", _ints),
        ("pos", _ints),
        ("col", _ints),
        ("next", ctypes.c_int),
        ("best", ctypes.c_int),
        ("status", _ints),
        ("depth", _ints),
        ("colors", _ints),
        ("nodes", ctypes.POINTER(ctypes.c_longlong)),
    ]


def _table(r: int, T: int, cubes) -> tuple:
    """The cubes as one flat, range-checked table: their count, and the
    offsets, positions and colors of their root assumptions."""
    offsets, cells = [0], []
    for cube in cubes:
        # the C side indexes with these unchecked, and Python would wrap a
        # negative position around
        if any(not (0 <= p < T and 0 <= c < r) for p, c in cube):
            raise ValueError(f"root assumption outside {T} positions and {r} colors")
        cells.extend(cube)
        offsets.append(len(cells))
    positions, colors = tuple(zip(*cells)) or ((), ())
    array = ctypes.c_int * max(len(cells), 1)
    return (
        len(cubes), (ctypes.c_int * len(offsets))(*offsets), array(*positions),
        array(*colors),
    )


# small derivations repeat their few lengths, and a climb such as
# W(2, 5)'s visits a few dozen
@functools.lru_cache(maxsize=64)
def _cube_table(r: int, T: int, order: int) -> tuple:
    return _table(r, T, search_cubes(r, T, order))


class Walk:
    """A table of cubes of length T, searched by the runs opened on it,
    and the one record of the length.

    The runs share its claims: each claims the next cube in order, skips
    it when it lies past best, the earliest cube known to have found a
    coloring, and otherwise searches it until a verdict or until best
    moves below it.  Each cube's status (0 while unclaimed, ST_PAUSED
    while undecided), nodes, depth (its max_depth) and, when it finds
    one, its coloring (colors[i * T:(i + 1) * T] for cube i) are written
    by the run that claimed it alone.  best only saves work: result()
    reads the verdict from the statuses.  The runs on one walk are of one
    engine: the compiled kernel claims with atomics, the Python reference
    under the walk's lock."""

    def __init__(self, r: int, T: int, table: tuple):
        count, offset, pos, col = table
        self.r, self.T, self.cubes = r, T, count
        self.status = (ctypes.c_int * count)()
        self.nodes = (ctypes.c_longlong * count)()
        self.depth = (ctypes.c_int * count)()
        self.colors = (ctypes.c_int * (count * T))()
        # the block refers to, and keeps alive, the table and the results
        self.block = _Block(
            count, offset, pos, col, 0, count, self.status, self.depth,
            self.colors, self.nodes,
        )
        self._lock = threading.Lock()

    @property
    def max_depth(self) -> int:
        return max(self.depth, default=0)

    def result(self) -> tuple[int | None, list[int] | None]:
        """The length's verdict and coloring, read once the runs have
        stopped: (ST_FOUND, the coloring of the lowest cube that found
        one), (ST_EXHAUSTED, None) when every cube is exhausted, else
        (None, None)."""
        status = self.status[:]
        if ST_FOUND in status:
            i = status.index(ST_FOUND) * self.T
            return ST_FOUND, self.colors[i : i + self.T]
        if status.count(ST_EXHAUSTED) == self.cubes:
            return ST_EXHAUSTED, None
        return None, None

    # the Python reference's side of the claims

    def claim(self) -> int:
        """The next cube to search, skipping the moot ones; -1 when none
        is left."""
        block = self.block
        while True:
            with self._lock:
                i = block.next
                block.next = i + 1
            if i >= self.cubes:
                return -1
            if i < block.best:
                return i

    def record(self, i: int, status: int, nodes: int, depth: int) -> None:
        self.status[i], self.nodes[i], self.depth[i] = status, nodes, depth

    def found(self, i: int, colors) -> None:
        """Cube i found the coloring colors: write it into the cube's slot
        and lower best."""
        with self._lock:
            self.colors[i * self.T : (i + 1) * self.T] = colors
            self.block.best = min(self.block.best, i)


def open_walk(r: int, T: int, order: int) -> Walk:
    """A fresh walk of the cubes of search_cubes(r, T, order), whose table
    is built once per length."""
    return Walk(r, T, _cube_table(r, T, order))


class PythonRun:
    """Search state for one target length T on the plain reference kernel:
    unit propagation with two watched members per negative clause.  It
    walks the cubes of its walk as the compiled kernel does."""

    def __init__(self, r: int, k: int, T: int, order: int, walk: Walk):
        self.r, self.walk = r, walk
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
        # one frame per decision: (position, color tried, maxused, trail mark)
        self.frames: list[tuple[int, int, int, int]] = []
        # the cube open in the walk (-1 when none), its nodes and depth
        self.cube = -1
        self.cube_nodes = self.cube_depth = self.nodes = 0
        self.status = ST_PAUSED

    def _root(self) -> int:
        """Start the open cube afresh from nothing colored, with its root
        assumptions assigned and propagated in order, and open decision
        level 0; returns its status.  The watches stay where they are:
        with nothing colored, any two members of a clause may be its
        watches."""
        block = self.walk.block
        self._undo(0)
        self.frames = []
        self.maxused = -1
        for j in range(block.offset[self.cube], block.offset[self.cube + 1]):
            p, c = block.pos[j], block.col[j]
            have = self.col[p]
            if have != c and (have >= 0 or not self._propagate(p, c)):
                return ST_EXHAUSTED
        q = self._select()
        if q < 0:
            return ST_FOUND
        self.frames.append((q, -1, self.maxused, len(self.trail)))
        return ST_PAUSED

    def _end_cube(self, status: int) -> None:
        """End the open cube: a coloring found ends the run, any other
        status closes the cube."""
        self.walk.record(self.cube, status, self.cube_nodes, self.cube_depth)
        if status == ST_FOUND:
            self.status = ST_FOUND
            self.walk.found(self.cube, self.col)
        else:
            self.cube = -1

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
        """Walk the cubes until a coloring is found (FOUND), no cube is
        left to claim (EXHAUSTED) or node_quota more nodes are spent
        (PAUSED): one per cube opened and one per color tried.  A pause
        undoes to the deepest open frame."""
        walk, nodes = self.walk, 0
        while self.status == ST_PAUSED:
            if self.cube < 0:
                if nodes >= node_quota:
                    break
                self.cube = walk.claim()
                if self.cube < 0:
                    self.status = ST_EXHAUSTED
                    break
                nodes += 1
                self.cube_nodes, self.cube_depth = 1, 0
                status = self._root()
                if status != ST_PAUSED:
                    self._end_cube(status)
                continue
            frames = self.frames
            if nodes >= node_quota:
                self._undo(frames[-1][3])
                walk.record(self.cube, ST_PAUSED, self.cube_nodes, self.cube_depth)
                break
            if walk.block.best < self.cube:
                self._end_cube(ST_PAUSED)
                continue
            p, tried, maxused, mark = frames[-1]
            self._undo(mark)
            cmax = min(maxused + 1, self.r - 1)
            c = tried + 1
            while c <= cmax and self.false[p] >> c & 1:
                c += 1
            if c > cmax:
                frames.pop()
                if not frames:
                    self._end_cube(ST_EXHAUSTED)
                continue
            frames[-1] = (p, c, maxused, mark)
            nodes += 1
            self.cube_nodes += 1
            self.cube_depth = max(self.cube_depth, len(frames))
            self.maxused = maxused
            if self._propagate(p, c):
                q = self._select()
                if q < 0:
                    self._end_cube(ST_FOUND)
                else:
                    frames.append((q, -1, self.maxused, len(self.trail)))
        self.nodes += nodes
        return self.status

    def coloring(self) -> list[int]:
        """The open cube's coloring, -1 where a position is free; -1
        everywhere when no cube is open."""
        if self.cube < 0:
            return [-1] * len(self.col)
        return list(self.col)


class CompiledRun:
    """Search state for one target length T on the compiled kernel."""

    def __init__(self, lib, r: int, k: int, T: int, order: int, walk: Walk):
        handle = lib.vdw_new(r, k, T, order, walk.block)
        if not handle:
            raise MemoryError(f"kernel state for T={T} could not be allocated")
        # the run holds the walk, whose block the kernel reads and writes
        self._lib, self._handle, self.T, self.walk = lib, handle, T, walk
        self._free = weakref.finalize(self, lib.vdw_free, handle)

    def step(self, node_quota: int) -> int:
        return self._lib.vdw_step(self._handle, node_quota)

    @property
    def nodes(self) -> int:
        return self._lib.vdw_nodes(self._handle)

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
    handle = ctypes.c_void_p
    lib.vdw_new.argtypes = [ctypes.c_int] * 4 + [ctypes.POINTER(_Block)]
    lib.vdw_new.restype = handle
    lib.vdw_step.argtypes = [handle, ctypes.c_longlong]
    lib.vdw_step.restype = ctypes.c_int
    lib.vdw_nodes.argtypes = [handle]
    lib.vdw_nodes.restype = ctypes.c_longlong
    lib.vdw_coloring.argtypes = [handle, _ints]
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


def open_run(engine: str, r: int, k: int, T: int, order: int, walk: Walk):
    """A run on a resolved engine (see resolve_engine) that walks the cubes
    of walk."""
    # the C side indexes with these unchecked
    if r < 2 or k < 3 or T < 1 or order not in (ORDER_LOWEST, ORDER_MOST_BLOCKED):
        raise ValueError(f"bad kernel parameters r={r} k={k} T={T} order={order}")
    if (walk.r, walk.T) != (r, T):
        raise ValueError(f"a walk of r={walk.r} T={walk.T} opened with r={r} T={T}")
    if engine == "jit":
        return CompiledRun(compiled_library(), r, k, T, order, walk)
    return PythonRun(r, k, T, order, walk)


def search_cubes(r: int, T: int, order: int) -> list[list[tuple[int, int]]]:
    """The cubes a search of length T opens, in order, as root assumptions:
    the first-use color patterns, in lexicographic order, on the first d
    positions of the branching order, where d (at most T) is the least
    depth that gives at least CUBE_PATTERNS and, with ORDER_MOST_BLOCKED,
    has the parity of T.  ORDER_LOWEST keeps every pattern.
    ORDER_MOST_BLOCKED keeps a pattern only when its mirror (reflected,
    position p taking the color of T-1-p, then relabeled by first use)
    is not lexicographically smaller; from T = SPLIT_FROM on it then
    replaces each kept self-mirror pattern, in place, by its kept
    extensions on the next two positions of the branching order, a
    reflection pair, for SPLIT_LEVELS levels.  See the module docstring
    for soundness."""
    # the first d middle-out positions are closed under reflection
    # exactly when d has the parity of T
    mirrored = order == ORDER_MOST_BLOCKED
    d = 0
    while d < T and (
        len(_first_use_patterns(r, d)) < CUBE_PATTERNS or mirrored and (T - d) % 2
    ):
        d += 1
    if not mirrored:
        return [list(zip(range(d), pattern)) for pattern in _first_use_patterns(r, d)]
    levels = SPLIT_LEVELS if T >= SPLIT_FROM else 0
    # with n of T's parity, the first n middle-out positions of 0..T-1 are
    # those of 0..n-1 moved to the centre.  Each cube fixes a prefix of
    # them, and the cubes share one (position, color) pair per cell, since
    # there can be many (1,235 at W(4, 3)'s T = 76)
    n = d + 2 * levels
    cells = [[(p + (T - n) // 2, c) for c in range(r)] for p in middle_out(n)]
    return [
        [cells[i][c] for i, c in enumerate(pattern)]
        for pattern in _kept_patterns(r, d, levels)
    ]


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
def _kept_patterns(r: int, d: int, levels: int) -> tuple[tuple[int, ...], ...]:
    """The patterns that search_cubes keeps under ORDER_MOST_BLOCKED, in
    lexicographic order: those of depth d whose mirror is no smaller, each
    self-mirror one replaced by its kept extensions on two more positions,
    for the given number of levels.  A pattern lies on a prefix of the
    middle-out positions of 0..n-1 (n = d + 2 levels) moved to the centre
    of 0..T-1, and reflection in T maps them as reflection in n does: a
    fixed swap of pattern indices, closed on each prefix of length d + 2j."""
    n = d + 2 * levels
    cut = middle_out(n)
    index = {p: i for i, p in enumerate(cut)}
    image = [index[n - 1 - p] for p in cut]

    def kept(pattern: tuple[int, ...], level: int):
        relabel: dict[int, int] = {}
        mirror = tuple(
            relabel.setdefault(pattern[i], len(relabel)) for i in image[: len(pattern)]
        )
        if mirror < pattern:
            return
        if mirror > pattern or level == levels:
            yield pattern
            return
        top = max(pattern, default=-1)
        for a in range(min(top + 2, r)):
            for b in range(min(max(top, a) + 2, r)):
                yield from kept(pattern + (a, b), level + 1)

    return tuple(p for pattern in _first_use_patterns(r, d) for p in kept(pattern, 0))
