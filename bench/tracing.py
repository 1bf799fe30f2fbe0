"""Spans around the calls into vdwkit's layers, recorded from outside.

The program is not edited: install() replaces the names that
vdwkit.search looks up at call time (open_run, split_into_cubes,
power_residue_witness) with timing wrappers, and gives every run that
open_run returns a timing step().  The benchmark opens its own spans
around each public call it makes.  Spans stay in memory as plain dicts
(id, name, start, end, parent, op, plus attributes) until write().
"""
from __future__ import annotations

import contextlib
import inspect
import itertools
import json
import threading
import time
import weakref


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.op = None  # the benchmark-level span now open; kernel threads hang off it
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextlib.contextmanager
    def span(self, name: str, parent=None, **attrs):
        """Time the body; yields the attribute dict so the body can add
        counts.  Does nothing but yield when tracing is off."""
        if not self.enabled:
            yield attrs
            return
        stack = self._local.__dict__.setdefault("stack", [])
        sid = attrs["id"] = next(self._ids)
        if parent is None:
            parent = stack[-1] if stack else self.op
        is_op = self.op is None
        if is_op:
            self.op = sid
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            if is_op:
                self.op = None
            self.spans.append(
                dict(attrs, name=name, start=start, end=end, parent=parent,
                     op=sid if is_op else self.op)
            )

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s["start"]):
                fh.write(json.dumps(s, sort_keys=True) + "\n")


def _bound_args(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def install(tracer: Tracer, search) -> list[str]:
    """Wrap vdwkit.search's calls into the engine and the witness.

    Returns the names that were missing; a later layout of the package
    leaves those layers untraced rather than failing the run.
    """
    missing = []
    orig_open = getattr(search, "open_run", None)
    orig_split = getattr(search, "split_into_cubes", None)
    orig_witness = getattr(search, "power_residue_witness", None)
    cube_index: dict[int, int] = {}  # id of a cube's assumption list -> its index

    if orig_split is None:
        missing.append("split_into_cubes")
    else:
        def split_into_cubes(*args, **kwargs):
            a = _bound_args(orig_split, args, kwargs)
            with tracer.span("engine.split_into_cubes", T=a["T"], k=a["k"]) as attrs:
                cubes, run = orig_split(*args, **kwargs)
                attrs.update(cubes=len(cubes), nodes=run.nodes)
            cube_index.clear()
            cube_index.update((id(c), i) for i, c in enumerate(cubes))
            return cubes, run

        search.split_into_cubes = split_into_cubes

    if orig_open is None:
        missing.append("open_run")
    else:
        def open_run(*args, **kwargs):
            a = _bound_args(orig_open, args, kwargs)
            T, k = a["T"], a["k"]
            cube = cube_index.get(id(a.get("assumptions")))
            with tracer.span("engine.open_run", T=T, k=k, cube=cube) as attrs:
                run = orig_open(*args, **kwargs)
            _wrap_step(tracer, run, attrs["id"], T, k, cube)
            return run

        search.open_run = open_run

    if orig_witness is None:
        missing.append("power_residue_witness")
    else:
        def power_residue_witness(*args, **kwargs):
            with tracer.span("search.power_residue_witness") as attrs:
                colors = orig_witness(*args, **kwargs)
                attrs["length"] = len(colors)
            return colors

        search.power_residue_witness = power_residue_witness
    return missing


def _wrap_step(tracer: Tracer, run, run_span: int, T: int, k: int, cube) -> None:
    # a weak reference, so the wrapper does not keep the run (and the
    # kernel state its finalizer frees) alive in a reference cycle
    ref = weakref.ref(run)
    cls_step = type(run).step

    def step(*args, **kwargs):
        target = ref()
        before = target.nodes
        with tracer.span("kernel.step", parent=run_span, T=T, k=k, cube=cube) as attrs:
            status = cls_step(target, *args, **kwargs)
            attrs.update(nodes=target.nodes - before, status=status)
        return status

    run.step = step
