"""In-memory span tracer that wraps the library's public entry points.

Spans are recorded from the benchmark's own files: :class:`Tracer` patches
each layer's entry point where its callers look it up (the defining module,
every module that bound the name with ``from ... import``, or the class
that owns the method) and restores the originals on :meth:`Tracer.restore`.
A span is ``(id, parent id, request id, name, start, end, attrs)``; spans of
one job share a request id.  Nothing is written until the caller asks.

The layer report (:func:`layer_report`) gives each span name its call count
(outermost entries only, so a primitive that calls itself through another
wrapped primitive counts once), its self time (duration minus the part of
its interval that child spans cover) and its inclusive time.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import sys
import time
from collections import defaultdict

#: Span names that start a new request id unless an ancestor already did:
#: one job (``JobRunner.run``) or one farm cell (``JobRunner.execute``).
REQUEST_ROOTS = frozenset({"jobs.run", "jobs.execute"})


class Tracer:
    """Collects spans in memory; installs and removes wrappers."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._rids = itertools.count(1)
        # (span id, request id, inside a request root, name) of the open span.
        self._current = contextvars.ContextVar("perfbench_span", default=None)
        self._patches: list[tuple[object, str, object]] = []

    # ----------------------------------------------------------- recording
    def current_name(self) -> str | None:
        cur = self._current.get()
        return None if cur is None else cur[3]

    def _open(self, name: str) -> tuple:
        parent = self._current.get()
        sid = next(self._ids)
        if parent is None:
            rid, in_req = next(self._rids), name in REQUEST_ROOTS
        elif name in REQUEST_ROOTS and not parent[2]:
            rid, in_req = next(self._rids), True
        else:
            rid, in_req = parent[1], parent[2]
        token = self._current.set((sid, rid, in_req, name))
        return sid, None if parent is None else parent[0], rid, token, time.perf_counter()

    def _close(self, opened: tuple, name: str, end: float, attrs=None) -> None:
        sid, parent, rid, token, start = opened
        self._current.reset(token)
        self.spans.append((sid, parent, rid, name, start, end, attrs))

    def call(self, name: str, fn, args, kwargs, attrs_fn=None, rename=None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``.

        ``attrs_fn(args, kwargs, result)`` returns numbers to sum per span
        name; ``rename(result)`` names the recorded span after its outcome
        (``jobs.run`` becomes ``jobs.run_hit`` or ``jobs.run_miss``).
        """
        opened = self._open(name)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            self._close(opened, name, time.perf_counter())
            raise
        end = time.perf_counter()
        attrs = attrs_fn(args, kwargs, out) if attrs_fn is not None else None
        self._close(opened, rename(out) if rename is not None else name, end, attrs)
        return out

    @contextlib.contextmanager
    def span(self, name: str):
        """Context manager form, for the benchmark's own root spans."""
        opened = self._open(name)
        try:
            yield
        finally:
            self._close(opened, name, time.perf_counter())

    # ------------------------------------------------------------ wrappers
    def wrapper(self, name, fn, attrs_fn=None, rename=None):
        """``fn`` wrapped so every call records a span named ``name``.

        ``name`` may be a callable ``(args, kwargs) -> str`` (per-instance
        names such as ``experiments.<id>``).
        """
        tracer = self
        if callable(name):
            name_fn = name

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return tracer.call(name_fn(args, kwargs), fn, args, kwargs, attrs_fn, rename)
        else:

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return tracer.call(name, fn, args, kwargs, attrs_fn, rename)

        traced.__perfbench_original__ = fn
        return traced

    def gen_wrapper(self, name, fn):
        """Span over a generator's whole iteration (first ``next`` to end)."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            items = []

            def drain():
                items.extend(fn(*args, **kwargs))

            tracer.call(name, drain, (), {})
            yield from items

        traced.__perfbench_original__ = fn
        return traced

    def conditional_wrapper(self, name, fn, *, parent: str):
        """Record a span only when called directly under span ``parent``
        (``finalize`` counts as merge time only in the executor's parent
        process, not inside a serial experiment run)."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.current_name() == parent:
                return tracer.call(name, fn, args, kwargs)
            return fn(*args, **kwargs)

        traced.__perfbench_original__ = fn
        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_function(self, module: str, attr: str, make) -> int:
        """Replace ``module.attr`` and every other module-level binding of
        the same function object in ``sys.modules``; returns how many
        bindings were patched.  ``make(fn)`` builds the wrapper."""
        original = getattr(sys.modules[module], attr)
        traced = make(original)
        n = 0
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if not namespace or not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for name, value in list(namespace.items()):
                if value is original:
                    self._set(mod, name, traced)
                    n += 1
        return n

    def patch_method(self, cls, attr: str, make) -> None:
        """Replace a method in the class that defines it."""
        self._set(cls, attr, make(cls.__dict__[attr]))

    def restore(self) -> None:
        """Put every patched binding back, newest first."""
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)


# --------------------------------------------------------------- analysis


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Self time of every span: its duration minus the part of its
    interval covered by its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for sid, parent, _rid, _name, start, end, _attrs in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {
        sid: (end - start) - _covered(start, end, children.get(sid, []))
        for sid, _parent, _rid, _name, start, end, _attrs in spans
    }


ROOTS = "__roots__"


def layer_report(spans: list[tuple]) -> dict[str, dict]:
    """Totals per span name.

    ``spans`` counts every span, ``calls`` only outermost entries (no
    ancestor of the same name), ``incl_s`` is the inclusive time of those
    entries, ``self_s`` the self time of every span, and ``sums`` adds up
    the outermost entries' attributes.  The ``__roots__`` entry totals the
    parentless spans: ``incl_s`` is the traced wall time and ``self_s`` the
    part of it no layer span covers.
    """
    by_id = {s[0]: s for s in spans}
    selfs = self_times(spans)
    out: dict[str, dict] = {}

    def entry(name):
        if name not in out:
            out[name] = {"spans": 0, "calls": 0, "self_s": 0.0, "incl_s": 0.0, "sums": {}}
        return out[name]

    for sid, parent, _rid, name, start, end, attrs in spans:
        e = entry(name)
        e["spans"] += 1
        e["self_s"] += selfs[sid]
        if parent is None:
            r = entry(ROOTS)
            r["spans"] += 1
            r["calls"] += 1
            r["self_s"] += selfs[sid]
            r["incl_s"] += end - start
        p = parent
        while p is not None and p in by_id and by_id[p][3] != name:
            p = by_id[p][1]
        if p is not None and p in by_id:
            continue  # nested inside a span of the same name
        e["calls"] += 1
        e["incl_s"] += end - start
        for key, value in (attrs or {}).items():
            e["sums"][key] = e["sums"].get(key, 0) + value
    return out


def merge_reports(*reports: dict) -> dict:
    """Add up several :func:`layer_report` results."""
    out: dict[str, dict] = {}
    for report in reports:
        for name, e in report.items():
            t = out.setdefault(
                name, {"spans": 0, "calls": 0, "self_s": 0.0, "incl_s": 0.0, "sums": {}}
            )
            for key in ("spans", "calls", "self_s", "incl_s"):
                t[key] += e[key]
            for key, value in e["sums"].items():
                t["sums"][key] = t["sums"].get(key, 0) + value
    return out
