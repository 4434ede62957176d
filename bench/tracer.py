"""Span tracing of ``graphmonoid`` from outside the package.

:func:`install` wraps every public function of the traced modules and
rebinds the wrapper wherever the original is bound: in its defining
module, at every ``from .x import name`` site in the other package
modules, in the package namespace, and in module-level dispatch tables.
No package file changes.  Internal calls go through module globals, so
they are traced as well.

Spans are recorded only while :meth:`Tracer.query` is open, so input
preparation and answer verification stay out of the numbers.  Each span
is kept in memory as (function, start, end, parent) and written out
once, by :meth:`Tracer.write`.  A span's self time is its duration minus
the durations of its direct child spans.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

MODULES = (
    "graphs",
    "elements",
    "rewriting",
    "certificates",
    "lattice",
    "ktheory",
    "enumeration",
    "properties",
    "cli",
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.counters: dict[str, float] = {}
        self.fn = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[list] = []
        self._active = False
        self._cached: dict[str, object] = {}
        self._cache_base: dict[str, tuple[int, int]] = {}
        self._seen_models: set[int] = set()
        # positions in ``names`` of the ``_WATCHED`` functions, set by install
        self._watch: tuple[int, int] = (-1, -1)

    # -- recording -------------------------------------------------------

    @contextmanager
    def query(self):
        """Record spans for the calls made inside this block."""
        self._active = True
        try:
            yield
        finally:
            self._active = False

    def _count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _wrap(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        hook = _HOOKS.get(name)
        stack = self._stack

        def traced(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            # frame: child time, own span index, call counts at entry of
            # the functions hooks look at
            span = len(self.fn)
            self.fn.append(fid)
            self.start.append(0.0)
            self.end.append(0.0)
            self.parent.append(stack[-1][1] if stack else -1)
            frame = [0.0, span, self._snapshot()]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                self.start[span] = t0
                self.end[span] = t1
                self.calls[fid] += 1
                self.self_s[fid] += dur - frame[0]
            if hook is not None:
                hook(self, args, result, frame[2])
            return result

        if inspect.isgeneratorfunction(fn):
            traced = self._wrap_generator(fid, fn)
        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _wrap_generator(self, fid: int, fn):
        # a generator does its work when resumed, not when called: time
        # every resumption as a segment of one span per call
        stack = self._stack

        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            if not self._active:
                yield from gen
                return
            span = len(self.fn)
            self.fn.append(fid)
            self.start.append(perf_counter())
            self.end.append(0.0)
            self.parent.append(stack[-1][1] if stack else -1)
            self.calls[fid] += 1
            try:
                while True:
                    frame = [0.0, span, None]
                    stack.append(frame)
                    t0 = perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        t1 = perf_counter()
                        stack.pop()
                        if stack:
                            stack[-1][0] += t1 - t0
                        self.self_s[fid] += t1 - t0 - frame[0]
                        self.end[span] = t1
                    yield item
            finally:
                gen.close()

        return traced

    def _snapshot(self) -> tuple[int, int]:
        ids = self._watch
        return (
            self.calls[ids[0]] if ids[0] >= 0 else 0,
            self.calls[ids[1]] if ids[1] >= 0 else 0,
        )

    def _delta(self, which: int, before) -> int:
        fid = self._watch[which]
        return self.calls[fid] - before[which] if fid >= 0 else 0

    # -- reporting -------------------------------------------------------

    def stats(self) -> dict:
        """Calls and self time per function, hook counters and cache hit
        counts since installation."""
        out = {"functions": {}, "counters": dict(self.counters), "caches": {}}
        for fid, name in enumerate(self.names):
            if self.calls[fid]:
                out["functions"][name] = {
                    "calls": self.calls[fid],
                    "self_s": self.self_s[fid],
                }
        for name, fn in self._cached.items():
            info = fn.cache_info()
            h0, m0 = self._cache_base[name]
            out["caches"][name] = {"hits": info.hits - h0, "misses": info.misses - m0}
        return out

    def write(self, path: str) -> None:
        """Write every span, gzipped: a header line naming the functions,
        then one JSON line ``[function, start, end, parent]`` per span."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"functions": self.names}) + "\n")
            for i in range(len(self.fn)):
                fh.write(
                    f"[{self.fn[i]},{self.start[i]!r},{self.end[i]!r},{self.parent[i]}]\n"
                )


# ----------------------------------------------------------------------
# per-function counters, recorded after each traced call returns


def _decide_eq(tr: Tracer, args, result, before) -> None:
    if getattr(result, "verdict", None) == "unknown":
        tr._count("rewriting.decide_eq.unknown")
    if tr._delta(0, before):
        tr._count("rewriting.decide_eq.searched")


def _hit(name: str):
    def hook(tr: Tracer, args, result, before) -> None:
        if result is not None:
            tr._count(name + ".hits")

    return hook


def _enumerate_hsat(tr: Tracer, args, result, before) -> None:
    tr._count("lattice.enumerate_hsat.subsets_scanned", tr._delta(1, before))
    tr._count("lattice.enumerate_hsat.sets_found", len(result))


def _class_model(tr: Tracer, args, result, before) -> None:
    if id(result) not in tr._seen_models:
        tr._seen_models.add(id(result))
        tr._count("enumeration.class_model.vectors", len(getattr(result, "vectors", ())))


_HOOKS = {
    "rewriting.decide_eq": _decide_eq,
    "certificates.distinctness_certificate": _hit("certificates.distinctness_certificate"),
    "certificates.leq_obstruction": _hit("certificates.leq_obstruction"),
    "lattice.enumerate_hsat": _enumerate_hsat,
    "enumeration.class_model": _class_model,
}

# call counts the hooks compare before and after a span: search states
# expanded, and subsets tested for heredity
_WATCHED = ("rewriting.successors", "graphs.is_hereditary")


def _public_functions(mod):
    for name, obj in vars(mod).items():
        if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
            yield name, obj


def install() -> Tracer:
    """Wrap the package's public functions and return the tracer."""
    package = "graphmonoid"
    tr = Tracer()
    wrappers: dict[int, object] = {}
    for short in MODULES:
        try:
            mod = importlib.import_module(f"{package}.{short}")
        except ImportError:
            continue
        for name, fn in _public_functions(mod):
            full = f"{short}.{name}"
            wrappers[id(fn)] = tr._wrap(full, fn)
            if hasattr(fn, "cache_info"):
                info = fn.cache_info()
                tr._cached[full] = fn
                tr._cache_base[full] = (info.hits, info.misses)
    index = {name: i for i, name in enumerate(tr.names)}
    tr._watch = tuple(index.get(name, -1) for name in _WATCHED)
    for modname, mod in list(sys.modules.items()):
        if modname != package and not modname.startswith(package + "."):
            continue
        for attr, value in list(vars(mod).items()):
            if id(value) in wrappers:
                setattr(mod, attr, wrappers[id(value)])
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if id(item) in wrappers:
                        value[key] = wrappers[id(item)]
    return tr
