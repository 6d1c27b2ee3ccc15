"""Spans around hyperzeta's public functions, installed from outside the library.

``evaluators``, ``asymptotics`` and ``checks`` import ``hankel_integrate``,
``q_poly`` and friends by name, so wrapping a function only in its home module
would miss most calls.  ``Tracer.install`` therefore replaces the function at
every module binding in the package where it appears.

Spans live in memory while the run lasts (name, start, end, parent span,
request id, raised) and are written out when it ends.  Recording is on only
while a request runs, so warm-up and correctness checks leave no spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from time import perf_counter

# Cached and recursive, and called from the innermost lattice-sum loop: a span
# per call would dominate the run.  Its calls are counted through cache_info().
NOT_WRAPPED = {"constants.bernoulli_number"}
# Methods wrapped on their class, because operators are looked up on the type.
METHODS = {"series.LaurentSeries": ("__mul__", "__truediv__", "exp")}


def package_modules(package: str) -> dict:
    """Short module name ("hankel") -> module, for every loaded submodule."""
    prefix = package + "."
    return {
        name[len(prefix):]: mod
        for name, mod in sys.modules.items()
        if name.startswith(prefix)
    }


class Tracer:
    def __init__(self, package: str, error_type: type):
        self.package = package
        self.error_type = error_type
        self.spans = []  # [name, start, end, parent index, request id, raised]
        self._stack = []
        self.request = None  # id of the running request; None: not recording

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.request is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.request, False]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except tracer.error_type:
                span[5] = True
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()

        return traced

    def install(self):
        modules = package_modules(self.package)
        wrappers = {}  # id(original) -> (original, wrapper)
        for short, mod in modules.items():
            if short == "cli":
                continue
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if (
                    attr.startswith("_")
                    or inspect.isclass(obj)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__
                    or name in NOT_WRAPPED
                ):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(name, obj))
        for path, names in METHODS.items():
            short, cls_name = path.split(".")
            cls = getattr(modules[short], cls_name)
            for meth in names:
                setattr(cls, meth, self._wrap(f"{path}.{meth}", cls.__dict__[meth]))
        bindings = list(modules.values()) + [sys.modules[self.package]]
        for mod in bindings:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

    def layer_stats(self) -> dict:
        """name -> {"calls", "self_s", "errors"}; self time excludes child spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats = {}
        for i, (name, start, end, _, _, raised) in enumerate(self.spans):
            s = stats.setdefault(name, {"calls": 0, "self_s": 0.0, "errors": 0})
            s["calls"] += 1
            s["self_s"] += end - start - child[i]
            s["errors"] += raised
        return stats

    def write(self, path: str):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class CacheCounters:
    """hits and misses of the library's lru caches, read from outside."""

    def __init__(self, package: str, caches: dict):
        modules = package_modules(package)
        self.functions = {}
        for metric, path in caches.items():
            short, attr = path.split(".")
            self.functions[metric] = getattr(modules[short], attr)

    def snapshot(self) -> dict:
        return {name: fn.cache_info()[:2] for name, fn in self.functions.items()}

    @staticmethod
    def delta(before: dict, after: dict) -> dict:
        """name -> {"hit_ratio", "lookups"} between two snapshots."""
        out = {}
        for name, (hits, misses) in after.items():
            dh = hits - before[name][0]
            lookups = dh + misses - before[name][1]
            out[name] = {"hit_ratio": dh / lookups if lookups else 0.0, "lookups": lookups}
        return out
