"""Span tracing of sbl's layers from outside the package.

Tracer.install wraps the public functions of each layer module and puts
the wrapper into every sbl module namespace that holds the original,
because modules import functions by name: sbl.solve calls its own
enum_ball, svp_inf, cvp_inf, lll_reduce and gram_schmidt, so wrapping only
the defining module would miss most of the solver's time.  Calls made
through a module global (a function calling a sibling in its own module)
are caught the same way.

Every wrapped call records a span (function, start, end, parent span, op
index) in memory; self time is a span's duration minus its children's.

Arithmetic leaf helpers are left unwrapped: they run once per enumeration
node or listed point, so a span around each would cost more than the work
it measures.  Their time shows up as self time of their callers.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

LAYERS = ("cli", "core", "lattice", "reduction", "enumeration", "solve",
          "oracle", "experiment")

LEAF_HELPERS = frozenset({
    "core.dot", "core.l2_sq", "core.linf", "core.gcd_vector", "core.iroot",
    "core.ceil_root", "core.floor_sqrt_frac", "core.ceil_sqrt_frac",
    "lattice.gauge_norm", "lattice.gauge_sq",
})

# counts read off a call's result, next to its span
RESULT_COUNTS = {
    "enumeration.enum_ball": lambda r: r.count,
    "solve.gap_decide": lambda r: int(r.accept),
}


def _public_functions(mod):
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n in vars(mod) if not n.startswith("_")]
    for name in names:
        fn = getattr(mod, name, None)
        if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
            yield name, fn


class Tracer:
    """Spans of every call into a wrapped layer function."""

    def __init__(self):
        self.names: list = []  # function index -> "module.function"
        self.spans: list = []  # [fid, start, end, parent, op, count]
        self.op = -1
        self._stack: list = []
        self._patched: list = []  # (namespace, attribute, original)

    def _wrap(self, qualname: str, fn):
        fid = len(self.names)
        self.names.append(qualname)
        spans, stack = self.spans, self._stack
        count = RESULT_COUNTS.get(qualname)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [fid, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                span[5] = count(result)
            return result

        return wrapper

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"sbl.{layer}"]
            for name, fn in _public_functions(mod):
                qualname = f"{layer}.{name}"
                if qualname not in LEAF_HELPERS:
                    wrappers[id(fn)] = (fn, self._wrap(qualname, fn))
        for modname, mod in list(sys.modules.items()):
            if modname != "sbl" and not modname.startswith("sbl."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def summary(self, n_ops: int, window: int) -> dict:
        """Per function: calls and result counts over ops [0, window),
        inclusive and self seconds per op over all n_ops ops."""
        nf = len(self.names)
        calls = [0] * nf
        counts = [0] * nf
        incl = [0.0] * nf
        self_s = [0.0] * nf
        child = [0.0] * len(self.spans)
        for fid, t0, t1, parent, op, count in self.spans:
            dur = t1 - t0
            incl[fid] += dur
            self_s[fid] += dur
            if parent >= 0:
                child[parent] += dur
            if op < window:
                calls[fid] += 1
                counts[fid] += count
        for idx, span in enumerate(self.spans):
            self_s[span[0]] -= child[idx]
        out = {}
        for fid, name in enumerate(self.names):
            out[name] = {
                "calls": calls[fid],
                "count": counts[fid],
                "s": incl[fid] / n_ops,
                "self_s": self_s[fid] / n_ops,
            }
        return out
