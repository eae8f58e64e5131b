"""Span tracing of the kernel's layers, installed from outside the kernel.

`Tracer.install` replaces every public function of every `computads.*`
module with a wrapper, at every module namespace that binds it: a
`from .terms import boundary` in `monad` copies the binding, so the wrapper
is written into `monad` as well.  The layer of a span is the module that
defines the function.  `Tracer.uninstall` puts the original functions back.

A span is `(name, start, end, parent, op_id)`, where `parent` is the entry
number of the enclosing wrapped call (-1 at the top).  Spans are kept in
memory and written out by `write_spans` when the run ends; aggregates (calls
and self time per function, and the named counters) are updated as each
span closes, so they cover every call even past `SPAN_CAP`.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import types
from collections import Counter
from time import perf_counter

LAYERS = (
    "base",
    "presheaf",
    "signature",
    "terms",
    "computad",
    "monad",
    "algebra",
    "plex",
    "factorization",
    "cofibrant",
    "io_json",
    "cli",
    "packs",
    "cubical",
    "globular",
)

# Private functions that are traced anyway, because a counter needs them.
EXTRA = {"computads.cli": ("_emit",)}

# Functions whose result size feeds a counter, by qualified name.  The
# enumerators recurse into themselves, so only their outermost calls count.
RESULT_COUNTERS = {
    "computad.colimit_var": "computad.colimit.gens",
    "computad.find_isomorphism": "computad.iso.bijection_gens",
    "presheaf.enumerate_hom": "presheaf.hom.results",
    "monad.enumerate_terms": "monad.terms_out",
    "plex.enumerate_polyplexes": "plex.shapes_out",
}
OUTERMOST_ONLY = ("monad.enumerate_terms", "plex.enumerate_polyplexes")

SPAN_CAP = 200_000  # spans kept in memory; later ones are only counted


def _result_size(name: str, result) -> int:
    if name == "computad.colimit_var":
        return result.computad.generator_count()
    if name == "computad.find_isomorphism":
        return len(result) if result is not None else 0
    return len(result)


class Tracer:
    def __init__(self):
        self.names: list[str] = []  # name id -> "layer.function"
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.spans: list[tuple] = []
        self.dropped = 0
        self.counters: Counter = Counter()
        self.timers: Counter = Counter()
        self.op_id = -1
        self.paused = 0
        self._stack: list[list] = []  # [entry number, name id, start, child time]
        self._entries = 0
        self._saved: list[tuple[types.ModuleType, str, object]] = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "computads" or n.startswith("computads."))
        ]
        wrappers: dict[int, object] = {}
        for module in modules:
            extra = EXTRA.get(module.__name__, ())
            for attr, value in list(vars(module).items()):
                if not isinstance(value, types.FunctionType):
                    continue
                if attr.startswith("_") and attr not in extra:
                    continue
                origin = value.__module__ or ""
                if not origin.startswith("computads."):
                    continue
                if id(value) not in wrappers:
                    layer = origin.split(".", 1)[1]
                    wrappers[id(value)] = self._wrap(value, f"{layer}.{value.__name__}")
                self._saved.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def _wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        sized = name in RESULT_COUNTERS
        counts_gluing = name == "terms.rename"
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            entry = tracer._entries
            tracer._entries += 1
            frame = [entry, name_id, perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[2]
                tracer.calls[name_id] += 1
                tracer.self_s[name_id] += duration - frame[3]
                if parent is not None:
                    parent[3] += duration
                if len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append(
                        (name_id, frame[2], end, parent[0] if parent else -1, tracer.op_id)
                    )
                else:
                    tracer.dropped += 1
            if sized:
                tracer._count_result(name, parent, result, duration)
            if counts_gluing and parent is not None:
                if tracer.names[parent[1]] == "computad.find_isomorphism":
                    tracer.counters["computad.iso.gluing_checks"] += 1
            return result

        return wrapper

    def _count_result(self, name: str, parent, result, duration: float) -> None:
        counter = RESULT_COUNTERS[name]
        if name in OUTERMOST_ONLY and parent is not None:
            if self.names[parent[1]].split(".")[0] == name.split(".")[0]:
                return
        self.counters[counter] += _result_size(name, result)
        self.timers[counter] += duration

    # -- reading --------------------------------------------------------------

    @contextlib.contextmanager
    def paused_section(self):
        """Calls made inside run untraced: input preparation and checks."""
        self.paused += 1
        try:
            yield
        finally:
            self.paused -= 1

    def calls_of(self, name: str) -> int:
        return sum(c for n, c in zip(self.names, self.calls) if n == name)

    def self_of(self, name: str) -> float:
        return sum(t for n, t in zip(self.names, self.self_s) if n == name)

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        out = {layer: [0, 0.0] for layer in LAYERS}
        for name, calls, self_s in zip(self.names, self.calls, self.self_s):
            layer = name.split(".")[0]
            if layer in out:
                out[layer][0] += calls
                out[layer][1] += self_s
        return {k: (v[0], v[1]) for k, v in out.items()}

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "dropped": self.dropped}, fh)
            fh.write("\n")
            for span in self.spans:
                fh.write("%d %.9f %.9f %d %d\n" % span)

