"""Spans around calls into the `ko7` layers, recorded from outside the
library.

`Tracer.install` replaces each traced public function with a wrapper in
every `ko7` module namespace that binds it (`measure` binds
`root_steps_safe` by name, so patching `ko7.rewrite` alone would miss
those calls).  A span is (name, parent, start, end); spans live in arrays
in memory and `dump` writes them out once, at the end.

While a traced function runs, the names listed as its `inner` functions
are bound to the unwrapped originals in its own module, so recursion
(`ctx_steps_*`, `lpo_greater`, `render`, ...) records only the outermost
call and rule matching inside a context walk stays part of that walk.

Tracing is single-process: spans made in pool workers would be lost, so
traced operations run serially.
"""

from __future__ import annotations

import array
import importlib
import json
import time
from collections import Counter

MODULES = ("terms", "rewrite", "measure", "normalize", "confluence", "nogo", "workers", "cli")

_ROOT = ("root_steps_safe", "root_steps_full")
_CTX = ("ctx_steps_safe", "ctx_steps_full")


def _nodes(args, result):
    text = args[0]
    return {"terms.nodes_parsed": text.count("(") + text.count("void")}


def _witnesses(args, result):
    return {"rewrite.witnesses": len(result)}


def _join(args, result):
    return {
        "confluence.join_expanded": result.budget_used,
        "confluence.joins_attempted": 1,
        "confluence.joined": int(result.joined),
    }


def _steps_name(args, kwargs):
    relation = args[1] if len(args) > 1 else kwargs["relation"]
    return f"rewrite.steps:{relation.value}"


# (module, function, inner functions, counters of (args, result)).  No
# generator functions: their span would end before their work.
TRACED = (
    ("terms", "terms_of_size", ("terms_of_size",), None),
    ("terms", "enumerate_terms", ("terms_of_size",), lambda a, r: {"terms.enumerated": len(r)}),
    ("terms", "count_terms", ("terms_of_size",), None),
    ("terms", "parse", (), _nodes),
    ("terms", "render", ("render",), None),
    ("rewrite", "root_steps_safe", (), _witnesses),
    ("rewrite", "root_steps_full", (), _witnesses),
    ("rewrite", "ctx_steps_safe", _CTX + _ROOT, _witnesses),
    ("rewrite", "ctx_steps_full", _CTX + _ROOT, _witnesses),
    ("rewrite", "steps", _CTX + _ROOT, _witnesses),
    ("measure", "measure3", ("kappa_m",), lambda a, r: {"measure.measure3_calls": 1}),
    ("measure", "kappa_m", (), None),
    ("measure", "decrease_sweep", (), lambda a, r: {"measure.instances_checked": r.checked}),
    ("normalize", "normalize_full", (), lambda a, r: {"normalize.full_steps": r.steps_taken}),
    ("normalize", "normalize_safe", (), None),
    ("confluence", "forks", (), None),
    ("confluence", "joinable", (), _join),
    ("confluence", "guarded_root_normal_forms", (), None),
    ("confluence", "local_join_sweep", (), None),
    ("confluence", "unique_nf_sweep", (), None),
    ("confluence", "root_coverage_sweep", (), None),
    ("nogo", "find_violation", (), lambda a, r: {"nogo.instances_scanned": r.scanned}),
    ("nogo", "duplication_stress", (), lambda a, r: {"nogo.instances_scanned": r.instances}),
    ("nogo", "lpo_greater", ("lpo_greater",), None),
    ("nogo", "lpo_boundary_report", (), None),
    ("nogo", "kbo_search", (), None),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.counters: Counter = Counter()
        self._stack = [-1]

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def call(self, name: str, fn):
        """Run fn() inside a span called `name`."""
        return self._span(name, fn, (), {}, (), None, None, None)

    def _span(self, name, fn, args, kwargs, inner, home, originals, count):
        if callable(name):
            name = name(args, kwargs)
        saved = [home[n] for n in inner]
        for n in inner:
            home[n] = originals[n]
        index = len(self.name)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        try:
            result = fn(*args, **kwargs)
        finally:
            self.end[index] = time.perf_counter()
            self._stack.pop()
            for n, wrapper in zip(inner, saved):
                home[n] = wrapper
        if count is not None:
            self.counters.update(count(args, result))
        return result

    def install(self) -> None:
        modules = {m: importlib.import_module(f"ko7.{m}") for m in MODULES}
        namespaces = [vars(importlib.import_module("ko7"))] + [vars(m) for m in modules.values()]
        originals = {(m, f): getattr(modules[m], f) for m, f, _, _ in TRACED}
        for (module, fname, inner, count) in TRACED:
            original = originals[(module, fname)]
            home = vars(modules[module])
            home_originals = {n: originals[(module, n)] for n in inner}
            name = _steps_name if fname == "steps" else f"{module}.{fname}"
            wrapper = self._wrapper(name, original, inner, home, home_originals, count)
            for namespace in namespaces:
                for key, value in list(namespace.items()):
                    if value is original:
                        namespace[key] = wrapper

    def _wrapper(self, name, original, inner, home, originals, count):
        span = self._span

        def wrapper(*args, **kwargs):
            return span(name, original, args, kwargs, inner, home, originals, count)

        return wrapper

    def dump(self, path: str) -> None:
        header = {"names": self.names, "counters": dict(self.counters), "spans": len(self.name)}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for column in (self.name, self.parent, self.start, self.end):
                column.tofile(handle)


def load(path: str) -> tuple[dict, dict]:
    """Spans written by `dump`, as (header, columns)."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        n = header["spans"]
        columns = {}
        for key, code in (("name", "i"), ("parent", "i"), ("start", "d"), ("end", "d")):
            columns[key] = array.array(code)
            columns[key].fromfile(handle, n)
    return header, columns


def self_times(header: dict, columns: dict) -> dict[str, float]:
    """Total self time per span name: each span's duration minus the part
    its child spans cover."""
    start, end, parent, name = columns["start"], columns["end"], columns["parent"], columns["name"]
    own = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
    totals: Counter = Counter()
    for i, t in enumerate(own):
        totals[header["names"][name[i]]] += t
    return dict(totals)
