"""Per-layer tracing from outside the package.

Each layer's public function is replaced, under its name in the module that
calls it, by a wrapper that records one span per call: name, start, end,
parent span and op id. Patching the calling module rather than the defining
one keeps recursive helpers (format_formula, expand_lets, nnf) to one span
per outside call. Spans stay in memory until the run writes them out.
"""
from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict

# (module, attribute, span name): the attribute is looked up in the module
# that calls the layer, so one call from outside is one span.
HOOKS = [
    ("eufui.cli", "parse", "parse.parse"),
    ("eufui.cli", "flatten", "preprocess.flatten"),
    ("eufui.cli", "compute_tableaux_ui", "tableaux"),
    ("eufui.cli", "compute_conditional_ui", "conditional"),
    ("eufui.conditional", "step1", "conditional.step1"),
    ("eufui.conditional", "step2", "conditional.step2"),
    ("eufui.conditional", "core_clauses", "conditional.core"),
    ("eufui.cli", "euf_valid", "euf.valid"),
    ("eufui.cli", "euf_equiv", "euf.equiv"),
    ("eufui.euf", "euf_valid", "euf.valid"),
    ("eufui.euf", "expand_lets", "formulas.expand_lets"),
    ("eufui.euf", "nnf", "formulas.nnf"),
    ("eufui.euf", "cc_sat", "euf.cc_sat"),
    ("eufui.cli", "fsize", "formulas.fsize"),
    ("eufui.cli", "print_ui", "parse.print"),
]
# Methods: both result classes build their formula on every call.
METHOD_HOOKS = [
    ("eufui.conditional", "UiResultCnf", "formula", "formulas.build_conditional"),
    ("eufui.tableaux", "UiResultDnf", "formula", "formulas.build_tableaux"),
]
# Generators: one span per next(), so chain enumeration is timed where it runs.
GENERATOR_HOOKS = [
    ("eufui.conditional", "enumerate_cdags", "conditional.chains"),
]


def _counts_of(name: str, result) -> dict:
    """Work counters read from a layer's returned value."""
    if name == "preprocess.flatten":
        return {"preprocess.evars": len(result.evars), "preprocess.s1_literals": len(result.s1)}
    if name == "tableaux":
        return {
            "tableaux.branches": result.stats["branches_explored"],
            "tableaux.rule4_firings": result.stats["rule4_firings"],
            "tableaux.disjuncts": len(result.disjuncts),
        }
    if name == "conditional":
        s = result.stats
        return {
            "conditional.s2_size": s["s2_size"],
            "conditional.s3_size": s["s3_size"],
            "conditional.clauses_created": s["clauses_created"],
            "conditional.cdags_visited": s["cdags_visited"],
            "conditional.num_cdags": s["num_cdags"],
        }
    return {}


class Tracer:
    """Collects spans and counters; `op` tags everything recorded until changed.

    `modules` maps the module names in the hook lists to imported modules.
    """

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list = []  # [name, start, end, parent index, op]
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.stack: list[int] = []
        self.saved: list = []  # (object, attribute, original) patched by install
        self.op = 0

    def span(self, name: str, fn, *args, **kwargs):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else None, self.op])
        self.stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.stack.pop()
            self.spans[idx][2] = time.perf_counter()
        self.counts[self.op].update(_counts_of(name, result))
        return result

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return wrapped

    def _wrap_generator(self, name: str, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = self.span(name, next, it)
                except StopIteration:
                    return
                yield item
        return wrapped

    def install(self) -> None:
        """Patch every hook."""
        m = self.modules
        for mod, attr, name in HOOKS:
            self._patch(m[mod], attr, name, self._wrap)
        for mod, cls, attr, name in METHOD_HOOKS:
            self._patch(getattr(m[mod], cls), attr, name, self._wrap)
        for mod, attr, name in GENERATOR_HOOKS:
            self._patch(m[mod], attr, name, self._wrap_generator)

    def _patch(self, obj, attr: str, name: str, wrap) -> None:
        original = getattr(obj, attr)
        self.saved.append((obj, attr, original))
        setattr(obj, attr, wrap(name, original))

    def uninstall(self) -> None:
        """Restore what install patched."""
        while self.saved:
            obj, attr, original = self.saved.pop()
            setattr(obj, attr, original)

    def self_times(self) -> dict[str, float]:
        """Seconds per span name: duration minus what child spans cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        out: dict[str, float] = defaultdict(float)
        for (name, *_), t in zip(self.spans, own):
            out[name] += t
        return out

    def calls(self) -> Counter:
        return Counter(name for name, *_ in self.spans)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "op": op, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
