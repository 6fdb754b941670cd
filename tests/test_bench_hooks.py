"""The benchmark's tracer hooks name live package functions and read live result fields.

A renamed hooked function or stats key would otherwise surface only in a
full `bench/run.py --trace 1` run.
"""
from __future__ import annotations

import importlib
import importlib.util
import json
from pathlib import Path

from eufui.conditional import compute_conditional_ui
from eufui.parse import parse
from eufui.preprocess import flatten
from eufui.tableaux import compute_tableaux_ui

ROOT = Path(__file__).resolve().parent.parent


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_resolves():
    tracing = load_tracing()
    for mod, attr, _ in tracing.HOOKS + tracing.GENERATOR_HOOKS:
        assert callable(getattr(importlib.import_module(mod), attr, None)), (mod, attr)
    for mod, cls, attr, _ in tracing.METHOD_HOOKS:
        owner = getattr(importlib.import_module(mod), cls)
        assert callable(getattr(owner, attr, None)), (mod, cls, attr)


def test_counts_of_reads_every_layer_result():
    tracing = load_tracing()
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    pre = flatten(parse((ROOT / "demos" / "inputs" / "two_applications.smt").read_text()))
    results = {
        "preprocess.flatten": pre,
        "tableaux": compute_tableaux_ui(pre),
        "conditional": compute_conditional_ui(pre),
    }
    for name, result in results.items():
        counts = tracing._counts_of(name, result)
        assert counts, name
        assert set(counts) <= declared, name
        assert all(isinstance(v, int) for v in counts.values()), name
