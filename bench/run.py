"""Benchmark of the euf-ui command line on seeded workloads.

Run from the repository root:

    python3 bench/run.py --workload corpus --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1

One op is one in-process call to eufui.cli.main(argv + [file]) with stdout
and stderr captured, timed from the call until it returns. One client runs
ops in a closed loop, in rounds over the workload's inputs, until --seconds
have passed (see measure). Every op must exit 0 with output that matches an
independent reference, or exit 3 (a count cap was hit; such ops count as
failed). Any other exit, a traceback, or a repeat whose counters differ
from its input's first run makes the run wrong.

Each input is timed several times, spread over the run, and its time is
the fastest of them. On a shared host the same op runs up to twice as slow
for seconds to minutes at a time while other tenants are busy, on one CPU
or on all; the rounds alternate between the CPUs the process may use, and
the fastest repeat is the one least slowed by other tenants. solve_ms_p50
and solve_ms_tail are percentiles of these per-input times, and
instances_per_s is the number of inputs finished over their sum. Corpus
row 58 takes about a minute and runs once.

setup_s is the median of SETUP_REPEATS set-ups, each importing eufui afresh
from ./src, generating the inputs from --seed and writing them to files.

--trace 0 prints the end-to-end metrics. --trace 1 wraps each layer's public
functions (see tracing.py), runs every op both untraced and traced (corpus
row 58 only traced), prints per-layer metrics from the traced calls with
the difference as trace.overhead_ms, and writes the spans to .bench_out/.
--workload all runs every workload untraced and twice traced in child
processes, checks that all counters repeat exactly, and prints every
metric. The last stdout line is one JSON object.

BENCHMARK.json lists corpus and shared-evar. chain-gadget (step-2
saturation) runs only by hand or under --workload all: a corpus run takes
over a minute, and a third workload would not leave room for runs long
enough to ride out the host's slow periods.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import workloads
from tracing import Tracer

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("corpus", "shared-evar", "chain-gadget")
MIN_ROUNDS = 2
SETUP_REPEATS = 9
TAIL_BEYOND = 10
CHAIN_GADGET_REFERENCE = workloads.minimal_connecting_sets()
STATS_COUNTERS = ("branches_explored", "rule4_firings", "s2_size", "s3_size",
                  "num_cdags", "ui_compressed_size")

# Per-layer self times: metric name -> span name (see tracing.HOOKS). The
# conditional span's self time is what compute_conditional_ui does besides
# its wrapped steps: building each chain's substitution and dropping
# chains whose core is trivial.
LAYER_TIMES = {
    "cli.self_ms": "cli",
    "parse.parse_ms": "parse.parse",
    "preprocess.flatten_ms": "preprocess.flatten",
    "tableaux.ms": "tableaux",
    "conditional.step1_ms": "conditional.step1",
    "conditional.step2_ms": "conditional.step2",
    "conditional.chains_ms": "conditional.chains",
    "conditional.core_ms": "conditional.core",
    "conditional.filter_ms": "conditional",
    "formulas.build_conditional_ms": "formulas.build_conditional",
    "formulas.build_tableaux_ms": "formulas.build_tableaux",
    "formulas.fsize_ms": "formulas.fsize",
    "parse.print_ms": "parse.print",
    "formulas.expand_lets_ms": "formulas.expand_lets",
    "formulas.nnf_ms": "formulas.nnf",
    "euf.search_ms": "euf.valid",
    "euf.cc_sat_ms": "euf.cc_sat",
}
# Counters that are span counts.
LAYER_CALLS = {
    "conditional.core_calls": ("conditional.core",),
    "formulas.build_calls": ("formulas.build_conditional", "formulas.build_tableaux"),
    "euf.queries": ("euf.valid",),
    "euf.cc_sat_calls": ("euf.cc_sat",),
}
# Useful outcomes over attempts, as sums over the traced ops.
LAYER_RATIOS = {
    "tableaux.branch_yield": ("tableaux.disjuncts", "tableaux.branches"),
    "conditional.step2_yield": ("conditional.s3_size", "conditional.clauses_created"),
    "conditional.chain_yield": ("conditional.num_cdags", "conditional.cdags_visited"),
    "euf.cubes_per_query": ("euf.cc_sat_calls", "euf.queries"),
}


class WrongAnswer(Exception):
    pass


@dataclass
class Op:
    name: str
    argv: list[str]
    text: str
    check: Callable[[str], None]  # raises AssertionError on a wrong stdout
    path: str = ""


def make_ops(workload: str, seed: int) -> list[Op]:
    if workload == "corpus":
        texts = workloads.corpus(seed)
        return [Op(f"instance {i}", workloads.CORPUS_ARGS, text, workloads.check_corpus)
                for i, text in enumerate(texts)]
    rng = random.Random(seed)
    ops = []
    for v in range(workloads.VARIANTS):
        if workload == "shared-evar":
            text, pairs = workloads.shared_evar(rng)
            check = functools.partial(workloads.check_shared_evar, pairs=pairs)
            ops.append(Op(f"variant {v}", workloads.SHARED_EVAR_ARGS, text, check))
        else:
            text, edge_of, goal = workloads.chain_gadget(rng)
            check = functools.partial(workloads.check_chain_gadget, edge_of=edge_of, goal=goal,
                                      reference=CHAIN_GADGET_REFERENCE)
            ops.append(Op(f"variant {v}", workloads.CHAIN_GADGET_ARGS, text, check))
    return ops


def import_cli():
    """Import the package under test from ./src, fresh."""
    for name in [m for m in sys.modules if m == "eufui" or m.startswith("eufui.")]:
        del sys.modules[name]
    cli = importlib.import_module("eufui.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"eufui imported from {cli.__file__}, not from ./src")
    return cli


def setup(workload: str, seed: int, workdir: Path):
    """Import, generate and write the inputs SETUP_REPEATS times; median seconds."""
    times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        import_cli()
        ops = make_ops(workload, seed)
        paths: dict[str, str] = {}
        for op in ops:
            if op.text not in paths:
                paths[op.text] = str(workdir / f"input{len(paths)}.smt")
                with open(paths[op.text], "w") as fh:
                    fh.write(op.text)
            op.path = paths[op.text]
        times.append(time.perf_counter() - started)
    return ops, statistics.median(times)


def parse_stats(stderr: str) -> dict:
    line = next(l for l in stderr.splitlines() if l.startswith("stats: "))
    pairs = dict(kv.split("=") for kv in line[len("stats: "):].split())
    return {k: int(pairs[k]) for k in STATS_COUNTERS}


def call(main, op: Op, tracer: Tracer | None):
    """One checked CLI call: (exit code, seconds, stdout, stats-line counters).

    Exit 0 must come with output that passes the op's check; exit 3 (a cap
    was hit) is a failed op; anything else is a wrong answer.
    """
    out, err = io.StringIO(), io.StringIO()
    argv = op.argv + [op.path]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        started = time.perf_counter()
        try:
            rc = tracer.span("cli", main, argv) if tracer else main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            raise WrongAnswer(f"{op.path}: {traceback.format_exc()}") from None
        seconds = time.perf_counter() - started
    if rc == 3:
        return rc, seconds, out.getvalue(), {}
    if rc != 0:
        raise WrongAnswer(f"{op.path} exited {rc}: {err.getvalue().strip()[:2000]}")
    try:
        op.check(out.getvalue())
    except AssertionError as exc:
        raise WrongAnswer(f"{op.path}: {exc}\n{out.getvalue()[:2000]}") from None
    return rc, seconds, out.getvalue(), parse_stats(err.getvalue())


def measure(ops: list[Op], seconds: float, tracer: Tracer | None, heavy: list[int]):
    """Closed loop of rounds over the inputs: op records, untraced twin times,
    rounds, wall.

    Untraced, rounds over every input run until `seconds` have passed and
    at least MIN_ROUNDS ran, so each input is timed several times spread
    over the run. An input in `heavy` (corpus row 58, about a minute) runs
    once, between two equal halves of the rounds over the others, each
    half at least a tenth of `seconds`; eufui is then imported afresh,
    dropping the term table that op filled, as a new euf-ui process would.

    Traced, rounds over every input run until `seconds` have passed, and
    every op but the heavy ones also runs untraced, so the traced run
    measures its own overhead on the same inputs at the same time; which of
    the two goes first alternates, because the first call on an input pays
    for warm-up.

    Every repeat of an input must give the exit code and counters of its
    first run.
    """
    records = []  # (round, input index, exit code, seconds, stats counters)
    twins = []  # (record index, untraced seconds)
    first: dict[int, tuple] = {}
    rounds = 0
    cpus = sorted(os.sched_getaffinity(0))
    started = time.perf_counter()

    def elapsed() -> float:
        return time.perf_counter() - started

    def run_round(indices: list[int]) -> None:
        nonlocal rounds
        os.sched_setaffinity(0, {cpus[rounds % len(cpus)]})
        main = sys.modules["eufui.cli"].main
        for i in indices:
            op = ops[i]
            if tracer and i in heavy:
                tracer.op = len(records)
                tracer.install()
                try:
                    rc, dt, out, stats = call(main, op, tracer)
                finally:
                    tracer.uninstall()
            elif tracer:
                tracer.op = len(records)
                got = {}
                for traced in ((False, True) if i % 2 == 0 else (True, False)):
                    if traced:
                        tracer.install()
                    try:
                        got[traced] = call(main, op, tracer if traced else None)
                    finally:
                        tracer.uninstall()
                rc, dt, out, stats = got[True]
                twins.append((len(records), got[False][1]))
                if out != got[False][2]:
                    raise WrongAnswer(f"{op.path}: traced output differs from untraced")
            else:
                rc, dt, out, stats = call(main, op, None)
            if first.setdefault(i, (rc, stats)) != (rc, stats):
                raise WrongAnswer(f"{op.path}: round {rounds} counters differ from its first run")
            records.append((rounds, i, rc, dt, stats))
        rounds += 1

    if tracer:
        while rounds == 0 or elapsed() < seconds:
            run_round(list(range(len(ops))))
        return records, twins, rounds, elapsed()
    light = [i for i in range(len(ops)) if i not in heavy]
    if not heavy:
        while rounds < MIN_ROUNDS or elapsed() < seconds:
            run_round(light)
        return records, twins, rounds, elapsed()
    while rounds < MIN_ROUNDS // 2 or elapsed() < seconds / 10:
        run_round(light)
    before = rounds
    run_round(heavy)
    import_cli()
    gc.collect()
    while rounds < 2 * before + 1 or elapsed() < seconds:
        run_round(light)
    return records, twins, rounds, elapsed()


def tail(times: list[float]):
    """Value, percentile and sample count at the highest percentile with
    TAIL_BEYOND samples beyond it; with too few samples, the largest."""
    times = sorted(times)
    idx = len(times) - TAIL_BEYOND - 1 if len(times) > TAIL_BEYOND else len(times) - 1
    return times[idx], 100.0 * (idx + 1) / len(times), len(times) - idx - 1


def first_runs(records) -> list[int]:
    """Record index of each input's first run, in input order."""
    first: dict[int, int] = {}
    for n, (_, i, *_) in enumerate(records):
        first.setdefault(i, n)
    return [first[i] for i in sorted(first)]


def pass_counts(records, tracer: Tracer | None) -> dict:
    """Deterministic counts of each input's first run: exits, stats-line
    sums, layer counters."""
    ops = first_runs(records)  # tracer.op numbers ops by record index
    counts = Counter(f"exit_{records[n][2]}" for n in ops)
    for n in ops:
        counts.update(records[n][4])
    if tracer:
        wanted = set(ops)
        counts.update(f"calls.{name}" for name, *_, op in tracer.spans if op in wanted)
        for op in ops:
            counts.update(tracer.counts[op])
    return dict(sorted(counts.items()))


def end_to_end(records, setup_s: float) -> tuple[dict, dict]:
    best: dict[int, float] = {}
    for _, i, _, dt, _ in records:
        best[i] = min(dt, best.get(i, dt))
    times = list(best.values())
    finished = sum(1 for r in records if r[2] == 0)
    finished_inputs = {i for _, i, rc, _, _ in records if rc == 0}
    tail_value, tail_pct, beyond = tail(times)
    repeats = Counter(i for _, i, *_ in records)
    metrics = {
        "setup_s": (setup_s, "s"),
        "solve_ms_p50": (1000 * statistics.median(times), "ms"),
        "solve_ms_tail": (1000 * tail_value, "ms"),
        "instances_per_s": (len(finished_inputs) / sum(times), "1/s"),
        "finished_frac": (finished / len(records), "fraction"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ui_compressed_nodes": (sum(records[n][4].get("ui_compressed_size", 0)
                                    for n in first_runs(records)), "count"),
    }
    notes = {"solve_ms_p50": f"median of {len(times)} inputs, each the fastest of "
                             f"{min(repeats.values())}-{max(repeats.values())} runs",
             "solve_ms_tail": f"p{tail_pct:.1f} of {len(times)} inputs, {beyond} beyond",
             "instances_per_s": "inputs finished over the sum of their fastest runs",
             "ui_compressed_nodes": "sum over the inputs"}
    return metrics, notes


def per_layer(records, twins: list[tuple[int, float]], tracer: Tracer) -> tuple[dict, dict]:
    """Per-op means of layer self times and counters, ratios, and overhead."""
    n = len(records)
    by_name = tracer.self_times()
    calls = tracer.calls()
    totals = Counter()
    for c in tracer.counts.values():
        totals.update(c)
    for metric, names in LAYER_CALLS.items():
        totals[metric] = sum(calls[name] for name in names)
    op_seconds = sum(dt for *_, dt, _ in records)
    twinned = sum(records[n][3] for n, _ in twins)
    metrics = {m: (1000 * by_name[name] / n, "ms/op") for m, name in LAYER_TIMES.items()}
    for m in ("preprocess.evars", "preprocess.s1_literals", "tableaux.branches",
              "tableaux.rule4_firings", "tableaux.disjuncts", "conditional.s2_size",
              "conditional.s3_size", "conditional.clauses_created",
              "conditional.cdags_visited", "conditional.num_cdags", *LAYER_CALLS):
        metrics[m] = (totals[m] / n, "count/op")
    for m, (num, den) in LAYER_RATIOS.items():
        metrics[m] = (totals[num] / totals[den] if totals[den] else 0.0, "ratio")
    metrics["trace.op_ms"] = (1000 * op_seconds / n, "ms/op")
    metrics["trace.overhead_ms"] = (1000 * (twinned - sum(dt for _, dt in twins)) / len(twins),
                                    "ms/op")
    shares = {name: t / op_seconds for name, t in sorted(by_name.items(), key=lambda kv: -kv[1])}
    return metrics, shares


def run_workload(args) -> int:
    if not (SRC / "eufui" / "cli.py").is_file():
        print(f"error: no package source at {SRC}/eufui; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = OUT / f"inputs-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ops, setup_s = setup(args.workload, args.seed, workdir)
        tracer = None
        if args.trace:
            tracer = Tracer({name: sys.modules[name] for name in sys.modules
                             if name.startswith("eufui.")})
        correct = True
        try:
            heavy = [workloads.ROW58_INDEX] if args.workload == "corpus" else []
            records, twins, rounds, wall = measure(ops, args.seconds, tracer, heavy)
        except WrongAnswer as exc:
            print(f"wrong answer: {exc}", file=sys.stderr)
            correct = False
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not correct:
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1

    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "ops": len(records), "rounds": rounds, "wall_s": wall,
              "op_ms_mean": 1000 * sum(r[3] for r in records) / len(records),
              "counts": pass_counts(records, tracer)}
    print(f"{args.workload} seed {args.seed}: {len(records)} ops in {rounds} rounds, {wall:.1f} s")
    if tracer:
        metrics, shares = per_layer(records, twins, tracer)
        slow = max(records, key=lambda r: r[3])
        report["shares"] = shares
        report["slowest_op"] = {"op": ops[slow[1]].name, "ms": 1000 * slow[3],
                                "counts": dict(sorted(tracer.counts[records.index(slow)].items()))}
        spans_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(spans_path)
        print(f"  {len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
        for name, share in shares.items():
            if share > 0:
                print(f"  {name:32s} {100 * share:6.2f}% of op time (self)")
    else:
        metrics, notes = end_to_end(records, setup_s)
        report["notes"] = notes
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.4f} {unit:9s} {report.get('notes', {}).get(name, '')}")
    print("report " + json.dumps(report))
    print(json.dumps({
        "correct": True,
        "attempted": len(records),
        "failed": sum(1 for r in records if r[2] == 3),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def child(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """Run one workload in its own process; (report, result)."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise WrongAnswer(f"{workload} --trace {trace} exited {proc.returncode}")
    report = next(json.loads(l[len("report "):]) for l in lines if l.startswith("report "))
    return report, json.loads(lines[-1])


def run_all(args) -> int:
    """Every workload untraced and twice traced; counters must repeat exactly."""
    summary = {}
    ok = True
    for workload in WORKLOADS:
        plain, plain_result = child(workload, args.seed, args.seconds, 0)
        traced, traced_result = child(workload, args.seed, args.seconds, 1)
        again, again_result = child(workload, args.seed, args.seconds, 1)
        layer_counts = [{k: m["value"] for k, m in r["metrics"].items() if m["unit"] != "ms/op"}
                        for r in (traced_result, again_result)]
        repeat = (all(plain["counts"][k] == traced["counts"][k] for k in plain["counts"])
                  and traced["counts"] == again["counts"]
                  and layer_counts[0] == layer_counts[1])
        ok = ok and repeat
        print(f"== {workload} (seed {args.seed}) counters repeat: {'yes' if repeat else 'NO'}")
        for name, m in plain_result["metrics"].items():
            print(f"  {name:32s} {m['value']:14.4f} {m['unit']:9s} {plain['notes'].get(name, '')}")
        for name, share in list(traced["shares"].items())[:6]:
            print(f"  layer {name:26s} {100 * share:6.2f}% of traced op time (self)")
        for name, m in traced_result["metrics"].items():
            print(f"  {name:32s} {m['value']:14.4f} {m['unit']}")
        print(f"  slowest op: {traced['slowest_op']}")
        summary[workload] = {
            "end_to_end": plain_result["metrics"], "notes": plain["notes"],
            "per_layer": traced_result["metrics"], "self_time_shares": traced["shares"],
            "slowest_op": traced["slowest_op"], "counts": traced["counts"],
            "counters_repeat": repeat,
        }
    print(json.dumps(summary))
    return 0 if ok else 1


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    p.add_argument("--seed", type=int, default=workloads.CORPUS_REFERENCE_SEED)
    p.add_argument("--seconds", type=int, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.workload == "all":
        try:
            return run_all(args)
        except WrongAnswer as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
