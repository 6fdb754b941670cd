"""Command-line driver: parse, preprocess, run, verify, print.

Exit codes: 0 success, 1 verification failure, 2 input/usage error or
closed output, 3 resource cap hit. The interpolant goes to stdout; stats
go to stderr, as a single JSON line under --format stats-json.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
import time

from .conditional import compute_conditional_ui
from .errors import Budget, InputError, ResourceLimitError
from .euf import euf_equiv, euf_valid
from .formulas import fsize, mk_and
from .parse import format_formula, parse, print_ui
from .preprocess import flatten
from .tableaux import compute_tableaux_ui

STATS_KEYS = (
    "branches_explored",
    "rule4_firings",
    "s2_size",
    "s3_size",
    "num_cdags",
    "ui_compressed_size",
    "ui_unravelled_size",
)


def count(text: str) -> int:
    """The caps' and --timeout-ms's type: an int of at least 0, else a usage error."""
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process: argparse keeps no state between parses."""
    p = argparse.ArgumentParser(
        prog="euf-ui",
        description="Compute the uniform interpolant of an existentially "
        "quantified EUF constraint.",
    )
    p.add_argument("file", nargs="?", default="-",
                   help="problem file (default: stdin)")
    p.add_argument("--algorithm", choices=("tableaux", "conditional", "both"),
                   default="conditional")
    p.add_argument("--unravel", action="store_true",
                   help="print the fully expanded interpolant instead of the let form")
    p.add_argument("--verify", choices=("off", "residue", "equivalence"), default="off")
    p.add_argument("--max-branches", type=count, default=Budget.max_branches)
    p.add_argument("--max-clauses", type=count, default=Budget.max_clauses)
    p.add_argument("--max-cdags", type=count, default=Budget.max_cdags)
    p.add_argument("--max-cubes", type=count, default=Budget.max_cubes)
    p.add_argument("--timeout-ms", type=count, default=None)
    p.add_argument("--format", choices=("smtlib-like", "stats-json"), default="smtlib-like")
    p.add_argument("--strategy", choices=("default", "reversed"), default="default")
    p.add_argument("--prune", choices=("syntactic", "semantic"), default="syntactic")
    return p


def _read_input(path: str) -> bytes:
    """Raw bytes of the file or stdin; parse decodes them."""
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


def _collect_stats(args, engine_stats: dict, result) -> dict:
    """The printed counters: engine_stats, merged over both engines, and result's sizes."""
    stats = {k: engine_stats.get(k, 0) for k in STATS_KEYS if k != "ui_unravelled_size"}
    stats["ui_compressed_size"] = fsize(result.formula())
    if args.unravel:
        stats["ui_unravelled_size"] = fsize(result.formula(unravel=True))
    return stats


def _emit_stats(args, stats: dict, elapsed_ms: int) -> None:
    if args.format == "stats-json":
        print(json.dumps(stats, sort_keys=True), file=sys.stderr)
    else:
        pairs = " ".join(f"{k}={stats[k]}" for k in STATS_KEYS if k in stats)
        print(f"stats: {pairs} elapsed_ms={elapsed_ms}", file=sys.stderr)


def main(argv=None) -> int:
    """Run the CLI. A closed stdout or stderr, or one whose reader is gone, ends the
    run with exit 2, then both point at devnull so the flush at exit cannot fail."""
    if sys.stdout is None or sys.stderr is None:  # its descriptor was closed at start-up
        return 2
    try:
        try:
            return _run(argv)
        finally:
            sys.stdout.flush()
    except OSError:
        with open(os.devnull, "wb") as devnull:
            for stream in (sys.stdout, sys.stderr):
                with contextlib.suppress(OSError, ValueError):  # no file descriptor
                    os.dup2(devnull.fileno(), stream.fileno())
        return 2


def _run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.verify == "equivalence" and args.algorithm != "both":
        parser.error("--verify equivalence requires --algorithm both")

    try:
        problem = parse(_read_input(args.file))
    except (OSError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    started = time.monotonic()
    deadline = None if args.timeout_ms is None else started + args.timeout_ms / 1000.0
    budget = Budget(deadline, args.max_branches, args.max_clauses, args.max_cdags, args.max_cubes)

    tab = cond = None
    try:
        pre = flatten(problem, budget)
        if args.algorithm in ("tableaux", "both"):
            tab = compute_tableaux_ui(pre, strategy=args.strategy, budget=budget, prune=args.prune)
        if args.algorithm in ("conditional", "both"):
            cond = compute_conditional_ui(pre, budget=budget)

        if args.verify == "residue":
            inp = mk_and(problem.body)
            for result in (tab, cond):
                if result is None:
                    continue
                ok, cube = euf_valid(inp, result.formula(), budget)
                if not ok:
                    print("verification-failed residue "
                          + format_formula(mk_and(cube)))
                    return 1
        elif args.verify == "equivalence":
            ok, witness = euf_equiv(tab.formula(), cond.formula(), budget)
            if not ok:
                direction, cube = witness
                print(f"verification-failed {direction} " + format_formula(mk_and(cube)))
                return 1
        # Sizing and printing build formulas too: a run past its deadline stops
        # here, or while the output is formatted, before any of it is printed.
        stats = {k: v for r in (tab, cond) if r is not None for k, v in r.stats.items()}
        budget.check_time(stats)
        check = None if deadline is None else functools.partial(budget.check_time, stats)
        if args.algorithm == "both":
            text = (f"tableaux: {print_ui(tab, args.unravel, check)}\n"
                    f"conditional: {print_ui(cond, args.unravel, check)}")
        else:
            text = print_ui(tab if args.algorithm == "tableaux" else cond, args.unravel, check)
    except ResourceLimitError as exc:
        counters = f" {json.dumps(exc.stats, sort_keys=True)}" if exc.stats else ""
        print(f"resource limit: {exc}{counters}", file=sys.stderr)
        return 3

    print(text)
    if args.verify == "equivalence":
        print("equivalent")

    elapsed_ms = int((time.monotonic() - started) * 1000)
    _emit_stats(args, _collect_stats(args, stats, cond if cond is not None else tab), elapsed_ms)
    return 0


if __name__ == "__main__":
    sys.exit(main())
