"""Exit codes, output shape, and stats emission of the command-line driver."""
from __future__ import annotations

import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest
from conftest import BENCH_CORPUS_SEED, assert_equiv, bench_workloads, doubling_chain, linear_chain, shared_evar_text
from test_conditional import THREE_CHAIN, chain_gadget
from test_preprocess import EX16, EX22, EX39
from test_tableaux import EX22_CLOSED, EX22_CLOSED_TARGET, EX22_TARGET, EX39_TARGET

from eufui import cli, errors, euf
from eufui.conditional import compute_conditional_ui
from eufui.euf import cc_sat, euf_equiv
from eufui.formulas import And, mk_and
from eufui.parse import parse, parse_formula
from eufui.terms import Eq, const

DEMO_INPUTS = sorted((Path(__file__).resolve().parent.parent / "demos" / "inputs").glob("*.smt"))
CONDITIONAL_STATS = {"cdags_visited", "clauses_created", "num_cdags", "s2_size", "s3_size"}


def write(tmp_path, text, name="in.smt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def demo(name):
    return str(next(p for p in DEMO_INPUTS if p.name == name))


def run_cli(capsys, argv):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


# Exit 0: plain runs and verification successes.

def test_default_run_prints_single_formula(tmp_path, capsys):
    code, out, err = run_cli(capsys, [write(tmp_path, EX22)])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1
    assert_equiv(lines[0], EX22, EX22_TARGET)
    assert err.startswith("stats: ")
    assert "elapsed_ms=" in err


def test_algorithm_selection(tmp_path, capsys):
    path = write(tmp_path, EX22)
    for algo in ("tableaux", "conditional"):
        code, out, _ = run_cli(capsys, ["--algorithm", algo, path])
        assert code == 0
        assert_equiv(out.strip(), EX22, EX22_TARGET)


def test_both_prints_labeled_lines_and_equivalence(tmp_path, capsys):
    for text, target in ((EX22, EX22_TARGET), (EX22_CLOSED, EX22_CLOSED_TARGET)):
        code, out, _ = run_cli(
            capsys,
            ["--algorithm", "both", "--verify", "equivalence", write(tmp_path, text)],
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("tableaux: ")
        assert lines[1].startswith("conditional: ")
        assert lines[2] == "equivalent"
        for line in lines[:2]:
            assert_equiv(line.split(": ", 1)[1], text, target)


def test_residue_verification_passes(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        ["--algorithm", "both", "--verify", "residue", write(tmp_path, EX39)],
    )
    assert code == 0
    assert "verification-failed" not in out


def test_stdin_is_the_default_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(EX22.encode())))
    code, out, _ = run_cli(capsys, [])
    assert code == 0
    assert_equiv(out.strip(), EX22, EX22_TARGET)


def test_unravel_expands_lets(tmp_path, capsys):
    path = write(tmp_path, EX39)
    _, compressed, _ = run_cli(capsys, [path])
    _, unravelled, _ = run_cli(capsys, ["--unravel", path])
    assert "(let ((w1 " in compressed
    assert "(let" not in unravelled
    assert_equiv(unravelled.strip(), EX39, EX39_TARGET)


# Exit 1: oracle rejections surface a witness and fail the run.

def test_residue_failure_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "euf_valid", lambda *a, **k: (False, []))
    code, out, _ = run_cli(capsys, ["--verify", "residue", write(tmp_path, EX22)])
    assert code == 1
    assert out.startswith("verification-failed residue ")


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_equivalence_failure_exits_1(tmp_path, capsys, monkeypatch, direction):
    monkeypatch.setattr(cli, "euf_equiv", lambda *a, **k: (False, (direction, [])))
    code, out, _ = run_cli(
        capsys,
        ["--algorithm", "both", "--verify", "equivalence", write(tmp_path, EX22)],
    )
    assert code == 1
    assert out.startswith(f"verification-failed {direction} ")


@pytest.mark.parametrize("verify", ["residue", "equivalence"])
def test_strengthened_result_fails_verification(verify, capsys, monkeypatch):
    # The conditional result, strengthened by z1 = z2, which the input does
    # not entail: the residue check, or tab => cond, must fail with a
    # witness that is cc-satisfiable and contradicts z1 = z2.
    seen = {}

    def parse_and_keep(data):
        seen["problem"] = parse(data)
        return seen["problem"]

    def strengthened(pre, budget):
        ui = compute_conditional_ui(pre, budget=budget)
        symbols = seen["problem"].symbols
        seen["goal"] = Eq(const(symbols["z1"]), const(symbols["z2"]))
        formula = mk_and([ui.formula(), seen["goal"]])
        return SimpleNamespace(formula=lambda unravel=False: formula, stats=ui.stats)

    monkeypatch.setattr(cli, "parse", parse_and_keep)
    monkeypatch.setattr(cli, "compute_conditional_ui", strengthened)
    code, out, _ = run_cli(capsys, ["--algorithm", "both", "--verify", verify, demo("nested_shared.smt")])
    assert code == 1
    head, direction, text = out.split(" ", 2)
    assert (head, direction) == ("verification-failed", "residue" if verify == "residue" else "forward")
    cube = parse_formula(text, seen["problem"].symbols)
    lits = list(cube.parts) if isinstance(cube, And) else [cube]
    assert cc_sat(lits) and not cc_sat([*lits, seen["goal"]])


# Exit 2: unreadable, unparseable, or inconsistent invocations.

def test_missing_file_exits_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, [str(tmp_path / "absent.smt")])
    assert code == 2
    assert err.startswith("error: ")


def test_invalid_utf8_on_stdin_exits_2(capsys, monkeypatch):
    data = b"(declare-sort U 0)\xff"
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
    code, out, err = run_cli(capsys, [])
    assert code == 2
    assert out == ""
    assert err.startswith("error: not valid UTF-8")
    assert "Traceback" not in err


HEADER = "(declare-sort U 0)(declare-fun f (U) U)(declare-const a U)(declare-const e U)"


@pytest.mark.parametrize("text, message", [
    ("(declare-sort U 0)(declare-sort V 0)", "1:19: duplicate declaration of sort V"),
    (HEADER + "(eliminate x)", "1:89: undeclared symbol x"),
    (HEADER + "(eliminate f)", "1:89: f cannot be eliminated"),
    ("(declare-sort U 0)(declare-const e U)(eliminate e e)", "1:51: duplicate eliminate entry e"),
    ("(declare-sort U 0)(declare-const e U)(eliminate e)\n  (eliminate e)\n", "2:3: duplicate eliminate clause"),
    (HEADER + "(eliminate e)(assert a)", "1:99: non-literal assertion"),
    (HEADER + "(eliminate e)(assert (not a))", "1:99: non-literal assertion"),
    (HEADER + "(eliminate e)(assert (not (f a)))", "1:99: non-literal assertion"),
])
def test_problem_reader_errors_exit_2(tmp_path, capsys, text, message):
    code, out, err = run_cli(capsys, [write(tmp_path, text)])
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("stream", ["stdout", "stderr"])
def test_closed_output_stream_exits_2(stream):
    """A stream whose reader is gone before the run starts: exit 2, no
    traceback, and no second error when the interpreter flushes at exit."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    other = "stderr" if stream == "stdout" else "stdout"
    argv = ["--algorithm", "both", "--verify", "equivalence", demo("sixteen_branches.smt")]
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "eufui.cli", *argv], timeout=120,
            env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parent.parent)),
            **{stream: write_end, other: subprocess.PIPE},
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert b"Traceback" not in getattr(proc, other)
    assert b"Exception ignored" not in getattr(proc, other)


def test_stream_closed_at_start_up_exits_2(monkeypatch):
    # Python sets sys.stdout to None when descriptor 1 is closed at start-up.
    monkeypatch.setattr(sys, "stdout", None)
    assert cli.main([demo("two_applications.smt")]) == 2


def test_malformed_input_reports_position(tmp_path, capsys):
    code, _, err = run_cli(capsys, [write(tmp_path, "(assert (= a b)")])
    assert code == 2
    assert re.match(r"error: \d+:\d+: ", err)


def deep_term_input(depth):
    t = "z"
    for _ in range(depth):
        t = f"(f {t})"
    return (
        "(declare-sort U 0)(declare-fun f (U) U)(declare-fun g (U) U)"
        "(declare-const e U)(declare-const z U)(declare-const w U)(eliminate e)"
        f"(assert (= e {t}))(assert (= (g e) w))"
    )


def test_deep_term_exits_2(tmp_path, capsys):
    code, out, err = run_cli(capsys, [write(tmp_path, deep_term_input(3000))])
    assert code == 2
    assert out == ""
    assert re.match(r"error: \d+:\d+: term nested deeper than 256", err)
    assert "Traceback" not in err


def test_term_at_depth_limit_is_accepted(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        ["--algorithm", "both", "--verify", "equivalence",
         write(tmp_path, deep_term_input(256))],
    )
    assert code == 0
    assert out.splitlines()[2] == "equivalent"


def test_equivalence_check_requires_both_algorithms(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--verify", "equivalence", write(tmp_path, EX22)])
    assert exc.value.code == 2


@pytest.mark.parametrize("flag", ["--max-branches", "--max-clauses", "--max-cdags", "--max-cubes", "--timeout-ms"])
def test_negative_numeric_flag_is_a_usage_error(tmp_path, capsys, flag):
    with pytest.raises(SystemExit) as exc:
        cli.main([flag, "-1", write(tmp_path, EX22)])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"argument {flag}: invalid count value: '-1'" in err
    assert "Traceback" not in err


def test_parser_is_built_once_and_survives_a_usage_error(tmp_path, capsys):
    path = write(tmp_path, EX22)
    assert cli.build_parser() is cli.build_parser()
    code, out, _ = run_cli(capsys, ["--algorithm", "both", "--verify", "equivalence", path])
    assert code == 0 and out.splitlines()[-1] == "equivalent"
    with pytest.raises(SystemExit) as exc:
        cli.main(["--algorithm", "both", "--max-cubes", "many", path])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, _ = run_cli(capsys, [path])
    assert code == 0 and len(out.splitlines()) == 1
    args = cli.build_parser().parse_args([path])
    assert (args.algorithm, args.verify, args.max_cubes) == ("conditional", "off", errors.Budget.max_cubes)


# Exit 3: every resource cap maps to the same exit code.

def test_branch_cap_exits_3(tmp_path, capsys):
    code, out, err = run_cli(
        capsys,
        ["--algorithm", "tableaux", "--max-branches", "4", write(tmp_path, EX16)],
    )
    assert code == 3
    assert out == ""
    assert "branch limit exceeded" in err
    counters = json.loads(err.split("branch limit exceeded ", 1)[1])
    assert counters["branches_explored"] > 4


def test_clause_cap_exits_3(tmp_path, capsys):
    code, _, err = run_cli(capsys, ["--max-clauses", "1", write(tmp_path, EX16)])
    assert code == 3
    assert "clause limit exceeded" in err
    counters = json.loads(err.split("clause limit exceeded ", 1)[1])
    assert set(counters) == CONDITIONAL_STATS
    assert counters["s2_size"] > 0 and counters["clauses_created"] > 1
    assert counters["s3_size"] == counters["cdags_visited"] == 0


def test_clause_cap_counts_step1_clauses(capsys):
    code, out, err = run_cli(capsys, ["--max-clauses", "1", demo("two_applications.smt")])
    assert code == 3
    assert out == ""
    assert "clause limit exceeded" in err


def test_clause_cap_trips_before_saturation(capsys):
    code, _, err = run_cli(capsys, ["--max-clauses", "10", demo("connection_gadget.smt")])
    assert code == 3
    counters = json.loads(err.split("clause limit exceeded ", 1)[1])
    assert counters["clauses_created"] == counters["s2_size"] == 11
    assert counters["s3_size"] == 0


def test_cdag_cap_exits_3(tmp_path, capsys):
    code, _, err = run_cli(capsys, ["--max-cdags", "3", write(tmp_path, THREE_CHAIN)])
    assert code == 3
    assert "conditional DAG limit exceeded" in err
    counters = json.loads(err.split("conditional DAG limit exceeded ", 1)[1])
    assert set(counters) == CONDITIONAL_STATS
    assert counters["cdags_visited"] == 4
    assert counters["s2_size"] > 0 and counters["s3_size"] > 0


def test_cube_cap_exits_3(capsys):
    path = str(next(p for p in DEMO_INPUTS if p.name == "nested_shared.smt"))
    code, out, err = run_cli(
        capsys,
        ["--max-cubes", "2", "--algorithm", "both", "--verify", "equivalence", path],
    )
    assert code == 3
    assert out == ""
    counters = json.loads(err.split("cube budget exceeded in EUF validity check ", 1)[1])
    assert counters == {"cubes_spent": 3}


def test_cube_cap_trips_inside_horn_propagation(tmp_path, capsys, monkeypatch):
    # With the equivalence check run backward first, cond => tab for
    # shared-evar k = 4 decides a literal, fires a clause, and so on: its
    # 10th assume fires a clause, so a cap of 9 trips inside propagation.
    callers = []
    count = errors.Budget.count

    def recording(self, stats, key):
        callers.append(sys._getframe(2).f_code.co_name)
        count(self, stats, key)

    monkeypatch.setattr(errors.Budget, "count", recording)
    monkeypatch.setattr(cli, "euf_equiv", lambda a, b, budget: euf_equiv(b, a, budget))
    path = write(tmp_path, shared_evar_text(4))
    code, out, err = run_cli(capsys, ["--max-cubes", "9", "--algorithm", "both", "--verify", "equivalence", path])
    assert code == 3 and out == ""
    assert err == 'resource limit: cube budget exceeded in EUF validity check {"cubes_spent": 10}\n'
    assert callers[-1] == "propagate"


def test_timeout_exits_3(tmp_path, capsys):
    path = write(tmp_path, EX16)
    for algo in ("tableaux", "conditional"):
        code, _, err = run_cli(capsys, ["--algorithm", algo, "--timeout-ms", "0", path])
        assert code == 3
        assert "timeout exceeded" in err


def test_timeout_bounds_flatten(tmp_path, capsys):
    # Flattening the chain alone takes seconds; no engine ever starts.
    code, out, err = run_cli(
        capsys,
        ["--algorithm", "tableaux", "--timeout-ms", "200", write(tmp_path, linear_chain(1000))],
    )
    assert code == 3
    assert out == ""
    assert err == "resource limit: timeout exceeded\n"


def nested_pairs_input(k, depth=250):
    """g(t_j) = z_j for j < k, t_j = f(..f(e, z_j).., z_j) nested depth deep,
    and g(e) != z0: step 1 pairs every two f applications."""
    decls = "".join(f"(declare-const z{j} U)" for j in range(k))
    lits = []
    for j in range(k):
        t = "e"
        for _ in range(depth):
            t = f"(f {t} z{j})"
        lits.append(f"(assert (= (g {t}) z{j}))")
    return (
        "(declare-sort U 0)(declare-fun f (U U) U)(declare-fun g (U) U)(declare-const e U)"
        f"{decls}(eliminate e){''.join(lits)}(assert (not (= (g e) z0)))"
    )


def test_timeout_bounds_step1(tmp_path, capsys):
    # Flattening takes tens of milliseconds; step 1 alone would build
    # 125,257 clauses over seconds. The counters say how far it got.
    path = write(tmp_path, nested_pairs_input(2))
    started = time.monotonic()
    code, out, err = run_cli(capsys, ["--timeout-ms", "200", path])
    assert code == 3
    assert out == ""
    assert err.startswith("resource limit: timeout exceeded ")
    counters = json.loads(err.split("timeout exceeded ", 1)[1])
    assert set(counters) == CONDITIONAL_STATS
    assert counters["clauses_created"] == counters["s2_size"] > 0
    assert counters["s3_size"] == 0
    assert time.monotonic() - started < 1.0


def test_clause_cap_bounds_step1(tmp_path, capsys):
    # Step 1 counts each clause as it builds it, so the cap trips at clause
    # 1,001 of the 500,516 it would build.
    path = write(tmp_path, nested_pairs_input(4))
    started = time.monotonic()
    code, out, err = run_cli(capsys, ["--max-clauses", "1000", path])
    assert code == 3
    assert out == ""
    counters = json.loads(err.split("clause limit exceeded ", 1)[1])
    assert counters["clauses_created"] == counters["s2_size"] == 1001
    assert counters["s3_size"] == 0
    assert time.monotonic() - started < 1.0


def test_timeout_checked_before_printing(tmp_path, capsys, monkeypatch):
    class Clock:
        now = 0.0

        @classmethod
        def monotonic(cls):
            return cls.now

    real = cli.compute_conditional_ui

    def engine_then_deadline_passes(*args, **kwargs):
        result = real(*args, **kwargs)
        Clock.now = 10.0
        return result

    monkeypatch.setattr(errors, "time", Clock)
    monkeypatch.setattr(cli, "time", Clock)
    monkeypatch.setattr(cli, "compute_conditional_ui", engine_then_deadline_passes)
    code, out, err = run_cli(capsys, ["--timeout-ms", "1000", write(tmp_path, EX22)])
    assert code == 3
    assert out == ""
    counters = json.loads(err.split("timeout exceeded ", 1)[1])
    assert set(counters) == CONDITIONAL_STATS


def test_timeout_bounds_printing(tmp_path, capsys):
    # Unravelled, the chain is a term of 2^20 applications: about 7 MB of
    # text and a second or more to format. The deadline passes while it is
    # formatted, and nothing reaches stdout.
    path = write(tmp_path, doubling_chain(20))
    for algo in ("conditional", "both"):
        started = time.monotonic()
        code, out, err = run_cli(capsys, ["--algorithm", algo, "--unravel", "--timeout-ms", "50", path])
        assert code == 3
        assert out == ""
        counters = json.loads(err.split("timeout exceeded ", 1)[1])
        assert CONDITIONAL_STATS <= set(counters)
        assert time.monotonic() - started < 0.5


WALL_CLOCK_CASES = {
    # Uncapped, each run takes 0.6-5.5 s on a 2-core x86-64 host; the counters show the phase
    # the deadline stopped: the tableaux, step 2 (s3 not yet set) and the oracle. The oracle
    # decides k = 7 in about 0.1 s, so its case is k = 8, whose engines take 0.08-0.15 s, and
    # its deadline falls after them.
    "tableaux": (shared_evar_text(9), ["--algorithm", "tableaux"], 100),
    "step2": (chain_gadget(6)[0], ["--algorithm", "conditional"], 100),
    "oracle": (shared_evar_text(8), ["--algorithm", "both", "--verify", "equivalence"], 250),
}


@pytest.mark.parametrize("phase", sorted(WALL_CLOCK_CASES))
def test_timeout_bounds_each_engine_phase(phase, tmp_path, capsys):
    text, flags, timeout_ms = WALL_CLOCK_CASES[phase]
    path = write(tmp_path, text)
    started = time.monotonic()
    code, out, err = run_cli(capsys, [*flags, "--timeout-ms", str(timeout_ms), path])
    assert time.monotonic() - started < 0.4
    assert code == 3
    assert out == ""
    assert err.startswith("resource limit: timeout exceeded ")
    counters = json.loads(err.split("timeout exceeded ", 1)[1])
    if phase == "tableaux":
        assert "branches_explored" in counters
    elif phase == "step2":
        assert (counters["s2_size"], counters["s3_size"]) == (48, 0)
    else:  # the oracle may stop while it reads the query, before its first cube
        assert set(counters) == {"cubes_spent"}


# Rule 2 in flattening: a chain of e-free definitions never reaches saturation.

def test_linear_definition_chain_needs_no_saturation(tmp_path, capsys):
    code, out, err = run_cli(
        capsys, ["--algorithm", "conditional", write(tmp_path, linear_chain(100))]
    )
    assert code == 0
    assert out.count("(let ((y") == 100
    assert " s3_size=0 " in err


@pytest.mark.parametrize(
    "flags",
    [
        ["--algorithm", "tableaux"],
        ["--algorithm", "tableaux", "--prune", "semantic"],
        ["--algorithm", "tableaux", "--unravel"],
        ["--algorithm", "conditional", "--unravel"],
    ],
    ids=["tableaux", "tableaux-prune-semantic", "tableaux-unravel", "conditional-unravel"],
)
def test_long_definition_chain_under_tableaux(tmp_path, capsys, flags):
    code, out, err = run_cli(capsys, flags + [write(tmp_path, linear_chain(500))])
    assert code == 0
    assert "Traceback" not in err
    if "--unravel" in flags:
        assert "(let" not in out
    else:
        assert out.count("(let ((y") == 500


def test_long_definition_chain_verifies(tmp_path, capsys):
    # The oracle adds f^500(z) to its closure without recursing.
    path = write(tmp_path, linear_chain(500))
    code, out, err = run_cli(capsys, ["--verify", "residue", path])
    assert code == 0
    assert "Traceback" not in err
    assert out.count("(let ((y") == 500
    code, out, err = run_cli(capsys, ["--algorithm", "both", "--verify", "equivalence", path])
    assert code == 0
    assert "Traceback" not in err
    assert out.count("(let ((y") == 1000
    assert out.splitlines()[-1] == "equivalent"


# Every demo input runs both engines to an oracle-checked agreement.

@pytest.mark.parametrize("path", DEMO_INPUTS, ids=lambda p: p.name)
def test_demo_input_engines_agree(path, capsys):
    code, out, _ = run_cli(capsys, ["--algorithm", "both", "--verify", "equivalence", str(path)])
    assert code == 0
    assert out.splitlines()[-1] == "equivalent"


@pytest.mark.parametrize(
    "name, calls",
    [("sixteen_branches.smt", 722), ("nested_shared.smt", 15), ("three_chains.smt", 68)],
)
def test_equivalence_check_cubes_spent(name, calls, capsys, assumed_cubes):
    code, _, _ = run_cli(capsys, ["--algorithm", "both", "--verify", "equivalence", demo(name)])
    assert code == 0
    assert len(assumed_cubes) == calls


def test_no_cli_query_reaches_the_reference_search(tmp_path, capsys, monkeypatch):
    # Every query the CLI asks has a shape the walk decides: the bench
    # corpus under its flags, and the demos and shared-evar k = 5..7 under
    # both checks. The exit codes and stdout of the 218 runs, in run order,
    # hash to a pinned digest; stderr is left out, as it carries elapsed_ms.
    # A change that means to alter the output re-pins the digest.
    def refuse(*_):
        raise AssertionError("the reference search ran")

    monkeypatch.setattr(euf, "_reference_search", refuse)
    workloads = bench_workloads()
    runs = [(text, workloads.CORPUS_ARGS) for text in workloads.corpus(BENCH_CORPUS_SEED)]
    for verify in ("residue", "equivalence"):
        flags = ["--algorithm", "both", "--verify", verify]
        runs += [(path.read_text(), flags) for path in DEMO_INPUTS]
        runs += [(shared_evar_text(k), flags) for k in (5, 6, 7)]
    digest = hashlib.sha256()
    for text, flags in runs:
        code, out, err = run_cli(capsys, [*flags, write(tmp_path, text)])
        assert code == 0, err
        digest.update(json.dumps([code, out]).encode())
    assert (len(runs), digest.hexdigest()) == (218, "94b1f62b3f510b24ed3c4aa37fc44beee8d1f21981eafa1e1b3e1f73845de8c8")


# Stats channel: fixed key set, sorted JSON, no timing in machine output.

def test_stats_json_key_set(tmp_path, capsys):
    path = write(tmp_path, EX22)
    _, _, err = run_cli(capsys, ["--algorithm", "both", "--format", "stats-json", path])
    stats = json.loads(err)
    assert sorted(stats) == sorted(k for k in cli.STATS_KEYS if k != "ui_unravelled_size")
    assert all(isinstance(v, int) for v in stats.values())
    _, _, err = run_cli(
        capsys, ["--algorithm", "both", "--format", "stats-json", "--unravel", path]
    )
    stats = json.loads(err)
    assert sorted(stats) == sorted(cli.STATS_KEYS)
    assert err.strip() == json.dumps(stats, sort_keys=True)


def test_stats_json_zero_for_unrun_algorithm(tmp_path, capsys):
    _, _, err = run_cli(capsys, ["--format", "stats-json", write(tmp_path, EX16)])
    stats = json.loads(err)
    assert stats["branches_explored"] == 0
    assert stats["rule4_firings"] == 0
    assert stats["s2_size"] > 0


def test_stats_json_runs_are_byte_identical(tmp_path, capsys):
    argv = ["--algorithm", "both", "--format", "stats-json", write(tmp_path, EX16)]
    first = run_cli(capsys, argv)
    second = run_cli(capsys, argv)
    assert first == second


# Golden output: exact stdout, stats-json line and exit code of every demo input.

GOLDEN_PATH = Path(__file__).resolve().parent / "golden_cli.json"
GOLDEN_FLAGS = {
    "both-equivalence": ["--algorithm", "both", "--verify", "equivalence"],
    "unravel-stats": ["--unravel", "--format", "stats-json"],
    "tableaux-stats": ["--algorithm", "tableaux", "--format", "stats-json"],
    "tableaux-reversed-stats": ["--algorithm", "tableaux", "--strategy", "reversed", "--format", "stats-json"],
}


def golden_run(capsys, path, flags):
    """One run's pinned bytes; the plain stats line carries timing, so it is left out."""
    code, out, err = run_cli(capsys, GOLDEN_FLAGS[flags] + [str(path)])
    return {"exit": code, "stdout": out, "stderr": err if "--format" in GOLDEN_FLAGS[flags] else None}


@pytest.mark.parametrize("flags", GOLDEN_FLAGS)
@pytest.mark.parametrize("path", DEMO_INPUTS, ids=lambda p: p.name)
def test_demo_output_is_golden(path, flags, capsys):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert golden_run(capsys, path, flags) == golden[f"{path.name} {flags}"]


# The README flag table documents every option of the parser.

def test_readme_flag_table_matches_parser():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    flag_cells = [line.split("|")[1] for line in readme.splitlines() if line.startswith("| `")]
    documented = {flag for cell in flag_cells for flag in re.findall(r"`(--?[a-z-]+|file)", cell)}
    options = set()
    for action in cli.build_parser()._actions:
        if "--help" in action.option_strings:
            continue
        names = action.option_strings or [action.dest]
        options.update(names)
        assert set(names) <= documented, names
        if action.choices:
            assert any(f"`{names[0]} {{{','.join(action.choices)}}}`" in cell for cell in flag_cells), names
    assert documented <= options


def readme_block(readme, heading, fence):
    """The first fenced block opening with `fence` under `## heading`."""
    section = readme.split(f"\n## {heading}\n", 1)[1]
    return section.split(f"{fence}\n", 1)[1].split("```", 1)[0]


def test_readme_examples_run(capsys, monkeypatch):
    root = Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text()
    monkeypatch.chdir(root)
    commands = readme_block(readme, "Command line", "```sh").splitlines()
    assert commands and all(line.startswith("euf-ui ") for line in commands)
    for line in commands:
        assert run_cli(capsys, line.split()[1:])[0] == 0, line
    exec(readme_block(readme, "Library", "```python"), {})
    capsys.readouterr()
    stated = re.search(r"For the file above the interpolant is `([^`]*)`", readme).group(1)
    example = readme_block(readme, "Input format", "```")
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(example.encode())))
    assert run_cli(capsys, [])[:2] == (0, stated + "\n")


# The documented exit contract on mutated inputs: codes 0-3 only, never an
# escaping exception, exit 1 only with verification-failed on stdout, and
# nothing on stdout with exits 2 and 3.

FUZZ_FLAG_SETS = [
    # the benchmark's corpus and shared-evar flag sets
    ["--algorithm", "both", "--verify", "equivalence", "--max-cdags", "2000", "--max-clauses", "1000"],
    ["--algorithm", "both", "--verify", "residue"],
    ["--max-cubes", "3"],
    ["--algorithm", "tableaux", "--max-branches", "2"],
    ["--timeout-ms", "5"],
    ["--strategy", "reversed", "--prune", "semantic"],
]
FUZZ_WORDS = ["not", "=", "distinct", "assert", "eliminate", "declare-const", "compute-ui", "U", "e", "0", ";"]


def mutate(rng, text, edits):
    """text after edits random token edits. Most replace a word by a word of
    the text or of FUZZ_WORDS, which keeps the parentheses balanced; the
    rest delete a token or insert a word or a parenthesis."""
    tokens = re.findall(r"[()]|[^\s()]+", text)
    words = [t for t in tokens if t not in ("(", ")")] + FUZZ_WORDS
    for _ in range(edits):
        i = rng.randrange(len(tokens))
        roll = rng.random()
        if roll < 0.6:
            if tokens[i] not in ("(", ")"):
                tokens[i] = rng.choice(words)
        elif roll < 0.8:
            del tokens[i]
        else:
            tokens.insert(i, rng.choice(words + ["(", ")"]))
    return "\n".join(tokens)


def test_exit_contract_holds_on_mutated_inputs(tmp_path, capsys):
    rng = random.Random(20261020)
    bases = [p.read_text() for p in DEMO_INPUTS]
    bases += [doubling_chain(3), shared_evar_text(3), linear_chain(4)]
    path = tmp_path / "mutant.smt"
    codes = Counter()
    for base in bases:
        for _ in range(7):
            lines = mutate(rng, base, rng.randint(1, 3)).split("\n")
            path.write_text("\n".join(lines))
            for flags in FUZZ_FLAG_SETS:
                code, out, err = run_cli(capsys, flags + [str(path)])
                assert code in (0, 1, 2, 3)
                assert code != 1 or out.startswith("verification-failed")
                assert code not in (2, 3) or out == ""
                codes[code] += 1
                # A position points into the mutant: at most one column past its line's end.
                if code == 2 and (at := re.match(r"error: (\d+):(\d+): ", err)):
                    line, col = int(at[1]), int(at[2])
                    assert line <= len(lines) and col <= len(lines[line - 1]) + 1, err
                    codes["positioned"] += 1
    # Both the accepted and the rejected side of the parser are reached, and positions checked.
    assert codes[0] and codes[2] and codes["positioned"], codes
