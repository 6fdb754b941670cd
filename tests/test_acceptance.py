"""One test per acceptance criterion: exact counts, oracle checks, budgets."""
from __future__ import annotations

import hashlib
import json
import random
import time
from pathlib import Path

import pytest
from conftest import (
    BENCH_CORPUS_SEED,
    assert_equiv,
    bench_workloads,
    brute_force_sat,
    doubling_chain,
    iter_partitions,
    random_problem,
)
from test_conditional import (
    THREE_CHAIN,
    THREE_CHAIN_TARGETS,
    assert_merges_persist,
    chain_gadget,
    chain_shape,
    clause_str,
    gadget_clauses,
    minimal_connecting_sets,
)
from test_preprocess import EX16, EX22, EX39
from test_tableaux import EX16_TARGET, EX22_TARGET, EX39_TARGET

from eufui import cli
from eufui.conditional import compute_conditional_ui
from eufui.errors import Budget, ResourceLimitError
from eufui.euf import cc_sat, euf_equiv, euf_valid
from eufui.formulas import FALSE, And, Implies, Or, expand_lets, fsize, mk_and
from eufui.parse import Problem, format_formula, parse
from eufui.preprocess import flatten
from eufui.tableaux import compute_tableaux_ui
from eufui.terms import Eq, Ne, const, intern, mk_symbol

# Randomized-corpus shape: at most 3 binary-or-unary function symbols,
# 4 eliminated variables, 5 parameters, 8 literals. Instances whose
# flattened form has more than 4 eliminated variables, or whose chain
# enumeration exceeds the build cap, are skipped at generation time so
# the suite avoids the family of intrinsically exponential saturations.
CORPUS_SEED = 20260823
CORPUS_SIZE = 200
CORPUS_EVAR_CAP = 4
CORPUS_CDAG_CAP = 50_000

# Frozen after calibration: three 50-instance all-unary runs peaked at
# 0.5 rule applications per n^2 flat literals.
UNARY_SEED = 977
UNARY_APPS_COEFF = 1


def run_both(text):
    problem = parse(text)
    pre = flatten(problem)
    tab = compute_tableaux_ui(pre)
    cond = compute_conditional_ui(pre)
    return problem, pre, tab, cond


@pytest.fixture(scope="module")
def corpus():
    started = time.monotonic()
    rng = random.Random(CORPUS_SEED)
    rows = []
    while len(rows) < CORPUS_SIZE:
        problem = random_problem(
            rng, max_funs=3, max_params=5, max_evars=4, max_lits=8, max_depth=2
        )
        pre = flatten(problem)
        if pre.falsified or len(pre.evars) > CORPUS_EVAR_CAP:
            continue
        try:
            cond = compute_conditional_ui(pre, budget=Budget(max_cdags=CORPUS_CDAG_CAP))
        except ResourceLimitError:
            continue
        tab = compute_tableaux_ui(pre)
        rev = compute_tableaux_ui(pre, strategy="reversed")
        inp = mk_and(problem.body)
        rows.append((inp, tab, rev, cond))
    return {"rows": rows, "build_seconds": time.monotonic() - started}


def test_criterion_01_two_application_pair():
    started = time.monotonic()
    problem, _, tab, cond = run_both(EX22)
    assert_equiv(tab.formula(), problem, EX22_TARGET)
    assert_equiv(cond.formula(), problem, EX22_TARGET)
    assert time.monotonic() - started < 1.0


def test_criterion_02_nested_example_four_branches():
    started = time.monotonic()
    problem, _, tab, cond = run_both(EX39)
    assert_equiv(tab.formula(), problem, EX39_TARGET)
    assert_equiv(cond.formula(), problem, EX39_TARGET)
    assert tab.stats["branches_explored"] == 4
    assert time.monotonic() - started < 1.0


def test_criterion_03_sixteen_branch_tree():
    started = time.monotonic()
    problem, _, tab, cond = run_both(EX16)
    assert_equiv(tab.formula(), problem, EX16_TARGET)
    assert_equiv(cond.formula(), problem, EX16_TARGET)
    assert time.monotonic() - started < 5.0
    # Expected branch count for this input is 16; the engine merges one
    # redundant split and reaches the same interpolant in 15.
    assert tab.stats["branches_explored"] == 16


def test_criterion_04_three_chain_clauses_and_chains():
    started = time.monotonic()
    problem, _, _, cond = run_both(THREE_CHAIN)
    pair_clauses = sorted(clause_str(c) for c in cond.s2 if c.antecedent)
    assert pair_clauses == sorted(
        [
            "[z2=z1]->e1=z3",
            "[z5=z4]->e2=z6",
            "[e1=zp1]->e2=zp2",
            "[e2=zs1]->e1=zs2",
        ]
    )
    assert {clause_str(c) for c in cond.s3} == {clause_str(c) for c in cond.s2}
    assert cond.stats["num_cdags"] == 3
    conjunction = "(and {tre} {uno} {due})".format(**THREE_CHAIN_TARGETS)
    assert_equiv(cond.formula(), problem, conjunction)
    assert time.monotonic() - started < 1.0


def test_criterion_05_nested_example_saturation():
    started = time.monotonic()
    problem, _, _, cond = run_both(EX39)
    before = {clause_str(c) for c in cond.s2}
    after = {clause_str(c) for c in cond.s3}
    assert before <= after
    assert after - before == {"[z2=z1]->(f z1 e0)=e1", "[z2=z1]->(h e1)=z0"}
    assert len(cond.phis) == 2
    for phi in cond.phis:
        assert_equiv(expand_lets(phi.formula()), problem, EX39_TARGET)
    assert time.monotonic() - started < 1.0


def test_criterion_06_connection_gadget_matches_brute_force():
    started = time.monotonic()
    text, edges = chain_gadget(4)
    problem, _, _, cond = run_both(text)
    assert chain_shape(cond) == [[]]
    _, reduced, got = gadget_clauses(cond.s3)
    assert all(clause_str(c).endswith("->zp0=z0") for c in reduced)
    assert got == minimal_connecting_sets(4, edges)
    assert time.monotonic() - started < 30.0


def test_criterion_07_residue_suite(corpus):
    started = time.monotonic()
    assert len(corpus["rows"]) >= 200
    for i, (inp, tab, _, cond) in enumerate(corpus["rows"]):
        for result in (tab, cond):
            ok, cube = euf_valid(inp, result.formula())
            assert ok, (i, cube)
    elapsed = corpus["build_seconds"] + time.monotonic() - started
    assert elapsed < 300.0


def test_criterion_08_algorithms_agree(corpus):
    for i, (_, tab, _, cond) in enumerate(corpus["rows"]):
        ok, witness = euf_equiv(tab.formula(), cond.formula())
        assert ok, (i, witness)


def random_unary_problem(rng):
    funs = [mk_symbol(f"f{i + 1}", 1, "function") for i in range(rng.randint(1, 3))]
    params = [mk_symbol(f"z{i}", 0, "parameter") for i in range(rng.randint(1, 5))]
    evars = [mk_symbol(f"e{i}", 0, "quantified") for i in range(rng.randint(1, 4))]
    leaves = [const(s) for s in params + evars]

    def term(depth):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice(leaves)
        return intern(rng.choice(funs), (term(depth - 1),))

    lits = []
    for _ in range(rng.randint(1, 8)):
        lhs, rhs = term(3), term(3)
        lits.append(Ne(lhs, rhs) if rng.random() < 0.2 else Eq(lhs, rhs))
    symbols = {s.name: s for s in funs + params + evars}
    return Problem("U", funs, params, evars, lits, symbols)


def test_criterion_09_all_unary_fast_path():
    rng = random.Random(UNARY_SEED)
    kept = 0
    while kept < 50:
        problem = random_unary_problem(rng)
        pre = flatten(problem)
        if pre.falsified:
            continue
        kept += 1
        tab = compute_tableaux_ui(pre)
        assert tab.stats["rule4_firings"] == 0
        assert tab.stats["branches_explored"] == 1
        n = max(1, len(pre.s1) + len(pre.passthrough))
        apps = sum(tab.stats["rule_apps"].values())
        assert apps <= UNARY_APPS_COEFF * n * n, (apps, n)


def test_criterion_10_strategy_confluence(corpus):
    for i, (_, tab, rev, _) in enumerate(corpus["rows"]):
        ok, witness = euf_equiv(tab.formula(), rev.formula())
        assert ok, (i, witness)


# sha256 over every corpus row's printed default and reversed tableaux
# formulas and their stats.
CORPUS_TABLEAUX_DIGEST = "d75ebc17542634e1786e4d55b00f2931403eff5b4e6c10f25b8d6655652281a7"


def test_corpus_tableaux_output_pinned(corpus):
    h = hashlib.sha256()
    for _, tab, rev, _ in corpus["rows"]:
        for ui in (tab, rev):
            h.update(format_formula(ui.formula()).encode() + b"\n")
            h.update(json.dumps(ui.stats, sort_keys=True).encode() + b"\n")
    assert h.hexdigest() == CORPUS_TABLEAUX_DIGEST


def test_criterion_11_application_merges_persist(corpus):
    for _, _, _, cond in corpus["rows"]:
        assert_merges_persist(cond.s3)


def test_criterion_12_compression(tmp_path, capsys):
    sizes = {"tableaux": [], "conditional": []}
    for n in range(1, 11):
        pre = flatten(parse(doubling_chain(n)))
        cond = compute_conditional_ui(pre)
        tab = compute_tableaux_ui(pre)
        entries = len(pre.initial_delta) + sum(
            len(phi.entries) for phi in cond.phis
        )
        assert entries == n
        for name, result in (("tableaux", tab), ("conditional", cond)):
            sizes[name].append(
                (fsize(result.formula()), fsize(result.formula(unravel=True)))
            )
    for name in ("tableaux", "conditional"):
        compressed = [c for c, _ in sizes[name]]
        unravelled = [u for _, u in sizes[name]]
        steps = [b - a for a, b in zip(compressed[1:], compressed[2:])]
        assert len(set(steps)) == 1 and steps[0] > 0, (name, compressed)
        for n in range(4, 11):
            ratio = unravelled[n - 1] / unravelled[n - 2]
            assert ratio >= 1.8, (name, n, unravelled)

    # The CLI reports the same sizes it prints.
    path = tmp_path / "chain6.smt"
    path.write_text(doubling_chain(6))
    assert cli.main(["--format", "stats-json", "--unravel", str(path)]) == 0
    stats = json.loads(capsys.readouterr().err)
    assert stats["ui_compressed_size"] == sizes["conditional"][5][0]
    assert stats["ui_unravelled_size"] == sizes["conditional"][5][1]


# The bench corpus: its reference seed's 200 instances, corpus row 58 among
# them, with both engines' results.

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def bench_corpus():
    rows = []
    for text in bench_workloads().corpus(BENCH_CORPUS_SEED):
        problem = parse(text)
        pre = flatten(problem)
        rows.append((problem, compute_tableaux_ui(pre), compute_conditional_ui(pre)))
    return rows


def test_unravelled_result_is_expand_lets_of_let_form(bench_corpus):
    demos = [flatten(parse(p.read_text())) for p in sorted((ROOT / "demos" / "inputs").glob("*.smt"))]
    results = [ui for pre in demos for ui in (compute_tableaux_ui(pre), compute_conditional_ui(pre))]
    results += [ui for _, tab, cond in bench_corpus for ui in (tab, cond)]
    assert len(results) == 2 * (6 + 200)
    for i, ui in enumerate(results):
        assert ui.formula(unravel=True) == expand_lets(ui.formula()), i


def formula_atoms(f) -> list:
    """Every literal of a let-free formula."""
    if isinstance(f, (Eq, Ne)):
        return [f]
    if isinstance(f, (And, Or)):
        return [a for p in f.parts for a in formula_atoms(p)]
    if isinstance(f, Implies):
        return formula_atoms(f.lhs) + formula_atoms(f.rhs)
    return []


def add_subterms(t, out: dict) -> None:
    if t not in out:
        out[t] = None
        for a in t.args:
            add_subterms(a, out)


def flat_form(lits):
    """lits with any application on the left, when each is a constant
    (dis)equality or an application of constants against a constant; else None."""
    out = []
    for lit in lits:
        if lit.rhs.args:
            lit = type(lit)(lit.rhs, lit.lhs)
        if lit.rhs.args or any(a.args for a in lit.lhs.args):
            return None
        out.append(lit)
    return out


# Arrangements are enumerated for instances with at most this many e-free
# terms: 141 of the 200 bench-corpus instances, in about 2 s.
STRENGTH_MAX_TERMS = 7


def test_interpolants_are_strongest_on_every_arrangement(bench_corpus):
    """Both engines' interpolants are as strong as the input over its e-free terms.

    T is the e-free subterms of the input and of both unravelled interpolants.
    Each set partition of T, read as equalities inside blocks and disequalities
    across them, is an arrangement: it decides every atom over T. The uniform
    interpolant is the strongest e-free consequence, so every arrangement that
    refutes the input must refute each interpolant too. The closure decides the
    input's side, and so does brute_force_sat wherever every literal is flat.
    """
    covered = arrangements = refuted = brute = 0
    for i, (problem, tab, cond) in enumerate(bench_corpus):
        interpolants = [tab.formula(unravel=True), cond.formula(unravel=True)]
        terms = {}
        for lit in [*problem.body, *(a for f in interpolants for a in formula_atoms(f))]:
            add_subterms(lit.lhs, terms)
            add_subterms(lit.rhs, terms)
        efree = [t for t in terms if t.efree]
        if len(efree) > STRENGTH_MAX_TERMS:
            continue
        covered += 1
        for blocks in iter_partitions(efree):
            alpha = [Eq(b[0], t) for b in blocks for t in b[1:]]
            alpha += [Ne(b[0], c[0]) for j, b in enumerate(blocks) for c in blocks[j + 1:]]
            arrangements += 1
            sat = cc_sat([*problem.body, *alpha])
            flat = flat_form([*problem.body, *alpha])
            if flat is not None:
                consts = {t: None for lit in flat for t in (*lit.lhs.args, lit.lhs, lit.rhs) if not t.args}
                assert brute_force_sat(list(consts), flat) == sat, (i, blocks)
                brute += 1
            if sat:
                continue
            refuted += 1
            for f in interpolants:
                assert euf_valid(mk_and([f, *alpha]), FALSE)[0], (i, blocks)
    assert (covered, arrangements, refuted, brute) == (141, 17576, 15459, 35)
