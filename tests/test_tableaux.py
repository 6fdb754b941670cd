"""Branching elimination: worked inputs, counts, invariants, strategies."""
from __future__ import annotations

import hashlib
import random
from pathlib import Path

import pytest
from conftest import assert_equiv, random_problem, shared_evar_text
from test_preprocess import EX16, EX22, EX39

from eufui import tableaux
from eufui.errors import Budget, ResourceLimitError
from eufui.euf import euf_equiv, euf_valid
from eufui.formulas import FALSE, expand_lets, mk_and, wrap_definitions
from eufui.parse import format_formula, parse
from eufui.preprocess import PreprocessedInput, flatten
from eufui.tableaux import compute_tableaux_ui
from eufui.terms import Eq, const, mk_symbol, term_symbols

# EX22 with both results quantified and kept apart: the branch that merges
# the arguments closes on e1 != e1.
EX22_CLOSED = """
(declare-sort U 0)
(declare-fun f (U U) U)
(declare-const e0 U)(declare-const e1 U)(declare-const e2 U)
(declare-const z1 U)(declare-const z2 U)
(eliminate e0 e1 e2)
(assert (= (f e0 z1) e1))
(assert (= (f e0 z2) e2))
(assert (not (= e1 e2)))
"""
EX22_CLOSED_TARGET = "(not (= z2 z1))"
EX39_TARGET = "(=> (and (= z1 z2) (= z3 z4)) (= (h z0) z0))"
EX22_TARGET = "(=> (= z1 z3) (= z2 z4))"
EX16_TARGET = (
    "(and (=> (= z3 z4) (= s1 s2))"
    " (=> (and (= z1 z3) (= z2 z3)) (= t (f s1 s1)))"
    " (=> (and (= z1 z3) (= z2 z4)) (= t (f s1 s2)))"
    " (=> (and (= z1 z4) (= z2 z3)) (= t (f s2 s1)))"
    " (=> (and (= z1 z4) (= z2 z4)) (= t (f s2 s2))))"
)


def run_text(text, **kwargs):
    problem = parse(text)
    ui = compute_tableaux_ui(flatten(problem), **kwargs)
    return problem, ui


def test_two_application_example():
    problem, ui = run_text(EX22)
    assert ui.stats["branches_explored"] == 2
    assert ui.stats["rule4_firings"] == 1
    assert_equiv(ui.formula(), problem, EX22_TARGET)
    assert_equiv(ui.formula(unravel=True), problem, EX22_TARGET)

    _, ui = run_text(EX22_CLOSED)
    assert ui.stats["branches_explored"] == 2
    assert ui.stats["rule_apps"] == {"1.0": 1, "1.i": 0, "1.ii": 1, "2": 0, "3": 0, "4": 1}
    assert format_formula(ui.formula()) == EX22_CLOSED_TARGET


def test_shared_subterm_example_branches_and_golden_disjunct():
    problem, ui = run_text(EX39)
    assert ui.stats["branches_explored"] == 4
    assert len(ui.disjuncts) == 4
    printed = [format_formula(d.formula) for d in ui.disjuncts]
    golden = (
        "(let ((y1 z0)) (let ((y2 y1)) "
        "(and (= z4 z3) (= z2 z1) (= (h y2) z0))))"
    )
    assert golden in printed
    assert_equiv(ui.formula(), problem, EX39_TARGET)
    assert_equiv(ui.formula(unravel=True), problem, EX39_TARGET)


def test_shared_subterm_example_unravelled_disjunct():
    _, ui = run_text(EX39)
    printed = [format_formula(expand_lets(d.formula)) for d in ui.disjuncts]
    assert "(and (= z4 z3) (= z2 z1) (= (h z0) z0))" in printed


def test_nested_example_branch_count_pin():
    # The branch total depends on the redex selection strategy; the default
    # first-redex scan yields 15 terminal branches on this input. Pinned as a
    # determinism regression, not as the only defensible count.
    problem, ui = run_text(EX16)
    assert ui.stats["branches_explored"] == 15
    assert_equiv(ui.formula(), problem, EX16_TARGET)
    assert_equiv(ui.formula(unravel=True), problem, EX16_TARGET)


def test_reversed_strategy_same_ui():
    for text, target in ((EX22, EX22_TARGET), (EX39, EX39_TARGET), (EX16, EX16_TARGET)):
        problem, ui = run_text(text, strategy="reversed")
        assert ui.stats["branches_explored"] > 0
        assert_equiv(ui.formula(), problem, target)


def test_semantic_prune_keeps_equivalence():
    problem, ui = run_text(EX16, prune="semantic")
    assert_equiv(ui.formula(), problem, EX16_TARGET)
    _, plain = run_text(EX16)
    assert len(ui.disjuncts) <= len(plain.disjuncts)


# Reference-corpus instance 128 (seed 20260823), renamed: its one open branch
# keeps f(z) = z and y1 != z under y1 := f(z), inconsistent once unravelled.
CORPUS128 = """
(declare-sort U 0)
(declare-fun f (U) U)
(declare-const z U)
(declare-const e U)
(eliminate e)
(assert (= (f e) (f z)))
(assert (not (= (f (f z)) e)))
(assert (= (f e) e))
(assert (= (f z) z))
(assert (= z (f z)))
(assert (not (= z (f e))))
(assert (= (f (f e)) (f e)))
(compute-ui)
"""


def test_semantic_prune_drops_inconsistent_branch():
    _, plain = run_text(CORPUS128)
    assert len(plain.disjuncts) == 1
    _, pruned = run_text(CORPUS128, prune="semantic")
    assert pruned.disjuncts == []
    assert pruned.formula() is FALSE


def test_disjunct_formulas_built_once(monkeypatch):
    calls = []

    def counting_wrap(entries, body):
        calls.append(body)
        return wrap_definitions(entries, body)

    monkeypatch.setattr(tableaux, "wrap_definitions", counting_wrap)
    _, ui = run_text(EX16)
    ui.formula()
    assert len(calls) == len(ui.disjuncts) > 0


def test_rule_1i_needs_application_sides():
    # e=z1 and e=z2 share a left side but are no application pair: rule 2
    # defines e by z1 and rule 3 keeps y1=z2.
    e = const(mk_symbol("e", 0, "quantified"))
    z1, z2 = (const(mk_symbol(n, 0, "parameter")) for n in ("z1", "z2"))
    ui = compute_tableaux_ui(PreprocessedInput(s1=[Eq(e, z1), Eq(e, z2)], evars=[e.head]))
    assert ui.stats["rule_apps"] == {"1.0": 0, "1.i": 0, "1.ii": 0, "2": 1, "3": 1, "4": 0}
    assert format_formula(ui.formula()) == "(let ((y1 z1)) (= y1 z2))"


def test_branch_cap():
    problem = parse(EX16)
    with pytest.raises(ResourceLimitError):
        compute_tableaux_ui(flatten(problem), budget=Budget(max_branches=4))


# sha256 of the printed disjunction of shared_evar_text(6), then
# (branches_explored, rule4_firings, rule_apps), per engine setting.
SHARED6_PINS = {
    "default": ("715552b83c317bea9f7f1d7beb3a5a0d21da4af1268c1210e3de276e29a2c8d4", 203, 202,
                {"1.0": 0, "1.i": 0, "1.ii": 0, "2": 0, "3": 202, "4": 202}),
    "reversed": ("37b058e8f98aa186ddfe16ba7799d030a0d582c26616412dfd662fc31ec8d838", 720, 719,
                 {"1.0": 0, "1.i": 0, "1.ii": 0, "2": 0, "3": 719, "4": 719}),
    "semantic": ("715552b83c317bea9f7f1d7beb3a5a0d21da4af1268c1210e3de276e29a2c8d4", 203, 202,
                 {"1.0": 0, "1.i": 0, "1.ii": 0, "2": 0, "3": 202, "4": 202}),
}


@pytest.mark.parametrize("setting", sorted(SHARED6_PINS))
def test_shared_evar_output_pinned(setting):
    kwargs = {"reversed": {"strategy": "reversed"}, "semantic": {"prune": "semantic"}}.get(setting, {})
    ui = compute_tableaux_ui(flatten(parse(shared_evar_text(6))), **kwargs)
    digest = hashlib.sha256(format_formula(ui.formula()).encode()).hexdigest()
    stats = ui.stats
    assert (digest, stats["branches_explored"], stats["rule4_firings"], stats["rule_apps"]) == SHARED6_PINS[setting]


SIXTEEN = (Path(__file__).resolve().parent.parent / "demos" / "inputs" / "sixteen_branches.smt").read_text()


@pytest.mark.parametrize("text", [EX16, SIXTEEN], ids=["EX16", "sixteen_branches"])
def test_disjuncts_own_their_snapshots(text):
    _, ui = run_text(text)
    assert len(ui.disjuncts) > 1
    for d in ui.disjuncts:
        assert wrap_definitions(d.delta, mk_and(d.phi)) == d.formula
    before = [(list(d.delta), list(d.phi)) for d in ui.disjuncts]
    first = ui.disjuncts[0]
    first.phi.append(first.phi[0])
    first.delta.append(first.delta[0] if first.delta else None)
    assert [(list(d.delta), list(d.phi)) for d in ui.disjuncts[1:]] == before[1:]


def test_timeout_reports_work_done(counting_clock):
    pre = flatten(parse(shared_evar_text(7)))
    assert compute_tableaux_ui(pre).stats["branches_explored"] == 877

    with pytest.raises(ResourceLimitError) as exc:
        compute_tableaux_ui(pre, budget=Budget(deadline=200.0))
    assert counting_clock.reads == 201
    assert exc.value.stats["branches_explored"] > 0


def test_falsified_input_gives_false():
    _, ui = run_text(
        "(declare-sort U 0)(declare-const e U)(eliminate e)(assert (not (= e e)))"
    )
    assert ui.formula() is FALSE
    assert ui.stats["branches_explored"] == 0


def test_quantifier_free_input_passes_through():
    problem, ui = run_text(
        "(declare-sort U 0)(declare-fun f (U) U)(declare-const e U)(declare-const z U)"
        "(eliminate e)(assert (= (f z) z))"
    )
    assert ui.stats["branches_explored"] == 1
    assert_equiv(ui.formula(), problem, "(= (f z) z)")


def test_unary_signature_never_branches():
    rng = random.Random(5)
    for _ in range(15):
        problem = random_problem(rng)
        if any(f.arity != 1 for f in problem.functions):
            continue
        ui = compute_tableaux_ui(flatten(problem))
        assert ui.stats["branches_explored"] == 1
        assert ui.stats["rule_apps"]["4"] == 0


def test_disjuncts_mention_only_retained_symbols():
    rng = random.Random(31)
    for _ in range(25):
        problem = random_problem(rng)
        ui = compute_tableaux_ui(flatten(problem))
        for d in ui.disjuncts:
            for lit in d.phi:
                for t in (lit.lhs, lit.rhs):
                    assert all(s.kind != "quantified" for s in term_symbols(t))
            for _, body in d.delta:
                assert all(s.kind != "quantified" for s in term_symbols(body))


def test_residue_on_random_corpus():
    rng = random.Random(99)
    for _ in range(30):
        problem = random_problem(rng)
        if not problem.body:
            continue
        body = mk_and(problem.body)
        ui = compute_tableaux_ui(flatten(problem))
        ok, witness = euf_valid(body, ui.formula())
        assert ok, witness
        ok, witness = euf_valid(body, ui.formula(unravel=True))
        assert ok, witness


def test_default_vs_reversed_on_random_corpus():
    rng = random.Random(12)
    for _ in range(15):
        problem = random_problem(rng)
        a = compute_tableaux_ui(flatten(problem))
        b = compute_tableaux_ui(flatten(problem), strategy="reversed")
        ok, witness = euf_equiv(a.formula(), b.formula())
        assert ok, witness


@pytest.mark.parametrize("forward", [True, False])
def test_pair_scan_resumes_where_it_left_off(forward):
    full = list(tableaux._pairs(6, forward))
    assert len(full) == 15
    for k, start in enumerate(full):
        assert list(tableaux._pairs(6, forward, start)) == full[k:]
    # A merge deletes the pair's second literal: the scan goes on over one
    # literal fewer, from the same indices.
    shorter = list(tableaux._pairs(5, forward))
    assert list(tableaux._pairs(5, forward, (1, 5))) == shorter[shorter.index((2, 3) if forward else (1, 4)):]


def test_leaf_formula_joins_phi_as_is():
    # Each leaf's phi holds every literal once, so its formula is phi's
    # conjunction as it stands, under the definitions it reaches.
    rng = random.Random(77)
    for _ in range(40):
        pre = flatten(random_problem(rng))
        for strategy in ("default", "reversed"):
            for d in compute_tableaux_ui(pre, strategy=strategy).disjuncts:
                assert len(set(d.phi)) == len(d.phi)
                assert d.formula == wrap_definitions(d.delta, mk_and(d.phi))
