"""Flattening goldens, output-shape invariants, and the replay audit."""
from __future__ import annotations

import random

import pytest
from conftest import doubling_chain, random_problem

from eufui.conditional import compute_conditional_ui
from eufui.errors import Budget, ResourceLimitError
from eufui.euf import euf_equiv
from eufui.parse import format_formula, format_term, parse
from eufui.preprocess import flatten, live_symbols, replay_check
from eufui.tableaux import compute_tableaux_ui
from eufui.terms import Eq, Ne, const

EX22 = """
(declare-sort U 0)
(declare-fun f (U U) U)
(declare-const e U)
(declare-const z1 U)(declare-const z2 U)(declare-const z3 U)(declare-const z4 U)
(eliminate e)
(assert (= (f e z1) z2))
(assert (= (f e z3) z4))
"""

EX39 = """
(declare-sort U 0)
(declare-fun f (U U) U)
(declare-fun g (U U) U)
(declare-fun h (U) U)
(declare-const e0 U)
(declare-const z0 U)(declare-const z1 U)(declare-const z2 U)
(declare-const z3 U)(declare-const z4 U)
(eliminate e0)
(assert (= (g z4 e0) z0))
(assert (= (f z2 e0) (g z3 e0)))
(assert (= (h (f z1 e0)) z0))
"""

EX16 = """
(declare-sort U 0)
(declare-fun f (U U) U)
(declare-const e U)
(declare-const s1 U)(declare-const s2 U)(declare-const t U)
(declare-const z1 U)(declare-const z2 U)(declare-const z3 U)(declare-const z4 U)
(eliminate e)
(assert (= s1 (f z3 e)))
(assert (= s2 (f z4 e)))
(assert (= t (f (f z1 e) (f z2 e))))
"""

ROW58 = """
(declare-sort U 0)
(declare-fun f1 (U U) U)
(declare-const z0 U)(declare-const z1 U)(declare-const z2 U)(declare-const z3 U)
(declare-const e0 U)
(eliminate e0)
(assert (= (f1 z1 z0) (f1 (f1 e0 z2) (f1 z1 z3))))
(assert (= (f1 (f1 z0 e0) (f1 e0 z1)) z1))
(assert (= z0 (f1 (f1 z3 z2) (f1 z3 z1))))
(assert (= z3 e0))
"""


def fmt(lits):
    return [format_formula(l) for l in lits]


def test_flatten_already_flat_passes_through():
    pre = flatten(parse(EX22))
    assert fmt(pre.s1) == ["(= (f e z1) z2)", "(= (f e z3) z4)"]
    assert pre.passthrough == []
    assert pre.initial_delta == []
    assert [s.name for s in pre.evars] == ["e"]
    assert not pre.falsified


def test_flatten_shared_subterm_golden():
    pre = flatten(parse(EX39))
    assert fmt(pre.s1) == [
        "(= (g z4 e0) z0)",
        "(= (f z2 e0) e1)",
        "(= (g z3 e0) e1)",
        "(= (f z1 e0) e2)",
        "(= (h e2) z0)",
    ]
    assert [s.name for s in pre.evars] == ["e0", "e1", "e2"]
    # the introduced variables still map back to input subterms
    back = {s.name: format_term(v) for s, v in pre.renaming.items()}
    assert back == {"e1": "(f z2 e0)", "e2": "(f z1 e0)"}


def test_flatten_nested_golden():
    pre = flatten(parse(EX16))
    assert fmt(pre.s1) == [
        "(= (f z3 e) s1)",
        "(= (f z4 e) s2)",
        "(= (f z1 e) e1)",
        "(= (f z2 e) e2)",
        "(= (f e1 e2) t)",
    ]
    assert [s.name for s in pre.evars] == ["e", "e1", "e2"]


def test_flatten_efree_compound_gets_definition():
    pre = flatten(parse(
        "(declare-sort U 0)(declare-fun f (U U) U)(declare-fun g (U U) U)"
        "(declare-const e U)(declare-const z1 U)(declare-const z2 U)(declare-const z3 U)"
        "(eliminate e)(assert (= (g e (f z1 z2)) z3))"
    ))
    assert len(pre.initial_delta) == 1
    y, body = pre.initial_delta[0]
    assert y.name == "y1" and y.kind == "defined"
    assert format_term(body) == "(f z1 z2)"
    assert fmt(pre.s1) == ["(= (g e y1) z3)"]


def test_flatten_quantified_equality_eliminated():
    pre = flatten(parse(
        "(declare-sort U 0)(declare-fun f (U U) U)"
        "(declare-const e U)(declare-const z1 U)(declare-const z2 U)(declare-const z3 U)"
        "(eliminate e)(assert (= e z1))(assert (= (f e z2) z3))"
    ))
    assert pre.s1 == []
    assert fmt(pre.passthrough) == ["(= (f z1 z2) z3)"]
    witnesses = {s.name: w.head.name for s, w in pre.eliminated.items()}
    assert witnesses["e"] == "z1"
    assert pre.evars == []


@pytest.mark.parametrize("asserts", [
    "(assert (= (f z1 z2) e))(assert (= (g e) z3))",
    # f(e0, z2) turns e-free only once e0 is replaced by z1
    "(assert (= (f e0 z2) e))(assert (= e0 z1))(assert (= (g e) z3))",
], ids=["efree-in-input", "efree-after-replacement"])
def test_flatten_efree_application_becomes_definition(asserts):
    pre = flatten(parse(
        "(declare-sort U 0)(declare-fun f (U U) U)(declare-fun g (U) U)"
        "(declare-const e0 U)(declare-const e U)"
        "(declare-const z1 U)(declare-const z2 U)(declare-const z3 U)"
        "(eliminate e0 e)" + asserts
    ))
    assert pre.s1 == [] and pre.evars == []
    assert [(y.name, format_term(t)) for y, t in pre.initial_delta] == [("y1", "(f z1 z2)")]
    assert fmt(pre.passthrough) == ["(= (g y1) z3)"]
    witnesses = {s.name: w for s, w in pre.eliminated.items()}
    assert witnesses["e"] is const(pre.initial_delta[0][0])


def test_flatten_definition_chain_collapses_in_order():
    # Each f_{i+1}(y_i, y_i) = e_{i+1} becomes y_{i+1}; h(e6) = z0 is already
    # e-free by then and goes to the passthrough without a y of its own.
    pre = flatten(parse(doubling_chain(6)))
    assert pre.s1 == [] and pre.evars == []
    assert [(y.name, format_term(t)) for y, t in pre.initial_delta] == [
        ("y1", "(f1 z z)"),
        ("y2", "(f2 y1 y1)"),
        ("y3", "(f3 y2 y2)"),
        ("y4", "(f4 y3 y3)"),
        ("y5", "(f5 y4 y4)"),
        ("y6", "(f6 y5 y5)"),
    ]
    assert fmt(pre.passthrough) == ["(= (h y6) z0)"]


def test_flatten_checks_deadline_per_pass(counting_clock):
    # doubling_chain(6) takes 14 fixpoint passes, each reading the clock once.
    problem = parse(doubling_chain(6))
    flatten(problem, Budget(deadline=14.0))
    assert counting_clock.reads == 14
    counting_clock.reads = 0
    with pytest.raises(ResourceLimitError, match="timeout exceeded") as exc:
        flatten(problem, Budget(deadline=13.0))
    assert counting_clock.reads == 14
    assert exc.value.stats == {}


def test_flatten_row58_leaves_no_eliminated_variables():
    problem = parse(ROW58)
    pre = flatten(problem)
    assert pre.evars == []
    assert replay_check(pre, problem)
    tab = compute_tableaux_ui(pre)
    cond = compute_conditional_ui(pre)
    assert cond.stats["num_cdags"] == 0
    ok, witness = euf_equiv(tab.formula(), cond.formula())
    assert ok, witness


def test_flatten_trivial_and_falsified():
    pre = flatten(parse(
        "(declare-sort U 0)(declare-const e U)(declare-const z U)"
        "(eliminate e)(assert (= e e))"
    ))
    assert pre.s1 == [] and pre.passthrough == [] and not pre.falsified

    pre = flatten(parse(
        "(declare-sort U 0)(declare-const e U)(declare-const z U)"
        "(eliminate e)(assert (not (= e e)))"
    ))
    assert pre.falsified

    # falsification discovered only after replacement
    pre = flatten(parse(
        "(declare-sort U 0)(declare-const e U)(declare-const z U)"
        "(eliminate e)(assert (= e z))(assert (not (= e z)))"
    ))
    assert pre.falsified


def test_flatten_passthrough_dedup():
    pre = flatten(parse(
        "(declare-sort U 0)(declare-fun f (U) U)(declare-const e U)(declare-const z U)"
        "(eliminate e)(assert (= (f z) z))(assert (= (f z) z))(assert (= (f e) z))"
    ))
    assert len(pre.passthrough) == 1
    assert fmt(pre.s1) == ["(= (f e) z)"]


def test_flatten_output_shapes():
    rng = random.Random(20260823)
    for _ in range(50):
        pre = flatten(random_problem(rng))
        if pre.falsified:
            continue
        live = live_symbols(pre.s1)
        assert live == set(pre.evars)
        for lit in pre.s1:
            app_eq = isinstance(lit, Eq) and bool(lit.lhs.args)
            assert app_eq or isinstance(lit, Ne)
            assert not lit.rhs.args
            if app_eq:
                assert all(not a.args for a in lit.lhs.args)
            else:
                assert not lit.lhs.args
            # everything e-free was routed to the passthrough instead
            heads = {lit.rhs.head.kind} | {a.head.kind for a in lit.lhs.args} | (
                {lit.lhs.head.kind} if not lit.lhs.args else set()
            )
            assert "quantified" in heads


def test_flatten_deterministic():
    a = flatten(parse(EX39))
    b = flatten(parse(EX39))
    assert fmt(a.s1) == fmt(b.s1)
    assert [s.name for s in a.evars] == [s.name for s in b.evars]
    assert [y.name for y, _ in a.initial_delta] == [y.name for y, _ in b.initial_delta]


def test_flatten_avoids_declared_names():
    # a parameter already named y1 must not capture the first definition
    pre = flatten(parse(
        "(declare-sort U 0)(declare-fun f (U U) U)(declare-fun g (U U) U)"
        "(declare-const e U)(declare-const y1 U)(declare-const z U)"
        "(eliminate e)(assert (= (g e (f y1 z)) z))"
    ))
    y, _ = pre.initial_delta[0]
    assert y.name == "y2"
    # and a parameter named e1 must not collide with renumbered variables
    pre = flatten(parse(
        "(declare-sort U 0)(declare-fun f (U U) U)(declare-fun h (U) U)"
        "(declare-const e0 U)(declare-const e1 U)(declare-const z U)"
        "(eliminate e0)(assert (= (h (f z e0)) e1))"
    ))
    fresh = [s.name for s in pre.evars if s.name != "e0"]
    assert fresh == ["e2"]


def test_replay_on_goldens():
    for text in (EX22, EX39, EX16):
        problem = parse(text)
        assert replay_check(flatten(problem), problem)


def test_replay_on_random_corpus():
    rng = random.Random(77)
    checked = 0
    for _ in range(60):
        problem = random_problem(rng)
        assert replay_check(flatten(problem), problem)
        checked += 1
    assert checked == 60


def test_replay_detects_corruption():
    problem = parse(EX39)
    pre = flatten(problem)
    z1 = problem.symbols["z1"]
    pre.s1[0] = Eq(pre.s1[0].lhs, const(z1))
    assert not replay_check(pre, problem)

    problem = parse(
        "(declare-sort U 0)(declare-fun f (U U) U)"
        "(declare-const e U)(declare-const z1 U)(declare-const z2 U)(declare-const z3 U)"
        "(eliminate e)(assert (= e z1))(assert (= (f e z2) z3))"
    )
    pre = flatten(problem)
    pre.eliminated.clear()
    assert not replay_check(pre, problem)
