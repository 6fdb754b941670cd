"""Clause saturation, definition-chain extraction, and conjunctive UIs."""
from __future__ import annotations

import itertools
import random

import pytest
from conftest import Sig, assert_equiv, random_problem
from test_preprocess import EX16, EX22, EX39
from test_tableaux import EX16_TARGET, EX22_TARGET, EX39_TARGET

from eufui.conditional import (
    HornClause,
    _is_rewriter,
    _rewrite_once,
    compute_conditional_ui,
    make_clause,
    step1,
    step2,
)
from eufui.errors import Budget, ResourceLimitError
from eufui.euf import euf_equiv, euf_valid
from eufui.formulas import FALSE, expand_lets, formula_symbols, mk_and
from eufui.parse import format_formula, format_term, parse, parse_formula
from eufui.preprocess import flatten
from eufui.tableaux import compute_tableaux_ui
from eufui.terms import Eq, intern

# Two same-shape application pairs per placeholder pair; three ways to chain
# the conditional definitions, each giving a different conjunct of the UI.
THREE_CHAIN = """
(declare-sort U 0)
(declare-fun f1 (U U) U)
(declare-fun f2 (U U) U)
(declare-fun g1 (U U) U)
(declare-fun g2 (U U) U)
(declare-fun h (U U) U)
(declare-const e0 U)(declare-const e1 U)(declare-const e2 U)
(declare-const z0 U)(declare-const z1 U)(declare-const z2 U)(declare-const z3 U)
(declare-const z4 U)(declare-const z5 U)(declare-const z6 U)
(declare-const zp1 U)(declare-const zp2 U)
(declare-const zs1 U)(declare-const zs2 U)
(eliminate e0 e1 e2)
(assert (= (f1 e0 z1) e1))
(assert (= (f1 e0 z2) z3))
(assert (= (f2 e0 z4) e2))
(assert (= (f2 e0 z5) z6))
(assert (= (g1 e0 e1) e2))
(assert (= (g1 e0 zp1) zp2))
(assert (= (g2 e0 e2) e1))
(assert (= (g2 e0 zs1) zs2))
(assert (= (h e1 e2) z0))
(compute-ui)
"""

THREE_CHAIN_TARGETS = {
    "tre": "(=> (and (= z1 z2) (= z4 z5)) (and (= (h z3 z6) z0)"
           " (=> (= z3 zp1) (= z6 zp2)) (=> (= z6 zs1) (= z3 zs2))))",
    "uno": "(=> (and (= z1 z2) (= z3 zp1)) (and (= (h z3 zp2) z0)"
           " (=> (= z4 z5) (= zp2 z6)) (=> (= zp2 zs1) (= z3 zs2))))",
    "due": "(=> (and (= z4 z5) (= z6 zs1)) (and (= (h zs2 z6) z0)"
           " (=> (= z1 z2) (= zs2 z3)) (=> (= zs2 zp1) (= z6 zp2))))",
}


def run_text(text, **kwargs):
    problem = parse(text)
    res = compute_conditional_ui(flatten(problem), **kwargs)
    return problem, res


def clause_str(c: HornClause) -> str:
    ante = ",".join(f"{a.lhs.head.name}={a.rhs.head.name}" for a in c.antecedent)
    if c.consequent is None:
        return f"[{ante}]->false"
    return f"[{ante}]->{format_term(c.consequent.lhs)}={format_term(c.consequent.rhs)}"


def chain_shape(res):
    return [[(e.var.name, format_term(e.body)) for e in phi.entries] for phi in res.phis]


def test_two_application_example():
    problem, res = run_text(EX22)
    assert res.stats["s2_size"] == 3 and res.stats["s3_size"] == 3
    nonunits = [c for c in res.s2 if c.antecedent]
    assert [clause_str(c) for c in nonunits] == ["[z3=z1]->z4=z2"]
    assert not any(_is_rewriter(c) for c in res.s3)
    assert chain_shape(res) == [[]]
    assert_equiv(res.formula(), problem, EX22_TARGET)
    assert_equiv(res.formula(unravel=True), problem, EX22_TARGET)


def test_shared_subterm_example_saturation_and_chains():
    problem, res = run_text(EX39)
    assert res.stats["s2_size"] == 7
    assert sorted(clause_str(c) for c in res.s2 if c.antecedent) == [
        "[z2=z1]->e2=e1",
        "[z4=z3]->e1=z0",
    ]
    # saturation rewrites the later placeholder away in exactly two clauses
    added = [c for c in res.s3 if c not in set(res.s2)]
    assert sorted(clause_str(c) for c in added) == [
        "[z2=z1]->(f z1 e0)=e1",
        "[z2=z1]->(h e1)=z0",
    ]
    assert res.stats["s3_size"] == 9
    assert chain_shape(res) == [[("e1", "z0")], [("e1", "z0"), ("e2", "e1")]]
    for phi in res.phis:
        assert_equiv(expand_lets(phi.formula()), problem, EX39_TARGET)
    assert_equiv(res.formula(), problem, EX39_TARGET)
    assert_equiv(res.formula(unravel=True), problem, EX39_TARGET)


def test_three_chain_example_clauses():
    _, res = run_text(THREE_CHAIN)
    nonunits = [c for c in res.s2 if c.antecedent]
    assert [clause_str(c) for c in nonunits] == [
        "[z2=z1]->e1=z3",
        "[z5=z4]->e2=z6",
        "[e1=zp1]->e2=zp2",
        "[e2=zs1]->e1=zs2",
    ]
    assert set(res.s3) == set(res.s2)


def test_three_chain_example_chain_extraction():
    problem, res = run_text(THREE_CHAIN)
    # empty and singleton prefixes give nothing new, and the relabeled
    # interleaving of the two independent definitions is emitted only once
    assert chain_shape(res) == [
        [("e1", "z3"), ("e2", "z6")],
        [("e1", "z3"), ("e2", "zp2")],
        [("e2", "z6"), ("e1", "zs2")],
    ]
    for phi, key in zip(res.phis, ["tre", "uno", "due"]):
        assert_equiv(expand_lets(phi.formula()), problem, THREE_CHAIN_TARGETS[key])
    target = "(and " + " ".join(THREE_CHAIN_TARGETS[k] for k in ("uno", "due", "tre")) + ")"
    assert_equiv(res.formula(unravel=True), problem, target)
    assert_equiv(res.formula(), problem, target)


def test_compressed_output_uses_fresh_let_names():
    problem, res = run_text(THREE_CHAIN)
    printed = format_formula(res.formula())
    assert "(let ((w1 " in printed
    assert "(let ((w2 " in printed
    # the printed compressed form parses back to the same UI
    reparsed = parse_formula(printed, problem.symbols)
    ok, witness = euf_equiv(reparsed, res.formula(unravel=True))
    assert ok, witness


def test_let_names_avoid_declared_symbols():
    problem, res = run_text(THREE_CHAIN.replace(
        "(declare-const z0 U)", "(declare-const z0 U)(declare-const w1 U)"
    ))
    printed = format_formula(res.formula())
    assert "(let ((w1 " not in printed
    assert "(let ((w2 " in printed


def chain_gadget(n):
    """Two applications per node pair, all sharing one placeholder argument."""
    edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    out = ["(declare-sort U 0)", "(declare-fun f (U U) U)"]
    for i, j in edges:
        out.append(f"(declare-fun h{i}{j} (U U) U)")
    for k in range(n + 1):
        out.append(f"(declare-const e{k} U)")
    out.append("(declare-const z0 U)(declare-const zp0 U)")
    for i, j in edges:
        out.append(f"(declare-const z{i}{j} U)(declare-const zp{i}{j} U)")
    out.append("(eliminate " + " ".join(f"e{k}" for k in range(n + 1)) + ")")
    out.append("(assert (= (f e0 e1) z0))")
    out.append(f"(assert (= (f e0 e{n}) zp0))")
    for i, j in edges:
        out.append(f"(assert (= (h{i}{j} e0 z{i}{j}) e{i}))")
        out.append(f"(assert (= (h{i}{j} e0 zp{i}{j}) e{j}))")
    return "\n".join(out) + "\n(compute-ui)\n", edges


def minimal_connecting_sets(n, edges):
    """Subset-minimal edge sets whose equivalence closure relates 1 and n."""

    def connects(sub):
        parent = list(range(n + 1))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i, j in sub:
            parent[find(i)] = find(j)
        return find(1) == find(n)

    minimal = []
    for r in range(len(edges) + 1):
        for sub in itertools.combinations(edges, r):
            if connects(sub) and not any(m <= set(sub) for m in minimal):
                minimal.append(frozenset(sub))
    return set(minimal)


def gadget_clauses(s3):
    """The chain gadget's parameter-only clauses in s3, those of them no
    other one subsumes, and the edge sets the latter's antecedents name."""
    param_clauses = [c for c in s3 if all(t.head.kind != "quantified" for t in c.operands)]
    reduced = [c for c in param_clauses
               if not any(d is not c and d.consequent == c.consequent
                          and set(d.antecedent) < set(c.antecedent)
                          for d in param_clauses)]

    def edge_of(name):
        digits = name[2:] if name.startswith("zp") else name[1:]
        return (int(digits[0]), int(digits[1]))

    return param_clauses, reduced, {frozenset(edge_of(a.lhs.head.name) for a in c.antecedent) for c in reduced}


def test_chain_gadget_only_empty_chain_and_path_clauses():
    text, edges = chain_gadget(4)
    _, res = run_text(text)
    assert chain_shape(res) == [[]]
    param_clauses, reduced, got = gadget_clauses(res.s3)
    assert all(clause_str(c).endswith("->zp0=z0") for c in reduced)
    assert got == minimal_connecting_sets(4, edges)
    assert len(got) == 5
    # those clauses are exactly what the empty chain contributes
    assert len(res.phis[0].core) == len(param_clauses)


def test_nested_example_matches_branching_algorithm_target():
    problem, res = run_text(EX16)
    assert_equiv(res.formula(unravel=True), problem, EX16_TARGET)


def test_make_clause_canonical_form():
    s = Sig()
    f = s.fn("f", 1)
    a, b, c = s.params("a", "b", "c")
    e0, e1 = s.evars("e0", "e1")
    # b = a once for both orientations, a = a dropped, the rest oriented and
    # sorted by (lhs id, rhs id)
    cl = make_clause([Eq(e1, c), Eq(a, b), Eq(c, e0), Eq(b, a), Eq(a, a)], None)
    assert cl.antecedent == (Eq(b, a), Eq(e0, c), Eq(e1, c))
    keys = [(x.lhs.id, x.rhs.id) for x in cl.antecedent]
    assert keys == sorted(keys)
    # a consequent repeating an antecedent atom, in either orientation
    for ante, cq in (([Eq(e0, a)], Eq(a, e0)), ([Eq(a, e0)], Eq(e0, a)), ([Eq(e0, a)], Eq(e0, a))):
        assert make_clause(ante, cq) is None
        assert make_clause(ante, cq, keep_tautology=True).consequent == Eq(e0, a)
    # a trivial 0-ary consequent, even for a merge
    assert make_clause([Eq(a, b)], Eq(c, c)) is None
    assert make_clause([Eq(a, b)], Eq(c, c), keep_tautology=True) is None
    # an application consequent is kept as it is
    fa = Eq(intern(f, (a,)), b)
    assert make_clause((), fa) == HornClause((), fa)


def test_rewrite_once_every_position_in_order():
    s = Sig()
    f = s.fn("f", 3)
    z1, z2 = s.params("z1", "z2")
    e0, e3, e4 = s.evars("e0", "e3", "e4")
    r = make_clause([Eq(z1, z2)], Eq(e3, e0))
    assert clause_str(r) == "[z2=z1]->e3=e0"

    def rewrites(c, by=r):
        return [clause_str(d) for d in _rewrite_once(by, c)]

    # antecedent lhs, antecedent rhs, then the 0-ary consequent's lhs
    assert rewrites(make_clause([Eq(e3, z1), Eq(e4, e3)], Eq(e3, z2))) == [
        "[z2=z1,e0=z1,e4=e3]->e3=z2",
        "[z2=z1,e3=z1,e4=e0]->e3=z2",
        "[z2=z1,e3=z1,e4=e3]->e0=z2",
    ]
    # the 0-ary consequent's rhs
    assert rewrites(make_clause([], Eq(e4, e3))) == ["[z2=z1]->e4=e0"]
    # an application consequent: each matching argument, then the right side
    assert rewrites(HornClause((), Eq(intern(f, (e3, z1, e3)), e3))) == [
        "[z2=z1]->(f e0 z1 e3)=e3",
        "[z2=z1]->(f e3 z1 e0)=e3",
        "[z2=z1]->(f e3 z1 e3)=e0",
    ]
    # a bottom consequent: only the antecedent is rewritten
    assert rewrites(make_clause([Eq(e3, z1)], None)) == ["[z2=z1,e0=z1]->false"]
    assert rewrites(make_clause([Eq(z1, z2)], Eq(e4, z1))) == []
    # r rewriting itself: its consequent is left alone
    r2 = make_clause([Eq(e3, z1)], Eq(e3, e0))
    assert rewrites(r2, by=r2) == ["[e0=z1,e3=z1]->e3=e0"]


def test_saturation_order_insensitive():
    for text in (EX22, EX39, EX16, THREE_CHAIN):
        problem = parse(text)
        pre = flatten(problem)
        fifo = compute_conditional_ui(pre)
        lifo = compute_conditional_ui(pre, order="lifo")
        ok, witness = euf_equiv(fifo.formula(unravel=True), lifo.formula(unravel=True))
        assert ok, witness
    with pytest.raises(ValueError):
        compute_conditional_ui(flatten(parse(EX22)), order="random")


def test_clause_limit_enforced():
    text, _ = chain_gadget(4)
    with pytest.raises(ResourceLimitError):
        run_text(text, budget=Budget(max_clauses=50))


def test_chain_limit_enforced():
    with pytest.raises(ResourceLimitError):
        run_text(THREE_CHAIN, budget=Budget(max_cdags=3))


def test_falsified_input_gives_false():
    _, res = run_text(
        "(declare-sort U 0)(declare-const e U)(declare-const z U)"
        "(eliminate e)(assert (not (= e e)))"
    )
    assert res.formula() is FALSE
    assert res.formula(unravel=True) is FALSE


def test_quantifier_free_input_passes_through():
    problem, res = run_text(
        "(declare-sort U 0)(declare-fun f (U) U)(declare-const e U)"
        "(declare-const z1 U)(declare-const z2 U)"
        "(eliminate e)(assert (= (f z1) z2))"
    )
    assert chain_shape(res) == []
    assert format_formula(res.formula()) == "(= (f z1) z2)"


def test_deterministic_output():
    a = run_text(THREE_CHAIN)[1]
    b = run_text(THREE_CHAIN)[1]
    assert format_formula(a.formula()) == format_formula(b.formula())
    assert a.stats == b.stats


def test_result_formulas_built_once():
    pre = flatten(parse(EX39))
    cond = compute_conditional_ui(pre)
    tab = compute_tableaux_ui(pre)
    for result in (cond, tab):
        assert result.formula() is result.formula()
        assert result.formula(unravel=True) is result.formula(unravel=True)
        assert format_formula(result.formula()) != format_formula(result.formula(unravel=True))


def merged_pair_clause(a: HornClause, b: HornClause):
    """The congruence merge of two same-shape conditional applications."""
    ante = list(a.antecedent) + list(b.antecedent)
    ante += [Eq(u, v) for u, v in zip(a.consequent.lhs.args, b.consequent.lhs.args)]
    return make_clause(ante, Eq(a.consequent.rhs, b.consequent.rhs))


def subsumed_in(clause, clauses) -> bool:
    return any(d.consequent == clause.consequent
               and set(d.antecedent) <= set(clause.antecedent) for d in clauses)


def assert_merges_persist(s3):
    funeqs = [c for c in s3 if isinstance(c.consequent, Eq) and c.consequent.lhs.args]
    for a, b in itertools.combinations(funeqs, 2):
        if a.consequent.lhs.head is not b.consequent.lhs.head:
            continue
        if a.consequent.rhs is b.consequent.rhs:
            continue
        merged = merged_pair_clause(a, b)
        assert merged is None or subsumed_in(merged, s3), clause_str(merged)


def test_application_merges_persist_on_worked_inputs():
    for text in (EX22, EX39, EX16, THREE_CHAIN):
        assert_merges_persist(run_text(text)[1].s3)


def test_cyclic_pair_keeps_tautological_merge():
    # f(e2)=e4 and f(e4)=e2 merge into [e4=e2]->e4=e2; dropping it would
    # leave the merge of f(e2)=e4 with the rewritten f(e3)=e2 unsubsumed.
    from types import SimpleNamespace

    from eufui.terms import const, intern, mk_symbol

    f = mk_symbol("f", 1, "function")
    y1 = const(mk_symbol("y1", 0, "defined"))
    e2, e3, e4 = (const(mk_symbol(n, 0, "quantified")) for n in ("e2", "e3", "e4"))
    s1 = [
        Eq(intern(f, (y1,)), e3),
        Eq(intern(f, (e2,)), e4),
        Eq(intern(f, (e4,)), e2),
    ]
    s2 = step1(SimpleNamespace(s1=s1))
    assert "[e4=e2]->e4=e2" in {clause_str(c) for c in s2}
    s3 = step2(s2)
    assert_merges_persist(s3)


def corpus(seed, count, max_evars=4):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        problem = random_problem(rng)
        pre = flatten(problem)
        if pre.falsified or len(pre.evars) > max_evars:
            continue
        out.append((problem, pre))
    return out


def test_random_corpus_residue_and_cross_algorithm_agreement():
    for problem, pre in corpus(424242, 40):
        res = compute_conditional_ui(pre)
        ui = res.formula(unravel=True)
        assert all(s.kind not in ("quantified", "defined") for s in formula_symbols(ui))
        inp = mk_and(problem.body)
        ok, cube = euf_valid(inp, ui)
        assert ok, (cube, format_formula(ui))
        tab = compute_tableaux_ui(pre).formula(unravel=True)
        ok, witness = euf_equiv(ui, tab)
        assert ok, (witness, format_formula(ui), format_formula(tab))


def test_random_corpus_merges_persist_and_order_insensitive():
    for _, pre in corpus(99, 25):
        res = compute_conditional_ui(pre)
        assert_merges_persist(res.s3)
        lifo = compute_conditional_ui(pre, order="lifo")
        ok, witness = euf_equiv(res.formula(unravel=True), lifo.formula(unravel=True))
        assert ok, witness


def test_diseq_becomes_conditional_bottom_and_rewrites_to_retained_fact():
    problem = parse(
        "(declare-sort U 0)(declare-fun f (U U) U)"
        "(declare-const e0 U)(declare-const e1 U)(declare-const e2 U)"
        "(declare-const z1 U)(declare-const z2 U)"
        "(eliminate e0 e1 e2)"
        "(assert (= (f e0 z1) e1))(assert (= (f e0 z2) e2))"
        "(assert (not (= e1 e2)))"
    )
    pre = flatten(problem)
    clauses = step1(pre)
    bottoms = [c for c in clauses if c.consequent is None]
    assert [clause_str(c) for c in bottoms] == ["[e2=e1]->false"]
    res = compute_conditional_ui(pre)
    assert "[z2=z1]->false" in {clause_str(c) for c in res.s3}
    assert_equiv(res.formula(unravel=True), problem, "(not (= z1 z2))")
