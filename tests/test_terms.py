"""Term interning, substitution, unravelling and compatibility."""
from __future__ import annotations

import gc
import random
import weakref

import pytest

from conftest import Sig, shared_evar_text, unary_chain
from eufui.conditional import compute_conditional_ui
from eufui.euf import euf_valid
from eufui import formulas, terms
from eufui.formulas import FALSE, TRUE, And, Let, Or, expand_lets, let_env, mk_and, mk_or, wrap_definitions
from eufui.parse import parse
from eufui.preprocess import flatten
from eufui.tableaux import compute_tableaux_ui
from eufui.terms import (
    Eq,
    Ne,
    compatible,
    const,
    eliminate,
    intern,
    is_app_definition,
    lit_substitute,
    mk_symbol,
    orient,
    term_substitute,
    term_symbols,
)


def test_intern_idempotent_and_nested():
    s = Sig()
    f = s.fn("f", 2)
    h = s.fn("h", 1)
    z1 = s.params("z1")[0]
    (e0,) = s.evars("e0")
    assert intern(f, (z1, e0)) is intern(f, (z1, e0))
    assert intern(z1.head, ()) is z1
    nested = intern(h, (intern(f, (z1, e0)),))
    assert nested.head is h and nested.args[0].head is f


def test_intern_arity_mismatch():
    s = Sig()
    f = s.fn("f", 2)
    z1 = s.params("z1")[0]
    with pytest.raises(ValueError):
        intern(f, (z1,))


def test_terms_are_freed_with_their_problem():
    problem = parse(
        "(declare-sort U 0)(declare-fun f (U) U)(declare-const z U)(declare-const e U)"
        "(eliminate e)(assert (= (f e) z))"
    )
    f, z = problem.symbols["f"], problem.symbols["z"]
    fz = intern(f, (const(z),))
    eq = Eq(fz, const(z))
    refs = [weakref.ref(x) for x in (intern(f, (fz,)), eq, Ne(const(z), fz), eq.neg)]
    del problem, f, z, fz, eq
    gc.collect()
    assert [r() for r in refs] == [None, None, None, None]


def test_literals_are_interned():
    s = Sig()
    e0, e1 = s.evars("e0", "e1")
    a, b = s.params("a", "b")
    assert Eq(a, b) is Eq(a, b)
    assert Eq(a, b) != Ne(a, b)
    assert Eq(a, b).atom == Ne(b, a).atom == Eq(b, a).atom == Ne(a, b).atom
    assert Eq(a, b).atom != Eq(a, e0).atom
    assert orient(Eq(e0, e1)) is Eq(e1, e0)
    assert lit_substitute(Ne(e1, a), {e1.head: e0}) is Ne(e0, a)
    with pytest.raises(AttributeError):
        Eq(a, b).lhs = e0
    assert Eq(a, b).lhs is a


def test_literal_complements():
    s = Sig()
    a, b = s.params("a", "b")
    x = Eq(a, b)
    assert (Ne, a.id, b.id) not in a.head.lits
    assert x.neg is Ne(a, b)
    assert (Ne, a.id, b.id) in a.head.lits
    assert x.neg.neg is x and Ne(a, b).neg is x
    assert x.neg.atom == x.atom
    assert Ne(b, a).neg is Eq(b, a) is not x
    with pytest.raises(AttributeError):
        x.neg = x


def test_engines_build_no_complements():
    problem = parse(shared_evar_text(3))
    pre = flatten(problem)
    compute_tableaux_ui(pre)
    compute_conditional_ui(pre)
    lits = [lit for sym in problem.symbols.values() for lit in sym.lits.values()]
    assert len(lits) > 20
    # `_neg` is the slot `neg` fills the first time it is read.
    assert not any(hasattr(lit, "_neg") for lit in lits)


def test_sigma_delta_examples():
    s = Sig()
    f = s.fn("f", 2)
    g = s.fn("g", 1)
    z = s.params("z")[0]
    y1 = mk_symbol("y1", 0, "defined")
    y2 = mk_symbol("y2", 0, "defined")
    fzz = intern(f, (z, z))
    d1 = let_env({}, [(y1, fzz)])
    assert term_substitute(intern(g, (const(y1),)), d1) is intern(g, (fzz,))
    d2 = let_env({}, [(y1, fzz), (y2, intern(f, (const(y1), const(y1))))])
    assert term_substitute(const(y2), d2) is intern(f, (fzz, fzz))
    assert term_substitute(fzz, let_env({}, [])) is fzz


def test_sigma_delta_idempotent_on_output():
    s = Sig()
    f = s.fn("f", 2)
    z = s.params("z")[0]
    y1 = mk_symbol("y1", 0, "defined")
    d = let_env({}, [(y1, intern(f, (z, z)))])
    out = term_substitute(intern(f, (const(y1), z)), d)
    assert term_substitute(out, d) is out


def test_unravel_examples():
    s = Sig()
    h = s.fn("h", 1)
    z0, z3 = s.params("z0", "z3")
    y1 = mk_symbol("y1", 0, "defined")
    y2 = mk_symbol("y2", 0, "defined")
    d = [(y1, z3), (y2, const(y1))]
    assert expand_lets(Let(tuple(d), Eq(intern(h, (const(y2),)), z0))) == Eq(intern(h, (z3,)), z0)
    assert expand_lets(Ne(z0, z3)) == Ne(z0, z3)
    # sides keep their order even when both become 0-ary
    assert expand_lets(Let(((y1, z0),), Ne(const(y1), z3))) == Ne(z0, z3)


def test_unravel_matches_exists_semantics():
    s = Sig()
    f = s.fn("f", 2)
    z = s.params("z")[0]
    y1 = mk_symbol("y1", 0, "defined")
    y2 = mk_symbol("y2", 0, "defined")
    d = [(y1, intern(f, (z, z))), (y2, intern(f, (const(y1), const(y1))))]
    defs = mk_and([Eq(const(yv), body) for yv, body in d])
    quantified_form = mk_and([defs, Eq(const(y2), z)])
    flat_form = expand_lets(Let(tuple(d), Eq(const(y2), z)))
    # forward: the definitions entail the unravelled body
    ok, _ = euf_valid(quantified_form, flat_form)
    assert ok
    # backward: substituting the definitional witnesses for the y's
    ok, _ = euf_valid(flat_form, expand_lets(Let(tuple(d), quantified_form)))
    assert ok


def test_expand_lets_is_one_pass(monkeypatch):
    n = 200
    f, z, entries, body = unary_chain(n)
    calls = 0
    original = terms.term_substitute

    def counting(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    monkeypatch.setattr(terms, "term_substitute", counting)
    monkeypatch.setattr(formulas, "term_substitute", counting)
    out = expand_lets(wrap_definitions(entries, body))
    want = z
    for _ in range(n):
        want = intern(f, (want,))
    assert out == Eq(want, z)
    assert calls <= 4 * n


def test_expand_lets_inner_binding_shadows_outer():
    s = Sig()
    f = s.fn("f", 1)
    a, z = s.params("a", "z")
    x = mk_symbol("x", 0, "defined")
    inner = Let(((x, intern(f, (const(x),))),), Eq(const(x), z))
    assert expand_lets(Let(((x, a),), inner)) == Eq(intern(f, (a,)), z)


def test_mk_and_mk_or_edge_cases():
    s = Sig()
    a, b, c = s.params("a", "b", "c")
    p, q, r = Eq(a, b), Eq(b, c), Ne(a, c)
    for mk, kind, unit, zero in ((mk_and, And, TRUE, FALSE), (mk_or, Or, FALSE, TRUE)):
        table = [
            ([], unit),  # empty input returns the unit
            ([p], p),  # one part returns itself
            ([p, kind((q, r))], kind((p, q, r))),  # nested same-kind parts flatten
            ([kind((p, kind((q, r))))], kind((p, kind((q, r))))),  # one level only
            ([q, p, q, kind((p, r))], kind((q, p, r))),  # duplicates keep their first position
            ([p, q, zero, r], zero),  # a zero part absorbs, even after other parts
            ([unit, p, unit, q], kind((p, q))),  # a unit part is dropped
            ([unit, unit], unit),
        ]
        for parts, want in table:
            assert mk(parts) == want, (mk.__name__, parts)
        assert mk(iter([p, q])) == kind((p, q))  # any iterable


def test_wrap_definitions_keeps_reached_entries_in_order():
    _, z, entries, _ = unary_chain(4)
    y = [const(sym) for sym, _ in entries]
    body = Eq(y[2], z)
    assert wrap_definitions(entries, body) == Let(tuple(entries[:3]), body)
    assert wrap_definitions(entries, Eq(z, z)) == Eq(z, z)


def test_compatible_difference_sets():
    s = Sig()
    f = s.fn("f", 2)
    z1, z3 = s.params("z1", "z3")
    e, e1, e2 = s.evars("e", "e1", "e2")
    assert compatible(intern(f, (z1, e)), intern(f, (z3, e))) == [(z1, z3)]
    assert compatible(intern(f, (z1, e1)), intern(f, (z1, e2))) is None
    assert compatible(intern(f, (z1, z3)), intern(f, (z1, z3))) == []
    g = s.fn("g", 2)
    assert compatible(intern(f, (z1, e)), intern(g, (z1, e))) is None


def test_eliminate_rewrites_only_literals_mentioning_the_symbol():
    s = Sig()
    f = s.fn("f", 2)
    z1, z2 = s.params("z1", "z2")
    e0, e1, e2 = s.evars("e0", "e1", "e2")
    apart = [Eq(intern(f, (z1, e0)), e2), Ne(e2, z2)]
    lits = [Eq(e1, z1), apart[0], Eq(intern(f, (e1, z2)), e0), apart[1], Ne(e1, e0)]
    eliminate(lits, 0, e1.head, z1)
    # e1 -> z1 leaves the parameter on the left of z1 != e0, so that pair swaps
    assert lits == [apart[0], Eq(intern(f, (z1, z2)), e0), apart[1], Ne(e0, z1)]
    assert lits[0] is apart[0] and lits[2] is apart[1]


def test_app_definition_shape():
    s = Sig()
    f = s.fn("f", 2)
    z1 = s.params("z1")[0]
    e0, e1 = s.evars("e0", "e1")
    assert is_app_definition(Eq(intern(f, (z1, z1)), e0))
    assert not is_app_definition(Eq(intern(f, (z1, e1)), e0))
    assert not is_app_definition(Eq(intern(f, (z1, z1)), z1))
    assert not is_app_definition(Eq(e0, z1))


def test_orientation_total_order():
    s = Sig()
    z1 = s.params("z1")[0]
    e0, e1 = s.evars("e0", "e1")
    y = const(mk_symbol("y1", 0, "defined"))
    # higher eliminate index on the left; quantified above defined above parameter
    assert orient(Eq(e0, e1)) == Eq(e1, e0)
    assert orient(Eq(e1, e0)) == Eq(e1, e0)
    assert orient(Eq(z1, e0)) == Eq(e0, z1)
    assert orient(Ne(z1, y)) == Ne(y, z1)
    assert lit_substitute(Eq(e1, z1), {e1.head: e0}) == Eq(e0, z1)
    # a side with arguments is never reordered: f(e0)=e1 keeps its application shape
    fe0 = intern(s.fn("f", 1), (e0,))
    assert orient(Eq(fe0, e1)) == Eq(fe0, e1)
    assert lit_substitute(Eq(fe0, z1), {e0.head: e1}).lhs.args == (e1,)


def test_doubling_chain_compression():
    s = Sig()
    f = s.fn("f", 2)
    z = s.params("z")[0]
    entries = []
    prev = z
    for i in range(1, 11):
        y = mk_symbol(f"y{i}", 0, "defined")
        entries.append((y, intern(f, (prev, prev))))
        prev = const(y)
    out = term_substitute(prev, let_env({}, entries))
    assert out.size == 2 ** 11 - 1
    assert len(entries) == 10



def naive_tree_size(t):
    return 1 + sum(naive_tree_size(a) for a in t.args)


def test_intern_time_facts_match_term_walks():
    # Random DAGs over all four symbol kinds: each new application takes the
    # previous one as first argument, up to depth 50, and its other
    # arguments from a pool of small shared subterms.
    rng = random.Random(23)
    s = Sig()
    funs = [s.fn(f"f{i}", arity) for i, arity in enumerate((1, 2, 3, 1, 2))]
    leaves = s.params("p0", "p1") + s.evars("e0", "e1") + s.consts("defined", "y0") + s.consts("function", "c0")
    shared = list(leaves)
    checked = 0
    for _ in range(40):
        t = rng.choice(leaves)
        for depth in range(1, rng.randint(1, 50) + 1):
            f = rng.choice(funs)
            t = intern(f, (t, *(rng.choice(shared) for _ in range(f.arity - 1))))
            if depth < 3:
                shared.append(t)
            assert t.efree == all(sym.kind != "quantified" for sym in term_symbols(t))
            assert t.size == naive_tree_size(t)
            checked += 1
    assert checked > 500
    assert any(u.efree for u in shared) and not all(u.efree for u in shared)


def test_size_of_a_huge_shared_dag_is_read_not_walked():
    s = Sig()
    f = s.fn("f", 2)
    z = s.params("z")[0]
    (e,) = s.evars("e")
    for leaf, efree in ((z, True), (e, False)):
        t = leaf
        for _ in range(40):
            t = intern(f, (t, t))
        assert t.size == 2 ** 41 - 1
        assert t.efree is efree
        assert formulas.fsize(Eq(t, z)) == 2 ** 41 + 1
