"""Oracle tests: congruence closure against a brute-force partition oracle."""
from __future__ import annotations

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import Sig, brute_force_sat, random_flat_instance, shared_evar_text
from eufui import euf, formulas
from eufui.errors import Budget, ResourceLimitError
from eufui.euf import CongruenceState, _find_sat_cube, cc_sat, euf_equiv, euf_valid
from eufui.formulas import FALSE, TRUE, And, Implies, Let, Or, expand_lets, mk_and, mk_or, nnf
from eufui.parse import parse
from eufui.preprocess import flatten
from eufui.tableaux import compute_tableaux_ui
from eufui.terms import Eq, Ne, const, intern, mk_symbol


def test_cc_transitivity_unsat():
    s = Sig()
    a, b, c = s.params("a", "b", "c")
    assert not cc_sat([Eq(a, b), Eq(b, c), Ne(a, c)])


def test_cc_congruence_unsat():
    s = Sig()
    f = s.fn("f", 1)
    a, b, c = s.params("a", "b", "c")
    assert not cc_sat([Eq(intern(f, (a,)), b), Eq(a, c), Ne(intern(f, (c,)), b)])


def test_cc_nested_congruence_unsat():
    s = Sig()
    f = s.fn("f", 1)
    a, b = s.params("a", "b")
    fa = intern(f, (a,))
    ffa = intern(f, (fa,))
    assert not cc_sat([Eq(fa, b), Eq(intern(f, (b,)), a), Ne(ffa, a)])


def test_cc_equalities_alone_sat():
    s = Sig()
    f = s.fn("f", 2)
    a, b, c = s.params("a", "b", "c")
    assert cc_sat([Eq(intern(f, (a, b)), c), Eq(a, b), Eq(b, c)])


def test_cc_close_idempotent():
    s = Sig()
    f = s.fn("f", 1)
    a, b, c = s.params("a", "b", "c")
    st_ = CongruenceState()
    assert st_.assume(Eq(intern(f, (a,)), b))
    assert st_.assume(Eq(a, c))
    snapshot = {i: st_.find(i) for i in list(st_.parent)}
    st_.close()
    assert snapshot == {i: st_.find(i) for i in list(st_.parent)}
    st_.add(intern(f, (c,)))
    st_.close()
    assert st_.find(intern(f, (c,)).id) == st_.find(b.id)


def test_cc_matches_brute_force_seeded():
    rng = random.Random(20260823)
    agree = 0
    for _ in range(300):
        consts, _, lits = random_flat_instance(
            rng,
            nconsts=rng.randint(2, 6),
            nfuns=rng.randint(1, 2),
            nlits=rng.randint(1, 9),
        )
        assert cc_sat(lits) == brute_force_sat(consts, lits)
        agree += 1
    assert agree == 300


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_cc_matches_brute_force_hypothesis(seed):
    rng = random.Random(seed)
    consts, _, lits = random_flat_instance(
        rng,
        nconsts=rng.randint(2, 5),
        nfuns=rng.randint(1, 2),
        nlits=rng.randint(1, 8),
    )
    assert cc_sat(lits) == brute_force_sat(consts, lits)


def closure_snapshot(state):
    """Copies of everything undo must restore."""
    use = {r: list(apps) for r, apps in state.use.items()}
    return dict(state.parent), use, dict(state.sig), list(state.diseqs), list(state.lits)


def test_closure_undo_restores_marked_state_seeded():
    # Random runs of assume, mark and undo: the verdict always matches cc_sat
    # of the literals still assumed, and an undo restores the marked state.
    rng = random.Random(20261019)
    undos = 0
    for _ in range(150):
        _, _, lits = random_flat_instance(
            rng, nconsts=rng.randint(2, 6), nfuns=rng.randint(1, 2), nlits=rng.randint(4, 12)
        )
        state = CongruenceState()
        marks = [(0, closure_snapshot(state))]
        for _ in range(40):
            step = rng.random()
            if step < 0.6:
                lit = rng.choice(lits)
                assert state.assume(lit) == cc_sat(state.lits)
                assert not state.pending
            elif step < 0.8:
                marks.append((len(state.trail), closure_snapshot(state)))
            else:
                k = rng.randrange(len(marks))
                mark, snapshot = marks[k]
                del marks[k + 1:]
                state.undo(mark)
                undos += 1
                assert len(state.trail) == mark
                assert closure_snapshot(state) == snapshot
                find = state.find
                assert all(find(i) != find(j) for i, j in state.diseqs) == cc_sat(state.lits)
    assert undos > 1000


def test_closure_stays_broken_until_undone():
    # Only a union can break a recorded disequality, so an assume that makes
    # none checks its own pair; a broken state must still answer False.
    s = Sig()
    a, b, c, d = s.params("a", "b", "c", "d")
    state = CongruenceState()
    assert state.assume(Ne(a, b))
    mark = len(state.trail)
    assert not state.assume(Eq(a, b))
    assert not state.assume(Eq(c, d))
    assert not state.assume(Ne(a, c))  # no union, and its own pair holds
    assert not state.assume(Eq(d, c))  # already equal: no union at all
    state.undo(mark)
    assert state.lits == [Ne(a, b)]
    assert state.assume(Eq(c, d))
    assert state.assume(Ne(a, c))


def test_euf_valid_residue_example():
    s = Sig()
    f = s.fn("f", 2)
    (e,) = s.evars("e")
    z1, z2, z3, z4 = s.params("z1", "z2", "z3", "z4")
    hyp = mk_and([Eq(intern(f, (e, z1)), z2), Eq(intern(f, (e, z3)), z4)])
    concl = Implies(Eq(z1, z3), Eq(z2, z4))
    assert euf_valid(hyp, concl) == (True, None)


def test_euf_valid_trivial_and_countermodel():
    s = Sig()
    z1, z2, z3 = s.params("z1", "z2", "z3")
    assert euf_valid(Eq(z1, z2), Eq(z2, z1)) == (True, None)
    ok, cube = euf_valid(Eq(z1, z2), Eq(z1, z3))
    assert not ok
    assert set(cube) == {Eq(z1, z2), Ne(z1, z3)}
    assert cc_sat(cube)


def test_euf_valid_monotone_seeded():
    rng = random.Random(77)
    for _ in range(60):
        consts, _, lits = random_flat_instance(rng, nconsts=4, nfuns=1, nlits=5)
        extra = Eq(consts[0], consts[1])
        hyp = mk_and([l for l in lits[:3]])
        concl = mk_or([l for l in lits[3:]])
        try:
            ok1, _ = euf_valid(hyp, concl)
        except ResourceLimitError:
            continue
        if ok1:
            ok2, _ = euf_valid(mk_and([hyp, extra]), concl)
            assert ok2


def test_euf_equiv_examples():
    s = Sig()
    z1, z2, z3 = s.params("z1", "z2", "z3")
    a = Implies(Eq(z1, z2), Eq(z2, z3))
    assert euf_equiv(a, a) == (True, None)
    ok, witness = euf_equiv(Eq(z1, z2), Eq(z1, z3))
    assert not ok
    direction, cube = witness
    assert direction in ("forward", "backward")
    assert cc_sat(cube)


def test_euf_equiv_let_expansion():
    s = Sig()
    f = s.fn("f", 1)
    z = s.params("z")[0]
    y = mk_symbol("y1", 0, "defined")
    compressed = Let(((y, intern(f, (z,))),), Eq(const(y), z))
    assert euf_equiv(compressed, Eq(intern(f, (z,)), z)) == (True, None)


def many_cube_query():
    """Nine ten-way disjunctions and a goal: many cubes before any verdict."""
    s = Sig()
    ps = s.params(*[f"p{i}" for i in range(10)])
    big = mk_and([mk_or([Eq(ps[i], ps[j]) for j in range(10) if j != i]) for i in range(9)])
    return big, Ne(ps[0], ps[1])


def test_euf_valid_budget_cap():
    big, goal = many_cube_query()
    with pytest.raises(ResourceLimitError):
        euf_valid(big, goal, budget=Budget(max_cubes=3))


def test_euf_valid_checks_deadline_before_search(counting_clock):
    big, goal = many_cube_query()
    with pytest.raises(ResourceLimitError, match="timeout exceeded") as exc:
        euf_valid(big, goal, budget=Budget(deadline=0.5))
    assert counting_clock.reads == 1
    assert exc.value.stats == {"cubes_spent": 0}


def test_euf_valid_checks_deadline_per_cube(counting_clock):
    # One read comes before the search, then one per cube: the query has no let.
    big, goal = many_cube_query()
    with pytest.raises(ResourceLimitError, match="timeout exceeded") as exc:
        euf_valid(big, goal, budget=Budget(deadline=6.0))
    assert counting_clock.reads == 7
    assert exc.value.stats == {"cubes_spent": 6}


def test_euf_valid_true_and_false_edges():
    s = Sig()
    z1, z2 = s.params("z1", "z2")
    assert euf_valid(TRUE, TRUE) == (True, None)
    ok, cube = euf_valid(TRUE, Eq(z1, z2))
    assert not ok and cube == [Ne(z1, z2)]
    assert euf_valid(mk_and([Eq(z1, z2), Ne(z1, z2)]), Eq(z2, z1)) == (True, None)
    assert euf_valid(Ne(z1, z1), Eq(z1, z2)) == (True, None)


# The cube search's order, pinned by its closure calls.

def test_many_cube_query_cubes_spent(assumed_cubes):
    big, goal = many_cube_query()
    ok, cube = euf_valid(big, goal)
    assert len(assumed_cubes) == 8
    assert not ok and cc_sat(cube)


def test_search_assumes_each_atom_once_per_cube(assumed_cubes):
    # Both disjuncts are one atom. The clause stays open, not unit, while the
    # atom is free. Once a=b fails and a!=b is learned, b=a is refuted by the
    # assignment, and its complement is already assumed.
    s = Sig()
    f = s.fn("f", 1)
    a, b = s.params("a", "b")
    hyp = And((Ne(intern(f, (a,)), intern(f, (b,))), Or((Eq(a, b), Eq(b, a)))))
    assert euf_valid(hyp, FALSE) == (True, None)
    assert [len(c) for c in assumed_cubes] == [1, 2, 2]
    for cube in assumed_cubes:
        assert len({frozenset((lit.lhs, lit.rhs)) for lit in cube}) == len(cube)


def test_search_absorbs_a_lone_and_part_as_a_unit(assumed_cubes):
    # Once a != b, each of the first two clauses has one live part. Both are
    # units of one round, absorbed last first, so the And part's literals
    # join the cube ahead of y = z; branching on it would put them after.
    s = Sig()
    f = s.fn("f", 1)
    a, b, c, d, x, y, z = s.params("a", "b", "c", "d", "x", "y", "z")
    hyp = And((
        Ne(a, b),
        Or((Eq(a, b), And((Eq(c, d), Eq(intern(f, (c,)), x))))),
        Or((Eq(a, b), Eq(y, z))),
        Or((Eq(x, y), Eq(x, z))),
    ))
    ok, cube = euf_valid(hyp, FALSE)
    assert not ok
    assert cube == [Ne(a, b), Eq(intern(f, (c,)), x), Eq(c, d), Eq(y, z), Eq(x, y)]
    assert [len(c) for c in assumed_cubes] == [1, 2, 3, 4, 5]


def test_search_finds_a_clause_of_trivial_disequalities_false(assumed_cubes):
    # c != c, d != d and a != a have no live bit, so the first scan finds the
    # clause false before it branches on the open one.
    s = Sig()
    a, b, c, d, x, y, z = s.params("a", "b", "c", "d", "x", "y", "z")
    hyp = And((Eq(a, b), Or((Eq(x, y), Eq(x, z))), Or((Ne(c, c), Ne(d, d), Ne(a, a)))))
    assert euf_valid(hyp, FALSE) == (True, None)
    assert [len(c) for c in assumed_cubes] == [1]


def test_shared_evar_residue_cubes_spent(assumed_cubes):
    # The CLI's residue check of the tableaux result: 203 clauses, one per
    # negated disjunct, where the pins above come from queries of at most 8
    # literals.
    problem = parse(shared_evar_text(6))
    tab = compute_tableaux_ui(flatten(problem))
    assert euf_valid(mk_and(problem.body), tab.formula()) == (True, None)
    assert len(assumed_cubes) == 601


def test_shared_evar_residue_cubes_spent_at_bench_size(assumed_cubes):
    # The bench's shared-evar size: 877 clauses of literals over distinct
    # atoms, so each is decided by its live bits alone.
    problem = parse(shared_evar_text(7))
    tab = compute_tableaux_ui(flatten(problem))
    assert euf_valid(mk_and(problem.body), tab.formula()) == (True, None)
    assert len(assumed_cubes) == 2587


def test_shared_evar_residue_reads_query_in_place(monkeypatch, assumed_cubes):
    # The search reads lets and negations in place: no let-free or NNF copy
    # of the tableaux DNF is built, and the decision order is unchanged.
    def refuse(*_):
        raise AssertionError("the oracle copied its query")

    for module in (formulas, euf):
        monkeypatch.setattr(module, "expand_lets", refuse)
        monkeypatch.setattr(module, "nnf", refuse)
    problem = parse(shared_evar_text(6))
    tab = compute_tableaux_ui(flatten(problem))
    assert euf_valid(mk_and(problem.body), tab.formula()) == (True, None)
    assert len(assumed_cubes) == 601


def test_nnf_hands_back_an_unchanged_formula():
    # The tableaux DNF is a let-free positive disjunction of conjunctions of
    # literals, so its negation normal form is the formula itself.
    tab = compute_tableaux_ui(flatten(parse(shared_evar_text(6))))
    assert nnf(tab.formula()) is tab.formula()


def test_nnf_negates_a_conjunction_of_literals_into_one_clause():
    s = Sig()
    f = s.fn("f", 1)
    a, b, c = s.params("a", "b", "c")
    y = mk_symbol("y", 0, "defined")
    p, q, r = Eq(intern(f, (a,)), b), Ne(a, c), Eq(b, c)
    cases = [
        ((p, q, r), mk_or([p.neg, q.neg, r.neg])),
        ((p, q, p), mk_or([p.neg, q.neg])),
        ((q,), q.neg),
        ((p, Eq(a, a)), p.neg),
        ((p, Ne(c, c)), TRUE),
    ]
    for parts, want in cases:
        assert nnf(And(parts), False) == want
    # Under a let, each literal is substituted first: y = b becomes f(a) = b.
    assert nnf(Let(((y, intern(f, (a,))),), And((Eq(const(y), b), q))), False) == mk_or([p.neg, q.neg])


def random_nnf(rng, atoms, depth):
    """A random And/Or tree over the given literals."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(atoms)
    node = And if rng.random() < 0.5 else Or
    return node(tuple(random_nnf(rng, atoms, depth - 1) for _ in range(rng.randint(2, 3))))


def dnf(f, positive=True):
    """The cubes of f, or of its negation, by plain enumeration."""
    if f is TRUE or f is FALSE:
        return [[]] if (f is TRUE) is positive else []
    if isinstance(f, (Eq, Ne)):
        if isinstance(f, Eq) is positive:
            return [[Eq(f.lhs, f.rhs)]]
        return [[Ne(f.lhs, f.rhs)]]
    conj = isinstance(f, And) is positive
    parts = [dnf(p, positive) for p in f.parts]
    if not conj:
        return [c for p in parts for c in p]
    cubes = [[]]
    for p in parts:
        cubes = [c + d for c in cubes for d in p]
    return cubes


def test_euf_valid_matches_dnf_enumeration_seeded(assumed_cubes):
    rng = random.Random(20261018)
    queries = []
    for _ in range(300):
        _, _, atoms = random_flat_instance(
            rng, nconsts=rng.randint(2, 4), nfuns=1, nlits=rng.randint(1, 8)
        )
        hyp, concl = random_nnf(rng, atoms, 3), random_nnf(rng, atoms, 3)
        queries.append((hyp, concl, *euf_valid(hyp, concl)))
    # Counted before the checks below, whose cc_sat calls assume too.
    assert len(assumed_cubes) == 558
    verdicts = []
    for hyp, concl, ok, cube in queries:
        cubes = [h + c for h in dnf(hyp) for c in dnf(concl, positive=False)]
        want = not any(cc_sat(c) for c in cubes)
        assert ok == want
        if not ok:
            assert cc_sat(cube)
        verdicts.append(ok)
    assert sum(verdicts) == 158


def random_query(rng, consts, fns, ys, depth, bound=()):
    """A formula with Implies, Let, nested And/Or, TRUE and FALSE.

    Parts repeat, as the same node or an equal one, and literals can have
    equal sides or get them from a let. A let binds symbols from ys, each
    to a term over consts and the symbols bound before it, which may rebind
    one bound outside it.
    """
    leaves = list(consts) + [const(y) for y in bound]

    def term():
        if rng.random() < 0.4:
            f = rng.choice(fns)
            return intern(f, tuple(rng.choice(leaves) for _ in range(f.arity)))
        return rng.choice(leaves)

    roll = rng.random()
    if depth == 0 or roll < 0.2:
        if roll < 0.02:
            return rng.choice((TRUE, FALSE))
        lhs = term()
        rhs = lhs if rng.random() < 0.1 else rng.choice(leaves)
        return Eq(lhs, rhs) if rng.random() < 0.5 else Ne(lhs, rhs)
    if roll < 0.35:
        return Implies(random_query(rng, consts, fns, ys, depth - 1, bound),
                       random_query(rng, consts, fns, ys, depth - 1, bound))
    if roll < 0.5:
        bindings = []
        bound = list(bound)
        for y in rng.sample(ys, rng.randint(1, 2)):
            bindings.append((y, term()))
            leaves.append(const(y))
            bound.append(y)
        return Let(tuple(bindings), random_query(rng, consts, fns, ys, depth - 1, bound))
    parts = [random_query(rng, consts, fns, ys, depth - 1, bound) for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.2:
        parts.append(rng.choice(parts))
    return (And if roll < 0.75 else Or)(tuple(parts))


def test_search_reads_lets_and_negations_in_place_seeded(assumed_cubes):
    # The search reads a query as euf_valid receives it. For each random
    # query it must make the same closure calls, in the same order, and
    # return the same cube as on the reference: the query's let-free
    # negation normal form, built by expand_lets and nnf. The verdicts must
    # match the plain DNF enumeration.
    rng = random.Random(20261019)
    ys = [mk_symbol(f"y{i}", 0, "defined") for i in range(3)]
    verdicts, spent = [], 0
    for _ in range(300):
        consts, fns, _ = random_flat_instance(rng, nconsts=rng.randint(2, 4), nfuns=1, nlits=0)
        hyp, concl = (random_query(rng, consts, fns, ys, 3) for _ in range(2))
        # expand_lets stays the independent reference for nnf's let handling.
        for q in (hyp, concl):
            for positive in (True, False):
                assert nnf(q, positive) == nnf(expand_lets(q), positive)
        cases = [
            (lambda: _find_sat_cube(hyp, FALSE, Budget()),
             lambda: _find_sat_cube(nnf(expand_lets(hyp)), FALSE, Budget())),
            (lambda: euf_valid(hyp, concl)[1],
             lambda: _find_sat_cube(mk_and([nnf(expand_lets(hyp)), nnf(expand_lets(concl), False)]), FALSE, Budget())),
        ]
        for read_in_place, read_copy in cases:
            start = len(assumed_cubes)
            cube = read_in_place()
            mid = len(assumed_cubes)
            assert read_copy() == cube
            assert assumed_cubes[start:mid] == assumed_cubes[mid:]
            verdicts.append(cube is None)
            spent += mid - start
        hyp_cubes = dnf(nnf(expand_lets(hyp)))
        concl_cubes = dnf(nnf(expand_lets(concl)), positive=False)
        assert verdicts[-2] == (not any(cc_sat(h) for h in hyp_cubes))
        assert verdicts[-1] == (not any(cc_sat(h + c) for h in hyp_cubes for c in concl_cubes))
    assert (sum(verdicts), spent) == (163, 762)


def test_search_mixes_mask_and_list_clauses_seeded(assumed_cubes):
    # Every clause is decided by its parts' bits. Each query mixes clauses
    # of distinct non-trivial literals with the cases that need a rule: a
    # clause may also get an And part (a bit no literal assigns), its first
    # literal flipped (b = a beside a = b) or complemented (a repeated
    # atom), or a trivial literal (never filed, or bit 0).
    rng = random.Random(20261020)
    queries = []
    for _ in range(200):
        consts, _, atoms = random_flat_instance(rng, nconsts=rng.randint(3, 5), nfuns=1, nlits=6)
        clauses = []
        for _ in range(rng.randint(2, 4)):
            parts = rng.sample(atoms, rng.randint(1, 3))
            first, defect = parts[0], rng.randrange(8)
            if defect == 4:
                parts.append(And(tuple(rng.sample(atoms, 2))))
            elif defect == 5:
                parts.append(type(first)(first.rhs, first.lhs))
            elif defect == 6:
                parts.append(first.neg)
            elif defect == 7:
                c = rng.choice(consts)
                parts.append(rng.choice((Eq, Ne))(c, c))
            clauses.append(Or(tuple(parts)))
        concl = rng.choice((rng.choice(atoms), And(tuple(rng.sample(atoms, 3)))))
        queries.append((And(tuple(clauses)), concl, *euf_valid(And(tuple(clauses)), concl)))
    # Counted before the checks below, whose cc_sat calls assume too.
    assert len(assumed_cubes) == 461
    verdicts = []
    for hyp, concl, ok, cube in queries:
        assert ok == (not any(cc_sat(h + c) for h in dnf(hyp) for c in dnf(concl, positive=False)))
        if not ok:
            assert cc_sat(cube)
        verdicts.append(ok)
    assert sum(verdicts) == 30


def random_dnf(rng, consts, fns, ys):
    """A disjunction of conjunctions like the tableaux's, mixed with every
    shape a negated disjunct can take: one literal, a repeated literal,
    a = b beside b = a, a literal beside its complement, a trivial literal,
    a let, an implication, a nested disjunction, TRUE, FALSE and a repeated
    disjunct. One time in ten it is a lone conjunction instead."""

    def lit(trivial=False):
        lhs = rng.choice(consts)
        if rng.random() < 0.4:
            f = rng.choice(fns)
            lhs = intern(f, tuple(rng.choice(consts) for _ in range(f.arity)))
        rhs = lhs if trivial else rng.choice([c for c in consts if c is not lhs])
        return (Eq if rng.random() < 0.5 else Ne)(lhs, rhs)

    def conjunction():
        parts = list(dict.fromkeys(lit() for _ in range(rng.randint(2, 4))))
        return And(tuple(parts)) if len(parts) > 1 else parts[0]

    if rng.random() < 0.1:
        return conjunction()
    disjuncts = []
    for _ in range(rng.randint(1, 7)):
        roll = rng.random()
        d = conjunction()
        parts = d.parts if d.__class__ is And else (d,)
        first = parts[0]
        if roll < 0.15:
            d = lit()
        elif roll < 0.55:
            pass
        elif roll < 0.6:
            d = And((*parts, rng.choice(parts)))
        elif roll < 0.65:
            d = And((*parts, type(first)(first.rhs, first.lhs)))
        elif roll < 0.7:
            d = And((*parts, first.neg))
        elif roll < 0.75:
            d = And((*parts, lit(trivial=True)))
        elif roll < 0.8:
            y = rng.choice(ys)
            d = Let(((y, rng.choice(consts)),), And((Eq(const(y), first.lhs), *parts)))
        elif roll < 0.85:
            d = And((Implies(first, lit()), *parts[1:], lit()))
        elif roll < 0.9:
            d = Or((conjunction(), conjunction()))
        elif roll < 0.93:
            d = rng.choice((TRUE, FALSE))
        elif disjuncts:
            d = rng.choice(disjuncts)
            if d.__class__ is And and rng.random() < 0.5:
                d = And(d.parts)  # equal, not the same object
        disjuncts.append(d)
    return Or(tuple(disjuncts))


def test_search_files_a_negated_dnf_as_nnf_does_seeded(assumed_cubes):
    # euf_valid reads a DNF conclusion's conjunctions as clauses over their
    # own parts. For each random query it must make the same closure calls,
    # in the same order, and return the same cube as on the reference: the
    # hypothesis and the conclusion's negation as `nnf` builds them. Parts of
    # the hypothesis may equal parts of the conclusion's negation, so that
    # joining the two drops the later copy.
    rng = random.Random(20261020)
    ys = [mk_symbol(f"y{i}", 0, "defined") for i in range(2)]
    verdicts, spent, enumerated = [], 0, 0
    for _ in range(400):
        consts, fns, _ = random_flat_instance(rng, nconsts=rng.randint(3, 5), nfuns=1, nlits=0)
        concl = random_dnf(rng, consts, fns, ys)
        hyp_parts = [random_query(rng, consts, fns, ys, 2) for _ in range(rng.randint(0, 2))]
        disjuncts = concl.parts if concl.__class__ is Or else (concl,)
        for d in rng.sample(disjuncts, min(len(disjuncts), rng.randint(0, 2))):
            hyp_parts.append(nnf(d, rng.random() < 0.3))
        hyp = mk_and(hyp_parts)
        start = len(assumed_cubes)
        ok, cube = euf_valid(hyp, concl)
        mid = len(assumed_cubes)
        reference = _find_sat_cube(mk_and([nnf(hyp), nnf(concl, False)]), FALSE, Budget())
        assert reference == cube
        assert assumed_cubes[start:mid] == assumed_cubes[mid:]
        verdicts.append(ok)
        spent += mid - start
        # The verdict against plain enumeration, where that stays small.
        hyp_cubes, concl_cubes = dnf(nnf(hyp)), dnf(nnf(concl), positive=False)
        if len(hyp_cubes) * len(concl_cubes) <= 1000:
            assert ok == (not any(cc_sat(h + c) for h in hyp_cubes for c in concl_cubes))
            enumerated += 1
    assert 0 < sum(verdicts) < len(verdicts) and spent > 1000 and enumerated > 250


def test_search_skips_a_disequality_the_closure_refutes(assumed_cubes):
    # a = c and c = b put a and b in one class, so the branch clause's part
    # a != b must fail: its complement is assumed without trying it.
    s = Sig()
    a, b, c, x, y, z = s.params("a", "b", "c", "x", "y", "z")
    hyp = And((Eq(a, c), Eq(c, b), Or((Ne(a, b), Eq(x, y))), Or((Eq(x, y), Eq(x, z), Eq(y, z)))))
    ok, cube = euf_valid(hyp, FALSE)
    assert not ok and cube == [Eq(c, b), Eq(a, c), Eq(a, b), Eq(x, y)]
    assert [len(c) for c in assumed_cubes] == [1, 2, 3, 4]


def test_closure_rescan_compresses_paths():
    # Each link of the chain is a union, and each union rescans all 29
    # disequalities. Without path compression the walk from each of c0 to
    # c27 to its root grows by one step per link.
    s = Sig()
    chain = s.params(*(f"c{i}" for i in range(4001)))
    apart = s.params(*(f"d{i}" for i in range(28)))
    diseqs = [Ne(chain[k], apart[k]) for k in range(28)] + [Ne(chain[0], chain[-1])]
    links = [Eq(chain[i], chain[i + 1]) for i in range(4000)]
    started = time.monotonic()
    assert not cc_sat(diseqs + links)
    assert time.monotonic() - started < 1.0
