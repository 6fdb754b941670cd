"""Oracle tests: congruence closure against a brute-force partition oracle."""
from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import Sig, brute_force_sat, random_flat_instance, shared_evar_text
from eufui.errors import Budget, ResourceLimitError
from eufui.euf import CongruenceState, cc_sat, euf_equiv, euf_valid
from eufui.formulas import FALSE, TRUE, And, Implies, Let, Or, mk_and, mk_or
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
    # Four reads come before the search: one ahead of each let-expansion and NNF pass.
    big, goal = many_cube_query()
    with pytest.raises(ResourceLimitError, match="timeout exceeded") as exc:
        euf_valid(big, goal, budget=Budget(deadline=6.0))
    assert counting_clock.reads == 7
    assert exc.value.stats == {"cubes_spent": 3}


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
    # Both disjuncts are one atom. Once a=b fails and a!=b is learned, b=a is
    # refuted by the assignment, and its complement is already assumed.
    s = Sig()
    f = s.fn("f", 1)
    a, b = s.params("a", "b")
    hyp = And((Ne(intern(f, (a,)), intern(f, (b,))), Or((Eq(a, b), Eq(b, a)))))
    assert euf_valid(hyp, FALSE) == (True, None)
    assert [len(c) for c in assumed_cubes] == [1, 2, 2]
    for cube in assumed_cubes:
        assert len({frozenset((lit.lhs, lit.rhs)) for lit in cube}) == len(cube)


def test_shared_evar_residue_cubes_spent(assumed_cubes):
    # The CLI's residue check of the tableaux result: 203 clauses, one per
    # negated disjunct, where the pins above come from queries of at most 8
    # literals.
    problem = parse(shared_evar_text(6))
    tab = compute_tableaux_ui(flatten(problem))
    assert euf_valid(mk_and(problem.body), tab.formula()) == (True, None)
    assert len(assumed_cubes) == 693


def random_nnf(rng, atoms, depth):
    """A random And/Or tree over the given literals."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(atoms)
    node = And if rng.random() < 0.5 else Or
    return node(tuple(random_nnf(rng, atoms, depth - 1) for _ in range(rng.randint(2, 3))))


def dnf(f, positive=True):
    """The cubes of f, or of its negation, by plain enumeration."""
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
