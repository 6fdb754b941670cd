"""Ground EUF decision procedures: congruence closure and validity checks.

cc_sat decides conjunctions of ground (dis)equalities. euf_valid looks for
a cc-satisfiable cube of the hypothesis and the negated conclusion over one
backtrackable closure (Nieuwenhuis & Oliveras, Inf. & Comp. 2007). Each
literal assumed spends a cube of the cap and checks the deadline, which is
also checked before the query is read and at each let read.

Queries of the shapes the engines produce go to `_walk_disjuncts`. The
hypothesis becomes cubes: literals and ground Horn clauses `A ⇒ g` common
to all, and the literals each part of its one Or adds. The conclusion
becomes conjuncts `A ⇒ goal`, each goal a literal, FALSE or an Or of
cubes. For each cube and conjunct, A is assumed and the goal's disjuncts
are split on by their own literals (DPLL(T): Nieuwenhuis, Oliveras &
Tinelli, JACM 2006); after each union the Horn clauses whose antecedents
hold fire, with no case split (Gallier, JSC 1987). Other queries go to
`_reference_search`, a plain case split.

Every change the closure makes goes on its trail, and a failed branch
undoes the trail to the mark taken before it. A union puts the root with
the shorter use list under the other, so an application only ever moves
to a use list at least twice as long (Downey, Sethi & Tarjan, JACM 1980).
"""
from __future__ import annotations

import functools
from collections import deque

from .errors import Budget
from .formulas import FALSE, TRUE, And, FFalse, FTrue, Implies, Let, Or, _nnf, expand_lets, let_env, mk_and, nnf
from .terms import Eq, Ne, Term, term_substitute

# bench/tracing.py wraps these two names in this module; the oracle reads
# its queries through `_read` and `_nnf` and calls neither.
expand_lets, nnf = expand_lets, nnf


# Trail entry kinds; each entry records one change for `undo` to revert.
_NODE, _SIG, _UNION, _LINK, _LIT = range(5)
_LIT_ENTRY = (_LIT,)


class CongruenceState:
    """Backtrackable union-find over term ids with signatures and use lists.

    Every change is logged on `trail`, and `undo(mark)` reverts to the state
    the closure had when the trail held `mark` entries. `assume` drains the
    pending merges before it returns, so no mark ever has merges pending.
    `lits` are the literals assumed, in order, and `diseqs` the id pairs of
    the disequalities among them. `broken` is the length `lits` had after
    the assume that broke a disequality, or 0 while none is broken.
    """

    def __init__(self):
        self.parent: dict[int, int] = {}
        self.use: dict[int, list[Term]] = {}
        self.sig: dict[tuple, int] = {}
        self.pending: deque[tuple[int, int]] = deque()
        self.lits: list = []
        self.diseqs: list[tuple[int, int]] = []
        self.trail: list[tuple] = []
        self.unions = 0  # unions made so far; undo leaves it, assume compares it
        self.broken = 0

    def find(self, i: int) -> int:
        # Path compression is logged: an unlogged link would outlive the undo
        # of the union it jumps over.
        parent = self.parent
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:
            self.trail.append((_LINK, i, parent[i]))
            parent[i], i = root, parent[i]
        return root

    def add(self, t: Term) -> None:
        """Enter t and its subterms, arguments first, on an explicit stack."""
        parent, use, sig, trail = self.parent, self.use, self.sig, self.trail
        stack = [t]
        while stack:
            u = stack[-1]
            if u.id in parent:
                stack.pop()
                continue
            missing = [a for a in u.args if a.id not in parent]
            if missing:
                stack.extend(missing)
                continue
            stack.pop()
            parent[u.id] = u.id
            reps = tuple(self.find(a.id) for a in u.args)
            key = None
            if reps:
                key = (u.head.uid, reps)
                other = sig.get(key)
                if other is None:
                    sig[key] = u.id
                else:
                    self.pending.append((u.id, other))
                    key = None
                reps = set(reps)
                for r in reps:
                    use.setdefault(r, []).append(u)
            trail.append((_NODE, u.id, key, reps))

    def close(self) -> None:
        """Drain pending merges until congruence-closed; idempotent."""
        parent, use, sig, trail, find = self.parent, self.use, self.sig, self.trail, self.find
        while self.pending:
            i, j = self.pending.popleft()
            ri, rj = find(i), find(j)
            if ri == rj:
                continue
            if len(use.get(ri, ())) > len(use.get(rj, ())):
                ri, rj = rj, ri
            parent[ri] = rj
            self.unions += 1
            moved = use.pop(ri, None)
            trail.append((_UNION, ri, rj, moved))
            if not moved:
                continue
            # rj's use list is at least as long, so it exists.
            use[rj].extend(moved)
            # Re-canonicalize signatures of applications that mention ri. Their
            # stale keys stay in sig: they hold ri, which is not a root again
            # unless this union is undone.
            for app in moved:
                key = (app.head.uid, tuple(find(a.id) for a in app.args))
                other = sig.get(key)
                if other is None:
                    sig[key] = app.id
                    trail.append((_SIG, key))
                elif find(other) != find(app.id):
                    self.pending.append((app.id, other))

    def assume(self, lit) -> bool:
        """Add lit to the closure; False once a recorded disequality breaks.

        Only a union can break a disequality recorded before, so an assume
        that makes none checks just its own. A broken state stays broken
        until `undo` goes past the assume that broke it.
        """
        lhs, rhs = lit.lhs, lit.rhs
        if lhs.id not in self.parent:
            self.add(lhs)
        if rhs.id not in self.parent:
            self.add(rhs)
        self.lits.append(lit)
        self.trail.append(_LIT_ENTRY)
        unions = self.unions
        if lit.__class__ is Ne:
            self.diseqs.append((lhs.id, rhs.id))
        else:
            self.pending.append((lhs.id, rhs.id))
        # A new application can queue a congruence merge too.
        if self.pending:
            self.close()
        if not self.broken:
            find = self.find
            if self.unions != unions:
                # A side at most one link below its root is read in place;
                # a longer path goes through `find`, which compresses it.
                parent = self.parent
                for i, j in self.diseqs:
                    ri, rj = parent[i], parent[j]
                    if parent[ri] != ri:
                        ri = find(i)
                    if parent[rj] != rj:
                        rj = find(j)
                    if ri == rj:
                        self.broken = len(self.lits)
                        break
            elif lit.__class__ is Ne and find(lhs.id) == find(rhs.id):
                self.broken = len(self.lits)
        return not self.broken

    def undo(self, mark: int) -> None:
        """Revert every change logged since the trail held mark entries."""
        parent, use, sig, trail = self.parent, self.use, self.sig, self.trail
        while len(trail) > mark:
            entry = trail.pop()
            kind = entry[0]
            if kind == _SIG:
                del sig[entry[1]]
            elif kind == _UNION:
                _, ri, rj, moved = entry
                parent[ri] = ri
                if moved:
                    del use[rj][-len(moved):]
                    use[ri] = moved
            elif kind == _LINK:
                parent[entry[1]] = entry[2]
            elif kind == _NODE:
                _, i, key, reps = entry
                del parent[i]
                if key is not None:
                    del sig[key]
                # No use list is ever empty, so one emptied here was made for i.
                for r in reps:
                    apps = use[r]
                    apps.pop()
                    if not apps:
                        del use[r]
            else:  # _LIT
                if isinstance(self.lits.pop(), Ne):
                    self.diseqs.pop()
                if len(self.lits) < self.broken:
                    self.broken = 0


def cc_sat(literals) -> bool:
    """Satisfiability of a conjunction of ground Eq/Ne literals."""
    state = CongruenceState()
    return all(state.assume(lit) for lit in literals)


def _reference_search(hyp, concl, budget: Budget):
    """A cc-satisfiable cube of hyp and the negation of concl, or None.

    `formulas._nnf` reads the query once. Each literal under an And is
    assumed, then the first Or that no Eq part held by the closure
    satisfies is split on, part by part, the closure undone between parts.
    """
    stats = {"cubes_spent": 0}
    check = functools.partial(budget.check_time, stats)
    closure = CongruenceState()
    parent, find = closure.parent, closure.find

    def search(todo, ors):
        while todo:
            g = todo.pop()
            kind = g.__class__
            if kind is And:
                todo.extend(reversed(g.parts))
            elif kind is Or:
                ors.append(g)
            elif kind is FFalse:
                return None
            elif kind is not FTrue:
                budget.count(stats, "cubes_spent")
                check()
                if not closure.assume(g):
                    return None
        for k, g in enumerate(ors):
            if not any(p.__class__ is Eq and p.lhs.id in parent and p.rhs.id in parent
                       and find(p.lhs.id) == find(p.rhs.id) for p in g.parts):
                break
        else:
            return list(closure.lits)
        for p in g.parts:
            mark = len(closure.trail)
            cube = search([p], ors[k + 1:])
            if cube is not None:
                return cube
            closure.undo(mark)
        return None

    return search([mk_and([_nnf(hyp, True, {}, {}, check), _nnf(concl, False, {}, {}, check)])], [])


def _read(f, env, memo, ante, out, check) -> bool:
    """Append f, read as a conjunction of items ante ⇒ goal, to out as
    (ante, goal, env), lets substituted; False for any other shape. ante is
    a tuple of literals, goal a literal, FALSE or an Or read under env ({}
    for the others). Items true on their face and a = a in ante are left out."""
    kind = f.__class__
    if kind is Eq or kind is Ne:
        if env:
            lhs, rhs = term_substitute(f.lhs, env, memo), term_substitute(f.rhs, env, memo)
            if lhs is not f.lhs or rhs is not f.rhs:
                f = kind(lhs, rhs)
        if f.lhs is f.rhs:
            if kind is Eq:
                return True
            f = FALSE
    elif kind is And:
        return all(_read(p, env, memo, ante, out, check) for p in f.parts)
    elif kind is Implies:
        lhs = _cube(f.lhs, env, check)
        return lhs is FALSE or lhs is not None and _read(f.rhs, env, memo, (*ante, *lhs), out, check)
    elif kind is Let:
        check()
        return _read(f.body, let_env(env, f.bindings), {}, ante, out, check)
    elif kind is FFalse:
        f = FALSE
    elif kind is not Or:
        return kind is FTrue
    out.append((ante, f, env if kind is Or else {}))
    return True


def _cube(f, env, check):
    """f's literals if it is a conjunction of them under env; FALSE, or None."""
    items = []
    if not _read(f, env, {}, (), items, check) or any(a or g.__class__ is Or for a, g, _ in items):
        return None
    return FALSE if any(g is FALSE for _, g, _ in items) else [g for _, g, _ in items]


_ROW_BITS = bytes.maketrans(b"\0\1", b"01")


def _disjuncts(parts, env, check):
    """The walk's reading of a disjunction under env: the disjuncts' literals,
    kill masks and the disjuncts alive; TRUE when one holds on its face,
    None when one is no conjunction of literals. kills[atom << 1 | (cls is
    Ne)] masks the disjuncts that assigning cls to atom falsifies."""
    n = len(parts)
    rows, cubes, dropped = {}, [], 0
    for i, d in enumerate(parts):
        lits = _cube(d, env, check) if env else d.parts if d.__class__ is And else (d,)
        while True:
            if lits is None:
                return None
            if lits is FALSE:
                dropped, lits = dropped | 1 << i, ()
            for p in lits:
                if p.__class__ is not Eq and p.__class__ is not Ne:
                    break
                row = rows.get(p)
                if row is None:
                    if p.lhs is p.rhs:
                        break
                    row = rows[p] = bytearray(n)
                row[i] = 1
            else:
                break
            lits = _cube(d, env, check)  # TRUE, FALSE, a = a or a let
        cubes.append(lits)
    kills, held = {}, 0
    for p, row in rows.items():
        mask = int(row.translate(_ROW_BITS)[::-1], 2)
        key = p.atom << 1 | (p.__class__ is Eq)
        kills[key] = kills.get(key, 0) | mask
        held |= mask
    if ~(held | dropped) & ((1 << n) - 1):
        return TRUE
    return cubes, kills, held & ~dropped


def _query(hyp, concl, check):
    """The query as `_walk_disjuncts` takes it, FALSE when hyp is false on
    its face, or None. hyp gives literals, Horn clauses (antecedent Eqs, goal
    Eq or FALSE, a Ne goal moved to the antecedent) and its one Or's cubes;
    concl gives conjuncts (antecedent, goal read by `_disjuncts`)."""
    items = []
    if not _read(hyp, {}, {}, (), items, check):
        return None
    lits, clauses, alternatives = [], [], None
    for ante, g, env in items:
        if g.__class__ is Or and not ante and alternatives is None:
            alternatives = [_cube(p, env, check) for p in g.parts]
        elif g.__class__ is Or or any(a.__class__ is Ne for a in ante):
            return None
        elif ante:
            clauses.append(((*ante, g.neg), FALSE) if g.__class__ is Ne else (ante, g))
        elif g is FALSE:
            return FALSE
        else:
            lits.append(g)
    if alternatives is not None and None in alternatives:
        return None
    items, conjuncts = [], []
    if not _read(concl, {}, {}, (), items, check):
        return None
    for ante, g, env in items:
        goal = _disjuncts(g.parts if g.__class__ is Or else () if g is FALSE else (g,), env, check)
        if goal is None:
            return None
        if goal is not TRUE:
            conjuncts.append((ante, goal))
    alternatives = [()] if alternatives is None else [a for a in alternatives if a is not FALSE]
    return (lits, clauses, alternatives), conjuncts


def _walk_disjuncts(cubes, conjuncts, budget: Budget, stats: dict):
    """A cc-satisfiable cube of a hypothesis cube that falsifies a
    conclusion conjunct, or None.

    One closure serves the query: each cube is assumed, keeping the prefix
    it shares with the one before, then each conjunct's antecedent under a
    mark. After each union every Horn clause whose antecedent sides share a
    class fires, until none is left; a fired FALSE or a broken closure fails
    the branch. The least congruence that satisfies the fired clauses
    falsifies every unfired antecedent, so it is a model of the cube.

    A goal's lowest disjunct alive is walked to its first undecided literal,
    decided true, then, once that fails, false, killing the disjunct; one the
    closure holds needs no assume. A disjunct whose every literal holds
    refutes the branch; none alive leaves the closure's literals as the cube.
    """
    lits, clauses, alternatives = cubes
    closure = CongruenceState()
    parent, find = closure.parent, closure.find
    value = {}  # atom -> the class of the literal the search holds on it
    assigned = []  # the atoms in value, in the order they were assigned

    def assume(lit) -> bool:
        budget.count(stats, "cubes_spent")
        budget.check_time(stats)
        return closure.assume(lit)

    def decide(lit) -> bool:
        cls = value.get(lit.atom)
        if cls is not None:
            return cls is lit.__class__
        value[lit.atom] = lit.__class__
        assigned.append(lit.atom)
        unions = closure.unions
        return assume(lit) and (closure.unions == unions or propagate())

    def propagate() -> bool:
        fired = True
        while fired:
            fired = False
            for ante, goal in clauses:
                if goal is not FALSE and find(goal.lhs.id) == find(goal.rhs.id):
                    continue
                if all(find(a.lhs.id) == find(a.rhs.id) for a in ante):
                    if goal is FALSE or not assume(goal):
                        return False
                    fired = True
        return True

    def undo(mark, amark):
        closure.undo(mark)
        for atom in assigned[amark:]:
            del value[atom]
        del assigned[amark:]

    def walk(cubes, kills, alive):
        for key, mask in kills.items():
            cls = value.get(key >> 1)
            if cls is not None and (cls is Ne) == key & 1:
                alive &= ~mask
        # One frame per branch taken and not yet failed: the marks before it,
        # its literal, alive and the walked disjunct; the complement kills it.
        frames = []
        i = j = 0
        while True:
            while alive:
                if not alive >> i & 1:
                    i, j = (alive & -alive).bit_length() - 1, 0
                # Every literal of an alive disjunct whose atom is assigned holds.
                lits = cubes[i]
                end = len(lits)
                while j < end and lits[j].atom in value:
                    j += 1
                if j == end:
                    break
                lit = lits[j]
                atom, lhs, rhs = lit.atom, lit.lhs.id, lit.rhs.id
                if lhs in parent and rhs in parent and find(lhs) == find(rhs):
                    value[atom] = Eq
                    assigned.append(atom)
                    alive &= ~kills.get(atom << 1, 0)
                    continue
                frames.append((len(closure.trail), len(assigned), lit, alive, i))
                if not decide(lit):
                    break
                alive &= ~kills.get(atom << 1 | (lit.__class__ is Ne), 0)
            else:
                return list(closure.lits)
            while True:
                if not frames:
                    return None
                mark, amark, lit, alive, i = frames.pop()
                undo(mark, amark)
                lit = lit.neg
                if decide(lit):
                    alive &= ~kills.get(lit.atom << 1 | (lit.__class__ is Ne), 0)
                    break

    for ante, goal in clauses:
        for lit in ante if goal is FALSE else (*ante, goal):
            closure.add(lit.lhs)
            closure.add(lit.rhs)
    if not all(map(decide, lits)):
        return None
    # marks[p]: the marks before the p-th literal of the cube in hand, and
    # after its last. The tableaux's cubes, sorted, share long prefixes.
    marks, prev = [], ()
    for lits in alternatives:
        p = 0
        while p < len(marks) - 1 and p < len(lits) and lits[p] is prev[p]:
            p += 1
        if marks:
            undo(*marks[p])
            del marks[p:]
        prev = lits
        for lit in lits[p:]:
            marks.append((len(closure.trail), len(assigned)))
            if not decide(lit):
                break
        else:
            marks.append((len(closure.trail), len(assigned)))
            for ante, goal in conjuncts:
                mark, amark = len(closure.trail), len(assigned)
                cube = walk(*goal) if all(map(decide, ante)) else None
                if cube is not None:
                    return cube
                if len(assigned) > amark:  # else the closure is as it was
                    undo(mark, amark)
    return None


def euf_valid(hyp, concl, budget: Budget = Budget()):
    """(True, None) when hyp entails concl in EUF, else (False, witness cube).

    Both formulas are quantifier-free; any variables are read as fresh
    constants. Raises ResourceLimitError when the cube cap or deadline passes.
    """
    stats = {"cubes_spent": 0}
    check = functools.partial(budget.check_time, stats)
    check()
    query = _query(hyp, concl, check)
    if query is None:
        cube = _reference_search(hyp, concl, budget)
    else:
        cube = None if query is FALSE or not query[1] else _walk_disjuncts(*query, budget, stats)
    return cube is None, cube


def euf_equiv(a, b, budget: Budget = Budget()):
    """(True, None) when a and b are EUF-equivalent, else (False, (direction, cube))."""
    ok, cube = euf_valid(a, b, budget)
    if not ok:
        return False, ("forward", cube)
    ok, cube = euf_valid(b, a, budget)
    if not ok:
        return False, ("backward", cube)
    return True, None
