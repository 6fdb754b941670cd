"""Ground EUF decision procedures: congruence closure and validity checks.

cc_sat decides conjunctions of ground (dis)equalities. euf_valid reduces
validity to unsatisfiability and searches the lazy DNF of the query with
closure-based pruning, so only cubes consistent so far are ever expanded.
In that search one `assume` adds every undecided literal to the cube and
calls cc_sat on it, so the cube cap counts cc_sat calls, and the deadline
is checked at each one and before each let-expansion and NNF pass. The
cube is the values of one ordered map from atom to the literal assumed.
The closure never deletes a signature: a stale one holds a merged-away
root, which no later `find` returns, so no lookup ever hits it. A union
puts the root with the shorter use list under the other, so an application
only ever moves to a use list at least twice as long (Downey, Sethi &
Tarjan, JACM 1980).
"""
from __future__ import annotations

from collections import deque

from .errors import Budget
from .formulas import And, FFalse, FTrue, Or, expand_lets, mk_and, nnf
from .terms import Eq, Ne, Term


class CongruenceState:
    """Union-find over term ids with a signature table and pending merges."""

    def __init__(self):
        self.parent: dict[int, int] = {}
        self.use: dict[int, list[Term]] = {}
        self.sig: dict[tuple, int] = {}
        self.pending: deque[tuple[int, int]] = deque()

    def find(self, i: int) -> int:
        parent = self.parent
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:
            parent[i], i = root, parent[i]
        return root

    def add(self, t: Term) -> int:
        if t.id in self.parent:
            return self.find(t.id)
        self.parent[t.id] = t.id
        if t.args:
            arg_reps = tuple(self.add(a) for a in t.args)
            key = (t.head.uid, arg_reps)
            other = self.sig.get(key)
            if other is not None:
                self.pending.append((t.id, other))
            else:
                self.sig[key] = t.id
            for r in set(arg_reps):
                self.use.setdefault(r, []).append(t)
        return self.find(t.id)

    def merge(self, a: Term, b: Term) -> None:
        self.add(a)
        self.add(b)
        self.pending.append((a.id, b.id))

    def close(self) -> None:
        """Drain pending merges until congruence-closed; idempotent."""
        while self.pending:
            i, j = self.pending.popleft()
            ri, rj = self.find(i), self.find(j)
            if ri == rj:
                continue
            if len(self.use.get(ri, ())) > len(self.use.get(rj, ())):
                ri, rj = rj, ri
            self.parent[ri] = rj
            # Re-canonicalize signatures of applications that mention ri. Their
            # stale keys stay in sig: they hold ri, which is never a root again.
            for app in self.use.pop(ri, []):
                key = (app.head.uid, tuple(self.find(a.id) for a in app.args))
                other = self.sig.get(key)
                if other is None:
                    self.sig[key] = app.id
                elif self.find(other) != self.find(app.id):
                    self.pending.append((app.id, other))
                self.use.setdefault(rj, []).append(app)


def cc_sat(literals) -> bool:
    """Satisfiability of a conjunction of ground Eq/Ne literals."""
    state = CongruenceState()
    diseqs = []
    for lit in literals:
        if isinstance(lit, Ne):
            state.add(lit.lhs)
            state.add(lit.rhs)
            diseqs.append(lit)
        else:
            state.merge(lit.lhs, lit.rhs)
    state.close()
    return all(state.find(lit.lhs.id) != state.find(lit.rhs.id) for lit in diseqs)


def _find_sat_cube(f, budget: Budget):
    """A cc-satisfiable cube of the NNF formula f, or None.

    Literal-branching search: atoms are absorbed into the cube with a
    closure check each time, disjunctions are simplified against the
    current assignment, lone survivors propagate in unit rounds, and
    branching takes one disjunct at a time, learning its complement when a
    branch fails. The assignment is one ordered map from an atom's key (its
    pair of term ids) to the literal assumed for it; its values, in
    insertion order, are the cube, and only a branch copies it.
    """
    stats = {"cubes_spent": 0}

    def value(lit, assign):
        """True or False when identity or the assignment decides lit, else None."""
        if lit.lhs is lit.rhs:
            return isinstance(lit, Eq)
        got = assign.get(frozenset((lit.lhs.id, lit.rhs.id)))
        return None if got is None else isinstance(got, Eq) is isinstance(lit, Eq)

    def assume(lit, assign) -> bool:
        """False when lit is refuted or closes the cube; an undecided lit joins it, spending a cube."""
        v = value(lit, assign)
        if v is not None:
            return v
        assign[frozenset((lit.lhs.id, lit.rhs.id))] = lit
        budget.count(stats, "cubes_spent")
        budget.check_time(stats)
        return cc_sat(assign.values())

    def search(obligations, assign):
        while True:
            ors = []
            while obligations:
                g = obligations.pop()
                if isinstance(g, And):
                    obligations.extend(g.parts)
                elif isinstance(g, Or):
                    ors.append(g)
                elif isinstance(g, (Eq, Ne)):
                    if not assume(g, assign):
                        return None
                elif isinstance(g, FFalse):
                    return None
                elif not isinstance(g, FTrue):
                    raise TypeError(f"unexpected node in NNF search: {g!r}")

            units, pending = [], []
            for g in ors:
                parts = []
                for p in g.parts:
                    v = value(p, assign) if isinstance(p, (Eq, Ne)) else None
                    if v:
                        break
                    if v is None:
                        parts.append(p)
                else:
                    if not parts:
                        return None
                    if len(parts) == 1:
                        units.append(parts[0])
                    else:
                        pending.append(parts)
            if not units:
                break
            obligations = units + [Or(tuple(p)) for p in pending]

        if not pending:
            return list(assign.values())
        pending.sort(key=len)
        parts, rest = pending[0], [Or(tuple(p)) for p in pending[1:]]
        for p in parts:
            res = search(rest + [p], dict(assign))
            if res is not None:
                return res
            if isinstance(p, (Eq, Ne)):
                complement = Eq(p.lhs, p.rhs) if isinstance(p, Ne) else Ne(p.lhs, p.rhs)
                if not assume(complement, assign):
                    return None
        return None

    return search([f], {})


def euf_valid(hyp, concl, budget: Budget = Budget()):
    """(True, None) when hyp entails concl in EUF, else (False, witness cube).

    Both formulas are quantifier-free; any variables are read as fresh
    constants. Raises ResourceLimitError when the cube cap or deadline passes.
    """
    parts = []
    for f, positive in ((hyp, True), (concl, False)):
        budget.check_time({"cubes_spent": 0})
        f = expand_lets(f)
        budget.check_time({"cubes_spent": 0})
        parts.append(nnf(f, positive))
    cube = _find_sat_cube(mk_and(parts), budget)
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
