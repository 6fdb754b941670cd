"""Ground EUF decision procedures: congruence closure and validity checks.

cc_sat decides conjunctions of ground (dis)equalities. euf_valid reduces
validity to unsatisfiability and searches the lazy DNF of the query with
closure-based pruning, so only cubes consistent so far are ever expanded.
The search keeps one backtrackable closure (Nieuwenhuis & Oliveras, Inf. &
Comp. 2007): one `assume` adds each undecided literal to the cube and to
the closure, a merge or a recorded disequality, so the cube cap counts
assumed literals, and the deadline is checked once before the search, then
at each assume and at each let the search expands. Every change the
closure makes goes on its trail, and a failed branch undoes the trail to
the mark taken before it; only a union can break a recorded disequality,
so an assume that makes none checks just its own. The search reads its
query in place: `_normal` walks it once into negation normal form without
lets, handing over the parts of each let-free positive connective of
literals as they stand and negating a literal by the interned complement
it carries, `neg`. The search's assignment is keyed by each literal's interned `atom`,
so deciding a = b also decides b = a, a != b and b != a, each with one
dict lookup (Nieuwenhuis, Oliveras & Tinelli, JACM 2006). The closure never
deletes a signature: a stale one holds a merged-away root, which no `find`
returns until that merge is undone. A union puts the root with the shorter
use list under the other, so an application only ever moves to a use list
at least twice as long (Downey, Sethi & Tarjan, JACM 1980).
"""
from __future__ import annotations

from collections import deque
from operator import is_

from .errors import Budget
from .formulas import FALSE, TRUE, And, FFalse, FTrue, Implies, Let, Or, expand_lets, let_env, nnf
from .terms import Eq, Ne, Term, term_substitute

# bench/tracing.py wraps these two names in this module; the search, which
# reads its query in place, calls neither.
expand_lets, nnf = expand_lets, nnf


# Trail entry kinds; each entry records one change for `undo` to revert.
_NODE, _SIG, _UNION, _LINK, _LIT = range(5)


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
        self.add(lit.lhs)
        self.add(lit.rhs)
        self.lits.append(lit)
        self.trail.append((_LIT,))
        unions = self.unions
        if isinstance(lit, Ne):
            self.diseqs.append((lit.lhs.id, lit.rhs.id))
        else:
            self.pending.append((lit.lhs.id, lit.rhs.id))
        # Always close: a new application can queue a congruence merge.
        self.close()
        if not self.broken:
            find = self.find
            if self.unions != unions:
                ok = all(find(i) != find(j) for i, j in self.diseqs)
            else:
                ok = lit.__class__ is Eq or find(lit.lhs.id) != find(lit.rhs.id)
            if not ok:
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


def _normal(g, positive: bool, env: dict, memo: dict, check):
    """g, or its negation when not positive, with the lets in env and in g
    substituted away, in negation normal form: TRUE, FALSE, a literal, or
    `(And, parts)` or `(Or, parts)` with at least two parts.

    This is nnf(expand_lets(g), positive) with each node as a plain tuple:
    connectives join their parts as `mk_and` and `mk_or` do (unit parts
    dropped, a zero part absorbing, same-kind parts flattened one level,
    duplicates kept at their first position), and tuples compare and hash
    by parts as the nodes do. A connective whose parts all come back as
    they are hands over its `parts` tuple, so a let-free positive
    conjunction or disjunction of literals is never copied. Negating a
    literal reads its interned complement. Each let
    extends env as `expand_lets` does (`let_env`), with one `term_substitute`
    memo per environment, after `check` reads the deadline.
    """
    kind = g.__class__
    if kind is Eq or kind is Ne:
        if env:
            lhs, rhs = term_substitute(g.lhs, env, memo), term_substitute(g.rhs, env, memo)
            if lhs is rhs:
                return TRUE if (kind is Eq) is positive else FALSE
            g = kind(lhs, rhs)
        elif g.lhs is g.rhs and not positive:
            return FALSE if kind is Eq else TRUE
        return g if positive else g.neg
    if kind is And or kind is Or:
        join = And if (kind is And) is positive else Or
        return _join(join, [_normal(p, positive, env, memo, check) for p in g.parts], g.parts)
    if kind is Implies:
        parts = [_normal(g.lhs, not positive, env, memo, check), _normal(g.rhs, positive, env, memo, check)]
        return _join(Or if positive else And, parts, ())
    if kind is Let:
        check()
        return _normal(g.body, positive, let_env(env, g.bindings), {}, check)
    if isinstance(g, FTrue):
        return TRUE if positive else FALSE
    if isinstance(g, FFalse):
        return FALSE if positive else TRUE
    raise TypeError(f"not a formula: {g!r}")


def _join(join, parts: list, original: tuple):
    """(join, parts) normalized as `mk_and` or `mk_or` builds the node; the
    tuple handed over is original when the parts are its items, unchanged."""
    unit, zero = (TRUE, FALSE) if join is And else (FALSE, TRUE)
    out = []
    for q in parts:
        if q is unit:
            continue
        if q is zero:
            return zero
        if q.__class__ is tuple and q[0] is join:
            out.extend(q[1])
        else:
            out.append(q)
    if len(out) > 1 and len(set(out)) < len(out):
        out = list(dict.fromkeys(out))
    if len(out) < 2:
        return out[0] if out else unit
    if len(out) == len(original) and all(map(is_, out, original)):
        return join, original
    return join, tuple(out)


def _find_sat_cube(hyp, concl, budget: Budget):
    """A cc-satisfiable cube of hyp and the negation of concl, or None.

    Both may hold lets and connectives in either polarity; `_normal` reads
    them once, when the search starts. Literal-branching search: atoms are
    absorbed into the cube with a closure check each time, pending
    disjunctions (plain lists of their undecided parts) are simplified
    against the current assignment, lone survivors propagate in unit
    rounds, and branching takes one part of the shortest pending
    disjunction at a time, learning its complement when a branch fails. One
    closure serves the whole search; its literals are the cube. The
    assignment maps a literal's `atom`, shared by both kinds and both
    orientations, to the literal assumed for it. A failed branch undoes
    both to where they stood before it.
    """
    stats = {"cubes_spent": 0}
    closure = CongruenceState()
    assign = {}
    decided = assign.get

    def assume(lit) -> bool:
        """False when lit is refuted or closes the cube; an undecided lit joins it, spending a cube."""
        if lit.lhs is lit.rhs:
            return lit.__class__ is Eq
        got = decided(lit.atom)
        if got is not None:
            return got.__class__ is lit.__class__
        assign[lit.atom] = lit
        budget.count(stats, "cubes_spent")
        budget.check_time(stats)
        return closure.assume(lit)

    def absorb(obligations, ors) -> bool:
        """Assume the literals under obligations, last first, and append their
        disjunctions' parts to ors; False on a conflict."""
        while obligations:
            g = obligations.pop()
            kind = g.__class__
            if kind is tuple:
                if g[0] is And:
                    obligations.extend(g[1])
                else:
                    ors.append(g[1])
            elif kind is Eq or kind is Ne:
                if not assume(g):
                    return False
            elif kind is FFalse:
                return False
            elif kind is not FTrue:
                raise TypeError(f"unexpected node in NNF search: {g!r}")
        return True

    def search(ors):
        while True:
            units, pending = [], []
            for g in ors:
                parts = []
                for p in g:
                    kind = p.__class__
                    if kind is Eq or kind is Ne:
                        if p.lhs is p.rhs:
                            if kind is Eq:
                                break
                            continue
                        got = decided(p.atom)
                        if got is not None:
                            if got.__class__ is kind:
                                break
                            continue
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
            # The scan order is part of the pinned search order: clauses
            # carried over come last first, ahead of those the units bring,
            # and a branch's own clauses come ahead of the carried ones.
            pending.reverse()
            if not absorb(units, pending):
                return None
            ors = pending

        if not pending:
            return list(closure.lits)
        pending.sort(key=len)
        parts, rest = pending[0], pending[:0:-1]
        for p in parts:
            mark, assigned = len(closure.trail), len(assign)
            branch = []
            if absorb([p], branch):
                res = search(branch + rest)
                if res is not None:
                    return res
            closure.undo(mark)
            while len(assign) > assigned:
                assign.popitem()
            kind = p.__class__
            if (kind is Eq or kind is Ne) and not assume(p.neg):
                return None
        return None

    def check():
        budget.check_time(stats)

    ors = []
    query = _join(And, [_normal(hyp, True, {}, {}, check), _normal(concl, False, {}, {}, check)], ())
    return search(ors) if absorb([query], ors) else None


def euf_valid(hyp, concl, budget: Budget = Budget()):
    """(True, None) when hyp entails concl in EUF, else (False, witness cube).

    Both formulas are quantifier-free; any variables are read as fresh
    constants. Raises ResourceLimitError when the cube cap or deadline passes.
    """
    budget.check_time({"cubes_spent": 0})
    cube = _find_sat_cube(hyp, concl, budget)
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
