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
query through `formulas._nnf`, once, into negation normal form without
lets. Its assignment is two masks over one bit per interned `atom`, the
atoms assigned an Eq and those assigned a Ne, so deciding a = b also
decides b = a, a != b and b != a (Nieuwenhuis, Oliveras & Tinelli, JACM
2006). Every disjunction is filed as its parts' bits and the masks of its
Eq and of its Ne parts, so the search finds it satisfied, false, unit or
open with a few int operations; an `And` part has a bit of its own, which
no literal assigns, so it stays live until it is absorbed. The closure
never deletes a signature: a stale one holds a merged-away root, which no
`find` returns until that merge is undone. A union puts the root with the
shorter use list under the other, so an application only ever moves to a
use list at least twice as long (Downey, Sethi & Tarjan, JACM 1980).
"""
from __future__ import annotations

from collections import deque

from .errors import Budget
from .formulas import And, FFalse, FTrue, Or, _nnf, expand_lets, mk_and, nnf
from .terms import Eq, Ne, Term

# bench/tracing.py wraps these two names in this module; the search reads
# its query through `_nnf` and calls neither.
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
        for side in (lit.lhs, lit.rhs):
            if side.id not in self.parent:
                self.add(side)
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


class _Bits(dict):  # key -> its own bit, the next free one given at first lookup
    def __missing__(self, atom):
        bit = self[atom] = 1 << len(self)
        return bit


def _find_sat_cube(hyp, concl, budget: Budget):
    """A cc-satisfiable cube of hyp and the negation of concl, or None.

    Both may hold lets and connectives in either polarity; `formulas._nnf`
    reads them once, when the search starts, checking the deadline at each
    let, into And and Or nodes over literals. Literal-branching search:
    atoms are absorbed into the cube with a closure check each time,
    pending disjunctions, each one clause of part bits and masks, are
    decided against the assignment's masks, lone survivors propagate in
    unit rounds, and branching takes one part of the shortest pending
    disjunction at a time, learning its complement when a branch fails.
    One closure serves the whole search; its literals are the cube. A
    failed branch undoes it, and the masks, to where they stood before it.
    """
    stats = {"cubes_spent": 0}
    closure = CongruenceState()
    bits = _Bits()
    eqs = nes = 0  # the bits of the atoms assigned an Eq, and a Ne

    def assume(lit) -> bool:
        """False when lit is refuted or closes the cube; an undecided lit joins it, spending a cube."""
        nonlocal eqs, nes
        if lit.lhs is lit.rhs:
            return lit.__class__ is Eq
        bit = bits[lit.atom]
        if bit & eqs:
            return lit.__class__ is Eq
        if bit & nes:
            return lit.__class__ is Ne
        if lit.__class__ is Eq:
            eqs |= bit
        else:
            nes |= bit
        budget.count(stats, "cubes_spent")
        budget.check_time(stats)
        return closure.assume(lit)

    def absorb(obligations, ors) -> bool:
        """Assume the literals under obligations, last first, and file their
        disjunctions in ors; False on a conflict."""
        while obligations:
            g = obligations.pop()
            kind = g.__class__
            if kind is And:
                obligations.extend(g.parts)
            elif kind is Or:
                # (parts, their bits, Eq mask, Ne mask, the bits met twice).
                # An And part's bit is keyed by -id(part), which no atom
                # (a pair key, at least 0) is, and sits in the Eq mask,
                # where no literal assigns it; a != a gets bit 0, so it is
                # never live.
                pbits, em, nm, rep = [], 0, 0, 0
                for p in g.parts:
                    kind = p.__class__
                    if kind is Eq or kind is Ne:
                        if p.lhs is p.rhs and kind is Eq:
                            break  # a = a: the clause always holds
                        bit = 0 if p.lhs is p.rhs else bits[p.atom]
                    else:
                        bit = bits[-id(p)]
                    rep |= bit & (em | nm)
                    if kind is Ne:
                        nm |= bit
                    else:
                        em |= bit
                    pbits.append(bit)
                else:
                    ors.append((g.parts, pbits, em, nm, rep))
            elif kind is Eq or kind is Ne:
                if not assume(g):
                    return False
            elif kind is FFalse:
                return False
            elif kind is not FTrue:
                raise TypeError(f"unexpected node in NNF search: {g!r}")
        return True

    def search(ors):
        nonlocal eqs, nes
        while True:
            units, pending = [], []
            free = ~(eqs | nes)
            for g in ors:
                parts, pbits, em, nm, rep = g
                if em & eqs or nm & nes:
                    continue
                live = (em | nm) & free
                if not live:
                    return None
                if live & (live - 1) or live & rep:
                    pending.append(g)
                else:
                    units.append(parts[pbits.index(live)])
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

        def width(g) -> int:  # its live parts: one per live bit, unless an atom repeats
            live = (g[2] | g[3]) & free
            return sum(1 for bit in g[1] if bit & live) if live & g[4] else live.bit_count()

        pending.sort(key=width)
        (parts, pbits, *_), rest = pending[0], pending[:0:-1]
        for p in [p for p, bit in zip(parts, pbits) if bit & free]:
            mark, masks = len(closure.trail), (eqs, nes)
            branch = []
            if absorb([p], branch):
                res = search(branch + rest)
                if res is not None:
                    return res
            closure.undo(mark)
            eqs, nes = masks
            kind = p.__class__
            if (kind is Eq or kind is Ne) and not assume(p.neg):
                return None
        return None

    def check():
        budget.check_time(stats)

    ors = []
    query = mk_and([_nnf(hyp, True, {}, {}, check), _nnf(concl, False, {}, {}, check)])
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
