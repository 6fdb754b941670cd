"""Ground EUF decision procedures: congruence closure and validity checks.

cc_sat decides conjunctions of ground (dis)equalities. euf_valid reduces
validity to unsatisfiability: it looks for a cc-satisfiable cube of the
hypothesis and the negated conclusion, and has two searches for it, both
over one backtrackable closure (Nieuwenhuis & Oliveras, Inf. & Comp.
2007). One `assume` adds each decided literal to the cube and to the
closure, a merge or a recorded disequality, so the cube cap counts assumed
literals; the deadline is checked once before the search, then at each
assume and at each let the search reads. Both decide a literal by its
`atom`, so deciding a = b also decides b = a, a != b and b != a
(Nieuwenhuis, Oliveras & Tinelli, JACM 2006).

The query's shape picks the search. A hypothesis that is a conjunction of
literals and a conclusion that is an Or of such conjunctions, lets allowed
in each, as in the residue check of a tableaux result, go to
`_walk_disjuncts`: a case split over the disjuncts themselves, whose own
literals are the decisions. One pass over the disjuncts gives each atom
and class the int mask of the disjuncts that assigning it falsifies, and
the walk keeps the disjuncts still alive as one mask. It walks the lowest
alive disjunct to its first undecided literal and branches on it, then on
its complement, which kills the disjunct; a disjunct whose every literal
holds refutes the branch, and no disjunct alive leaves a witness. Every
other query goes to `_find_sat_cube`, which reads it through
`formulas._nnf`, once, the conclusion's negation included, into negation
normal form without lets, and keeps its assignment as two masks over one
bit per atom. Every disjunction is filed as its parts' bits and the masks
of its Eq and of its Ne parts, so the search finds it satisfied, false,
unit or open with a few int operations; an `And` part has a bit of its
own, which no literal assigns, so it stays live until it is absorbed.
Neither search branches on a literal whose sides the closure already
holds in one class: the walk records the equality without an assume, and
the clause search assumes the complement of such a Ne part at once, as
after the failed branch.

Every change the closure makes goes on its trail, and a failed branch
undoes the trail to the mark taken before it; only a union can break a
recorded disequality, so an assume that makes none checks just its own,
and the check after a union compresses every path it walks. The closure
never deletes a signature: a stale one holds a merged-away root, which no
`find` returns until that merge is undone. A union puts the root with the
shorter use list under the other, so an application only ever moves to a
use list at least twice as long (Downey, Sethi & Tarjan, JACM 1980).
"""
from __future__ import annotations

from collections import deque

from .errors import Budget
from .formulas import FALSE, And, FFalse, FTrue, Let, Or, _nnf, expand_lets, let_env, mk_and, nnf
from .terms import Eq, Ne, Term, term_substitute

# bench/tracing.py wraps these two names in this module; the search reads
# its query through `_nnf` and calls neither.
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


class _Bits(dict):  # key -> its own bit, the next free one given at first lookup
    def __missing__(self, atom):
        bit = self[atom] = 1 << len(self)
        return bit


def _find_sat_cube(hyp, concl, budget: Budget):
    """A cc-satisfiable cube of hyp and the negation of concl, or None.

    Both may hold lets and connectives in either polarity; `formulas._nnf`
    reads them once, when the search starts, checking the deadline at each
    let, into And and Or nodes over literals, the negation of concl among
    them. Literal-branching search: atoms are absorbed into the cube with a
    closure check each time, pending disjunctions, each one clause of part
    bits and masks, are decided against the assignment's masks, lone
    survivors propagate in unit rounds, and branching takes one part of the
    shortest pending disjunction at a time, learning its complement when a
    branch fails or when the closure already refutes it. One closure serves
    the whole search; its literals are the cube. A failed branch undoes it,
    and the masks, to where they stood before it.
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

    def clause(parts):
        """parts filed as (parts, their bits, Eq mask, Ne mask, the bits met
        twice), or None: a clause with a = a always holds.

        An And part's bit is keyed by -id(part), which no atom (a pair key,
        at least 0) is, and sits in the Eq mask, where no literal assigns
        it; a != a gets bit 0, so it is never live.
        """
        pbits, em, nm, rep = [], 0, 0, 0
        for p in parts:
            kind = p.__class__
            if kind is Eq or kind is Ne:
                if p.lhs is not p.rhs:
                    bit = bits[p.atom]
                elif kind is Eq:
                    return None
                else:
                    bit = 0
            else:
                bit = bits[-id(p)]
            rep |= bit & (em | nm)
            if kind is Ne:
                nm |= bit
            else:
                em |= bit
            pbits.append(bit)
        return parts, pbits, em, nm, rep

    def absorb(obligations, ors) -> bool:
        """Assume the literals under obligations, last first, and file their
        disjunctions in ors; False on a conflict."""
        while obligations:
            g = obligations.pop()
            kind = g.__class__
            if kind is And:
                obligations.extend(g.parts)
            elif kind is Or:
                g = clause(g.parts)
                if g is not None:
                    ors.append(g)
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
        parent, find = closure.parent, closure.find
        for p in [p for p, bit in zip(parts, pbits) if bit & free]:
            kind = p.__class__
            if (
                kind is Ne and p.lhs.id in parent and p.rhs.id in parent
                and find(p.lhs.id) == find(p.rhs.id)
            ):
                # The branch would fail: learn its complement at once. That Eq
                # makes no union, and had its atom been decided Ne, the closure
                # would be broken already, so it cannot fail.
                assume(p.neg)
                continue
            mark, masks = len(closure.trail), (eqs, nes)
            branch = []
            if absorb([p], branch):
                res = search(branch + rest)
                if res is not None:
                    return res
            closure.undo(mark)
            eqs, nes = masks
            if (kind is Eq or kind is Ne) and not assume(p.neg):
                return None
        return None

    def check():
        budget.check_time(stats)

    ors = []
    query = mk_and([_nnf(hyp, True, {}, {}, check), _nnf(concl, False, {}, {}, check)])
    return search(ors) if absorb([query], ors) else None


def _conjunction(f, check):
    """The non-trivial literals of f, in order and with its lets substituted,
    when f is a conjunction of literals under lets; FALSE when f is false
    on its face (a part is FALSE or a != a); None for any other shape."""
    env = memo = None
    while f.__class__ is Let:
        check()
        env, memo, f = let_env(env or {}, f.bindings), {}, f.body
    out = []
    for p in f.parts if f.__class__ is And else (f,):
        kind = p.__class__
        if kind is Eq or kind is Ne:
            if env:
                lhs, rhs = term_substitute(p.lhs, env, memo), term_substitute(p.rhs, env, memo)
                if lhs is not p.lhs or rhs is not p.rhs:
                    p = kind(lhs, rhs)
            if p.lhs is not p.rhs:
                out.append(p)
            elif kind is Ne:
                return FALSE
        elif kind is FFalse:
            return FALSE
        elif kind is not FTrue:
            return None
    return out


_NOT_WALKED = object()
_ROW_BITS = bytes.maketrans(b"\0\1", b"01")


def _walk_disjuncts(hyp, concl, budget: Budget):
    """A cc-satisfiable cube of hyp that falsifies every disjunct of concl,
    or None; _NOT_WALKED unless hyp and every disjunct are conjunctions of
    literals under lets.

    Case split over the disjuncts themselves: the lowest disjunct still
    alive is walked to its first undecided literal, which is decided true,
    then, once that branch fails, false, killing the disjunct. A literal
    whose sides the closure holds in one class is decided by that, without
    an assume. A walked disjunct whose every literal holds refutes the
    branch; no disjunct alive leaves the closure's literals as the cube.
    The branches taken are kept on a stack of frames, not in recursion.
    """
    stats = {"cubes_spent": 0}

    def check():
        budget.check_time(stats)

    hyp_lits = _conjunction(hyp, check)
    if hyp_lits is None:
        return _NOT_WALKED
    if hyp_lits is FALSE:
        return None
    # One pass over the parts: each literal's row holds one byte per
    # disjunct, 1 where the disjunct holds the literal.
    n = len(concl.parts)
    rows, cubes, dropped = {}, [], 0
    for i, d in enumerate(concl.parts):
        lits = d.parts if d.__class__ is And else (d,)
        while True:
            for p in lits:
                if p.__class__ is not Eq and p.__class__ is not Ne:
                    break
                row = rows.get(p)
                if row is None:
                    row = rows[p] = bytearray(n)
                row[i] = 1
            else:
                break
            # Lets, TRUE or FALSE: read again with the lets substituted.
            lits = _conjunction(d, check)
            if lits is None:
                return _NOT_WALKED
            if lits is FALSE:
                dropped |= 1 << i
                lits = ()
        cubes.append(lits)

    value = {}  # atom -> the class of the literal the search holds on it
    # kills[atom << 1 | (cls is Ne)]: the disjuncts that assigning cls to
    # atom falsifies, those holding a literal of the other class on it.
    # Keyed by atom, so b != a kills a disjunct holding a = b. a = a always
    # holds, and a disjunct holding a != a never does.
    kills, held = {}, 0
    for p, row in rows.items():
        mask = int(row.translate(_ROW_BITS)[::-1], 2)
        if p.lhs is not p.rhs:
            key = p.atom << 1 | (p.__class__ is Eq)
            kills[key] = kills.get(key, 0) | mask
            held |= mask
        elif p.__class__ is Ne:
            dropped |= mask
        else:
            value[p.atom] = Eq
    if ~(held | dropped) & ((1 << n) - 1):
        return None  # a disjunct with no literal other than a = a holds
    alive = held & ~dropped

    closure = CongruenceState()
    parent, find = closure.parent, closure.find
    assigned = []  # the atoms in value, in the order they were assigned

    def decide(lit) -> bool:
        budget.count(stats, "cubes_spent")
        budget.check_time(stats)
        value[lit.atom] = lit.__class__
        assigned.append(lit.atom)
        return closure.assume(lit)

    for lit in hyp_lits:
        cls = value.get(lit.atom)
        if cls is None:
            if not decide(lit):
                return None
            alive &= ~kills.get(lit.atom << 1 | (lit.__class__ is Ne), 0)
        elif cls is not lit.__class__:
            return None

    # One frame per branch taken on a literal and not yet failed: the
    # closure and assignment marks before it, the literal, alive and the
    # walked disjunct as they stood then. Its complement kills the disjunct.
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
            closure.undo(mark)
            for atom in assigned[amark:]:
                del value[atom]
            del assigned[amark:]
            lit = lit.neg
            if decide(lit):
                alive &= ~kills.get(lit.atom << 1 | (lit.__class__ is Ne), 0)
                break


def euf_valid(hyp, concl, budget: Budget = Budget()):
    """(True, None) when hyp entails concl in EUF, else (False, witness cube).

    Both formulas are quantifier-free; any variables are read as fresh
    constants. Raises ResourceLimitError when the cube cap or deadline passes.
    A hypothesis that is a conjunction of literals and a conclusion that is
    an Or of such conjunctions, lets allowed in each, is decided by
    `_walk_disjuncts`; every other query by `_find_sat_cube`.
    """
    budget.check_time({"cubes_spent": 0})
    cube = _walk_disjuncts(hyp, concl, budget) if concl.__class__ is Or else _NOT_WALKED
    if cube is _NOT_WALKED:
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
