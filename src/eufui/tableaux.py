"""Branching tableaux elimination: the result is a disjunction of constraints.

A branch is (delta, phi, psi): explicit definitions built so far, the
retained e-free part, and the remaining work set of flat literals. The
search keeps one branch and changes it in place. `fire` applies the first
matching rule in a fixed priority order (1.0, 1.i, 1.ii, 2, 3, 4), scanning
psi forward or, under the reversed strategy, backward. Each literal is
classified once, when it enters psi, so a rule's first literal is found by
searching a list of small codes; rule 4's blocking test is a lookup in the
atoms of phi's disequalities. Rule 4's pair scan, under either strategy,
resumes at the pair where it last split: a pair it passed stays
incompatible, as its literals are unchanged, or blocked, as phi only grows,
and a merge deletes only the pair's second literal. A replacement restarts it.

Only the splitting rule branches. It takes a mark on the trail, the log of
every change to psi, and applies its first successor; when that subtree is
done the search undoes back to the mark and applies the next. phi and delta
only grow along a branch, so a mark holds their lengths, the name counter
and the scan's resume point. Terminal work sets hold nothing but blocked
applications and quantified disequalities and are discarded, so each open
leaf contributes one formula: phi's conjunction under the definitions it reaches.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .errors import Budget
from .euf import cc_sat
from .formulas import And, expand_lets, mk_and, mk_or, wrap_definitions
from .parse import format_formula
from .terms import (
    Eq,
    NamePool,
    Ne,
    compatible,
    const,
    flat_symbols,
    is_app_definition,
    is_app_eq,
    lit_is_efree,
    lit_substitute,
    mk_symbol,
    orient,
)

RULE_NAMES = ("1.0", "1.i", "1.ii", "2", "3", "4")

# The code of a literal in psi: the first single-literal rule that applies
# to it, in priority order, else _APP for an application equation (only
# the pair rules can use it) or _REST.
_TRIVIAL, _QPAIR, _DEFINES, _EFREE, _APP, _REST = range(6)


def _classify(lit) -> int:
    lhs, rhs = lit.lhs, lit.rhs
    if lhs is rhs:
        return _TRIVIAL
    if isinstance(lit, Eq):
        if lhs.head.kind == "quantified":
            if rhs.head.kind == "quantified":
                return _QPAIR
            if rhs.efree:
                return _DEFINES
        elif is_app_definition(lit):
            return _DEFINES
    if lit_is_efree(lit):
        return _EFREE
    return _APP if is_app_eq(lit) else _REST


def _tally(counts: dict, key, step: int) -> int:
    """Add step to counts[key], dropping the key at zero; return the new count."""
    n = counts.get(key, 0) + step
    if n:
        counts[key] = n
    else:
        del counts[key]
    return n


@dataclass
class UiResultDnf:
    """The tableaux result: `disjuncts` are the open leaves' formulas in printed-text order."""

    disjuncts: list
    stats: dict
    # format_formula's memo: the sort filled it with every disjunct's text.
    formats: dict = field(default_factory=dict, compare=False, repr=False)
    _built: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def formula(self, unravel: bool = False):
        """The disjunction, built once per unravel flag."""
        if unravel not in self._built:
            self._built[unravel] = expand_lets(self.formula()) if unravel else mk_or(self.disjuncts)
        return self._built[unravel]


class _Branch:
    """The one branch the search changes in place, and the trail that undoes it."""

    def __init__(self, pre):
        self.delta = list(pre.initial_delta)
        self.phi = []
        self.psi = []
        self.codes = []  # _classify of each psi literal, by position
        self.ynames = NamePool("y", pre.taken_names, 1)
        # One (method, position, literal) per psi change: the call that undoes it.
        self.trail = []
        self.in_phi = set()  # the literals of phi: each is retained once
        self.apart = {}  # atom of a phi disequality -> copies
        self.lhs_count = {}  # left side of a psi application equation -> copies
        self.shared = 0  # copies past the first, over all left sides; rule 1.i applies when > 0
        self._code_of = {}
        self.resume = None  # the app pair where rule 4 last split; None: the first pair
        for lit in pre.s1:
            self._put(len(self.psi), lit)
        for lit in pre.passthrough:
            self.retain(lit)

    def _code(self, lit) -> int:
        code = self._code_of.get(lit)
        if code is None:
            code = self._code_of[lit] = _classify(lit)
        return code

    def _put(self, i: int, lit) -> None:
        self.psi.insert(i, lit)
        self.codes.insert(i, self._code(lit))
        if is_app_eq(lit) and _tally(self.lhs_count, lit.lhs, 1) > 1:
            self.shared += 1

    def _drop(self, i: int, _lit=None):  # _lit: the trail passes every undo a literal
        lit = self.psi.pop(i)
        del self.codes[i]
        if is_app_eq(lit) and _tally(self.lhs_count, lit.lhs, -1):
            self.shared -= 1
        return lit

    def _swap(self, i: int, lit):
        old = self._drop(i)
        self._put(i, lit)
        return old

    def remove(self, i: int):
        lit = self._drop(i)
        self.trail.append((_Branch._put, i, lit))
        return lit

    def add(self, lit) -> None:
        self.trail.append((_Branch._drop, len(self.psi), None))
        self._put(len(self.psi), lit)

    def replace(self, i: int, lit) -> None:
        self.trail.append((_Branch._swap, i, self._swap(i, lit)))
        self.resume = None

    def eliminate(self, i: int, sym, t) -> None:
        """Delete psi[i] and replace sym by t in the other literals, on the trail."""
        self.remove(i)
        mapping, memo = {sym: t}, {}
        psi = self.psi
        for k in range(len(psi)):
            if sym in flat_symbols(psi[k]):
                self.replace(k, lit_substitute(psi[k], mapping, memo))

    def retain(self, lit) -> None:
        """Append lit, which is not in phi yet, to phi."""
        self.phi.append(lit)
        self.in_phi.add(lit)
        if lit.__class__ is Ne:
            _tally(self.apart, lit.atom, 1)

    def split(self, i: int, j: int, diffs, k: int) -> bool:
        """Apply rule 4's successor k to the pair psi[i], psi[j] with these argument diffs.

        diffs is `split_of`'s entry. Successor 0 merges the pair and assumes
        every diff equal; successor k > 0 assumes diff k - 1 apart. True
        when successor 0 also applied rule 3 to the pair's merged equation.
        Rule 4 split where no other rule applied, so rule 3 would fire next
        on that equation, and only on it, whenever it is e-free: it goes to
        phi without passing through psi.
        """
        _, eqs, nes = diffs
        if k:
            self.retain(nes[k - 1])
            return False
        a, b = self.psi[i].rhs, self.psi[j].rhs
        self.remove(j)
        for eq in eqs:
            if eq not in self.in_phi:
                self.retain(eq)
        if a is b:
            return False
        lit = orient(Eq(a, b))
        if self._code(lit) != _EFREE:
            self.add(lit)
            return False
        if lit not in self.in_phi:
            self.retain(lit)
        return True

    def mark(self) -> tuple:
        return len(self.trail), len(self.phi), len(self.delta), self.ynames.next_index, self.resume

    def undo(self, mark: tuple) -> None:
        n, nphi, ndelta, self.ynames.next_index, self.resume = mark
        trail = self.trail
        while len(trail) > n:
            fn, i, lit = trail.pop()
            fn(self, i, lit)
        dropped = self.phi[nphi:]
        self.in_phi.difference_update(dropped)
        for lit in dropped:
            if lit.__class__ is Ne:
                _tally(self.apart, lit.atom, -1)
        del self.phi[nphi:]
        del self.delta[ndelta:]


def _pairs(n: int, forward: bool, start=None):
    """Index pairs i < j < n in scan order, from start on (from the first pair when None)."""
    x, y = start or ((0, 1) if forward else (n - 2, n - 1))
    if forward:
        for i in range(x, n):
            for j in range(y if i == x else i + 1, n):
                yield i, j
    else:
        for i in range(x, -1, -1):
            for j in range(min(y, n - 1) if i == x else n - 1, i, -1):
                yield i, j


def compute_tableaux_ui(
    pre,
    strategy: str = "default",
    budget: Budget = Budget(),
    prune: str = "syntactic",
) -> UiResultDnf:
    """Run the branching elimination to completion and collect all disjuncts."""
    if strategy not in ("default", "reversed"):
        raise ValueError(f"unknown strategy {strategy}")
    if prune not in ("syntactic", "semantic"):
        raise ValueError(f"unknown prune mode {prune}")
    forward = strategy == "default"

    stats = {"branches_explored": 0, "rule4_firings": 0, "rule_apps": dict.fromkeys(RULE_NAMES, 0)}
    if pre.falsified:
        return UiResultDnf([], stats)

    def first(codes: list, code: int) -> int:
        """Position of the first literal with this code in scan order."""
        return codes.index(code) if forward else len(codes) - 1 - codes[::-1].index(code)

    # (t, u) -> None when rule 4 cannot split t and u, else, for each argument
    # diff, its atom (`pair_key`), its oriented equation and its disequation.
    splits: dict = {}

    def split_of(t, u):
        if (t, u) not in splits:
            diffs = compatible(t, u) if t is not u else None
            nes = diffs and [orient(Ne(a, b)) for a, b in diffs]
            splits[t, u] = diffs and ([ne.atom for ne in nes], [orient(Eq(a, b)) for a, b in diffs], nes)
        return splits[t, u]

    def fire(b: _Branch):
        """Apply the first matching rule; return its name (None if none) and the outcome."""
        psi, codes = b.psi, b.codes
        # The lowest code picks the single-literal rule; only 1.i and 4 apply when none is below _APP.
        code = min(codes, default=_APP)
        i = first(codes, code) if code < _APP else None
        if code == _TRIVIAL:
            if isinstance(psi[i], Ne):
                return "1.0", "closed"
            b.remove(i)
            return "1.0", "open"
        if b.shared:
            apps = [k for k, lit in enumerate(psi) if is_app_eq(lit)]
            for x, y in _pairs(len(apps), forward):
                l1, l2 = psi[apps[x]], psi[apps[y]]
                if l1.lhs is l2.lhs:
                    b.replace(apps[x], orient(Eq(l1.rhs, l2.rhs)))
                    return "1.i", "open"
        if code == _QPAIR:
            b.eliminate(i, psi[i].lhs.head, psi[i].rhs)
            return "1.ii", "open"
        if code == _DEFINES:
            lit = psi[i]
            evar, body = (lit.rhs.head, lit.lhs) if lit.lhs.args else (lit.lhs.head, lit.rhs)
            y = mk_symbol(b.ynames.fresh(), 0, "defined")
            b.delta.append((y, body))
            b.eliminate(i, evar, const(y))
            return "2", "open"
        if code == _EFREE:
            lit = b.remove(i)
            if lit not in b.in_phi:
                b.retain(lit)
            return "3", "open"
        apps = [k for k, code in enumerate(codes) if code == _APP]
        for x, y in _pairs(len(apps), forward, b.resume):
            i, j = apps[x], apps[y]
            found = split_of(psi[i].lhs, psi[j].lhs)
            if found and b.apart.keys().isdisjoint(found[0]):
                b.resume = (x, y)
                mark = b.mark()
                stack.extend((mark, (i, j, found, k)) for k in range(len(found[0]), -1, -1))
                return "4", "split"
        return None, "terminal"

    def keep(b: _Branch) -> bool:
        if prune != "semantic":
            return True
        # Each y is fresh with one body, so its definition read as an
        # equation is equisatisfiable with the unravelled literals.
        return cc_sat(b.phi + [Eq(const(y), t) for y, t in b.delta])

    disjuncts = []
    branch = _Branch(pre)
    stack = [(branch.mark(), None)]  # (mark, rule-4 successor to apply after undoing to it)
    ticks = 0
    while stack:
        mark, successor = stack.pop()
        branch.undo(mark)
        if successor is not None and branch.split(*successor):
            stats["rule_apps"]["3"] += 1
        budget.check_time(stats)
        # Fire rules until the branch splits, closes, or no rule matches.
        while True:
            ticks += 1
            if not ticks % 256:
                budget.check_time(stats)
            rule, outcome = fire(branch)
            if rule is not None:
                stats["rule_apps"][rule] += 1
            if outcome != "open":
                break
        if outcome == "split":
            stats["rule4_firings"] += 1
            continue
        budget.count(stats, "branches_explored")
        if outcome == "terminal" and keep(branch):
            phi = branch.phi
            # in_phi and the blocking test keep each literal of phi once.
            body = And(tuple(phi)) if len(phi) > 1 else mk_and(phi)
            disjuncts.append(wrap_definitions(branch.delta, body))

    formats = {}
    disjuncts.sort(key=lambda d: format_formula(d, formats))
    return UiResultDnf(disjuncts, stats, formats)
