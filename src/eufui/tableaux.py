"""Branching tableaux elimination: the result is a disjunction of constraints.

A branch is (delta, phi, psi): explicit definitions built so far, the
retained e-free part, and the remaining work set of flat literals. The
search keeps one branch and changes it in place. `fire` applies the first
matching rule in a fixed priority order (1.0, 1.i, 1.ii, 2, 3, 4), scanning
psi forward or, under the reversed strategy, backward. Each literal is
classified once, when it enters psi, so a rule's first literal is found by
searching a list of small codes; rule 4's blocking test is a lookup in the
atoms of phi's disequalities.

Only the splitting rule branches. It takes a mark on the trail, the log of
every change to psi, and applies its first successor; when that subtree is
done the search undoes back to the mark and applies the next. phi and delta
only grow along a branch, so a mark holds their lengths and the name
counter. Terminal work sets hold nothing but blocked applications and
quantified disequalities and are discarded, so each open leaf contributes a
snapshot of (delta, phi).
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .errors import Budget
from .euf import cc_sat
from .formulas import expand_lets, mk_and, mk_or, wrap_definitions
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
    pair_key,
    term_is_efree,
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
            if term_is_efree(rhs):
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
class Disjunct:
    delta: list
    phi: list
    formula: object  # the conjunction of phi under the definitions it reaches


@dataclass
class UiResultDnf:
    disjuncts: list
    stats: dict
    # format_formula's memo: the sort filled it with every disjunct's text.
    formats: dict = field(default_factory=dict, compare=False, repr=False)
    _built: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def formula(self, unravel: bool = False):
        """The disjunction, built once per unravel flag."""
        if unravel not in self._built:
            self._built[unravel] = (
                expand_lets(self.formula()) if unravel else mk_or([d.formula for d in self.disjuncts])
            )
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
        self.in_phi = {}  # phi literal -> copies
        self.apart = {}  # atom of a phi disequality -> copies
        self.lhs_count = {}  # left side of a psi application equation -> copies
        self.shared = 0  # copies past the first, over all left sides; rule 1.i applies when > 0
        self._code_of = {}
        for lit in pre.s1:
            self._put(len(self.psi), lit)
        for lit in pre.passthrough:
            self.retain(lit)

    def _put(self, i: int, lit) -> None:
        code = self._code_of.get(lit)
        if code is None:
            code = self._code_of[lit] = _classify(lit)
        self.psi.insert(i, lit)
        self.codes.insert(i, code)
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

    def eliminate(self, i: int, sym, t) -> None:
        """Delete psi[i] and replace sym by t in the other literals, on the trail."""
        self.remove(i)
        mapping, memo = {sym: t}, {}
        psi = self.psi
        for k in range(len(psi)):
            if sym in flat_symbols(psi[k]):
                self.replace(k, lit_substitute(psi[k], mapping, memo))

    def retain(self, lit) -> None:
        """Append lit to phi."""
        self.phi.append(lit)
        self._count_phi(lit, 1)

    def _count_phi(self, lit, step: int) -> None:
        _tally(self.in_phi, lit, step)
        if isinstance(lit, Ne):
            _tally(self.apart, lit.atom, step)

    def split(self, i: int, j: int, diffs, k: int) -> None:
        """Apply rule 4's successor k to the pair psi[i], psi[j] with these argument diffs.

        Successor 0 merges the pair and assumes every diff equal; successor
        k > 0 assumes diff k - 1 apart.
        """
        if k:
            u, v = diffs[k - 1]
            self.retain(orient(Ne(u, v)))
            return
        a, b = self.psi[i].rhs, self.psi[j].rhs
        self.remove(j)
        if a is not b:
            self.add(orient(Eq(a, b)))
        for u, v in diffs:
            eq = orient(Eq(u, v))
            if eq not in self.in_phi:
                self.retain(eq)

    def mark(self) -> tuple:
        return len(self.trail), len(self.phi), len(self.delta), self.ynames.next_index

    def undo(self, mark: tuple) -> None:
        n, nphi, ndelta, self.ynames.next_index = mark
        trail = self.trail
        while len(trail) > n:
            fn, i, lit = trail.pop()
            fn(self, i, lit)
        for lit in self.phi[nphi:]:
            self._count_phi(lit, -1)
        del self.phi[nphi:]
        del self.delta[ndelta:]


def _pairs(n: int, forward: bool):
    if forward:
        for i in range(n):
            for j in range(i + 1, n):
                yield i, j
    else:
        for i in range(n - 2, -1, -1):
            for j in range(n - 1, i, -1):
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
        """Position of the first literal with this code in scan order, or -1."""
        if code not in codes:
            return -1
        return codes.index(code) if forward else len(codes) - 1 - codes[::-1].index(code)

    # (t, u) -> None when rule 4 cannot split t and u, else their argument
    # diffs with each diff's `pair_key`.
    splits: dict = {}

    def split_of(t, u):
        if (t, u) not in splits:
            diffs = compatible(t, u) if t is not u else None
            splits[t, u] = diffs and (diffs, [pair_key(a, b) for a, b in diffs])
        return splits[t, u]

    def fire(b: _Branch):
        """Apply the first matching rule; return its name (None if none) and the outcome."""
        psi, codes = b.psi, b.codes
        i = first(codes, _TRIVIAL)
        if i >= 0:
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
        i = first(codes, _QPAIR)
        if i >= 0:
            b.eliminate(i, psi[i].lhs.head, psi[i].rhs)
            return "1.ii", "open"
        i = first(codes, _DEFINES)
        if i >= 0:
            lit = psi[i]
            evar, body = (lit.rhs.head, lit.lhs) if lit.lhs.args else (lit.lhs.head, lit.rhs)
            y = mk_symbol(b.ynames.fresh(), 0, "defined")
            b.delta.append((y, body))
            b.eliminate(i, evar, const(y))
            return "2", "open"
        i = first(codes, _EFREE)
        if i >= 0:
            lit = b.remove(i)
            if lit not in b.in_phi:
                b.retain(lit)
            return "3", "open"
        apps = [k for k, code in enumerate(codes) if code == _APP]
        for x, y in _pairs(len(apps), forward):
            i, j = apps[x], apps[y]
            found = split_of(psi[i].lhs, psi[j].lhs)
            if found and b.apart.keys().isdisjoint(found[1]):
                mark = b.mark()
                stack.extend((mark, (i, j, found[0], k)) for k in range(len(found[0]), -1, -1))
                return "4", "split"
        return None, "terminal"

    def keep(b: _Branch) -> bool:
        if prune != "semantic":
            return True
        # Each y is fresh with one body, so its definition read as an
        # equation is equisatisfiable with the unravelled literals.
        return cc_sat(b.phi + [Eq(const(y), t) for y, t in b.delta])

    disjuncts: list[Disjunct] = []
    branch = _Branch(pre)
    stack = [(branch.mark(), None)]  # (mark, rule-4 successor to apply after undoing to it)
    ticks = 0
    while stack:
        mark, successor = stack.pop()
        branch.undo(mark)
        if successor is not None:
            branch.split(*successor)
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
            delta, phi = list(branch.delta), list(branch.phi)
            disjuncts.append(Disjunct(delta, phi, wrap_definitions(delta, mk_and(phi))))

    formats = {}
    disjuncts.sort(key=lambda d: format_formula(d.formula, formats))
    return UiResultDnf(disjuncts, stats, formats)
