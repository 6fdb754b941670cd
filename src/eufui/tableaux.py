"""Branching tableaux elimination: the result is a disjunction of constraints.

A branch state is (delta, phi, psi): explicit definitions built so far, the
retained e-free part, and the remaining work set of flat literals. Each rule
is found and applied in one scan: `fire` tries the rules in a fixed priority
order and applies the first match on the spot; only the splitting rule
branches. Terminal work sets hold nothing but blocked applications and
quantified disequalities and are discarded, so each surviving branch
contributes (delta, phi).
"""
from __future__ import annotations

import copy
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
    eliminate,
    is_app_definition,
    is_app_eq,
    lit_is_efree,
    mk_symbol,
    orient,
    term_is_efree,
)

RULE_NAMES = ("1.0", "1.i", "1.ii", "2", "3", "4")


@dataclass
class Disjunct:
    delta: list
    phi: list
    formula: object  # the conjunction of phi under the definitions it reaches


@dataclass
class UiResultDnf:
    disjuncts: list
    stats: dict
    _built: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def formula(self, unravel: bool = False):
        """The disjunction, built once per unravel flag."""
        if unravel not in self._built:
            self._built[unravel] = (
                expand_lets(self.formula()) if unravel else mk_or([d.formula for d in self.disjuncts])
            )
        return self._built[unravel]


class _State:
    __slots__ = ("delta", "psi", "phi", "ynames")

    def __init__(self, delta, psi, phi, ynames):
        self.delta = delta
        self.psi = psi
        self.phi = phi
        self.ynames = ynames

    def copy(self) -> "_State":
        return _State(list(self.delta), list(self.psi), list(self.phi), copy.copy(self.ynames))


def _pairs(n: int, forward: bool):
    if forward:
        for i in range(n):
            for j in range(i + 1, n):
                yield i, j
    else:
        for i in range(n - 2, -1, -1):
            for j in range(n - 1, i, -1):
                yield i, j


def _blocked(diffs, phi) -> bool:
    for u, v in diffs:
        key = frozenset((u.id, v.id))
        for lit in phi:
            if isinstance(lit, Ne) and frozenset((lit.lhs.id, lit.rhs.id)) == key:
                return True
    return False


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

    def fire(state: _State):
        """Apply the first matching rule; return its name (None if none) and the outcome."""
        psi = state.psi
        n = len(psi)
        idx = range(n) if forward else range(n - 1, -1, -1)
        for i in idx:
            if psi[i].lhs is psi[i].rhs:
                if isinstance(psi[i], Ne):
                    return "1.0", "closed"
                del psi[i]
                return "1.0", "open"
        for i, j in _pairs(n, forward):
            a, b = psi[i], psi[j]
            if is_app_eq(a) and is_app_eq(b) and a.lhs is b.lhs:
                psi[i] = orient(Eq(a.rhs, b.rhs))
                return "1.i", "open"
        for i in idx:
            lit = psi[i]
            if (
                isinstance(lit, Eq)
                and lit.lhs.head.kind == "quantified"
                and lit.rhs.head.kind == "quantified"
            ):
                eliminate(psi, i, lit.lhs.head, lit.rhs)
                return "1.ii", "open"
        for i in idx:
            lit = psi[i]
            if isinstance(lit, Eq) and lit.lhs.head.kind == "quantified" and term_is_efree(lit.rhs):
                evar, body = lit.lhs.head, lit.rhs
            elif is_app_definition(lit):
                evar, body = lit.rhs.head, lit.lhs
            else:
                continue
            y = mk_symbol(state.ynames.fresh(), 0, "defined")
            state.delta.append((y, body))
            eliminate(psi, i, evar, const(y))
            return "2", "open"
        for i in idx:
            if lit_is_efree(psi[i]):
                lit = psi.pop(i)
                if lit not in state.phi:
                    state.phi.append(lit)
                return "3", "open"
        for i, j in _pairs(n, forward):
            a, b = psi[i], psi[j]
            if is_app_eq(a) and is_app_eq(b) and a.lhs is not b.lhs:
                diffs = compatible(a.lhs, b.lhs)
                if diffs is not None and not _blocked(diffs, state.phi):
                    stack.extend(reversed(split(state, i, j, diffs)))
                    return "4", "split"
        return None, "terminal"

    def split(state: _State, i: int, j: int, diffs) -> list:
        succs = []
        s0 = state.copy()
        a, b = s0.psi[i].rhs, s0.psi[j].rhs
        del s0.psi[j]
        if a is not b:
            s0.psi.append(orient(Eq(a, b)))
        for u, v in diffs:
            eq = orient(Eq(u, v))
            if eq not in s0.phi:
                s0.phi.append(eq)
        succs.append(s0)
        for u, v in diffs:
            sk = state.copy()
            sk.phi.append(orient(Ne(u, v)))
            succs.append(sk)
        return succs

    def keep(state: _State) -> bool:
        if prune != "semantic":
            return True
        # Each y is fresh with one body, so its definition read as an
        # equation is equisatisfiable with the unravelled literals.
        return cc_sat(state.phi + [Eq(const(y), t) for y, t in state.delta])

    disjuncts: list[Disjunct] = []
    stack = [_State(list(pre.initial_delta), list(pre.s1), list(pre.passthrough),
                    NamePool("y", pre.taken_names, 1))]
    ticks = 0
    while stack:
        budget.check_time(stats)
        state = stack.pop()
        # Fire rules until the branch splits, closes, or no rule matches.
        while True:
            ticks += 1
            if not ticks % 256:
                budget.check_time(stats)
            rule, outcome = fire(state)
            if rule is not None:
                stats["rule_apps"][rule] += 1
            if outcome != "open":
                break
        if outcome == "split":
            stats["rule4_firings"] += 1
            continue
        budget.count(stats, "branches_explored")
        if outcome == "terminal" and keep(state):
            formula = wrap_definitions(state.delta, mk_and(state.phi))
            disjuncts.append(Disjunct(state.delta, state.phi, formula))

    disjuncts.sort(key=lambda d: format_formula(d.formula))
    return UiResultDnf(disjuncts, stats)
