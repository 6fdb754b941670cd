"""Branching tableaux elimination: the result is a disjunction of constraints.

A branch state is (delta, phi, psi): explicit definitions built so far, the
retained e-free part, and the remaining work set of flat literals. Rules are
tried in a fixed priority order; only the splitting rule branches. Terminal
work sets hold nothing but blocked applications and quantified disequalities
and are discarded, so each surviving branch contributes (delta, phi).
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
    is_app_eq,
    lit_is_efree,
    lit_substitute,
    mk_symbol,
    orient,
    term_is_efree,
)

RULE_NAMES = ("1.0", "1.i", "1.ii", "2", "3", "4")


@dataclass
class Disjunct:
    delta: list
    phi: list
    _built: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def formula(self, unravel: bool = False):
        """The conjunction under its definitions, built once per unravel flag."""
        if unravel not in self._built:
            if unravel:
                self._built[True] = expand_lets(self.formula())
            else:
                self._built[False] = wrap_definitions(self.delta, mk_and(self.phi))
        return self._built[unravel]


@dataclass
class UiResultDnf:
    disjuncts: list
    stats: dict
    _built: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def formula(self, unravel: bool = False):
        """The disjunction, built once per unravel flag."""
        if unravel not in self._built:
            self._built[unravel] = mk_or([d.formula(unravel=unravel) for d in self.disjuncts])
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

    def find_redex(state: _State):
        psi = state.psi
        n = len(psi)
        idx = range(n) if forward else range(n - 1, -1, -1)
        for i in idx:
            if psi[i].lhs is psi[i].rhs:
                return ("1.0", i)
        for i, j in _pairs(n, forward):
            a, b = psi[i], psi[j]
            if is_app_eq(a) and is_app_eq(b) and a.lhs is b.lhs:
                return ("1.i", (i, j))
        for i in idx:
            lit = psi[i]
            if (
                isinstance(lit, Eq)
                and lit.lhs.head.kind == "quantified"
                and lit.rhs.head.kind == "quantified"
            ):
                return ("1.ii", i)
        for i in idx:
            lit = psi[i]
            if isinstance(lit, Eq) and lit.lhs.head.kind == "quantified" and term_is_efree(lit.rhs):
                return ("2", i)
            if (
                is_app_eq(lit)
                and lit.rhs.head.kind == "quantified"
                and all(term_is_efree(a) for a in lit.lhs.args)
            ):
                return ("2", i)
        for i in idx:
            if lit_is_efree(psi[i]):
                return ("3", i)
        for i, j in _pairs(n, forward):
            a, b = psi[i], psi[j]
            if is_app_eq(a) and is_app_eq(b) and a.lhs is not b.lhs:
                diffs = compatible(a.lhs, b.lhs)
                if diffs is not None and not _blocked(diffs, state.phi):
                    return ("4", (i, j, diffs))
        return None

    def apply_rule(state: _State, kind: str, payload) -> str:
        psi = state.psi
        if kind == "1.0":
            if isinstance(psi[payload], Ne):
                return "closed"
            del psi[payload]
        elif kind == "1.i":
            i, j = payload
            psi[i] = orient(Eq(psi[i].rhs, psi[j].rhs))
        elif kind == "1.ii":
            lit = psi.pop(payload)
            mapping = {lit.lhs.head: lit.rhs}
            psi[:] = [lit_substitute(l, mapping) for l in psi]
        elif kind == "2":
            lit = psi.pop(payload)
            if not lit.lhs.args:
                evar, body = lit.lhs.head, lit.rhs
            else:
                evar, body = lit.rhs.head, lit.lhs
            y = mk_symbol(state.ynames.fresh(), 0, "defined")
            state.delta.append((y, body))
            mapping = {evar: const(y)}
            psi[:] = [lit_substitute(l, mapping) for l in psi]
        else:  # rule 3
            lit = psi.pop(payload)
            if lit not in state.phi:
                state.phi.append(lit)
        return "open"

    def split(state: _State, payload) -> list:
        i, j, diffs = payload
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
        # Apply rules until the branch splits, closes, or has no redex left.
        while True:
            ticks += 1
            if not ticks % 256:
                budget.check_time(stats)
            redex = find_redex(state)
            if redex is None:
                outcome = "terminal"
                break
            kind, payload = redex
            stats["rule_apps"][kind] += 1
            if kind == "4":
                stats["rule4_firings"] += 1
                stack.extend(reversed(split(state, payload)))
                outcome = "split"
                break
            if apply_rule(state, kind, payload) == "closed":
                outcome = "closed"
                break
        if outcome == "split":
            continue
        budget.count(stats, "branches_explored")
        if outcome == "terminal" and keep(state):
            disjuncts.append(Disjunct(state.delta, list(state.phi)))

    disjuncts.sort(key=lambda d: format_formula(d.formula()))
    return UiResultDnf(disjuncts, stats)
