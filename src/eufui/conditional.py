"""Conditional Horn-clause elimination: the result is a conjunction.

Step 1 turns the flat input into Horn clauses: each pair of applications
of one function contributes "argument equalities imply the right-side
equality", and every input literal survives as a unit clause (a quantified
disequality becomes an equality-implies-bottom clause). Step 2 saturates
under rewriting by clauses whose consequent equates two quantified
variables; a rewrite replaces one occurrence at any single operand position
of a clause, all positions treated alike. The output conjoins, over every
extractable chain of conditional definitions, the clauses expressible in
the retained language once the chain's placeholders are bound.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .errors import Budget
from .formulas import FALSE, Let, expand_lets, let_env, mk_and, mk_eq, mk_implies, wrap_definitions
from .terms import (
    Eq,
    NamePool,
    Ne,
    Symbol,
    Term,
    const,
    intern,
    is_app_eq,
    mk_symbol,
    orient,
    term_substitute,
)


@dataclass(frozen=True)
class HornClause:
    """Antecedent of variable equalities, consequent literal (None is bottom).

    `operands` lists both sides of each antecedent atom, then the
    consequent's arguments (its left side when 0-ary) and its right side:
    the positions that rewriting and substitution address.
    """

    antecedent: tuple
    consequent: object
    operands: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        ops = [t for a in self.antecedent for t in (a.lhs, a.rhs)]
        cq = self.consequent
        if cq is not None:
            ops.extend(cq.lhs.args if cq.lhs.args else (cq.lhs,))
            ops.append(cq.rhs)
        object.__setattr__(self, "operands", tuple(ops))


def _atom_key(a: Eq) -> tuple[int, int]:
    return (a.lhs.id, a.rhs.id)


def make_clause(antecedent, consequent, keep_tautology: bool = False):
    """Canonical clause, or None when it simplifies to a tautology.

    Application-pair merges must survive even when the consequent repeats
    an antecedent atom: their rewritten descendants are the clauses that
    keep later merges subsumption-closed.
    """
    atoms = []
    seen = set()
    for a in antecedent:
        a = orient(a)
        if a.lhs is a.rhs:
            continue
        key = _atom_key(a)
        if key not in seen:
            seen.add(key)
            atoms.append(a)
    atoms.sort(key=_atom_key)
    if consequent is not None and not consequent.lhs.args:
        consequent = orient(consequent)
        if consequent.lhs is consequent.rhs:
            return None
        if _atom_key(consequent) in seen and not keep_tautology:
            return None
    return HornClause(tuple(atoms), consequent)


def _with_operands(c: HornClause, ops):
    """c's antecedent atoms and consequent rebuilt from operands in `HornClause.operands` order."""
    k = 2 * len(c.antecedent)
    ante = [Eq(ops[p], ops[p + 1]) for p in range(0, k, 2)]
    cq = c.consequent
    if cq is not None:
        if cq.lhs.args:
            cq = Eq(intern(cq.lhs.head, ops[k:-1]), ops[-1])
        else:
            cq = Eq(ops[k], ops[k + 1])
    return ante, cq


def _substituted(c: HornClause, mapping: dict):
    """c's antecedent atoms and consequent with mapping applied to every operand."""
    memo: dict = {}
    return _with_operands(c, [term_substitute(t, mapping, memo) for t in c.operands])


def _mentions(c: HornClause, sym: Symbol) -> bool:
    return any(t.head is sym for t in c.operands)


def _is_rewriter(c: HornClause) -> bool:
    cq = c.consequent
    return cq is not None and cq.lhs.head.kind == "quantified" and cq.rhs.head.kind == "quantified"


def step1(pre, budget: Budget = Budget(), stats: dict | None = None) -> list[HornClause]:
    """Unit clauses plus one conditional clause per mixed application pair.

    Each clause counts against the clause cap as it is built, and
    `s2_size` follows it; the deadline is checked once per outer
    application. Either limit raises with stats.
    """
    if stats is None:
        stats = {"clauses_created": 0}
    out: list[HornClause] = []
    seen = set()

    def push(c):
        if c is not None and c not in seen:
            seen.add(c)
            out.append(c)
            stats["s2_size"] = len(out)
            budget.count(stats, "clauses_created")

    for lit in pre.s1:
        if is_app_eq(lit):
            push(HornClause((), lit))
        elif isinstance(lit, Ne):
            push(make_clause((Eq(lit.lhs, lit.rhs),), None))
        else:
            push(make_clause((), lit))

    funeqs = [l for l in pre.s1 if is_app_eq(l)]
    for i in range(len(funeqs)):
        budget.check_time(stats)
        for j in range(i + 1, len(funeqs)):
            a, b = funeqs[i], funeqs[j]
            if a.lhs.head is not b.lhs.head or a.rhs is b.rhs:
                continue
            ante = [Eq(u, v) for u, v in zip(a.lhs.args, b.lhs.args)]
            push(make_clause(ante, Eq(a.rhs, b.rhs), keep_tautology=True))
    return out


def _rewrite_once(r: HornClause, c: HornClause) -> list[HornClause]:
    """All single-occurrence replacements of r's consequent lhs inside c, in operand order.

    Every position is treated alike, except that r does not rewrite its own consequent.
    """
    src, dst = r.consequent.lhs, r.consequent.rhs
    ops = c.operands
    out = []
    for p in range(2 * len(c.antecedent) if r is c else len(ops)):
        if ops[p] is src:
            ante, cq = _with_operands(c, (*ops[:p], dst, *ops[p + 1:]))
            c2 = make_clause(ante + list(r.antecedent), cq)
            if c2 is not None:
                out.append(c2)
    return out


def _subsumes(d: HornClause, c: HornClause) -> bool:
    return d.consequent == c.consequent and set(d.antecedent) <= set(c.antecedent)


def step2(clauses, budget: Budget = Budget(), order: str = "fifo", stats: dict | None = None):
    """Given-clause saturation under quantified-variable rewriting; returns the saturated list.

    `clauses_created` in stats counts every inferred clause against the
    clause cap; step 1 counted the input clauses as it built them.
    """
    if order not in ("fifo", "lifo"):
        raise ValueError(f"unknown saturation order {order}")
    if stats is None:
        stats = {"clauses_created": 0}
    seen = set(clauses)
    queue = deque(clauses)
    processed: list[HornClause] = []
    while queue:
        budget.check_time(stats)
        g = queue.popleft() if order == "fifo" else queue.pop()
        if any(_subsumes(p, g) for p in processed):
            continue
        processed = [p for p in processed if not _subsumes(g, p)]
        inferred = []
        if _is_rewriter(g):
            for c in processed + [g]:
                inferred.extend(_rewrite_once(g, c))
        for r in processed:
            if _is_rewriter(r):
                inferred.extend(_rewrite_once(r, g))
        processed.append(g)
        for c in inferred:
            if c in seen or any(_subsumes(p, c) for p in processed):
                continue
            seen.add(c)
            budget.count(stats, "clauses_created")
            queue.append(c)
    return processed


# --- conditional definition chains -----------------------------------------


@dataclass
class CdagEntry:
    var: Symbol
    clause: HornClause
    body: Term


def _in_lang(t: Term, allowed: set) -> bool:
    return t.head.kind != "quantified" or t.head in allowed


def _def_body(c: HornClause, w: Symbol, allowed: set):
    """The defining body when clause c can define w over allowed, else None."""
    if not all(_in_lang(a.lhs, allowed) and _in_lang(a.rhs, allowed) for a in c.antecedent):
        return None
    cq = c.consequent
    if cq is None:
        return None
    if not cq.lhs.args:
        for mine, other in ((cq.lhs, cq.rhs), (cq.rhs, cq.lhs)):
            if mine.head is w and _in_lang(other, allowed):
                return other
        return None
    if cq.rhs.head is w:
        if all(_in_lang(a, allowed) for a in cq.lhs.args):
            return cq.lhs
    return None


def enumerate_cdags(s3, evars, budget: Budget = Budget(), stats: dict | None = None):
    """Yield every definition chain in canonical order (each prefix once).

    A chain entry may reuse its clause's consequent in either orientation.
    When consecutive entries are independent (the later clause does not
    mention the earlier placeholder), only the elimination-ordered
    interleaving is kept, so each set of entries appears once. Chains are
    yielded lazily; `cdags_visited` in stats covers every tree node seen so
    far, and the cdag cap raises with stats.
    """
    if stats is None:
        stats = {"cdags_visited": 0}
    position = {w: i for i, w in enumerate(evars)}

    def dfs(allowed: set, entries: list):
        budget.count(stats, "cdags_visited")
        budget.check_time(stats)
        yield list(entries)
        for w in evars:
            if w in allowed:
                continue
            for c in s3:
                body = _def_body(c, w, allowed)
                if body is None:
                    continue
                if entries:
                    prev = entries[-1].var
                    if not _mentions(c, prev) and position[prev] > position[w]:
                        continue
                entries.append(CdagEntry(w, c, body))
                yield from dfs(allowed | {w}, entries)
                entries.pop()

    yield from dfs(set(), [])


def core_clauses(s3, wset: set) -> list[HornClause]:
    """Clauses whose every variable operand is retained or in wset."""
    return [c for c in s3 if all(_in_lang(t, wset) for t in c.operands)]


def _clause_trivial(c: HornClause, mapping: dict) -> bool:
    if c.consequent is None:
        return False
    ante, cq = _substituted(c, mapping)
    if cq.lhs is cq.rhs:
        return True
    return any(a.atom == cq.atom for a in ante)


def _clause_formula(c: HornClause, mapping: dict):
    ante, cq = _substituted(c, mapping)
    concl = FALSE if cq is None else mk_eq(cq.lhs, cq.rhs)
    return mk_implies(mk_and([mk_eq(a.lhs, a.rhs) for a in ante]), concl)


@dataclass
class PhiDelta:
    """One conditional definition chain with its retained-language clauses."""

    entries: list
    core: list
    placeholders: dict = field(default_factory=dict)  # original var -> fresh symbol

    def formula(self, unravel: bool = False):
        wmap = {v: const(w) for v, w in self.placeholders.items()}
        if not unravel:
            body = mk_and([_clause_formula(c, wmap) for c in self.core])
            for e in reversed(self.entries):
                gamma = mk_and([mk_eq(a.lhs, a.rhs) for a in _substituted(e.clause, wmap)[0]])
                bound = self.placeholders[e.var]
                body = mk_implies(gamma, Let(((bound, term_substitute(e.body, wmap)),), body))
            return body
        # An entry's antecedent mentions only earlier variables, so binding the
        # whole chain over every guard gives the same atoms as its prefix would.
        guards = [mk_eq(a.lhs, a.rhs) for e in self.entries for a in e.clause.antecedent]
        concl = mk_and([_clause_formula(c, {}) for c in self.core])
        return expand_lets(wrap_definitions(
            [(e.var, e.body) for e in self.entries], mk_implies(mk_and(guards), concl)
        ))


@dataclass
class UiResultCnf:
    phis: list
    passthrough: list
    initial_delta: list
    s2: list
    s3: list
    stats: dict
    falsified: bool = False
    formats: dict = field(default_factory=dict, init=False, compare=False, repr=False)  # format_formula's memo
    _built: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def formula(self, unravel: bool = False):
        """The conjunction, built once per unravel flag."""
        if self.falsified:
            return FALSE
        if unravel not in self._built:
            parts = list(self.passthrough)
            parts += [phi.formula(unravel=unravel) for phi in self.phis]
            body = wrap_definitions(self.initial_delta, mk_and(parts))
            self._built[unravel] = expand_lets(body) if unravel else body
        return self._built[unravel]


def compute_conditional_ui(pre, budget: Budget = Budget(), order: str = "fifo") -> UiResultCnf:
    """Run both saturation steps, extract all chains, keep the useful ones."""
    stats = {"s2_size": 0, "s3_size": 0, "num_cdags": 0, "clauses_created": 0, "cdags_visited": 0}
    if pre.falsified:
        return UiResultCnf([], [], [], [], [], stats, falsified=True)

    s2 = step1(pre, budget, stats)
    s3 = step2(s2, budget, order, stats)
    stats["s3_size"] = len(s3)

    phis = []
    for entries in enumerate_cdags(s3, pre.evars, budget, stats):
        wset = {e.var for e in entries}
        core = core_clauses(s3, wset)
        if not core:
            continue
        sigma = let_env({}, [(e.var, e.body) for e in entries])
        if all(_clause_trivial(c, sigma) for c in core):
            continue
        wnames = NamePool("w", pre.taken_names, 1)
        names = {e.var: mk_symbol(wnames.fresh(), 0, "defined") for e in entries}
        phis.append(PhiDelta(list(entries), core, names))
    stats["num_cdags"] = len(phis)

    return UiResultCnf(phis, list(pre.passthrough), list(pre.initial_delta), s2, s3, stats)
