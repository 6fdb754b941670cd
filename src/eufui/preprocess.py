"""Flattening into the restricted literal language shared by both algorithms.

The output holds only literals of two shapes over 0-ary operands,
f(a1..ah)=a and a!=b, each mentioning a quantified variable; everything
e-free is routed to the passthrough list. Quantified equalities
e=t with t e-free never survive: they are eliminated by replacement and
their witnesses recorded for the replay audit. Nor do applications
f(a1..ah)=e with every ai e-free: e becomes a y-definition (rule 2).
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .errors import Budget
from .euf import euf_valid
from .formulas import mk_and, wrap_definitions
from .terms import (
    Eq,
    NamePool,
    Ne,
    Symbol,
    Term,
    const,
    eliminate,
    flat_symbols,
    intern,
    is_app_definition,
    lit_is_efree,
    lit_substitute,
    mk_symbol,
    orient,
    term_substitute,
)


@dataclass
class PreprocessedInput:
    s1: list = field(default_factory=list)
    passthrough: list = field(default_factory=list)
    initial_delta: list[tuple[Symbol, Term]] = field(default_factory=list)
    renaming: dict[Symbol, Term] = field(default_factory=dict)
    eliminated: dict[Symbol, Term] = field(default_factory=dict)
    evars: list[Symbol] = field(default_factory=list)
    falsified: bool = False
    taken_names: set[str] = field(default_factory=set)


def flatten(problem, budget: Budget = Budget()) -> PreprocessedInput:
    """Flatten the problem body into s1 plus the e-free passthrough.

    The deadline is checked once per fixpoint pass; a timeout here carries
    no counters.
    """
    pre = PreprocessedInput()
    taken = set(problem.symbols)
    ypool = NamePool("y", taken, start=1)
    eshare: dict[int, Term] = {}
    yshare: dict[int, Term] = {}
    introduced: list[Symbol] = []
    work: list = []

    def y_for(t: Term) -> Term:
        got = yshare.get(t.id)
        if got is None:
            y = mk_symbol(ypool.fresh(), 0, "defined")
            pre.initial_delta.append((y, t))
            got = yshare[t.id] = const(y)
        return got

    def atom_of(t: Term) -> Term:
        if not t.args:
            return t
        if t.efree:
            return y_for(t)
        app = intern(t.head, tuple(atom_of(a) for a in t.args))
        got = eshare.get(app.id)
        if got is None:
            e = mk_symbol(f"_a{len(introduced)}", 0, "quantified")
            introduced.append(e)
            pre.renaming[e] = t
            got = eshare[app.id] = const(e)
            work.append(Eq(app, got))
        return got

    for lit in problem.body:
        if lit.lhs is lit.rhs:
            if isinstance(lit, Ne):
                pre.falsified = True
                return pre
            continue
        if lit_is_efree(lit):
            if lit not in pre.passthrough:
                pre.passthrough.append(lit)
            continue
        a = atom_of(lit.lhs)
        b = atom_of(lit.rhs)
        work.append(orient(type(lit)(a, b)))

    # Simplification to fixpoint: drop trivia, eliminate e=t by replacement,
    # move literals that became e-free to passthrough, drop duplicates. Only
    # in a pass where none of these applies does rule 2 turn an application
    # f(a)=e with e-free arguments into e := y, y := f(a): earlier, h(y)=e
    # with e=z still pending would give h(y) a y of its own instead of
    # passing h(y)=z through.
    changed = True
    while changed:
        budget.check_time({})
        changed = False
        seen = set()
        for i, lit in enumerate(work):
            if lit.lhs is lit.rhs:
                if isinstance(lit, Ne):
                    pre.falsified = True
                    return pre
                del work[i]
            elif isinstance(lit, Eq) and lit.lhs.head.kind == "quantified":
                pre.eliminated[lit.lhs.head] = lit.rhs
                eliminate(work, i, lit.lhs.head, lit.rhs)
            elif lit_is_efree(lit):
                del work[i]
                if lit not in pre.passthrough:
                    pre.passthrough.append(lit)
            elif lit in seen:
                del work[i]
            else:
                seen.add(lit)
                continue
            changed = True
            break
        if changed:
            continue
        for i, lit in enumerate(work):
            if is_app_definition(lit):
                pre.eliminated[lit.rhs.head] = y = y_for(lit.lhs)
                eliminate(work, i, lit.rhs.head, y)
                changed = True
                break

    # Rename surviving fresh variables densely, in first-emission order,
    # continuing the eliminate numbering and skipping taken names.
    epool = NamePool("e", taken, start=len(problem.eliminate))
    live = live_symbols(work)
    renumber: dict[Symbol, Term] = {}
    for old in introduced:
        if old in live:
            new = mk_symbol(epool.fresh(), 0, "quantified")
            renumber[old] = const(new)
            pre.renaming[new] = pre.renaming.pop(old)
    if renumber:
        work = [lit_substitute(lit, renumber) for lit in work]

    # Resolve eliminated witnesses through later replacements and renumbering;
    # an eliminated fresh variable keeps no renaming.
    for sym in list(pre.eliminated):
        pre.renaming.pop(sym, None)
        w = pre.eliminated[sym]
        while w.head in pre.eliminated:
            w = pre.eliminated[w.head]
        w = term_substitute(w, renumber)
        pre.eliminated[sym] = w

    pre.s1 = work
    order = {s: i for i, s in enumerate(problem.eliminate)}
    for old in introduced:
        if old in renumber:
            order[renumber[old].head] = len(order)
    pre.evars = sorted(live_symbols(pre.s1), key=lambda s: order[s])
    pre.taken_names = (
        set(taken)
        | {y.name for y, _ in pre.initial_delta}
        | {s.name for s in pre.renaming}
    )
    return pre


def live_symbols(s1) -> set[Symbol]:
    return {s for lit in s1 for s in flat_symbols(lit) if s.kind == "quantified"}


def replay_check(pre: PreprocessedInput, problem) -> bool:
    """Audit flattening: both entailment directions hold under the oracle."""
    if pre.falsified:
        return True
    body = mk_and(problem.body)
    # Renaming values are y-free input terms and no y body mentions a renamed
    # variable, so the renaming reads as definitions ahead of the y's.
    forward_target = wrap_definitions(
        [*pre.renaming.items(), *pre.initial_delta], mk_and(pre.passthrough + pre.s1)
    )
    ok, _ = euf_valid(body, forward_target)
    if not ok:
        return False

    back_hyp = pre.passthrough + pre.s1
    back_hyp += [Eq(const(y), t) for y, t in pre.initial_delta]
    back_hyp += [Eq(const(sym), w) for sym, w in pre.eliminated.items()]
    ok, _ = euf_valid(mk_and(back_hyp), body)
    return ok
