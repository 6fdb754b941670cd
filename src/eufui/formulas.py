"""Quantifier-free formula nodes over interned terms, with let bindings.

The node kinds are TRUE, FALSE, the Eq/Ne literals, And, Or, Implies and
Let. There is no negation node: parse_formula reads a negation into
negation normal form. A Let node carries an ordered list of (y, body)
definitions, the same shape as `pre.initial_delta`; lets are the compressed
(DAG-shaped) output form. expand_lets substitutes them away in one pass,
which can grow the formula exponentially (that blow-up is the point of
keeping them). nnf substitutes them in the same pass as it pushes
negations down.
"""
from __future__ import annotations

from dataclasses import dataclass

from .terms import Eq, Ne, Symbol, Term, term_substitute, term_symbols


@dataclass(frozen=True)
class FTrue:
    pass


@dataclass(frozen=True)
class FFalse:
    pass


TRUE = FTrue()
FALSE = FFalse()


@dataclass(frozen=True)
class And:
    parts: tuple


@dataclass(frozen=True)
class Or:
    parts: tuple


@dataclass(frozen=True)
class Implies:
    lhs: object
    rhs: object


@dataclass(frozen=True)
class Let:
    """let y1 = t1; ...; yn = tn in body, each t_i over earlier bindings.

    `bindings` is a tuple of (Symbol, Term) pairs, bound in order.
    """

    bindings: tuple
    body: object


Formula = object


def _mk_nary(kind, unit, zero, parts) -> Formula:
    """kind over parts: unit parts dropped, a zero part absorbing, same-kind
    parts flattened one level, duplicates kept at their first position."""
    out = []
    for p in parts:
        if p is unit:
            continue
        if p is zero:
            return zero
        if p.__class__ is kind:
            out.extend(p.parts)
        else:
            out.append(p)
    if len(out) > 1 and len(set(out)) < len(out):
        out = list(dict.fromkeys(out))
    if len(out) < 2:
        return out[0] if out else unit
    return kind(tuple(out))


def mk_and(parts) -> Formula:
    return _mk_nary(And, TRUE, FALSE, parts)


def mk_or(parts) -> Formula:
    return _mk_nary(Or, FALSE, TRUE, parts)


def mk_implies(lhs: Formula, rhs: Formula) -> Formula:
    if lhs is TRUE:
        return rhs
    if lhs is FALSE or rhs is TRUE:
        return TRUE
    return Implies(lhs, rhs)


def mk_eq(lhs: Term, rhs: Term) -> Formula:
    return TRUE if lhs is rhs else Eq(lhs, rhs)


def mk_ne(lhs: Term, rhs: Term) -> Formula:
    return FALSE if lhs is rhs else Ne(lhs, rhs)


def expand_lets(f: Formula) -> Formula:
    """f with every let substituted away; atoms outside every let come back as they are."""
    return _expand(f, {}, {})


def let_env(env: dict[Symbol, Term], bindings) -> dict[Symbol, Term]:
    """env extended by a let's bindings, in order, each value substituted.

    A binding may rebind a symbol that terms were already substituted
    under, so each value gets a fresh memo, and so must the let's body.
    """
    env = dict(env)
    for y, t in bindings:
        env[y] = term_substitute(t, env)
    return env


def _expand(f: Formula, env: dict[Symbol, Term], memo: dict) -> Formula:
    if isinstance(f, Let):
        return _expand(f.body, let_env(env, f.bindings), {})
    if isinstance(f, (Eq, Ne)):
        if not env:
            return f
        mk = mk_eq if isinstance(f, Eq) else mk_ne
        return mk(term_substitute(f.lhs, env, memo), term_substitute(f.rhs, env, memo))
    if isinstance(f, And):
        return mk_and([_expand(p, env, memo) for p in f.parts])
    if isinstance(f, Or):
        return mk_or([_expand(p, env, memo) for p in f.parts])
    if isinstance(f, Implies):
        return mk_implies(_expand(f.lhs, env, memo), _expand(f.rhs, env, memo))
    return f


def nnf(f: Formula, positive: bool = True) -> Formula:
    """Negation normal form of f, or of its negation when not positive, with
    every let substituted away; atoms become Eq/Ne leaves only."""
    return _nnf(f, positive, {}, {}, None)


def _nnf(f: Formula, positive: bool, env: dict[Symbol, Term], memo: dict, check) -> Formula:
    """nnf of f under the let bindings in env; `check`, unless None, is
    called at each let. Each let extends env as `expand_lets` does, with one
    `term_substitute` memo per environment."""
    kind = f.__class__
    if kind is Eq or kind is Ne:
        if env:
            lhs, rhs = term_substitute(f.lhs, env, memo), term_substitute(f.rhs, env, memo)
            if lhs is rhs:
                return TRUE if (kind is Eq) is positive else FALSE
            f = kind(lhs, rhs)
        elif f.lhs is f.rhs and not positive:
            return FALSE if kind is Eq else TRUE
        return f if positive else f.neg
    if kind is And or kind is Or:
        parts = [_nnf(p, positive, env, memo, check) for p in f.parts]
        return mk_and(parts) if (kind is And) is positive else mk_or(parts)
    if kind is Implies:
        lhs, rhs = _nnf(f.lhs, not positive, env, memo, check), _nnf(f.rhs, positive, env, memo, check)
        return mk_or([lhs, rhs]) if positive else mk_and([lhs, rhs])
    if kind is Let:
        if check is not None:
            check()
        return _nnf(f.body, positive, let_env(env, f.bindings), {}, check)
    if kind is FTrue or kind is FFalse:
        return TRUE if (kind is FTrue) is positive else FALSE
    raise TypeError(f"not a formula: {f!r}")


def fsize(f: Formula) -> int:
    """Node count, with atom terms counted as expanded trees: each term's interned `size`."""
    if isinstance(f, (FTrue, FFalse)):
        return 1
    if isinstance(f, (Eq, Ne)):
        return 1 + f.lhs.size + f.rhs.size
    if isinstance(f, (And, Or)):
        return 1 + sum(map(fsize, f.parts))
    if isinstance(f, Implies):
        return 1 + fsize(f.lhs) + fsize(f.rhs)
    if isinstance(f, Let):
        return sum(1 + t.size for _, t in f.bindings) + fsize(f.body)
    raise TypeError(f"not a formula: {f!r}")


def formula_symbols(f: Formula) -> set[Symbol]:
    """Symbols of all atoms and let values, without expanding lets."""
    out: set[Symbol] = set()

    def go(g):
        if isinstance(g, (Eq, Ne)):
            out.update(term_symbols(g.lhs))
            out.update(term_symbols(g.rhs))
        elif isinstance(g, (And, Or)):
            for p in g.parts:
                go(p)
        elif isinstance(g, Implies):
            go(g.lhs)
            go(g.rhs)
        elif isinstance(g, Let):
            for _, t in g.bindings:
                out.update(term_symbols(t))
            go(g.body)

    go(f)
    return out


def wrap_definitions(entries, body: Formula) -> Formula:
    """One let over body holding, in list order, the definitions it actually reaches."""
    if not entries:
        return body
    syms = formula_symbols(body)
    for y, t in reversed(entries):
        if y in syms:
            syms |= term_symbols(t)
    bindings = tuple((y, t) for y, t in entries if y in syms)
    return Let(bindings, body) if bindings else body
