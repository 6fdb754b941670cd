"""Interned term DAG and ground literals.

Terms are hash-consed into a table on their head symbol, so structural
equality is identity and a term lives exactly as long as the symbols of
the problem that built it. Ids come from one counter, so iteration order
is stable across runs. All values here are immutable once constructed,
and `intern` sets a term's e-freeness and expanded size as it builds it.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

KINDS = ("function", "parameter", "quantified", "defined")

# Orientation order of 0-ary operands: quantified above defined above
# parameter, ties by creation id. Rule 1.ii and the saturation rewriter
# both need the higher eliminate index on the left.
_KIND_RANK = {"quantified": 3, "defined": 2, "parameter": 1, "function": 0}

_symbol_uids = itertools.count()
_term_ids = itertools.count()


@dataclass(frozen=True, eq=False)
class Symbol:
    name: str
    arity: int
    kind: str
    uid: int
    # Applications of this symbol, keyed by their argument ids.
    terms: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    # Literals whose left side has this head, keyed by (kind, lhs id, rhs id).
    lits: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def rank(self) -> tuple[int, int]:
        return (_KIND_RANK[self.kind], self.uid)

    def __repr__(self) -> str:
        return self.name


def mk_symbol(name: str, arity: int, kind: str) -> Symbol:
    """Create a new symbol with a fresh uid (uids order symbols of one kind)."""
    if kind not in KINDS:
        raise ValueError(f"unknown symbol kind {kind!r}")
    if kind != "function" and arity != 0:
        raise ValueError(f"{kind} symbol {name!r} must have arity 0")
    return Symbol(name, arity, kind, next(_symbol_uids))


@dataclass(frozen=True, eq=False)
class Term:
    """`efree` (no quantified symbol occurs in the term) and `size` (the node count
    of its fully expanded tree) are set by `intern` from the arguments' own."""

    id: int
    head: Symbol
    args: tuple["Term", ...]
    efree: bool
    size: int

    def __repr__(self) -> str:
        if not self.args:
            return self.head.name
        return f"{self.head.name}({', '.join(map(repr, self.args))})"


def intern(head: Symbol, args: tuple[Term, ...] | list[Term] = ()) -> Term:
    """Return the canonical term for head applied to args."""
    args = tuple(args)
    if len(args) != head.arity:
        raise ValueError(f"arity mismatch: {head.name} expects {head.arity} args, got {len(args)}")
    key = tuple(a.id for a in args)
    t = head.terms.get(key)
    if t is None:
        efree = head.kind != "quantified" and all(a.efree for a in args)
        size = 1 + sum(a.size for a in args)
        t = head.terms[key] = Term(next(_term_ids), head, args, efree, size)
    return t


def const(sym: Symbol) -> Term:
    return intern(sym, ())


def term_symbols(t: Term) -> set[Symbol]:
    """All symbols occurring in t (heads included)."""
    out: set[Symbol] = set()
    stack = [t]
    while stack:
        u = stack.pop()
        out.add(u.head)
        stack.extend(u.args)
    return out


def term_substitute(t: Term, mapping: dict[Symbol, Term], memo: dict | None = None) -> Term:
    """Replace 0-ary occurrences of the mapped symbols throughout t."""
    if memo is None:
        memo = {}
    r = memo.get(t.id)
    if r is not None:
        return r
    if not t.args:
        r = mapping.get(t.head, t)
    else:
        r = intern(t.head, tuple(term_substitute(a, mapping, memo) for a in t.args))
    memo[t.id] = r
    return r


def pair_key(a: Term, b: Term) -> int:
    """The same int for (a, b) and (b, a), and a different one for any other pair."""
    lo, hi = (a.id, b.id) if a.id < b.id else (b.id, a.id)
    return hi * (hi + 1) // 2 + lo


# ---------------------------------------------------------------------------
# Literals: ground equations and disequations. The flat language of both
# engines uses three shapes of them: f(a1..ah) = a (an Eq whose left side is
# the application), a = b and a != b, every operand 0-ary. Literals are
# hash-consed like terms, in a table on the left side's head symbol, so two
# literals are equal only when identical and are freed with their problem.
# `atom` is the `pair_key` of the two sides, so a = b, b = a, a != b and
# b != a share it. `neg` is the complement with the same sides (a != b for
# a = b and back), interned in the same table the first time it is read.


class _Literal:
    __slots__ = ("lhs", "rhs", "atom", "_neg", "__weakref__")

    def __new__(cls, lhs: Term, rhs: Term):
        key = (cls, lhs.id, rhs.id)
        table = lhs.head.lits
        lit = table.get(key)
        if lit is None:
            lit = table[key] = object.__new__(cls)
            for name, value in (("lhs", lhs), ("rhs", rhs), ("atom", pair_key(lhs, rhs))):
                object.__setattr__(lit, name, value)
        return lit

    @property
    def neg(self):
        # The `_neg` slot stays empty until the first read, so parsing and
        # both engines, which never ask, pay nothing for it. A property: a
        # `__getattr__` fallback would slow every read of lhs, rhs and atom.
        try:
            return self._neg
        except AttributeError:
            neg = (Ne if self.__class__ is Eq else Eq)(self.lhs, self.rhs)
            object.__setattr__(self, "_neg", neg)
            object.__setattr__(neg, "_neg", self)
            return neg

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__


class Eq(_Literal):
    __slots__ = ()

    def __repr__(self) -> str:
        return f"{self.lhs!r}={self.rhs!r}"


class Ne(_Literal):
    __slots__ = ()

    def __repr__(self) -> str:
        return f"{self.lhs!r}!={self.rhs!r}"


def is_app_eq(lit) -> bool:
    """True for the flat application shape f(a1..ah) = a."""
    return isinstance(lit, Eq) and bool(lit.lhs.args)


def is_app_definition(lit) -> bool:
    """True for f(a1..ah) = e with e quantified and every ai e-free: rule 2 defines e."""
    return (
        is_app_eq(lit)
        and lit.rhs.head.kind == "quantified"
        and all(a.efree for a in lit.lhs.args)
    )


def orient(lit):
    """Store a literal between 0-ary terms with the larger-ranked symbol on the left."""
    if not (lit.lhs.args or lit.rhs.args) and lit.lhs.head.rank() < lit.rhs.head.rank():
        return type(lit)(lit.rhs, lit.lhs)
    return lit


def lit_is_efree(lit) -> bool:
    return lit.lhs.efree and lit.rhs.efree


def lit_substitute(lit, mapping: dict[Symbol, Term], memo: dict | None = None):
    """Apply a 0-ary substitution to both sides, then re-orient."""
    if memo is None:
        memo = {}
    lhs = term_substitute(lit.lhs, mapping, memo)
    rhs = term_substitute(lit.rhs, mapping, memo)
    return orient(type(lit)(lhs, rhs))


def flat_symbols(lit) -> list[Symbol]:
    """Heads of a flat literal's sides and of their arguments."""
    return [u.head for t in (lit.lhs, lit.rhs) for u in (t, *t.args)]


def eliminate(lits: list, i: int, sym: Symbol, t: Term) -> None:
    """Delete lits[i] and replace sym by t in the remaining flat literals, in place.

    Only literals that mention sym are rebuilt; the others stay the same objects.
    """
    del lits[i]
    mapping = {sym: t}
    lits[:] = [lit_substitute(l, mapping) if sym in flat_symbols(l) else l for l in lits]


def compatible(t: Term, u: Term):
    """Difference pairs of two same-head applications, or None when incompatible.

    Argument pairs must be identical or both e-free. The returned list keeps
    first occurrence order and drops repeated pairs.
    """
    if t.head is not u.head or not t.args:
        return None
    diffs = []
    seen = set()
    for a, b in zip(t.args, u.args):
        if a is b:
            continue
        if not (a.efree and b.efree):
            return None
        key = pair_key(a, b)
        if key not in seen:
            seen.add(key)
            diffs.append((a, b))
    return diffs


class NamePool:
    """Deterministic fresh-name source: base<i> for a rising i, skipping taken names."""

    def __init__(self, base: str, taken, start: int = 0):
        self.base = base
        self.taken = taken
        self.next_index = start

    def fresh(self) -> str:
        while True:
            name = f"{self.base}{self.next_index}"
            self.next_index += 1
            if name not in self.taken:
                return name
