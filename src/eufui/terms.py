"""Interned term DAG, flat literals, constraints and DAG-definitions.

Terms are hash-consed into a global append-only table with dense integer
ids, so structural equality is identity and iteration order is stable
across runs. All values here are immutable once constructed.
"""
from __future__ import annotations

from dataclasses import dataclass, field

KINDS = ("function", "parameter", "quantified", "defined", "fresh-constant")

# Orientation order of 0-ary operands: quantified above defined above
# parameter above fresh constants, ties by creation id. Rule 1.ii and the
# saturation rewriter both need the higher eliminate index on the left.
_KIND_RANK = {
    "quantified": 3,
    "defined": 2,
    "parameter": 1,
    "fresh-constant": 0,
    "function": 0,
}

_next_symbol_uid = 0
_term_table: dict[tuple[int, tuple[int, ...]], "Term"] = {}


@dataclass(frozen=True, eq=False)
class Symbol:
    name: str
    arity: int
    kind: str
    uid: int

    def rank(self) -> tuple[int, int]:
        return (_KIND_RANK[self.kind], self.uid)

    def __repr__(self) -> str:
        return self.name


def mk_symbol(name: str, arity: int, kind: str) -> Symbol:
    """Create a new symbol with a fresh uid (uids order symbols of one kind)."""
    global _next_symbol_uid
    if kind not in KINDS:
        raise ValueError(f"unknown symbol kind {kind!r}")
    if kind != "function" and arity != 0:
        raise ValueError(f"{kind} symbol {name!r} must have arity 0")
    uid = _next_symbol_uid
    _next_symbol_uid += 1
    return Symbol(name, arity, kind, uid)


@dataclass(frozen=True, eq=False)
class Term:
    id: int
    head: Symbol
    args: tuple["Term", ...]

    def __repr__(self) -> str:
        if not self.args:
            return self.head.name
        return f"{self.head.name}({', '.join(map(repr, self.args))})"


def intern(head: Symbol, args: tuple[Term, ...] | list[Term] = ()) -> Term:
    """Return the canonical term for head applied to args."""
    args = tuple(args)
    if len(args) != head.arity:
        raise ValueError(f"arity mismatch: {head.name} expects {head.arity} args, got {len(args)}")
    key = (head.uid, tuple(a.id for a in args))
    t = _term_table.get(key)
    if t is None:
        t = _term_table[key] = Term(len(_term_table), head, args)
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


def term_is_efree(t: Term) -> bool:
    """True when t contains no quantified symbol."""
    stack = [t]
    while stack:
        u = stack.pop()
        if u.head.kind == "quantified":
            return False
        stack.extend(u.args)
    return True


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


def term_tree_size(t: Term, memo: dict | None = None) -> int:
    """Node count of the fully expanded tree (not the shared DAG)."""
    if memo is None:
        memo = {}
    r = memo.get(t.id)
    if r is None:
        r = 1 + sum(term_tree_size(a, memo) for a in t.args)
        memo[t.id] = r
    return r


# ---------------------------------------------------------------------------
# Literals. Flat literals relate 0-ary operands only (the FunEq left side is
# the single application); Eq/Ne are the general ground forms used by the
# oracle and by unravelled output.


@dataclass(frozen=True)
class FunEq:
    """f(a1..ah) = a with every argument and the right side 0-ary."""

    lhs: Term
    rhs: Term

    def __repr__(self) -> str:
        return f"{self.lhs!r}={self.rhs!r}"


@dataclass(frozen=True)
class VarEq:
    lhs: Term
    rhs: Term

    def __repr__(self) -> str:
        return f"{self.lhs!r}={self.rhs!r}"


@dataclass(frozen=True)
class Diseq:
    lhs: Term
    rhs: Term

    def __repr__(self) -> str:
        return f"{self.lhs!r}!={self.rhs!r}"


@dataclass(frozen=True)
class Eq:
    lhs: Term
    rhs: Term

    def __repr__(self) -> str:
        return f"{self.lhs!r}={self.rhs!r}"


@dataclass(frozen=True)
class Ne:
    lhs: Term
    rhs: Term

    def __repr__(self) -> str:
        return f"{self.lhs!r}!={self.rhs!r}"


def orient(lit):
    """Store VarEq/Diseq with the larger-ranked symbol on the left."""
    if isinstance(lit, (VarEq, Diseq)) and lit.lhs.head.rank() < lit.rhs.head.rank():
        return type(lit)(lit.rhs, lit.lhs)
    return lit


def lit_is_efree(lit) -> bool:
    return term_is_efree(lit.lhs) and term_is_efree(lit.rhs)


def lit_substitute(lit, mapping: dict[Symbol, Term], memo: dict | None = None):
    """Apply a 0-ary substitution to both sides; re-orient flat (dis)equalities."""
    if memo is None:
        memo = {}
    lhs = term_substitute(lit.lhs, mapping, memo)
    rhs = term_substitute(lit.rhs, mapping, memo)
    out = type(lit)(lhs, rhs)
    return orient(out) if isinstance(out, (VarEq, Diseq)) else out


def lit_general(lit):
    """Flat literal as a general Eq/Ne literal."""
    if isinstance(lit, (Diseq, Ne)):
        return Ne(lit.lhs, lit.rhs)
    return Eq(lit.lhs, lit.rhs)


def lit_size(lit) -> int:
    """Size measure used by the tableaux termination argument."""
    if isinstance(lit, FunEq):
        return lit.lhs.head.arity + 3
    return 2


# ---------------------------------------------------------------------------


@dataclass
class DagDefinition:
    """Ordered explicit definitions y_i = body over y_1..y_{i-1} and parameters."""

    entries: list[tuple[Symbol, Term]] = field(default_factory=list)

    def copy(self) -> "DagDefinition":
        return DagDefinition(list(self.entries))


def sigma_delta_apply(delta: DagDefinition, t: Term, memo: dict | None = None) -> Term:
    """Recursively substitute every defined variable by its body."""
    defs = {y: body for y, body in delta.entries}
    if memo is None:
        memo = {}

    def go(u: Term) -> Term:
        r = memo.get(u.id)
        if r is not None:
            return r
        if not u.args:
            if u.head.kind == "defined":
                body = defs.get(u.head)
                if body is None:
                    raise KeyError(f"defined variable {u.head.name} has no entry")
                r = go(body)
            else:
                r = u
        else:
            r = intern(u.head, tuple(go(a) for a in u.args))
        memo[u.id] = r
        return r

    return go(t)


@dataclass
class Constraint:
    """A conjunction of literals (flat or general); falsified denotes bottom."""

    literals: list = field(default_factory=list)
    falsified: bool = False

    def copy(self) -> "Constraint":
        return Constraint(list(self.literals), self.falsified)


def unravel(delta: DagDefinition, phi: Constraint) -> Constraint:
    """Substitute delta through every literal of phi; result mentions no defined variable."""
    if phi.falsified:
        return Constraint([], True)
    memo: dict = {}
    out = []
    for lit in phi.literals:
        lhs = sigma_delta_apply(delta, lit.lhs, memo)
        rhs = sigma_delta_apply(delta, lit.rhs, memo)
        out.append(Ne(lhs, rhs) if isinstance(lit, (Diseq, Ne)) else Eq(lhs, rhs))
    return Constraint(out)


def compatible(t: Term, u: Term, efree=None):
    """Difference pairs of two same-head applications, or None when incompatible.

    Argument pairs must be identical or both free of symbols rejected by
    efree (default: quantified-free). The returned list keeps first
    occurrence order and drops repeated pairs.
    """
    if efree is None:
        efree = term_is_efree
    if t.head is not u.head or not t.args:
        return None
    diffs = []
    seen = set()
    for a, b in zip(t.args, u.args):
        if a is b:
            continue
        if not (efree(a) and efree(b)):
            return None
        key = frozenset((a.id, b.id))
        if key not in seen:
            seen.add(key)
            diffs.append((a, b))
    return diffs


class NamePool:
    """Deterministic fresh-name source: base<i>, skipping taken names."""

    def __init__(self, base: str, taken, start: int = 0):
        self.base = base
        self.taken = set(taken)
        self.next_index = start

    def fresh(self) -> str:
        while True:
            name = f"{self.base}{self.next_index}"
            self.next_index += 1
            if name not in self.taken:
                self.taken.add(name)
                return name
