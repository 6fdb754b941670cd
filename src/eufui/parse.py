"""Problem files in an SMT-LIB-flavored s-expression syntax, and UI printing.

Commands: (declare-sort U 0), (declare-fun f (U U) U), (declare-const z1 U),
(eliminate e0 e1 ...), (assert lit), optional terminator (compute-ui).
Assertions must be literals: (= t u), (not (= t u)) or (distinct t u ...),
where distinct with more arguments expands to pairwise disequalities.
Output formulas use and/or/=>/not/=/let plus true/false and are
re-parseable with parse_formula, which substitutes lets away and reads a
negation into negation normal form.

The reader is one pass of one regex: each match is a parenthesis, an atom
or a `;` comment, and blanks (space, tab, CR, line break) fall between
matches. Nodes keep their matches; only a raised error counts its 1-based
line:column position, in characters, back from the match offset.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import combinations

from .errors import InputError
from .formulas import (
    FALSE,
    TRUE,
    And,
    Implies,
    Let,
    Or,
    mk_and,
    mk_eq,
    mk_implies,
    mk_or,
    nnf,
)
from .terms import Eq, Ne, Symbol, Term, intern, mk_symbol

# Deepest accepted application nesting in a problem term; term_substitute
# recurses on term depth.
MAX_TERM_DEPTH = 256
# Deepest accepted nesting of parse_formula's recursion; nnf, format_formula, fsize,
# the oracle and `==` between formulas recurse on formula depth, `==` several frames a level.
MAX_FORMULA_DEPTH = 128


@dataclass
class Problem:
    sort: str
    functions: list[Symbol]
    parameters: list[Symbol]
    eliminate: list[Symbol]
    body: list
    symbols: dict[str, Symbol] = field(default_factory=dict)


# --- s-expression reader ---------------------------------------------------


class _Group(list):
    """A parenthesised node: its children, and the match of its `(` as `open`."""
    __slots__ = ("open",)


# An atom node is its own match, `m[0]` its text. Blanks (space, tab, CR, LF) match nothing.
_TOKEN = re.compile(r"[()]|[^ \t\r\n();]+|;[^\n]*")


def _where(node) -> tuple[int, int]:
    """1-based line and column of node, counted back from its match offset."""
    m = node.open if isinstance(node, list) else node
    text, at = m.string, m.start()
    return text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)


def read_sexprs(text: str) -> list:
    """All top-level s-expressions; raises InputError on malformed input."""
    top, stack = [], []  # the list being filled, and the lists that hold an open group
    for m in _TOKEN.finditer(text):
        tok = m[0]
        if tok == "(":
            stack.append(top)
            top = _Group()
            top.open = m
            stack[-1].append(top)
        elif tok == ")":
            if not stack:
                raise InputError("unmatched closing parenthesis", *_where(m))
            top = stack.pop()
        elif tok[0] != ";":
            top.append(m)
    if stack:
        raise InputError("unclosed parenthesis", *_where(top))
    return top


def _atom(node, what: str) -> str:
    if isinstance(node, list):
        raise InputError(f"expected {what}", *_where(node))
    return node[0]


# --- problem parsing -------------------------------------------------------


def parse(text) -> Problem:
    """Parse problem text (str or bytes) into a Problem; total on bad input."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InputError(f"not valid UTF-8: {exc}") from None
    nodes = read_sexprs(text)
    sort: str | None = None
    symbols: dict[str, Symbol] = {}
    functions: list[Symbol] = []
    consts: list[Symbol] = []
    eliminate_names: list[tuple[str, re.Match]] | None = None
    assertions: list = []
    done = False

    def declare(name: str, node: list, sym: Symbol):
        if name in symbols or (sort is not None and name == sort):
            raise InputError(f"duplicate declaration of {name}", *_where(node))
        symbols[name] = sym

    for node in nodes:
        if done:
            raise InputError("command after (compute-ui)", *_where(node))
        if not isinstance(node, list) or not node:
            raise InputError("expected a command", *_where(node))
        head = _atom(node[0], "a command name")
        rest = node[1:]
        if head == "declare-sort":
            if len(rest) != 2:
                raise InputError("declare-sort takes a name and 0", *_where(node))
            name = _atom(rest[0], "a sort name")
            if _atom(rest[1], "sort arity") != "0":
                raise InputError("only arity-0 sorts are supported", *_where(rest[1]))
            if sort is not None:
                raise InputError(f"duplicate declaration of sort {name}", *_where(node))
            sort = name
        elif head == "declare-fun":
            if len(rest) != 3 or not isinstance(rest[1], list):
                raise InputError("declare-fun takes name, argument sorts, result sort", *_where(node))
            name = _atom(rest[0], "a function name")
            for sub in rest[1] + [rest[2]]:
                sname = _atom(sub, "a sort name")
                if sname != sort:
                    raise InputError(f"undeclared sort {sname}", *_where(sub))
            sym = mk_symbol(name, len(rest[1]), "function")
            declare(name, node, sym)
            functions.append(sym)
        elif head == "declare-const":
            if len(rest) != 2:
                raise InputError("declare-const takes a name and a sort", *_where(node))
            name = _atom(rest[0], "a constant name")
            sname = _atom(rest[1], "a sort name")
            if sname != sort:
                raise InputError(f"undeclared sort {sname}", *_where(rest[1]))
            sym = mk_symbol(name, 0, "parameter")
            declare(name, node, sym)
            consts.append(sym)
        elif head == "eliminate":
            if eliminate_names is not None:
                raise InputError("duplicate eliminate clause", *_where(node))
            eliminate_names = [(_atom(sub, "a constant name"), sub) for sub in rest]
        elif head == "assert":
            if len(rest) != 1:
                raise InputError("assert takes one literal", *_where(node))
            assertions.append(rest[0])
        elif head == "compute-ui":
            if rest:
                raise InputError("compute-ui takes no arguments", *_where(node))
            done = True
        else:
            raise InputError(f"unknown command {head}", *_where(node))

    if eliminate_names is None:
        raise InputError("missing eliminate clause")

    # Re-kind the eliminated constants as quantified, in eliminate order.
    eliminate: list[Symbol] = []
    for name, node in eliminate_names:
        sym = symbols.get(name)
        if sym is None:
            raise InputError(f"undeclared symbol {name}", *_where(node))
        if sym.kind == "quantified":  # re-kinded by an earlier entry
            raise InputError(f"duplicate eliminate entry {name}", *_where(node))
        if sym.kind != "parameter":
            raise InputError(f"{name} cannot be eliminated", *_where(node))
        q = mk_symbol(name, 0, "quantified")
        symbols[name] = q
        eliminate.append(q)
    parameters = [symbols[c.name] for c in consts if symbols[c.name].kind == "parameter"]

    body = [lit for node in assertions for lit in _parse_literal(node, symbols)]

    return Problem(sort or "U", functions, parameters, eliminate, body, symbols)


def _parse_term(node, symbols: dict[str, Symbol], env: dict[str, Term] | None = None) -> Term:
    """The term node spells; an atom is an application to no arguments.

    A name bound in env stands for its term. Only problem terms (no env)
    have a depth limit. Arguments are read left to right before their
    application's arity is checked, on an explicit stack, so a deep term
    cannot exhaust the call stack.
    """
    stack = []  # (node, symbol, argument nodes, arguments read) per open application
    while True:
        if env and not isinstance(node, list) and node[0] in env:
            term = env[node[0]]
        else:
            if not isinstance(node, list):
                head, subs = node, []
            elif not node:
                raise InputError("empty term", *_where(node))
            elif env is None and len(stack) == MAX_TERM_DEPTH:
                raise InputError(f"term nested deeper than {MAX_TERM_DEPTH}", *_where(node))
            else:
                head, subs = node[0], node[1:]
            sym = symbols.get(_atom(head, "a function name"))
            if sym is None:
                raise InputError(f"undeclared symbol {head[0]}", *_where(head))
            stack.append((node, sym, subs, []))
            term = None
        while stack:
            app, sym, subs, args = stack[-1]
            if term is not None:
                args.append(term)
            if len(args) < len(subs):
                break
            stack.pop()
            if sym.arity != len(args):
                raise InputError(
                    f"arity mismatch: {sym.name} expects {sym.arity} arguments, got {len(args)}", *_where(app)
                )
            term = intern(sym, args)
        else:
            return term
        node = subs[len(args)]


def _parse_literal(node, symbols: dict[str, Symbol]):
    if not isinstance(node, list) or not node:
        raise InputError("non-literal assertion", *_where(node))
    head = _atom(node[0], "a literal head")
    rest = node[1:]
    if head == "=":
        if len(rest) != 2:
            raise InputError("= takes two terms", *_where(node))
        return [Eq(_parse_term(rest[0], symbols), _parse_term(rest[1], symbols))]
    if head == "not":
        if len(rest) != 1 or not isinstance(rest[0], list):
            raise InputError("non-literal assertion", *_where(node))
        inner = rest[0]
        ihead = _atom(inner[0], "a literal head") if inner else ""
        if ihead != "=" or len(inner) != 3:
            raise InputError("non-literal assertion", *_where(node))
        return [Ne(_parse_term(inner[1], symbols), _parse_term(inner[2], symbols))]
    if head == "distinct":
        if len(rest) < 2:
            raise InputError("distinct takes at least two terms", *_where(node))
        ts = [_parse_term(sub, symbols) for sub in rest]
        return [Ne(s, t) for s, t in combinations(ts, 2)]
    raise InputError("non-literal assertion", *_where(node))


# --- formula parsing (reads printed interpolants back) ---------------------


def parse_formula(text: str, symbols: dict[str, Symbol]):
    """Parse a printed formula back; let bindings are substituted away. Nesting
    read by recursion deeper than MAX_FORMULA_DEPTH raises InputError."""
    nodes = read_sexprs(text)
    if len(nodes) != 1:
        raise InputError("expected exactly one formula")
    return _parse_formula(nodes[0], symbols, {})


def _parse_formula(node, symbols: dict[str, Symbol], env: dict[str, Term], depth: int = 1):
    if depth > MAX_FORMULA_DEPTH:
        raise InputError(f"formula nested deeper than {MAX_FORMULA_DEPTH}", *_where(node))
    # A let body is read in this loop, not by recursion: the printer nests
    # one let per definition.
    while True:
        if not isinstance(node, list):
            if node[0] == "true":
                return TRUE
            if node[0] == "false":
                return FALSE
            raise InputError(f"expected a formula, got {node[0]}", *_where(node))
        if not node:
            raise InputError("empty formula", *_where(node))
        head = _atom(node[0], "a connective")
        rest = node[1:]
        if head != "let":
            break
        if len(rest) != 2 or not isinstance(rest[0], list):
            raise InputError("let takes bindings and a body", *_where(node))
        new_env = dict(env)
        for binding in rest[0]:
            if not isinstance(binding, list) or len(binding) != 2:
                raise InputError("malformed let binding", *_where(binding))
            name = _atom(binding[0], "a bound name")
            # bindings are evaluated in the outer environment, SMT-LIB style
            new_env[name] = _parse_term(binding[1], symbols, env)
        node, env = rest[1], new_env
    if head == "and" or head == "or":
        # A part under the same connective is read on this stack, not by
        # recursion: mk_and and mk_or would flatten it into this one anyway.
        parts, stack = [], [iter(rest)]
        while stack:
            sub = next(stack[-1], None)
            if sub is None:
                stack.pop()
            elif isinstance(sub, list) and sub and not isinstance(sub[0], list) and sub[0][0] == head:
                stack.append(iter(sub[1:]))
            else:
                parts.append(_parse_formula(sub, symbols, env, depth + 1))
        return (mk_and if head == "and" else mk_or)(parts)
    if head == "not":
        if len(rest) != 1:
            raise InputError("not takes one formula", *_where(node))
        return nnf(_parse_formula(rest[0], symbols, env, depth + 1), False)
    if head == "=>":
        if len(rest) < 2:
            raise InputError("=> takes at least two formulas", *_where(node))
        parts = [_parse_formula(sub, symbols, env, depth + 1) for sub in rest]
        out = parts[-1]
        for p in reversed(parts[:-1]):
            out = mk_implies(p, out)
        return out
    if head == "=":
        if len(rest) != 2:
            raise InputError("= takes two terms", *_where(node))
        return mk_eq(_parse_term(rest[0], symbols, env), _parse_term(rest[1], symbols, env))
    raise InputError(f"unknown connective {head}", *_where(node))


# --- printing --------------------------------------------------------------


def format_term(t: Term, check=None) -> str:
    """t as text. check, when given, is called before its first piece of text
    and before every 4096th piece after that."""
    if not t.args:
        return t.head.name
    # An explicit stack of terms and text, so a deep term cannot exhaust the call stack.
    out = []
    stack = [t]
    while stack:
        if check is not None and not len(out) & 4095:
            check()
        u = stack.pop()
        if type(u) is str:
            out.append(u)
            continue
        out.append("(" + u.head.name)
        stack.append(")")
        for a in reversed(u.args):
            stack.append(a if a.args else a.head.name)
            stack.append(" ")
    return "".join(out)


def format_formula(f, memo: dict | None = None, check=None) -> str:
    """f as text. memo, keyed by node identity, holds each node formatted
    through it together with the node, so a node met again, in this call or
    a later one given the same memo, costs one lookup. check goes to each
    `format_term`."""
    if memo is None:
        memo = {}
    hit = memo.get(id(f))
    if hit is not None:
        return hit[1]
    if isinstance(f, Eq):
        text = f"(= {format_term(f.lhs, check)} {format_term(f.rhs, check)})"
    elif isinstance(f, Ne):
        text = f"(not (= {format_term(f.lhs, check)} {format_term(f.rhs, check)}))"
    elif isinstance(f, (And, Or)):
        # A part met before is looked up here, without a call.
        texts = [hit[1] if (hit := memo.get(id(p))) else format_formula(p, memo, check) for p in f.parts]
        text = ("(and " if isinstance(f, And) else "(or ") + " ".join(texts) + ")"
    elif isinstance(f, Implies):
        text = f"(=> {format_formula(f.lhs, memo, check)} {format_formula(f.rhs, memo, check)})"
    elif isinstance(f, Let):
        # Nested single-binding lets: one SMT-LIB let binds in parallel.
        opens = "".join(f"(let (({y.name} {format_term(t, check)})) " for y, t in f.bindings)
        text = opens + format_formula(f.body, memo, check) + ")" * len(f.bindings)
    elif f is TRUE:
        text = "true"
    elif f is FALSE:
        text = "false"
    else:
        raise TypeError(f"not a formula: {f!r}")
    memo[id(f)] = (f, text)
    return text


def print_ui(ui, unravel: bool = False, check=None) -> str:
    """Render a UI result, in let form or unravelled; check as in `format_formula`."""
    return format_formula(ui.formula(unravel=unravel), ui.formats, check)
