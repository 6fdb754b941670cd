"""Problem files in an SMT-LIB-flavored s-expression syntax, and UI printing.

Commands: (declare-sort U 0), (declare-fun f (U U) U), (declare-const z1 U),
(eliminate e0 e1 ...), (assert lit), optional terminator (compute-ui).
Assertions must be literals: (= t u), (not (= t u)) or (distinct t u ...),
where distinct with more arguments expands to pairwise disequalities.
Output formulas use and/or/=>/not/=/let plus true/false and are
re-parseable with parse_formula, which substitutes lets away and reads a
negation into negation normal form.

The reader is one pass of one regex: each match is a parenthesis, an atom,
a line break or a `;` comment, and blanks (space, tab, CR) fall between
matches. Error positions are 1-based line:column, counting characters.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field

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


@dataclass
class Problem:
    sort: str
    functions: list[Symbol]
    parameters: list[Symbol]
    eliminate: list[Symbol]
    body: list
    symbols: dict[str, Symbol] = field(default_factory=dict)


# --- s-expression reader ---------------------------------------------------


@dataclass
class SExpr:
    value: object  # str atom or list of SExpr
    line: int
    col: int


# Blanks (space, tab, CR) match nothing, so finditer steps over them.
_TOKEN = re.compile(r"[()]|[^ \t\r\n();]+|\n|;[^\n]*")


def read_sexprs(text: str) -> list[SExpr]:
    """All top-level s-expressions; raises InputError on malformed input."""
    out: list[SExpr] = []
    stack: list[SExpr] = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        tok, col = m.group(), m.start() - line_start + 1
        if tok == "\n":
            line, line_start = line + 1, m.end()
        elif tok == ")":
            if not stack:
                raise InputError("unmatched closing parenthesis", line, col)
            stack.pop()
        elif tok[0] != ";":
            node = SExpr([] if tok == "(" else tok, line, col)
            (stack[-1].value if stack else out).append(node)
            if tok == "(":
                stack.append(node)
    if stack:
        raise InputError("unclosed parenthesis", stack[-1].line, stack[-1].col)
    return out


def _atom(node: SExpr, what: str) -> str:
    if not isinstance(node.value, str):
        raise InputError(f"expected {what}", node.line, node.col)
    return node.value


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
    eliminate_names: list[tuple[str, SExpr]] | None = None
    assertions: list[SExpr] = []
    done = False

    def declare(name: str, node: SExpr, sym: Symbol):
        if name in symbols or (sort is not None and name == sort):
            raise InputError(f"duplicate declaration of {name}", node.line, node.col)
        symbols[name] = sym

    for node in nodes:
        if done:
            raise InputError("command after (compute-ui)", node.line, node.col)
        if not isinstance(node.value, list) or not node.value:
            raise InputError("expected a command", node.line, node.col)
        head = _atom(node.value[0], "a command name")
        rest = node.value[1:]
        if head == "declare-sort":
            if len(rest) != 2:
                raise InputError("declare-sort takes a name and 0", node.line, node.col)
            name = _atom(rest[0], "a sort name")
            if _atom(rest[1], "sort arity") != "0":
                raise InputError("only arity-0 sorts are supported", rest[1].line, rest[1].col)
            if sort is not None:
                raise InputError(f"duplicate declaration of sort {name}", node.line, node.col)
            if name in symbols:
                raise InputError(f"duplicate declaration of {name}", node.line, node.col)
            sort = name
        elif head == "declare-fun":
            if len(rest) != 3 or not isinstance(rest[1].value, list):
                raise InputError("declare-fun takes name, argument sorts, result sort", node.line, node.col)
            name = _atom(rest[0], "a function name")
            for sub in rest[1].value + [rest[2]]:
                sname = _atom(sub, "a sort name")
                if sname != sort:
                    raise InputError(f"undeclared sort {sname}", sub.line, sub.col)
            sym = mk_symbol(name, len(rest[1].value), "function")
            declare(name, node, sym)
            functions.append(sym)
        elif head == "declare-const":
            if len(rest) != 2:
                raise InputError("declare-const takes a name and a sort", node.line, node.col)
            name = _atom(rest[0], "a constant name")
            sname = _atom(rest[1], "a sort name")
            if sname != sort:
                raise InputError(f"undeclared sort {sname}", rest[1].line, rest[1].col)
            sym = mk_symbol(name, 0, "parameter")
            declare(name, node, sym)
            consts.append(sym)
        elif head == "eliminate":
            if eliminate_names is not None:
                raise InputError("duplicate eliminate clause", node.line, node.col)
            eliminate_names = [(_atom(sub, "a constant name"), sub) for sub in rest]
        elif head == "assert":
            if len(rest) != 1:
                raise InputError("assert takes one literal", node.line, node.col)
            assertions.append(rest[0])
        elif head == "compute-ui":
            if rest:
                raise InputError("compute-ui takes no arguments", node.line, node.col)
            done = True
        else:
            raise InputError(f"unknown command {head}", node.line, node.col)

    if eliminate_names is None:
        raise InputError("missing eliminate clause")

    # Re-kind the eliminated constants as quantified, in eliminate order.
    eliminate: list[Symbol] = []
    seen = set()
    for name, node in eliminate_names:
        sym = symbols.get(name)
        if sym is None:
            raise InputError(f"undeclared symbol {name}", node.line, node.col)
        if sym.kind != "parameter":
            raise InputError(f"{name} cannot be eliminated", node.line, node.col)
        if name in seen:
            raise InputError(f"duplicate eliminate entry {name}", node.line, node.col)
        seen.add(name)
        q = mk_symbol(name, 0, "quantified")
        symbols[name] = q
        eliminate.append(q)
    parameters = [symbols[c.name] for c in consts if symbols[c.name].kind == "parameter"]

    body = [lit for node in assertions for lit in _parse_literal(node, symbols)]

    return Problem(sort or "U", functions, parameters, eliminate, body, symbols)


def _parse_term(node: SExpr, symbols: dict[str, Symbol], env: dict[str, Term] | None = None) -> Term:
    """The term node spells; an atom is an application to no arguments.

    A name bound in env stands for its term. Only problem terms (no env)
    have a depth limit. Arguments are read left to right before their
    application's arity is checked, on an explicit stack, so a deep term
    cannot exhaust the call stack.
    """
    stack = []  # (node, symbol, argument nodes, arguments read) per open application
    while True:
        if env and isinstance(node.value, str) and node.value in env:
            term = env[node.value]
        else:
            if isinstance(node.value, str):
                head, subs = node, []
            elif not node.value:
                raise InputError("empty term", node.line, node.col)
            elif env is None and len(stack) == MAX_TERM_DEPTH:
                raise InputError(f"term nested deeper than {MAX_TERM_DEPTH}", node.line, node.col)
            else:
                head, subs = node.value[0], node.value[1:]
            sym = symbols.get(_atom(head, "a function name"))
            if sym is None:
                raise InputError(f"undeclared symbol {head.value}", head.line, head.col)
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
                    f"arity mismatch: {sym.name} expects {sym.arity} arguments, got {len(args)}",
                    app.line,
                    app.col,
                )
            term = intern(sym, args)
        else:
            return term
        node = subs[len(args)]


def _parse_literal(node: SExpr, symbols: dict[str, Symbol]):
    if not isinstance(node.value, list) or not node.value:
        raise InputError("non-literal assertion", node.line, node.col)
    head = _atom(node.value[0], "a literal head")
    rest = node.value[1:]
    if head == "=":
        if len(rest) != 2:
            raise InputError("= takes two terms", node.line, node.col)
        return [Eq(_parse_term(rest[0], symbols), _parse_term(rest[1], symbols))]
    if head == "not":
        if len(rest) != 1 or not isinstance(rest[0].value, list):
            raise InputError("non-literal assertion", node.line, node.col)
        inner = rest[0]
        ihead = _atom(inner.value[0], "a literal head") if inner.value else ""
        if ihead != "=" or len(inner.value) != 3:
            raise InputError("non-literal assertion", node.line, node.col)
        return [Ne(_parse_term(inner.value[1], symbols), _parse_term(inner.value[2], symbols))]
    if head == "distinct":
        if len(rest) < 2:
            raise InputError("distinct takes at least two terms", node.line, node.col)
        ts = [_parse_term(sub, symbols) for sub in rest]
        out = []
        for i in range(len(ts)):
            for j in range(i + 1, len(ts)):
                out.append(Ne(ts[i], ts[j]))
        return out
    raise InputError("non-literal assertion", node.line, node.col)


# --- formula parsing (for verify-mode round trips) -------------------------


def parse_formula(text: str, symbols: dict[str, Symbol]):
    """Parse a printed formula back; let bindings are substituted away."""
    nodes = read_sexprs(text)
    if len(nodes) != 1:
        raise InputError("expected exactly one formula")
    return _parse_formula(nodes[0], dict(symbols), {})


def _parse_formula(node: SExpr, symbols: dict[str, Symbol], env: dict[str, Term]):
    # A let body is read in this loop, not by recursion: the printer nests
    # one let per definition.
    while True:
        if isinstance(node.value, str):
            if node.value == "true":
                return TRUE
            if node.value == "false":
                return FALSE
            raise InputError(f"expected a formula, got {node.value}", node.line, node.col)
        if not node.value:
            raise InputError("empty formula", node.line, node.col)
        head = _atom(node.value[0], "a connective")
        rest = node.value[1:]
        if head != "let":
            break
        if len(rest) != 2 or not isinstance(rest[0].value, list):
            raise InputError("let takes bindings and a body", node.line, node.col)
        new_env = dict(env)
        for binding in rest[0].value:
            if not isinstance(binding.value, list) or len(binding.value) != 2:
                raise InputError("malformed let binding", binding.line, binding.col)
            name = _atom(binding.value[0], "a bound name")
            # bindings are evaluated in the outer environment, SMT-LIB style
            new_env[name] = _parse_term(binding.value[1], symbols, env)
        node, env = rest[1], new_env
    if head == "and":
        return mk_and([_parse_formula(sub, symbols, env) for sub in rest])
    if head == "or":
        return mk_or([_parse_formula(sub, symbols, env) for sub in rest])
    if head == "not":
        if len(rest) != 1:
            raise InputError("not takes one formula", node.line, node.col)
        return nnf(_parse_formula(rest[0], symbols, env), False)
    if head == "=>":
        if len(rest) < 2:
            raise InputError("=> takes at least two formulas", node.line, node.col)
        parts = [_parse_formula(sub, symbols, env) for sub in rest]
        out = parts[-1]
        for p in reversed(parts[:-1]):
            out = mk_implies(p, out)
        return out
    if head == "=":
        if len(rest) != 2:
            raise InputError("= takes two terms", node.line, node.col)
        return mk_eq(_parse_term(rest[0], symbols, env), _parse_term(rest[1], symbols, env))
    raise InputError(f"unknown connective {head}", node.line, node.col)


# --- printing --------------------------------------------------------------


def format_term(t: Term) -> str:
    if not t.args:
        return t.head.name
    # An explicit stack of terms and text, so a deep term cannot exhaust the call stack.
    out = []
    stack = [t]
    while stack:
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


def format_formula(f, memo: dict | None = None) -> str:
    """f as text. memo, keyed by node identity, holds each node formatted
    through it together with the node, so a node met again, in this call or
    a later one given the same memo, costs one lookup."""
    if memo is None:
        memo = {}
    hit = memo.get(id(f))
    if hit is not None:
        return hit[1]
    if isinstance(f, Eq):
        text = f"(= {format_term(f.lhs)} {format_term(f.rhs)})"
    elif isinstance(f, Ne):
        text = f"(not (= {format_term(f.lhs)} {format_term(f.rhs)}))"
    elif isinstance(f, (And, Or)):
        # A part met before is looked up here, without a call.
        texts = [hit[1] if (hit := memo.get(id(p))) else format_formula(p, memo) for p in f.parts]
        text = ("(and " if isinstance(f, And) else "(or ") + " ".join(texts) + ")"
    elif isinstance(f, Implies):
        text = f"(=> {format_formula(f.lhs, memo)} {format_formula(f.rhs, memo)})"
    elif isinstance(f, Let):
        # Nested single-binding lets: one SMT-LIB let binds in parallel.
        opens = "".join(f"(let (({y.name} {format_term(t)})) " for y, t in f.bindings)
        text = opens + format_formula(f.body, memo) + ")" * len(f.bindings)
    elif f is TRUE or isinstance(f, type(TRUE)):
        text = "true"
    elif f is FALSE or isinstance(f, type(FALSE)):
        text = "false"
    else:
        raise TypeError(f"not a formula: {f!r}")
    memo[id(f)] = (f, text)
    return text


def print_ui(ui, mode: str = "compressed") -> str:
    """Render a UI result; mode is compressed or unravelled."""
    if mode not in ("compressed", "unravelled"):
        raise ValueError(f"unknown print mode {mode}")
    return format_formula(ui.formula(unravel=(mode == "unravelled")), ui.formats)
