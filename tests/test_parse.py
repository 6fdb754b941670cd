"""Parser totality, error positions, and print/parse round trips."""
from __future__ import annotations

import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import unary_chain
from eufui.errors import InputError
from eufui.euf import euf_equiv, euf_valid
from eufui.formulas import FALSE, TRUE, Implies, Let, Or, fsize, mk_and, mk_or, nnf
from eufui.parse import MAX_FORMULA_DEPTH, format_formula, parse, parse_formula, print_ui
from eufui.terms import Eq, Ne, const, intern, mk_symbol

EX22 = """
(declare-sort U 0)
(declare-fun f (U U) U)
(declare-const e U)
(declare-const z1 U)
(declare-const z2 U)
(declare-const z3 U)
(declare-const z4 U)
(eliminate e)
(assert (= (f e z1) z2))
(assert (= (f e z3) z4))
(compute-ui)
"""


def test_parse_example_problem():
    p = parse(EX22)
    assert p.sort == "U"
    assert [s.name for s in p.eliminate] == ["e"]
    assert [s.name for s in p.parameters] == ["z1", "z2", "z3", "z4"]
    assert len(p.body) == 2
    lit = p.body[0]
    assert isinstance(lit, Eq) and lit.lhs.head.name == "f"
    assert p.symbols["e"].kind == "quantified"
    assert p.symbols["z1"].kind == "parameter"


def test_parse_empty_assertions():
    p = parse("(declare-sort U 0)(declare-const z U)(eliminate)")
    assert p.body == []
    assert p.eliminate == []


def test_parse_distinct_expands_pairwise():
    p = parse(
        "(declare-sort U 0)(declare-const a U)(declare-const b U)(declare-const c U)"
        "(eliminate)(assert (distinct a b c))"
    )
    assert [type(l) for l in p.body] == [Ne, Ne, Ne]


def test_parse_error_positions():
    with pytest.raises(InputError) as e:
        parse("(declare-sort U 0)\n(eliminate)\n(assert (= g g))")
    assert "undeclared symbol g" in str(e.value)
    assert e.value.line == 3

    with pytest.raises(InputError) as e:
        parse("(declare-sort U 0)(declare-fun f (U) U)(eliminate)(assert (= (f) (f)))")
    assert "arity mismatch" in str(e.value)

    with pytest.raises(InputError) as e:
        parse("(declare-sort U 0)(declare-const a U)(declare-const a U)(eliminate)")
    assert "duplicate declaration" in str(e.value)

    with pytest.raises(InputError) as e:
        parse("(declare-sort U 0)(declare-const a U)(assert (= a a))")
    assert "missing eliminate" in str(e.value)

    with pytest.raises(InputError) as e:
        parse("(declare-sort U 0)(declare-const a U)(eliminate)(assert (or (= a a)))")
    assert "non-literal assertion" in str(e.value)

    with pytest.raises(InputError):
        parse("(declare-sort U 0)(declare-const a U)(eliminate")


TERM_DECLS = "(declare-sort U 0)(declare-fun f (U) U)(declare-fun g (U U) U)(declare-const a U)(eliminate)\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("(declare-sort U 0)\n\t(frob)", "2:2: unknown command frob"),  # a tab is one column
        ("(declare-sort U 0)\n \r\t(frob)", "2:4: unknown command frob"),  # CR is a blank, not a line break
        ("(declare-sort U 0)\r(frob)", "1:20: unknown command frob"),
        ("; a comment (frob\n  (frob)", "2:3: unknown command frob"),  # a comment runs to end of line
        ("(declare-sort U 0) ; (x\n; )\n (declare-const a U)) ", "3:21: unmatched closing parenthesis"),
        ("(declare-sort U 0))", "1:19: unmatched closing parenthesis"),
        ("(declare-sort U 0)\n(eliminate)\n  (assert (= a", "3:11: unclosed parenthesis"),
        # \x0b and \x0c are atom characters; columns count characters, not bytes
        ("(declare-sort U 0)(declare-const é U)(eliminate)(assert (= é g\x0bh))", "1:62: undeclared symbol g\x0bh"),
        ("(declare-sort U 0)(declare-const a\x0cb U)(eliminate)(assert (= a\x0cb é))", "1:66: undeclared symbol é"),
        # Errors inside nested terms: arguments are read left to right before
        # their application's arity is checked.
        (TERM_DECLS + "(assert (= (g a (h a)) a))", "2:18: undeclared symbol h"),
        (TERM_DECLS + "(assert (= (f (g a b)) (f (f c))))", "2:20: undeclared symbol b"),
        (TERM_DECLS + "(assert (= a (f (f a a))))", "2:17: arity mismatch: f expects 1 arguments, got 2"),
        (TERM_DECLS + "(assert (= (f (g (f a))) a))", "2:15: arity mismatch: g expects 2 arguments, got 1"),
        (TERM_DECLS + "(assert (= (g a f) a))", "2:17: arity mismatch: f expects 1 arguments, got 0"),
        (TERM_DECLS + "(assert (= (g (f) a a) a))", "2:15: arity mismatch: f expects 1 arguments, got 0"),
        (TERM_DECLS + "(assert (= (f ()) a))", "2:15: empty term"),
        (TERM_DECLS + "(assert (= (f ((f a) a)) a))", "2:16: expected a function name"),
        (TERM_DECLS + "(assert (= a " + "(f " * 257 + "a" + ")" * 257 + "))", "2:782: term nested deeper than 256"),
        (TERM_DECLS + "(assert (= a " + "(f " * 256 + "()" + ")" * 256 + "))", "2:782: empty term"),
        (TERM_DECLS + " (assert (distinct a))", "2:10: distinct takes at least two terms"),
    ],
)
def test_parse_error_line_and_column(text, message):
    with pytest.raises(InputError) as e:
        parse(text)
    assert str(e.value) == message
    assert (e.value.line, e.value.col) == tuple(int(n) for n in message.split(":")[:2])


def test_parse_bytes_and_comments():
    text = "; a comment\n(declare-sort U 0)(declare-const z U)(eliminate) ; done\n"
    p = parse(text.encode())
    assert p.parameters[0].name == "z"
    with pytest.raises(InputError):
        parse(b"\xff\xfe(declare-sort U 0)")


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet=string.printable, max_size=80))
def test_parse_totality_fuzz(text):
    try:
        parse(text)
    except InputError:
        pass


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_parse_totality_structured_fuzz(seed):
    rng = random.Random(seed)
    pieces = [
        "(declare-sort U 0)", "(declare-fun f (U U) U)", "(declare-const a U)",
        "(declare-const b U)", "(eliminate a)", "(eliminate)", "(assert (= a b))",
        "(assert (= (f a b) a))", "(assert (not (= a b)))", "(compute-ui)",
        "(", ")", "(assert)", "(frobnicate)", "; comment", "(= a)", "(assert (distinct))",
    ]
    text = "\n".join(rng.choice(pieces) for _ in range(rng.randint(0, 12)))
    try:
        parse(text)
    except InputError:
        pass


def test_format_and_reparse_formula_round_trip():
    f2 = mk_symbol("f", 2, "function")
    z1 = const(mk_symbol("z1", 0, "parameter"))
    z2 = const(mk_symbol("z2", 0, "parameter"))
    symbols = {"f": f2, "z1": z1.head, "z2": z2.head}
    y1 = mk_symbol("y1", 0, "defined")
    formula = Let(
        ((y1, intern(f2, (z1, z1))),),
        mk_or([Implies(Eq(const(y1), z2), Ne(z1, z2)), mk_and([Eq(z1, z1)])]),
    )
    text = format_formula(formula)
    back = parse_formula(text, symbols)
    ok, _ = euf_equiv(formula, back)
    assert ok


def test_thousand_definition_interpolant_reads_back():
    # The printer nests one let per definition; reading them back must not
    # recurse once per let.
    f, z, entries, body = unary_chain(1000)
    text = format_formula(Let(tuple(entries), body))
    assert text.count("(let ((y") == 1000
    t = z
    for _ in range(1000):
        t = intern(f, (t,))
    assert parse_formula(text, {"f": f, "z": z.head}) == Eq(t, z)


def test_format_true_false():
    assert format_formula(TRUE) == "true"
    assert format_formula(FALSE) == "false"
    assert parse_formula("true", {}) is TRUE
    assert parse_formula("false", {}) is FALSE


def test_print_ui_mode_validation():
    class Dummy:
        formats = {}

        def formula(self, unravel):
            return TRUE if unravel else FALSE

    assert print_ui(Dummy()) == "false"
    assert print_ui(Dummy(), unravel=True) == "true"


def test_parse_formula_let_shadowing():
    z = mk_symbol("z", 0, "parameter")
    w = mk_symbol("w", 0, "parameter")
    symbols = {"z": z, "w": w}
    f = parse_formula("(let ((x z)) (let ((x w)) (= x z)))", symbols)
    assert f == Eq(const(w), const(z))


def formula_symbols_fga():
    return {
        "f": mk_symbol("f", 1, "function"),
        "g": mk_symbol("g", 1, "function"),
        "a": mk_symbol("a", 0, "parameter"),
        "b": mk_symbol("b", 0, "parameter"),
    }


@pytest.mark.parametrize(
    "text",
    [
        "(= a b)",
        "(and (= a b) (= (f a) b))",
        "(or (= a b) (not (= (f a) a)))",
        "(=> (= a b) (= (f a) (f b)) (= b a))",
        "(let ((x (f a))) (= x b))",
        "true",
        "false",
        "(not (and (= a b) (= b (f b))))",
    ],
)
def test_parse_formula_not_is_negation(text):
    symbols = formula_symbols_fga()
    negated = parse_formula(f"(not {text})", symbols)
    ok, witness = euf_equiv(negated, nnf(parse_formula(text, symbols), False))
    assert ok, witness


def test_parse_formula_reads_deep_terms():
    symbols = formula_symbols_fga()
    f = parse_formula("(= " + "(g " * 5000 + "a" + ")" * 5000 + " a)", symbols)
    depth, t = 0, f.lhs
    while t.args:
        depth, t = depth + 1, t.args[0]
    assert depth == 5000 and t is f.rhs


@pytest.mark.parametrize("head, other, unit", [("and", "or", "true"), ("or", "and", "false")])
def test_parse_formula_reads_deep_same_connective_nests(head, other, unit):
    # (and L0 (and L1 ... (and L1999 true))) reads to the formula that the
    # flat (and L0 L1 ... L1999 true) does, without recursing per level.
    symbols = formula_symbols_fga()
    lits = [
        f"(= {'(f ' * (i % 7)}a{')' * (i % 7)} b)" if i % 3
        else f"({other} (= a (g b)) (not (= b (f a))))"
        for i in range(2000)
    ]
    nested = "".join(f"({head} {lit} " for lit in lits) + unit + ")" * 2000
    f = parse_formula(nested, symbols)
    assert f == parse_formula(f"({head} {' '.join(lits)} {unit})", symbols)
    assert len(f.parts) == 8


def test_parse_formula_let_bound_argument_arity():
    # The arguments are read under the let, so the arity is what is wrong.
    with pytest.raises(InputError) as e:
        parse_formula("(let ((x a)) (= (g x x) a))", formula_symbols_fga())
    assert str(e.value) == "1:17: arity mismatch: g expects 1 arguments, got 2"


def test_parse_formula_reads_negation_in_nnf():
    symbols = formula_symbols_fga()
    a, b = const(symbols["a"]), const(symbols["b"])
    assert parse_formula("(not (= a b))", symbols) == Ne(a, b)
    f = parse_formula("(not (and (= a b) (not (= a (f b)))))", symbols)
    assert f == Or((Ne(a, b), Eq(a, intern(symbols["f"], (b,)))))


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "expected exactly one formula"),
        ("(= a b) (= a b)", "expected exactly one formula"),
        ("(and (= a b)\n  a)", "2:3: expected a formula, got a"),
        ("(or (= a b) ())", "1:13: empty formula"),
        ("(let (= a b))", "1:1: let takes bindings and a body"),
        ("(let ((x a)) (= x b) (= x a))", "1:1: let takes bindings and a body"),
        ("(let ((x a) (y)) (= x y))", "1:13: malformed let binding"),
        ("(let (x) (= x a))", "1:7: malformed let binding"),
        ("(=> (= a b) (not (= a b) (= b a)))", "1:13: not takes one formula"),
        ("(and (= a b) (=> (= a b)))", "1:14: => takes at least two formulas"),
        ("(or (= a b) (= a b b))", "1:13: = takes two terms"),
        ("(and (= a b) (xor (= a b) (= b a)))", "1:14: unknown connective xor"),
    ],
)
def test_parse_formula_error_messages(text, message):
    with pytest.raises(InputError) as e:
        parse_formula(text, formula_symbols_fga())
    # InputError puts its line and column ahead of the message, when it has them.
    assert str(e.value) == message


def formula_nest(wrappers, depth):
    """A formula whose innermost atom parse_formula reads `depth` calls deep,
    and that atom's column: the wrappers, cycled from the outside in, are
    `(not X)` or `(op X atom)`, each one call deeper than the last."""
    prefix, suffix = "", ""
    for i in range(depth - 1):
        op = wrappers[i % len(wrappers)]
        prefix += f"({op} "
        suffix = (")" if op == "not" else f" {('(= a b)', '(= a (f b))')[i % 2]})") + suffix
    return prefix + "(= b (f a))" + suffix, len(prefix) + 1


@pytest.mark.parametrize("wrappers", [("and", "or"), ("not", "and")], ids=["and-or", "not-and"])
def test_parse_formula_depth_bound(wrappers):
    # At the bound, every reader that recurses per level still fits the
    # default recursion limit; one level past it is a positioned input error.
    symbols = formula_symbols_fga()
    text, _ = formula_nest(wrappers, MAX_FORMULA_DEPTH)
    f = parse_formula(text, symbols)
    printed = format_formula(f)
    assert format_formula(nnf(nnf(f, False), False)) == format_formula(nnf(f)) == printed
    assert parse_formula(printed, symbols) == f
    assert fsize(f) > MAX_FORMULA_DEPTH
    assert euf_valid(f, f) == (True, None)
    assert not euf_valid(f, FALSE)[0]
    text, col = formula_nest(wrappers, MAX_FORMULA_DEPTH + 1)
    with pytest.raises(InputError) as e:
        parse_formula(text, symbols)
    assert str(e.value) == f"1:{col}: formula nested deeper than {MAX_FORMULA_DEPTH}"
