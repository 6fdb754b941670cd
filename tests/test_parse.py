"""Parser totality, error positions, and print/parse round trips."""
from __future__ import annotations

import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eufui.errors import InputError
from eufui.euf import euf_equiv
from eufui.formulas import FALSE, TRUE, Implies, Let, mk_and, mk_or
from eufui.parse import format_formula, parse, parse_formula, print_ui
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


def test_format_true_false():
    assert format_formula(TRUE) == "true"
    assert format_formula(FALSE) == "false"
    assert parse_formula("true", {}) is TRUE
    assert parse_formula("false", {}) is FALSE


def test_print_ui_mode_validation():
    class Dummy:
        def formula(self, unravel):
            return TRUE

    assert print_ui(Dummy(), "compressed") == "true"
    assert print_ui(Dummy(), "unravelled") == "true"
    with pytest.raises(ValueError):
        print_ui(Dummy(), "fancy")


def test_parse_formula_let_shadowing():
    z = mk_symbol("z", 0, "parameter")
    w = mk_symbol("w", 0, "parameter")
    symbols = {"z": z, "w": w}
    f = parse_formula("(let ((x z)) (let ((x w)) (= x z)))", symbols)
    assert f == Eq(const(w), const(z))
