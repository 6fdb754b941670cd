"""Use the ground validity oracle to certify interpolants and find witnesses."""
from __future__ import annotations

from pathlib import Path

from eufui.conditional import compute_conditional_ui
from eufui.euf import euf_equiv, euf_valid
from eufui.formulas import mk_and
from eufui.parse import format_formula, parse, parse_formula
from eufui.preprocess import flatten
from eufui.tableaux import compute_tableaux_ui

INPUTS = Path(__file__).parent / "inputs"


def main() -> None:
    text = (INPUTS / "nested_shared.smt").read_text()
    problem = parse(text)
    pre = flatten(problem)
    tab = compute_tableaux_ui(pre)
    cond = compute_conditional_ui(pre)

    body = mk_and(problem.body)
    for name, result in (("tableaux", tab), ("conditional", cond)):
        ok, _ = euf_valid(body, result.formula())
        print(f"input entails {name} interpolant: {ok}")

    ok, _ = euf_equiv(tab.formula(), cond.formula())
    print(f"the two interpolants are equivalent: {ok}")

    # A deliberately wrong candidate: the input never forces z1=z2.
    wrong = parse_formula("(= z1 z2)", problem.symbols)
    ok, cube = euf_valid(body, wrong)
    print(f"input entails {format_formula(wrong)}: {ok}")
    # The cube lists its literals in the order the oracle assumed them;
    # printed newest first, the negated candidate leads.
    print("witness cube:", format_formula(mk_and(cube[::-1])))


if __name__ == "__main__":
    main()
