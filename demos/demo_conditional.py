"""Trace the Horn-clause algorithm: saturation, chains, and the conjunction."""
from __future__ import annotations

from pathlib import Path

from eufui.conditional import compute_conditional_ui
from eufui.parse import format_formula, format_term, parse, print_ui
from eufui.preprocess import flatten

INPUTS = Path(__file__).parent / "inputs"


def clause_line(c) -> str:
    ante = " & ".join(f"{a.lhs.head.name}={a.rhs.head.name}" for a in c.antecedent)
    if c.consequent is None:
        head = "false"
    else:
        head = f"{format_term(c.consequent.lhs)}={format_term(c.consequent.rhs)}"
    return f"{{{ante}}} -> {head}" if ante else head


def show(name: str) -> None:
    text = (INPUTS / name).read_text()
    problem = parse(text)
    pre = flatten(problem)
    result = compute_conditional_ui(pre)
    print(f"== {name} ==")
    print(f"clauses after pairing: {len(result.s2)}")
    for c in result.s2:
        print(f"  {clause_line(c)}")
    added = [c for c in result.s3 if c not in result.s2]
    print(f"added by saturation: {len(added)}")
    for c in added:
        print(f"  {clause_line(c)}")
    print(f"definition chains kept: {len(result.phis)}")
    for k, phi in enumerate(result.phis, 1):
        order = " then ".join(
            f"{e.var.name}:={format_term(e.body)}" for e in phi.entries
        ) or "(empty)"
        print(f"  chain {k}: {order}")
        print(f"    {format_formula(phi.formula())}")
    print(f"UI: {print_ui(result)}")
    print()


def main() -> None:
    show("nested_shared.smt")
    show("three_chains.smt")
    show("connection_gadget.smt")


if __name__ == "__main__":
    main()
