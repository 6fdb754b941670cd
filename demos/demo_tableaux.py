"""Walk the branching algorithm over two inputs and show every disjunct."""
from __future__ import annotations

from pathlib import Path

from eufui.parse import format_formula, parse, print_ui
from eufui.preprocess import flatten
from eufui.tableaux import compute_tableaux_ui

INPUTS = Path(__file__).parent / "inputs"


def show(name: str) -> None:
    text = (INPUTS / name).read_text()
    problem = parse(text)
    pre = flatten(problem)
    result = compute_tableaux_ui(pre)
    print(f"== {name} ==")
    print(f"flat e-part: {[str(l) for l in pre.s1]}")
    print(f"branches explored: {result.stats['branches_explored']}"
          f"  rule-4 splits: {result.stats['rule4_firings']}")
    for k, disjunct in enumerate(result.disjuncts, 1):
        print(f"  disjunct {k}: {format_formula(disjunct)}")
    print(f"UI: {print_ui(result)}")
    print()


def main() -> None:
    show("two_applications.smt")
    show("nested_shared.smt")
    show("sixteen_branches.smt")


if __name__ == "__main__":
    main()
