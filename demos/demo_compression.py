"""Show the let-bound interpolant staying linear while its expansion doubles."""
from __future__ import annotations

from eufui.conditional import compute_conditional_ui
from eufui.formulas import fsize
from eufui.parse import parse, print_ui
from eufui.preprocess import flatten


def doubling_chain(n: int) -> str:
    lines = ["(declare-sort U 0)"]
    lines += [f"(declare-fun f{i} (U U) U)" for i in range(1, n + 1)]
    lines += ["(declare-fun h (U) U)", "(declare-const z U)", "(declare-const z0 U)"]
    lines += [f"(declare-const e{i} U)" for i in range(1, n + 1)]
    lines.append("(eliminate " + " ".join(f"e{i}" for i in range(1, n + 1)) + ")")
    lines.append("(assert (= (f1 z z) e1))")
    lines += [f"(assert (= (f{i + 1} e{i} e{i}) e{i + 1}))" for i in range(1, n)]
    lines += [f"(assert (= (h e{n}) z0))", "(compute-ui)"]
    return "\n".join(lines)


def main() -> None:
    print(f"{'n':>3} {'compressed':>11} {'unravelled':>11}")
    for n in range(1, 11):
        result = compute_conditional_ui(flatten(parse(doubling_chain(n))))
        compressed = fsize(result.formula())
        unravelled = fsize(result.formula(unravel=True))
        print(f"{n:>3} {compressed:>11} {unravelled:>11}")
    result = compute_conditional_ui(flatten(parse(doubling_chain(4))))
    print()
    print("n=4 compressed:", print_ui(result))
    print()
    print("n=4 unravelled:", print_ui(result, unravel=True))


if __name__ == "__main__":
    main()
