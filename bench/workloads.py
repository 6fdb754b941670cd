"""Input generators and output checks for the benchmark workloads.

Every generator draws from a seeded random.Random and returns problem text
only; nothing here imports the package under test, so the program sees the
same bytes a user would feed it. Each check reads the CLI's stdout and
compares it with a reference computed here, independently of the program.
"""
from __future__ import annotations

import itertools
import random

# The acceptance-corpus shape: at most 3 function symbols of arity 1-2, 5
# parameters, 4 eliminated constants, 8 literals, term depth 2.
CORPUS_REFERENCE_SEED = 20260823
CORPUS_SIZE = 200
CORPUS_MAX_ESUBTERMS = 6
CORPUS_ARGS = ["--algorithm", "both", "--verify", "equivalence",
               "--max-cdags", "2000", "--max-clauses", "1000"]

# Kept instance 49 at the reference seed is corpus row 58 of ROADMAP.md: a
# run over the reference corpus must include it.
ROW58_INDEX = 49
ROW58_ASSERTIONS = [
    "(assert (= (f1 z1 z0) (f1 (f1 e0 z2) (f1 z1 z3))))",
    "(assert (= (f1 (f1 z0 e0) (f1 e0 z1)) z1))",
    "(assert (= z0 (f1 (f1 z3 z2) (f1 z3 z1))))",
    "(assert (= z3 e0))",
]
SHARED_EVAR_K = 7
SHARED_EVAR_ARGS = ["--algorithm", "both", "--verify", "residue"]

# shared-evar and chain-gadget runs hold this many seed-drawn variants:
# step-2 time on the gadget varies by about a third across assertion
# orders, so one order per seed would make the seed, not the program, set
# the figures.
VARIANTS = 8

CHAIN_GADGET_N = 5
CHAIN_GADGET_ARGS: list[str] = []


# --- s-expressions -------------------------------------------------------


def fmt(t) -> str:
    """A term is a name or a tuple (head, arg, ...)."""
    if isinstance(t, str):
        return t
    return "(" + " ".join([t[0]] + [fmt(a) for a in t[1:]]) + ")"


def read_sexpr(text: str):
    """One s-expression as nested lists of atoms."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    stack: list[list] = [[]]
    for tok in tokens:
        if tok == "(":
            stack.append([])
        elif tok == ")" and len(stack) > 1:
            done = stack.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(tok)
    if len(stack) != 1 or len(stack[0]) != 1:
        raise AssertionError(f"not one s-expression: {text[:80]!r}")
    return stack[0][0]


def problem_text(funs, consts, eliminate, literals) -> str:
    """funs: [(name, arity)]; literals: [(positive, lhs, rhs)]."""
    out = ["(declare-sort U 0)"]
    for name, arity in funs:
        out.append(f"(declare-fun {name} ({' '.join(['U'] * arity)}) U)")
    for name in consts:
        out.append(f"(declare-const {name} U)")
    out.append("(eliminate " + " ".join(eliminate) + ")")
    for positive, lhs, rhs in literals:
        eq = f"(= {fmt(lhs)} {fmt(rhs)})"
        out.append(f"(assert {eq})" if positive else f"(assert (not {eq}))")
    return "\n".join(out) + "\n(compute-ui)\n"


def fresh_names(rng: random.Random, count: int) -> list[str]:
    """Distinct constant names that cannot collide with generated y/w/e names."""
    names: set[str] = set()
    while len(names) < count:
        names.add(rng.choice("abcdkmnpqrst") + "".join(rng.choice("abcdkmnpqrst") for _ in range(3)))
    out = sorted(names)
    rng.shuffle(out)
    return out


# --- corpus ----------------------------------------------------------------


def _random_problem(rng: random.Random, max_funs=3, max_params=5, max_evars=4, max_lits=8, max_depth=2):
    """The acceptance corpus's random problem, drawn in the same rng order."""
    funs = [(f"f{i + 1}", rng.randint(1, 2)) for i in range(rng.randint(1, max_funs))]
    params = [f"z{i}" for i in range(rng.randint(1, max_params))]
    evars = [f"e{i}" for i in range(rng.randint(1, max_evars))]
    leaves = params + evars

    def term(depth):
        if depth == 0 or rng.random() < 0.35:
            return rng.choice(leaves)
        name, arity = rng.choice(funs)
        return (name,) + tuple(term(depth - 1) for _ in range(arity))

    lits = []
    for _ in range(rng.randint(1, max_lits)):
        lhs, rhs = term(max_depth), term(max_depth)
        lits.append((rng.random() >= 0.2, lhs, rhs))
    return funs, params, evars, lits


def esubterm_count(literals, evars) -> int:
    """Distinct subterms that contain an eliminated constant, the constants included."""
    evars = set(evars)
    found = set()

    def walk(t) -> bool:
        if isinstance(t, str):
            has = t in evars
        else:
            has = False
            for a in t[1:]:
                has = walk(a) or has
        if has:
            found.add(t)
        return has

    for _, lhs, rhs in literals:
        walk(lhs)
        walk(rhs)
    return len(found)


def _rename(t, names: dict):
    if isinstance(t, str):
        return names[t]
    return (names[t[0]],) + tuple(_rename(a, names) for a in t[1:])


def corpus(seed: int, size: int = CORPUS_SIZE) -> list[str]:
    """The reference corpus, with every symbol renamed by `seed`.

    The problems are the first `size` corpus-shaped draws at the reference
    seed that have few e-subterms. The seed only renames symbols, keeping
    declaration and assertion order: the engines order symbols by
    declaration, so the work per instance is the same at every seed, and
    every run holds row 58, whose 1279 chains set the corpus's throughput.
    """
    rng = random.Random(CORPUS_REFERENCE_SEED)
    base = []
    while len(base) < size:
        funs, params, evars, lits = _random_problem(rng)
        if esubterm_count(lits, evars) <= CORPUS_MAX_ESUBTERMS:
            base.append((funs, params, evars, lits))
    funs, params, evars, lits = base[ROW58_INDEX]
    check_row58(problem_text(funs, params + evars, evars, lits))

    rng = random.Random(seed)
    out = []
    for funs, params, evars, lits in base:
        old = [name for name, _ in funs] + params + evars
        names = dict(zip(old, fresh_names(rng, len(old))))
        out.append(problem_text(
            [(names[f], arity) for f, arity in funs],
            [names[c] for c in params + evars],
            [names[e] for e in evars],
            [(pos, _rename(lhs, names), _rename(rhs, names)) for pos, lhs, rhs in lits],
        ))
    return out


def check_row58(text: str) -> None:
    asserts = [line for line in text.splitlines() if line.startswith("(assert")]
    if asserts != ROW58_ASSERTIONS:
        raise AssertionError(f"kept instance {ROW58_INDEX} is not corpus row 58: {asserts}")


def check_corpus(stdout: str) -> None:
    if stdout.splitlines()[-1:] != ["equivalent"]:
        raise AssertionError("missing 'equivalent' line")


# --- k applications sharing one eliminated constant -------------------------


def shared_evar(rng: random.Random, k: int = SHARED_EVAR_K):
    """f(e, a_i) = b_i for i < k; returns the text and the (a_i, b_i) pairs."""
    names = fresh_names(rng, 2 * k + 2)
    f, e, pairs = names[0], names[1], list(zip(names[2:2 + k], names[2 + k:]))
    lits = [(True, (f, e, a), b) for a, b in pairs]
    rng.shuffle(lits)
    consts = [e] + [c for pair in pairs for c in pair]
    return problem_text([(f, 2)], consts, [e], lits), pairs


def _conjuncts(stdout: str, prefix: str):
    line = next((l for l in stdout.splitlines() if l.startswith(prefix)), None)
    if line is None:
        raise AssertionError(f"no {prefix!r} line")
    f = read_sexpr(line[len(prefix):])
    return f[1:] if isinstance(f, list) and f[0] == "and" else [f]


def _eq_pair(node) -> frozenset:
    if not (isinstance(node, list) and len(node) == 3 and node[0] == "="
            and isinstance(node[1], str) and isinstance(node[2], str)):
        raise AssertionError(f"not a constant equality: {node}")
    return frozenset(node[1:])


def _implication(node):
    if not (isinstance(node, list) and len(node) == 3 and node[0] == "=>"):
        raise AssertionError(f"not an implication: {node}")
    ante = node[1][1:] if isinstance(node[1], list) and node[1][:1] == ["and"] else [node[1]]
    return frozenset(_eq_pair(a) for a in ante), _eq_pair(node[2])


def check_shared_evar(stdout: str, pairs) -> None:
    want = {
        (frozenset([frozenset((a1, a2))]), frozenset((b1, b2)))
        for (a1, b1), (a2, b2) in itertools.combinations(pairs, 2)
    }
    got = [_implication(c) for c in _conjuncts(stdout, "conditional: ")]
    if len(got) != len(want) or set(got) != want:
        raise AssertionError(f"conditional interpolant is not the {len(want)} pairwise implications")


# --- connection gadget -----------------------------------------------------


def chain_gadget(rng: random.Random, n: int = CHAIN_GADGET_N):
    """The tests' chain_gadget(n) with rng-chosen names and assertion order.

    Node pair (i, j) gets its own function h_ij and two parameters z_ij,
    zp_ij; the interpolant relates z0 and zp0 exactly when the equated
    parameter pairs connect node 1 to node n. Returns the text, the edge of
    each (z_ij, zp_ij) pair, and the (z0, zp0) pair.
    """
    edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    names = fresh_names(rng, 2 + (n + 1) + 3 * len(edges) + 2)
    take = iter(names)
    f = next(take)
    evars = [next(take) for _ in range(n + 1)]
    z0, zp0 = next(take), next(take)
    hs = {edge: next(take) for edge in edges}
    zs = {edge: (next(take), next(take)) for edge in edges}
    lits = [(True, (f, evars[0], evars[1]), z0), (True, (f, evars[0], evars[n]), zp0)]
    for (i, j) in edges:
        z, zp = zs[(i, j)]
        lits.append((True, (hs[(i, j)], evars[0], z), evars[i]))
        lits.append((True, (hs[(i, j)], evars[0], zp), evars[j]))
    rng.shuffle(lits)
    funs = [(f, 2)] + [(hs[edge], 2) for edge in edges]
    consts = evars + [z0, zp0] + [c for edge in edges for c in zs[edge]]
    edge_of = {frozenset(zs[edge]): edge for edge in edges}
    return problem_text(funs, consts, evars, lits), edge_of, frozenset((z0, zp0))


def minimal_connecting_sets(n: int = CHAIN_GADGET_N) -> set[frozenset]:
    """Subset-minimal edge sets of the complete graph on 1..n joining 1 and n."""
    edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]

    def connects(sub) -> bool:
        reach, grew = {1}, True
        while grew:
            grew = False
            for i, j in sub:
                if (i in reach) != (j in reach):
                    reach |= {i, j}
                    grew = True
        return n in reach

    minimal: list[frozenset] = []
    for r in range(len(edges) + 1):
        for sub in itertools.combinations(edges, r):
            if connects(sub) and not any(m <= set(sub) for m in minimal):
                minimal.append(frozenset(sub))
    return set(minimal)


def check_chain_gadget(stdout: str, edge_of, goal, reference: set[frozenset]) -> None:
    got = []
    for node in _conjuncts(stdout, ""):
        ante, concl = _implication(node)
        if concl != goal:
            raise AssertionError(f"implication does not conclude the z0 pair: {node}")
        if not ante <= edge_of.keys():
            raise AssertionError(f"antecedent equates a pair that is not an edge: {node}")
        got.append(frozenset(edge_of[a] for a in ante))
    if len(got) != len(reference) or set(got) != reference:
        raise AssertionError(f"antecedent edge sets differ from the {len(reference)} minimal connecting sets")
