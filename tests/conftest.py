"""Shared helpers: tiny signature factory, randomized instance builders, the
bench's workloads, a fake clock for the run budget and a recorder of the
oracle's cubes."""
from __future__ import annotations

import importlib.util
import random
from pathlib import Path

import pytest

from eufui import errors, euf
from eufui.euf import euf_equiv
from eufui.parse import Problem, parse, parse_formula
from eufui.terms import Eq, Ne, const, intern, mk_symbol


# The bench corpus's reference seed; bench/workloads.py generates its texts.
BENCH_CORPUS_SEED = 20260823


def bench_workloads():
    """bench/workloads.py, loaded from its file: bench/ is not a package."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


@pytest.fixture
def counting_clock(monkeypatch):
    """The budget's clock, faked: each read returns how many reads there were."""

    class CountingClock:
        reads = 0

        @classmethod
        def monotonic(cls):
            cls.reads += 1
            return float(cls.reads)

    monkeypatch.setattr(errors, "time", CountingClock)
    return CountingClock


@pytest.fixture
def assumed_cubes(monkeypatch):
    """The oracle closure's assume, recorded: one entry per call, the cube after it.

    Each call spends one cube of euf_valid's cap, whether the walk decides a
    literal, assumes an antecedent or fires a Horn clause, or the reference
    search assumes a literal; cc_sat makes one call per literal.
    """
    cubes = []
    original = euf.CongruenceState.assume

    def recording(self, lit):
        ok = original(self, lit)
        cubes.append(list(self.lits))
        return ok

    monkeypatch.setattr(euf.CongruenceState, "assume", recording)
    return cubes


def assert_equiv(formula, problem, target_text):
    """formula is EUF-equivalent to target_text, both read over problem's
    symbols; formula may be printed text, and problem its source text."""
    if isinstance(problem, str):
        problem = parse(problem)
    if isinstance(formula, str):
        formula = parse_formula(formula, problem.symbols)
    ok, witness = euf_equiv(formula, parse_formula(target_text, problem.symbols))
    assert ok, witness


class Sig:
    """Convenience factory for one test's symbols; attribute access by name."""

    def __init__(self):
        self.by_name = {}

    def fn(self, name, arity):
        sym = mk_symbol(name, arity, "function")
        self.by_name[name] = sym
        return sym

    def consts(self, kind, *names):
        syms = [mk_symbol(n, 0, kind) for n in names]
        self.by_name.update(zip(names, syms))
        return [const(s) for s in syms]

    def params(self, *names):
        return self.consts("parameter", *names)

    def evars(self, *names):
        return self.consts("quantified", *names)


def random_flat_instance(rng: random.Random, nconsts=5, nfuns=2, max_arity=2, nlits=8):
    """Flat ground literals over constants: app=const, app!=const, const(!)=const."""
    consts = [const(mk_symbol(f"c{i}", 0, "parameter")) for i in range(nconsts)]
    fns = [mk_symbol(f"F{i}", rng.randint(1, max_arity), "function") for i in range(nfuns)]
    lits = []
    for _ in range(nlits):
        if rng.random() < 0.55:
            f = rng.choice(fns)
            lhs = intern(f, tuple(rng.choice(consts) for _ in range(f.arity)))
        else:
            lhs = rng.choice(consts)
        rhs = rng.choice(consts)
        lits.append(Eq(lhs, rhs) if rng.random() < 0.6 else Ne(lhs, rhs))
    return consts, fns, lits


def random_problem(rng: random.Random, max_funs=3, max_params=5, max_evars=3, max_lits=6, max_depth=2) -> Problem:
    """Random nested-term elimination problem for end-to-end exercises."""
    funs = [mk_symbol(f"f{i + 1}", rng.randint(1, 2), "function") for i in range(rng.randint(1, max_funs))]
    params = [mk_symbol(f"z{i}", 0, "parameter") for i in range(rng.randint(1, max_params))]
    evars = [mk_symbol(f"e{i}", 0, "quantified") for i in range(rng.randint(1, max_evars))]
    leaves = [const(s) for s in params + evars]

    def term(depth):
        if depth == 0 or rng.random() < 0.35:
            return rng.choice(leaves)
        f = rng.choice(funs)
        return intern(f, tuple(term(depth - 1) for _ in range(f.arity)))

    lits = []
    for _ in range(rng.randint(1, max_lits)):
        lhs, rhs = term(max_depth), term(max_depth)
        lits.append(Ne(lhs, rhs) if rng.random() < 0.2 else Eq(lhs, rhs))
    symbols = {s.name: s for s in funs + params + evars}
    return Problem("U", funs, params, evars, lits, symbols)


def doubling_chain(n):
    """f1(z, z) = e1, f_{i+1}(e_i, e_i) = e_{i+1}, h(e_n) = z0: expands to 2^n nodes."""
    lines = ["(declare-sort U 0)"]
    lines += [f"(declare-fun f{i} (U U) U)" for i in range(1, n + 1)]
    lines += ["(declare-fun h (U) U)", "(declare-const z U)", "(declare-const z0 U)"]
    lines += [f"(declare-const e{i} U)" for i in range(1, n + 1)]
    lines.append("(eliminate " + " ".join(f"e{i}" for i in range(1, n + 1)) + ")")
    lines.append("(assert (= (f1 z z) e1))")
    lines += [f"(assert (= (f{i + 1} e{i} e{i}) e{i + 1}))" for i in range(1, n)]
    lines += [f"(assert (= (h e{n}) z0))", "(compute-ui)"]
    return "\n".join(lines)


def shared_evar_text(k):
    """f(e, a_i) = b_i for i < k: every pair of applications can split."""
    decls = "".join(f"(declare-const a{i} U)(declare-const b{i} U)" for i in range(k))
    lits = "".join(f"(assert (= (f e a{i}) b{i}))" for i in range(k))
    return f"(declare-sort U 0)(declare-fun f (U U) U)(declare-const e U){decls}(eliminate e){lits}"


def unary_chain(n):
    """y1 := f(z), y_{i+1} := f(y_i) and the body y_n = z."""
    s = Sig()
    f = s.fn("f", 1)
    z = s.params("z")[0]
    entries = []
    prev = z
    for i in range(1, n + 1):
        y = mk_symbol(f"y{i}", 0, "defined")
        entries.append((y, intern(f, (prev,))))
        prev = const(y)
    return f, z, entries, Eq(prev, z)


def linear_chain(n):
    """f(z) = e1, f(e_i) = e_{i+1}, f(e_n) = z: one unary function, n definitions."""
    lines = ["(declare-sort U 0)", "(declare-fun f (U) U)", "(declare-const z U)"]
    lines += [f"(declare-const e{i} U)" for i in range(1, n + 1)]
    lines.append("(eliminate " + " ".join(f"e{i}" for i in range(1, n + 1)) + ")")
    lines.append("(assert (= (f z) e1))")
    lines += [f"(assert (= (f e{i}) e{i + 1}))" for i in range(1, n)]
    lines.append(f"(assert (= (f e{n}) z))")
    return "\n".join(lines)


def iter_partitions(items):
    """All set partitions of items (lists of lists)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for p in iter_partitions(rest):
        for i in range(len(p)):
            yield p[:i] + [p[i] + [first]] + p[i + 1 :]
        yield p + [[first]]


def brute_force_sat(consts, lits) -> bool:
    """Partition-enumeration EUF satisfiability for flat literals.

    Functions are partial maps over class tuples, completed freely; a model
    may always use elements outside the named classes, so an application
    with no required value only has to avoid its forbidden values.
    """
    ids = [c.id for c in consts]
    for part in iter_partitions(ids):
        cls = {}
        for k, block in enumerate(part):
            for i in block:
                cls[i] = k
        required = {}
        forbidden = {}
        ok = True
        for lit in lits:
            lhs, rhs = lit.lhs, lit.rhs
            if lhs.args:
                key = (lhs.head.uid, tuple(cls[a.id] for a in lhs.args))
                val = cls[rhs.id]
                if isinstance(lit, Eq):
                    if required.setdefault(key, val) != val:
                        ok = False
                        break
                else:
                    forbidden.setdefault(key, set()).add(val)
            else:
                same = cls[lhs.id] == cls[rhs.id]
                if same != isinstance(lit, Eq):
                    ok = False
                    break
        if ok:
            for key, val in required.items():
                if val in forbidden.get(key, ()):
                    ok = False
                    break
        if ok:
            return True
    return False
