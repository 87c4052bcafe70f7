"""Seeded random generators shared by the test modules."""

import itertools
import random
from fractions import Fraction

from urybench.grey import GreyCosetCode, ThresholdCone
from urybench.logic import (
    Atom, Const, D, FinStructure, Half, Inf, Max, Min, Neg, Pt, RelSpec,
    Signature, Sup, TAdd, TMul, TSub, AbsDiff, Var, format_formula,
)
from urybench.metric import FinMetric, QUPrefix, qu_extend
from urybench.rat import format_rat
from urybench.space import ConeConstraint, StructureCone

EIGHTHS = [Fraction(k, 8) for k in range(9)]
POS_EIGHTHS = [Fraction(k, 8) for k in range(1, 9)]


def random_metric(rng: random.Random, n: int) -> FinMetric:
    """Random n-point rational metric: random positive weights closed
    under shortest paths."""
    w = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            w[i][j] = w[j][i] = rng.choice(POS_EIGHTHS)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if w[i][k] + w[k][j] < w[i][j]:
                    w[i][j] = w[i][k] + w[k][j]
    m = FinMetric()
    for i in range(n):
        m.append_point([w[i][j] for j in range(i)])
    return m


def prefix_metric(m: FinMetric, k: int) -> FinMetric:
    out = FinMetric()
    for i in range(k):
        out.append_point([m.d(i, j) for j in range(i)])
    return out


def random_structure(rng: random.Random, space: FinMetric,
                     sig: Signature) -> FinStructure:
    """Random tables satisfying each relation's modulus.

    Each table is a minimum of a few randomly-centered Lipschitz cones
    v + coeff * d(., c), capped at 1; minima of coeff-Lipschitz maps are
    coeff-Lipschitz, so the invariant holds by construction.
    """
    n = space.n
    tables = {}
    for spec in sig.relations:
        tuples = list(itertools.product(range(n), repeat=spec.arity))
        centers = [(rng.choice(tuples), rng.choice(EIGHTHS))
                   for _ in range(3)]
        tables[spec.name] = {
            tup: min(Fraction(1),
                     min(v + spec.coeff * space.tuple_dist(tup, c)
                         for c, v in centers))
            for tup in tuples}
    return FinStructure(sig, space.copy(), tables)


def default_sig() -> Signature:
    return Signature([RelSpec("R", 1, Fraction(1)),
                      RelSpec("S", 2, Fraction(2))])


def random_formula(rng: random.Random, sig: Signature, free_vars,
                   depth: int, n_points: int = 0,
                   allow_quantifiers: bool = True):
    """Random AST whose free variables all come from free_vars."""

    def term(scope):
        if not scope or (n_points and rng.random() < 0.15):
            return Pt(rng.randrange(n_points))
        return Var(rng.choice(scope))

    def leaf(scope):
        if (not scope and not n_points) or rng.random() < 0.25:
            return Const(rng.choice(EIGHTHS))
        if rng.random() < 0.4:
            return D(term(scope), term(scope))
        spec = rng.choice(sig.relations)
        return Atom(spec.name, tuple(term(scope)
                                     for _ in range(spec.arity)))

    counter = itertools.count()

    def go(scope, budget):
        if budget == 0 or rng.random() < 0.2:
            return leaf(scope)
        kind = rng.randrange(9 if allow_quantifiers else 7)
        if kind == 0:
            return Neg(go(scope, budget - 1))
        if kind == 1:
            return Half(go(scope, budget - 1))
        if kind == 2:
            return TMul(rng.choice([Fraction(1, 2), Fraction(2),
                                    Fraction(3, 2), Fraction(3)]),
                        go(scope, budget - 1))
        if kind == 3:
            return TSub(go(scope, budget - 1), go(scope, budget - 1))
        if kind == 4:
            return TAdd(go(scope, budget - 1), go(scope, budget - 1))
        if kind == 5:
            return AbsDiff(go(scope, budget - 1), go(scope, budget - 1))
        if kind == 6:
            subs = tuple(go(scope, budget - 1)
                         for _ in range(rng.randrange(2, 4)))
            return Min(subs) if rng.random() < 0.5 else Max(subs)
        v = f"q{next(counter)}"
        body = go(scope + [v], budget - 1)
        return Sup(v, body) if kind == 7 else Inf(v, body)

    return go(list(free_vars), depth)


# --- text files of every kind the readers take --------------------------------

PREFIXES = {}


def _slots(rng, sig, n, k):
    """k distinct (relation, tuple) slots over n points."""
    slots = {(spec.name, tuple(rng.randrange(n) for _ in range(spec.arity)))
             for spec in (rng.choice(sig.relations) for _ in range(k))}
    return sorted(slots)


def random_texts(rng: random.Random, sig: Signature, n_ids: int) -> dict:
    """Valid text of each file kind, keyed by kind: sig, space, prefix,
    structure, con, tcone, gcone, manifest and family (whose cond lines
    carry n_ids ids)."""
    space = random_metric(rng, rng.randrange(1, 5))
    n = space.n
    steps = rng.randrange(0, 40)
    if steps not in PREFIXES:
        PREFIXES[steps] = qu_extend(QUPrefix(), steps).to_text()
    cons = []
    for rel, tup in _slots(rng, sig, n, rng.randrange(0, 4)):
        lo, hi = sorted(rng.sample(EIGHTHS, 2))
        cons.append(ConeConstraint(rel, tup, lo, hi, rng.random() < 0.5,
                                   rng.random() < 0.5))
    terms = [(rel, tup, rng.choice(EIGHTHS))
             for rel, tup in _slots(rng, sig, n, rng.randrange(0, 4))]
    k = rng.randrange(1, 3)
    code = GreyCosetCode(rng.choice(POS_EIGHTHS) * rng.randrange(1, 4),
                         tuple(rng.randrange(n) for _ in range(k)),
                         tuple(rng.randrange(n) for _ in range(k)),
                         rng.choice(EIGHTHS), rng.choice(["lt", "le", "gt", "ge"]))
    manifest = [("sig", "sig.txt"), ("prefix", "prefix.txt"),
                ("stage", str(rng.randrange(3)))]
    variables = [f"x{i}" for i in range(n_ids)]
    family = []
    for i in range(rng.randrange(1, 3)):
        ids = ",".join(str(rng.randrange(n)) for _ in range(n_ids))
        f = random_formula(rng, sig, variables, rng.randrange(0, 3))
        family.append(f"cond {format_rat(rng.choice(EIGHTHS))} {ids} "
                      f"{format_formula(f)}")
        if rng.random() < 0.5:
            f = random_formula(rng, sig, variables + ["y"], rng.randrange(0, 3))
            family.append(f"delta {i} {format_formula(f)}")
    return {
        "sig": "".join(f"rel {spec.name} {spec.arity} mod {format_rat(spec.coeff)}\n"
                       for spec in sig.relations),
        "space": space.to_text(),
        "prefix": PREFIXES[steps],
        "structure": random_structure(rng, space, sig).to_text(),
        "con": StructureCone(sig, cons).to_text(),
        "tcone": ThresholdCone(sig, terms, rng.choice(POS_EIGHTHS)).to_text(),
        "gcone": code.to_text(),
        "manifest": "".join(f"{key} {val}\n" for key, val in
                            rng.sample(manifest, rng.randrange(1, 4))),
        "family": "".join(line + "\n" for line in family),
    }


# tokens a mutation puts in place of one token: bad and good ids, values
# and heads of every file kind; "" deletes the token and "#" comments out
# the rest of its line
TOKENS = ["", "#", "0", "1", "2", "7", "-1", "1000000000000", "1/2", "3/2",
          "1/0", "x", "\u00b2", "point", "dist", "snapshot", "cursor", "rel",
          "mod", "val", "con", "term", "tcone", "gcone", "r=1/2", "q=2",
          "s=0,1", "thr=1/2", "op=le", "cc", "oo", "sig", "prefix", "stage",
          "cond", "delta", "R", "S", "R(x0)"]


def mutate(rng: random.Random, text: str) -> str:
    """text with one token of one line replaced by another token of the
    text or one of TOKENS."""
    lines = text.splitlines()
    if not lines:
        return rng.choice(TOKENS) + "\n"
    i = rng.randrange(len(lines))
    parts = lines[i].split(" ")
    j = rng.randrange(len(parts))
    parts[j] = rng.choice(TOKENS + text.split())
    lines[i] = " ".join(parts)
    return "".join(line + "\n" for line in lines)


def noisy(rng: random.Random, text: str) -> str:
    """The same file as read: comment and blank lines put between its
    lines, a comment after some lines, tabs and runs of blanks between
    tokens, and CRLF line ends."""
    def blanks():
        return rng.choice([" ", " ", "\t", "  ", " \t "])

    out = []
    for line in text.splitlines():
        while rng.random() < 0.3:
            out.append(rng.choice(["", "# note", "\t", "  # cursor 0 0"]))
        line = "".join(tok + blanks() for tok in line.split(" ")).rstrip(" \t")
        if rng.random() < 0.2:
            line += blanks() + "# gcone con"
        out.append(rng.choice(["", " ", "\t"]) + line)
    return "".join(line + rng.choice(["\n", "\r\n"]) for line in out)
