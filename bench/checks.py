"""Independent computations and output checkers for the urybench benchmark.

Nothing here imports urybench or the test helpers: every expected answer
is recomputed from the definitions, on plain ints, Fractions, dicts and
tuples, so a change to the program or to tests/ cannot move a verdict.
Each checker raises CheckFailed with a reason; returning means the output
passed.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

F = Fraction
ZERO = F(0)
ONE = F(1)


class CheckFailed(AssertionError):
    """An output of the program disagrees with the independent computation."""


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def fmt(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def rat(text: str) -> Fraction:
    p, _, q = text.partition("/")
    return F(int(p), int(q)) if q else F(int(p))


def key(a: int, b: int) -> tuple:
    return (a, b) if a < b else (b, a)


# --- the canonical schedule, reimplemented on an integer lattice --------------

def stage_params(t: int) -> tuple:
    """(subset-size cap, denominator bound) of stage t: bounds 2, 4, 8, ...
    with odd caps 1, 3, ..., 2*log2(B) - 1 inside each bound."""
    e, first = 1, 0
    while first + e <= t:
        first += e
        e += 1
    return 2 * (t - first) + 1, 2 ** e


class Schedule:
    """The canonical prefix after a number of schedule items.

    Distances are ints in units of 1/L; L = lcm(1..64) covers every stage
    this benchmark reaches, since one-point completions only add existing
    distances.  Realization is answered from a per-subset set of distance
    columns instead of a scan.
    """

    L = math.lcm(*range(1, 65))

    def __init__(self, items: int):
        L = self.L
        self.rows: list = []          # rows[i][j] = d(i, j) * L for j < i
        self.stage, self.pos, self.snapshots = 0, 0, [0]
        remaining = items
        while remaining > 0:
            k, bound = stage_params(self.stage)
            vals = sorted({F(p, q) for q in range(1, bound + 1)
                           for p in range(1, q + 1)})
            units = [int(v * L) for v in vals]
            m = self.snapshots[self.stage]
            subsets = [s for size in range(1, k + 1)
                       for s in itertools.combinations(range(m), size)]
            cols = {a: [self.d(a, z) for z in range(self.n)] for a in range(m)}
            seen = {s: {tuple(cols[a][p] for a in s) for p in range(self.n)}
                    for s in subsets}
            for s in [()] + subsets:
                for typ in self._types(s, units):
                    if remaining == 0:
                        break
                    if not (self.n > 0 if not s else typ in seen[s]):
                        self._append(s, typ, cols, m)
                        row = self.rows[-1]
                        for s2 in subsets:
                            seen[s2].add(tuple(row[a] for a in s2))
                    self.pos += 1
                    remaining -= 1
                if remaining == 0:
                    break
            if remaining > 0:
                self.stage += 1
                self.pos = 0
                self.snapshots.append(self.n)

    @property
    def n(self) -> int:
        return len(self.rows)

    def d(self, a: int, b: int) -> int:
        if a == b:
            return 0
        return self.rows[a][b] if a > b else self.rows[b][a]

    def dist(self, a: int, b: int) -> Fraction:
        return F(self.d(a, b), self.L)

    def _types(self, s, units):
        k = len(s)
        dm = [[self.d(a, b) for b in s] for a in s]
        picked: list = []

        def rec(i):
            if i == k:
                yield tuple(picked)
                return
            for v in units:
                if all(abs(v - picked[j]) <= dm[i][j] <= v + picked[j]
                       for j in range(i)):
                    picked.append(v)
                    yield from rec(i + 1)
                    picked.pop()

        yield from rec(0)

    def _append(self, s, typ, cols, m):
        row = [self.L] * self.n
        for a, r in zip(s, typ):
            row = [min(x, r + c) for x, c in zip(row, cols[a])]
        for a, r in zip(s, typ):
            row[a] = r
        self.rows.append(row)
        for a in range(m):
            cols[a].append(row[a])

    def to_text(self) -> str:
        L = self.L
        names: dict = {}

        def name(u):
            if u not in names:
                names[u] = fmt(F(u, L))
            return names[u]

        lines = [f"point {i}" for i in range(self.n)]
        for b, row in enumerate(self.rows):
            lines.extend(f"dist {a} {b} {name(u)}" for a, u in enumerate(row))
        lines += [f"snapshot {t} {size}" for t, size in enumerate(self.snapshots)]
        lines.append(f"cursor {self.stage} {self.pos}")
        return "\n".join(lines) + "\n"


def check_stage_complete(d, snapshot: int, n: int, k: int, bound: int) -> int:
    """Every admissible extension type over every subset of at most k of
    the snapshot points is realized by some point among n; d(a, b) gives
    exact distances.  Returns the number of types audited."""
    vals = sorted({F(p, q) for q in range(1, bound + 1) for p in range(1, q + 1)})
    anchors = range(snapshot)
    subsets = [s for size in range(1, k + 1)
               for s in itertools.combinations(anchors, size)]
    cols = [tuple(d(p, a) for a in anchors) for p in range(n)]
    realized = {(s, tuple(col[a] for a in s)) for col in cols for s in subsets}
    audited = 0
    for s in subsets:
        for typ in itertools.product(vals, repeat=len(s)):
            if all(abs(typ[i] - typ[j]) <= d(s[i], s[j]) <= typ[i] + typ[j]
                   for i in range(len(s)) for j in range(i)):
                audited += 1
                require((s, typ) in realized,
                        f"type {tuple(map(fmt, typ))} over {s} is not realized")
    return audited


def check_triangles(d, n: int, rng, triples: int) -> None:
    """Seeded triples of points obey the triangle inequality."""
    for _ in range(triples):
        a, b, c = rng.sample(range(n), 3)
        require(d(a, b) <= d(a, c) + d(c, b),
                f"triangle violated on ({a},{b}) via {c}")


# --- feasibility: instances, witnesses, certificates, grid search -------------

class Instance:
    """A partial distance constraint set kept as plain dicts: at most one
    exact value, one lower and one upper bound per pair."""

    def __init__(self, n: int):
        self.n = n
        self.exact: dict = {}
        self.lower: dict = {}   # pair -> (value, strict)
        self.upper: dict = {}

    def to_text(self) -> str:
        lines = [f"point {i}" for i in range(self.n)]
        lines += [f"dist {a} {b} {fmt(v)}" for (a, b), v in sorted(self.exact.items())]
        for kind, table in (("lower", self.lower), ("upper", self.upper)):
            for (a, b), (v, s) in sorted(table.items()):
                lines.append(f"{kind} {a} {b} {fmt(v)}{' strict' if s else ''}")
        return "\n".join(lines) + "\n"

    def admits(self, a: int, b: int, v: Fraction) -> bool:
        """Does v meet every constraint stated directly on the pair?"""
        p = key(a, b)
        if p in self.exact and self.exact[p] != v:
            return False
        if p in self.lower:
            lo, s = self.lower[p]
            if v < lo or (s and v == lo):
                return False
        if p in self.upper:
            hi, s = self.upper[p]
            if v > hi or (s and v == hi):
                return False
        return True


def check_feasible_output(inst: Instance, code: int, out: str) -> None:
    """`feasible` plus one `dist a b v` line per pair, forming a metric of
    diameter at most 1 that meets every constraint."""
    lines = out.splitlines()
    require(code == 0 and lines and lines[0] == "feasible",
            f"feasible instance answered {lines[:1]} (exit {code})")
    w = {}
    for line in lines[1:]:
        tag, a, b, v = line.split()
        require(tag == "dist", f"unexpected witness line {line!r}")
        w[key(int(a), int(b))] = rat(v)
    n = inst.n
    require(len(w) == n * (n - 1) // 2 and all(
        key(a, b) in w for a in range(n) for b in range(a)),
        "witness does not cover every pair")
    for (a, b), v in w.items():
        require(0 < v <= 1, f"witness d({a},{b}) = {fmt(v)} outside (0, 1]")
        require(inst.admits(a, b, v), f"witness d({a},{b}) = {fmt(v)} breaks a constraint")
    for a, b, c in itertools.permutations(range(n), 3):
        if a < b:
            require(w[key(a, b)] <= w[key(a, c)] + w[key(c, b)],
                    f"witness triangle violated on ({a},{b}) via {c}")


def check_infeasible_output(inst: Instance, code: int, out: str) -> None:
    """A header naming the violated requirement, the chain, and one link
    per chain edge; each link must be an instance bound (or the diameter
    cap) and their sum must contradict the requirement."""
    lines = out.splitlines()
    require(code == 1 and lines and lines[0].startswith("infeasible "),
            f"infeasible instance answered {lines[:1]} (exit {code})")
    head = lines[0].split()
    require(head[1] == "kind" and head[3] == "pair" and head[6] == "bound",
            f"bad certificate header {lines[0]!r}")
    kind, a, b, bound = head[2], int(head[4]), int(head[5]), rat(head[7])
    bound_strict = head[8:] == ["strict"]
    require(lines[1].startswith("chain "), "certificate lacks a chain line")
    chain = [int(x) for x in lines[1].split()[1:]]
    links = lines[2:]
    require(len(chain) >= 2 and chain[0] == a and chain[-1] == b,
            "chain endpoints do not match the violated pair")
    require(len(links) == len(chain) - 1, "one link per chain edge expected")
    total, total_strict = ZERO, False
    for (x, y), line in zip(zip(chain, chain[1:]), links):
        parts = line.split()
        require(parts[0] == "link" and (int(parts[1]), int(parts[2])) == (x, y),
                f"link {line!r} does not follow the chain")
        v, strict, tag = rat(parts[3]), parts[4:-1] == ["strict"], parts[-1]
        p = key(x, y)
        if tag == "cap":
            require(v == 1 and not strict, "a cap link must be a non-strict 1")
        elif tag == "exact":
            require(inst.exact.get(p) == v and not strict,
                    f"exact link {p} = {fmt(v)} is not in the instance")
        elif tag == "upper":
            require(inst.upper.get(p) == (v, strict),
                    f"upper link {p} = {fmt(v)} is not in the instance")
        else:
            raise CheckFailed(f"unknown link tag {tag!r}")
        total += v
        total_strict = total_strict or strict
    p = key(a, b)
    if kind == "lower":
        req = inst.lower.get(p)
        require(req == (bound, bound_strict), "stated lower bound is not in the instance")
    elif kind == "exact":
        require(inst.exact.get(p) == bound and not bound_strict,
                "stated exact value is not in the instance")
        req = (bound, False)
    elif kind == "positivity":
        require(bound == 0 and bound_strict, "positivity needs the bound 0 strict")
        req = (ZERO, True)
    else:
        raise CheckFailed(f"unknown requirement kind {kind!r}")
    lo, lo_strict = req
    require(lo > total or (lo == total and (lo_strict or total_strict)),
            "chain does not contradict the requirement")


def grid_feasible(inst: Instance, den: int) -> bool:
    """Exhaustive backtracking over distances k/den in (0, 1]."""
    n = inst.n
    pairs = [(a, b) for b in range(n) for a in range(b)]
    grid = [F(k, den) for k in range(1, den + 1)]
    cand = {p: [v for v in grid if inst.admits(*p, v)] for p in pairs}
    if any(not c for c in cand.values()):
        return False
    w: dict = {}

    def ok(a, b):
        for c in range(n):
            if c in (a, b):
                continue
            x, y = w.get(key(a, c)), w.get(key(b, c))
            if x is None or y is None:
                continue
            z = w[key(a, b)]
            if z > x + y or x > z + y or y > z + x:
                return False
        return True

    def rec(i):
        if i == len(pairs):
            return True
        p = pairs[i]
        for v in cand[p]:
            w[p] = v
            if ok(*p) and rec(i + 1):
                return True
        del w[p]
        return False

    return rec(0)


# --- structures, modulus compatibility, structure cones -----------------------

def tuple_dist(d, s, t) -> Fraction:
    return max((d(a, b) for a, b in zip(s, t)), default=ZERO)


def compatible(d, coeff: Fraction, vals: dict) -> bool:
    """Pairwise modulus compatibility of partial values on one relation;
    exactly the condition for a total coeff-Lipschitz extension."""
    items = list(vals.items())
    return all(abs(v1 - v2) <= coeff * tuple_dist(d, t1, t2)
               for (t1, v1), (t2, v2) in itertools.combinations(items, 2))


def fill(d, coeff: Fraction, seed: dict, tup) -> Fraction:
    """The tightest modulus-compatible value at tup: min(1, min over seed
    tuples s of seed(s) + coeff * d(tup, s))."""
    if tup in seed:
        return seed[tup]
    return min([ONE] + [v + coeff * tuple_dist(d, tup, s) for s, v in seed.items()])


def admits(iv, v) -> bool:
    lo, hi, lo_open, hi_open = iv
    return (lo < v or (lo == v and not lo_open)) and (v < hi or (v == hi and not hi_open))


def cone_text(cone: dict) -> str:
    """cone: slot (rel, tup) -> (lo, hi, lo_open, hi_open), in file order."""
    lines = []
    for (rel, tup), (lo, hi, lo_open, hi_open) in cone.items():
        flags = ("o" if lo_open else "c") + ("o" if hi_open else "c")
        lines.append(f"con {rel} {' '.join(map(str, tup))} {fmt(lo)} {fmt(hi)} {flags}")
    return "\n".join(lines) + "\n"


def check_cone_separation(d, coeffs: dict, values: dict, left: dict, right: dict,
                          code: int, out: str) -> None:
    """The pair is separated by the partial structure `values` (slot ->
    value): compatible under each relation's modulus, inside every left
    interval, outside some right interval; so inclusion must be false."""
    for rel, coeff in coeffs.items():
        part = {tup: v for (r, tup), v in values.items() if r == rel}
        require(compatible(d, coeff, part), f"separating values break the {rel} modulus")
    require(all(admits(iv, values[slot]) for slot, iv in left.items()),
            "separating structure is not inside the left cone")
    require(any(not admits(iv, values[slot]) for slot, iv in right.items()),
            "separating structure is not outside the right cone")
    require((code, out) == (1, "false\n"),
            f"separated cones answered {out!r} (exit {code})")


def check_cone_nesting(left: dict, right: dict, code: int, out: str) -> None:
    """Every right interval contains the left interval on the same slot."""
    for slot, (lo2, hi2, lo2_open, hi2_open) in right.items():
        require(slot in left, f"right slot {slot} is not constrained on the left")
        lo1, hi1, lo1_open, hi1_open = left[slot]
        require(lo2 < lo1 or (lo2 == lo1 and (lo1_open or not lo2_open)),
                f"right interval on {slot} is not wider below")
        require(hi2 > hi1 or (hi2 == hi1 and (hi1_open or not hi2_open)),
                f"right interval on {slot} is not wider above")
    require((code, out) == (0, "true\n"),
            f"nested cones answered {out!r} (exit {code})")


# --- coset codes --------------------------------------------------------------

STAR_OPS = ("lt", "le", "gt", "ge")


def star(value: Fraction, op: str, thr: Fraction) -> bool:
    return {"lt": value < thr, "le": value <= thr,
            "gt": value > thr, "ge": value >= thr}[op]


def code_text(code) -> str:
    q, sbar, sprime, thr, op = code
    return (f"gcone q={fmt(q)} s={','.join(map(str, sbar))} "
            f"s'={','.join(map(str, sprime))} thr={fmt(thr)} op={op}\n")


def _clip(x: Fraction) -> Fraction:
    return min(ONE, max(ZERO, x))


def _refine(vals) -> list:
    vs = sorted(set(vals))
    return sorted(set(vs) | {(x + y) / 2 for x, y in zip(vs, vs[1:])})


def one_param_counterexample(d, c1, c2):
    """Exact decision for one-coordinate codes: an isometry inside c1 but
    outside c2, as coordinate distances (a, b), or None.

    With x1 = g(u1), x2 = g(u2), e = d(t1, t2) and c0 = d(u1, u2), the
    four points x1, x2, t1, t2 embed (and so, by amalgamation and
    homogeneity, come from an isometry) exactly when both free diagonals
    d(x1, t2) and d(x2, t1) fit their triangle bounds, which for a given
    a = d(x1, t1) confines b = d(x2, t2) to [lo(a), hi(a)] below.  All
    region boundaries are affine in a with breakpoints on the candidate
    set, so candidates and midpoints between them meet every cell.
    """
    q1, (t1,), (u1,), thr1, op1 = c1
    q2, (t2,), (u2,), thr2, op2 = c2
    e, c0 = d(t1, t2), d(u1, u2)
    th1, th2 = _clip(thr1 / q1), _clip(thr2 / q2)
    a_cands = {ZERO, ONE, th1, e, c0}
    for se, sc, st in itertools.product((-1, 0, 1), repeat=3):
        a_cands.add(_clip(se * e + sc * c0 + st * th2))
    for a in _refine(a_cands):
        if not star(min(ONE, q1 * a), op1, thr1):
            continue
        lo = max(ZERO, abs(a - e) - c0, c0 - a - e, e - a - c0, abs(a - c0) - e)
        hi = min(ONE, a + e + c0)
        for b in _refine({ZERO, ONE, th2, lo, hi}):
            if lo <= b <= hi and not star(min(ONE, q2 * b), op2, thr2):
                return a, b
    return None


def check_code_nesting(c1, c2) -> None:
    """Same tuples and scale, and the left threshold condition implies the
    right one for every value in [0, 1]."""
    q1, s1, p1, thr1, op1 = c1
    q2, s2, p2, thr2, op2 = c2
    require((q1, s1, p1) == (q2, s2, p2), "nested codes must share tuples and scale")
    grid = _refine({ZERO, ONE, thr1, thr2})
    require(all(star(x, op2, thr2) for x in grid if star(x, op1, thr1)),
            "left threshold condition does not imply the right one")


def parse_counterexample(out: str):
    lines = out.splitlines()
    require(lines and lines[0] == "false", f"expected a counterexample, got {lines[:1]}")
    require(lines[1].startswith("labels "), "counterexample lacks a labels line")
    labels = [int(x) for x in lines[1].split()[1].split(",")]
    images, dists = {}, {}
    for line in lines[2:]:
        parts = line.split()
        if parts[0] == "image":
            images[int(parts[1])] = int(parts[2])
        elif parts[0] == "d":
            dists[key(int(parts[1]), int(parts[2]))] = rat(parts[3])
        else:
            raise CheckFailed(f"unexpected counterexample line {line!r}")
    return labels, images, dists


def check_counterexample(d, n: int, c1, c2, code: int, out: str) -> None:
    """The printed configuration extends the n-point prefix metrically,
    maps the sources isometrically, and puts the isometry inside c1 and
    outside c2."""
    require(code == 1, f"counterexample printed with exit {code}")
    labels, images, dists = parse_counterexample(out)
    require(labels == sorted(set(labels)), "labels must be sorted and distinct")

    def dl(a, b):
        if a == b:
            return ZERO
        v = dists.get(key(a, b))
        require(v is not None, f"no distance for labels ({a},{b})")
        return v

    for a, b in itertools.combinations(labels, 2):
        v = dl(a, b)
        require(0 < v <= 1, f"distance {fmt(v)} on ({a},{b}) outside (0, 1]")
        if b < n:
            require(v == d(a, b), f"prefix distance ({a},{b}) altered")
    for x, y, z in itertools.combinations(labels, 3):
        p, q, r = dl(x, y), dl(x, z), dl(y, z)
        require(p <= q + r and q <= p + r and r <= p + q,
                f"triangle violated on labels ({x},{y},{z})")
    sources = sorted(set(c1[2]) | set(c2[2]))
    for u in sources:
        require(images.get(u) in labels, f"source {u} has no image label")
    for u, v in itertools.combinations(sources, 2):
        require(dl(images[u], images[v]) == d(u, v),
                f"images of {u},{v} are not at the source distance")
    for code_, want in ((c1, True), (c2, False)):
        q, sbar, sprime, thr, op = code_
        worst = max(dl(images[sp], s) for s, sp in zip(sbar, sprime))
        require(star(min(ONE, q * worst), op, thr) == want,
                "counterexample does not sit inside the left and outside the right code")


# --- formulas -----------------------------------------------------------------
#
# The benchmark's own formula trees: ("const", v), ("atom", rel, terms),
# ("d", t1, t2), (op, sub) for neg/half, ("tmul", q, sub), (op, l, r) for
# tsub/tadd/absdiff/min/max, (quant, var, body) for sup/inf.  Terms are
# variable names (str) or point ids (int).

def formula_text(f) -> str:
    tag = f[0]
    if tag == "const":
        return fmt(f[1])
    if tag == "atom":
        return f"{f[1]}({', '.join(map(str, f[2]))})"
    if tag == "d":
        return f"d({f[1]}, {f[2]})"
    if tag in ("neg", "half"):
        return f"{tag}({formula_text(f[1])})"
    if tag == "tmul":
        return f"tmul({fmt(f[1])}, {formula_text(f[2])})"
    if tag in ("sup", "inf"):
        return f"{tag}({f[1]}, {formula_text(f[2])})"
    return f"{tag}({formula_text(f[1])}, {formula_text(f[2])})"


def evaluate(f, n: int, d, tables: dict, asg: dict) -> Fraction:
    """Exact value over a carrier 0..n-1; quantifiers are max/min."""
    tag = f[0]

    def term(t):
        return asg[t] if isinstance(t, str) else t

    if tag == "const":
        return f[1]
    if tag == "atom":
        return tables[f[1]][tuple(term(t) for t in f[2])]
    if tag == "d":
        return d(term(f[1]), term(f[2]))
    if tag == "neg":
        return ONE - evaluate(f[1], n, d, tables, asg)
    if tag == "half":
        return evaluate(f[1], n, d, tables, asg) / 2
    if tag == "tmul":
        return min(ONE, f[1] * evaluate(f[2], n, d, tables, asg))
    if tag in ("sup", "inf"):
        vals = [evaluate(f[2], n, d, tables, {**asg, f[1]: p}) for p in range(n)]
        return max(vals) if tag == "sup" else min(vals)
    x = evaluate(f[1], n, d, tables, asg)
    y = evaluate(f[2], n, d, tables, asg)
    if tag == "tsub":
        return max(ZERO, x - y)
    if tag == "tadd":
        return min(ONE, x + y)
    if tag == "absdiff":
        return abs(x - y)
    return min(x, y) if tag == "min" else max(x, y)


def modulus(f, coeffs: dict) -> Fraction:
    """Linear modulus coefficient by structural recursion: d counts 2,
    atoms their declared coefficient, binary sums add, min/max take the
    larger, half halves and tmul scales."""
    tag = f[0]
    if tag == "const":
        return ZERO
    if tag == "atom":
        return coeffs[f[1]]
    if tag == "d":
        return F(2)
    if tag == "half":
        return modulus(f[1], coeffs) / 2
    if tag == "neg":
        return modulus(f[1], coeffs)
    if tag == "tmul":
        return f[1] * modulus(f[2], coeffs)
    if tag in ("sup", "inf"):
        return modulus(f[2], coeffs)
    a, b = modulus(f[1], coeffs), modulus(f[2], coeffs)
    return max(a, b) if tag in ("min", "max") else a + b


def free_vars(f) -> set:
    tag = f[0]
    if tag == "const":
        return set()
    if tag == "atom":
        return {t for t in f[2] if isinstance(t, str)}
    if tag == "d":
        return {t for t in f[1:] if isinstance(t, str)}
    if tag in ("neg", "half"):
        return free_vars(f[1])
    if tag == "tmul":
        return free_vars(f[2])
    if tag in ("sup", "inf"):
        return free_vars(f[2]) - {f[1]}
    return free_vars(f[1]) | free_vars(f[2])


# --- homogeneity audit --------------------------------------------------------

def diagram_pair_count(d, n: int, k: int, denom_bound: int) -> int:
    """Ordered pairs of k-tuples with equal distance diagrams, over tuples
    whose internal distances have denominators at most denom_bound."""
    groups: dict = {}
    for tup in itertools.product(range(n), repeat=k):
        diag = tuple(d(tup[i], tup[j]) for i in range(k) for j in range(i))
        if all(v.denominator <= denom_bound for v in diag):
            groups[diag] = groups.get(diag, 0) + 1
    return sum(c * c for c in groups.values())


def check_formula(f, n: int, d, tables: dict, coeffs: dict, asgs, values,
                  k: Fraction, exact_iv, wide_iv) -> None:
    """Program values of one formula at two assignments against the
    independent evaluator; the modulus law between them; the interval
    enclosure at density 0 (width 0) and at a positive density."""
    for asg, v in zip(asgs, values):
        want = evaluate(f, n, d, tables, asg)
        require(v == want, f"value {fmt(v)} at {asg} but the evaluator gives {fmt(want)}")
    require(k == modulus(f, coeffs), f"modulus {fmt(k)} differs from {fmt(modulus(f, coeffs))}")
    a1, a2 = asgs
    gap = max((d(a1[x], a2[x]) for x in free_vars(f)), default=ZERO)
    require(abs(values[0] - values[1]) <= k * gap, "values break the formula modulus")
    require(exact_iv == (values[0], values[0]), "density-0 interval is not the exact value")
    lo, hi = wide_iv
    require(lo <= values[0] <= hi, "interval does not bracket the exact value")


def check_prefix_text(text: str, items: int) -> None:
    """Byte-for-byte agreement with the independent schedule, whose
    distances must all lie in (0, 1]."""
    want = Schedule(items)
    require(all(0 < u <= Schedule.L for row in want.rows for u in row),
            "a schedule distance lies outside (0, 1]")
    want_text = want.to_text()
    if text != want_text:
        got_lines, want_lines = text.splitlines(), want_text.splitlines()
        for i, (g, w) in enumerate(zip(got_lines, want_lines)):
            require(g == w, f"prefix line {i + 1} is {g!r}, expected {w!r}")
        raise CheckFailed(f"prefix text has {len(got_lines)} lines, expected {len(want_lines)}")


def check_homog_report(d, n: int, k: int, denom_bound: int, total: int,
                       successes: int, failures, max_drift: Fraction) -> None:
    want = diagram_pair_count(d, n, k, denom_bound)
    require(total == want, f"audit played {total} pairs, the diagram grouping gives {want}")
    require(successes == total and not failures, f"{len(failures)} audit pairs failed")
    require(max_drift == 0, f"audit drift {fmt(max_drift)} is not 0")


def check_game(d, pairs, abar, bbar, cbar, dbar, per_coord, tables: dict,
               coeffs: dict, arity: dict, eps: Fraction) -> None:
    """One overlay game: the final map sends abar to bbar and cbar to
    dbar, is injective and distance-preserving on the final space d, has
    zero drift, and every relation atom over the final tuples agrees
    across the sides within eps under the tightest fill of the seed."""
    g = dict(pairs)
    require(len(g) == len(pairs) and len(set(g.values())) == len(g),
            "final map is not an injective function")
    require(all(g.get(a) == b for a, b in zip(abar, bbar)), "start tuples are not matched")
    require(all(g.get(c) == e for c, e in zip(cbar, dbar)), "final tuples are not matched")
    for (s1, t1), (s2, t2) in itertools.combinations(g.items(), 2):
        require(d(s1, s2) == d(t1, t2), f"map is not isometric on ({s1},{s2})")
    require(all(v == 0 for v in per_coord), "drift is not 0")
    for rel, seed in tables.items():
        for pos in itertools.product(range(len(cbar)), repeat=arity[rel]):
            left = fill(d, coeffs[rel], seed, tuple(cbar[p] for p in pos))
            right = fill(d, coeffs[rel], seed, tuple(dbar[p] for p in pos))
            require(abs(left - right) <= eps, f"atom {rel}{pos} differs by more than eps")


def play_game(d, n: int, abar, bbar, steps: int):
    """The back-and-forth path when every atom check passes: odd stages
    adjoin the lowest point missing from the d side and pull it back,
    even stages push the lowest point missing from the c side forward;
    each image is the first existing exact mirror over the current pairs,
    else a new point at the mirrored distances completed by
    min(1, min over anchors a of r_a + d(a, x)).  Returns the final c
    and d tuples and the final number of points."""
    D = [[d(i, j) for j in range(n)] for i in range(n)]
    cbar, dbar = list(abar), list(bbar)
    pairs = list(dict.fromkeys(zip(cbar, dbar)))

    def mirror(links, z):   # links: (source, target) pairs of the map in use
        for p in range(len(D)):
            if all(D[p][t] == D[z][s] for s, t in links):
                return p
        known = {t: D[z][s] for s, t in links}
        row = [known[x] if x in known else
               min([ONE] + [r + D[a][x] for a, r in known.items()]) for x in range(len(D))]
        for x, v in enumerate(row):
            D[x].append(v)
        D.append(row + [ZERO])
        return len(D) - 1

    for stage in range(1, steps + 1):
        if stage % 2 == 0:
            z = min(p for p in range(len(D)) if p not in cbar)
            w = mirror(pairs, z)
            pairs.append((z, w))
            cbar.append(z)
            dbar.append(w)
        else:
            z = min(p for p in range(len(D)) if p not in dbar)
            w = mirror([(t, s) for s, t in pairs], z)
            pairs.append((w, z))
            cbar.append(w)
            dbar.append(z)
    return tuple(cbar), tuple(dbar), len(D)


def check_kappa(cone, n: int, fill_at, member: bool, diam: Fraction) -> None:
    """cone: list of (rel, tup, lo, hi) from kappa(x, n).  It has n + 1
    distinct slots, each a closed interval of width at most 2^-(n+1)
    around the independent fill value; x satisfies it; its diameter is at
    most 2^-n."""
    require(len(cone) == n + 1 and len({(r, t) for r, t, _, _ in cone}) == n + 1,
            "kappa cone does not constrain n + 1 distinct slots")
    for rel, tup, lo, hi in cone:
        v = fill_at(rel, tup)
        require(lo <= v <= hi, f"kappa interval on {rel}{tup} misses the fill value")
        require(hi - lo <= F(1, 2 ** (n + 1)), f"kappa interval on {rel}{tup} too wide")
    require(member, "sat(x, kappa(x, n)) is false")
    require(diam <= F(1, 2 ** n), f"kappa diameter {fmt(diam)} above 2^-{n}")
