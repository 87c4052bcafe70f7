"""The four benchmark workloads.

Each workload builds its inputs from the seed alone (set-up), runs one
round of operations through the public API with every operation timed by
the caller's timer, and checks a round's outputs against checks.py.  A
round is the same fixed list of operations every time, so a run is a whole
number of rounds.  The program is reached only through the `ury`
namespace handed in at set-up, and every call looks its function up on
the module at call time, so the traced run can wrap module attributes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import random
from fractions import Fraction
from pathlib import Path

import checks as C

F = Fraction
SIG_TEXT = "rel R 1 mod 1\nrel S 2 mod 1/2\n"
COEFFS = {"R": F(1), "S": F(1, 2)}
ARITY = {"R": 1, "S": 2}


class Workload:
    name = ""
    tail_pct = 75    # the percentile reported as op_tail_ms

    def __init__(self, ury, seed: int, workdir: Path):
        self.ury = ury
        self.workdir = workdir

    def round(self, timer):
        raise NotImplementedError

    def profile_round(self, timer):
        """The work profiled for rat.fraction.*; one round by default."""
        return self.round(timer)

    def check(self, out) -> None:
        raise NotImplementedError

    def fingerprint(self, out):
        """A comparable summary of a round, to hold later rounds to the
        first one."""
        return out


# --- shared input generators --------------------------------------------------

def random_values(rng, d, slots):
    """Values on (rel, tup) slots, each drawn from the sixteenths allowed
    by the relation's modulus against the values drawn before it."""
    vals = {}
    for rel, tup in slots:
        lo, hi = F(0), F(1)
        for (r, t), v in vals.items():
            if r == rel:
                cap = COEFFS[rel] * C.tuple_dist(d, tup, t)
                lo, hi = max(lo, v - cap), min(hi, v + cap)
        grid = [F(j, 16) for j in range(17) if lo <= F(j, 16) <= hi]
        vals[(rel, tup)] = rng.choice(grid) if grid else lo
    return vals


def random_tables(rng, d, n: int) -> dict:
    slots = [(rel, tup) for rel in ARITY
             for tup in itertools.product(range(n), repeat=ARITY[rel])]
    rng.shuffle(slots)
    vals = random_values(rng, d, slots)
    return {rel: {t: v for (r, t), v in vals.items() if r == rel} for rel in ARITY}


def build_structure(ury, tables: dict, n: int, d):
    space = ury.metric.FinMetric()
    for i in range(n):
        space.append_point([d(i, j) for j in range(i)])
    sig = ury.logic.Signature([ury.logic.RelSpec(r, ARITY[r], COEFFS[r]) for r in ARITY])
    return ury.logic.FinStructure(sig, space, {r: dict(t) for r, t in tables.items()})


# --- decide -------------------------------------------------------------------

FEAS_SIZES = (4, 8, 12, 16, 20, 24)
GRID_INSTANCES = 32
CONE_SLOTS = (4, 8, 12, 16)
ONE_PARAM_PAIRS = 20
TWO_PARAM_PAIRS = 4     # of each kind, nested and separated


def planted_metric(rng, n: int):
    """Shortest-path closure of random eighths: a metric in (0, 1]."""
    w = [[0 if i == j else rng.randint(1, 8) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            w[i][j] = w[j][i]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                w[i][j] = min(w[i][j], w[i][k] + w[k][j])
    return lambda a, b: F(w[a][b], 8)


def planted_instance(rng, n: int, strict: bool, infeasible: bool) -> C.Instance:
    d = planted_metric(rng, n)
    inst = C.Instance(n)
    for a, b in itertools.combinations(range(n), 2):
        v, roll = d(a, b), rng.random()
        s = strict and rng.random() < 0.6
        if roll < 0.25:
            continue
        if roll < 0.45:
            inst.exact[(a, b)] = v
            continue
        if roll < 0.8 or roll >= 0.9:
            j = rng.randint(1 if s else 0, 2)
            inst.lower[(a, b)] = (max(F(0), v - F(j, 16)), s)
        if roll >= 0.8:
            j = rng.randint(1 if s else 0, 2)
            up = v + F(j, 16)
            inst.upper[(a, b)] = (up, s) if up <= 1 else (F(1), False)
    if infeasible:
        # uppers along a chain sum to t, and the chain's ends must lie
        # further apart than t: no metric meets both
        chain = rng.sample(range(n), rng.randint(3, 4))
        t = F(0)
        for x, y in zip(chain, chain[1:]):
            p = C.key(x, y)
            u = F(rng.randint(1, 2), 8)
            inst.exact.pop(p, None)
            inst.lower.pop(p, None)
            inst.upper[p] = (u, False)
            t += u
        p = C.key(chain[0], chain[-1])
        inst.exact.pop(p, None)
        inst.upper.pop(p, None)
        inst.lower[p] = (t, True) if strict else (t + F(1, 8), False)
    return inst


def grid_instance(rng) -> C.Instance:
    inst = C.Instance(4)
    for p in itertools.combinations(range(4), 2):
        roll = rng.random()
        if roll < 0.3:
            continue
        if roll < 0.5:
            inst.exact[p] = F(rng.randint(1, 8), 8)
            continue
        if roll < 0.8:
            inst.lower[p] = (F(rng.randint(0, 8), 8), False)
        if roll >= 0.65:
            inst.upper[p] = (F(rng.randint(0, 8), 8), False)
    return inst


def containing_interval(rng, v):
    lo = max(F(0), v - F(rng.randint(1, 4), 16))
    hi = min(F(1), v + F(rng.randint(1, 4), 16))
    return (lo, hi, lo < v and rng.random() < 0.5, hi > v and rng.random() < 0.5)


def wider_interval(rng, iv):
    lo, hi, lo_open, hi_open = iv
    lo2 = max(F(0), lo - F(rng.randint(0, 2), 16))
    hi2 = min(F(1), hi + F(rng.randint(0, 2), 16))
    return (lo2, hi2, lo_open if lo2 == lo else rng.random() < 0.5,
            hi_open if hi2 == hi else rng.random() < 0.5)


def excluding_interval(rng, v):
    gap, width = F(rng.randint(0, 2), 16), F(rng.randint(2, 4), 16)
    if v <= F(1, 2):
        lo = v + gap
        return (lo, min(F(1), lo + width), gap == 0, False)
    hi = v - gap
    return (max(F(0), hi - width), hi, False, gap == 0)


def cone_pair(rng, d, n: int, slots: int, kind: str):
    """(left, right, separating values or None) over `slots` distinct slots.

    nested: the right cone widens the left one on a subset of its slots.
    sep_in / sep_out: as nested, plus one last right interval that
    excludes a modulus-respecting structure lying inside the left cone,
    on a slot the left cone constrains (in) or does not (out).
    """
    universe = [(rel, tup) for rel in ARITY
                for tup in itertools.product(range(n), repeat=ARITY[rel])]
    chosen = rng.sample(universe, slots)
    values = random_values(rng, d, chosen)
    left_slots = chosen if kind != "sep_out" else chosen[:-1]
    left = {s: containing_interval(rng, values[s]) for s in left_slots}
    if kind == "nested":
        widened = rng.sample(left_slots, max(1, slots // 2))
        return left, {s: wider_interval(rng, left[s]) for s in widened}, None
    x = chosen[-1]
    others = [s for s in left_slots if s != x]
    right = {s: wider_interval(rng, left[s])
             for s in rng.sample(others, max(1, slots // 2) - 1)}
    right[x] = excluding_interval(rng, values[x])
    return left, right, values


def equal_diagram_pairs(d, n: int):
    """Ordered pairs of 2-tuples over n points with equal distances."""
    tuples = list(itertools.product(range(n), repeat=2))
    return [(s, t) for s in tuples for t in tuples if d(*s) == d(*t)]


def nested_codes(rng, shapes):
    while True:
        (sbar, sprime), q = rng.choice(shapes), F(rng.randint(1, 2))
        ops = ("lt", "le") if rng.random() < 0.5 else ("gt", "ge")
        c1 = (q, sbar, sprime, F(rng.randint(0, 4), 4), rng.choice(ops))
        c2 = (q, sbar, sprime, F(rng.randint(0, 4), 4), rng.choice(ops))
        try:
            C.check_code_nesting(c1, c2)
            return c1, c2
        except C.CheckFailed:
            continue


def separated_codes(rng, shapes):
    """An isometry sending every source far from the prefix gives both
    codes the value 1: inside the left (gt/ge below 1) and outside the
    right (lt/le below 1), so inclusion must fail."""
    (s1, p1), (s2, p2) = rng.choice(shapes), rng.choice(shapes)
    c1 = (F(rng.randint(1, 2)), s1, p1, F(rng.randint(0, 3), 4), rng.choice(("gt", "ge")))
    c2 = (F(rng.randint(1, 2)), s2, p2, F(rng.randint(1, 3), 4), rng.choice(("lt", "le")))
    return c1, c2


class Decide(Workload):
    """Decision queries through urybench.cli.main on files written here."""

    name = "decide"
    tail_pct = 95

    def __init__(self, ury, seed, workdir):
        super().__init__(ury, seed, workdir)
        rng = random.Random(seed)
        workdir.mkdir(parents=True, exist_ok=True)
        sig = self._write("sig.txt", SIG_TEXT)
        p7, p3 = C.Schedule(10), C.Schedule(4)
        space7 = self._write("prefix7.txt", p7.to_text())
        space3 = self._write("prefix3.txt", p3.to_text())
        self.d7, self.d3 = p7.dist, p3.dist
        self.queries = []   # (argv, kind, data)
        for n in FEAS_SIZES:
            for strict in (False, True):
                for infeasible in (False, True):
                    inst = planted_instance(rng, n, strict, infeasible)
                    kind = "infeasible" if infeasible else "feasible"
                    self._feas(f"feas{len(self.queries)}.txt", inst, kind)
        for _ in range(GRID_INSTANCES):
            self._feas(f"feas{len(self.queries)}.txt", grid_instance(rng), "grid")
        for slots in CONE_SLOTS:
            for kind in ("nested", "nested", "sep_in", "sep_out"):
                left, right, values = cone_pair(rng, self.d7, p7.n, slots, kind)
                i = len(self.queries)
                lpath = self._write(f"cone{i}l.txt", C.cone_text(left))
                rpath = self._write(f"cone{i}r.txt", C.cone_text(right))
                argv = ["cone-subset", "--sig", sig, "--space", space7,
                        "--left", lpath, "--right", rpath]
                self.queries.append((argv, "cone", (left, right, values)))
        shapes = equal_diagram_pairs(self.d3, p3.n)
        codes = []
        for _ in range(ONE_PARAM_PAIRS):
            codes.append(("gcone1", tuple(
                (F(rng.randint(1, 2)), (rng.randrange(3),), (rng.randrange(3),),
                 F(rng.randint(0, 4), 4), rng.choice(C.STAR_OPS))
                for _ in range(2))))
        codes += [("nested", nested_codes(rng, shapes)) for _ in range(TWO_PARAM_PAIRS)]
        codes += [("separated", separated_codes(rng, shapes)) for _ in range(TWO_PARAM_PAIRS)]
        for kind, (c1, c2) in codes:
            i = len(self.queries)
            lpath = self._write(f"gcone{i}l.txt", C.code_text(c1))
            rpath = self._write(f"gcone{i}r.txt", C.code_text(c2))
            argv = ["cone-subset", "--sig", sig, "--space", space3,
                    "--left", lpath, "--right", rpath]
            self.queries.append((argv, kind, (c1, c2)))

    def _write(self, name: str, text: str) -> str:
        path = self.workdir / name
        path.write_text(text)
        return str(path)

    def _feas(self, name, inst, kind):
        self.queries.append((["feas", self._write(name, inst.to_text())], kind, inst))

    def _main(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.ury.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def round(self, timer):
        return [timer("query", self._main, argv) for argv, _, _ in self.queries]

    def check(self, out) -> None:
        for (argv, kind, data), res in zip(self.queries, out):
            C.require(isinstance(res, tuple), f"{argv[0]} failed: {res}")
            code, text, err = res
            C.require(not err, f"{argv[0]} wrote to stderr: {err.strip()}")
            try:
                self._check_one(kind, data, code, text)
            except C.CheckFailed as exc:
                raise C.CheckFailed(f"{argv[-1]}: {exc}") from None

    def _check_one(self, kind, data, code, text):
        if kind == "feasible":
            C.check_feasible_output(data, code, text)
        elif kind == "infeasible":
            C.check_infeasible_output(data, code, text)
        elif kind == "grid":
            if C.grid_feasible(data, 8):
                C.check_feasible_output(data, code, text)
            else:
                C.check_infeasible_output(data, code, text)
        elif kind == "cone":
            left, right, values = data
            if values is None:
                C.check_cone_nesting(left, right, code, text)
            else:
                C.check_cone_separation(self.d7, COEFFS, values, left, right, code, text)
        else:
            c1, c2 = data
            if kind == "nested":
                C.check_code_nesting(c1, c2)
                subset = True
            else:
                subset = kind == "gcone1" and C.one_param_counterexample(self.d3, c1, c2) is None
            if subset:
                C.require((code, text) == (0, "true\n"),
                          f"included codes answered {text!r} (exit {code})")
            else:
                C.check_counterexample(self.d3, 3, c1, c2, code, text)


# --- grow ---------------------------------------------------------------------

GROW_ITEMS = 4424       # through the end of stage 2: 1,773 points
# the seed orders 56 chunks of 63 items and 14 of 64 (4,424 in all): the
# boundaries move with the seed while every chunk does the same work
GROW_CHUNK_SIZES = (63,) * 56 + (64,) * 14
GROW_KEEP_ITEMS = 600   # the prefix kept for the second-chunking check
PROFILE_CHUNKS = 14     # cProfile multiplies this workload's time by about 4


class Grow(Workload):
    """Resume qu_extend chunk by chunk from empty to the end of stage 2,
    then write the prefix as text and read it back."""

    name = "grow"

    def __init__(self, ury, seed, workdir):
        super().__init__(ury, seed, workdir)
        rng = random.Random(seed)
        sizes = list(GROW_CHUNK_SIZES)
        rng.shuffle(sizes)
        self.chunks = sizes
        ends = list(itertools.accumulate(sizes))
        self.keep = min(range(len(sizes)), key=lambda i: abs(ends[i] - GROW_KEEP_ITEMS))
        self.keep_items = ends[self.keep]
        self.rng = rng
        workdir.mkdir(parents=True, exist_ok=True)
        self.path = workdir / "prefix.txt"

    def _text_round_trip(self, prefix):
        self.path.write_text(prefix.to_text())
        text = self.path.read_text()
        return text, self.ury.metric.QUPrefix.from_text(text)

    def _grow(self, timer, chunks):
        m = self.ury.metric
        prefix, kept = m.QUPrefix(), None
        for i, size in enumerate(chunks):
            prefix = timer("chunk", m.qu_extend, prefix, size)
            if i == self.keep:
                kept = prefix
        text, back = timer("text", self._text_round_trip, prefix)
        return {"prefix": prefix, "kept": kept, "text": text, "back": back}

    def round(self, timer):
        return self._grow(timer, self.chunks)

    def profile_round(self, timer):
        return self._grow(timer, self.chunks[:PROFILE_CHUNKS])

    def fingerprint(self, out):
        return hashlib.sha256(out["text"].encode()).hexdigest()

    def check(self, out) -> None:
        m = self.ury.metric
        text = out["text"]
        C.require(out["back"].to_text() == text, "read-back prefix re-serializes differently")
        out["back"] = None
        prefix = out["prefix"]
        C.require(prefix.snapshots[:3] == [0, 1, 7] and prefix.stage == 2,
                  "prefix is not at the end of stage 2 over 7 stage-start points")
        d, n = prefix.space.d, prefix.space.n
        audited = C.check_stage_complete(d, 7, n, *C.stage_params(2))
        C.require(audited == 4423, f"{audited} admissible types audited, expected 4423")
        C.check_triangles(d, n, self.rng, 20000)
        out["prefix"] = prefix = None
        C.check_prefix_text(text, GROW_ITEMS)
        other = m.QUPrefix()
        for start in range(0, self.keep_items, 97):
            other = m.qu_extend(other, min(97, self.keep_items - start))
        kept_text = out["kept"].to_text()
        C.require(other.to_text() == kept_text,
                  f"two chunkings of {self.keep_items} items give different text")
        C.check_prefix_text(kept_text, self.keep_items)


# --- audit --------------------------------------------------------------------

AUDIT_STEPS = (18, 17)      # 9- and 8-point prefixes
AUDIT_EPS = F(1, 2)
GAMES = 30
GAME_STEPS = 4
GAME_SEED_POINTS = 2
GAME_APPENDS = 3
GAME_PREFIX_STEPS = 40      # the 22-point prefix


class Audit(Workload):
    """approx_homog_test (n=2, eps 1/2, denominators up to 4) on small
    prefixes, then back-and-forth games with a structure overlay."""

    name = "audit"

    def __init__(self, ury, seed, workdir):
        super().__init__(ury, seed, workdir)
        rng = random.Random(seed)
        m = ury.metric
        self.prefixes = [m.qu_extend(m.QUPrefix(), s) for s in AUDIT_STEPS]
        self.p22 = m.qu_extend(m.QUPrefix(), GAME_PREFIX_STEPS)
        canon = C.Schedule(GAME_PREFIX_STEPS)
        self.canon = canon
        pts = range(canon.n)
        self.games = []
        while len(self.games) < GAMES:
            abar = tuple(rng.sample(pts, 2))
            bbar = rng.choice([t for t in itertools.permutations(pts, 2)
                               if canon.d(*t) == canon.d(*abar)])
            # a game's cost follows the points it appends; keep the games
            # that append GAME_APPENDS, by the benchmark's own replay
            path = C.play_game(canon.dist, canon.n, abar, bbar, GAME_STEPS)
            if path[2] != canon.n + GAME_APPENDS:
                continue
            # seed values within 1/256 of 1 keep every atom, and every fill
            # value, inside the smallest stage tolerance eps/2^7, so no
            # game can get stuck
            tables = {rel: {t: 1 - F(rng.randint(0, 4), 1024)
                            for t in itertools.product(range(GAME_SEED_POINTS),
                                                       repeat=ARITY[rel])}
                      for rel in ARITY}
            M = build_structure(ury, tables, GAME_SEED_POINTS, canon.dist)
            self.games.append((abar, bbar, tables, M, path))

    def round(self, timer):
        h = self.ury.homog
        reports = [timer("homog", h.approx_homog_test, p, 2, AUDIT_EPS, 4)
                   for p in self.prefixes]
        games = [timer("game", h.back_and_forth, self.p22, a, b, AUDIT_EPS, GAME_STEPS, M)
                 for a, b, _, M, _ in self.games]
        return reports, games

    def fingerprint(self, out):
        reports, games = out
        return ([r.lines for r in reports],
                [(s.cbar, s.dbar, tuple(s.alpha.pairs)) for s, _ in games])

    def check(self, out) -> None:
        reports, games = out
        for steps, p, rep in zip(AUDIT_STEPS, self.prefixes, reports):
            C.check_prefix_text(p.to_text(), steps)
            canon = C.Schedule(steps)
            C.check_homog_report(canon.dist, canon.n, 2, 4, rep.total, rep.successes,
                                 rep.failures, rep.max_drift)
        C.check_prefix_text(self.p22.to_text(), GAME_PREFIX_STEPS)
        for (abar, bbar, tables, _, path), (state, cert) in zip(self.games, games):
            space = state.prefix.space
            C.require((state.cbar, state.dbar, space.n) == path,
                      f"game {abar} -> {bbar} left the path of the benchmark's replay")
            for b in range(self.canon.n):
                for a in range(b):
                    C.require(space.d(a, b) == self.canon.dist(a, b),
                              "a game changed a distance of the starting prefix")
            C.check_game(space.d, state.alpha.pairs, abar, bbar, state.cbar, state.dbar,
                         cert.per_coord, tables, COEFFS, ARITY, AUDIT_EPS)


# --- evaluate -----------------------------------------------------------------

CARRIERS = (4, 6, 9, 12)
FORMULAS_PER_SKELETON = 4
ORACLE_SEEDS = (4, 8)
KAPPA_INDICES = (6, 12, 18, 24)
ORACLE_CONES = 4
ORACLE_REACH = 16
ORACLE_BASE_STEPS = 10

# Formula skeletons: Q quantifier, B binary connective, U unary, A atom.
# Fixed shapes keep the cost of a round the same for every seed; the seed
# picks connectives, quantifiers, atoms and terms.
SKELETONS = (
    ("Q", ("B", ("U", ("Q", ("B", "A", "A"))), ("B", "A", "A"))),
    ("B", ("Q", ("B", "A", ("U", "A"))), ("Q", ("U", ("B", "A", "A")))),
    ("Q", ("Q", ("B", ("Q", ("B", "A", "A")), ("U", "A")))),
    ("U", ("Q", ("B", ("Q", ("B", "A", "A")), ("U", "A")))),
    ("Q", ("U", ("Q", ("B", ("Q", "A"), ("B", "A", "A"))))),
)


def random_formula(rng, shape, n: int, scope=("x", "y"), depth=0):
    if shape == "A":
        def term():
            return rng.choice(scope) if rng.random() < 0.85 else rng.randrange(n)
        roll = rng.random()
        if roll < 0.4:
            return ("atom", "R", (term(),))
        if roll < 0.8:
            return ("atom", "S", (term(), term()))
        return ("d", term(), term())
    tag, *subs = shape
    if tag == "Q":
        var = f"u{depth}"
        return (rng.choice(("sup", "inf")), var,
                random_formula(rng, subs[0], n, scope + (var,), depth + 1))
    if tag == "U":
        op = rng.choice(("neg", "half", "tmul"))
        sub = random_formula(rng, subs[0], n, scope, depth)
        return ("tmul", F(rng.choice((1, 3, 2)), 2), sub) if op == "tmul" else (op, sub)
    op = rng.choice(("tsub", "tadd", "absdiff", "min", "max"))
    return (op, random_formula(rng, subs[0], n, scope, depth),
            random_formula(rng, subs[1], n, scope, depth))


class Evaluate(Workload):
    """eval_formula and eval_interval on quantified formulas over finite
    structures, then OraclePoint answering kappa and sat as it grows."""

    name = "evaluate"
    # p99 would sit among the few oracle operations that grow the prefix,
    # whose order changes with the seed; p95 sits in the dense block of
    # large-carrier evaluations
    tail_pct = 95

    def __init__(self, ury, seed, workdir):
        super().__init__(ury, seed, workdir)
        rng = random.Random(seed)
        logic, space, m = ury.logic, ury.space, ury.metric
        self.canon = C.Schedule(120)
        d = self.canon.dist
        self.cases = []
        for n in CARRIERS:
            tables = random_tables(rng, d, n)
            M = build_structure(ury, tables, n, d)
            for shape in SKELETONS * FORMULAS_PER_SKELETON:
                f = random_formula(rng, shape, n)
                asgs = [{"x": rng.randrange(n), "y": rng.randrange(n)} for _ in range(2)]
                r = F(rng.randint(1, 2), 8)
                self.cases.append((n, tables, M, f, logic.parse(C.formula_text(f), M.sig),
                                   asgs, r))
        self.base = m.qu_extend(m.QUPrefix(), ORACLE_BASE_STEPS)
        self.oracles = []
        for k in ORACLE_SEEDS:
            tables = random_tables(rng, d, k)
            seed_M = build_structure(ury, tables, k, d)
            cones = []
            for i in range(ORACLE_CONES):
                # the first slot touches point ORACLE_REACH - 1, so the
                # first cone grows every seed's oracle to the same size
                slots = [("S", (rng.randrange(ORACLE_REACH), ORACLE_REACH - 1))]
                slots += [(rel, tuple(rng.randrange(ORACLE_REACH) for _ in range(ARITY[rel])))
                          for rel in ("R", "S")]
                slots = list(dict.fromkeys(slots))
                vals = {s: C.fill(d, COEFFS[s[0]], tables[s[0]], s[1]) for s in slots}
                ivs = {s: containing_interval(rng, v) for s, v in vals.items()}
                inside = i % 2 == 0
                if not inside:
                    ivs[slots[-1]] = excluding_interval(rng, vals[slots[-1]])
                cone = space.StructureCone(seed_M.sig, [
                    space.ConeConstraint(rel, tup, *iv) for (rel, tup), iv in ivs.items()])
                cones.append((cone, inside))
            self.oracles.append((tables, seed_M, cones))

    def _kappa_first(self, seed_M, n):
        x = self.ury.grey.OraclePoint(seed_M, self.base)
        return x, self.ury.grey.kappa(x, n)

    def round(self, timer):
        logic, grey = self.ury.logic, self.ury.grey
        values = []
        for _, _, M, _, pf, asgs, r in self.cases:
            vs = [timer("eval", logic.eval_formula, M, pf, a) for a in asgs]
            iv0 = timer("interval", logic.eval_interval, M, pf, asgs[0], F(0))
            ivr = timer("interval", logic.eval_interval, M, pf, asgs[0], r)
            values.append((vs, iv0, ivr))
        oracles = []
        for _, seed_M, cones in self.oracles:
            x = None
            answers = []
            for n in KAPPA_INDICES:
                if x is None:
                    x, cone = timer("kappa", self._kappa_first, seed_M, n)
                else:
                    cone = timer("kappa", grey.kappa, x, n)
                answers.append((cone, timer("sat", grey.sat, x, cone)))
            own = [timer("sat", grey.sat, x, cone) for cone, _ in cones]
            oracles.append((x, answers, own))
        return values, oracles

    def fingerprint(self, out):
        values, oracles = out
        return (values, [([(c.to_text(), s) for c, s in ans], own, x.space.n)
                         for x, ans, own in oracles])

    def check(self, out) -> None:
        values, oracles = out
        d = self.canon.dist
        for (n, tables, M, f, pf, asgs, _), (vs, iv0, ivr) in zip(self.cases, values):
            k = self.ury.logic.modulus(pf, M.sig)
            C.check_formula(f, n, d, tables, COEFFS, asgs, vs, k, iv0, ivr)
        for (tables, _, cones), (x, answers, own) in zip(self.oracles, oracles):
            C.require(x.space.n <= self.canon.n, "oracle prefix outgrew the reference")
            for b in range(x.space.n):
                for a in range(b):
                    C.require(x.space.d(a, b) == d(a, b),
                              "oracle prefix is not the canonical prefix")

            def fill_at(rel, tup):
                return C.fill(d, COEFFS[rel], tables[rel], tup)

            for n, (cone, member) in zip(KAPPA_INDICES, answers):
                cons = [(c.rel, c.tup, c.lo, c.hi) for c in cone.constraints]
                C.require(not any(c.lo_open or c.hi_open for c in cone.constraints),
                          "kappa intervals must be closed")
                C.check_kappa(cons, n, fill_at, member, self.ury.space.cone_diam(cone))
            for (_, inside), got in zip(cones, own):
                C.require(got == inside, f"sat answered {got} on a cone built to give {inside}")
            for rel in ARITY:
                for tup in itertools.product(range(x.space.n), repeat=ARITY[rel]):
                    C.require(x.value(rel, tup) == fill_at(rel, tup),
                              f"oracle value {rel}{tup} differs from the fill")


WORKLOADS = {w.name: w for w in (Decide, Grow, Audit, Evaluate)}
