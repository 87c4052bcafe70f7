"""Independent brute-force oracles used to freeze expected test values.

Everything here is exhaustive search over a fixed denominator grid, written
against plain dicts and loops on purpose: no solver machinery from the
package is reused, so these can serve as a second route for checking it.
The Fraction references at the end reuse only the id and rational parsers,
stage_params, FinMetric's public accessors and the Feasible/Infeasible
result records; the formula references reuse the formula nodes, modulus
and FinStructure.value, with their own truncated connectives; the
back-and-forth and text reader references reuse the package pieces named at
the head of their sections.
"""

import itertools
import math
import os
import random
from fractions import Fraction

from urybench import cli
from urybench.errors import PreconditionError, UsageError
from urybench.grey import GreyCosetCode, ThresholdCone
from urybench.homog import (BackForthState, DriftCertificate, Stuck,
                            _atom_gap, stage_budget)
from urybench.logic import (AbsDiff, Atom, Const, D, FinStructure, Half, Inf,
                            Max, Min, Neg, RelSpec, Signature, Sup, TAdd, TMul,
                            TSub, Var, check_seed_prefix, modulus, parse)
from urybench.metric import (FinMetric, PartialIsometry, QUPrefix,
                             _extension_types, append_point_completion,
                             denom_values, extend_partial_isometry, parse_id,
                             qu_extend, stage_params)
from urybench.rat import (ONE, ZERO, check_rat01, format_rat, parse_rat,
                          parse_rat01)
from urybench.space import ConeConstraint, StructureCone


def grid_values(den):
    """All grid points k/den in (0, 1]."""
    return [Fraction(k, den) for k in range(1, den + 1)]


def _get(d, a, b):
    return d.get((a, b) if a < b else (b, a))


def _direct_ok(cs, a, b, v):
    """Does v satisfy the constraints given directly on the pair {a, b}?"""
    e = _get(cs.exact, a, b)
    if e is not None and v != e:
        return False
    lo = _get(cs.lower, a, b)
    if lo is not None:
        val, strict = lo
        if v < val or (strict and v == val):
            return False
    up = _get(cs.upper, a, b)
    if up is not None:
        val, strict = up
        if v > val or (strict and v == val):
            return False
    return True


def grid_feasible(cs, den):
    """Search the den-grid for a metric satisfying cs.

    Returns the lexicographically first witness as a dict keyed by sorted
    pairs, or None when no grid witness exists.  Exhaustive backtracking:
    pairs are assigned in lex order and every triangle whose three edges
    are assigned is checked immediately.
    """
    pts = sorted(cs.points)
    pairs = [(a, b) for i, a in enumerate(pts) for b in pts[i + 1:]]
    cand = {}
    for a, b in pairs:
        vals = [v for v in grid_values(den) if _direct_ok(cs, a, b, v)]
        if not vals:
            return None
        cand[(a, b)] = vals

    assign = {}

    def triangles_ok(a, b):
        for c in pts:
            if c == a or c == b:
                continue
            x = _get(assign, a, b)
            y = _get(assign, a, c)
            z = _get(assign, b, c)
            if y is None or z is None:
                continue
            if x > y + z or y > x + z or z > x + y:
                return False
        return True

    def rec(i):
        if i == len(pairs):
            return True
        a, b = pairs[i]
        for v in cand[(a, b)]:
            assign[(a, b)] = v
            if triangles_ok(a, b) and rec(i + 1):
                return True
            del assign[(a, b)]
        return False

    if rec(0):
        return dict(assign)
    return None


def is_valid_witness(cs, witness):
    """Direct check that witness is a metric satisfying cs (no grid)."""
    pts = sorted(cs.points)
    for i, a in enumerate(pts):
        for b in pts[i + 1:]:
            v = _get(witness, a, b)
            if v is None or not (0 < v <= 1):
                return False
            if not _direct_ok(cs, a, b, v):
                return False
    for a, b, c in itertools.combinations(pts, 3):
        x = _get(witness, a, b)
        y = _get(witness, a, c)
        z = _get(witness, b, c)
        if x > y + z or y > x + z or z > x + y:
            return False
    return True


# --- coset-code oracles -------------------------------------------------------
#
# Second route for deciding cone inclusion between codes over isometries
# of the ambient space.  Nothing below touches the package's branch
# decomposition or identification-pattern search; everything is computed
# from the definition min(1, q * max_i d(g(s'_i), s_i)) star thr.


def star_holds_oracle(value, star, thr):
    return {"lt": value < thr, "le": value <= thr,
            "gt": value > thr, "ge": value >= thr}[star]


def _clip01(x):
    return min(Fraction(1), max(Fraction(0), x))


def pair_b_bounds(e, c0, a):
    """For z1, z2 at mutual distance c0, over targets t1, t2 at distance
    e: given a = d(z1, t1), the exact realizable range of b = d(z2, t2).

    The four-point space z1 z2 t1 t2 has two free diagonals that never
    share a triangle, so realizability splits into two independent
    interval conditions; collecting them as bounds on b gives the range
    below.  Coincident cases (e = 0, c0 = 0, or both) are the same
    formula with the vanished distances set to zero.
    """
    lo = max(Fraction(0), c0 - a - e, e - a - c0,
             abs(a - e) - c0, abs(a - c0) - e)
    hi = min(Fraction(1), a + e + c0)
    return lo, hi


def _with_midpoints(vals):
    vs = sorted(set(vals))
    return sorted(set(vs) | {(x + y) / 2 for x, y in zip(vs, vs[1:])})


def single_pair_subset_oracle(space, c1, c2):
    """Exact inclusion decision for one-coordinate codes: is every
    isometry in c1's cone also in c2's?  Returns None for inclusion,
    otherwise a counterexample pair (a, b) of coordinate distances.

    The failure region in the (a, b) square is cut out by affine
    comparisons among a, b, the two code thresholds, and the two fixed
    distances, so its pieces have corners on the candidate lattice;
    midpoints of consecutive candidates catch pieces with open faces.
    """
    (t1,), (u1,) = c1.sbar, c1.sbar_prime
    (t2,), (u2,) = c2.sbar, c2.sbar_prime
    e = space.d(t1, t2)
    c0 = space.d(u1, u2)
    one = Fraction(1)

    def cond1(a):
        return star_holds_oracle(min(one, c1.q * a), c1.star, c1.thr)

    def cond2(b):
        return star_holds_oracle(min(one, c2.q * b), c2.star, c2.thr)

    th1 = _clip01(c1.thr / c1.q)
    th2 = _clip01(c2.thr / c2.q)
    base = {Fraction(0), one, th1, e, c0}
    for se in (-1, 0, 1):
        for sc in (-1, 0, 1):
            for st in (-1, 0, 1):
                base.add(_clip01(se * e + sc * c0 + st * th2))
    for a in _with_midpoints(base):
        if not cond1(a):
            continue
        lo, hi = pair_b_bounds(e, c0, a)
        for b in _with_midpoints({Fraction(0), one, th2, lo, hi}):
            if lo <= b <= hi and not cond2(b):
                return (a, b)
    return None


def single_nonempty_oracle(space, code):
    """Exact emptiness decision for a one-coordinate code: every value
    of d(g(u), t) in [0, 1] is realized by some isometry."""
    th = _clip01(code.thr / code.q)
    return any(
        star_holds_oracle(min(Fraction(1), code.q * a), code.star, code.thr)
        for a in _with_midpoints({Fraction(0), Fraction(1), th}))


def _wit_d(wit, a, b):
    if a == b:
        return Fraction(0)
    return wit.dists.get((a, b) if a < b else (b, a))


def check_gcone_witness(space, wit, checks):
    """Audit a configuration witness from first principles: the listed
    distances are a metric extension of the prefix, the source images
    form an isometric copy, and each code in checks = [(code, expected)]
    takes a value standing in the expected relation to its threshold."""
    labels = list(wit.labels)
    if labels != sorted(set(labels)):
        return False
    for a, b in itertools.combinations(labels, 2):
        v = _wit_d(wit, a, b)
        if v is None or not 0 < v <= 1:
            return False
        if a < space.n and b < space.n and v != space.d(a, b):
            return False
    for x, y, z in itertools.combinations(labels, 3):
        p, q, r = _wit_d(wit, x, y), _wit_d(wit, x, z), _wit_d(wit, y, z)
        if p > q + r or q > p + r or r > p + q:
            return False
    srcs = sorted({sp for code, _ in checks for sp in code.sbar_prime})
    for u in srcs:
        if wit.images.get(u) not in labels:
            return False
    for u, v in itertools.combinations(srcs, 2):
        if _wit_d(wit, wit.images[u], wit.images[v]) != space.d(u, v):
            return False
    for code, expected in checks:
        worst = Fraction(0)
        for s, sp in zip(code.sbar, code.sbar_prime):
            if s not in labels:
                return False
            worst = max(worst, _wit_d(wit, wit.images[sp], s))
        val = min(Fraction(1), code.q * worst)
        if star_holds_oracle(val, code.star, code.thr) != expected:
            return False
    return True


def grid_counterexample_probe(space, c1, c2, den):
    """Brute-force extension enumeration on the den-grid: search image
    placements, given as distance vectors to the mentioned prefix
    points, for an isometry inside c1's cone but outside c2's.

    Found counterexamples are genuine (the checked triangle conditions
    make the configuration a pseudometric extension, which embeds over
    the prefix); exhausting the grid proves nothing off it.
    """
    targets = sorted(set(c1.sbar) | set(c2.sbar))
    sources = sorted(set(c1.sbar_prime) | set(c2.sbar_prime))
    spos = {u: i for i, u in enumerate(sources)}
    tpos = {t: i for i, t in enumerate(targets)}
    vals = [Fraction(k, den) for k in range(den + 1)]
    src_pairs = list(itertools.combinations(range(len(sources)), 2))
    tgt_pairs = list(itertools.combinations(range(len(targets)), 2))

    def metric_ok(dist):
        for i, j in src_pairs:
            dz = space.d(sources[i], sources[j])
            for a in range(len(targets)):
                if abs(dist[i][a] - dist[j][a]) > dz \
                        or dz > dist[i][a] + dist[j][a]:
                    return False
        for i in range(len(sources)):
            for a, b in tgt_pairs:
                e = space.d(targets[a], targets[b])
                if abs(dist[i][a] - dist[i][b]) > e \
                        or e > dist[i][a] + dist[i][b]:
                    return False
        return True

    def value(code, dist):
        worst = Fraction(0)
        for s, sp in zip(code.sbar, code.sbar_prime):
            worst = max(worst, dist[spos[sp]][tpos[s]])
        return min(Fraction(1), code.q * worst)

    nt = len(targets)
    for flat in itertools.product(vals, repeat=len(sources) * nt):
        dist = [flat[i * nt:(i + 1) * nt] for i in range(len(sources))]
        if not metric_ok(dist):
            continue
        if star_holds_oracle(value(c1, dist), c1.star, c1.thr) and \
                not star_holds_oracle(value(c2, dist), c2.star, c2.thr):
            return dist
    return None


def random_constraint_set(rng: random.Random, n: int, den: int,
                          strict_allowed: bool = True):
    """A random constraint system on points 0..n-1, mixing feasible and not.

    Import is deferred so the oracle half of this module stays standalone.
    """
    from urybench.metric import PartialConstraintSet

    cs = PartialConstraintSet(points=list(range(n)))
    vals = grid_values(den)
    for i in range(n):
        for j in range(i + 1, n):
            kind = rng.random()
            if kind < 0.30:
                continue
            if kind < 0.50:
                cs.add_exact(i, j, rng.choice(vals))
                continue
            if kind < 0.75:
                lo = rng.choice(vals)
                cs.add_lower(i, j, lo, strict_allowed and rng.random() < 0.4)
                if rng.random() < 0.5:
                    up = rng.choice(vals)
                    if up >= lo:
                        cs.add_upper(i, j, up,
                                     strict_allowed and rng.random() < 0.4)
            else:
                cs.add_upper(i, j, rng.choice(vals),
                             strict_allowed and rng.random() < 0.4)
    return cs


def mcshane_fill_reference(sig, seeds, space):
    """Eager tightest modulus-compatible fill of sparse seed tables.

    seeds maps a relation name to {tuple: value}.  Every tuple over the
    space gets its seed value when it has one, otherwise
    min(1, min over seed tuples s of R(s) + coeff * max_i d(x_i, s_i)),
    or 0 when the relation has no seed values at all.  Returns plain
    {name: {tuple: value}} tables.
    """
    tables = {}
    for spec in sig.relations:
        src = seeds.get(spec.name, {})
        out = {}
        for tup in itertools.product(range(space.n), repeat=spec.arity):
            if tup in src:
                out[tup] = src[tup]
                continue
            best = Fraction(1) if src else Fraction(0)
            for s, v in src.items():
                cand = v + spec.coeff * max(
                    space.d(a, b) for a, b in zip(tup, s))
                if cand < best:
                    best = cand
            out[tup] = best
        tables[spec.name] = out
    return tables


# --- Fraction reference for the compiled formula evaluator --------------------
#
# The tree walkers eval_formula and eval_interval were before formulas were
# compiled to closures over integer numerators: one isinstance dispatch per
# node, one Fraction per value, a fresh assignment dict per quantifier point.


def tsub(x, y):
    """Truncated difference max(x - y, 0)."""
    z = x - y
    return z if z > 0 else ZERO


def tadd(x, y):
    """Truncated sum min(x + y, 1)."""
    z = x + y
    return z if z < 1 else ONE


def _resolve(t, asg, n):
    if isinstance(t, Var):
        if t.name not in asg:
            raise UsageError(f"unassigned variable {t.name!r}")
        return asg[t.name]
    if not 0 <= t.id < n:
        raise PreconditionError(f"point {t.id} outside carrier")
    return t.id


def eval_formula_reference(M, f, asg=None):
    """Exact evaluation; sup and inf range over the finite carrier."""
    asg = dict(asg) if asg else {}
    n = M.space.n

    def ev(f, asg):
        if isinstance(f, Const):
            return f.value
        if isinstance(f, Atom):
            return M.value(f.rel, tuple(_resolve(t, asg, n) for t in f.args))
        if isinstance(f, D):
            return M.space.d(_resolve(f.left, asg, n),
                             _resolve(f.right, asg, n))
        if isinstance(f, Neg):
            return ONE - ev(f.sub, asg)
        if isinstance(f, Half):
            return ev(f.sub, asg) / 2
        if isinstance(f, TMul):
            return min(ONE, f.scale * ev(f.sub, asg))
        if isinstance(f, TSub):
            return tsub(ev(f.left, asg), ev(f.right, asg))
        if isinstance(f, TAdd):
            return tadd(ev(f.left, asg), ev(f.right, asg))
        if isinstance(f, AbsDiff):
            return abs(ev(f.left, asg) - ev(f.right, asg))
        if isinstance(f, Min):
            return min(ev(s, asg) for s in f.subs)
        if isinstance(f, Max):
            return max(ev(s, asg) for s in f.subs)
        if isinstance(f, (Sup, Inf)):
            if n == 0:
                raise PreconditionError("quantifier over empty carrier")
            vals = (ev(f.body, {**asg, f.var: p}) for p in M.space.points)
            return max(vals) if isinstance(f, Sup) else min(vals)
        raise TypeError(f"not a formula: {f!r}")

    return ev(f, asg)


def eval_interval_reference(M, f, asg=None, r=ZERO):
    """Certified bounds on the value of f over any r-dense superspace."""
    asg = dict(asg) if asg else {}
    check_rat01(r)
    n = M.space.n

    def iv(f, asg):
        if isinstance(f, Const):
            return f.value, f.value
        if isinstance(f, (Atom, D)):
            v = eval_formula_reference(M, f, asg)
            return v, v
        if isinstance(f, Neg):
            lo, hi = iv(f.sub, asg)
            return ONE - hi, ONE - lo
        if isinstance(f, Half):
            lo, hi = iv(f.sub, asg)
            return lo / 2, hi / 2
        if isinstance(f, TMul):
            lo, hi = iv(f.sub, asg)
            return min(ONE, f.scale * lo), min(ONE, f.scale * hi)
        if isinstance(f, TSub):
            l1, h1 = iv(f.left, asg)
            l2, h2 = iv(f.right, asg)
            return tsub(l1, h2), tsub(h1, l2)
        if isinstance(f, TAdd):
            l1, h1 = iv(f.left, asg)
            l2, h2 = iv(f.right, asg)
            return tadd(l1, l2), tadd(h1, h2)
        if isinstance(f, AbsDiff):
            l1, h1 = iv(f.left, asg)
            l2, h2 = iv(f.right, asg)
            lo = max(ZERO, l1 - h2, l2 - h1)
            hi = max(h1 - l2, h2 - l1, ZERO)
            return lo, hi
        if isinstance(f, Min):
            parts = [iv(s, asg) for s in f.subs]
            return min(p[0] for p in parts), min(p[1] for p in parts)
        if isinstance(f, Max):
            parts = [iv(s, asg) for s in f.subs]
            return max(p[0] for p in parts), max(p[1] for p in parts)
        if isinstance(f, (Sup, Inf)):
            if n == 0:
                raise PreconditionError("quantifier over empty carrier")
            k = modulus(f.body, M.sig)
            parts = [iv(f.body, {**asg, f.var: p}) for p in M.space.points]
            if isinstance(f, Sup):
                lo = max(p[0] for p in parts)
                hi = min(ONE, max(p[1] for p in parts) + k * r)
            else:
                hi = min(p[1] for p in parts)
                lo = max(ZERO, min(p[0] for p in parts) - k * r)
            return lo, hi
        raise TypeError(f"not a formula: {f!r}")

    return iv(f, asg)


# --- Fraction reference for the integer-lattice metric code -------------------
#
# The schedule, amalgam, mirror search and point/dist reader as they were
# written on one Fraction per distance, before FinMetric stored integer
# numerators.  Spaces are touched only through d(), n, points and
# append_point, so these stay a second route for the lattice code.

def _extension_types_reference(space, anchors, values):
    k = len(anchors)
    if k == 0:
        yield ()
        return
    dmat = [[space.d(a, b) for b in anchors] for a in anchors]
    picked = []

    def rec(i):
        if i == k:
            yield tuple(picked)
            return
        for v in values:
            ok = True
            for j in range(i):
                dij = dmat[i][j]
                if abs(v - picked[j]) > dij or v + picked[j] < dij:
                    ok = False
                    break
            if ok:
                picked.append(v)
                yield from rec(i + 1)
                picked.pop()

    yield from rec(0)


def stage_items_reference(space, snapshot, k, bound):
    """Schedule items of one stage with Fraction types."""
    values = sorted({Fraction(p, q) for q in range(1, bound + 1)
                     for p in range(1, q + 1)})
    for size in range(0, k + 1):
        for anchors in itertools.combinations(range(snapshot), size):
            for typ in _extension_types_reference(space, anchors, values):
                yield anchors, typ


def realized_reference(space, anchors, typ):
    """Does some point of the space sit at distances typ from anchors?"""
    if not anchors:
        return space.n > 0
    for p in space.points:
        for a, v in zip(anchors, typ):
            if space.d(p, a) != v:
                break
        else:
            return True
    return False


def append_extension_reference(space, anchors, typ):
    """Append a point at the given anchor distances; the rest take
    min(1, min_a(r_a + d(a, z)))."""
    assigned = dict(zip(anchors, typ))
    dists = []
    for z in space.points:
        if z in assigned:
            dists.append(assigned[z])
        elif not anchors:
            dists.append(Fraction(1))
        else:
            v = min(r + space.d(a, z) for a, r in assigned.items())
            dists.append(v if v < 1 else Fraction(1))
    return space.append_point(dists)


def qu_extend_reference(prefix, steps):
    """Advance a copy of the prefix by steps schedule items, rescanning the
    space for every item and re-enumerating each stage from its start."""
    out = prefix.copy()
    space = out.space
    remaining = steps
    while remaining > 0:
        k, bound = stage_params(out.stage)
        items = itertools.islice(
            stage_items_reference(space, out.snapshots[out.stage], k, bound),
            out.pos, None)
        while remaining > 0:
            nxt = next(items, None)
            if nxt is None:
                out.stage += 1
                out.pos = 0
                out.snapshots.append(space.n)
                break
            anchors, typ = nxt
            if not realized_reference(space, anchors, typ):
                append_extension_reference(space, anchors, typ)
            out.pos += 1
            remaining -= 1
    return out


def admissible_reference(space, known):
    """Triangle test of pinned distances {anchor: value} against the space."""
    for (a, ra), (b, rb) in itertools.combinations(known.items(), 2):
        dab = space.d(a, b)
        if abs(ra - rb) > dab or ra + rb < dab:
            return False
    return True


def extend_isometry_reference(space, pairs, new_sources):
    """Extend the isometry (list of (source, target)) over new_sources in
    place on space: the smallest exact mirror, else an appended point."""
    pairs = list(pairs)
    for c in new_sources:
        if any(s == c for s, _ in pairs):
            continue
        anchors = tuple(t for _, t in pairs)
        values = tuple(space.d(c, s) for s, _ in pairs)
        target = None
        for p in space.points:
            if all(space.d(p, a) == v for a, v in zip(anchors, values)):
                target = p
                break
        if target is None:
            target = append_extension_reference(space, anchors, values)
        pairs.append((c, target))
    return pairs


def read_metric_reference(text, allow_extra):
    """The pair-dict point/dist reader: returns (metric, extra lines) or
    raises the UsageError the readers must give."""
    ids = []
    dists = {}
    extra = []
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "point":
            if len(parts) != 2:
                raise UsageError(f"line {ln}: point takes one id")
            ids.append(parse_id(parts[1], where=f"line {ln}: "))
        elif parts[0] == "dist":
            if len(parts) != 4:
                raise UsageError(f"line {ln}: dist takes two ids and a value")
            a = parse_id(parts[1], where=f"line {ln}: ")
            b = parse_id(parts[2], where=f"line {ln}: ")
            if a == b:
                raise UsageError(f"line {ln}: dist needs distinct points")
            try:
                v = parse_rat01(parts[3])
            except UsageError as exc:
                raise UsageError(f"line {ln}: {exc}") from None
            if not v:
                raise UsageError(f"line {ln}: distance 0 outside (0, 1]")
            key = (a, b) if a <= b else (b, a)
            if key in dists and dists[key] != v:
                raise UsageError(f"line {ln}: conflicting dist for {key}")
            dists[key] = v
        elif allow_extra:
            extra.append((ln, parts))
        else:
            raise UsageError(f"line {ln}: unknown directive {parts[0]!r}")
    if sorted(ids) != list(range(len(ids))):
        raise UsageError("point ids must be exactly 0..n-1")
    m = FinMetric()
    for i in range(len(ids)):
        row = []
        for j in range(i):
            if (j, i) not in dists:
                raise UsageError(f"missing dist for pair {(j, i)}")
            row.append(dists[j, i])
        m.append_point(row)
    for key in dists:
        if key[1] >= len(ids):
            raise UsageError(f"dist references unknown point {key[1]}")
    return m, extra


def metric_text_reference(space):
    """The point/dist writer as one f-string line per point and per pair,
    joined with newlines; an empty space is one newline."""
    lines = [f"point {i}" for i in space.points]
    for b in space.points:
        lines += [f"dist {a} {b} {format_rat(space.d(a, b))}" for a in range(b)]
    return "\n".join(lines) + "\n"


def prefix_text_reference(prefix):
    """The prefix writer over metric_text_reference: the space text with
    its last newline stripped, then the snapshot and cursor lines."""
    lines = [metric_text_reference(prefix.space).rstrip("\n")] if prefix.space.n else []
    for t, size in enumerate(prefix.snapshots):
        lines.append(f"snapshot {t} {size}")
    lines.append(f"cursor {prefix.stage} {prefix.pos}")
    return "\n".join(line for line in lines if line) + "\n"


# --- the schedule walk before it resumed --------------------------------------
#
# metric._walk as it was before QUPrefix kept a resume point and before the
# amalgam went through a per-signature table: every call enumerates the
# stage from its first item and skips to the cursor, and each new row is a
# per-point min.  It reuses the lattice accessors of FinMetric and
# metric._extension_types.


def walk_reference(out):
    """Advance out's schedule cursor in place, item by item; yields True
    after each item and False after each roll to the next stage."""
    space = out.space
    while True:
        k, bound = stage_params(out.stage)
        values = space._lattice(denom_values(bound))
        top = space._den
        current, cols, index = None, [], {}
        items = ((anchors, typ) for size in range(k + 1)
                 for anchors in itertools.combinations(
                     range(out.snapshots[out.stage]), size)
                 for typ in _extension_types(space, anchors, values))
        for anchors, typ in itertools.islice(items, out.pos, None):
            if anchors != current:
                current = anchors
                cols = [space._column(a) for a in anchors]
                index = {} if anchors or not space.n else {(): 0}
                for p, col in enumerate(zip(*cols)):
                    index.setdefault(col, p)
            if typ not in index:
                row = [top] * space.n if not anchors else list(map(
                    min, itertools.repeat(top, space.n),
                    *[map(r.__add__, col) for r, col in zip(typ, cols)]))
                index[typ] = space._append_row(row)
                for col, r in zip(cols, typ):
                    col.append(r)
            out.pos += 1
            yield True
        out.stage += 1
        out.pos = 0
        out.snapshots.append(space.n)
        yield False


def advance_reference(prefix, steps):
    """Advance prefix in place by steps schedule items of walk_reference."""
    walk = walk_reference(prefix)
    while steps:
        if next(walk):
            steps -= 1


# --- Fraction reference for the integer difference-bound closure --------------
#
# feasible and the cone decisions as they were written on (Fraction, bool)
# bounds, before one integer min-plus kernel served them: a decision pass,
# a delta-tightened witness pass, and one full closure per way of breaking
# a constraint of the right-hand cone.

def _pair_reference(a, b):
    return (a, b) if a <= b else (b, a)


def _upper_stronger_reference(new, old):
    return new[0] < old[0] or (new[0] == old[0] and new[1] and not old[1])


def _lower_stronger_reference(new, old):
    return new[0] > old[0] or (new[0] == old[0] and new[1] and not old[1])


def feasible_reference(c):
    """Feasible(witness) or Infeasible(certificate) for a
    PartialConstraintSet, closed over (Fraction, strict) pairs."""
    from urybench.metric import Feasible, Infeasible

    pts = list(c.points)
    n = len(pts)
    idx = {p: i for i, p in enumerate(pts)}

    upper = [[(Fraction(1), False)] * n for _ in range(n)]
    kind = [["cap"] * n for _ in range(n)]
    for i in range(n):
        upper[i][i] = (Fraction(0), False)

    def tighten(a, b, bound, k):
        i, j = idx[a], idx[b]
        if _upper_stronger_reference(bound, upper[i][j]):
            upper[i][j] = upper[j][i] = bound
            kind[i][j] = kind[j][i] = k

    for (a, b), v in c.exact.items():
        tighten(a, b, (v, False), "exact")
    for (a, b), (v, s) in c.upper.items():
        tighten(a, b, (v, s), "upper")

    base = [row.copy() for row in upper]
    via = [[None] * n for _ in range(n)]
    closed = upper
    for k in range(n):
        rk = closed[k]
        for i in range(n):
            uik = closed[i][k]
            row = closed[i]
            for j in range(n):
                cand = (uik[0] + rk[j][0], uik[1] or rk[j][1])
                if _upper_stronger_reference(cand, row[j]):
                    row[j] = cand
                    via[i][j] = k

    def chain_of(i, j):
        k = via[i][j]
        if k is None:
            return [i, j]
        return chain_of(i, k)[:-1] + chain_of(k, j)

    def requirement(i, j):
        key = _pair_reference(pts[i], pts[j])
        best = (Fraction(0), True, "positivity")
        if key in c.lower:
            v, s = c.lower[key]
            if _lower_stronger_reference((v, s), best[:2]):
                best = (v, s, "lower")
        if key in c.exact:
            v = c.exact[key]
            if _lower_stronger_reference((v, False), best[:2]):
                best = (v, False, "exact")
        return best

    for i, j in itertools.combinations(range(n), 2):
        lo, lo_strict, lo_kind = requirement(i, j)
        up, up_strict = closed[i][j]
        if lo < up or (lo == up and not lo_strict and not up_strict):
            continue
        chain = chain_of(i, j)
        bounds = []
        for x, y in zip(chain, chain[1:]):
            v, s = base[x][y]
            bounds.append((v, s, kind[x][y]))
        return Infeasible(
            pair=(pts[i], pts[j]), bound=lo, bound_strict=lo_strict,
            kind=lo_kind, chain=[pts[x] for x in chain], chain_bounds=bounds)

    denoms = [1]
    denoms += [v.denominator for v in c.exact.values()]
    denoms += [v.denominator for v, _ in c.lower.values()]
    denoms += [v.denominator for v, _ in c.upper.values()]
    lat = 1
    for d in denoms:
        lat = lat * d // math.gcd(lat, d)
    delta = Fraction(1, 4 * max(n - 1, 1) * lat)

    tight = [[(Fraction(1), False)] * n for _ in range(n)]
    for i in range(n):
        tight[i][i] = (Fraction(0), False)

    def tighten2(a, b, v):
        i, j = idx[a], idx[b]
        if v < tight[i][j][0]:
            tight[i][j] = tight[j][i] = (v, False)

    for (a, b), v in c.exact.items():
        tighten2(a, b, v)
    for (a, b), (v, s) in c.upper.items():
        tighten2(a, b, v - delta if s else v)

    for k in range(n):
        for i in range(n):
            uik = tight[i][k][0]
            for j in range(n):
                cand = uik + tight[k][j][0]
                if cand < tight[i][j][0]:
                    tight[i][j] = tight[j][i] = (cand, False)

    witness = {}
    for i, j in itertools.combinations(range(n), 2):
        w = tight[i][j][0]
        lo, lo_strict, _ = requirement(i, j)
        if w < (lo + delta if lo_strict else lo):
            raise RuntimeError("tightened witness lost a lower bound")
        witness[_pair_reference(pts[i], pts[j])] = w
    return Feasible(witness)


def _dbm_feasible_reference(nvars, edges):
    """Edges (i, j, bound, strict) mean x_i - x_j <= bound (< if strict);
    feasible iff the closure has no negative or zero-strict cycle."""
    w = [[(Fraction(10), False)] * nvars for _ in range(nvars)]
    for i in range(nvars):
        w[i][i] = (Fraction(0), False)
    for i, j, bound, strict in edges:
        if _upper_stronger_reference((bound, strict), w[i][j]):
            w[i][j] = (bound, strict)
    for k in range(nvars):
        for i in range(nvars):
            wik = w[i][k]
            for j in range(nvars):
                cand = (wik[0] + w[k][j][0], wik[1] or w[k][j][1])
                if _upper_stronger_reference(cand, w[i][j]):
                    w[i][j] = cand
    return all(v > 0 or (v == 0 and not s) for v, s in
               (w[i][i] for i in range(nvars)))


def _cone_system_reference(sig, space, cones, interval_cone):
    """Slots of the cones, unit-interval edges, modulus couplings between
    same-relation slots and the interval edges of interval_cone."""
    slot = {}
    for cone in cones:
        for c in cone.constraints:
            slot.setdefault((c.rel, c.tup), len(slot) + 1)
    edges = []
    for vid in slot.values():
        edges.append((vid, 0, Fraction(1), False))
        edges.append((0, vid, Fraction(0), False))
    for (r1, t1), v1 in slot.items():
        for (r2, t2), v2 in slot.items():
            if v1 < v2 and r1 == r2:
                cap = sig.get(r1).coeff * space.tuple_dist(t1, t2)
                edges.append((v1, v2, cap, False))
                edges.append((v2, v1, cap, False))
    for c in interval_cone.constraints:
        vid = slot[(c.rel, c.tup)]
        edges.append((0, vid, -c.lo, c.lo_open))
        edges.append((vid, 0, c.hi, c.hi_open))
    return len(slot) + 1, slot, edges


def cone_nonempty_reference(cone, space):
    nvars, _, edges = _cone_system_reference(cone.sig, space, [cone], cone)
    return _dbm_feasible_reference(nvars, edges)


def cone_subset_reference(c1, c2, space):
    """True iff no way of breaking one c2 constraint is consistent with c1,
    each way closed from scratch."""
    nvars, slot, edges = _cone_system_reference(c1.sig, space, [c1, c2], c1)
    for c in c2.constraints:
        vid = slot[(c.rel, c.tup)]
        for extra in ((vid, 0, c.lo, not c.lo_open),
                      (0, vid, -c.hi, not c.hi_open)):
            if _dbm_feasible_reference(nvars, edges + [extra]):
                return False
    return True


# --- reference for the back-and-forth engine ----------------------------------
#
# The game as it was written before the engine held its map as two index
# dicts on one working space: a PartialIsometry rebuilt per stage (and
# inverted on odd stages), a prefix copy per extension, a full validate
# after each one, and the schedule grown through the pure qu_extend.  The
# atom filter (homog._atom_gap), the stage budget and the public metric
# extension are shared with the package.

def _lowest_unused(work, used):
    # fairness target: smallest id missing from the side, growing the
    # schedule when the side already exhausts the prefix
    used_set = set(used)
    while True:
        for p in work.space.points:
            if p not in used_set:
                return work, p
        work = qu_extend(work, 4)


def _mirror_extend(work, g, z, M, tol, stage):
    """Extend g over z by an exact metric mirror.

    Without a structure overlay this is plain isometry extension.  With one,
    a candidate image must also agree with z on every relation atom touching
    the new coordinate, within tol; candidates are the existing exact
    mirrors in point order, then one freshly completed point.
    """
    if M is None:
        work2, g2 = extend_partial_isometry(work, g, [z])
        return work2, g2, g2.apply(z)
    anchors = tuple(g.targets)
    values = tuple(work.space.d(z, s) for s in g.sources)
    left = list(g.sources) + [z]
    new_at = len(left) - 1
    for p in [p for p in work.space.points
              if all(work.space.d(p, t) == v for t, v in zip(anchors, values))]:
        if _atom_gap(M, work.space, left, list(g.targets) + [p], tol,
                     new_at) is None:
            g2 = g.extend(z, p)
            g2.validate(work.space)
            return work, g2, p
    work2 = work.copy()
    w = append_point_completion(work2.space, dict(zip(anchors, values)))
    if _atom_gap(M, work2.space, left, list(g.targets) + [w], tol,
                 new_at) is None:
        g2 = g.extend(z, w)
        g2.validate(work2.space)
        return work2, g2, w
    raise Stuck(stage, f"no admissible image for point {z} within "
                       f"tolerance {format_rat(tol)}")


def back_and_forth_reference(prefix, abar, bbar, eps, steps, M=None):
    """Alternately extend a partial isometry matching abar to bbar; returns
    (BackForthState, DriftCertificate) like homog.back_and_forth."""
    abar = tuple(abar)
    bbar = tuple(bbar)
    if len(abar) != len(bbar):
        raise PreconditionError("tuples must have equal length")
    budget = stage_budget(eps, steps)
    space = prefix.space
    for p in abar + bbar:
        if p not in space.points:
            raise UsageError(f"unknown point {p}")
    m = len(abar)
    for i in range(m):
        for j in range(i):
            if space.d(abar[i], abar[j]) != space.d(bbar[i], bbar[j]):
                raise PreconditionError(
                    f"metric diagrams differ on coordinates {j},{i}")
    if M is not None:
        check_seed_prefix(M, space)
        bad = _atom_gap(M, space, abar, bbar, eps)
        if bad is not None:
            name, pos, gap = bad
            args = ",".join(str(i) for i in pos)
            raise PreconditionError(
                f"tuples disagree on atom {name}({args}) by "
                f"{format_rat(gap)} > {format_rat(eps)}")

    work = prefix.copy()
    cbar = list(abar)
    dbar = list(bbar)
    alpha = PartialIsometry(list(dict.fromkeys(zip(cbar, dbar))))
    alpha.validate(work.space)
    lines = []
    for l in range(1, steps + 1):
        tol = budget[l - 1]
        if l % 2 == 0:
            work, z = _lowest_unused(work, cbar)
            work, alpha, w = _mirror_extend(work, alpha, z, M, tol, l)
            cbar.append(z)
            dbar.append(w)
            side = "c"
        else:
            work, z = _lowest_unused(work, dbar)
            work, inv, w = _mirror_extend(work, alpha.inverse(), z, M, tol, l)
            alpha = inv.inverse()
            cbar.append(w)
            dbar.append(z)
            side = "d"
        lines.append(f"stage {l} side {side} drift {format_rat(ZERO)} "
                     f"tol {format_rat(tol)}")
    state = BackForthState(steps, tuple(cbar), tuple(dbar), alpha, budget,
                           work)
    per = tuple(work.space.d(c, a) for c, a in zip(cbar, abar))
    cert = DriftCertificate(per, sum(budget, ZERO), tuple(lines))
    return state, cert


def approx_homog_reference(prefix, n, eps, denom_bound):
    """The homogeneity audit as a loop over back_and_forth_reference, one
    prefix copy per game; returns HomogReport-style lines."""
    bound = sum(stage_budget(eps, 4), ZERO)
    groups = {}
    for tup in itertools.product(prefix.space.points, repeat=n):
        diagram = tuple(prefix.space.d(tup[i], tup[j])
                        for i in range(n) for j in range(i))
        if any(v.denominator > denom_bound for v in diagram):
            continue
        groups.setdefault(diagram, []).append(tup)
    total = successes = 0
    failures = []
    worst = ZERO
    for members in groups.values():
        for abar in members:
            for bbar in members:
                total += 1
                try:
                    _, cert = back_and_forth_reference(prefix, abar, bbar,
                                                       eps, 4)
                except Stuck as s:
                    failures.append((abar, bbar,
                                     f"stage {s.stage}: {s.obstruction}"))
                    continue
                drift = max(cert.per_coord) if cert.per_coord else ZERO
                worst = max(worst, drift)
                if cert.verified():
                    successes += 1
                else:
                    failures.append((abar, bbar, "drift above the budget"))
    lines = [f"pairs {total} successes {successes} failures {len(failures)} "
             f"max-drift {format_rat(worst)} bound {format_rat(bound)}"]
    for abar, bbar, why in failures:
        lines.append(f"fail {abar} -> {bbar}: {why}")
    return tuple(lines)


# --- references for the text readers ------------------------------------------
#
# The readers as they were before every one of them took its lines from
# metric._lines: each split the text and stripped '#' comments by itself,
# FinStructure.from_text joined its point/dist lines and read them a second
# time, and read_space split the whole text again to look for a `cursor`
# line.  They reuse the id, rational and formula parsers, the metric and
# prefix readers and the classes they build.

def read_sig_reference(path):
    rels = []
    for ln, raw in enumerate(cli._read(path).splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] != "rel" or len(parts) != 5 or parts[3] != "mod":
            raise UsageError(f"{path}:{ln}: expected "
                             f"'rel <name> <arity> mod <coeff>'")
        rels.append(RelSpec(parts[1], parse_id(parts[2], "arity",
                                               f"{path}:{ln}: "),
                            parse_rat(parts[4])))
    return Signature(rels)


def is_prefix_text_reference(text):
    return any(line.strip().startswith("cursor")
               for line in text.splitlines())


def read_space_reference(path):
    text = cli._read(path)
    if is_prefix_text_reference(text):
        return QUPrefix.from_text(text).space
    return FinMetric.from_text(text)


def cone_kind_reference(text, path):
    kinds = set()
    lines = 0
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        lines += 1
        head = line.split()[0]
        if head == "gcone":
            kinds.add("gcone")
        elif head == "tcone":
            kinds.add("tcone")
        elif head == "con":
            kinds.add("con")
    if kinds == {"gcone"}:
        return "gcone"
    if "tcone" in kinds and "gcone" not in kinds and "con" not in kinds:
        return "tcone"
    if kinds == {"con"} or not lines:
        return "con"
    raise UsageError(f"{path}: cannot tell the cone kind apart")


def read_manifest_reference(path):
    base = os.path.dirname(os.path.abspath(path))
    m = cli.Manifest()
    for ln, raw in enumerate(cli._read(path).splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "sig" and len(parts) == 2:
            m.sig_path = os.path.join(base, parts[1])
        elif parts[0] == "prefix" and len(parts) == 2:
            m.prefix_path = os.path.join(base, parts[1])
        elif parts[0] == "stage" and len(parts) == 2:
            m.stage = parse_id(parts[1], "stage", f"{path}:{ln}: ")
        else:
            raise UsageError(f"{path}:{ln}: unknown manifest line")
    return m


def _parse_ids_reference(text):
    if not text.strip():
        return ()
    return tuple(parse_id(tok.strip()) for tok in text.split(","))


def read_family_reference(path, sig, n):
    family = []
    raw_deltas = []
    for ln, raw in enumerate(cli._read(path).splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head = line.split(None, 1)[0]
        if head == "cond":
            parts = line.split(None, 3)
            if len(parts) != 4:
                raise UsageError(f"{path}:{ln}: expected "
                                 f"'cond <thr> <ids> <formula>'")
            ids = _parse_ids_reference(parts[2])
            if len(ids) != n:
                raise UsageError(f"{path}:{ln}: witness tuple has "
                                 f"{len(ids)} ids, want {n}")
            family.append((ids, parse(parts[3], sig), parse_rat(parts[1])))
        elif head == "delta":
            parts = line.split(None, 2)
            if len(parts) != 3:
                raise UsageError(f"{path}:{ln}: expected "
                                 f"'delta <i> <formula>'")
            raw_deltas.append((ln, parse_id(parts[1], "delta index",
                                            f"{path}:{ln}: "),
                               parse(parts[2], sig)))
        else:
            raise UsageError(f"{path}:{ln}: unknown family line")
    deltas = {}
    for ln, i, f in raw_deltas:
        if i >= len(family):
            raise UsageError(f"{path}:{ln}: delta index {i} has no condition")
        deltas.setdefault(i, []).append(f)
    return family, deltas


def gcone_reference(text):
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if len(lines) != 1:
        raise UsageError("expected exactly one gcone line")
    parts = lines[0].split()
    keys = ("q", "s", "s'", "thr", "op")
    if parts[0] != "gcone" or len(parts) != 6:
        raise UsageError(f"bad gcone line: {lines[0]!r}")
    vals = {}
    for part, key in zip(parts[1:], keys):
        if not part.startswith(key + "="):
            raise UsageError(f"expected {key}=... in {lines[0]!r}")
        vals[key] = part[len(key) + 1:]

    def ids(tok):
        return tuple(parse_id(piece) for piece in tok.split(","))

    return GreyCosetCode(parse_rat(vals["q"]), ids(vals["s"]), ids(vals["s'"]),
                         parse_rat01(vals["thr"]), vals["op"])


def tcone_reference(text, sig):
    r = None
    terms = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "tcone" and len(parts) == 2 \
                and parts[1].startswith("r="):
            if r is not None:
                raise UsageError("duplicate tcone line")
            r = parse_rat(parts[1][2:])
        elif parts[0] == "term" and len(parts) >= 3:
            spec = sig.get(parts[1])
            if spec is None:
                raise UsageError(f"unknown relation in {raw!r}")
            if len(parts) != 3 + spec.arity:
                raise UsageError(f"bad term line: {raw!r}")
            tup = tuple(parse_id(x) for x in parts[2:2 + spec.arity])
            terms.append((parts[1], tup, parse_rat01(parts[-1])))
        else:
            raise UsageError(f"unrecognized line: {raw!r}")
    if r is None:
        raise UsageError("missing tcone line")
    return ThresholdCone(sig, tuple(terms), r)


def structure_cone_reference(text, sig):
    cons = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] != "con" or len(parts) < 5:
            raise UsageError(f"unrecognized line: {raw!r}")
        spec = sig.get(parts[1])
        if spec is None:
            raise UsageError(f"unknown relation in {raw!r}")
        if len(parts) != 5 + spec.arity:
            raise UsageError(f"bad con line: {raw!r}")
        tup = tuple(parse_id(x) for x in parts[2:2 + spec.arity])
        lo = parse_rat(parts[-3])
        hi = parse_rat(parts[-2])
        fl = parts[-1]
        if fl not in ("oo", "oc", "co", "cc"):
            raise UsageError(f"bad flags in {raw!r}")
        cons.append(ConeConstraint(parts[1], tup, lo, hi,
                                   fl[0] == "o", fl[1] == "o"))
    return StructureCone(sig, cons)


def structure_reference(text):
    metric_lines, rel_lines, val_lines = [], [], []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        kind = line.split()[0]
        if kind in ("point", "dist"):
            metric_lines.append(line)
        elif kind == "rel":
            rel_lines.append(line)
        elif kind == "val":
            val_lines.append(line)
        else:
            raise UsageError(f"unrecognized line: {raw!r}")
    space = FinMetric.from_text("\n".join(metric_lines))
    rels = []
    for line in rel_lines:
        parts = line.split()
        if len(parts) != 5 or parts[3] != "mod":
            raise UsageError(f"bad rel line: {line!r}")
        rels.append(RelSpec(parts[1], parse_id(parts[2], "arity"),
                            parse_rat(parts[4])))
    sig = Signature(rels)
    tables = {r.name: {} for r in rels}
    for line in val_lines:
        parts = line.split()
        spec = sig.get(parts[1]) if len(parts) > 1 else None
        if spec is None:
            raise UsageError(f"val for undeclared relation: {line!r}")
        if len(parts) != 3 + spec.arity:
            raise UsageError(f"bad val line: {line!r}")
        tup = tuple(parse_id(x) for x in parts[2:2 + spec.arity])
        v = parse_rat(parts[-1])
        if not 0 <= v <= 1:
            raise UsageError(f"val outside [0, 1]: {line!r}")
        if tup in tables[spec.name]:
            raise UsageError(f"duplicate val for {spec.name}{tup}")
        tables[spec.name][tup] = v
    m = FinStructure(sig, space, tables)
    m.check()
    return m
