"""Coset codes over partial isometries and the machinery around them.

A coset code (q, sbar, sbar', thr, star) denotes the set of isometries g
with min(1, q * d(g(sbar'), sbar)) standing in the star relation to thr,
where the tuple distance is the coordinatewise maximum.  This module
decides inclusion and emptiness of such sets by reduction to rational
metric feasibility, computes the truncated left-invariant metric on
isometries, provides lazily generated structure points with their
Sat / shrinking-cone interface, and runs the three-valued invariance
check between a group-side code and a structure-side cone.
"""

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import PreconditionError, UsageError
from .logic import (FinStructure, Signature, check_seed_prefix, fill_structure,
                    fill_value)
from .metric import (FinMetric, Feasible, PartialConstraintSet,
                     PartialIsometry, QUPrefix, _lines,
                     append_point_completion, feasible, parse_id, qu_extend)
from .rat import ONE, ZERO, Rat01, format_rat, parse_rat, parse_rat01
from .space import (ConeConstraint, SeqIndex, StructureCone, cone_member,
                    cone_nonempty, cone_subset)

STAR_OPS = ("lt", "le", "gt", "ge")

# complement of {v star thr} within [0, 1]
_NEG_STAR = {"lt": "ge", "le": "gt", "gt": "le", "ge": "lt"}


@dataclass(frozen=True)
class GreyCosetCode:
    """Code for the cone {g : min(1, q * d(g(sbar'), sbar)) star thr}.

    The tuples must be nonempty, of equal length, and carry identical
    pairwise distance diagrams in the ambient space; the diagram half of
    that is checked by validate, which needs the space at hand.
    """
    q: Fraction
    sbar: tuple
    sbar_prime: tuple
    thr: Rat01
    star: str

    def __post_init__(self):
        object.__setattr__(self, "sbar", tuple(self.sbar))
        object.__setattr__(self, "sbar_prime", tuple(self.sbar_prime))
        if self.q <= 0:
            raise UsageError("scale must be positive")
        if not self.sbar:
            raise UsageError("parameter tuples must be nonempty")
        if len(self.sbar) != len(self.sbar_prime):
            raise UsageError("parameter tuples must have equal length")
        if any(i < 0 for i in self.sbar + self.sbar_prime):
            raise UsageError("negative point id")
        if not 0 <= self.thr <= 1:
            raise UsageError("threshold outside [0, 1]")
        if self.star not in STAR_OPS:
            raise UsageError(f"unknown comparison {self.star!r}")

    def validate(self, space: FinMetric) -> None:
        for i in self.sbar + self.sbar_prime:
            if i not in space.points:
                raise PreconditionError(f"point {i} outside the space")
        k = len(self.sbar)
        for a in range(k):
            for b in range(a + 1, k):
                if (space.d(self.sbar[a], self.sbar[b])
                        != space.d(self.sbar_prime[a], self.sbar_prime[b])):
                    raise PreconditionError(
                        "tuples have different distance diagrams")

    def negated(self) -> "GreyCosetCode":
        """Code for the complementary set of isometries."""
        return replace(self, star=_NEG_STAR[self.star])

    def to_text(self) -> str:
        s = ",".join(str(i) for i in self.sbar)
        sp = ",".join(str(i) for i in self.sbar_prime)
        return (f"gcone q={format_rat(self.q)} s={s} s'={sp} "
                f"thr={format_rat(self.thr)} op={self.star}\n")

    @classmethod
    def from_text(cls, text: str) -> "GreyCosetCode":
        lines = list(_lines(text))
        if len(lines) != 1:
            at = f"line {lines[1][0]}: " if lines else ""
            raise UsageError(f"{at}expected exactly one gcone line")
        ln, parts = lines[0]
        keys = ("q", "s", "s'", "thr", "op")

        def ids(tok):
            return tuple(parse_id(piece) for piece in tok.split(","))

        try:
            if parts[0] != "gcone" or len(parts) != 6:
                raise UsageError("bad gcone line")
            vals = {}
            for part, key in zip(parts[1:], keys):
                if not part.startswith(key + "="):
                    raise UsageError(f"expected {key}=... in place of {part!r}")
                vals[key] = part[len(key) + 1:]
            return cls(parse_rat(vals["q"]), ids(vals["s"]), ids(vals["s'"]),
                       parse_rat01(vals["thr"]), vals["op"])
        except UsageError as exc:
            raise UsageError(f"line {ln}: {exc}") from None


def coset_value(code: GreyCosetCode, g: PartialIsometry,
                space: FinMetric) -> Rat01:
    """min(1, q * max_i d(g(sbar'_i), sbar_i)), the code's value at g."""
    worst = ZERO
    for s, sp in zip(code.sbar, code.sbar_prime):
        img = g.apply(sp)
        if img not in space.points or s not in space.points:
            raise PreconditionError(f"point {img} outside the space")
        worst = max(worst, space.d(img, s))
    return min(ONE, code.q * worst)


# --- membership as conditions on coordinate distances -------------------------


def _member_branches(code: GreyCosetCode):
    """Membership of g, rewritten as a disjunction over conjunctions of
    per-coordinate conditions on d(g(sbar'_i), sbar_i).

    Each condition is (kind, coord, bound, strict) with kind 'upper' or
    'lower'.  No branches is the empty cone, one empty branch the whole
    group.  Degeneracies of the truncated scale (q*x capped at 1) are
    normalized away here: a coordinate bound above 1 is dropped when
    vacuous and its branch dropped when unsatisfiable.
    """
    k = len(code.sbar)
    theta = code.thr / code.q
    if code.star == "lt":
        if code.thr == 0:
            return []
        return [[("upper", i, theta, True) for i in range(k) if theta <= 1]]
    if code.star == "le":
        if code.thr == 1:
            return [[]]
        return [[("upper", i, theta, False) for i in range(k) if theta < 1]]
    if code.star == "gt":
        if code.thr == 1:
            return []
        return [[("lower", i, theta, True)] for i in range(k) if theta < 1]
    if code.thr == 0:  # ge
        return [[]]
    return [[("lower", i, theta, False)] for i in range(k) if theta <= 1]


def _branch_conditions(code: GreyCosetCode, branch):
    """Resolve a branch's coordinate indices to (source, target) ids."""
    return [(code.sbar_prime[i], code.sbar[i], kind, bound, strict)
            for kind, i, bound, strict in branch]


@dataclass(frozen=True)
class GConeWitness:
    """A finite configuration certifying that some isometry meets a set
    of distance conditions: an image label per source id and exact
    distances over the configuration's points.

    Labels below the prefix size are prefix points; larger labels are
    fresh points whose listed distances extend the prefix by metric
    amalgamation.
    """
    images: dict
    labels: tuple
    dists: dict  # (min label, max label) -> distance

    def d(self, a: int, b: int) -> Fraction:
        if a == b:
            return ZERO
        return self.dists[(min(a, b), max(a, b))]


def _satisfies(value: Fraction, kind: str, bound: Fraction,
               strict: bool) -> bool:
    if kind == "upper":
        return value < bound if strict else value <= bound
    return value > bound if strict else value >= bound


def _try_pattern(space: FinMetric, P, U, assign, conditions):
    """One coincidence pattern: sources in assign map to the named target
    point, the rest to fresh points.  Returns a witness or None."""
    label = {}
    fresh = []
    for u in U:
        if assign[u] is None:
            label[u] = space.n + len(fresh)
            fresh.append(u)
        else:
            label[u] = assign[u]

    # images of distinct sources are distinct (sources keep positive
    # mutual distances), and mapped pairs must reproduce them exactly
    for u, v in itertools.combinations(U, 2):
        if assign[u] is not None and assign[v] is not None:
            if space.d(assign[u], assign[v]) != space.d(u, v):
                return None

    # per-pair requirements over P + fresh labels; exact values win and
    # bounds against them are checked directly
    exact = {}
    bounds = {}  # pair -> list of (kind, bound, strict)

    def pair(a, b):
        return (min(a, b), max(a, b))

    for a, b in itertools.combinations(P, 2):
        exact[pair(a, b)] = space.d(a, b)
    for u, v in itertools.combinations(U, 2):
        if assign[u] is None or assign[v] is None:
            exact[pair(label[u], label[v])] = space.d(u, v)
    for src, tgt, kind, bound, strict in conditions:
        if assign[src] is not None:
            v = ZERO if assign[src] == tgt else space.d(assign[src], tgt)
            if not _satisfies(v, kind, bound, strict):
                return None
        else:
            bounds.setdefault(pair(label[src], tgt), []).append(
                (kind, bound, strict))

    points = sorted(set(P) | {label[u] for u in fresh})
    cs = PartialConstraintSet(points)
    for (a, b), v in exact.items():
        for kind, bound, strict in bounds.get((a, b), []):
            if not _satisfies(v, kind, bound, strict):
                return None
        cs.add_exact(a, b, v)
    for (a, b), reqs in bounds.items():
        if (a, b) in exact:
            continue
        for kind, bound, strict in reqs:
            if kind == "upper":
                cs.add_upper(a, b, bound, strict)
            else:
                cs.add_lower(a, b, bound, strict)

    res = feasible(cs)
    if not isinstance(res, Feasible):
        return None
    dists = {}
    for a, b in itertools.combinations(points, 2):
        key = pair(a, b)
        dists[key] = exact.get(key, res.witness.get(key))
    return GConeWitness(images={u: label[u] for u in U},
                        labels=tuple(points), dists=dists)


def _find_config(space: FinMetric, sources, conditions, anchors=()):
    """Search for an isometric image assignment of the sources meeting
    the distance conditions against prefix targets.

    Mutual image distances are pinned to the source distances.  Every
    way of identifying source images with target points is enumerated
    (the solver keeps unnamed points at positive distance, so exact
    coincidences need their own pattern); the remaining free positions
    go to the rational feasibility solver.  Soundness and completeness
    over the ambient countable space come from amalgamation over the
    targets plus universality and homogeneity.

    anchors are extra prefix points carried into every configuration,
    so a returned witness has enough distances to evaluate the calling
    codes at the found isometry.
    """
    U = list(dict.fromkeys(sources))
    P = sorted({t for _, t, _, _, _ in conditions} | set(anchors))
    for choice in itertools.product([None] + P, repeat=len(U)):
        assign = dict(zip(U, choice))
        wit = _try_pattern(space, P, U, assign, conditions)
        if wit is not None:
            return wit
    return None


def gcone_point(code: GreyCosetCode, space: FinMetric):
    """A witness configuration for some member of the cone, or None."""
    code.validate(space)
    for branch in _member_branches(code):
        wit = _find_config(space, code.sbar_prime,
                           _branch_conditions(code, branch),
                           anchors=code.sbar)
        if wit is not None:
            return wit
    return None


def gcone_nonempty(code: GreyCosetCode, space: FinMetric) -> bool:
    return gcone_point(code, space) is not None


def gcone_counterexample(c1: GreyCosetCode, c2: GreyCosetCode,
                         space: FinMetric):
    """A configuration of an isometry inside c1 but outside c2, or None
    when c1's cone is contained in c2's."""
    c1.validate(space)
    c2.validate(space)
    c2n = c2.negated()
    sources = tuple(c1.sbar_prime) + tuple(c2.sbar_prime)
    anchors = tuple(c1.sbar) + tuple(c2.sbar)
    for b1 in _member_branches(c1):
        conds1 = _branch_conditions(c1, b1)
        for b2 in _member_branches(c2n):
            wit = _find_config(space, sources,
                               conds1 + _branch_conditions(c2n, b2),
                               anchors=anchors)
            if wit is not None:
                return wit
    return None


def gcone_subset(c1: GreyCosetCode, c2: GreyCosetCode,
                 space: FinMetric) -> bool:
    """Is every isometry of c1's cone also in c2's?  Decided exactly by
    branch decomposition plus metric feasibility."""
    return gcone_counterexample(c1, c2, space) is None


# --- the truncated left-invariant metric --------------------------------------


def rho_S(space: FinMetric, g: PartialIsometry, h: PartialIsometry,
          N: int):
    """Two-sided bounds on the isometry metric
    sum_i 2^-i * min(1, d(g(p_{i-1}), h(p_{i-1}))).

    Both maps must be defined on the first N points; the tail beyond N
    contributes at most 2^-N, so the value lies in [lo, lo + 2^-N].
    """
    if N < 1:
        raise UsageError("truncation depth must be >= 1")
    if N > space.n:
        raise PreconditionError("space has fewer points than the depth")
    lo = ZERO
    for i in range(1, N + 1):
        p = i - 1
        gi, hi = g.apply(p), h.apply(p)
        if gi not in space.points or hi not in space.points:
            raise PreconditionError("image point outside the space")
        lo += Fraction(1, 2 ** i) * min(ONE, space.d(gi, hi))
    return lo, lo + Fraction(1, 2 ** N)


# --- lazily generated structure points ----------------------------------------


class OraclePoint:
    """A structure presented lazily: exact tables on a finite seed, the
    tightest modulus-compatible fill everywhere else, over a growing
    canonical prefix.

    Fill values depend only on the seed and on distances to seed points,
    so they never change as the prefix grows and are computed per query.
    Growth mutates this object; share it single-writer.
    """

    def __init__(self, seed: FinStructure, prefix: QUPrefix):
        self.seed = seed
        self.prefix = prefix.copy()
        self.ensure(seed.space.n)
        check_seed_prefix(seed, self.prefix.space)

    @property
    def sig(self) -> Signature:
        return self.seed.sig

    @property
    def space(self) -> FinMetric:
        return self.prefix.space

    def ensure(self, n: int) -> None:
        """Grow the prefix until it has at least n points."""
        while self.prefix.space.n < n:
            self.prefix = qu_extend(self.prefix, 8)

    def value(self, rel: str, tup) -> Rat01:
        tup = tuple(tup)
        if any(i < 0 for i in tup):
            raise UsageError("negative point id")
        spec = self.sig.get(rel)
        if spec is None or len(tup) != spec.arity:
            raise PreconditionError(f"no table value for {rel}{tup}")
        self.ensure(max(tup) + 1)
        return fill_value(spec.coeff, self.seed.tables[rel], self.space, tup)


def sat(x: OraclePoint, c: StructureCone) -> bool:
    """Does the lazily generated point lie in the cone?  Grows the
    point's carrier over the cone's tuples first, so it always answers."""
    if c.sig != x.sig:
        raise PreconditionError("cone signature differs from the point's")
    need = max((i + 1 for con in c.constraints for i in con.tup), default=0)
    x.ensure(need)
    return cone_member(x, c)


def kappa(x: OraclePoint, n: int) -> StructureCone:
    """A cone around x of diameter at most 2^-n: the first n+1 enumerated
    slots constrained to closed intervals of half-width 2^-(n+2) around
    x's exact values."""
    if n < 0:
        raise UsageError("shrinking index must be >= 0")
    seq = SeqIndex(x.sig)
    w = Fraction(1, 2 ** (n + 2))
    cons = []
    for i in range(1, n + 2):
        rel, tup = seq.pair(i)
        v = x.value(rel, tup)
        cons.append(ConeConstraint(rel, tup, max(ZERO, v - w),
                                   min(ONE, v + w), False, False))
    return StructureCone(x.sig, cons)


# --- threshold cones and formal inclusion -------------------------------------


@dataclass(frozen=True)
class ThresholdCone:
    """Structure-side cone sigma_{<r}: structures whose value at each
    named slot stays within r of its center (strictly, in the max)."""
    sig: Signature
    terms: tuple  # of (rel, tup, center)
    r: Fraction

    def __post_init__(self):
        object.__setattr__(
            self, "terms",
            tuple((rel, tuple(tup), center) for rel, tup, center in self.terms))
        if self.r <= 0:
            raise UsageError("radius must be positive")
        for rel, tup, center in self.terms:
            if not 0 <= center <= 1:
                raise UsageError(f"center {center} outside [0, 1]")

    def scaled(self, r: Fraction) -> "ThresholdCone":
        return replace(self, r=r)

    def materialize(self) -> StructureCone:
        """The interval form: per slot, {v : |v - center| < r} clipped to
        [0, 1], with an endpoint closed exactly when clipping moved it."""
        cons = []
        for rel, tup, c in self.terms:
            cons.append(ConeConstraint(
                rel, tup, max(ZERO, c - self.r), min(ONE, c + self.r),
                c - self.r >= 0, c + self.r <= 1))
        return StructureCone(self.sig, cons)

    def to_text(self) -> str:
        lines = [f"tcone r={format_rat(self.r)}"]
        for rel, tup, c in self.terms:
            ids = " ".join(str(i) for i in tup)
            lines.append(f"term {rel} {ids} {format_rat(c)}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str, sig: Signature) -> "ThresholdCone":
        r = None
        terms = []
        for ln, parts in _lines(text):
            try:
                if parts[0] == "tcone" and len(parts) == 2 \
                        and parts[1].startswith("r="):
                    if r is not None:
                        raise UsageError("duplicate tcone line")
                    r = parse_rat(parts[1][2:])
                elif parts[0] == "term" and len(parts) >= 3:
                    spec = sig.get(parts[1])
                    if spec is None:
                        raise UsageError(f"unknown relation {parts[1]!r}")
                    if len(parts) != 3 + spec.arity:
                        raise UsageError(f"term line for {spec.name} needs "
                                         f"{3 + spec.arity} tokens")
                    tup = tuple(parse_id(x) for x in parts[2:-1])
                    terms.append((parts[1], tup, parse_rat01(parts[-1])))
                else:
                    raise UsageError(f"unrecognized {parts[0]!r} line")
            except UsageError as exc:
                raise UsageError(f"line {ln}: {exc}") from None
        if r is None:
            raise UsageError("missing tcone line")
        return cls(sig, tuple(terms), r)


def _slack(dens, nvars: int) -> Fraction:
    """Half the minimum spacing of the rational lattice that can host a
    decision breakpoint: bounds are affine in the radius with integer
    coefficients bounded by the system size, so breakpoints are roots
    a + b*r with den(a) | L and |b| <= B."""
    L = math.lcm(*[d for d in dens if d], 1)
    B = max(nvars + 2, 2)
    return Fraction(1, 2 * L * math.lcm(*range(1, B + 1)))


def _threshold_slack(t1: ThresholdCone, t2: ThresholdCone,
                     space: FinMetric) -> Fraction:
    dens = [t1.r.denominator, t2.r.denominator]
    slots = {}
    for t in (t1, t2):
        for rel, tup, c in t.terms:
            dens.append(c.denominator)
            slots.setdefault(rel, set()).add(tup)
    for rel, tups in slots.items():
        coeff = t1.sig.get(rel).coeff
        for a, b in itertools.combinations(sorted(tups), 2):
            dens.append((coeff * space.tuple_dist(a, b)).denominator)
    nvars = sum(len(tups) for tups in slots.values()) + 1
    return _slack(dens, nvars)


def _grey_slack(c1: GreyCosetCode, c2: GreyCosetCode,
                space: FinMetric) -> Fraction:
    """Slack in coordinate-bound space (theta = thr/q); multiply by q to
    move back to threshold space."""
    theta1 = c1.thr / c1.q
    theta2 = c2.thr / c2.q
    dens = [theta1.denominator, theta2.denominator,
            c1.q.numerator, c1.q.denominator]
    ids = sorted(set(c1.sbar + c1.sbar_prime + c2.sbar + c2.sbar_prime))
    for a, b in itertools.combinations(ids, 2):
        dens.append(space.d(a, b).denominator)
    nvars = 2 * len(ids) + 2
    return _slack(dens, nvars)


def formal_inclusion(c1, c2, space: FinMetric) -> bool:
    """The effective strict-inclusion relation between two cones of the
    same side: some radius r1 > r keeps the enlarged c1 inside c2, and
    c1's diameter is at most half of c2's.

    Diameters here are the radius form min(1, 2r) (zero for an empty
    cone); the enlargement is tested at one radius between r and the
    first value where the inclusion decision could change, which
    suffices because enlarging the left side only shrinks the relation.
    """
    if isinstance(c1, ThresholdCone) and isinstance(c2, ThresholdCone):
        if c1.sig != c2.sig:
            raise PreconditionError("signatures differ")
        m1, m2 = c1.materialize(), c2.materialize()
        d1 = ZERO if not cone_nonempty(m1, space) else min(ONE, 2 * c1.r)
        d2 = ZERO if not cone_nonempty(m2, space) else min(ONE, 2 * c2.r)
        if 2 * d1 > d2:
            return False
        r1 = c1.r + _threshold_slack(c1, c2, space)
        return cone_subset(c1.scaled(r1).materialize(), m2, space)
    if isinstance(c1, GreyCosetCode) and isinstance(c2, GreyCosetCode):
        if c1.star != "lt" or c2.star != "lt":
            raise UsageError("group-side inclusion needs strict upper cones")
        c1.validate(space)
        c2.validate(space)
        d1 = ZERO if not gcone_nonempty(c1, space) else min(ONE, 2 * c1.thr)
        d2 = ZERO if not gcone_nonempty(c2, space) else min(ONE, 2 * c2.thr)
        if 2 * d1 > d2:
            return False
        # the diameter gate just passed forces thr well below 1, so the
        # enlarged threshold stays inside [0, 1]
        r1 = c1.thr + c1.q * _grey_slack(c1, c2, space)
        return gcone_subset(replace(c1, thr=r1), c2, space)
    raise UsageError("cones must be of the same side")


# --- the invariance check -----------------------------------------------------


def cone_gap(cone: StructureCone, M) -> Rat01:
    """How far the structure's slot values sit outside the cone's
    intervals: max over constraints of the distance to [lo, hi], zero
    inside.  Endpoint flags are ignored; this is the cone's grey value.
    """
    worst = ZERO
    for c in cone.constraints:
        v = M.value(c.rel, c.tup)
        worst = max(worst, c.lo - v, v - c.hi)
    return worst


@dataclass(frozen=True)
class InvResult:
    verdict: str  # Sound | Falsified | Unknown
    gamma: PartialIsometry = None
    witness: FinStructure = None
    detail: str = ""


def _mcshane_structure(sig: Signature, space: FinMetric, seeds):
    """Total tables from sparse seed values via the tightest
    modulus-compatible fill; None when a seed violates its modulus."""
    for spec in sig.relations:
        seed = seeds.get(spec.name, {})
        for (t1, v1), (t2, v2) in itertools.combinations(seed.items(), 2):
            if abs(v1 - v2) > spec.coeff * space.tuple_dist(t1, t2):
                return None
    return fill_structure(sig, seeds, space)


def _gap_after(cone: StructureCone, M: FinStructure,
               gamma: PartialIsometry) -> Rat01:
    """cone_gap of the translated structure g.M, whose value at a tuple
    is M's value at the preimage tuple."""
    ginv = gamma.inverse()
    worst = ZERO
    for c in cone.constraints:
        v = M.value(c.rel, ginv.apply_tuple(c.tup))
        worst = max(worst, c.lo - v, v - c.hi)
    return worst


def inv_check(prefix: QUPrefix, p: Fraction, tbar, U: StructureCone) -> InvResult:
    """Three-valued invariance check between the group-side code
    (p, tbar) and the structure-side cone U.

    Sound when the conservative criterion holds: every parameter of U
    lies in tbar and p dominates the modulus coefficient of each
    relation U constrains; then translating by any g moves each slot
    value by at most p * d(g(tbar), tbar) and the grey value of U obeys
    value(g.M) <= value(M) (+) min(1, p * d(g(tbar), tbar)).

    Otherwise a bounded search looks for a counterexample: an isometry
    fixing tbar pointwise (so the right-hand slack is zero) that moves
    some parameter to a fresh position, together with a structure built
    to sit inside U yet leave it after translation.  The violated
    inequality is re-checked exactly before Falsified is reported;
    exhaustion yields Unknown.
    """
    if p <= 0:
        raise UsageError("scale must be positive")
    tbar = tuple(tbar)
    space = prefix.space
    for t in tbar:
        if t not in space.points:
            raise PreconditionError(f"point {t} outside the space")
    params = sorted({i for c in U.constraints for i in c.tup})
    for i in params:
        if i not in space.points:
            raise PreconditionError(f"cone tuple point {i} outside the space")

    coeffs = [U.sig.get(c.rel).coeff for c in U.constraints]
    if set(params) <= set(tbar):
        if p >= max(coeffs, default=ZERO):
            return InvResult("Sound", detail=(
                "every cone parameter is fixed and the scale dominates "
                "the modulus coefficients"))
        return InvResult("Unknown", detail=(
            "scale below a modulus coefficient; no movable parameter "
            "to search"))

    movable = [s for s in params if s not in set(tbar)]
    Q = sorted(set(tbar) | set(params))
    for s in movable:
        for delta in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)):
            # a fresh position w: same distances to the rest of Q as s,
            # but at least delta away from s itself
            w = max(Q) + 1
            cs = PartialConstraintSet(Q + [w])
            for a, b in itertools.combinations(Q, 2):
                cs.add_exact(a, b, space.d(a, b))
            for x in Q:
                if x != s:
                    cs.add_exact(w, x, space.d(s, x))
            cs.add_lower(w, s, delta)
            res = feasible(cs)
            if not isinstance(res, Feasible):
                continue
            known = {x: res.witness[(min(w, x), max(w, x))] for x in Q}
            space2 = space.copy()
            wid = append_point_completion(space2, known)
            gamma = PartialIsometry(
                [(x, x) for x in Q if x != s] + [(wid, s)])
            gamma.validate(space2)
            moved = space2.d(wid, s)
            hval = min(ONE, p * max(
                (space2.d(gamma.apply(t), t) for t in tbar), default=ZERO))

            for c in U.constraints:
                if s not in c.tup:
                    continue
                coeff = U.sig.get(c.rel).coeff
                mid = (c.lo + c.hi) / 2
                up = ONE - mid >= mid
                headroom = ONE - mid if up else mid
                shift = min(coeff * moved, headroom)
                moved_tup = tuple(wid if i == s else i for i in c.tup)
                for frac in (ONE, Fraction(1, 2), Fraction(1, 4)):
                    target = mid + shift * frac if up else mid - shift * frac
                    seeds = {}
                    for cc in U.constraints:
                        seeds.setdefault(cc.rel, {})[cc.tup] = \
                            (cc.lo + cc.hi) / 2
                    seeds.setdefault(c.rel, {})[moved_tup] = target
                    M = _mcshane_structure(U.sig, space2, seeds)
                    if M is None:
                        continue
                    gap0 = cone_gap(U, M)
                    gap1 = _gap_after(U, M, gamma)
                    if gap1 > min(ONE, gap0 + hval):
                        return InvResult(
                            "Falsified", gamma=gamma, witness=M,
                            detail=(f"moving point {s} to a position "
                                    f"{format_rat(moved)} away changes the "
                                    f"cone's grey value from "
                                    f"{format_rat(gap0)} to "
                                    f"{format_rat(gap1)} at zero cost"))
    return InvResult("Unknown", detail=(
        "criterion failed and the bounded search found no violation"))
