"""Approximate back-and-forth maps and finite homogeneity audits.

Plays the alternating extension game between two tuples of a universal
rational metric prefix, with an exact per-stage tolerance ledger, and
builds two batch experiments on top of it: an exhaustive near-homogeneity
audit over small tuples, and a finite covering/extension check for a
proposed family of closed conditions.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionError, UsageError
from .logic import (FinStructure, check_seed_prefix, compile_formula,
                    fill_value, format_formula, free_vars)
from .metric import PartialIsometry, QUPrefix, advance, extension_image
from .rat import ZERO, Rat01, check_rat01, format_rat


class Stuck(RuntimeError):
    """A stage found no admissible image within its tolerance."""

    def __init__(self, stage: int, obstruction: str):
        self.stage = stage
        self.obstruction = obstruction
        super().__init__(f"stage {stage}: {obstruction}")


def stage_budget(eps: Rat01, steps: int) -> tuple[Fraction, ...]:
    """Stage tolerances eps/2^(k+3) for k = 1..steps; they sum below eps/8."""
    check_rat01(eps)
    if steps < 0:
        raise UsageError("steps must be >= 0")
    return tuple(eps / 2 ** (k + 3) for k in range(1, steps + 1))


@dataclass
class BackForthState:
    """Final position of one alternating extension run."""
    stage: int
    cbar: tuple[int, ...]
    dbar: tuple[int, ...]
    alpha: PartialIsometry
    budget: tuple[Fraction, ...]
    prefix: QUPrefix


@dataclass
class DriftCertificate:
    """Exact movement ledger for the c-side coordinates.

    per_coord[j] is the distance between the j-th c-side coordinate at the
    end of the run and its starting position; bound is the sum of all stage
    tolerances.  lines holds the per-stage report.
    """
    per_coord: tuple[Fraction, ...]
    bound: Fraction
    lines: tuple[str, ...]

    def verified(self) -> bool:
        return all(v <= self.bound for v in self.per_coord)


def _atom_positions(arity: int, k: int, touching=None):
    for pos in itertools.product(range(k), repeat=arity):
        if touching is None or touching in pos:
            yield pos


def _atom_gap(M: FinStructure, space, left, right, tol: Fraction,
             touching=None):
    """First atom whose values across the two sides differ by more than tol.

    Values are M's tables filled over space, computed only for the atoms
    compared.  Scans every relation over every position tuple (restricted
    to tuples containing the index `touching` when given); returns (name,
    positions, gap) or None.
    """
    for spec in M.sig.relations:
        seed = M.tables[spec.name]
        for pos in _atom_positions(spec.arity, len(left), touching):
            lv = fill_value(spec.coeff, seed, space,
                            tuple(left[p] for p in pos))
            rv = fill_value(spec.coeff, seed, space,
                            tuple(right[p] for p in pos))
            if abs(lv - rv) > tol:
                return spec.name, pos, abs(lv - rv)
    return None


def _atoms_agree(M: FinStructure, space, left, right, tol: Fraction):
    """Test for a candidate image p of left's last coordinate: every atom
    touching that coordinate agrees across left and right + [p] within
    tol."""
    return lambda p: _atom_gap(M, space, left, right + [p], tol,
                               len(right)) is None


def _lowest_unused(work: QUPrefix, side: dict) -> int:
    # fairness target: smallest id missing from the side, growing the
    # schedule in place when the side already exhausts the prefix
    while True:
        for p in work.space.points:
            if p not in side:
                return p
        advance(work, 4)


def _play(work: QUPrefix, abar, bbar, budget, M):
    """back_and_forth's game on work, in place, one stage per budget entry;
    abar and bbar must have equal metric diagrams.

    The map is two dicts, forward (c -> d) and backward.  Each new pair is
    checked on integer numerators: its image is unused and it keeps every
    distance to the earlier pairs.  The final map is checked in full.
    Returns (cbar, dbar, alpha).
    """
    fwd = dict(zip(abar, bbar))
    bwd = dict(zip(bbar, abar))
    cbar, dbar = list(abar), list(bbar)
    for stage, tol in enumerate(budget, 1):
        if stage % 2:
            g, h, zs, ws = bwd, fwd, dbar, cbar
        else:
            g, h, zs, ws = fwd, bwd, cbar, dbar
        z = _lowest_unused(work, g)
        space = work.space
        num = space._num
        typ = tuple(map(num, itertools.repeat(z), g))
        accept = None if M is None else _atoms_agree(
            M, space, [*g, z], [*g.values()], tol)
        w = extension_image(space, tuple(g.values()), typ, accept)
        if w is None:
            raise Stuck(stage, f"no admissible image for point {z} within "
                               f"tolerance {format_rat(tol)}")
        if w in h or tuple(map(num, itertools.repeat(w), g.values())) != typ:
            raise PreconditionError(f"stage {stage}: image {w} of {z} "
                                    f"does not extend the map")
        g[z] = w
        h[w] = z
        zs.append(z)
        ws.append(w)
    alpha = PartialIsometry(list(fwd.items()))
    alpha.validate(work.space)
    return cbar, dbar, alpha


def back_and_forth(prefix: QUPrefix, abar, bbar, eps: Rat01, steps: int,
                   M: FinStructure = None):
    """Alternately extend a partial isometry matching abar to bbar.

    Odd stages adjoin the lowest unused prefix point to the d side and pull
    it back, even stages adjoin to the c side and push forward; each new
    point is mirrored exactly on the metric, reusing an existing point when
    one fits and appending a targeted one otherwise, so the prefix may grow.
    When M (a structure on an initial metric segment of the prefix) is
    given, its tables extend 1-Lipschitz-tightest to the whole prefix and
    every relation atom touching the new coordinate must agree across the
    sides within the stage tolerance; running out of candidates raises
    Stuck.  Placed coordinates never move, so the certificate drift is zero
    at every index; it is still computed from the final state, not assumed.

    Returns (BackForthState, DriftCertificate).
    """
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
    cbar, dbar, alpha = _play(work, abar, bbar, budget, M)
    lines = tuple(f"stage {l} side {'d' if l % 2 else 'c'} drift "
                  f"{format_rat(ZERO)} tol {format_rat(tol)}"
                  for l, tol in enumerate(budget, 1))
    state = BackForthState(steps, tuple(cbar), tuple(dbar), alpha, budget,
                           work)
    per = tuple(map(work.space.d, cbar, abar))
    cert = DriftCertificate(per, sum(budget, ZERO), lines)
    return state, cert


@dataclass
class HomogReport:
    """Batch outcome of the tuple-pair audit."""
    total: int
    successes: int
    failures: tuple
    max_drift: Fraction
    bound: Fraction
    lines: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def approx_homog_test(prefix: QUPrefix, n: int, eps: Rat01,
                      denom_bound: int) -> HomogReport:
    """Play the extension game over every admissible ordered tuple pair.

    Admissible tuples are the n-tuples over the prefix whose internal
    distances all have denominator at most denom_bound; they are grouped by
    equal metric diagrams and every ordered pair inside a group is played
    for four stages.  Without a structure overlay no stage can get stuck,
    since the amalgam point always exists, and each final map is checked
    in full.  The drift of a pair is the distance of the first n c-side
    coordinates from abar; the game starts the c side at abar and only
    appends to it, so the drift is 0, within every budget, and every pair
    is a success.
    """
    if prefix.space.n == 0:
        raise PreconditionError("prefix must be nonempty")
    if n < 1:
        raise UsageError("tuple length must be >= 1")
    if denom_bound < 1:
        raise UsageError("denominator bound must be >= 1")
    budget = stage_budget(eps, 4)
    bound = sum(budget, ZERO)
    groups: dict = {}
    for tup in itertools.product(prefix.space.points, repeat=n):
        diagram = tuple(prefix.space.d(tup[i], tup[j])
                        for i in range(n) for j in range(i))
        if any(v.denominator > denom_bound for v in diagram):
            continue
        groups.setdefault(diagram, []).append(tup)
    # every game runs on one working copy, cut back to the prefix after
    # it; a game that grew the schedule moved the cursor, so start over
    # from a fresh copy then
    work = prefix.copy()
    size, cursor = prefix.space.n, (prefix.stage, prefix.pos)
    for members in groups.values():
        for abar in members:
            for bbar in members:
                _play(work, abar, bbar, budget, None)
                if (work.stage, work.pos) == cursor:
                    work.space.truncate(size)
                else:
                    work = prefix.copy()
    pairs = sum(len(members) ** 2 for members in groups.values())
    line = (f"pairs {pairs} successes {pairs} failures 0 max-drift 0 "
            f"bound {format_rat(bound)}")
    return HomogReport(pairs, pairs, (), ZERO, bound, (line,))


def _positional(M: FinStructure, f, m: int):
    """f compiled once as a function of carrier m-tuples, variable x<k>
    reading position k."""
    pos = {}
    for name in free_vars(f):
        if len(name) < 2 or name[0] != "x" or not name[1:].isdigit():
            raise UsageError(
                f"variable {name!r} is not positional (want x1, x2, ...)")
        k = int(name[1:])
        if not 1 <= k <= m:
            raise UsageError(
                f"variable {name!r} exceeds the tuple length {m}")
        pos[name] = k - 1
    den, run = compile_formula(M, f, tuple(pos))
    idx = tuple(pos.values())
    return lambda tup: Fraction(run([tup[k] for k in idx])[0], den)


@dataclass
class SCReport:
    """Outcome of the covering/extension check."""
    ok: bool
    clause: str = ""
    index: int = -1
    abar: tuple = ()
    cbar: tuple = ()
    delta: tuple = ()
    lines: tuple = ()


def sc_check(M: FinStructure, n: int, eps: Rat01, family,
             deltas) -> SCReport:
    """Check a proposed condition family for covering and extension.

    family lists (witness tuple, formula, threshold) entries over variables
    x1..xn; deltas maps a family index to a pool of formulas over
    x1..x<n+1>.  The check fails when some family witness misses its own
    condition ("family"), when some n-tuple of the carrier satisfies no
    condition ("cover"), or when for some condition i, some n-tuple abar
    satisfying it and some (n+1)-tuple cbar whose first n coordinates
    satisfy it, no (n+1)-tuple bbar stays within eps of abar coordinatewise
    on the first n positions while zeroing every pool formula that vanishes
    at cbar ("extend").  Enlarging a pool can only flip the verdict from
    pass to fail: it grows the vanishing set at each cbar and with it the
    witness obligations.
    """
    if n < 1:
        raise UsageError("tuple length must be >= 1")
    check_rat01(eps)
    if M.space.n == 0:
        raise PreconditionError("carrier must be nonempty")
    M.check()
    fam = []
    runs = {}
    for i, entry in enumerate(family):
        ab, phi, dl = entry
        ab = tuple(ab)
        if len(ab) != n:
            raise UsageError(
                f"family witness {i} has length {len(ab)}, want {n}")
        for p in ab:
            if p not in M.space.points:
                raise UsageError(f"unknown point {p} in family witness {i}")
        dl = Fraction(dl)
        if dl < 0:
            raise UsageError("thresholds must be >= 0")
        runs[("phi", i)] = _positional(M, phi, n)
        fam.append((ab, phi, dl))
    pools = {}
    for i in range(len(fam)):
        pool = list(deltas.get(i, ()))
        for j, f in enumerate(pool):
            runs[("pool", i, j)] = _positional(M, f, n + 1)
        pools[i] = pool

    memo = {}

    def val(key, tup):
        if (key, tup) not in memo:
            memo[(key, tup)] = runs[key](tup)
        return memo[(key, tup)]

    for i, (ab, phi, dl) in enumerate(fam):
        if val(("phi", i), ab) > dl:
            return SCReport(False, "family", i, ab, (), (), (
                f"family: witness {ab} misses condition {i}",))

    pts = list(M.space.points)
    sat: dict = {}
    for ab in itertools.product(pts, repeat=n):
        hits = [i for i, (_, _, dl) in enumerate(fam)
                if val(("phi", i), ab) <= dl]
        if not hits:
            return SCReport(False, "cover", -1, ab, (), (), (
                f"cover: tuple {ab} satisfies no condition",))
        sat[ab] = hits

    cases = 0
    for i in range(len(fam)):
        pool = pools[i]
        holders = [ab for ab, hits in sat.items() if i in hits]
        settled: dict = {}
        for cb in itertools.product(pts, repeat=n + 1):
            if i not in sat[cb[:n]]:
                continue
            mask = tuple(j for j in range(len(pool))
                         if val(("pool", i, j), cb) == 0)
            done = settled.setdefault(mask, set())
            need = [("pool", i, j) for j in mask]
            for ab in holders:
                if ab in done:
                    continue
                if _extension_witness(M, pts, ab, need, eps, n, val):
                    done.add(ab)
                    cases += 1
                    continue
                delta = tuple(pool[j] for j in mask)
                shown = ", ".join(format_formula(f) for f in delta)
                return SCReport(False, "extend", i, ab, cb, delta, (
                    f"extend: condition {i}, tuple {ab}, context {cb}, "
                    f"vanishing pool [{shown}]",))
    return SCReport(True, lines=(
        f"cover ok on {len(sat)} tuples; extension ok on {cases} cases",))


def _extension_witness(M, pts, ab, need, eps, n, val):
    for b in itertools.product(pts, repeat=n + 1):
        if any(M.space.d(ab[j], b[j]) > eps for j in range(n)):
            continue
        if all(val(key, b) == 0 for key in need):
            return True
    return False
