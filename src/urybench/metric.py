"""Finite rational metric spaces with diameter <= 1.

Contents: FinMetric (dense integer point ids), partial distance constraint
sets with a complete feasibility decision (witness or violated-chain
certificate), admissibility of one-point extensions, the canonical
incrementally-built universal prefix (QUPrefix / qu_extend), and partial
isometries with exact extension.

A FinMetric stores integer numerators over one per-space denominator and
rescales its rows on demand, so schedule growth, mirror search and the
text reader run on integers; Fraction appears only at the API and in text.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter

from .errors import PreconditionError, UsageError
from .rat import ZERO, format_rat, parse_rat01

# A bound is (value, strict).  For uppers, (v, True) means "< v"; for lowers
# "> v".  Ordering below treats a strict bound as tighter than a non-strict
# one at the same value.


def _pair(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a <= b else (b, a)


class FinMetric:
    """Finite metric space on points 0..n-1 with rational distances in (0, 1].

    Distances are stored as lower-triangle rows of integer numerators over
    one per-space denominator: d(a, b) = _rows[b][a] / _den for a < b.  A
    distance whose denominator does not divide _den first rescales every
    row to the lcm.  d() returns one shared Fraction per numerator;
    equality and hashing go by distances, whatever the denominators.
    Symmetry and d(a,a)=0 are structural.  Triangle validity is guaranteed
    for spaces built through append_point with admissible distance vectors;
    check() re-verifies.

    No row list is ever changed in place: _rescale builds new rows, and
    truncate and _append_row touch only the outer list.  copy() therefore
    shares the rows and costs O(n), not O(n^2).

    to_text writes the point lines, then the dist lines with a < b row by
    row, each row built as one string; from_text takes the lines in any
    order and reads that layout fastest.
    """

    __slots__ = ("_rows", "_den", "_vals")

    def __init__(self) -> None:
        self._rows: list[list[int]] = []
        self._den = 1
        # numerator -> the Fraction d() hands out; holds every numerator
        # in _rows
        self._vals: dict[int, Fraction] = {}

    @property
    def n(self) -> int:
        return len(self._rows)

    @property
    def points(self) -> range:
        return range(len(self._rows))

    def d(self, a: int, b: int) -> Fraction:
        if a == b:
            if not 0 <= a < self.n:
                raise UsageError(f"unknown point {a}")
            return ZERO
        lo, hi = (a, b) if a < b else (b, a)
        try:
            return self._vals[self._rows[hi][lo]]
        except IndexError:
            raise UsageError(f"unknown point pair ({a}, {b})") from None

    def _num(self, a: int, b: int) -> int:
        """Numerator of d(a, b) over _den; a and b must be points."""
        if a == b:
            return 0
        return self._rows[a][b] if a > b else self._rows[b][a]

    def _column(self, a: int) -> list[int]:
        """Numerators of d(a, z) for z = 0..n-1."""
        rows = self._rows
        return rows[a] + [0] + list(map(itemgetter(a), rows[a + 1:]))

    def _rescale(self, den: int) -> None:
        """Move every row to den, a multiple of the current denominator."""
        f = den // self._den
        if f != 1:
            self._rows = [[v * f for v in row] for row in self._rows]
            self._den = den
            self._vals = {k * f: v for k, v in self._vals.items()}

    def _lattice(self, values) -> list[int]:
        """Numerators of the given rationals over _den, after rescaling to
        a denominator that holds them all."""
        den = lcm(self._den, *(v.denominator for v in values))
        self._rescale(den)
        nums = [v.numerator * (den // v.denominator) for v in values]
        self._vals.update(zip(nums, values))
        return nums

    def _append_row(self, row: list[int]) -> int:
        """Append a point at the given numerators over _den."""
        for k in set(row).difference(self._vals):
            self._vals[k] = Fraction(k, self._den)
        self._rows.append(row)
        return len(self._rows) - 1

    def append_point(self, dists: list[Fraction]) -> int:
        """Add point n with the given distances to points 0..n-1."""
        if len(dists) != self.n:
            raise UsageError("distance vector length mismatch")
        for v in dists:
            if not 0 < v <= 1:
                raise UsageError(f"distance {v} outside (0, 1]")
        return self._append_row(self._lattice(dists))

    def truncate(self, n: int) -> None:
        """Drop the points n and above."""
        del self._rows[n:]

    def copy(self) -> "FinMetric":
        m = FinMetric()
        m._rows = self._rows.copy()
        m._den, m._vals = self._den, dict(self._vals)
        return m

    def _reduced(self) -> tuple:
        """(denominator, rows) over the least denominator holding every
        distance: equal spaces give equal values."""
        g = gcd(self._den, *itertools.chain.from_iterable(self._rows))
        return self._den // g, tuple(tuple(v // g for v in row) for row in self._rows)

    def __eq__(self, other) -> bool:
        return isinstance(other, FinMetric) and self._reduced() == other._reduced()

    def __hash__(self):
        return hash(self._reduced())

    def check(self) -> None:
        """Re-verify the metric axioms; raises PreconditionError on violation."""
        num = self._num
        for a, b, c in itertools.combinations(self.points, 3):
            dab, dac, dbc = num(a, b), num(a, c), num(b, c)
            if dab > dac + dbc or dac > dab + dbc or dbc > dab + dac:
                raise PreconditionError(f"triangle violated on ({a}, {b}, {c})")

    def tuple_dist(self, s: tuple[int, ...], t: tuple[int, ...]) -> Fraction:
        """Max-metric distance between equal-length tuples."""
        if len(s) != len(t):
            raise UsageError("tuple length mismatch")
        if not s:
            return ZERO
        return max(self.d(a, b) for a, b in zip(s, t))

    def _text_parts(self) -> list[str]:
        """Text of the space as pieces to join: the point lines, then one
        string per row b holding `dist a b v` for a < b."""
        text = {v: format_rat(self._vals[v]) for v in
                set(itertools.chain.from_iterable(self._rows))}
        heads = [f"dist {a} " for a in self.points]
        parts = ["".join([f"point {i}\n" for i in self.points])]
        for b, row in enumerate(self._rows):
            parts.append("".join(itertools.chain.from_iterable(zip(
                heads, itertools.repeat(f"{b} "), map(text.__getitem__, row),
                itertools.repeat("\n")))))
        return parts

    def to_text(self) -> str:
        return "".join(self._text_parts()) or "\n"

    @classmethod
    def from_text(cls, text: str) -> "FinMetric":
        return _read_points(text, allow_extra=False)[0]


# _lines splits this many characters at a time, plus the rest of a line
_CHUNK = 1 << 20


def _lines(text: str):
    """(line number, tokens) of every non-blank line; '#' starts a comment
    that runs to the end of its line.

    Line numbers are those of text.splitlines().  The text is split about
    _CHUNK characters at a time, each piece cut just after a "\n", so no
    list of every line is held; a text without '#' skips the comment
    strip.
    """
    strip = "#" in text
    ln, start, end = 1, 0, len(text)
    while start < end:
        cut = text.find("\n", start + _CHUNK) + 1 or end
        lines = text[start:cut].splitlines()
        if strip:
            lines = [raw.partition("#")[0] for raw in lines]
        yield from filter(itemgetter(1), enumerate(map(str.split, lines), ln))
        ln += len(lines)
        start = cut


def _dist_line(ln: int, parts: list[str], ids: dict, vals: dict):
    """(lo, hi, v) of a `dist a b v` line, v in [0, 1].  ids and vals cache
    the parsed id and value tokens."""
    if len(parts) != 4:
        raise UsageError(f"line {ln}: dist takes two ids and a value")
    _, ta, tb, tv = parts
    a = ids.get(ta)
    if a is None:
        a = ids[ta] = _parse_id(ta, ln)
    b = ids.get(tb)
    if b is None:
        b = ids[tb] = _parse_id(tb, ln)
    if a == b:
        raise UsageError(f"line {ln}: dist needs distinct points")
    v = vals.get(tv)
    if v is None:
        v = vals[tv] = parse_rat01(tv, f"line {ln}: ")
    return (a, b, v) if a < b else (b, a, v)


def _read_points(text: str, allow_extra: bool):
    """One pass over point/dist lines, straight into lower-triangle rows.

    Returns (FinMetric, extra) where extra lists the (line number, tokens)
    of other lines; those raise unless allow_extra.  Each row holds the
    index of its distances in `seen`.  A `dist 0 b` line for a new row b
    opens a list, and each following line with the same b token and the
    next a is appended to it with only a parsed: the writer's layout.  Any
    other line leaves that order and turns the open row into a dict; a
    row read out of order maps each given entry to its index until all its
    entries are given, and then becomes a list.  Memory therefore grows
    with the lines read, never with the size of an id in them.  The body
    of _dist_line is inlined: prefix files hold millions of lines.
    """
    ids: list[int] = []
    id_of: dict[str, int] = {}
    val_of: dict[str, int] = {}
    seen: dict[Fraction, int] = {}
    full: dict[int, list[int]] = {0: []}
    part: dict[int, dict[int, int]] = {}
    grew: list[int] = []  # row ids in the order of their first dist line
    extra: list[tuple[int, list[str]]] = []
    # the row read in writer order: its entries so far, its id and its b
    # token; open_tb is None while no row is open
    row: list[int] = []
    open_hi, open_tb = -1, None

    def value(tok: str, ln: int) -> int:
        v = parse_rat01(tok, f"line {ln}: ")
        if not v:
            raise UsageError(f"line {ln}: distance {v} outside (0, 1]")
        k = val_of[tok] = seen.setdefault(v, len(seen))
        return k

    for ln, parts in _lines(text):
        tag = parts[0]
        if tag == "dist":
            if len(parts) != 4:
                raise UsageError(f"line {ln}: dist takes two ids and a value")
            _, ta, tb, tv = parts
            a = id_of.get(ta)
            if a is None:
                a = id_of[ta] = _parse_id(ta, ln)
            # the next entry of the open row: b is known and a < b is new
            nxt = tb == open_tb and a == len(row)
            if not nxt:
                b = id_of.get(tb)
                if b is None:
                    b = id_of[tb] = _parse_id(tb, ln)
                if a == b:
                    raise UsageError(f"line {ln}: dist needs distinct points")
            k = val_of.get(tv)
            if k is None:
                k = value(tv, ln)
            if not nxt:
                if open_tb is not None:
                    part[open_hi] = dict(enumerate(row))
                    open_tb = None
                if a == 0 and b not in full and b not in part:
                    grew.append(b)
                    row, open_hi, open_tb = [], b, tb
                else:
                    lo, hi = (a, b) if a < b else (b, a)
                    given = part.get(hi)
                    if given is None and hi in full:
                        old = full[hi][lo]
                    else:
                        if given is None:
                            given = part[hi] = {}
                            grew.append(hi)
                        old = given.setdefault(lo, k)
                        if len(given) == hi:
                            full[hi] = list(map(given.__getitem__, range(hi)))
                            del part[hi]
                    if old != k:
                        raise UsageError(f"line {ln}: conflicting dist for {(lo, hi)}")
                    continue
            row.append(k)
            if len(row) == open_hi:
                full[open_hi] = row
                open_tb = None
        elif tag == "point":
            if len(parts) != 2:
                raise UsageError(f"line {ln}: point takes one id")
            i = id_of.get(parts[1])
            if i is None:
                i = id_of[parts[1]] = _parse_id(parts[1], ln)
            ids.append(i)
        elif allow_extra:
            extra.append((ln, parts))
        else:
            raise UsageError(f"line {ln}: unknown directive {tag!r}")
    if open_tb is not None:
        part[open_hi] = dict(enumerate(row))
    n = len(ids)
    if sorted(ids) != list(range(n)):
        raise UsageError("point ids must be exactly 0..n-1")
    for i in range(n):
        if i not in full:
            given = part.get(i, ())
            # at most len(given) + 1 probes
            j = next(j for j in range(i) if j not in given)
            raise UsageError(f"missing dist for pair {(j, i)}")
    for hi in grew:
        if hi >= n:
            raise UsageError(f"dist references unknown point {hi}")
    m = FinMetric()
    nums = m._lattice(list(seen))
    m._rows = [list(map(nums.__getitem__, full[i])) for i in range(n)]
    return m, extra


def parse_id(tok: str, what: str = "point id", where: str = "") -> int:
    """A point id or index: a non-negative integer in ASCII digits.

    str.isdigit alone also accepts characters such as '²' that int()
    rejects, and int() alone accepts signs, blanks, underscores and
    non-ASCII digits; every text reader goes through this one check.
    """
    if tok.isascii() and tok.isdigit():
        return int(tok)
    raise UsageError(f"{where}bad {what} {tok!r}")


def _parse_id(tok: str, ln: int) -> int:
    # the line prefix is built only on failure; prefix files hold millions
    # of ids
    try:
        return parse_id(tok)
    except UsageError as exc:
        raise UsageError(f"line {ln}: {exc}") from None


def one_point_admissible(space: FinMetric, r: dict[int, Fraction]) -> bool:
    """Can a new point be appended at the given distances to every point?

    r must assign a rational in (0, 1] to every point of the space;
    r(a) = 0 would duplicate a and is a precondition violation.
    """
    if set(r) != set(space.points):
        raise UsageError("r must assign a distance to every point")
    for a, v in r.items():
        if v == 0:
            raise PreconditionError(f"r({a}) = 0 would duplicate the point")
        if not 0 < v <= 1:
            raise UsageError(f"r({a}) = {v} outside (0, 1]")
    return _admissible_over(space.d, tuple(r), tuple(r[a] for a in r))


def _admissible_over(dist, anchors: tuple[int, ...], values: tuple) -> bool:
    """Triangle test of the values against dist over the anchors; dist and
    values are both Fractions or both numerators over one denominator."""
    for (i, a), (j, b) in itertools.combinations(enumerate(anchors), 2):
        dab = dist(a, b)
        ra, rb = values[i], values[j]
        if abs(ra - rb) > dab or ra + rb < dab:
            return False
    return True


# --- partial constraint sets and feasibility ---------------------------------


class PartialConstraintSet:
    """Exact / lower / upper rational distance constraints on named points.

    Point ids are arbitrary non-negative integers.  Bounds may be strict.
    Conflicting exact constraints on one pair are a usage error; a lower
    above an upper is merely an infeasible instance.
    """

    def __init__(self, points=()) -> None:
        self.points: list[int] = []
        self._seen: set[int] = set()
        self.exact: dict[tuple[int, int], Fraction] = {}
        self.lower: dict[tuple[int, int], tuple[Fraction, bool]] = {}
        self.upper: dict[tuple[int, int], tuple[Fraction, bool]] = {}
        for p in points:
            self.add_point(p)

    def add_point(self, p: int) -> None:
        if p < 0:
            raise UsageError("negative point id")
        if p not in self._seen:
            self._seen.add(p)
            self.points.append(p)

    def _key(self, a: int, b: int) -> tuple[int, int]:
        if a == b:
            raise UsageError("constraints need distinct points")
        self.add_point(a)
        self.add_point(b)
        return _pair(a, b)

    def add_exact(self, a: int, b: int, v: Fraction) -> None:
        key = self._key(a, b)
        v = _check_unit(v)
        if key in self.exact and self.exact[key] != v:
            raise UsageError(f"conflicting exact distances for {key}")
        self.exact[key] = v

    def add_lower(self, a: int, b: int, v: Fraction, strict: bool = False) -> None:
        key = self._key(a, b)
        v = _check_unit(v)
        old = self.lower.get(key)
        if old is None or _lower_stronger((v, strict), old):
            self.lower[key] = (v, strict)

    def add_upper(self, a: int, b: int, v: Fraction, strict: bool = False) -> None:
        key = self._key(a, b)
        v = _check_unit(v)
        old = self.upper.get(key)
        if old is None or _upper_stronger((v, strict), old):
            self.upper[key] = (v, strict)

    def to_text(self) -> str:
        lines = [f"point {p}" for p in sorted(self.points)]
        for (a, b), v in sorted(self.exact.items()):
            lines.append(f"dist {a} {b} {format_rat(v)}")
        for kind, table in (("lower", self.lower), ("upper", self.upper)):
            for (a, b), (v, strict) in sorted(table.items()):
                suffix = " strict" if strict else ""
                lines.append(f"{kind} {a} {b} {format_rat(v)}{suffix}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "PartialConstraintSet":
        ids: list[int] = []
        dists: dict[tuple[int, int], Fraction] = {}
        bounds: list[tuple[int, list[str]]] = []
        id_of: dict[str, int] = {}
        val_of: dict[str, Fraction] = {}
        for ln, parts in _lines(text):
            if parts[0] == "point":
                if len(parts) != 2:
                    raise UsageError(f"line {ln}: point takes one id")
                ids.append(_parse_id(parts[1], ln))
            elif parts[0] == "dist":
                a, b, v = _dist_line(ln, parts, id_of, val_of)
                if dists.get((a, b), v) != v:
                    raise UsageError(f"line {ln}: conflicting dist for {(a, b)}")
                dists[a, b] = v
            elif parts[0] in ("lower", "upper"):
                bounds.append((ln, parts))
            else:
                raise UsageError(f"line {ln}: unknown directive {parts[0]!r}")
        c = cls(ids)
        for (a, b), v in dists.items():
            c.add_exact(a, b, v)
        for ln, parts in bounds:
            try:
                if len(parts) not in (4, 5):
                    raise UsageError(f"{parts[0]} takes ids, value, [strict]")
                if len(parts) == 5 and parts[4] != "strict":
                    raise UsageError("trailing token must be 'strict'")
                a, b = parse_id(parts[1]), parse_id(parts[2])
                v = parse_rat01(parts[3])
            except UsageError as exc:
                raise UsageError(f"line {ln}: {exc}") from None
            strict = len(parts) == 5
            if parts[0] == "lower":
                c.add_lower(a, b, v, strict)
            else:
                c.add_upper(a, b, v, strict)
        return c


def _check_unit(v: Fraction) -> Fraction:
    if not 0 <= v <= 1:
        raise UsageError(f"constraint value {v} outside [0, 1]")
    return v


def _upper_stronger(new, old) -> bool:
    return new[0] < old[0] or (new[0] == old[0] and new[1] and not old[1])


def _lower_stronger(new, old) -> bool:
    return new[0] > old[0] or (new[0] == old[0] and new[1] and not old[1])


@dataclass
class Feasible:
    """Witness metric: complete distance map on the instance's points."""
    witness: dict[tuple[int, int], Fraction]


@dataclass
class Infeasible:
    """A violated-inequality chain.

    The chain a = p_0, ..., p_k = b commits upper bounds whose sum is an
    upper bound on d(a, b) incompatible with the stated requirement on
    (a, b).  kind is 'lower', 'exact' or 'positivity'.
    """
    pair: tuple[int, int]
    bound: Fraction
    bound_strict: bool
    kind: str
    chain: list[int]
    chain_bounds: list[tuple[Fraction, bool, str]]  # (value, strict, upper|exact|cap)


def dbm_entry(v: Fraction, strict: bool, den: int) -> int:
    """Integer entry of the bound "<= v" (or "< v" if strict) on the lattice
    1/den: 2*v*den - strict, so a smaller entry is a tighter bound and the
    order of entries is the order of _upper_stronger."""
    return 2 * v.numerator * (den // v.denominator) - strict


def dbm_close(m: list[list[int]]) -> list[list]:
    """Close a matrix of dbm_entry values in place (Mine's strict DBMs, 2001).

    m[i][j] bounds x_i - x_j.  Entries add as a + b + (a & b & 1), so two
    strict steps stay one strict step.  Afterwards the system is
    contradictory iff some m[i][i] < 0, and one more edge b from j to i is
    consistent iff b + m[i][j] >= 0 (the correction never flips that sign:
    two odd entries have an even sum).  Returns via, where via[i][j] is the
    last k that tightened m[i][j], or None.
    """
    n = len(m)
    via = [[None] * n for _ in range(n)]
    for k in range(n):
        rk = m[k]
        for i in range(n):
            row, vi = m[i], via[i]
            a = row[k]
            for j in range(n):
                b = rk[j]
                c = a + b + (a & b & 1)
                if c < row[j]:
                    row[j] = c
                    vi[j] = k
    return via


def feasible(c: PartialConstraintSet):
    """Decide whether a diameter-<=1 metric satisfies every constraint.

    Returns Feasible(witness) with an exact rational witness, or
    Infeasible(certificate) with a checkable chain.  Both passes close the
    upper bounds (exact values, uppers, and the cap 1 on every pair) with
    dbm_close.  The decision pass encodes "<= v" as 2*v*L and "< v" as
    2*v*L - 1 over the common denominator L, so dbm_close's sum
    a + b + (a & b & 1) keeps two strict steps one strict step.  Each
    pair's strongest lower-side requirement r (an entry bounding -d) is
    then one more edge: the pair is contradictory iff upper + r < 0, and
    the chain is read back from via.  The witness pass closes the all-even
    entries 2*(v*D - strict) with D = 4*max(n-1, 1)*L, i.e. each strict
    upper tightened by delta = 1/D, which stays on the safe side of the
    1/L input lattice because path sums stay on it.
    """
    pts = list(c.points)
    n = len(pts)
    idx = {p: i for i, p in enumerate(pts)}
    den = lcm(1, *(v.denominator for v in c.exact.values()),
              *(v.denominator for v, _ in c.lower.values()),
              *(v.denominator for v, _ in c.upper.values()))

    def system(lat: int, step: int):
        """Upper-bound matrix with entries 2*v*lat - step*strict, and the
        kind of input edge (exact, upper or the cap) behind each entry."""
        m = [[2 * lat] * n for _ in range(n)]
        kind = [["cap"] * n for _ in range(n)]
        for i in range(n):
            m[i][i] = 0
        bounds = [(key, v, False, "exact") for key, v in c.exact.items()]
        bounds += [(key, v, s, "upper") for key, (v, s) in c.upper.items()]
        for (a, b), v, s, k in bounds:
            i, j = idx[a], idx[b]
            e = dbm_entry(v, False, lat) - step * s
            if e < m[i][j]:
                m[i][j] = m[j][i] = e
                kind[i][j] = kind[j][i] = k
        return m, kind

    # Strongest lower-side requirement per pair as (entry bounding -d, value,
    # strict, kind); a pair without one needs d > 0.
    positivity = (-1, ZERO, True, "positivity")
    need = {}
    reqs = [(key, v, s, "lower") for key, (v, s) in c.lower.items()]
    reqs += [(key, v, False, "exact") for key, v in c.exact.items()]
    for key, v, s, k in reqs:
        e = dbm_entry(-v, s, den)
        if e < need.get(key, positivity)[0]:
            need[key] = (e, v, s, k)

    closed, kind = system(den, 1)
    base = [row.copy() for row in closed]
    via = dbm_close(closed)

    def chain_of(i, j, stack=()) -> list[int] | None:
        """Points of the path behind closed[i][j]; None if via loops, which
        only going round a zero-weight strict cycle (an upper "< 0") does."""
        k = via[i][j]
        if k is None:
            return [i, j]
        if (i, j) in stack:
            return None
        stack += ((i, j),)
        left, right = chain_of(i, k, stack), chain_of(k, j, stack)
        return None if left is None or right is None else left[:-1] + right

    pairs = list(itertools.combinations(range(n), 2))
    for i, j in pairs:
        if closed[i][j] + need.get(_pair(pts[i], pts[j]), positivity)[0] >= 0:
            continue
        chain = chain_of(i, j)
        if chain is None:
            # the first upper "< 0" contradicts its pair's requirement alone
            i, j = next((x, y) for x, y in pairs if base[x][y] < 0)
            chain = [i, j]
        _, lo, lo_strict, lo_kind = need.get(_pair(pts[i], pts[j]), positivity)
        bounds = []
        for x, y in zip(chain, chain[1:]):
            s = base[x][y] & 1
            bounds.append((Fraction((base[x][y] + s) // 2, den), bool(s),
                           kind[x][y]))
        return Infeasible(
            pair=(pts[i], pts[j]), bound=lo, bound_strict=lo_strict,
            kind=lo_kind, chain=[pts[x] for x in chain], chain_bounds=bounds)

    lat = 4 * max(n - 1, 1) * den
    tight, _ = system(lat, 2)
    dbm_close(tight)
    witness: dict[tuple[int, int], Fraction] = {}
    for i, j in pairs:
        key = _pair(pts[i], pts[j])
        _, lo, lo_strict, _ = need.get(key, positivity)
        if tight[i][j] < dbm_entry(lo, False, lat) + 2 * lo_strict:
            # proven unreachable; guards against solver bugs
            raise RuntimeError("tightened witness lost a lower bound")
        witness[key] = Fraction(tight[i][j], 2 * lat)
    return Feasible(witness)


def check_witness(c: PartialConstraintSet, witness: dict) -> None:
    """Independent re-verification of a feasibility witness; raises on failure."""
    pts = list(c.points)
    for a, b in itertools.combinations(pts, 2):
        v = witness[_pair(a, b)]
        if not 0 < v <= 1:
            raise AssertionError(f"witness d({a},{b}) = {v} outside (0, 1]")
    for a, b, x in itertools.permutations(pts, 3):
        if a < b:
            if witness[_pair(a, b)] > witness[_pair(a, x)] + witness[_pair(x, b)]:
                raise AssertionError(f"witness triangle violated on ({a},{b}) via {x}")
    for (a, b), v in c.exact.items():
        if witness[_pair(a, b)] != v:
            raise AssertionError(f"witness misses exact d({a},{b}) = {v}")
    for (a, b), (v, s) in c.lower.items():
        w = witness[_pair(a, b)]
        if w < v or (s and w == v):
            raise AssertionError(f"witness violates lower bound on ({a},{b})")
    for (a, b), (v, s) in c.upper.items():
        w = witness[_pair(a, b)]
        if w > v or (s and w == v):
            raise AssertionError(f"witness violates upper bound on ({a},{b})")


def check_certificate(c: PartialConstraintSet, cert: Infeasible) -> None:
    """Re-verify an infeasibility chain against the instance; raises on failure."""
    a, b = cert.pair
    if cert.chain[0] != a or cert.chain[-1] != b:
        raise AssertionError("chain endpoints do not match the violated pair")
    total, total_strict = ZERO, False
    for (x, y), (v, s, k) in zip(zip(cert.chain, cert.chain[1:]), cert.chain_bounds):
        key = _pair(x, y)
        if k == "cap":
            if v != 1 or s:
                raise AssertionError("cap edge must be a non-strict 1")
        elif k == "exact":
            if c.exact.get(key) != v or s:
                raise AssertionError(f"exact edge {key} not in the instance")
        elif k == "upper":
            if c.upper.get(key) != (v, s):
                raise AssertionError(f"upper edge {key} not in the instance")
        else:
            raise AssertionError(f"unknown edge kind {k!r}")
        total += v
        total_strict = total_strict or s
    if cert.kind == "positivity":
        req, req_strict = ZERO, True
        if cert.bound != 0:
            raise AssertionError("positivity bound must be 0")
    elif cert.kind == "lower":
        req, req_strict = c.lower[_pair(a, b)]
        if (req, req_strict) != (cert.bound, cert.bound_strict):
            raise AssertionError("stated lower bound not in the instance")
    elif cert.kind == "exact":
        if c.exact.get(_pair(a, b)) != cert.bound or cert.bound_strict:
            raise AssertionError("stated exact bound not in the instance")
        req, req_strict = cert.bound, False
    else:
        raise AssertionError(f"unknown requirement kind {cert.kind!r}")
    # the chain caps d(a,b) at (total, total_strict); the requirement must
    # make that interval empty
    if req < total or (req == total and not req_strict and not total_strict):
        raise AssertionError("chain does not contradict the requirement")


# --- canonical universal prefix ----------------------------------------------


def stage_params(t: int) -> tuple[int, int]:
    """Stage t >= 0 of the canonical schedule -> (max subset size, denom bound).

    Stages group by denominator bound B = 2, 4, 8, ... with odd subset-size
    caps 1, 3, ..., 2*log2(B) - 1 inside each group:
    (1,2), (1,4), (3,4), (1,8), (3,8), (5,8), (1,16), ...
    """
    if t < 0:
        raise UsageError("negative stage")
    e = 1
    start = 0
    while start + e <= t:
        start += e
        e += 1
    return 2 * (t - start) + 1, 2 ** e


def denom_values(bound: int) -> list[Fraction]:
    """All rationals in (0, 1] with denominator <= bound, ascending."""
    vals = {Fraction(p, q) for q in range(1, bound + 1) for p in range(1, q + 1)}
    return sorted(vals)


@dataclass
class QUPrefix:
    """Finite prefix of the canonical universal rational metric space.

    space grows only by schedule items (and targeted isometry extensions);
    (stage, pos) is the replayable schedule cursor, snapshots[t] the space
    size when stage t started.  resume, where _walk picks up (stage, pos
    at which the cursor's anchor subset starts, that subset), is not text
    and not compared; copies share it.
    """
    space: FinMetric = field(default_factory=FinMetric)
    stage: int = 0
    pos: int = 0
    snapshots: list[int] = field(default_factory=lambda: [0])
    resume: tuple | None = field(default=None, compare=False, repr=False)

    def copy(self) -> "QUPrefix":
        return QUPrefix(self.space.copy(), self.stage, self.pos,
                        list(self.snapshots), self.resume)

    def to_text(self) -> str:
        parts = self.space._text_parts()
        parts += [f"snapshot {t} {size}\n" for t, size in enumerate(self.snapshots)]
        parts.append(f"cursor {self.stage} {self.pos}\n")
        return "".join(parts)

    @classmethod
    def from_text(cls, text: str) -> "QUPrefix":
        return cls.from_points(*_read_points(text, allow_extra=True))

    @classmethod
    def from_points(cls, space: FinMetric, extra) -> "QUPrefix":
        """The prefix of a space and the extra lines that _read_points
        returned with it: its snapshot and cursor lines."""
        snapshots: dict[int, int] = {}
        cursor = None
        for ln, parts in extra:
            if parts[0] == "snapshot" and len(parts) == 3:
                snapshots[_parse_id(parts[1], ln)] = _parse_id(parts[2], ln)
            elif parts[0] == "cursor" and len(parts) == 3:
                cursor = (_parse_id(parts[1], ln), _parse_id(parts[2], ln))
            else:
                raise UsageError(f"line {ln}: unknown directive {parts[0]!r}")
        if cursor is None:
            raise UsageError("prefix file lacks a cursor line")
        if sorted(snapshots) != list(range(len(snapshots))):
            raise UsageError("snapshot stages must be 0..t")
        stage, pos = cursor
        if len(snapshots) != stage + 1:
            raise UsageError("snapshot count does not match cursor stage")
        snaps = [snapshots[t] for t in range(len(snapshots))]
        if any(s > space.n for s in snaps):
            raise UsageError("snapshot larger than the space")
        return cls(space, stage, pos, snaps)


def _extension_types(space: FinMetric, anchors: tuple[int, ...],
                     values: list[int]):
    """Admissible distance vectors over the anchor tuple, lex order, as
    numerators over the space's denominator."""
    k = len(anchors)
    if k == 0:
        yield ()
        return
    dmat = [[space._num(a, b) for b in anchors] for a in anchors]
    picked: list[int] = []

    def rec(i: int):
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


def _next_subset(anchors: tuple[int, ...], n: int, k: int):
    """The subset of range(n) after anchors by (size, lex), sizes <= k, or None."""
    s = len(anchors)
    for i in reversed(range(s)):
        if anchors[i] < n - s + i:
            return anchors[:i] + tuple(range(anchors[i] + 1, anchors[i] + 1 + s - i))
    return tuple(range(s + 1)) if s < min(k, n) else None


def _amalgam(top: int, n: int, cols: list[list[int]], typ: tuple[int, ...],
             sigs=None) -> list[int]:
    """Distances of a new point to points 0..n-1 at the admissible anchor
    distances typ: the one-point amalgam min(top, min_a(r_a + d(a, z))),
    where cols[i] holds d(anchors[i], z) and top is 1 over the same
    denominator.  Admissibility makes it r_a at each anchor a.  Given sigs,
    every point's signature (tuple of anchor distances), it is computed
    once per signature and looked up per point; else point by point."""
    if not cols:
        return [top] * n
    vals = map(min, itertools.repeat(top), *[map(r.__add__, c) for r, c in zip(
        typ, cols if sigs is None else zip(*sigs))])
    if sigs is None:
        return list(vals)
    return list(map(dict(zip(sigs, vals)).__getitem__, zip(*cols)))


def append_point_completion(space: FinMetric, known: dict[int, Fraction]) -> int:
    """Append a point with pinned distances to some anchors, completing the rest.

    known maps anchor ids to distances in (0, 1].  Distances to points not in
    known take the largest 1-Lipschitz fill min(1, min_a(r_a + d(a, z))).
    Returns the new point's id.  Inadmissible pins are a precondition error.
    """
    anchors = tuple(sorted(known))
    for a in anchors:
        if a not in space.points:
            raise UsageError(f"anchor {a} not in the space")
    typ = tuple(known[a] for a in anchors)
    for a, v in zip(anchors, typ):
        if v == 0:
            raise PreconditionError(f"distance 0 to {a} would duplicate it")
        if not 0 < v <= 1:
            raise UsageError(f"distance {v} to {a} outside (0, 1]")
    nums = tuple(space._lattice(typ))
    if not _admissible_over(space._num, anchors, nums):
        raise PreconditionError("pinned distances violate a triangle bound")
    return space._append_row(_amalgam(space._den, space.n,
                                      [space._column(a) for a in anchors], nums))


def _walk(out: QUPrefix):
    """Advance out's schedule cursor in place, item by item.

    Yields True after each item and False after each roll to the next
    stage.  Items are (anchor subset, type) pairs, subsets of the stage-start
    snapshot by (size, lex), types by lex; the walk counts to the cursor from
    out.resume if that is in the stage and not past it, else from its start.
    A point realizing the type, found through an index from anchor signature
    to the smallest point with it (built per subset, kept up to date on
    append), skips the item; else a new point realizes it.
    """
    space = out.space
    while True:
        k, bound = stage_params(out.stage)
        values = space._lattice(denom_values(bound))
        stage, start, anchors = out.resume or (None, 0, ())
        if stage != out.stage or start > out.pos:
            start, anchors = 0, ()
        while anchors is not None:
            out.resume = (out.stage, start, anchors)
            types = _extension_types(space, anchors, values)
            start += sum(1 for _ in itertools.islice(types, out.pos - start))
            index = None
            for typ in types:
                if index is None:
                    cols = [space._column(a) for a in anchors]
                    index = {} if anchors or not space.n else {(): 0}
                    for p, sig in enumerate(zip(*cols)):
                        index.setdefault(sig, p)
                if typ not in index:
                    index[typ] = space._append_row(
                        _amalgam(space._den, space.n, cols, typ, index))
                    for col, r in zip(cols, typ):
                        col.append(r)
                out.pos += 1
                yield True
            if index is not None:
                start = out.pos
            anchors = _next_subset(anchors, out.snapshots[out.stage], k)
        out.stage += 1
        out.pos = 0
        out.resume = None
        out.snapshots.append(space.n)
        yield False


def qu_extend(prefix: QUPrefix, steps: int) -> QUPrefix:
    """Advance the canonical schedule by the given number of items.

    Each item is one (subset, admissible extension type) pair: it is skipped
    if some existing point already realizes the type, else realized by
    appending a new point.  Pure: the input prefix is not modified.
    Replaying any number of steps from the empty prefix is fully
    deterministic, and extending in chunks equals extending at once.
    """
    if steps < 0:
        raise UsageError("steps must be >= 0")
    out = prefix.copy()
    advance(out, steps)
    return out


def advance(prefix: QUPrefix, steps: int) -> None:
    """qu_extend in place: advance prefix's schedule by steps items."""
    walk = _walk(prefix)
    while steps:
        if next(walk):
            steps -= 1


def qu_complete_stage(prefix: QUPrefix, through_stage: int) -> QUPrefix:
    """Extend until the cursor sits at the start of stage through_stage + 1."""
    out = prefix.copy()
    if out.stage <= through_stage:
        for _ in _walk(out):
            if out.stage > through_stage:
                break
    return out


# --- partial isometries ------------------------------------------------------


@dataclass
class PartialIsometry:
    """Finite distance-preserving injection between point sets of one space."""
    pairs: list[tuple[int, int]] = field(default_factory=list)

    @classmethod
    def identity(cls, ids) -> "PartialIsometry":
        return cls([(i, i) for i in ids])

    @property
    def sources(self) -> list[int]:
        return [s for s, _ in self.pairs]

    @property
    def targets(self) -> list[int]:
        return [t for _, t in self.pairs]

    def defined_on(self, x: int) -> bool:
        return any(s == x for s, _ in self.pairs)

    def apply(self, x: int) -> int:
        for s, t in self.pairs:
            if s == x:
                return t
        raise PreconditionError(f"isometry undefined on point {x}")

    def apply_tuple(self, xs) -> tuple[int, ...]:
        return tuple(self.apply(x) for x in xs)

    def inverse(self) -> "PartialIsometry":
        return PartialIsometry([(t, s) for s, t in self.pairs])

    def compose(self, other: "PartialIsometry") -> "PartialIsometry":
        """self after other, on the sources where the composite is defined."""
        pairs = []
        for s, t in other.pairs:
            if self.defined_on(t):
                pairs.append((s, self.apply(t)))
        return PartialIsometry(pairs)

    def extend(self, source: int, target: int) -> "PartialIsometry":
        return PartialIsometry(self.pairs + [(source, target)])

    def validate(self, space: FinMetric) -> None:
        srcs, tgts = self.sources, self.targets
        pts = space.points
        for p in srcs + tgts:
            if p not in pts:
                raise UsageError(f"isometry names unknown point {p}")
        if len(set(srcs)) != len(srcs) or len(set(tgts)) != len(tgts):
            raise PreconditionError("isometry must be injective")
        num = space._num
        for (s1, t1), (s2, t2) in itertools.combinations(self.pairs, 2):
            if num(s1, s2) != num(t1, t2):
                raise PreconditionError(
                    f"not distance-preserving on ({s1},{s2}) -> ({t1},{t2})")

    def to_text(self) -> str:
        return "".join(f"pair {s} {t}\n" for s, t in self.pairs)

    @classmethod
    def from_text(cls, text: str) -> "PartialIsometry":
        pairs = []
        for ln, parts in _lines(text):
            if parts[0] != "pair" or len(parts) != 3:
                raise UsageError(f"line {ln}: expected 'pair <src> <tgt>'")
            pairs.append((_parse_id(parts[1], ln), _parse_id(parts[2], ln)))
        return cls(pairs)


def extend_partial_isometry(prefix: QUPrefix, gamma: PartialIsometry,
                            new_sources) -> tuple[QUPrefix, PartialIsometry]:
    """Extend gamma over the new source points, one at a time.

    Each source takes the smallest existing point realizing the mirrored
    distance vector over gamma's targets; if none exists a targeted point is
    appended (this grows the space outside the schedule, recorded in the
    returned prefix).  The input prefix and gamma are not modified.
    """
    gamma.validate(prefix.space)
    out = prefix.copy()
    g = PartialIsometry(list(gamma.pairs))
    for c in new_sources:
        if c not in out.space.points:
            raise UsageError(f"unknown source point {c}")
        if g.defined_on(c):
            continue
        typ = tuple(out.space._num(c, s) for s in g.sources)
        g = g.extend(c, extension_image(out.space, tuple(g.targets), typ))
    g.validate(out.space)
    return out, g


def extension_image(space: FinMetric, anchors: tuple[int, ...],
                    typ: tuple[int, ...], accept=None) -> int | None:
    """Image of a point at distance numerators typ from the anchors, the
    targets of the partial isometry being extended: the smallest exact
    mirror (d(p, a) = r for each anchor a and its r in typ) that accept
    takes, else a point appended there by the amalgam if accept takes it,
    else None with the space as it was.  accept=None takes any point."""
    cols = [space._column(a) for a in anchors]
    cands = space.points if not anchors else (
        p for p, col in enumerate(zip(*cols)) if col == typ)
    for p in cands:
        if accept is None or accept(p):
            return p
    w = space._append_row(_amalgam(space._den, space.n, cols, typ))
    if accept is None or accept(w):
        return w
    space.truncate(w)
    return None
