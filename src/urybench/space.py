"""The logic space over a growing metric prefix: sequence enumeration,
the truncated metric between structures, and basic cones with exact
diameters.

Structures sharing a carrier are compared through a fixed enumeration of
(relation, tuple) slots; weight 2^-i at slot i makes the comparison a
metric whose truncations give certified two-sided bounds.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import PreconditionError, UsageError
from .logic import FinStructure, Signature
from .metric import FinMetric, _lines, dbm_close, dbm_entry, parse_id
from .rat import ONE, ZERO, Rat01, format_rat, parse_rat


def _tuple_rank(tup) -> int:
    """Position of tup in the (max coordinate, lex) order on id tuples."""
    a = len(tup)
    m = max(tup)
    pos = 0
    seen = False
    for i, x in enumerate(tup):
        rem = a - i - 1
        if seen:
            pos += x * (m + 1) ** rem
        else:
            pos += x * ((m + 1) ** rem - m ** rem)
        seen = seen or x == m
    return m ** a + pos


def _tuples_by_rank(arity: int):
    for m in itertools.count(0):
        for tup in itertools.product(range(m + 1), repeat=arity):
            if max(tup) == m:
                yield tup


class SeqIndex:
    """1-based enumeration of (relation, tuple) slots.

    Relations and per-relation tuple ranks are interleaved along
    anti-diagonals, so every slot gets a finite index and indices do not
    change when the carrier grows: tuples touching a fresh point sort
    after everything older.
    """

    def __init__(self, sig: Signature):
        if not sig.relations:
            raise UsageError("enumeration needs at least one relation")
        self.sig = sig
        self._unrank_cache = {r.name: [] for r in sig.relations}
        self._unrank_gens = {r.name: _tuples_by_rank(r.arity)
                             for r in sig.relations}

    def _tuple_at(self, rel: str, rank: int):
        cache = self._unrank_cache[rel]
        gen = self._unrank_gens[rel]
        while len(cache) <= rank:
            cache.append(next(gen))
        return cache[rank]

    def pair(self, index: int):
        """Slot at 1-based index, as (relation name, id tuple)."""
        if index < 1:
            raise UsageError("enumeration index must be >= 1")
        rels = self.sig.relations
        nrel = len(rels)
        rest = index - 1
        s = 0
        while rest >= min(s + 1, nrel):
            rest -= min(s + 1, nrel)
            s += 1
        j = rest
        return rels[j].name, self._tuple_at(rels[j].name, s - j)

    def index_of(self, rel: str, tup) -> int:
        rels = self.sig.relations
        nrel = len(rels)
        j = next((i for i, r in enumerate(rels) if r.name == rel), None)
        if j is None:
            raise UsageError(f"unknown relation {rel!r}")
        if len(tup) != rels[j].arity:
            raise UsageError(f"arity mismatch for {rel}")
        if any(i < 0 for i in tup):
            raise UsageError("negative point id")
        s = j + _tuple_rank(tuple(tup))
        if s < nrel:
            before = s * (s + 1) // 2
        else:
            before = nrel * (nrel + 1) // 2 + (s - nrel) * nrel
        return before + j + 1


def delta_seq(M: FinStructure, N: FinStructure, m: int):
    """Two-sided bounds on the sequence metric between M and N.

    lo sums the first m weighted slot differences; slots whose tuple
    leaves the shared carrier contribute 0.  The tail is at most 2^-m,
    so the untruncated value lies in [lo, lo + 2^-m].
    """
    if m < 1:
        raise UsageError("truncation depth must be >= 1")
    if M.sig != N.sig:
        raise PreconditionError("signatures differ")
    if M.space != N.space:
        raise PreconditionError("carriers differ")
    seq = SeqIndex(M.sig)
    n = M.space.n
    lo = ZERO
    for i in range(1, m + 1):
        rel, tup = seq.pair(i)
        if all(x < n for x in tup):
            gap = abs(M.value(rel, tup) - N.value(rel, tup))
            lo += Fraction(1, 2 ** i) * gap
    return lo, lo + Fraction(1, 2 ** m)


@dataclass(frozen=True)
class ConeConstraint:
    rel: str
    tup: tuple
    lo: Rat01
    hi: Rat01
    lo_open: bool
    hi_open: bool

    def admits(self, v: Rat01) -> bool:
        if v < self.lo or (self.lo_open and v == self.lo):
            return False
        if v > self.hi or (self.hi_open and v == self.hi):
            return False
        return True

    def flags(self) -> str:
        return (("o" if self.lo_open else "c")
                + ("o" if self.hi_open else "c"))


class StructureCone:
    """A basic open set of the logic topology: finitely many interval
    constraints on enumerated slots."""

    def __init__(self, sig: Signature, constraints):
        self.sig = sig
        self.constraints = list(constraints)
        seen = set()
        for c in self.constraints:
            spec = sig.get(c.rel)
            if spec is None:
                raise UsageError(f"unknown relation {c.rel!r}")
            if len(c.tup) != spec.arity:
                raise UsageError(f"arity mismatch for {c.rel}{c.tup}")
            if any(i < 0 for i in c.tup):
                raise UsageError("negative point id")
            if not (0 <= c.lo < c.hi <= 1):
                raise UsageError(
                    f"need 0 <= lo < hi <= 1 on {c.rel}{c.tup}")
            key = (c.rel, c.tup)
            if key in seen:
                raise UsageError(f"duplicate constraint on {c.rel}{c.tup}")
            seen.add(key)

    def to_text(self) -> str:
        lines = []
        for c in self.constraints:
            ids = " ".join(str(i) for i in c.tup)
            lines.append(f"con {c.rel} {ids} {format_rat(c.lo)} "
                         f"{format_rat(c.hi)} {c.flags()}")
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def from_text(cls, text: str, sig: Signature) -> "StructureCone":
        cons = []
        for ln, parts in _lines(text):
            try:
                if parts[0] != "con" or len(parts) < 5:
                    raise UsageError(f"unrecognized {parts[0]!r} line")
                spec = sig.get(parts[1])
                if spec is None:
                    raise UsageError(f"unknown relation {parts[1]!r}")
                if len(parts) != 5 + spec.arity:
                    raise UsageError(f"con line for {spec.name} needs "
                                     f"{5 + spec.arity} tokens")
                tup = tuple(parse_id(x) for x in parts[2:-3])
                lo, hi = parse_rat(parts[-3]), parse_rat(parts[-2])
                fl = parts[-1]
                if fl not in ("oo", "oc", "co", "cc"):
                    raise UsageError(f"bad flags {fl!r}")
            except UsageError as exc:
                raise UsageError(f"line {ln}: {exc}") from None
            cons.append(ConeConstraint(parts[1], tup, lo, hi,
                                       fl[0] == "o", fl[1] == "o"))
        return cls(sig, cons)


def cone_diam(cone: StructureCone) -> Rat01:
    """Exact diameter of the cone in the sequence metric:
    1 - sum over constrained slots i of 2^-i * (1 - width_i)."""
    seq = SeqIndex(cone.sig)
    out = ONE
    for c in cone.constraints:
        i = seq.index_of(c.rel, c.tup)
        out -= Fraction(1, 2 ** i) * (ONE - (c.hi - c.lo))
    return out


def cone_member(M, cone: StructureCone) -> bool:
    """Does the structure's table satisfy every interval constraint?

    M needs a carrier (space) and a value(rel, tuple) map, so both
    finite structures and lazy oracle points qualify.
    """
    n = M.space.n
    for c in cone.constraints:
        if any(x >= n for x in c.tup):
            raise PreconditionError(f"tuple {c.tup} outside carrier")
        if not c.admits(M.value(c.rel, c.tup)):
            return False
    return True


def _slot_system(sig: Signature, space: FinMetric, cones):
    """Shared difference-bound scaffolding over the slots referenced by
    the given cones: unit-interval edges plus modulus couplings.
    Variable 0 is the zero point."""
    n = space.n
    slot_id = {}
    for cone in cones:
        for c in cone.constraints:
            if any(x >= n for x in c.tup):
                raise PreconditionError(f"tuple {c.tup} outside carrier")
            key = (c.rel, c.tup)
            if key not in slot_id:
                slot_id[key] = len(slot_id) + 1
    edges = []
    for key, vid in slot_id.items():
        edges.append((vid, 0, ONE, False))   # x <= 1
        edges.append((0, vid, ZERO, False))  # x >= 0
    for (r1, t1), v1 in slot_id.items():
        for (r2, t2), v2 in slot_id.items():
            if v1 < v2 and r1 == r2:
                cap = sig.get(r1).coeff * space.tuple_dist(t1, t2)
                edges.append((v1, v2, cap, False))
                edges.append((v2, v1, cap, False))
    return slot_id, edges


def _interval_edges(cone, slot_id):
    out = []
    for c in cone.constraints:
        vid = slot_id[(c.rel, c.tup)]
        out.append((0, vid, -c.lo, c.lo_open))  # x >= lo
        out.append((vid, 0, c.hi, c.hi_open))   # x <= hi
    return out


def _consistent(nvars: int, edges, extra):
    """None if the system of edges (i, j, bound, strict), each meaning
    x_i - x_j <= bound (< if strict), is contradictory; otherwise, for each
    extra edge, whether the system stays consistent with it added.  Every
    pair starts at the bound 1, which the unit-interval edges imply through
    variable 0."""
    den = lcm(*(bound.denominator for _, _, bound, _ in edges + extra))
    m = [[2 * den] * nvars for _ in range(nvars)]
    for i in range(nvars):
        m[i][i] = 0
    for i, j, bound, strict in edges:
        m[i][j] = min(m[i][j], dbm_entry(bound, strict, den))
    dbm_close(m)
    if any(m[i][i] < 0 for i in range(nvars)):
        return None
    return [dbm_entry(b, strict, den) + m[v][u] >= 0
            for u, v, b, strict in extra]


def cone_nonempty(cone: StructureCone, space: FinMetric) -> bool:
    """Is some structure on the carrier inside the cone?"""
    slot_id, edges = _slot_system(cone.sig, space, [cone])
    edges += _interval_edges(cone, slot_id)
    return _consistent(len(slot_id) + 1, edges, []) is not None


def cone_subset(c1: StructureCone, c2: StructureCone,
                space: FinMetric) -> bool:
    """Decide whether every structure on the carrier realizing c1 also
    realizes c2.

    The base system over the referenced slots (c1's interval bounds, the
    unit interval and the modulus couplings between same-relation slots)
    is closed once by metric.dbm_close, on entries 2*v*L - strict over the
    common denominator L, with strict sums corrected to a + b + (a & b & 1).
    If it is contradictory, c1 is empty.  Otherwise each way of breaking
    one c2 constraint, x <= lo or x >= hi, is one more edge (u, v, b), and
    it is consistent with c1 iff b + closed[v][u] >= 0, an O(1) test; c1 is
    a subset of c2 exactly when no such edge is consistent.  Any partial
    slot assignment satisfying the couplings extends to a total structure,
    so the finite system is conclusive.
    """
    if c1.sig != c2.sig:
        raise PreconditionError("signatures differ")
    slot_id, edges = _slot_system(c1.sig, space, [c1, c2])
    edges += _interval_edges(c1, slot_id)
    breaks = []
    for c in c2.constraints:
        vid = slot_id[(c.rel, c.tup)]
        breaks.append((vid, 0, c.lo, not c.lo_open))   # x <= lo
        breaks.append((0, vid, -c.hi, not c.hi_open))  # x >= hi
    ok = _consistent(len(slot_id) + 1, edges, breaks)
    return ok is None or not any(ok)
