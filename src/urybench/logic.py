"""Continuous first-order formulas over finite rational metric structures.

Formulas take values in [0, 1].  Every connective is 1-Lipschitz apart
from scalar truncated multiplication, which lets a linear inverse
continuity modulus k*id be inferred structurally for any formula.
Quantifiers are exact min/max over a finite carrier; interval evaluation
accounts for the carrier being only an r-dense prefix of the intended
space.
"""

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Union

from .errors import PreconditionError, UsageError
from .metric import FinMetric, QUPrefix, _read_points, parse_id
from .rat import (ONE, ZERO, Rat01, check_rat01, format_rat, parse_rat,
                  parse_rat01)

KEYWORDS = ("neg", "half", "tsub", "tadd", "tmul", "min", "max", "absdiff",
            "sup", "inf", "d")

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_INT = re.compile(r"[0-9]+")


@dataclass(frozen=True)
class RelSpec:
    name: str
    arity: int
    coeff: Fraction  # inverse continuity modulus is coeff * id


class Signature:
    """Relation symbols with arities and linear modulus coefficients.

    The metric symbol d is implicit and always available; declared names
    must not collide with it or with the connective keywords.
    """

    def __init__(self, relations):
        self.relations = list(relations)
        seen = set()
        for r in self.relations:
            if not _IDENT.fullmatch(r.name) or r.name in KEYWORDS:
                raise UsageError(f"bad relation name {r.name!r}")
            if r.name in seen:
                raise UsageError(f"duplicate relation {r.name}")
            seen.add(r.name)
            if not isinstance(r.arity, int) or r.arity < 1:
                raise UsageError(f"bad arity for {r.name}")
            coeff = Fraction(r.coeff)
            if coeff <= 0:
                raise UsageError(f"modulus coefficient for {r.name} must be positive")
        self._by_name = {r.name: r for r in self.relations}

    def get(self, name: str) -> Optional[RelSpec]:
        return self._by_name.get(name)

    def __eq__(self, other):
        return isinstance(other, Signature) and self.relations == other.relations


def parse_rel(parts: list[str], where: str) -> RelSpec:
    """The relation of a `rel <name> <arity> mod <coeff>` line's tokens;
    where prefixes every error."""
    if parts[0] != "rel" or len(parts) != 5 or parts[3] != "mod":
        raise UsageError(f"{where}expected 'rel <name> <arity> mod <coeff>'")
    return RelSpec(parts[1], parse_id(parts[2], "arity", where),
                   parse_rat(parts[4], where))


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Pt:
    id: int


Term = Union[Var, Pt]


@dataclass(frozen=True)
class Const:
    value: Rat01


@dataclass(frozen=True)
class Atom:
    rel: str
    args: tuple


@dataclass(frozen=True)
class D:
    left: Term
    right: Term


@dataclass(frozen=True)
class Neg:
    sub: "Formula"


@dataclass(frozen=True)
class Half:
    sub: "Formula"


@dataclass(frozen=True)
class TMul:
    scale: Fraction
    sub: "Formula"


@dataclass(frozen=True)
class TSub:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class TAdd:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class AbsDiff:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Min:
    subs: tuple


@dataclass(frozen=True)
class Max:
    subs: tuple


@dataclass(frozen=True)
class Sup:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class Inf:
    var: str
    body: "Formula"


Formula = Union[Const, Atom, D, Neg, Half, TMul, TSub, TAdd, AbsDiff, Min,
                Max, Sup, Inf]


def free_vars(f: Formula) -> frozenset:
    if isinstance(f, Const):
        return frozenset()
    if isinstance(f, (Atom, D)):
        args = f.args if isinstance(f, Atom) else (f.left, f.right)
        return frozenset(t.name for t in args if isinstance(t, Var))
    if isinstance(f, (Neg, Half, TMul)):
        return free_vars(f.sub)
    if isinstance(f, (TSub, TAdd, AbsDiff)):
        return free_vars(f.left) | free_vars(f.right)
    if isinstance(f, (Min, Max)):
        out = frozenset()
        for s in f.subs:
            out |= free_vars(s)
        return out
    if isinstance(f, (Sup, Inf)):
        return free_vars(f.body) - {f.var}
    raise TypeError(f"not a formula: {f!r}")


def _format_term(t: Term) -> str:
    return t.name if isinstance(t, Var) else str(t.id)


def format_formula(f: Formula) -> str:
    if isinstance(f, Const):
        return format_rat(f.value)
    if isinstance(f, Atom):
        return f"{f.rel}({', '.join(map(_format_term, f.args))})"
    if isinstance(f, D):
        return f"d({_format_term(f.left)}, {_format_term(f.right)})"
    if isinstance(f, Neg):
        return f"neg({format_formula(f.sub)})"
    if isinstance(f, Half):
        return f"half({format_formula(f.sub)})"
    if isinstance(f, TMul):
        return f"tmul({format_rat(f.scale)}, {format_formula(f.sub)})"
    if isinstance(f, TSub):
        return f"tsub({format_formula(f.left)}, {format_formula(f.right)})"
    if isinstance(f, TAdd):
        return f"tadd({format_formula(f.left)}, {format_formula(f.right)})"
    if isinstance(f, AbsDiff):
        return f"absdiff({format_formula(f.left)}, {format_formula(f.right)})"
    if isinstance(f, Min):
        return f"min({', '.join(map(format_formula, f.subs))})"
    if isinstance(f, Max):
        return f"max({', '.join(map(format_formula, f.subs))})"
    if isinstance(f, Sup):
        return f"sup({f.var}, {format_formula(f.body)})"
    if isinstance(f, Inf):
        return f"inf({f.var}, {format_formula(f.body)})"
    raise TypeError(f"not a formula: {f!r}")


class _Parser:
    """Recursive-descent parser for the function-style formula syntax."""

    def __init__(self, text: str, sig: Signature, where: str = ""):
        self.text = text
        self.sig = sig
        self.pos = 0
        self.where = where

    def fail(self, msg: str):
        raise UsageError(f"{self.where}{msg} at position {self.pos}")

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _expect(self, ch: str):
        if self._peek() != ch:
            self.fail(f"expected {ch!r}")
        self.pos += 1

    def _ident(self) -> str:
        self._skip_ws()
        m = _IDENT.match(self.text, self.pos)
        if not m:
            self.fail("expected identifier")
        self.pos = m.end()
        return m.group()

    def _int(self) -> int:
        self._skip_ws()
        m = _INT.match(self.text, self.pos)
        if not m:
            self.fail("expected integer")
        self.pos = m.end()
        return int(m.group())

    def _rational(self) -> Fraction:
        p = self._int()
        if self.pos < len(self.text) and self.text[self.pos] == "/":
            self.pos += 1
            q = self._int()
            if q == 0:
                self.fail("zero denominator")
            return Fraction(p, q)
        return Fraction(p)

    def _term(self) -> Term:
        c = self._peek()
        if c.isdigit():
            return Pt(self._int())
        start = self.pos
        name = self._ident()
        if name in KEYWORDS or self.sig.get(name) is not None:
            self.pos = start
            self.fail(f"{name!r} cannot be used as a variable")
        return Var(name)

    def _args(self, parse_one, n: Optional[int] = None) -> list:
        self._expect("(")
        out = [parse_one()]
        while self._peek() == ",":
            self.pos += 1
            out.append(parse_one())
        self._expect(")")
        if n is not None and len(out) != n:
            self.fail(f"expected {n} arguments, got {len(out)}")
        return out

    def formula(self) -> Formula:
        c = self._peek()
        if c == "":
            self.fail("unexpected end of input")
        if c.isdigit():
            v = self._rational()
            if not 0 <= v <= 1:
                self.fail(f"constant {v} outside [0, 1]")
            return Const(v)
        start = self.pos
        name = self._ident()
        if name == "d":
            a, b = self._args(self._term, 2)
            return D(a, b)
        if name == "neg":
            return Neg(self._args(self.formula, 1)[0])
        if name == "half":
            return Half(self._args(self.formula, 1)[0])
        if name == "tmul":
            self._expect("(")
            q = self._rational()
            if q <= 0:
                self.fail("tmul scale must be positive")
            self._expect(",")
            sub = self.formula()
            self._expect(")")
            return TMul(q, sub)
        if name == "tsub":
            a, b = self._args(self.formula, 2)
            return TSub(a, b)
        if name == "tadd":
            a, b = self._args(self.formula, 2)
            return TAdd(a, b)
        if name == "absdiff":
            a, b = self._args(self.formula, 2)
            return AbsDiff(a, b)
        if name in ("min", "max"):
            subs = self._args(self.formula)
            if len(subs) < 2:
                self.fail(f"{name} needs at least 2 arguments")
            return Min(tuple(subs)) if name == "min" else Max(tuple(subs))
        if name in ("sup", "inf"):
            self._expect("(")
            var = self._ident()
            if var in KEYWORDS or self.sig.get(var) is not None:
                self.fail(f"{var!r} cannot be used as a variable")
            self._expect(",")
            body = self.formula()
            self._expect(")")
            return Sup(var, body) if name == "sup" else Inf(var, body)
        spec = self.sig.get(name)
        if spec is None:
            self.pos = start
            self.fail(f"unknown relation {name!r}")
        args = self._args(self._term, spec.arity)
        return Atom(name, tuple(args))


def parse(text: str, sig: Signature, where: str = "") -> Formula:
    p = _Parser(text, sig, where)
    f = p.formula()
    if p._peek() != "":
        p.fail("trailing input")
    return f


def modulus(f: Formula, sig: Signature) -> Fraction:
    """A coefficient k such that k*id is an inverse continuity modulus of
    f under the max metric on assignment tuples."""
    if isinstance(f, Const):
        return ZERO
    if isinstance(f, Atom):
        spec = sig.get(f.rel)
        if spec is None:
            raise UsageError(f"unknown relation {f.rel!r}")
        return spec.coeff
    if isinstance(f, D):
        return Fraction(2)
    if isinstance(f, (Neg, Sup, Inf)):
        sub = f.sub if isinstance(f, Neg) else f.body
        return modulus(sub, sig)
    if isinstance(f, Half):
        return modulus(f.sub, sig) / 2
    if isinstance(f, TMul):
        return f.scale * modulus(f.sub, sig)
    if isinstance(f, (TSub, TAdd, AbsDiff)):
        return modulus(f.left, sig) + modulus(f.right, sig)
    if isinstance(f, (Min, Max)):
        return max(modulus(s, sig) for s in f.subs)
    raise TypeError(f"not a formula: {f!r}")


class FinStructure:
    """A finite metric space with total rational-valued relation tables."""

    def __init__(self, sig: Signature, space: FinMetric, tables):
        self.sig = sig
        self.space = space
        self.tables = tables

    def value(self, rel: str, tup) -> Rat01:
        try:
            return self.tables[rel][tuple(tup)]
        except KeyError:
            raise PreconditionError(f"no table value for {rel}{tuple(tup)}")

    def check(self) -> None:
        """Totality plus the modulus invariant, exhaustively."""
        self.space.check()
        pts = list(self.space.points)
        for spec in self.sig.relations:
            table = self.tables.get(spec.name)
            if table is None:
                raise PreconditionError(f"missing table for {spec.name}")
            # a table short of n**arity misses one of its first len + 1 tuples
            tuples = list(itertools.islice(itertools.product(
                pts, repeat=spec.arity), len(table) + 1))
            for t in tuples:
                if t not in table:
                    raise PreconditionError(f"no table value for {spec.name}{t}")
                check_rat01(table[t])
            if len(table) > len(tuples):
                raise PreconditionError(
                    f"{spec.name} has values off the carrier")
            for i, a in enumerate(tuples):
                for b in tuples[i + 1:]:
                    gap = abs(table[a] - table[b])
                    if gap > spec.coeff * self.space.tuple_dist(a, b):
                        raise PreconditionError(
                            f"{spec.name} breaks its modulus on {a}, {b}")

    def to_text(self) -> str:
        lines = [self.space.to_text().rstrip("\n")]
        for spec in self.sig.relations:
            lines.append(f"rel {spec.name} {spec.arity} "
                         f"mod {format_rat(spec.coeff)}")
        for spec in self.sig.relations:
            for tup in sorted(self.tables[spec.name]):
                ids = " ".join(str(i) for i in tup)
                lines.append(f"val {spec.name} {ids} "
                             f"{format_rat(self.tables[spec.name][tup])}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "FinStructure":
        space, extra = _read_points(text, allow_extra=True)
        rels, vals = [], []
        for ln, parts in extra:
            if parts[0] == "rel":
                rels.append(parse_rel(parts, f"line {ln}: "))
            elif parts[0] == "val":
                vals.append((ln, parts))
            else:
                raise UsageError(f"line {ln}: unknown directive {parts[0]!r}")
        sig = Signature(rels)
        tables = {r.name: {} for r in rels}
        for ln, parts in vals:
            try:
                spec = sig.get(parts[1]) if len(parts) > 1 else None
                if spec is None:
                    raise UsageError("val for undeclared relation")
                if len(parts) != 3 + spec.arity:
                    raise UsageError(f"val line for {spec.name} needs "
                                     f"{3 + spec.arity} tokens")
                tup = tuple(parse_id(x) for x in parts[2:-1])
                v = parse_rat01(parts[-1])
                if tup in tables[spec.name]:
                    raise UsageError(f"duplicate val for {spec.name}{tup}")
            except UsageError as exc:
                raise UsageError(f"line {ln}: {exc}") from None
            tables[spec.name][tup] = v
        m = cls(sig, space, tables)
        m.check()
        return m


# --- evaluation: formulas compiled to closures over integer numerators ------
#
# Closure generation in the sense of Feeley & Lapalme, "Using Closures for
# Code Generation" (1987).  Every node gets one denominator at compile time
# and returns the integer numerators (lo, hi) of its value bounds over it;
# an exact value is a width-0 pair.  The environment is a list with one
# slot per variable, per literal point and per quantifier.


def _raiser(exc: Exception):
    """A node that raises exc (type and message) when it runs: the tree
    walk met the same error only on reaching that node, so evaluation
    order still decides which error comes first."""
    cls, args = type(exc), exc.args

    def run(env):
        raise cls(*args)
    return 1, run


def _dist(num, a: int, b: int):
    def run(env):
        v = num(env[a], env[b])
        return v, v
    return run


def _lookup(rel: str, row: list, slots: list, n: int, total: bool):
    """Table read at the slots' points; row holds the numerators in
    itertools.product order, None where the table has no value."""
    if total and len(slots) == 1:
        (a,) = slots

        def run(env):
            v = row[env[a]]
            return v, v
    elif total and len(slots) == 2:
        a, b = slots

        def run(env):
            v = row[env[a] * n + env[b]]
            return v, v
    else:
        def run(env):
            i = 0
            for s in slots:
                i = i * n + env[s]
            v = row[i]
            if v is None:
                tup = tuple(env[s] for s in slots)
                raise PreconditionError(f"no table value for {rel}{tup}")
            return v, v
    return run


def _neg(sub, top: int):
    def run(env):
        lo, hi = sub(env)
        return top - hi, top - lo
    return run


def _tmul(sub, p: int, top: int):
    def run(env):
        lo, hi = sub(env)
        lo *= p
        hi *= p
        return (lo if lo < top else top), (hi if hi < top else top)
    return run


# Two-argument nodes: left and right scaled by a and b reach the common
# denominator top.

def _tsub(left, a, right, b, top):
    def run(env):
        l1, h1 = left(env)
        l2, h2 = right(env)
        lo = l1 * a - h2 * b
        hi = h1 * a - l2 * b
        return (lo if lo > 0 else 0), (hi if hi > 0 else 0)
    return run


def _tadd(left, a, right, b, top):
    def run(env):
        l1, h1 = left(env)
        l2, h2 = right(env)
        lo = l1 * a + l2 * b
        hi = h1 * a + h2 * b
        return (lo if lo < top else top), (hi if hi < top else top)
    return run


def _absdiff(left, a, right, b, top):
    def run(env):
        l1, h1 = left(env)
        l2, h2 = right(env)
        up = h1 * a - l2 * b      # most the left can exceed the right by
        down = h2 * b - l1 * a    # and the right the left; up + down >= 0
        if up < 0:
            return -up, down
        if down < 0:
            return -down, up
        return 0, (up if up > down else down)
    return run


def _min(left, a, right, b, top):
    def run(env):
        l1, h1 = left(env)
        l2, h2 = right(env)
        l1 *= a
        h1 *= a
        l2 *= b
        h2 *= b
        return (l1 if l1 < l2 else l2), (h1 if h1 < h2 else h2)
    return run


def _max(left, a, right, b, top):
    def run(env):
        l1, h1 = left(env)
        l2, h2 = right(env)
        l1 *= a
        h1 *= a
        l2 *= b
        h2 *= b
        return (l1 if l1 > l2 else l2), (h1 if h1 > h2 else h2)
    return run


_BINARY = {TSub: _tsub, TAdd: _tadd, AbsDiff: _absdiff, Min: _min, Max: _max}


def _sup(body, slot: int, n: int, c: int, slack: int, top: int):
    """max over the carrier of body with the slot at each point; the
    numerators are scaled by c to top, and hi widens by slack."""
    def run(env):
        env[slot] = 0
        best_lo, best_hi = body(env)
        for p in range(1, n):
            env[slot] = p
            lo, hi = body(env)
            if lo > best_lo:
                best_lo = lo
            if hi > best_hi:
                best_hi = hi
        hi = best_hi * c + slack
        return best_lo * c, (hi if hi < top else top)
    return run


def _inf(body, slot: int, n: int, c: int, slack: int, top: int):
    def run(env):
        env[slot] = 0
        best_lo, best_hi = body(env)
        for p in range(1, n):
            env[slot] = p
            lo, hi = body(env)
            if lo < best_lo:
                best_lo = lo
            if hi < best_hi:
                best_hi = hi
        lo = best_lo * c - slack
        return (lo if lo > 0 else 0), best_hi * c
    return run


def compile_formula(M: FinStructure, f: Formula, names=(), r: Rat01 = ZERO):
    """Compile f over M into (den, run).  run(points) binds names[i] to
    points[i] and returns integer numerators (lo, hi) over den: the bounds
    eval_interval gives at density r, and lo is f's exact value.

    Denominators are fixed here: a relation table is read as numerators
    over the lcm of its values' denominators and d as the space's own
    numerators; half doubles the denominator, tmul p/q multiplies it by
    q, and the other connectives rescale their arguments to the lcm.  A
    quantifier's slack k*r is computed once.  The points must lie in the
    carrier, and M must not change while run is in use.
    """
    n = M.space.n
    template = [0] * len(names)  # the environment; literal points keep their id
    consts = {}
    tables = {}

    def slot(value: int = 0) -> int:
        template.append(value)
        return len(template) - 1

    def term(t: Term, scope) -> int:
        if isinstance(t, Var):
            if t.name not in scope:
                raise UsageError(f"unassigned variable {t.name!r}")
            return scope[t.name]
        if not 0 <= t.id < n:
            raise PreconditionError(f"point {t.id} outside carrier")
        if t.id not in consts:
            consts[t.id] = slot(t.id)
        return consts[t.id]

    def table(rel: str, arity: int):
        key = (rel, arity)
        if key not in tables:
            given = M.tables.get(rel, {})
            den = lcm(*{v.denominator for v in given.values()})
            row = [None if v is None else v.numerator * (den // v.denominator)
                   for v in map(given.get,
                                itertools.product(range(n), repeat=arity))]
            tables[key] = den, row, None not in row
        return tables[key]

    def comp(f: Formula, scope):
        kind = type(f)
        if kind is Atom or kind is D:
            args = f.args if kind is Atom else (f.left, f.right)
            try:
                slots = [term(t, scope) for t in args]
            except (UsageError, PreconditionError) as exc:
                return _raiser(exc)
            if kind is D:
                return M.space._den, _dist(M.space._num, *slots)
            den, row, total = table(f.rel, len(slots))
            return den, _lookup(f.rel, row, slots, n, total)
        if kind in _BINARY:
            subs = f.subs if kind is Min or kind is Max else (f.left, f.right)
            # min and max of several arguments fold to the right, which
            # keeps the left-to-right evaluation order
            d2, right = comp(subs[-1], scope)
            for sub in reversed(subs[:-1]):
                d1, left = comp(sub, scope)
                top = lcm(d1, d2)
                d2, right = top, _BINARY[kind](left, top // d1, right,
                                               top // d2, top)
            return d2, right
        if kind is Const:
            pair = (f.value.numerator,) * 2
            return f.value.denominator, lambda env: pair
        if kind is Neg:
            den, sub = comp(f.sub, scope)
            return den, _neg(sub, den)
        if kind is Half:
            den, sub = comp(f.sub, scope)
            return 2 * den, sub
        if kind is TMul:
            den, sub = comp(f.sub, scope)
            top = den * f.scale.denominator
            return top, _tmul(sub, f.scale.numerator, top)
        if kind is Sup or kind is Inf:
            if n == 0:
                return _raiser(PreconditionError(
                    "quantifier over empty carrier"))
            try:
                slack = modulus(f.body, M.sig) * r if r else ZERO
            except UsageError as exc:
                return _raiser(exc)
            s = slot()
            den, body = comp(f.body, {**scope, f.var: s})
            top = lcm(den, slack.denominator)
            return top, (_sup if kind is Sup else _inf)(
                body, s, n, top // den,
                slack.numerator * (top // slack.denominator), top)
        raise TypeError(f"not a formula: {f!r}")

    den, root = comp(f, {name: i for i, name in enumerate(names)})
    tail = template[len(names):]

    def run(points):
        return root([*points, *tail])
    return den, run


def _assignment(M: FinStructure, asg) -> dict:
    asg = dict(asg) if asg else {}
    pts = M.space.points
    for name, p in asg.items():
        if p not in pts:
            raise UsageError(f"{name} is bound to {p}, outside the carrier")
    return asg


def eval_formula(M: FinStructure, f: Formula, asg=None) -> Rat01:
    """Exact evaluation; sup and inf range over the finite carrier."""
    asg = _assignment(M, asg)
    den, run = compile_formula(M, f, tuple(asg))
    return Fraction(run(tuple(asg.values()))[0], den)


def eval_interval(M: FinStructure, f: Formula, asg=None,
                  r: Rat01 = ZERO):
    """Certified bounds on the value of f over any r-dense superspace.

    The carrier is treated as an r-dense prefix: every point of the
    larger space is within r of some carrier point, and tables extend
    compatibly with their moduli (as fill_value produces).  Returned
    (lo, hi) brackets the true value there; quantifier-free formulas
    get a width-0 interval.
    """
    check_rat01(r)
    asg = _assignment(M, asg)
    den, run = compile_formula(M, f, tuple(asg), r)
    lo, hi = run(tuple(asg.values()))
    return Fraction(lo, den), Fraction(hi, den)


def fill_value(coeff: Fraction, seed, space: FinMetric, tup) -> Rat01:
    """The tightest coeff-Lipschitz fill of sparse seed values at tup.

    seed maps tuples to values.  On a seed tuple this is its seed value;
    elsewhere R(x) = min(1, min over seed tuples s of R(s) + coeff * d(x, s))
    under the max metric on tuples, and 0 when there are no seed values.
    It depends only on distances to seed tuples, so it never changes as
    the space grows; nothing is cached because callers read few tuples.
    """
    if tup in seed:
        return seed[tup]
    if not seed:
        return ZERO
    return min(ONE, min(v + coeff * space.tuple_dist(tup, s)
                        for s, v in seed.items()))


def check_seed_prefix(seed: FinStructure, space: FinMetric) -> None:
    """Preconditions for filling seed's tables over space: the seed carrier
    is nonempty, no larger than space, and an initial metric segment of
    it, and the seed tables are total and modulus-compatible."""
    ns = seed.space.n
    if ns == 0:
        raise PreconditionError("empty seed carrier")
    if ns > space.n:
        raise PreconditionError("seed carrier larger than target")
    for i in range(ns):
        for j in range(i + 1, ns):
            if seed.space.d(i, j) != space.d(i, j):
                raise PreconditionError(
                    f"seed is not a metric prefix of target at ({i}, {j})")
    seed.check()


def fill_structure(sig: Signature, seeds, space: FinMetric) -> FinStructure:
    """Total tables over space by fill_value from sparse seeds, a map from
    relation name to {tuple: value}; a relation without seeds fills as 0."""
    return FinStructure(sig, space, {
        spec.name: {tup: fill_value(spec.coeff, seeds.get(spec.name, {}),
                                    space, tup)
                    for tup in itertools.product(space.points,
                                                 repeat=spec.arity)}
        for spec in sig.relations})


def lipschitz_extend(seed: FinStructure, target) -> FinStructure:
    """Extend seed tables to a larger carrier by fill_value at every tuple.

    target may be a FinMetric or a QUPrefix whose first points coincide
    with the seed carrier; the result agrees with the seed on seed tuples
    and keeps each relation's modulus.
    """
    space = target.space if isinstance(target, QUPrefix) else target
    check_seed_prefix(seed, space)
    return fill_structure(seed.sig, seed.tables, space.copy())
