"""The integer strict difference-bound closure behind feasible and the
structure-cone decisions, checked against the Fraction closures kept in
oracles.py, plus pinned cases for the strict-sum rule."""

from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from gen import random_metric
from oracles import (
    cone_nonempty_reference,
    cone_subset_reference,
    feasible_reference,
    random_constraint_set,
)
from urybench.logic import RelSpec, Signature
from urybench.metric import (
    Feasible,
    FinMetric,
    Infeasible,
    PartialConstraintSet,
    check_certificate,
    check_witness,
    feasible,
)
from urybench.space import (
    ConeConstraint,
    StructureCone,
    cone_nonempty,
    cone_subset,
)


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 7), st.sampled_from([2, 3, 4, 6, 8, 12]),
       st.booleans(), st.integers(0, 3), st.randoms(use_true_random=False))
def test_feasible_matches_reference(n, den, strict, zeros, rng):
    cs = random_constraint_set(rng, n, den, strict_allowed=strict)
    for _ in range(zeros if n >= 2 else 0):
        a, b = rng.sample(range(n), 2)
        pick = rng.randrange(4)
        if pick == 0:
            cs.add_upper(a, b, F(0), True)
        elif pick == 1:
            cs.add_upper(a, b, F(0), False)
        elif pick == 2 and (min(a, b), max(a, b)) not in cs.exact:
            cs.add_exact(a, b, F(0))
        else:
            cs.add_lower(a, b, F(0), rng.random() < 0.5)
    got = feasible(cs)
    try:
        want = feasible_reference(cs)
    except RecursionError:
        # The reference's chain read-back loops once a strict zero upper
        # lets the closure go round a zero-weight strict cycle.
        assert any(v == 0 and s for v, s in cs.upper.values())
        assert isinstance(got, Infeasible)
        check_certificate(cs, got)
        return
    assert repr(got) == repr(want)


SIGS = [
    Signature([RelSpec("R", 1, F(1))]),
    Signature([RelSpec("R", 1, F(8)), RelSpec("S", 2, F(3, 2))]),
    Signature([RelSpec("R", 1, F(1, 4)), RelSpec("S", 2, F(2))]),
]
GRID = [F(k, 12) for k in range(13)]


def random_cone(rng, sig, slots):
    cons = []
    for rel, tup in rng.sample(slots, rng.randint(0, min(4, len(slots)))):
        if rng.random() < 0.5:
            lo, hi = sorted(rng.sample(GRID, 2))
        else:  # narrow intervals make the couplings bind
            lo = rng.choice(GRID[:-1])
            hi = lo + F(1, 12)
        cons.append(ConeConstraint(rel, tup, lo, hi, rng.random() < 0.5,
                                   rng.random() < 0.5))
    return StructureCone(sig, cons)


def widened(rng, cone):
    """cone with some intervals widened or flags opened/closed, so that
    inclusion in either direction is common."""
    cons = []
    for c in cone.constraints:
        lo = max(F(0), c.lo - rng.choice([0, 0, F(1, 12)]))
        hi = min(F(1), c.hi + rng.choice([0, 0, F(1, 12)]))
        cons.append(ConeConstraint(c.rel, c.tup, lo, hi, rng.random() < 0.5,
                                   rng.random() < 0.5))
    return StructureCone(cone.sig, cons)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(SIGS), st.integers(1, 4),
       st.randoms(use_true_random=False))
def test_cones_match_reference(sig, n, rng):
    space = random_metric(rng, n)
    slots = [(spec.name, tuple(rng.randrange(n) for _ in range(spec.arity)))
             for spec in sig.relations for _ in range(4)]
    slots = list(dict.fromkeys(slots))
    c1 = random_cone(rng, sig, slots)
    c2 = widened(rng, c1) if rng.random() < 0.5 else \
        random_cone(rng, sig, slots)
    assert cone_nonempty(c1, space) == cone_nonempty_reference(c1, space)
    assert cone_nonempty(c2, space) == cone_nonempty_reference(c2, space)
    assert cone_subset(c1, c2, space) == cone_subset_reference(c1, c2, space)
    assert cone_subset(c2, c1, space) == cone_subset_reference(c2, c1, space)


def quarter_chain(lower):
    cs = PartialConstraintSet(points=[0, 1, 2])
    cs.add_upper(0, 1, F(1, 4), strict=True)
    cs.add_upper(1, 2, F(1, 4), strict=True)
    cs.add_lower(0, 2, lower, strict=True)
    return cs


def test_two_strict_steps_stay_one_strict_step():
    # d(0,2) < 1/2 along the chain, so d(0,2) > 1/4 is still satisfiable
    res = feasible(quarter_chain(F(1, 4)))
    assert res == Feasible({(0, 1): F(7, 32), (0, 2): F(7, 16),
                            (1, 2): F(7, 32)})
    check_witness(quarter_chain(F(1, 4)), res.witness)


def test_strict_chain_against_its_sum():
    cs = quarter_chain(F(1, 2))
    res = feasible(cs)
    assert isinstance(res, Infeasible)
    assert (res.kind, res.pair, res.chain) == ("lower", (0, 2), [0, 1, 2])
    assert res.chain_bounds == [(F(1, 4), True, "upper")] * 2
    check_certificate(cs, res)


def test_strict_zero_upper_hits_positivity():
    cs = PartialConstraintSet(points=[0, 1])
    cs.add_upper(0, 1, F(0), strict=True)
    res = feasible(cs)
    assert res == Infeasible(pair=(0, 1), bound=F(0), bound_strict=True,
                             kind="positivity", chain=[0, 1],
                             chain_bounds=[(F(0), True, "upper")])
    check_certificate(cs, res)


UNARY = Signature([RelSpec("R", 1, F(1))])


def quarter_apart():
    space = FinMetric()
    space.append_point([])
    space.append_point([F(1, 4)])
    return space


def test_strict_interval_edges_meet_through_a_coupling():
    # |R(0) - R(1)| <= d(0, 1) = 1/4.  R(0) < 1/4 and R(1) > 1/2 leave no
    # room, and neither do R(0) < 1/4, R(1) >= 1/2 or R(0) <= 1/4,
    # R(1) > 1/2: those cones are empty and inside anything.  With both
    # ends closed, R(0) = 1/4 and R(1) = 1/2 fit and break R(0) < 1/4.
    space = quarter_apart()

    def cone(open0, open1):
        return StructureCone(UNARY, [
            ConeConstraint("R", (0,), F(0), F(1, 4), False, open0),
            ConeConstraint("R", (1,), F(1, 2), F(1), open1, False)])

    target = StructureCone(UNARY, [
        ConeConstraint("R", (0,), F(0), F(1, 4), False, True)])
    for flags in ((True, True), (True, False), (False, True)):
        assert not cone_nonempty(cone(*flags), space)
        assert cone_subset(cone(*flags), target, space)
    assert cone_nonempty(cone(False, False), space)
    assert not cone_subset(cone(False, False), target, space)


def test_strict_interval_edge_meets_a_broken_bound_through_a_coupling():
    # R(0) < 1/4 forces R(1) < 1/2, so R(1) lies in [0, 1/2); with R(0) <= 1/4
    # the value R(1) = 1/2 is possible.
    space = quarter_apart()
    target = StructureCone(UNARY, [
        ConeConstraint("R", (1,), F(0), F(1, 2), False, True)])
    for open0 in (True, False):
        c1 = StructureCone(UNARY, [
            ConeConstraint("R", (0,), F(0), F(1, 4), False, open0)])
        assert cone_subset(c1, target, space) is open0
