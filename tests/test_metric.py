"""Tests for finite metric spaces, the feasibility solver, and the
incremental homogeneous-space builder."""

import hashlib
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (advance_reference, grid_feasible, is_valid_witness,
                     random_constraint_set)
from urybench.errors import PreconditionError, UsageError
from urybench.metric import (
    Feasible,
    FinMetric,
    Infeasible,
    PartialConstraintSet,
    PartialIsometry,
    QUPrefix,
    advance,
    append_point_completion,
    check_certificate,
    check_witness,
    denom_values,
    extend_partial_isometry,
    extension_image,
    feasible,
    one_point_admissible,
    qu_complete_stage,
    qu_extend,
    stage_params,
)


def chain_space():
    m = FinMetric()
    m.append_point([])
    m.append_point([F(1, 2)])
    m.append_point([F(3, 4), F(1, 4)])
    return m


class TestFinMetric:
    def test_basic(self):
        m = chain_space()
        assert m.n == 3
        assert m.d(0, 2) == m.d(2, 0) == F(3, 4)
        assert m.d(1, 1) == 0
        m.check()

    def test_append_validation(self):
        m = FinMetric()
        m.append_point([])
        with pytest.raises(UsageError):
            m.append_point([F(0)])
        with pytest.raises(UsageError):
            m.append_point([F(5, 4)])
        with pytest.raises(UsageError):
            m.append_point([F(1, 2), F(1, 2)])

    def test_check_catches_triangle_violation(self):
        m = FinMetric()
        m.append_point([])
        m.append_point([F(1, 8)])
        m.append_point([F(1, 8), F(1, 2)])
        with pytest.raises(PreconditionError):
            m.check()

    def test_tuple_dist(self):
        m = chain_space()
        assert m.tuple_dist((0, 1), (1, 2)) == F(1, 2)
        assert m.tuple_dist((), ()) == 0
        with pytest.raises(UsageError):
            m.tuple_dist((0,), (1, 2))

    def test_text_round_trip(self):
        m = chain_space()
        again = FinMetric.from_text(m.to_text())
        assert again == m

    def test_from_text_requires_dense_ids(self):
        with pytest.raises(UsageError):
            FinMetric.from_text("point 0\npoint 2\ndist 0 2 1/2\n")

    def test_from_text_conflicting_dist(self):
        text = "point 0\npoint 1\ndist 0 1 1/2\ndist 1 0 1/4\n"
        with pytest.raises(UsageError):
            FinMetric.from_text(text)


class TestOnePointAdmissible:
    def test_yes(self):
        m = chain_space()
        assert one_point_admissible(m, {0: F(1, 2), 1: F(1, 2), 2: F(3, 4)})

    def test_no(self):
        m = chain_space()
        # 1/8 + 1/8 < d(0, 1)
        assert not one_point_admissible(m, {0: F(1, 8), 1: F(1, 8),
                                            2: F(3, 4)})

    def test_zero_distance_rejected(self):
        m = chain_space()
        with pytest.raises(PreconditionError):
            one_point_admissible(m, {0: F(0), 1: F(1, 2), 2: F(3, 4)})

    def test_wrong_support(self):
        m = chain_space()
        with pytest.raises(UsageError):
            one_point_admissible(m, {0: F(1, 2), 1: F(1, 2)})


class TestConstraintSet:
    def test_keeps_strongest_bounds(self):
        cs = PartialConstraintSet(points=[0, 1])
        cs.add_lower(0, 1, F(1, 4))
        cs.add_lower(1, 0, F(1, 4), strict=True)
        cs.add_lower(0, 1, F(1, 8), strict=True)
        assert cs.lower[(0, 1)] == (F(1, 4), True)
        cs.add_upper(0, 1, F(3, 4), strict=True)
        cs.add_upper(0, 1, F(3, 4))
        assert cs.upper[(0, 1)] == (F(3, 4), True)

    def test_exact_conflict(self):
        cs = PartialConstraintSet(points=[0, 1])
        cs.add_exact(0, 1, F(1, 2))
        with pytest.raises(UsageError):
            cs.add_exact(1, 0, F(1, 4))

    def test_text_round_trip(self):
        cs = PartialConstraintSet(points=[0, 1, 2])
        cs.add_exact(0, 1, F(1, 2))
        cs.add_lower(0, 2, F(4, 5), strict=True)
        cs.add_upper(1, 2, F(7, 8))
        again = PartialConstraintSet.from_text(cs.to_text())
        assert again.points == cs.points
        assert again.exact == cs.exact
        assert again.lower == cs.lower
        assert again.upper == cs.upper


class TestFeasible:
    def test_chain_witness(self):
        cs = PartialConstraintSet(points=[0, 1, 2])
        cs.add_exact(0, 1, F(1, 2))
        cs.add_exact(1, 2, F(1, 4))
        res = feasible(cs)
        assert isinstance(res, Feasible)
        # solver picks the largest admissible value for the free pair
        assert res.witness[(0, 2)] == F(3, 4)
        check_witness(cs, res.witness)
        assert is_valid_witness(cs, res.witness)

    def test_chain_with_lower_infeasible(self):
        cs = PartialConstraintSet(points=[0, 1, 2])
        cs.add_exact(0, 1, F(1, 2))
        cs.add_exact(1, 2, F(1, 4))
        cs.add_lower(0, 2, F(4, 5))
        res = feasible(cs)
        assert isinstance(res, Infeasible)
        assert res.pair == (0, 2)
        assert res.kind == "lower"
        assert res.bound == F(4, 5)
        assert res.chain == [0, 1, 2]
        assert sum(v for v, _, _ in res.chain_bounds) == F(3, 4)
        check_certificate(cs, res)

    def test_strict_pinch_witness(self):
        cs = PartialConstraintSet(points=[0, 1])
        cs.add_lower(0, 1, F(7, 8), strict=True)
        cs.add_upper(0, 1, F(1), strict=True)
        res = feasible(cs)
        assert isinstance(res, Feasible)
        assert res.witness[(0, 1)] == F(31, 32)
        check_witness(cs, res.witness)
        assert is_valid_witness(cs, res.witness)

    def test_exact_against_strict_upper(self):
        cs = PartialConstraintSet(points=[0, 1])
        cs.add_exact(0, 1, F(1, 2))
        cs.add_upper(0, 1, F(1, 2), strict=True)
        res = feasible(cs)
        assert isinstance(res, Infeasible)
        assert res.kind == "exact"
        check_certificate(cs, res)

    def test_fat_triangle(self):
        cs = PartialConstraintSet(points=[0, 1, 2])
        cs.add_exact(0, 1, F(1, 8))
        cs.add_exact(1, 2, F(1, 8))
        cs.add_exact(0, 2, F(1, 2))
        res = feasible(cs)
        assert isinstance(res, Infeasible)
        check_certificate(cs, res)

    def test_zero_exact_hits_positivity(self):
        cs = PartialConstraintSet(points=[0, 1])
        cs.add_exact(0, 1, F(0))
        res = feasible(cs)
        assert isinstance(res, Infeasible)
        assert res.kind == "positivity"
        check_certificate(cs, res)

    def test_unconstrained_defaults_to_diameter(self):
        cs = PartialConstraintSet(points=[0, 1, 2])
        res = feasible(cs)
        assert isinstance(res, Feasible)
        assert all(v == F(1) for v in res.witness.values())
        check_witness(cs, res.witness)


def test_two_point_menu_matches_grid_oracle():
    """All lower/upper combinations on one pair, eighths grid.

    For a single pair the 16ths grid decides feasibility exactly, so the
    oracle verdict must coincide with the solver's.
    """
    eighths = [F(k, 8) for k in range(1, 9)]
    for lv in eighths:
        for uv in eighths:
            for ls in (False, True):
                for us in (False, True):
                    cs = PartialConstraintSet(points=[0, 1])
                    cs.add_lower(0, 1, lv, ls)
                    cs.add_upper(0, 1, uv, us)
                    res = feasible(cs)
                    grid = grid_feasible(cs, 16)
                    if isinstance(res, Feasible):
                        assert grid is not None, (lv, ls, uv, us)
                        check_witness(cs, res.witness)
                        assert is_valid_witness(cs, res.witness)
                    else:
                        assert grid is None, (lv, ls, uv, us)
                        check_certificate(cs, res)


def test_random_corpus_agrees_with_oracle():
    rng = random.Random(20240811)
    for _ in range(150):
        cs = random_constraint_set(rng, 3, 8, strict_allowed=False)
        res = feasible(cs)
        grid = grid_feasible(cs, 8)
        # non-strict eighths systems are decided exactly by the 8-grid
        if isinstance(res, Feasible):
            assert grid is not None
            check_witness(cs, res.witness)
            assert is_valid_witness(cs, res.witness)
        else:
            assert grid is None
            check_certificate(cs, res)
    for _ in range(100):
        cs = random_constraint_set(rng, 3, 8, strict_allowed=True)
        res = feasible(cs)
        if isinstance(res, Feasible):
            check_witness(cs, res.witness)
            assert is_valid_witness(cs, res.witness)
        else:
            assert grid_feasible(cs, 16) is None
            check_certificate(cs, res)
    for _ in range(30):
        cs = random_constraint_set(rng, 4, 8, strict_allowed=True)
        res = feasible(cs)
        if isinstance(res, Feasible):
            check_witness(cs, res.witness)
            assert is_valid_witness(cs, res.witness)
        else:
            check_certificate(cs, res)


class TestSchedule:
    def test_stage_params_prefix(self):
        got = [stage_params(t) for t in range(7)]
        assert got == [(1, 2), (1, 4), (3, 4), (1, 8), (3, 8), (5, 8),
                       (1, 16)]

    def test_denom_values(self):
        assert denom_values(2) == [F(1, 2), F(1)]
        assert denom_values(4) == [F(1, 4), F(1, 3), F(1, 2), F(2, 3),
                                   F(3, 4), F(1)]


class TestBuilder:
    def test_first_step_seeds_a_point(self):
        p = qu_extend(QUPrefix(), 1)
        assert p.space.n == 1
        assert (p.stage, p.pos) == (0, 1)

    def test_stage_one_yields_seven_points(self):
        p = qu_complete_stage(QUPrefix(), 1)
        assert p.space.n == 7
        assert (p.stage, p.pos) == (2, 0)
        assert p.snapshots == [0, 1, 7]
        vals = [F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4), F(1)]
        for k, v in enumerate(vals, start=1):
            assert p.space.d(0, k) == v
        # later additions sit at capped anchor-path distance
        assert p.space.d(1, 2) == F(7, 12)
        assert p.space.d(2, 3) == F(5, 6)
        assert p.space.d(4, 5) == F(1)
        p.space.check()

    def test_realized_types_are_skipped(self):
        p = qu_complete_stage(QUPrefix(), 1)
        q = qu_extend(p, 9)
        # of the first nine audit items only one type is unrealized
        assert q.space.n == 8
        assert q.space.d(7, 1) == F(1, 3)
        assert q.space.d(7, 0) == F(7, 12)
        assert q.space.d(7, 2) == F(11, 12)

    def test_deterministic_and_chunk_invariant(self):
        a = qu_extend(QUPrefix(), 16)
        b = qu_extend(qu_extend(QUPrefix(), 7), 9)
        c = qu_extend(QUPrefix(), 16)
        assert a == b == c

    def test_chunk_invariant_across_stage_boundary(self):
        a = qu_extend(QUPrefix(), 8)
        b = qu_extend(qu_extend(QUPrefix(), 7), 1)
        assert a == b

    def test_text_round_trip(self):
        p = qu_extend(QUPrefix(), 11)
        again = QUPrefix.from_text(p.to_text())
        assert again == p

    def test_from_text_validates_snapshot_count(self):
        p = qu_extend(QUPrefix(), 3)
        bad = p.to_text().replace("snapshot 1 1\n", "")
        with pytest.raises(UsageError):
            QUPrefix.from_text(bad)


class TestPartialIsometry:
    def test_apply_and_inverse(self):
        g = PartialIsometry([(0, 2), (1, 0)])
        assert g.apply(0) == 2
        assert g.apply_tuple((1, 0)) == (0, 2)
        assert g.inverse().apply(2) == 0
        with pytest.raises(PreconditionError):
            g.apply(5)

    def test_compose(self):
        g = PartialIsometry([(0, 1)])
        h = PartialIsometry([(1, 2)])
        assert h.compose(g).pairs == [(0, 2)]

    def test_validate_rejects_distance_mismatch(self):
        m = chain_space()
        g = PartialIsometry([(0, 0), (1, 2)])
        # d(0, 1) = 1/2 but d(0, 2) = 3/4
        with pytest.raises(PreconditionError):
            g.validate(m)

    def test_validate_rejects_collision(self):
        m = chain_space()
        with pytest.raises(PreconditionError):
            PartialIsometry([(0, 2), (1, 2)]).validate(m)

    def test_identity_validates(self):
        m = chain_space()
        PartialIsometry.identity([0, 1, 2]).validate(m)

    def test_text_round_trip(self):
        g = PartialIsometry([(0, 2), (1, 0)])
        assert PartialIsometry.from_text(g.to_text()).pairs == g.pairs


class TestExtendIsometry:
    def test_reuses_existing_point(self):
        p = qu_complete_stage(QUPrefix(), 1)
        g = PartialIsometry([(0, 0)])
        q, g2 = extend_partial_isometry(p, g, [1])
        assert q.space.n == p.space.n
        assert g2.apply(1) == 1

    def test_appends_fresh_point(self):
        p = qu_complete_stage(QUPrefix(), 1)
        g = PartialIsometry([(1, 2)])
        q, g2 = extend_partial_isometry(p, g, [0])
        assert q.space.n == 8
        assert g2.apply(0) == 7
        assert q.space.d(7, 2) == F(1, 4)
        g2.validate(q.space)

    def test_multi_anchor_reuse(self):
        p = qu_complete_stage(QUPrefix(), 1)
        g = PartialIsometry.identity([0, 1])
        q, g2 = extend_partial_isometry(p, g, [2])
        assert q.space.n == p.space.n
        assert g2.apply(2) == 2

    def test_already_defined_sources_are_kept(self):
        p = qu_complete_stage(QUPrefix(), 1)
        g = PartialIsometry([(0, 0), (3, 3)])
        q, g2 = extend_partial_isometry(p, g, [3, 0])
        assert q.space.n == p.space.n
        assert g2.pairs == g.pairs

    def test_invalid_input_isometry_rejected(self):
        p = qu_complete_stage(QUPrefix(), 1)
        # d(0, 1) = 1/4 but d(0, 2) = 1/3
        with pytest.raises(PreconditionError):
            extend_partial_isometry(p, PartialIsometry([(0, 0), (1, 2)]),
                                    [3])


# '#' starts a comment that runs to the end of the line in every reader.
COMMENTED = {
    "metric": (FinMetric.from_text, lambda m: m.to_text(),
               "point 0  # first\npoint 1\ndist 0 1 1/2 # close\n"),
    "prefix": (QUPrefix.from_text, lambda p: p.to_text(),
               qu_extend(QUPrefix(), 4).to_text().replace(
                   "\n", " # note\n")),
    "isometry": (PartialIsometry.from_text, lambda g: g.to_text(),
                 "pair 0 1 # swap\npair 1 0\n"),
    "constraints": (PartialConstraintSet.from_text, lambda c: c.to_text(),
                    "point 0\npoint 1 #\ndist 0 1 1/2#x\nlower 0 1 1/4 strict # lo\n"),
}


@pytest.mark.parametrize("kind", sorted(COMMENTED))
def test_trailing_comment_is_ignored(kind):
    read, write, text = COMMENTED[kind]
    plain = "".join(line.partition("#")[0].rstrip() + "\n"
                    for line in text.splitlines())
    assert write(read(text)) == write(read(plain))


# --- the resumable schedule walk against walk_reference ----------------------

STAGE2_ITEMS = 4424     # through the end of stage 2: 1,773 points
STAGE2_SHA256 = "2c948182f2ff1c1cf4e9c3abf270804b37f10b0681e854706f7fe8f6a3b8f396"
# the chunk sizes of the grow benchmark workload, in its seed-1 order
GROW_CHUNKS = [63] * 56 + [64] * 14
random.Random(1).shuffle(GROW_CHUNKS)
# above this many points a text round trip is replaced by the hand-built
# prefix it leaves (no resume point): reading ~2,000 points takes seconds
TEXT_POINTS = 400
OFF_LATTICE = [F(1, 7), F(3, 11), F(5, 6), F(1, 2), F(1)]


def walk_state(p):
    return p.stage, p.pos, p.snapshots, p.space._den, p.space._rows


def off_schedule(op, seed, p, base):
    """Apply one off-schedule operation to p in place; base is the space
    size the schedule reached."""
    rng, space = random.Random(seed), p.space
    n = space.n
    if op == "image":
        anchors = tuple(sorted(rng.sample(range(n), min(n - 1, rng.randint(1, 3)))))
        c = rng.choice([z for z in range(n) if z not in anchors])
        typ = tuple(space._num(c, a) for a in anchors)
        # the mirror scan rejects every point that exists, so the amalgam
        # is appended; on odd seeds it is rejected too and dropped again
        extension_image(space, anchors, typ,
                        lambda w: w >= n and seed % 2 == 0)
    elif op == "pin":
        append_point_completion(space, {rng.randrange(n): rng.choice(OFF_LATTICE)})
    elif op == "truncate":
        space.truncate(base)


@settings(max_examples=5, deadline=None)
@given(st.integers(1, 400),
       st.lists(st.tuples(st.integers(1, STAGE2_ITEMS + 400),
                          st.sampled_from(["text", "copy", "image", "pin",
                                           "truncate"]),
                          st.integers(0, 999)), max_size=8))
def test_resumed_walk_matches_reference(extra, cuts):
    """Random chunkings from empty to a few hundred items into stage 3,
    interleaved with text round trips (which drop the resume point),
    copies extended on both sides, off-schedule points and truncation
    back to the schedule's size, against walk_reference on the same
    operations."""
    total = STAGE2_ITEMS + extra
    p, ref, done = QUPrefix(), QUPrefix(), 0
    for cut, op, seed in sorted(cuts) + [(total, None, 0)]:
        steps = min(cut, total) - done
        advance(p, steps)
        advance_reference(ref, steps)
        done += steps
        base = p.space.n
        if op == "text":
            p = (QUPrefix.from_text(p.to_text()) if base <= TEXT_POINTS else
                 QUPrefix(p.space.copy(), p.stage, p.pos, list(p.snapshots)))
            assert p.resume is None
            ref = p.copy()
        elif op == "copy":
            q, r = p.copy(), ref.copy()
            advance(q, seed)
            advance_reference(r, seed)
            assert walk_state(q) == walk_state(r)
        else:
            off_schedule(op, seed, p, base)
            off_schedule(op, seed, ref, base)
        assert walk_state(p) == walk_state(ref)
    assert p.to_text() == ref.to_text()


def test_stage_two_text_is_pinned():
    """The 4,424-item prefix text, built in one call, in the grow
    workload's 70 chunks, and read back from text half way then resumed."""
    texts = [qu_extend(QUPrefix(), STAGE2_ITEMS).to_text()]
    p = QUPrefix()
    for size in GROW_CHUNKS:
        p = qu_extend(p, size)
    texts.append(p.to_text())
    half = QUPrefix.from_text(qu_extend(QUPrefix(), 2000).to_text())
    texts.append(qu_extend(half, STAGE2_ITEMS - 2000).to_text())
    assert [hashlib.sha256(t.encode()).hexdigest() for t in texts] == [STAGE2_SHA256] * 3
