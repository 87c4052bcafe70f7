"""Tests for coset codes: values, cone decisions, the isometry metric,
lazily generated points, formal inclusion, and the invariance check."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gen import EIGHTHS, prefix_metric, random_structure
from oracles import (
    check_gcone_witness,
    grid_counterexample_probe,
    mcshane_fill_reference,
    single_nonempty_oracle,
    single_pair_subset_oracle,
    star_holds_oracle,
)
from urybench.errors import PreconditionError, UsageError
from urybench.grey import (
    GreyCosetCode,
    InvResult,
    OraclePoint,
    ThresholdCone,
    _mcshane_structure,
    cone_gap,
    coset_value,
    formal_inclusion,
    gcone_counterexample,
    gcone_nonempty,
    gcone_point,
    gcone_subset,
    inv_check,
    kappa,
    rho_S,
    sat,
)
from urybench.logic import FinStructure, RelSpec, Signature
from urybench.metric import (
    PartialIsometry,
    QUPrefix,
    extend_partial_isometry,
    qu_extend,
)
from urybench.space import ConeConstraint, StructureCone, cone_diam, cone_subset

SIG = Signature([RelSpec("R", 1, F(1)), RelSpec("S", 2, F(2))])
UNARY = Signature([RelSpec("R", 1, F(1))])


def grown_prefix(steps=40):
    return qu_extend(QUPrefix(), steps)


def code(q, s, sp, thr, star):
    return GreyCosetCode(F(q), s, sp, F(thr), star)


class TestGreyCosetCode:
    def test_shape_validation(self):
        with pytest.raises(UsageError):
            GreyCosetCode(F(0), (0,), (0,), F(1, 2), "lt")
        with pytest.raises(UsageError):
            GreyCosetCode(F(1), (), (), F(1, 2), "lt")
        with pytest.raises(UsageError):
            GreyCosetCode(F(1), (0, 1), (0,), F(1, 2), "lt")
        with pytest.raises(UsageError):
            GreyCosetCode(F(1), (0,), (0,), F(2), "lt")
        with pytest.raises(UsageError):
            GreyCosetCode(F(1), (0,), (0,), F(1, 2), "eq")

    def test_diagram_must_match(self):
        space = grown_prefix(4).space
        # d(0,1) = 1/4 but d(0,2) = 1/3
        bad = code(1, (0, 1), (0, 2), "1/2", "lt")
        with pytest.raises(PreconditionError):
            bad.validate(space)

    def test_reversed_tuple_is_a_valid_diagram(self):
        space = grown_prefix(4).space
        code(1, (0, 1), (1, 0), "1/2", "lt").validate(space)

    def test_points_must_exist(self):
        space = grown_prefix(4).space
        with pytest.raises(PreconditionError):
            code(1, (0,), (99,), "1/2", "lt").validate(space)

    def test_negated_swaps_comparison(self):
        c = code(1, (0,), (0,), "1/2", "lt")
        assert c.negated().star == "ge"
        assert c.negated().negated() == c

    def test_text_round_trip(self):
        c = GreyCosetCode(F(1, 2), (0, 1), (1, 0), F(3, 4), "ge")
        assert GreyCosetCode.from_text(c.to_text()) == c

    def test_from_text_rejects_malformed(self):
        with pytest.raises(UsageError):
            GreyCosetCode.from_text("gcone q=1 s=0 thr=1/2 op=lt\n")
        with pytest.raises(UsageError):
            GreyCosetCode.from_text("gcone q=1 s=0 s'=x thr=1/2 op=lt\n")
        with pytest.raises(UsageError):
            GreyCosetCode.from_text("")


class TestCosetValue:
    def test_identity_scores_zero(self):
        space = grown_prefix(40).space
        c = code(1, (0, 1), (0, 1), "1/2", "lt")
        assert coset_value(c, PartialIsometry.identity([0, 1]), space) == 0

    def test_truncation_at_one(self):
        space = grown_prefix(40).space
        # d(0,5) = 3/4, doubled and capped
        c = code(2, (0,), (0,), 1, "le")
        assert coset_value(c, PartialIsometry([(0, 5)]), space) == 1

    def test_scaled_down(self):
        space = grown_prefix(40).space
        # d(0,3) = 1/2
        c = code("1/2", (0,), (0,), 1, "le")
        assert coset_value(c, PartialIsometry([(0, 3)]), space) == F(1, 4)

    def test_image_outside_space(self):
        space = grown_prefix(4).space
        c = code(1, (0,), (0,), 1, "le")
        with pytest.raises(PreconditionError):
            coset_value(c, PartialIsometry([(0, 99)]), space)


class TestGconeEmptiness:
    def test_degenerate_empty(self):
        space = grown_prefix(4).space
        assert not gcone_nonempty(code(1, (0,), (0,), 0, "lt"), space)
        assert not gcone_nonempty(code(1, (0,), (0,), 1, "gt"), space)

    def test_degenerate_full(self):
        space = grown_prefix(4).space
        assert gcone_nonempty(code(1, (0,), (0,), 0, "ge"), space)
        assert gcone_nonempty(code(1, (0,), (0,), 1, "le"), space)

    def test_exact_distance_one_is_realizable(self):
        space = grown_prefix(4).space
        assert gcone_nonempty(code(1, (0,), (0,), 1, "ge"), space)

    def test_point_witness_is_semantically_valid(self):
        space = grown_prefix(4).space
        c = code(1, (0, 1), (1, 0), "1/2", "lt")
        wit = gcone_point(c, space)
        assert wit is not None
        assert check_gcone_witness(space, wit, [(c, True)])


class TestGconeSubset:
    """Hand-derived inclusion decisions over the canonical prefix."""

    def setup_method(self):
        self.space = grown_prefix(40).space

    def test_reflexive(self):
        c = code(1, (0,), (0,), "1/4", "lt")
        assert gcone_subset(c, c, self.space)

    def test_nested_thresholds(self):
        small = code(1, (0,), (0,), "1/4", "lt")
        big = code(1, (0,), (0,), "1/2", "lt")
        assert gcone_subset(small, big, self.space)
        # d(0,2) = 1/3 separates them
        assert not gcone_subset(big, small, self.space)

    def test_scale_change_same_set(self):
        a = code(1, (0,), (0,), "1/4", "lt")
        b = code("1/2", (0,), (0,), "1/8", "lt")
        assert gcone_subset(a, b, self.space)
        assert gcone_subset(b, a, self.space)

    def test_closed_versus_open_threshold(self):
        le = code(1, (0,), (0,), "1/4", "le")
        lt = code(1, (0,), (0,), "1/4", "lt")
        assert gcone_subset(lt, le, self.space)
        # d(0,1) = 1/4 exactly, so le admits a map lt rejects
        assert not gcone_subset(le, lt, self.space)

    def test_lower_cones_nest_downward(self):
        high = code(1, (0,), (0,), "3/4", "gt")
        low = code(1, (0,), (0,), "1/2", "gt")
        assert gcone_subset(high, low, self.space)
        # d(0,4) = 2/3 lands between the thresholds
        assert not gcone_subset(low, high, self.space)

    def test_truncation_degeneracy_same_set(self):
        a = code(2, (0,), (0,), 1, "lt")
        b = code(1, (0,), (0,), "1/2", "lt")
        assert gcone_subset(a, b, self.space)
        assert gcone_subset(b, a, self.space)

    def test_vacuous_code_contains_everything(self):
        whole = code(2, (0,), (0,), 1, "le")
        assert gcone_subset(code(1, (0,), (0,), "3/4", "gt"), whole,
                            self.space)
        assert not gcone_subset(whole, code(1, (0,), (0,), "1/4", "lt"),
                                self.space)

    def test_cross_tuple_triangle_transfer(self):
        # pinning g(1) within 1/8 of 1 pins d(g(1), 0) inside
        # (1/4 - 1/8, 1/4 + 1/8), which is within 1/2 but not 1/4
        c1 = code(1, (1,), (1,), "1/8", "lt")
        assert gcone_subset(c1, code(1, (0,), (1,), "1/2", "lt"), self.space)
        assert not gcone_subset(c1, code(1, (0,), (1,), "1/4", "lt"),
                                self.space)

    def test_coincidence_needs_identification(self):
        # the only counterexample maps 1 to itself exactly; a search
        # keeping images at positive distance from every named point
        # cannot see it
        fix = code(1, (1,), (1,), 0, "le")
        pos = code(1, (1,), (1,), 0, "gt")
        assert not gcone_subset(fix, pos, self.space)
        wit = gcone_counterexample(fix, pos, self.space)
        assert wit.images[1] == 1
        assert check_gcone_witness(self.space, wit, [(fix, True),
                                                     (pos, False)])

    def test_counterexamples_verify_semantically(self):
        c1 = code(1, (0,), (0,), "1/2", "lt")
        c2 = code(1, (0,), (0,), "1/4", "lt")
        wit = gcone_counterexample(c1, c2, self.space)
        assert check_gcone_witness(self.space, wit, [(c1, True), (c2, False)])

    def test_two_point_codes_decide(self):
        same = code(1, (0, 1), (0, 1), "1/4", "lt")
        swap = code(1, (0, 1), (1, 0), "1/4", "lt")
        assert gcone_subset(same, same, self.space)
        # moving both coordinates near their targets does not constrain
        # the swapped assignment below 1/4 + 1/4 + d(0,1)
        assert not gcone_subset(same, swap, self.space)


class TestGconeAgainstOracles:
    def test_single_point_menu_matches_interval_oracle(self):
        space = grown_prefix(4).space
        rng = random.Random(5)
        menu = []
        for q in (F(1, 2), F(1), F(2)):
            for thr in (F(0), F(1, 2), F(1)):
                for star in ("lt", "le", "gt", "ge"):
                    for t, u in ((0, 0), (0, 1), (1, 0), (1, 2), (2, 2)):
                        menu.append(GreyCosetCode(q, (t,), (u,), thr, star))
        for c in menu:
            assert gcone_nonempty(c, space) == single_nonempty_oracle(space, c)
        for _ in range(400):
            c1, c2 = rng.choice(menu), rng.choice(menu)
            wit = gcone_counterexample(c1, c2, space)
            assert (wit is None) == \
                (single_pair_subset_oracle(space, c1, c2) is None)
            if wit is not None:
                assert check_gcone_witness(space, wit, [(c1, True),
                                                        (c2, False)])

    def test_two_point_sample_against_grid_probe(self):
        space = grown_prefix(4).space
        rng = random.Random(11)
        menu = []
        for q in (F(1), F(2)):
            for thr in (F(0), F(1, 4), F(1, 2), F(1)):
                for star in ("lt", "le", "gt", "ge"):
                    for sb in ((0, 1), (1, 0)):
                        for sbp in ((0, 1), (1, 0)):
                            menu.append(GreyCosetCode(q, sb, sbp, thr, star))
        for _ in range(40):
            c1, c2 = rng.choice(menu), rng.choice(menu)
            wit = gcone_counterexample(c1, c2, space)
            if wit is not None:
                assert check_gcone_witness(space, wit, [(c1, True),
                                                        (c2, False)])
            else:
                # inclusion claims must survive the grid search
                assert grid_counterexample_probe(space, c1, c2, 8) is None


class TestRho:
    def test_frozen_bounds(self):
        space = grown_prefix(40).space
        g = PartialIsometry.identity([0])
        h = PartialIsometry([(0, 3)])
        assert rho_S(space, g, h, 1) == (F(1, 4), F(3, 4))

    def test_intervals_nest_as_depth_grows(self):
        space = grown_prefix(40).space
        g = PartialIsometry.identity([0, 1, 2, 3])
        h = PartialIsometry([(0, 3), (1, 1), (2, 2), (3, 0)])
        prev = None
        for N in range(1, 5):
            lo, hi = rho_S(space, g, h, N)
            assert hi - lo == F(1, 2 ** N)
            if prev is not None:
                assert prev[0] <= lo and hi <= prev[1]
            prev = (lo, hi)

    def test_identical_maps_score_zero(self):
        space = grown_prefix(40).space
        g = PartialIsometry.identity([0, 1])
        assert rho_S(space, g, g, 2) == (F(0), F(1, 4))

    def test_bad_depth(self):
        space = grown_prefix(40).space
        g = PartialIsometry.identity([0])
        with pytest.raises(UsageError):
            rho_S(space, g, g, 0)
        with pytest.raises(PreconditionError):
            rho_S(space, g, g, space.n + 1)


def seed_structure(space, k):
    """A fixed small structure on the first k prefix points."""
    small = prefix_metric(space, k)
    tables = {
        "R": {(i,): F(i + 1, 2 * k) for i in range(k)},
        "S": {(a, b): F(0) for a in range(k) for b in range(k)},
    }
    return FinStructure(SIG, small, tables)


class TestOraclePoint:
    def test_seed_values_survive(self):
        pfx = grown_prefix(8)
        x = OraclePoint(seed_structure(pfx.space, 2), pfx)
        assert x.value("R", (0,)) == F(1, 4)
        assert x.value("R", (1,)) == F(1, 2)

    def test_fill_is_tightest_compatible(self):
        pfx = grown_prefix(8)
        x = OraclePoint(seed_structure(pfx.space, 2), pfx)
        got = x.value("R", (5,))
        want = min(F(1),
                   F(1, 4) + x.space.d(5, 0),
                   F(1, 2) + x.space.d(5, 1))
        assert got == want

    def test_values_stable_under_growth(self):
        pfx = grown_prefix(8)
        x = OraclePoint(seed_structure(pfx.space, 2), pfx)
        before = [x.value("R", (i,)) for i in range(5)]
        x.ensure(20)
        assert [x.value("R", (i,)) for i in range(5)] == before

    def test_small_prefix_grows_to_seed(self):
        big = grown_prefix(8)
        x = OraclePoint(seed_structure(big.space, 3), QUPrefix())
        assert x.space.n >= 3
        assert x.value("R", (2,)) == F(1, 2)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 3), st.randoms(),
           st.lists(st.integers(1, 16), min_size=1, max_size=4))
    def test_values_match_reference_after_each_growth(self, k, rng, sizes):
        seed = random_structure(rng, prefix_metric(grown_prefix(8).space, k),
                                SIG)
        x = OraclePoint(seed, QUPrefix())
        for n in sizes:
            x.ensure(n)
            want = mcshane_fill_reference(SIG, seed.tables, x.space)
            for spec in SIG.relations:
                for tup, v in want[spec.name].items():
                    assert x.value(spec.name, tup) == v


class TestMcShaneStructure:
    SPACE = grown_prefix(12).space

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_reference_on_sparse_seeds(self, data):
        space = self.SPACE
        ids = st.integers(0, space.n - 1)
        vals = st.sampled_from(EIGHTHS)
        seeds = {
            "R": data.draw(st.dictionaries(st.tuples(ids), vals, max_size=3)),
            "S": data.draw(st.dictionaries(st.tuples(ids, ids), vals,
                                           max_size=3)),
        }
        if data.draw(st.booleans()):
            del seeds[data.draw(st.sampled_from(sorted(seeds)))]
        compatible = all(
            abs(v1 - v2) <= spec.coeff * max(
                space.d(a, b) for a, b in zip(t1, t2))
            for spec in SIG.relations
            for t1, v1 in seeds.get(spec.name, {}).items()
            for t2, v2 in seeds.get(spec.name, {}).items())
        M = _mcshane_structure(SIG, space, seeds)
        if not compatible:
            assert M is None
            return
        assert M.tables == mcshane_fill_reference(SIG, seeds, space)

    def test_relation_without_seeds_fills_zero(self):
        M = _mcshane_structure(SIG, self.SPACE, {"R": {(0,): F(1, 2)}})
        assert set(M.tables["S"].values()) == {F(0)}
        assert M.tables["R"][(0,)] == F(1, 2)


class TestSatKappa:
    def test_sat_recomputes_mcshane_by_hand(self):
        pfx = grown_prefix(8)
        x = OraclePoint(seed_structure(pfx.space, 2), pfx)
        v4 = min(F(1), F(1, 4) + x.space.d(4, 0), F(1, 2) + x.space.d(4, 1))
        inside = StructureCone(SIG, [
            ConeConstraint("R", (4,), v4 - F(1, 16), v4 + F(1, 16),
                           False, False)])
        outside = StructureCone(SIG, [
            ConeConstraint("R", (4,), F(0), v4 - F(1, 16), False, False)])
        assert sat(x, inside)
        assert not sat(x, outside)

    def test_sat_signature_mismatch(self):
        pfx = grown_prefix(8)
        x = OraclePoint(seed_structure(pfx.space, 2), pfx)
        cone = StructureCone(UNARY, [
            ConeConstraint("R", (0,), F(0), F(1), False, False)])
        with pytest.raises(PreconditionError):
            sat(x, cone)

    def test_kappa_contract(self):
        pfx = grown_prefix(8)
        x = OraclePoint(seed_structure(pfx.space, 2), pfx)
        for n in range(5):
            k = kappa(x, n)
            assert len(k.constraints) == n + 1
            assert cone_diam(k) <= F(1, 2 ** n)
            assert sat(x, k)

    def test_kappa_cones_nest(self):
        pfx = grown_prefix(8)
        x = OraclePoint(seed_structure(pfx.space, 2), pfx)
        for n in range(3):
            assert cone_subset(kappa(x, n + 1), kappa(x, n), x.space)

    def test_kappa_bad_index(self):
        pfx = grown_prefix(8)
        x = OraclePoint(seed_structure(pfx.space, 2), pfx)
        with pytest.raises(UsageError):
            kappa(x, -1)


class TestThresholdCone:
    def test_interval_endpoint_semantics(self):
        t = ThresholdCone(UNARY, (("R", (0,), F(1, 2)),), F(1, 2))
        c = t.materialize().constraints[0]
        assert (c.lo, c.hi, c.lo_open, c.hi_open) == (F(0), F(1), True, True)

        c = t.scaled(F(1, 8)).materialize().constraints[0]
        assert (c.lo, c.hi) == (F(3, 8), F(5, 8))
        assert c.lo_open and c.hi_open

        edge = ThresholdCone(UNARY, (("R", (0,), F(0)),), F(1, 4))
        c = edge.materialize().constraints[0]
        # |v - 0| < 1/4 keeps the closed endpoint at 0
        assert (c.lo, c.hi, c.lo_open, c.hi_open) == (F(0), F(1, 4),
                                                      False, True)

    def test_validation(self):
        with pytest.raises(UsageError):
            ThresholdCone(UNARY, (("R", (0,), F(1, 2)),), F(0))
        with pytest.raises(UsageError):
            ThresholdCone(UNARY, (("R", (0,), F(2)),), F(1, 2))

    def test_text_round_trip(self):
        t = ThresholdCone(SIG, (("R", (0,), F(1, 2)), ("S", (0, 1), F(1, 4))),
                          F(1, 8))
        assert ThresholdCone.from_text(t.to_text(), SIG) == t

    def test_from_text_rejects_malformed(self):
        with pytest.raises(UsageError):
            ThresholdCone.from_text("term R 0 1/2\n", SIG)
        with pytest.raises(UsageError):
            ThresholdCone.from_text("tcone r=1/8\nterm T 0 1/2\n", SIG)
        with pytest.raises(UsageError):
            ThresholdCone.from_text("tcone r=1/8\nterm S 0 1/2\n", SIG)


class TestConeGap:
    def setup_method(self):
        self.space = prefix_metric(grown_prefix(8).space, 2)
        self.cone = StructureCone(UNARY, [
            ConeConstraint("R", (0,), F(1, 4), F(1, 2), True, True)])

    def structure(self, v):
        return FinStructure(UNARY, self.space,
                            {"R": {(0,): v, (1,): v}})

    def test_distance_to_interval(self):
        assert cone_gap(self.cone, self.structure(F(3, 4))) == F(1, 4)
        assert cone_gap(self.cone, self.structure(F(1, 8))) == F(1, 8)
        assert cone_gap(self.cone, self.structure(F(3, 8))) == F(0)

    def test_endpoint_flags_ignored(self):
        # the grey value of the cone is blind to open endpoints
        assert cone_gap(self.cone, self.structure(F(1, 4))) == F(0)


class TestFormalInclusion:
    def setup_method(self):
        self.space = grown_prefix(40).space

    def test_half_width_shrink_around_same_center(self):
        t1 = ThresholdCone(UNARY, (("R", (0,), F(1, 2)),
                                   ("R", (1,), F(1, 2))), F(1, 8))
        t2 = ThresholdCone(UNARY, (("R", (0,), F(1, 2)),), F(1, 2))
        assert formal_inclusion(t1, t2, self.space)

    def test_equal_radius_fails_the_gate(self):
        t = ThresholdCone(UNARY, (("R", (0,), F(1, 2)),), F(1, 4))
        assert not formal_inclusion(t, t, self.space)

    def test_bigger_into_smaller_fails(self):
        t1 = ThresholdCone(UNARY, (("R", (0,), F(1, 2)),), F(1, 2))
        t2 = ThresholdCone(UNARY, (("R", (0,), F(1, 2)),), F(1, 8))
        assert not formal_inclusion(t1, t2, self.space)

    def test_robustly_empty_left_side(self):
        # R is 1-Lipschitz and d(0,1) = 1/4, so no structure can hold
        # R(0) near 0 and R(1) near 1; the cone stays empty under the
        # probe enlargement and has diameter zero
        te = ThresholdCone(UNARY, (("R", (0,), F(0)), ("R", (1,), F(1))),
                           F(1, 4))
        t2 = ThresholdCone(UNARY, (("R", (0,), F(1, 2)),), F(1, 2))
        assert formal_inclusion(te, t2, self.space)

    def test_group_side_nesting(self):
        g1 = code(1, (0,), (0,), "1/8", "lt")
        g2 = code(1, (0,), (0,), "1/2", "lt")
        g3 = code(1, (0,), (0,), "1/4", "lt")
        assert formal_inclusion(g1, g2, self.space)
        assert formal_inclusion(g1, g3, self.space)
        assert not formal_inclusion(g2, g1, self.space)
        assert not formal_inclusion(g3, g3, self.space)

    def test_group_side_needs_strict_upper_cones(self):
        g1 = code(1, (0,), (0,), "1/8", "le")
        g2 = code(1, (0,), (0,), "1/2", "lt")
        with pytest.raises(UsageError):
            formal_inclusion(g1, g2, self.space)

    def test_mixed_sides_rejected(self):
        t = ThresholdCone(UNARY, (("R", (0,), F(1, 2)),), F(1, 8))
        g = code(1, (0,), (0,), "1/2", "lt")
        with pytest.raises(UsageError):
            formal_inclusion(t, g, self.space)

    def test_implies_plain_inclusion(self):
        rng = random.Random(23)
        menu = []
        for thr in (F(1, 8), F(1, 4), F(1, 2), F(3, 4)):
            for t, u in ((0, 0), (0, 1), (1, 2)):
                menu.append(code(1, (t,), (u,), thr, "lt"))
        for _ in range(60):
            c1, c2 = rng.choice(menu), rng.choice(menu)
            if formal_inclusion(c1, c2, self.space):
                assert gcone_subset(c1, c2, self.space)


class TestInvCheck:
    def setup_method(self):
        self.prefix = grown_prefix(8)

    def cone(self, tuples, lo=F(1, 4), hi=F(1, 2)):
        return StructureCone(UNARY, [
            ConeConstraint("R", (t,), lo, hi, False, False) for t in tuples])

    def test_sound_when_parameters_fixed_and_scale_dominates(self):
        r = inv_check(self.prefix, F(2), (0,), self.cone([0]))
        assert r.verdict == "Sound"

    def test_scale_at_coefficient_is_sound(self):
        r = inv_check(self.prefix, F(1), (0, 1), self.cone([0, 1]))
        assert r.verdict == "Sound"

    def test_small_scale_is_unknown(self):
        r = inv_check(self.prefix, F(1, 2), (0,), self.cone([0]))
        assert r.verdict == "Unknown"

    def test_empty_tuple_never_sound(self):
        r = inv_check(self.prefix, F(1), (), self.cone([0]))
        assert r.verdict in ("Falsified", "Unknown")

    def test_unfixed_parameter_falsified_with_valid_witness(self):
        U = self.cone([1])
        r = inv_check(self.prefix, F(1), (0,), U)
        assert r.verdict == "Falsified"
        M, gamma = r.witness, r.gamma
        M.check()
        gamma.validate(M.space)
        # the claimed inequality really fails, recomputed from scratch
        hterm = min(F(1), F(1) * max(
            (M.space.d(gamma.apply(t), t) for t in (0,)), default=F(0)))
        ginv = gamma.inverse()
        before = after = F(0)
        for c in U.constraints:
            v0 = M.value(c.rel, c.tup)
            v1 = M.value(c.rel, ginv.apply_tuple(c.tup))
            before = max(before, c.lo - v0, v0 - c.hi)
            after = max(after, c.lo - v1, v1 - c.hi)
        assert after > min(F(1), before + hterm)

    def test_vacuous_cone_is_sound(self):
        U = StructureCone(UNARY, [])
        assert inv_check(self.prefix, F(1), (), U).verdict == "Sound"

    def test_sound_survives_random_trials(self):
        U = self.cone([0, 1])
        assert inv_check(self.prefix, F(1), (0, 1), U).verdict == "Sound"
        rng = random.Random(31)
        pfx = self.prefix
        for _ in range(50):
            pfx, gamma = extend_partial_isometry(
                pfx, PartialIsometry([]), [rng.randrange(3)])
            pfx, gamma = extend_partial_isometry(pfx, gamma, [0, 1])
            inv_pfx, ginv = extend_partial_isometry(
                pfx, gamma.inverse(), [0, 1])
            pfx, gamma = inv_pfx, ginv.inverse()
            M = random_structure(rng, pfx.space, UNARY)
            hterm = min(F(1), max(pfx.space.d(gamma.apply(t), t)
                                  for t in (0, 1)))
            before = after = F(0)
            for c in U.constraints:
                v0 = M.value(c.rel, c.tup)
                v1 = M.value(c.rel, ginv.apply_tuple(c.tup))
                before = max(before, c.lo - v0, v0 - c.hi)
                after = max(after, c.lo - v1, v1 - c.hi)
            assert after <= min(F(1), before + hterm)

    def test_bad_inputs(self):
        with pytest.raises(UsageError):
            inv_check(self.prefix, F(0), (0,), self.cone([0]))
        with pytest.raises(PreconditionError):
            inv_check(self.prefix, F(1), (99,), self.cone([0]))


class TestGreyAxioms:
    """The canonical family H(g) = min(1, q * d(g(sbar), sbar)) is a
    grey subgroup: identity at zero, symmetry, subadditivity."""

    def H(self, q, sbar, g, space):
        c = GreyCosetCode(q, sbar, sbar, F(1, 2), "lt")
        return coset_value(c, g, space)

    def test_identity_is_zero(self):
        space = grown_prefix(8).space
        assert self.H(F(2), (0, 1, 2), PartialIsometry.identity([0, 1, 2]),
                      space) == 0

    def test_symmetry(self):
        rng = random.Random(41)
        pfx = grown_prefix(8)
        sbar = (0, 1)
        for _ in range(30):
            pfx, g = extend_partial_isometry(
                pfx, PartialIsometry([(0, rng.randrange(4))]), [1])
            # extend the inverse so both directions cover sbar
            pfx2, ginv = extend_partial_isometry(pfx, g.inverse(), [0, 1])
            g_full = ginv.inverse()
            q = rng.choice([F(1, 2), F(1), F(2)])
            assert self.H(q, sbar, g_full, pfx2.space) == \
                self.H(q, sbar, ginv, pfx2.space)
            pfx = pfx2

    def test_subadditivity(self):
        rng = random.Random(43)
        pfx = grown_prefix(8)
        sbar = (0, 1)
        for _ in range(30):
            pfx, g2 = extend_partial_isometry(
                pfx, PartialIsometry([(0, rng.randrange(4))]), [1])
            pfx, g1 = extend_partial_isometry(
                pfx, PartialIsometry([(1, rng.randrange(3))]),
                list(sbar) + [g2.apply(0), g2.apply(1)])
            comp = g1.compose(g2)
            q = rng.choice([F(1, 2), F(1), F(2)])
            space = pfx.space
            lhs = self.H(q, sbar, comp, space)
            rhs = min(F(1),
                      self.H(q, sbar, g1, space) + self.H(q, sbar, g2, space))
            assert lhs <= rhs
