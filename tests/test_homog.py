"""Back-and-forth runs, homogeneity audits, and the family checker."""

import itertools
import random
from fractions import Fraction as F
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urybench import homog
from urybench.errors import PreconditionError, UsageError
from urybench.homog import (
    BackForthState, DriftCertificate, Stuck, approx_homog_test,
    back_and_forth, sc_check, stage_budget,
)
from urybench.logic import (
    AbsDiff, Atom, Const, D, FinStructure, RelSpec, Signature, Var,
)
from urybench.metric import FinMetric, QUPrefix, qu_extend

from gen import prefix_metric, random_structure
from oracles import approx_homog_reference, back_and_forth_reference

UNARY = Signature([RelSpec("R", 1, F(1))])


def grown_prefix(steps=4):
    return qu_extend(QUPrefix(), steps)


def unary(space, vals):
    tables = {"R": {(i,): v for i, v in enumerate(vals)}}
    return FinStructure(UNARY, space, tables)


def space_with_one_half_pair():
    """Four points, d(0,1) = 1/2, every other distance 1."""
    m = FinMetric()
    m.append_point([])
    m.append_point([F(1, 2)])
    m.append_point([F(1), F(1)])
    m.append_point([F(1), F(1), F(1)])
    m.check()
    return m


def ratom(var):
    return Atom("R", (Var(var),))


class TestStageBudget:
    def test_values(self):
        assert stage_budget(F(1, 4), 3) == (F(1, 64), F(1, 128), F(1, 256))

    def test_closed_form_sum(self):
        # geometric: eps/8 * (1 - 2^-steps), always below eps/8 < eps/4
        for eps in (F(1), F(1, 2), F(1, 4), F(3, 8)):
            for steps in range(1, 7):
                total = sum(stage_budget(eps, steps), F(0))
                assert total == eps / 8 * (1 - F(1, 2 ** steps))
                assert total < eps / 8 < eps / 4

    def test_zero_steps(self):
        assert stage_budget(F(1, 2), 0) == ()

    def test_bad_inputs(self):
        with pytest.raises(UsageError):
            stage_budget(F(1, 2), -1)
        with pytest.raises(UsageError):
            stage_budget(F(3, 2), 2)


class TestBackForth:
    def test_identity_run(self):
        p = grown_prefix()
        state, cert = back_and_forth(p, (0, 1), (0, 1), F(1, 2), 4)
        assert isinstance(state, BackForthState)
        assert isinstance(cert, DriftCertificate)
        assert cert.per_coord == (F(0), F(0))
        assert cert.verified()
        assert cert.lines == (
            "stage 1 side d drift 0 tol 1/32",
            "stage 2 side c drift 0 tol 1/64",
            "stage 3 side d drift 0 tol 1/128",
            "stage 4 side c drift 0 tol 1/256",
        )

    def test_mapped_singletons(self):
        p = grown_prefix()
        state, cert = back_and_forth(p, (0,), (1,), F(1, 4), 3)
        assert state.cbar[0] == 0 and state.dbar[0] == 1
        assert len(state.cbar) == 1 + 3
        assert cert.per_coord == (F(0),)
        assert cert.bound == F(7, 256)
        assert cert.verified()

    def test_final_map_is_isometric(self):
        p = grown_prefix()
        state, _ = back_and_forth(p, (0,), (2,), F(1, 2), 5)
        sp = state.prefix.space
        k = len(state.cbar)
        for i in range(k):
            assert state.alpha.apply(state.cbar[i]) == state.dbar[i]
            for j in range(i):
                assert (sp.d(state.cbar[i], state.cbar[j])
                        == sp.d(state.dbar[i], state.dbar[j]))

    def test_prefix_grows_on_demand_and_input_untouched(self):
        p = grown_prefix()
        state, _ = back_and_forth(p, (0,), (2,), F(1, 2), 6)
        assert state.prefix.space.n > 3
        assert p.space.n == 3
        # original distances survive in the grown prefix
        assert state.prefix.space.d(0, 1) == F(1, 4)
        assert state.prefix.space.d(0, 2) == F(1, 3)
        assert state.prefix.space.d(1, 2) == F(7, 12)

    def test_sides_alternate(self):
        p = grown_prefix()
        _, cert = back_and_forth(p, (0,), (0,), F(1, 2), 6)
        sides = [line.split()[3] for line in cert.lines]
        assert sides == ["d", "c", "d", "c", "d", "c"]

    def test_zero_steps(self):
        p = grown_prefix()
        state, cert = back_and_forth(p, (1, 0), (1, 0), F(1, 2), 0)
        assert state.cbar == (1, 0)
        assert state.dbar == (1, 0)
        assert cert.lines == ()
        assert cert.bound == F(0)
        assert cert.verified()

    def test_repeated_coordinates(self):
        p = grown_prefix()
        state, cert = back_and_forth(p, (0, 0), (1, 1), F(1, 2), 2)
        assert state.dbar[:2] == (1, 1)
        assert cert.per_coord[:2] == (F(0), F(0))

    def test_length_mismatch(self):
        p = grown_prefix()
        with pytest.raises(PreconditionError):
            back_and_forth(p, (0, 1), (0,), F(1, 2), 1)

    def test_diagram_mismatch(self):
        p = grown_prefix()
        # d(0,1) = 1/4 but d(0,2) = 1/3
        with pytest.raises(PreconditionError):
            back_and_forth(p, (0, 1), (0, 2), F(1, 2), 1)
        with pytest.raises(PreconditionError):
            back_and_forth(p, (0, 0), (0, 1), F(1, 2), 1)

    def test_unknown_point(self):
        p = grown_prefix()
        with pytest.raises(UsageError):
            back_and_forth(p, (0, 7), (0, 7), F(1, 2), 1)

    def test_negative_steps(self):
        p = grown_prefix()
        with pytest.raises(UsageError):
            back_and_forth(p, (0,), (0,), F(1, 2), -2)


class TestBackForthOverlay:
    def test_identity_with_full_carrier_structure(self):
        p = grown_prefix()
        M = unary(p.space.copy(), [F(1, 2), F(1, 2), F(1, 2)])
        state, cert = back_and_forth(p, (0,), (0,), F(1, 4), 3, M=M)
        assert cert.verified()
        # stage 3 exhausts the carrier on the d side and grows the prefix
        assert state.prefix.space.n >= 4

    def test_swap_succeeds_one_stage(self):
        p = grown_prefix()
        M = unary(p.space.copy(), [F(1, 2), F(1, 2), F(1, 2)])
        state, cert = back_and_forth(p, (0,), (1,), F(1, 2), 1, M=M)
        assert state.cbar == (0, 1)
        assert state.dbar == (1, 0)
        assert cert.verified()

    def test_swap_sticks_at_stage_two(self):
        # stage 2 must mirror point 2 across the swap; the only fresh
        # completion sits at 1/3 from the carrier, so its extended value
        # 1/2 + 1/3 differs from R(2) = 1/2 by 1/3 > eps/32
        p = grown_prefix()
        M = unary(p.space.copy(), [F(1, 2), F(1, 2), F(1, 2)])
        assert F(1, 3) > F(1, 2) / 32
        with pytest.raises(Stuck) as exc:
            back_and_forth(p, (0,), (1,), F(1, 2), 2, M=M)
        assert exc.value.stage == 2
        assert "point 2" in exc.value.obstruction

    def test_initial_atom_gate(self):
        p = grown_prefix()
        M = unary(prefix_metric(p.space, 2), [F(0), F(1, 4)])
        # extended value at point 2 is min(0 + 1/3, 1/4 + 7/12) = 1/3
        assert min(F(1, 3), F(1, 4) + F(7, 12)) == F(1, 3)
        with pytest.raises(PreconditionError):
            back_and_forth(p, (0,), (2,), F(1, 4), 1, M=M)

    def test_sticks_when_no_mirror_fits_the_atoms(self):
        p = grown_prefix()
        M = unary(prefix_metric(p.space, 2), [F(0), F(1, 4)])
        # gate passes at eps = 1/2, but any mirror of point 0 at distance
        # 1/3 from point 0 carries extended value 1/3, off by 1/3 > 1/32
        with pytest.raises(Stuck) as exc:
            back_and_forth(p, (0,), (2,), F(1, 2), 1, M=M)
        assert exc.value.stage == 1

    def test_structure_space_must_be_a_prefix(self):
        p = grown_prefix()
        other = FinMetric()
        other.append_point([])
        other.append_point([F(1, 2)])
        M = unary(other, [F(0), F(0)])
        with pytest.raises(PreconditionError):
            back_and_forth(p, (0,), (0,), F(1, 2), 1, M=M)

    def test_structure_carrier_too_large(self):
        p = grown_prefix()
        big = qu_extend(p, 10)
        M = unary(big.space.copy(), [F(0)] * big.space.n)
        if big.space.n > p.space.n:
            with pytest.raises(PreconditionError):
                back_and_forth(p, (0,), (0,), F(1, 2), 1, M=M)


class TestApproxHomog:
    def test_singletons_all_pairs_drift_zero(self):
        rep = approx_homog_test(grown_prefix(), 1, F(1, 4), 4)
        assert rep.total == 9
        assert rep.successes == 9
        assert rep.ok
        assert rep.max_drift == F(0)
        assert rep.bound == F(15, 512)
        assert rep.lines[0].startswith("pairs 9 successes 9 failures 0")

    def test_pairs_with_denominator_filter(self):
        # distances 1/4 and 1/3 pass the bound, 7/12 does not; the
        # diagram groups have sizes 3, 2, 2, so 9 + 4 + 4 ordered pairs
        rep = approx_homog_test(grown_prefix(), 2, F(1, 4), 4)
        assert rep.total == 17
        assert rep.successes == 17
        assert rep.max_drift == F(0)

    def test_tight_denominator_keeps_repeats_only(self):
        rep = approx_homog_test(grown_prefix(), 2, F(1, 4), 1)
        assert rep.total == 9
        assert rep.ok

    def test_bad_inputs(self):
        with pytest.raises(PreconditionError):
            approx_homog_test(QUPrefix(), 1, F(1, 4), 4)
        with pytest.raises(UsageError):
            approx_homog_test(grown_prefix(), 0, F(1, 4), 4)
        with pytest.raises(UsageError):
            approx_homog_test(grown_prefix(), 1, F(1, 4), 0)


# --- the game engine against the reference ------------------------------------

OVERLAY = Signature([RelSpec("R", 1, F(1)), RelSpec("S", 2, F(2))])


@lru_cache(maxsize=None)
def _prefix_text(steps):
    return qu_extend(QUPrefix(), steps).to_text()


def _prefix(steps):
    """A fresh copy of the prefix after the given schedule steps."""
    return QUPrefix.from_text(_prefix_text(steps))


@lru_cache(maxsize=None)
def _diagram_groups(steps, m):
    """The m-tuples over the prefix, grouped by equal metric diagrams."""
    space = _prefix(steps).space
    groups = {}
    for tup in itertools.product(space.points, repeat=m):
        diagram = tuple(space.d(tup[i], tup[j])
                        for i in range(m) for j in range(i))
        groups.setdefault(diagram, []).append(tup)
    return list(groups.values())


def _outcome(play, prefix, abar, bbar, eps, steps, M):
    try:
        state, cert = play(prefix, abar, bbar, eps, steps, M=M)
    except Stuck as s:
        return "stuck", s.stage, s.obstruction, str(s)
    except (PreconditionError, UsageError) as e:
        return type(e).__name__, str(e)
    return ("ok", state.stage, state.cbar, state.dbar,
            tuple(state.alpha.pairs), state.budget, cert.per_coord,
            cert.bound, cert.lines, state.prefix.to_text())


@st.composite
def games(draw):
    """A prefix of 0-40 schedule steps (small ones often, so that games
    grow the schedule), an equal-diagram tuple pair of length 1-3, 0-6
    stages, and no overlay, a near-constant one that rarely blocks a
    stage, or a random Lipschitz one on an initial segment."""
    steps = draw(st.integers(0, 6) | st.integers(0, 40))
    m = draw(st.integers(1, 3))
    eps = draw(st.sampled_from([F(1), F(1, 2), F(1, 4), F(3, 8)]))
    stages = draw(st.integers(0, 6))
    prefix = _prefix(steps)
    if prefix.space.n == 0:
        return prefix, (0,) * m, (0,) * m, eps, stages, None
    group = draw(st.sampled_from(_diagram_groups(steps, m)))
    abar = draw(st.sampled_from(group))
    bbar = draw(st.sampled_from(group))
    kind = draw(st.sampled_from(["none", "flat", "random"]))
    M = None
    if kind != "none":
        carrier = prefix_metric(prefix.space, draw(st.integers(1, prefix.space.n)))
        rng = random.Random(draw(st.integers(0, 2 ** 32)))
        if kind == "random":
            M = random_structure(rng, carrier, OVERLAY)
        else:
            tables = {spec.name: {
                t: 1 - F(rng.randint(0, 4), 1024)
                for t in itertools.product(carrier.points, repeat=spec.arity)}
                for spec in OVERLAY.relations}
            M = FinStructure(OVERLAY, carrier, tables)
    return prefix, abar, bbar, eps, stages, M


class TestEngineAgainstReference:
    @settings(max_examples=250, deadline=None)
    @given(games())
    def test_back_and_forth_matches_reference(self, game):
        prefix, abar, bbar, eps, stages, M = game
        text = prefix.to_text()
        got = _outcome(back_and_forth, prefix, abar, bbar, eps, stages, M)
        assert prefix.to_text() == text
        assert got == _outcome(back_and_forth_reference, prefix, abar, bbar,
                               eps, stages, M)

    def test_some_games_grow_the_schedule(self):
        prefix = _prefix(1)
        state, _ = back_and_forth(prefix, (0,), (0,), F(1, 2), 4)
        assert (state.prefix.stage, state.prefix.pos) != (prefix.stage,
                                                          prefix.pos)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("steps", [1, 3, 4, 5, 6, 7, 8, 17, 18])
    def test_audit_matches_reference_loop(self, steps, n):
        prefix = _prefix(steps)
        assert 1 <= prefix.space.n <= 9
        for eps, bound in ((F(1, 2), 4), (F(1, 4), 2)):
            rep = approx_homog_test(prefix, n, eps, bound)
            assert rep.lines == approx_homog_reference(prefix, n, eps, bound)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("steps", [1, 3, 4, 8])
    def test_audit_games_match_fresh_reference_games(self, monkeypatch,
                                                     steps, n):
        """Every game the audit plays on its shared working space ends as
        the reference game on a fresh copy of the prefix does."""
        played = []
        play = homog._play

        def spy(work, abar, bbar, budget, M):
            cbar, dbar, alpha = play(work, abar, bbar, budget, M)
            played.append((abar, bbar, tuple(cbar), tuple(dbar),
                           tuple(alpha.pairs), work.to_text()))
            return cbar, dbar, alpha
        monkeypatch.setattr(homog, "_play", spy)
        prefix = _prefix(steps)
        rep = approx_homog_test(prefix, n, F(1, 2), 4)
        assert len(played) == rep.total > 0
        for abar, bbar, cbar, dbar, pairs, text in played:
            state, _ = back_and_forth_reference(prefix, abar, bbar, F(1, 2), 4)
            assert (cbar, dbar, pairs, text) == (
                state.cbar, state.dbar, tuple(state.alpha.pairs),
                state.prefix.to_text())


class TestAuditSharedSpace:
    @pytest.mark.parametrize("steps", [1, 3, 18])
    def test_input_untouched_and_repeatable(self, steps):
        # on the 1- and 2-point prefixes every game grows the schedule, so
        # the audit takes a fresh working copy after each of them
        prefix = _prefix(steps)
        text = prefix.to_text()
        first = approx_homog_test(prefix, 1, F(1, 2), 4)
        assert prefix.to_text() == text
        second = approx_homog_test(prefix, 1, F(1, 2), 4)
        assert prefix.to_text() == text
        assert first == second
        assert first.ok


class TestSCCheck:
    def test_trivial_family_covers_and_extends(self):
        M = unary(space_with_one_half_pair(), [F(0)] * 4)
        rep = sc_check(M, 1, F(1, 4), [((0,), Const(F(0)), F(0))], {})
        assert rep.ok
        assert rep.lines == (
            "cover ok on 4 tuples; extension ok on 4 cases",)

    def test_family_witness_must_hold(self):
        M = unary(space_with_one_half_pair(),
                  [F(1, 2), F(0), F(1, 2), F(1, 2)])
        rep = sc_check(M, 1, F(1, 4), [((0,), ratom("x1"), F(0))], {})
        assert not rep.ok
        assert rep.clause == "family"
        assert rep.index == 0
        assert rep.abar == (0,)

    def test_cover_failure_names_first_uncovered_tuple(self):
        M = unary(space_with_one_half_pair(),
                  [F(0), F(1, 2), F(1, 2), F(1, 2)])
        rep = sc_check(M, 1, F(1, 4), [((0,), ratom("x1"), F(0))], {})
        assert not rep.ok
        assert rep.clause == "cover"
        assert rep.abar == (1,)

    def test_empty_pools_extend_trivially(self):
        M = unary(space_with_one_half_pair(), [F(0)] * 4)
        rep = sc_check(M, 1, F(1, 4), [((0,), Const(F(0)), F(0))], {0: []})
        assert rep.ok

    def test_engineered_extension_failure(self):
        # the pool formula pins d(b1, b2) = 1/2, realized only by the pair
        # (0, 1); point 2 sits at distance 1 from both, beyond eps = 1/4
        M = unary(space_with_one_half_pair(), [F(0)] * 4)
        phi = AbsDiff(D(Var("x1"), Var("x2")), Const(F(1, 2)))
        eps = F(1, 4)

        sp = M.space
        assert abs(sp.d(0, 1) - F(1, 2)) == 0
        for lone in (2, 3):
            near = [b1 for b1 in sp.points if sp.d(lone, b1) <= eps]
            assert near == [lone]
            assert all(sp.d(lone, b2) != F(1, 2) for b2 in sp.points)

        rep = sc_check(M, 1, eps, [((0,), Const(F(0)), F(0))], {0: [phi]})
        assert not rep.ok
        assert rep.clause == "extend"
        assert rep.index == 0
        assert rep.abar == (2,)
        assert rep.cbar == (0, 1)
        assert rep.delta == (phi,)

    def test_monotone_in_the_pool(self):
        M = unary(space_with_one_half_pair(), [F(0)] * 4)
        bad = AbsDiff(D(Var("x1"), Var("x2")), Const(F(1, 2)))
        fam = [((0,), Const(F(0)), F(0))]
        chain = [[], [Const(F(0))], [Const(F(0)), bad], [bad]]
        verdicts = [sc_check(M, 1, F(1, 4), fam, {0: pool}).ok
                    for pool in chain]
        assert verdicts == [True, True, False, False]

    def test_two_tuples_pass_with_wide_eps(self):
        M = unary(space_with_one_half_pair(), [F(0)] * 4)
        phi = AbsDiff(D(Var("x1"), Var("x2")), Const(F(1, 2)))
        rep = sc_check(M, 1, F(1), [((0,), Const(F(0)), F(0))], {0: [phi]})
        assert rep.ok

    def test_deterministic_report(self):
        M = unary(space_with_one_half_pair(), [F(0)] * 4)
        phi = AbsDiff(D(Var("x1"), Var("x2")), Const(F(1, 2)))
        fam = [((0,), Const(F(0)), F(0))]
        r1 = sc_check(M, 1, F(1, 4), fam, {0: [phi]})
        r2 = sc_check(M, 1, F(1, 4), fam, {0: [phi]})
        assert r1.lines == r2.lines
        assert r1.cbar == r2.cbar

    def test_variable_conventions_enforced(self):
        M = unary(space_with_one_half_pair(), [F(0)] * 4)
        with pytest.raises(UsageError):
            sc_check(M, 1, F(1, 4), [((0,), ratom("y"), F(0))], {})
        with pytest.raises(UsageError):
            sc_check(M, 1, F(1, 4), [((0,), ratom("x2"), F(0))], {})
        with pytest.raises(UsageError):
            sc_check(M, 1, F(1, 4), [((0,), Const(F(0)), F(0))],
                     {0: [ratom("x3")]})

    def test_bad_inputs(self):
        M = unary(space_with_one_half_pair(), [F(0)] * 4)
        with pytest.raises(UsageError):
            sc_check(M, 0, F(1, 4), [], {})
        with pytest.raises(UsageError):
            sc_check(M, 1, F(3, 2), [((0,), Const(F(0)), F(0))], {})
        with pytest.raises(UsageError):
            sc_check(M, 1, F(1, 4), [((0, 1), Const(F(0)), F(0))], {})
        with pytest.raises(UsageError):
            sc_check(M, 1, F(1, 4), [((9,), Const(F(0)), F(0))], {})
        with pytest.raises(UsageError):
            sc_check(M, 1, F(1, 4), [((0,), Const(F(0)), F(-1))], {})

    def test_empty_family_fails_cover(self):
        M = unary(space_with_one_half_pair(), [F(0)] * 4)
        rep = sc_check(M, 1, F(1, 4), [], {})
        assert not rep.ok
        assert rep.clause == "cover"
        assert rep.abar == (0,)
