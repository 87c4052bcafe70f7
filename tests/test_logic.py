"""Tests for formula parsing, modulus inference, and evaluation."""

import itertools
import random
import re
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gen import default_sig, prefix_metric, random_formula, random_metric, \
    random_structure
from oracles import (eval_formula_reference, eval_interval_reference,
                     mcshane_fill_reference)
from urybench.errors import PreconditionError, UsageError
from urybench.logic import (
    AbsDiff,
    Atom,
    Const,
    D,
    FinStructure,
    Half,
    Inf,
    Max,
    Min,
    Neg,
    Pt,
    RelSpec,
    Signature,
    Sup,
    TAdd,
    TMul,
    TSub,
    Var,
    compile_formula,
    eval_formula,
    eval_interval,
    fill_value,
    format_formula,
    free_vars,
    lipschitz_extend,
    modulus,
    parse,
)
from urybench.metric import FinMetric, qu_complete_stage, QUPrefix


SIG = default_sig()
STAGE1 = qu_complete_stage(QUPrefix(), 1).space


def small_structure():
    m = FinMetric()
    m.append_point([])
    m.append_point([F(1, 2)])
    m.append_point([F(3, 4), F(1, 4)])
    tables = {
        "R": {(0,): F(1, 3), (1,): F(2, 3), (2,): F(1, 2)},
        "S": {(a, b): abs(F(a) - F(b)) / 4 for a in range(3)
              for b in range(3)},
    }
    return FinStructure(SIG, m, tables)


class TestSignature:
    def test_rejects_keyword_name(self):
        with pytest.raises(UsageError):
            Signature([RelSpec("sup", 1, F(1))])

    def test_rejects_metric_symbol(self):
        with pytest.raises(UsageError):
            Signature([RelSpec("d", 2, F(1))])

    def test_rejects_duplicate(self):
        with pytest.raises(UsageError):
            Signature([RelSpec("R", 1, F(1)), RelSpec("R", 2, F(1))])

    def test_rejects_nonpositive_coeff(self):
        with pytest.raises(UsageError):
            Signature([RelSpec("R", 1, F(0))])


class TestParse:
    def test_tsub_of_distance(self):
        f = parse("tsub(d(x,y), 1/2)", SIG)
        assert f == TSub(D(Var("x"), Var("y")), Const(F(1, 2)))

    def test_sup_min(self):
        f = parse("sup(x, min(S(x,y), neg(S(y,x))))", SIG)
        assert f == Sup("x", Min((Atom("S", (Var("x"), Var("y"))),
                                  Neg(Atom("S", (Var("y"), Var("x")))))))

    def test_point_constants(self):
        f = parse("d(0, x)", SIG)
        assert f == D(Pt(0), Var("x"))

    def test_arity_mismatch(self):
        with pytest.raises(UsageError, match="position"):
            parse("S(x)", SIG)

    def test_unknown_relation(self):
        with pytest.raises(UsageError, match="unknown relation"):
            parse("T(x)", SIG)

    def test_keyword_as_variable(self):
        with pytest.raises(UsageError):
            parse("d(sup, x)", SIG)

    def test_trailing_input(self):
        with pytest.raises(UsageError, match="trailing"):
            parse("neg(0) junk", SIG)

    def test_constant_out_of_range(self):
        with pytest.raises(UsageError):
            parse("5/4", SIG)

    def test_min_needs_two_arguments(self):
        with pytest.raises(UsageError):
            parse("min(R(x))", SIG)

    def test_round_trip_random(self):
        rng = random.Random(7)
        for _ in range(200):
            f = random_formula(rng, SIG, ["x", "y"], depth=4, n_points=3)
            text = format_formula(f)
            assert parse(text, SIG) == f


class TestModulus:
    def test_distance_atom(self):
        assert modulus(parse("d(x,y)", SIG), SIG) == 2

    def test_constant(self):
        assert modulus(parse("1/2", SIG), SIG) == 0

    def test_sum_rule(self):
        assert modulus(parse("tadd(d(x,y), d(y,z))", SIG), SIG) == 4

    def test_half_and_scale(self):
        assert modulus(parse("half(d(x,y))", SIG), SIG) == 1
        assert modulus(parse("tmul(3/2, S(x,y))", SIG), SIG) == 3

    def test_lattice_takes_max(self):
        assert modulus(parse("min(R(x), S(x,y))", SIG), SIG) == 2

    def test_quantifier_passthrough(self):
        assert modulus(parse("sup(x, S(x,y))", SIG), SIG) == 2


class TestEval:
    def test_const(self):
        assert eval_formula(small_structure(), Const(F(2, 7))) == F(2, 7)

    def test_neg_atom(self):
        M = small_structure()
        assert eval_formula(M, parse("neg(R(x))", SIG), {"x": 0}) == F(2, 3)

    def test_sup_of_distance_enumerates_carrier(self):
        M = small_structure()
        got = eval_formula(M, parse("sup(x, d(x, 0))", SIG))
        assert got == max(M.space.d(p, 0) for p in M.space.points)

    def test_quantifier_shadows_outer_binding(self):
        M = small_structure()
        f = parse("tadd(R(x), inf(x, R(x)))", SIG)
        got = eval_formula(M, f, {"x": 1})
        assert got == F(2, 3) + F(1, 3)

    def test_unassigned_variable(self):
        with pytest.raises(UsageError, match="unassigned"):
            eval_formula(small_structure(), parse("R(x)", SIG))

    def test_point_outside_carrier(self):
        with pytest.raises(PreconditionError):
            eval_formula(small_structure(), parse("R(9)", SIG))

    def test_free_vars(self):
        f = parse("sup(x, tadd(S(x,y), R(z)))", SIG)
        assert free_vars(f) == {"y", "z"}


def test_lipschitz_soundness_random():
    """|eval(f, a) - eval(f, b)| <= modulus(f) * d(a, b), exactly."""
    rng = random.Random(20240812)
    for _ in range(300):
        space = random_metric(rng, rng.randrange(3, 6))
        M = random_structure(rng, space, SIG)
        names = ["x", "y"]
        f = random_formula(rng, SIG, names, depth=3, n_points=space.n)
        fv = sorted(free_vars(f))
        a = {v: rng.randrange(space.n) for v in fv}
        b = {v: rng.randrange(space.n) for v in fv}
        gap = abs(eval_formula(M, f, a) - eval_formula(M, f, b))
        dist = space.tuple_dist(tuple(a[v] for v in fv),
                                tuple(b[v] for v in fv))
        assert gap <= modulus(f, SIG) * dist


def test_quantifiers_monotone_under_prefix_growth():
    rng = random.Random(12)
    big = qu_complete_stage(QUPrefix(), 1).space
    for _ in range(60):
        k = rng.randrange(2, 6)
        small = prefix_metric(big, k)
        seed = random_structure(rng, small, SIG)
        grown = lipschitz_extend(seed, big)
        # growth-monotonicity needs a quantifier-free matrix: a nested
        # inf can shrink while the outer sup's range grows
        body = random_formula(rng, SIG, [], depth=3, n_points=k,
                              allow_quantifiers=False)
        sup_small = eval_formula(seed, Sup("v", TAdd(body, D(Var("v"), Pt(0)))))
        sup_big = eval_formula(grown, Sup("v", TAdd(body, D(Var("v"), Pt(0)))))
        assert sup_big >= sup_small
        inf_small = eval_formula(seed, Inf("v", TAdd(body, D(Var("v"), Pt(0)))))
        inf_big = eval_formula(grown, Inf("v", TAdd(body, D(Var("v"), Pt(0)))))
        assert inf_big <= inf_small


class TestEvalInterval:
    def test_quantifier_free_is_exact(self):
        M = small_structure()
        f = parse("tadd(R(1), half(S(0,2)))", SIG)
        lo, hi = eval_interval(M, f, r=F(1, 4))
        assert lo == hi == eval_formula(M, f)

    def test_single_sup_width(self):
        M = small_structure()
        f = parse("sup(x, S(x, 0))", SIG)
        lo, hi = eval_interval(M, f, r=F(1, 8))
        k = modulus(parse("S(x, 0)", SIG), SIG)
        assert hi - lo <= k * F(1, 8)
        assert lo == eval_formula(M, f)

    def test_zero_radius_degenerates_to_exact(self):
        M = small_structure()
        f = parse("sup(x, inf(y, d(x, y)))", SIG)
        lo, hi = eval_interval(M, f, r=F(0))
        assert lo == hi == eval_formula(M, f)

    def test_nested_depth_two_width_bound(self):
        M = small_structure()
        f = parse("sup(x, inf(y, d(x, y)))", SIG)
        lo, hi = eval_interval(M, f, r=F(1, 8))
        assert hi - lo <= F(1, 2)

    def test_refinement_containment_random(self):
        rng = random.Random(99)
        big = qu_complete_stage(QUPrefix(), 1).space
        for _ in range(50):
            k = rng.randrange(2, 5)
            small = prefix_metric(big, k)
            seed = random_structure(rng, small, SIG)
            grown = lipschitz_extend(seed, big)
            r = max(min(big.d(q, p) for p in range(k))
                    for q in range(big.n))
            f = random_formula(rng, SIG, [], depth=3, n_points=k)
            lo, hi = eval_interval(seed, f, r=min(r, F(1)))
            assert lo <= eval_formula(grown, f) <= hi


# --- the compiled evaluator against the Fraction tree walkers -------------

NAMES = ("x", "y", "z")
SIG3 = Signature([RelSpec("R", 1, F(1)), RelSpec("S", 2, F(2)),
                  RelSpec("T", 3, F(1, 2))])
SCALES = (F(1, 3), F(1, 2), F(2, 3), F(1), F(3, 2), F(2), F(3))


@st.composite
def formulas(draw, n, faulty, depth=4, quantifiers=3):
    """Every node kind over SIG3.  Variables come from NAMES, so
    quantifiers shadow each other and the free variables.  When faulty,
    literal points reach one past the carrier."""
    top = n if faulty else n - 1

    def term():
        if top >= 0 and draw(st.integers(0, 3)) == 0:
            return Pt(draw(st.integers(0, top)))
        return Var(draw(st.sampled_from(NAMES)))

    def go(depth, quantifiers):
        kind = draw(st.integers(0, 14 if depth else 2))
        if kind == 0:
            return Const(draw(st.fractions(0, 1, max_denominator=12)))
        if kind == 1:
            return D(term(), term())
        if kind == 2:
            spec = draw(st.sampled_from(SIG3.relations))
            return Atom(spec.name, tuple(term() for _ in range(spec.arity)))
        if kind == 3:
            return Neg(go(depth - 1, quantifiers))
        if kind == 4:
            return Half(go(depth - 1, quantifiers))
        if kind == 5:
            return TMul(draw(st.sampled_from(SCALES)),
                        go(depth - 1, quantifiers))
        if kind in (6, 7, 8):
            node = (TSub, TAdd, AbsDiff)[kind - 6]
            return node(go(depth - 1, quantifiers), go(depth - 1, quantifiers))
        if kind in (9, 10):
            subs = tuple(go(depth - 1, quantifiers)
                         for _ in range(draw(st.integers(2, 3))))
            return Min(subs) if kind == 9 else Max(subs)
        if quantifiers == 0:
            return go(depth - 1, 0)
        node = Sup if kind % 2 else Inf
        return node(draw(st.sampled_from(NAMES)), go(depth - 1, quantifiers - 1))

    return go(depth, quantifiers)


def _structure(rng, n, partial=False):
    if n == 0:
        return FinStructure(SIG3, FinMetric(), {s.name: {} for s in SIG3.relations})
    M = random_structure(rng, random_metric(rng, n), SIG3)
    if partial:
        for table in M.tables.values():
            for tup in list(table):
                if rng.random() < 0.1:
                    del table[tup]
    return M


def _subformulas(f):
    yield f
    if isinstance(f, (Neg, Half, TMul)):
        subs = (f.sub,)
    elif isinstance(f, (TSub, TAdd, AbsDiff)):
        subs = (f.left, f.right)
    elif isinstance(f, (Sup, Inf)):
        subs = (f.body,)
    else:
        subs = f.subs if isinstance(f, (Min, Max)) else ()
    for g in subs:
        yield from _subformulas(g)


def _outcome(fn, *args):
    try:
        out = fn(*args)
    except (UsageError, PreconditionError) as exc:
        return type(exc), str(exc)
    for v in out if isinstance(out, tuple) else (out,):
        assert type(v) is F
    return out


class TestCompiledMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.integers(1, 5), st.randoms(use_true_random=False),
           st.fractions(F(1, 8), 1, max_denominator=8))
    def test_values_are_exact(self, data, n, rng, r):
        """Every subformula too, since every name is bound."""
        M = _structure(rng, n)
        f = data.draw(formulas(n, faulty=False))
        asg = {v: data.draw(st.integers(0, n - 1)) for v in NAMES}
        for g in _subformulas(f):
            want = eval_formula_reference(M, g, asg)
            assert _outcome(eval_formula, M, g, asg) == want
            assert (_outcome(eval_interval, M, g, asg, r)
                    == eval_interval_reference(M, g, asg, r))

    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.integers(0, 5), st.randoms(use_true_random=False),
           st.fractions(0, 1, max_denominator=8), st.booleans())
    def test_errors_are_the_walks(self, data, n, rng, r, partial):
        """Unassigned variables, literal points outside the carrier,
        quantifiers over an empty carrier and missing table values raise
        the tree walk's first error, type and message."""
        M = _structure(rng, n, partial)
        f = data.draw(formulas(n, faulty=True))
        asg = data.draw(st.dictionaries(st.sampled_from(NAMES),
                                        st.integers(0, n - 1))) if n else {}
        assert (_outcome(eval_formula, M, f, asg)
                == _outcome(eval_formula_reference, M, f, asg))
        assert (_outcome(eval_interval, M, f, asg, r)
                == _outcome(eval_interval_reference, M, f, asg, r))

    def test_shadowing_quantifier(self):
        M = small_structure()
        f = parse("sup(x, tadd(R(x), inf(x, absdiff(R(x), half(d(x, 2))))))",
                  SIG)
        # the inner inf is |1/3 - 3/8| at point 0, whatever the outer x
        assert eval_formula(M, f) == eval_formula_reference(M, f) == F(17, 24)
        f = parse("tadd(R(x), sup(x, inf(x, S(x, y))))", SIG)
        asg = {"x": 1, "y": 2}
        assert eval_formula(M, f, asg) == eval_formula_reference(M, f, asg)

    def test_missing_table_value(self):
        M = small_structure()
        del M.tables["S"][(2, 0)]
        f = parse("inf(x, S(x, 0))", SIG)
        for fn in (eval_formula, eval_interval):
            with pytest.raises(PreconditionError,
                               match=r"no table value for S\(2, 0\)"):
                fn(M, f)

    def test_quantifier_over_empty_carrier(self):
        M = _structure(None, 0)
        for fn in (eval_formula, eval_interval):
            with pytest.raises(PreconditionError, match="empty carrier"):
                fn(M, parse("sup(x, 1/2)", SIG))

    @pytest.mark.parametrize("text", ["R(x)", "d(x, y)"])
    def test_binding_outside_the_carrier(self, text):
        M = small_structure()
        for fn in (eval_formula, eval_interval):
            with pytest.raises(UsageError, match="outside the carrier"):
                fn(M, parse(text, SIG), {"x": 5, "y": 0})

    def test_one_compile_serves_every_assignment(self):
        M = small_structure()
        f = parse("tadd(S(x, y), inf(z, absdiff(R(z), d(z, x))))", SIG)
        den, run = compile_formula(M, f, ("x", "y"))
        for a in M.space.points:
            for b in M.space.points:
                assert (F(run((a, b))[0], den)
                        == eval_formula(M, f, {"x": a, "y": b}))


class TestLipschitzExtend:
    def test_identity_on_same_carrier(self):
        M = small_structure()
        out = lipschitz_extend(M, M.space)
        assert out.tables == M.tables

    def test_single_seed_point(self):
        m = FinMetric()
        m.append_point([])
        m.append_point([F(1, 4)])
        sig = Signature([RelSpec("R", 1, F(1))])
        seed = FinStructure(sig, prefix_metric(m, 1), {"R": {(0,): F(0)}})
        out = lipschitz_extend(seed, m)
        assert out.tables["R"][(1,)] == F(1, 4)

    def test_extension_passes_modulus_audit(self):
        rng = random.Random(5)
        big = qu_complete_stage(QUPrefix(), 1).space
        seed = random_structure(rng, prefix_metric(big, 3), SIG)
        out = lipschitz_extend(seed, big)
        out.check()
        for tup, v in seed.tables["S"].items():
            assert out.tables["S"][tup] == v

    def test_idempotent(self):
        rng = random.Random(6)
        big = qu_complete_stage(QUPrefix(), 1).space
        seed = random_structure(rng, prefix_metric(big, 3), SIG)
        once = lipschitz_extend(seed, big)
        twice = lipschitz_extend(once, big)
        assert once.tables == twice.tables

    def test_modulus_violating_seed_rejected(self):
        m = FinMetric()
        m.append_point([])
        m.append_point([F(1, 8)])
        sig = Signature([RelSpec("R", 1, F(1))])
        seed = FinStructure(sig, m.copy(), {"R": {(0,): F(0), (1,): F(1)}})
        with pytest.raises(PreconditionError):
            lipschitz_extend(seed, m)

    def test_non_prefix_target_rejected(self):
        a = FinMetric()
        a.append_point([])
        a.append_point([F(1, 2)])
        b = FinMetric()
        b.append_point([])
        b.append_point([F(1, 4)])
        b.append_point([F(1, 4), F(1, 4)])
        sig = Signature([RelSpec("R", 1, F(1))])
        seed = FinStructure(sig, a, {"R": {(0,): F(0), (1,): F(1, 2)}})
        with pytest.raises(PreconditionError):
            lipschitz_extend(seed, b)


class TestFillValue:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, STAGE1.n), st.randoms())
    def test_matches_reference_on_prefix_carriers(self, k, rng):
        seed = random_structure(rng, prefix_metric(STAGE1, k), SIG)
        want = mcshane_fill_reference(SIG, seed.tables, STAGE1)
        for spec in SIG.relations:
            for tup, v in want[spec.name].items():
                assert fill_value(spec.coeff, seed.tables[spec.name],
                                  STAGE1, tup) == v
        assert lipschitz_extend(seed, STAGE1).tables == want

    def test_no_seed_values_fill_zero(self):
        assert fill_value(F(1), {}, STAGE1, (3,)) == 0


class TestStructureText:
    def test_round_trip(self):
        M = small_structure()
        again = FinStructure.from_text(M.to_text())
        assert again.space == M.space
        assert again.tables == M.tables
        assert again.sig == M.sig

    def test_missing_value_rejected(self):
        M = small_structure()
        text = M.to_text().replace("val R 1 2/3\n", "")
        with pytest.raises(PreconditionError):
            FinStructure.from_text(text)

    def test_duplicate_value_rejected(self):
        M = small_structure()
        text = M.to_text() + "val R 1 2/3\n"
        with pytest.raises(UsageError):
            FinStructure.from_text(text)

    def test_value_off_the_carrier_rejected(self):
        # a val line for a point the carrier lacks would otherwise act
        # as a seed value when the tables are filled over a larger space
        M = small_structure()
        text = M.to_text() + "val R 5 1/2\n"
        with pytest.raises(PreconditionError):
            FinStructure.from_text(text)

    def test_high_arity_without_values_allocates_little(self):
        text = "point 0\npoint 1\ndist 0 1 1/2\nrel R 40 mod 1\n"
        tracemalloc.start()
        try:
            with pytest.raises(PreconditionError) as exc:
                FinStructure.from_text(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(exc.value) == f"no table value for R{(0,) * 40}"
        assert peak < 1 << 20

    @pytest.mark.parametrize("missing", [0, 3, 5])
    def test_first_missing_value_in_product_order(self, missing):
        tuples = list(itertools.product(range(2), repeat=3))
        vals = "".join(f"val T {' '.join(map(str, t))} 1/2\n"
                       for i, t in enumerate(tuples) if i not in (missing, 6))
        text = "point 0\npoint 1\ndist 0 1 1/2\nrel T 3 mod 1\n" + vals
        with pytest.raises(PreconditionError,
                           match=re.escape(f"no table value for T{tuples[missing]}")):
            FinStructure.from_text(text)

    def test_modulus_violation_rejected(self):
        M = small_structure()
        # d(1, 2) = 1/4 but the jump becomes 1/2 with coeff 1
        text = M.to_text().replace("val R 1 2/3", "val R 1 1")
        with pytest.raises(PreconditionError):
            FinStructure.from_text(text)
