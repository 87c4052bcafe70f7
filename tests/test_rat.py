from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from urybench import rat
from urybench.errors import UsageError
from urybench.logic import (AbsDiff, Const, FinStructure, Half, Neg, Signature,
                            TAdd, TMul, TSub, eval_formula)
from urybench.metric import FinMetric

# The truncated connectives exist only as logic's compiled closures; these
# evaluate one node over constants, on an empty structure.
EMPTY = FinStructure(Signature([]), FinMetric(), {})


def _connective(node):
    return lambda *args: eval_formula(EMPTY, node(*map(Const, args)))


neg, half, tsub, tadd, absdiff = map(_connective, (Neg, Half, TSub, TAdd, AbsDiff))


def tmul(q, x):
    return eval_formula(EMPTY, TMul(q, Const(x)))


units = st.fractions(min_value=0, max_value=1, max_denominator=64)
positives = st.fractions(min_value=F(1, 64), max_value=8, max_denominator=64)


def test_truncated_difference():
    assert tsub(F(7, 10), F(3, 10)) == F(2, 5)
    assert tsub(F(3, 10), F(7, 10)) == 0


def test_truncated_sum_caps():
    assert tadd(F(3, 4), F(1, 2)) == 1
    assert tadd(F(1, 4), F(1, 2)) == F(3, 4)


def test_truncated_product_caps():
    assert tmul(F(3), F(1, 2)) == 1
    assert tmul(F(1, 2), F(1, 2)) == F(1, 4)


def test_parse_format_round_trip():
    for text in ["0", "1", "3/4", "7/10"]:
        assert rat.format_rat(rat.parse_rat01(text)) == text
    # canonicalization
    assert rat.format_rat(rat.parse_rat01("2/4")) == "1/2"


def test_parse_rejects():
    with pytest.raises(UsageError):
        rat.parse_rat01("5/4")
    with pytest.raises(UsageError):
        rat.parse_rat("1/0")
    with pytest.raises(UsageError):
        rat.parse_rat("x")


@given(units, units)
def test_closure(x, y):
    for v in (neg(x), half(x), tsub(x, y), tadd(x, y),
              absdiff(x, y), min(x, y), max(x, y)):
        assert 0 <= v <= 1


@given(positives, units)
def test_tmul_closure(q, x):
    assert 0 <= tmul(q, x) <= 1


@given(units, units, units)
def test_one_lipschitz_in_each_argument(x, y, z):
    # unary and binary connectives are 1-Lipschitz coordinatewise
    assert abs(neg(x) - neg(y)) <= abs(x - y)
    assert abs(half(x) - half(y)) <= abs(x - y)
    for f in (tsub, tadd, absdiff, min, max):
        assert abs(f(x, z) - f(y, z)) <= abs(x - y)
        assert abs(f(z, x) - f(z, y)) <= abs(x - y)


@given(positives, units, units)
def test_tmul_q_lipschitz(q, x, y):
    assert abs(tmul(q, x) - tmul(q, y)) <= q * abs(x - y)


@given(units)
def test_identities(x):
    assert neg(neg(x)) == x
    assert tsub(x, rat.ZERO) == x
    assert tadd(x, rat.ZERO) == x
    assert half(x) + half(x) == x


@pytest.mark.parametrize("text", ["\u0663/4", "1/\u0664", " +1_0/20 ", "+1/2",
                                  "1_0/20", "1/-2", "- 3/4", "\u00b2"])
def test_parse_rat_takes_ascii_digits_only(text):
    with pytest.raises(UsageError):
        rat.parse_rat(text)


def test_parse_rat_keeps_sign_and_blanks():
    assert rat.parse_rat(" -3/4 ") == F(-3, 4)
    assert rat.parse_rat("1 / 2") == rat.parse_rat("1 /2") == F(1, 2)
    assert rat.parse_rat("6/8") == F(3, 4)
