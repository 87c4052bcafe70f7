"""Exact rationals in [0, 1].

Values are plain fractions.Fraction instances kept in [0, 1]; Fraction
already gives canonical reduced form and exact comparisons, so this module
only adds range discipline and the p/q text format.  The connectives are
evaluated on integer numerators by logic.compile_formula.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import UsageError

Rat01 = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)

# ASCII digits only: int() would also take '+', underscores and other
# scripts' digits.  Blanks around '/' stay allowed, as int() allowed them.
_RAT = re.compile(r"(-?[0-9]+)(?:\s*/\s*([0-9]+))?")


def check_rat01(x: Fraction, where: str = "") -> Fraction:
    if x < 0 or x > 1:
        raise UsageError(f"{where}value {x} outside [0, 1]")
    return x


def parse_rat(text: str, where: str = "") -> Fraction:
    """Parse `p/q` (also bare integers; `0` and `1` are the usual shorthands).

    p and q are ASCII digit strings; p may carry a leading '-'.  Blanks
    may surround the text and the '/'.  where prefixes the error message.
    """
    m = _RAT.fullmatch(text.strip())
    if m is None or (m[2] is not None and int(m[2]) == 0):
        raise UsageError(f"{where}bad rational {text!r}")
    return Fraction(int(m[1]), int(m[2] or 1))


def parse_rat01(text: str, where: str = "") -> Fraction:
    return check_rat01(parse_rat(text, where), where)


def format_rat(x: Fraction) -> str:
    """Canonical text: `0`, `1`, or reduced `p/q`."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"
