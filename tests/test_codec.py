"""The prefix text codec and prefix copies against simpler routes.

FinMetric.to_text joins pieces shared across a row, metric._lines splits a
text about 1 MiB at a time, and FinMetric.copy shares its row lists.  Each
test here holds one of them to the plain version: the line-per-pair writer
in oracles.py, text.splitlines() with comments stripped, and copies whose
changes stay their own.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (metric_text_reference, prefix_text_reference,
                     read_metric_reference)
from urybench.errors import PreconditionError, UsageError
from urybench.metric import (FinMetric, QUPrefix, _lines,
                             append_point_completion, qu_extend)

PREFIXES = {}


def prefix(steps):
    """qu_extend from the empty prefix, computed once per size; callers
    change only copies of it."""
    if steps not in PREFIXES:
        PREFIXES[steps] = qu_extend(QUPrefix(), steps)
    return PREFIXES[steps]


OFF_LATTICE = [F(1, 7), F(3, 11), F(2, 7), F(5, 11), F(6, 7), F(3, 8),
               F(1, 2), F(1, 3), F(3, 4), F(1), F(4, 7), F(5, 9)]


def _assert_writer_matches(p):
    assert p.space.to_text() == metric_text_reference(p.space)
    assert p.to_text() == prefix_text_reference(p)


# --- writer -------------------------------------------------------------------


def test_writer_on_zero_and_one_point():
    empty, one = QUPrefix(), QUPrefix()
    one.space.append_point([])
    for p in (empty, one):
        _assert_writer_matches(p)
    assert empty.space.to_text() == "\n"
    assert one.space.to_text() == "point 0\n"


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 60),
       st.lists(st.dictionaries(st.integers(0, 60), st.sampled_from(OFF_LATTICE),
                                min_size=1, max_size=3), max_size=3))
def test_writer_matches_reference(steps, pins):
    p = prefix(steps).copy()
    _assert_writer_matches(p)
    for known in pins:
        if not p.space.n:
            break
        try:
            append_point_completion(p.space, {a % p.space.n: v for a, v in known.items()})
        except PreconditionError:
            continue
        _assert_writer_matches(p)
    back = QUPrefix.from_text(p.to_text())
    assert back.space._den <= p.space._den
    _assert_writer_matches(back)
    assert back.to_text() == p.to_text()


def test_writer_matches_reference_at_a_smaller_denominator():
    # the schedule works over 1/12 from stage 1 on, and a pin at 1/7 takes
    # the space to 1/84 for good; a read-back space holds only the
    # denominators of its values
    short = prefix(3)
    p = prefix(40).copy()
    append_point_completion(p.space, {0: F(1, 7)})
    p.space.truncate(p.space.n - 1)
    assert (short.space._den, p.space._den) == (12, 84)
    for q, den in ((short, 4), (p, 12)):
        back = QUPrefix.from_text(q.to_text())
        assert back.space._den == den
        _assert_writer_matches(back)


# --- copies -------------------------------------------------------------------

OPS = st.lists(st.tuples(st.integers(0, 1),
                         st.sampled_from(["append", "complete", "truncate"]),
                         st.integers(0, 10**6), st.sampled_from(OFF_LATTICE)),
               max_size=8)


def _apply(space, op, k, v):
    if op == "append":
        # distances in [1/2, 1] keep any space a metric; 4/7 and 5/9
        # rescale the denominator
        space.append_point([max(v, 1 - v)] * space.n)
    elif op == "complete" and space.n:
        known = {k % space.n: v, (k // 7) % space.n: OFF_LATTICE[k % 12]}
        try:
            append_point_completion(space, known)
        except PreconditionError:
            pass
    elif op == "truncate":
        space.truncate(k % (space.n + 1))


def _state(space):
    return space.to_text(), space._den, space.n


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 60), OPS)
def test_copies_keep_their_changes_to_themselves(steps, ops):
    base = prefix(steps).space
    text = base.to_text()
    s = base.copy()
    sides = [s, s.copy()]
    for side, op, k, v in ops:
        others = [_state(base), _state(sides[1 - side])]
        _apply(sides[side], op, k, v)
        assert [_state(base), _state(sides[1 - side])] == others
    # each side is what its own changes make of a space read from text
    for side in (0, 1):
        alone = FinMetric.from_text(text)
        for owner, op, k, v in ops:
            if owner == side:
                _apply(alone, op, k, v)
        assert alone.to_text() == sides[side].to_text()


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 60), st.integers(0, 60), OPS)
def test_qu_extend_leaves_its_input_unchanged(steps, more, ops):
    p = qu_extend(QUPrefix(), steps)
    text = p.to_text()
    q = qu_extend(p, more)
    for _, op, k, v in ops:
        _apply(q.space, op, k, v)
    assert p.to_text() == text
    assert qu_extend(p, more).to_text() == prefix(steps + more).to_text()


# --- tokenizer split points ---------------------------------------------------

MIB = 1 << 20
ENDS = ["\n", "\r\n", "\r", "\x0c", "\u2028"]
VALUES = ["1/2", "3/5", "7/10", "4/5", "9/10"]
N = 520  # about 135,000 lines: over 2 MiB with any of the line ends


def _big_text(rng, inline_comments):
    """A N-point space (distances in [1/2, 1), so a metric) in writer
    order, each line ended by a random line end, with blank lines and
    whole-line comments strewn in; inline comments if asked."""
    lines = [f"point {i}" for i in range(N)]
    lines += [f"dist {a} {b} {VALUES[(3 * a + 7 * b) % 5]}"
              for b in range(N) for a in range(b)]
    out = []
    for line in lines:
        r = rng.random()
        if r < 0.02:
            out.append("# note " + rng.choice(ENDS))
        elif r < 0.03:
            out.append("  " + rng.choice(ENDS))
        elif r < 0.05 and inline_comments:
            line += rng.choice([" # tail", "# tail", "#"])
        out.append(line + rng.choice(ENDS))
    text = "".join(out)
    assert len(text) > 2 * MIB
    return text


def _tokens(text):
    """(line number, tokens) of text.splitlines() with comments stripped."""
    out = []
    for ln, raw in enumerate(text.splitlines(), 1):
        parts = raw.partition("#")[0].split()
        if parts:
            out.append((ln, parts))
    return out


@pytest.mark.parametrize("seed, inline_comments", [(1, True), (2, False), (3, True)])
def test_lines_split_where_splitlines_does(seed, inline_comments):
    text = _big_text(random.Random(seed), inline_comments)
    # each line end and comment kind falls around every cut, wherever it
    # lands; a piece that ended in "\r" would split a "\r\n" in two
    assert list(_lines(text)) == _tokens(text)
    stripped = text.replace("#", "")
    assert list(_lines(stripped)) == _tokens(stripped)


def test_lines_keep_the_last_line_without_an_end():
    text = _big_text(random.Random(5), True) + "dist 0 1 1/2"
    assert list(_lines(text)) == _tokens(text)


@pytest.mark.parametrize("seed", [1, 2])
def test_conflict_past_the_first_cut_has_the_reference_message(seed):
    rng = random.Random(seed)
    text = _big_text(rng, False)
    assert FinMetric.from_text(text) == FinMetric.from_text(
        "".join(f"{line}\n" for line in text.splitlines()))
    # plant a conflicting line for a pair read before, somewhere past
    # 1.5 MiB, ended once by "\r" and once by "\x0c"
    at = text.index("\n", 3 * MIB // 2 + rng.randrange(MIB // 4)) + 1
    planted = text[:at] + f"dist 7 3 1/3{ENDS[1 + seed]}" + text[at:]
    with pytest.raises(UsageError) as exc:
        FinMetric.from_text(planted)
    with pytest.raises(UsageError) as ref:
        read_metric_reference(planted, False)
    assert str(exc.value) == str(ref.value)
    assert str(exc.value).endswith("conflicting dist for (3, 7)")
