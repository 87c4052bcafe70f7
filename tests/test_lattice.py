"""Differential tests: the integer-lattice metric code against the Fraction
reference in oracles.py.

FinMetric keeps integer numerators over a per-space denominator; the
schedule, the amalgam completion, the mirror search and the point/dist
reader run on those integers.  Each test here drives the lattice code and
the old Fraction code on the same input and requires the same result.
"""

import re
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (admissible_reference, append_extension_reference,
                     extend_isometry_reference, qu_extend_reference,
                     read_metric_reference)
from urybench.errors import PreconditionError, UsageError
from urybench.metric import (FinMetric, PartialIsometry, QUPrefix,
                             append_point_completion, extend_partial_isometry,
                             qu_extend)

ITEMS = 600
REFERENCE = {}


def reference_prefix(steps):
    """qu_extend_reference from the empty prefix, computed once per size."""
    if steps not in REFERENCE:
        REFERENCE[steps] = qu_extend_reference(QUPrefix(), steps)
    return REFERENCE[steps]


@settings(max_examples=15, deadline=None)
@given(st.lists(st.integers(1, 150), min_size=1, max_size=40))
def test_chunked_schedule_matches_reference_text(chunks):
    prefix, done = QUPrefix(), 0
    for size in chunks:
        size = min(size, ITEMS - done)
        prefix = qu_extend(prefix, size)
        done += size
    prefix = qu_extend(prefix, ITEMS - done)
    assert prefix.to_text() == reference_prefix(ITEMS).to_text()


OFF_LATTICE = [F(1, 7), F(3, 11), F(2, 7), F(5, 11), F(6, 7), F(3, 8),
               F(1, 2), F(1, 3), F(3, 4), F(1)]


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 40),
       st.dictionaries(st.integers(0, 30), st.sampled_from(OFF_LATTICE),
                       min_size=1, max_size=3))
def test_completion_with_off_lattice_pins_matches_reference(steps, pins):
    base = reference_prefix(steps).space
    known = {a % base.n: v for a, v in pins.items()}
    space, ref = base.copy(), base.copy()
    if not admissible_reference(ref, known):
        with pytest.raises(PreconditionError):
            append_point_completion(space, known)
        return
    w = append_point_completion(space, known)
    anchors = tuple(sorted(known))
    assert append_extension_reference(
        ref, anchors, tuple(known[a] for a in anchors)) == w
    assert [space.d(w, z) for z in space.points] == \
        [ref.d(w, z) for z in ref.points]
    assert space == ref and hash(space) == hash(ref)
    for a, v in known.items():
        assert space.d(a, w) == v


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 60), st.data())
def test_isometry_extension_picks_reference_targets(steps, data):
    prefix = reference_prefix(steps)
    n = prefix.space.n
    point = st.integers(0, n - 1)
    pairs = [(data.draw(point), data.draw(point))]
    sources = data.draw(st.lists(point, max_size=5))
    out, g = extend_partial_isometry(prefix, PartialIsometry(pairs), sources)
    ref = prefix.space.copy()
    assert g.pairs == extend_isometry_reference(ref, pairs, sources)
    assert out.space.to_text() == ref.to_text()


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 60))
def test_equality_and_hash_go_by_distances(steps):
    built = qu_extend(QUPrefix(), steps).space
    read = FinMetric.from_text(built.to_text())
    assert read == built and hash(read) == hash(built)
    if built.n >= 2:
        other = FinMetric.from_text(
            re.sub(r"^(dist 0 1 )\S+$", r"\g<1>1", built.to_text(),
                   flags=re.M))
        assert (other == built) == (built.d(0, 1) == 1)


def test_read_and_built_spaces_differ_in_denominator_only():
    # the schedule works over 1/12 from stage 1 on; two points at 1/4
    # read back over 1/4
    built = qu_extend(QUPrefix(), 3).space
    read = FinMetric.from_text(built.to_text())
    assert (built._den, read._den) == (12, 4)
    assert read == built and hash(read) == hash(built)


FAULTS = ("zero", "over_one", "conflict", "missing", "unknown", "sup2")


def _mutate(text, fault, rng):
    lines = text.splitlines()
    dists = [i for i, line in enumerate(lines) if line.startswith("dist ")]
    i = rng.choice(dists)
    _, a, b, v = lines[i].split()
    n = sum(line.startswith("point ") for line in lines)
    if fault == "zero":
        lines[i] = f"dist {a} {b} 0"
    elif fault == "over_one":
        lines[i] = f"dist {a} {b} 5/4"
    elif fault == "conflict":
        other = "1/3" if v != "1/3" else "1/2"
        lines.insert(rng.randrange(i + 1, len(lines) + 1),
                     f"dist {b} {a} {other}")
    elif fault == "missing":
        del lines[i]
    elif fault == "unknown":
        lines.insert(rng.randrange(len(lines) + 1),
                     f"dist {rng.randrange(n)} "
                     f"{n + rng.choice([0, 1, 2, 10**6, 10**12])} 1/2")
    else:
        j = rng.choice([i] + [k for k, line in enumerate(lines)
                              if line.startswith("point ")])
        parts = lines[j].split()
        parts[rng.randrange(1, 3 if parts[0] == "dist" else 2)] = "²"
        lines[j] = " ".join(parts)
    return "\n".join(lines) + "\n"


def _message(read, text):
    with pytest.raises(UsageError) as exc:
        read(text)
    return str(exc.value)


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 40), st.sampled_from(FAULTS), st.randoms())
def test_single_fault_messages_match_reference(steps, fault, rng):
    prefix = reference_prefix(steps)
    text = _mutate(prefix.space.to_text(), fault, rng)
    assert _message(FinMetric.from_text, text) == \
        _message(lambda t: read_metric_reference(t, False), text)
    text = _mutate(prefix.to_text(), fault, rng)
    assert _message(QUPrefix.from_text, text) == \
        _message(lambda t: read_metric_reference(t, True), text)


def test_reader_round_trips_reference_space():
    prefix = reference_prefix(ITEMS)
    back = QUPrefix.from_text(prefix.to_text())
    assert back.space == prefix.space
    assert back.to_text() == prefix.to_text()


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 40), st.randoms())
def test_reader_takes_lines_in_any_order(steps, rng):
    space = reference_prefix(steps).space
    lines = space.to_text().splitlines()
    rng.shuffle(lines)
    text = "\n".join(lines) + "\n"
    assert FinMetric.from_text(text) == read_metric_reference(text, False)[0]
    assert FinMetric.from_text(text).to_text() == space.to_text()


def _peak_bytes(read, text):
    tracemalloc.start()
    try:
        with pytest.raises(UsageError) as exc:
            read(text)
        return tracemalloc.get_traced_memory()[1], str(exc.value)
    finally:
        tracemalloc.stop()


READERS = {"metric": FinMetric.from_text, "prefix": QUPrefix.from_text}
TAIL = {"metric": "", "prefix": "snapshot 0 0\nsnapshot 1 1\ncursor 1 0\n"}


@pytest.mark.parametrize("reader", READERS)
def test_large_unknown_id_allocates_nothing_for_it(reader):
    # the moderate id comes first: a reader that sized its rows from the
    # id would need about 36 MB here and fail before the large ids
    for hi in (3000, 10**6, 10**12):
        text = f"point 0\npoint 1\ndist 0 1 1/2\ndist 0 {hi} 1/2\n" + TAIL[reader]
        peak, msg = _peak_bytes(READERS[reader], text)
        assert msg == f"dist references unknown point {hi}"
        assert msg == _message(lambda t: read_metric_reference(t, True), text)
        assert peak < 1 << 20


@pytest.mark.parametrize("reader", READERS)
def test_many_points_without_dists_allocate_no_rows(reader):
    text = "".join(f"point {i}\n" for i in range(3000)) + \
        "dist 0 2999 1/2\n" + TAIL[reader]
    peak, msg = _peak_bytes(READERS[reader], text)
    assert msg == "missing dist for pair (0, 1)"
    assert peak < 4 << 20
