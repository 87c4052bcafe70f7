"""Every text reader against the reader it replaced, and line numbers in
reader errors.

Each reader now takes its lines from metric._lines; oracles.py keeps the
readers as they were, each with its own line split and comment strip.  On
valid files from gen.py, with comments, blank lines, tabs and "\\r\\n" put
in, and on the same files with one token mutated, both give an equal value
or both raise the same class, and neither raises anything but UsageError or
PreconditionError.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from gen import default_sig, mutate, noisy, random_texts
from urybench import cli
from urybench.errors import PreconditionError, UsageError
from urybench.grey import GreyCosetCode, ThresholdCone
from urybench.logic import FinStructure
from urybench.metric import FinMetric, PartialConstraintSet, PartialIsometry, QUPrefix
from urybench.space import StructureCone

SIG = default_sig()
N_IDS = 2


def _outcome(read, *args):
    try:
        return read(*args)
    except (UsageError, PreconditionError) as exc:
        return type(exc)


def _structure(m):
    return m if isinstance(m, type) else (m.sig, m.to_text())


def _cone(c):
    return c if isinstance(c, type) else c.to_text()


def _same(x):
    return x


# kind -> [(new reader, reference, key the outcomes are compared by)]; a
# reader of a path reads the text from a file, the others take the text
PATH_READERS = {
    "sig": [(cli.read_sig, oracles.read_sig_reference, _same)],
    "space": [(cli.read_space, oracles.read_space_reference, _same)],
    "prefix": [(cli.read_space, oracles.read_space_reference, _same)],
    "manifest": [(cli.read_manifest, oracles.read_manifest_reference, _same)],
    "family": [(lambda p: cli._read_family(p, SIG, N_IDS),
                lambda p: oracles.read_family_reference(p, SIG, N_IDS), _same)],
}
TEXT_READERS = {
    "structure": [(FinStructure.from_text, oracles.structure_reference,
                   _structure)],
    "con": [(lambda t: StructureCone.from_text(t, SIG),
             lambda t: oracles.structure_cone_reference(t, SIG), _cone)],
    "tcone": [(lambda t: ThresholdCone.from_text(t, SIG),
               lambda t: oracles.tcone_reference(t, SIG), _same)],
    "gcone": [(GreyCosetCode.from_text, oracles.gcone_reference, _same)],
}
for _kind in ("con", "tcone", "gcone"):
    TEXT_READERS[_kind].append((lambda t: cli._cone_kind(t, "cone.txt"),
                                lambda t: oracles.cone_kind_reference(t, "cone.txt"),
                                _same))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("readers")


def _check(kind, text, workdir):
    if kind in PATH_READERS:
        path = workdir / f"{kind}.txt"
        path.write_text(text, encoding="utf-8", newline="")
        readers, arg = PATH_READERS[kind], str(path)
    else:
        readers, arg = TEXT_READERS[kind], text
    for new, ref, key in readers:
        assert key(_outcome(new, arg)) == key(_outcome(ref, arg)), text


KINDS = sorted([*PATH_READERS, *TEXT_READERS])


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=250, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), mutated=st.booleans())
def test_reader_matches_reference(kind, seed, mutated, workdir):
    rng = random.Random(seed)
    text = random_texts(rng, SIG, N_IDS)[kind]
    if mutated:
        text = mutate(rng, text)
    _check(kind, noisy(rng, text), workdir)


def test_noise_leaves_valid_files_readable(workdir):
    # the noise alone never turns a valid file into an error
    rng = random.Random(7)
    for _ in range(20):
        texts = random_texts(rng, SIG, N_IDS)
        assert FinStructure.from_text(noisy(rng, texts["structure"])).to_text() \
            == texts["structure"]
        assert GreyCosetCode.from_text(noisy(rng, texts["gcone"])).to_text() \
            == texts["gcone"]
        path = workdir / "family.txt"
        path.write_text(noisy(rng, texts["family"]), encoding="utf-8", newline="")
        family, _ = cli._read_family(str(path), SIG, N_IDS)
        assert len(family) == texts["family"].count("cond ")


# --- line numbers --------------------------------------------------------------

HEAD = "# a comment\n\n   \n# another\r\n"  # four lines before the file proper

# reader, text after HEAD, the message; the bad line is the text's last
LINE_CASES = {
    "sig": (cli.read_sig, "rel R 1 mod 1\nrel S 2 mod\n",
            "expected 'rel <name> <arity> mod <coeff>'"),
    "space": (cli.read_space, "point 0\npoint 1\ndist 0 1 3/2\n",
              "value 3/2 outside [0, 1]"),
    "space-extra": (cli.read_space, "point 0\nsnapshot 0 0\n",
                    "unknown directive 'snapshot'"),
    "prefix": (cli.read_space, "point 0\nsnapshot 0 1\ncursor 0 x\n",
               "bad point id 'x'"),
    "manifest": (cli.read_manifest, "sig s.txt\nstage two\n", "bad stage 'two'"),
    "family": (lambda p: cli._read_family(p, SIG, N_IDS),
               "cond 1/2 0,1 R(x0)\ncond 1/2 0 R(x0)\n",
               "witness tuple has 1 ids, want 2"),
    "family-ids": (lambda p: cli._read_family(p, SIG, N_IDS),
                   "cond 1/2 0,y R(x0)\n", "bad point id 'y'"),
    "family-formula": (lambda p: cli._read_family(p, SIG, N_IDS),
                       "cond 1/2 0,1 R(x0)\ndelta 0 R(x0\n",
                       "expected ')' at position 4"),
    "cone-kind": (lambda p: cli._cone_kind(cli._read(p), p),
                  "con R 0 0 1 cc\ntcone r=1/2\n", "cannot tell the cone kind apart"),
    "gcone": (lambda p: GreyCosetCode.from_text(cli._read(p)),
              "gcone q=2 s=0 s'=x thr=1/2 op=le\n", "bad point id 'x'"),
    "gcone-two": (lambda p: GreyCosetCode.from_text(cli._read(p)),
                  "gcone q=2 s=0 s'=0 thr=1/2 op=le\ngcone q=2 s=0 s'=0 thr=1/2 op=le\n",
                  "expected exactly one gcone line"),
    "tcone": (lambda p: ThresholdCone.from_text(cli._read(p), SIG),
              "tcone r=1/2\nterm R 0 3/2\n", "value 3/2 outside [0, 1]"),
    "con": (lambda p: StructureCone.from_text(cli._read(p), SIG),
            "con R 0 0 1 cc\ncon R 0 0 1 ox\n", "bad flags 'ox'"),
    "structure-dist": (lambda p: FinStructure.from_text(cli._read(p)),
                       "rel R 1 mod 1\npoint 0\npoint 1\ndist 0 x 1/2\n",
                       "bad point id 'x'"),
    "structure-value": (lambda p: FinStructure.from_text(cli._read(p)),
                        "point 0\npoint 1\ndist 0 1 3/2\n", "value 3/2 outside [0, 1]"),
    "structure-rel": (lambda p: FinStructure.from_text(cli._read(p)),
                      "point 0\nrel R one mod 1\n", "bad arity 'one'"),
    "structure-val": (lambda p: FinStructure.from_text(cli._read(p)),
                      "point 0\nrel R 1 mod 1\nval R 0 3/2\n", "value 3/2 outside [0, 1]"),
    "metric": (lambda p: FinMetric.from_text(cli._read(p)),
               "point 0\npoint 1\ndist 0 1 0\n", "distance 0 outside (0, 1]"),
    "prefix-reader": (lambda p: QUPrefix.from_text(cli._read(p)),
                      "point 0\nsnapshot 0 1\nsnapshot 1 x\n", "bad point id 'x'"),
    "constraints": (lambda p: PartialConstraintSet.from_text(cli._read(p)),
                    "point 0\npoint 1\nupper 0 1 3/2\n", "value 3/2 outside [0, 1]"),
    "constraints-dist": (lambda p: PartialConstraintSet.from_text(cli._read(p)),
                         "point 0\npoint 1\ndist 0 1 x\n", "bad rational 'x'"),
    "isometry": (lambda p: PartialIsometry.from_text(cli._read(p)),
                 "pair 0 1\npair 1\n", "expected 'pair <src> <tgt>'"),
}


@pytest.mark.parametrize("case", sorted(LINE_CASES))
def test_error_names_its_line_after_comments_and_blank_lines(case, tmp_path):
    read, body, message = LINE_CASES[case]
    text = HEAD + body
    path = tmp_path / "file.txt"
    path.write_text(text, encoding="utf-8", newline="")
    ln = len(text.splitlines())
    with pytest.raises(UsageError) as exc:
        read(str(path))
    assert str(exc.value) in (f"line {ln}: {message}", f"{path}:{ln}: {message}")
