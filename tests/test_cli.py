"""End-to-end tests of the command-line front end.

Most tests drive main() in process and read captured stdout; two tests
run the ``urybench`` console script in a subprocess. That is the installed
script when there is one, and otherwise the wrapper that conftest.py builds
from the ``[project.scripts]`` entry in pyproject.toml.
"""

import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import urybench
from urybench import cli
from urybench.cli import main
from urybench.errors import UsageError
from urybench.grey import GreyCosetCode, ThresholdCone
from urybench.logic import FinStructure, RelSpec, Signature
from urybench.metric import FinMetric, QUPrefix, qu_extend
from urybench.space import StructureCone, cone_diam


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def demo(tmp_path):
    """Standard file kit: 3-point prefix, unary structure on its first
    two points, cones, maps, a manifest."""
    prefix = qu_extend(QUPrefix(), 4)
    files = {"dir": tmp_path}

    def put(name, text):
        p = tmp_path / name
        p.write_text(text)
        files[name] = str(p)

    put("prefix.txt", prefix.to_text())
    put("space2.txt", "point 0\npoint 1\ndist 0 1 1/4\n")
    put("sig.txt", "rel R 1 mod 1\n")
    sig = Signature([RelSpec("R", 1, F(1))])
    space = prefix.space.__class__.from_text(
        "point 0\npoint 1\ndist 0 1 1/4\n")
    M = FinStructure(sig, space, {"R": {(0,): F(0), (1,): F(1, 4)}})
    put("m.txt", M.to_text())
    N = FinStructure(sig, space, {"R": {(0,): F(1, 8), (1,): F(1, 4)}})
    put("n.txt", N.to_text())
    put("cone.txt", "con R 0 0 1/2 cc\n")
    put("tight.txt", "con R 1 1/2 1 cc\n")
    put("tcone.txt", "tcone r=1/4\nterm R 0 0\n")
    put("tcone_small.txt", "tcone r=1/8\nterm R 0 0\n")
    put("id.txt", "pair 0 0\npair 1 1\n")
    put("swap.txt", "pair 0 1\npair 1 0\n")
    put("g_lt.txt", "gcone q=1/4 s=0 s'=1 thr=1/2 op=lt\n")
    put("g_ge.txt", "gcone q=1/4 s=0 s'=1 thr=1/2 op=ge\n")
    put("manifest.txt", "sig sig.txt\nprefix prefix.txt\nstage 1\n")
    files["sig_obj"] = sig
    return files


class TestBuildAndDist:
    def test_qu_build_stdout(self, demo, capsys):
        code, out, _ = run(capsys, "qu-build", "--steps", "4")
        assert code == 0
        assert out == qu_extend(QUPrefix(), 4).to_text()

    def test_qu_build_file_replay_is_byte_identical(self, demo, capsys,
                                                    tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert run(capsys, "qu-build", "--steps", "11", "-o", str(a))[0] == 0
        assert run(capsys, "qu-build", "--steps", "11", "-o", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_dist(self, demo, capsys):
        code, out, _ = run(capsys, "dist", "--space", demo["prefix.txt"],
                           "1", "2")
        assert (code, out) == (0, "7/12\n")

    def test_dist_unknown_point(self, demo, capsys):
        code, _, err = run(capsys, "dist", "--space", demo["prefix.txt"],
                           "0", "9")
        assert code == 2
        assert "unknown point" in err

    def test_missing_file_is_usage_error(self, demo, capsys):
        code, _, err = run(capsys, "dist", "--space",
                           str(demo["dir"] / "nope.txt"), "0", "1")
        assert code == 2
        assert "cannot read" in err


class TestFormulas:
    def test_parse_canonical(self, demo, capsys):
        code, out, _ = run(capsys, "parse", "--sig", demo["sig.txt"],
                           "tsub(R(x), 1/4)")
        assert (code, out) == (0, "tsub(R(x), 1/4)\n")

    def test_parse_error(self, demo, capsys):
        code, _, err = run(capsys, "parse", "--sig", demo["sig.txt"], "R(")
        assert code == 2
        assert err.startswith("error:")

    def test_modulus_distance_sum(self, demo, capsys):
        code, out, _ = run(capsys, "modulus", "--sig", demo["sig.txt"],
                           "tadd(d(x,y), d(y,z))")
        assert (code, out) == (0, "4\n")

    def test_eval_with_binding(self, demo, capsys):
        code, out, _ = run(capsys, "eval", "--structure", demo["m.txt"],
                           "--bind", "x=1", "R(x)")
        assert (code, out) == (0, "1/4\n")

    def test_eval_closed_sup(self, demo, capsys):
        code, out, _ = run(capsys, "eval", "--structure", demo["m.txt"],
                           "sup(x, R(x))")
        assert (code, out) == (0, "1/4\n")

    def test_eval_unbound_variable(self, demo, capsys):
        code, _, err = run(capsys, "eval", "--structure", demo["m.txt"],
                           "R(x)")
        assert code == 2
        assert err.startswith("error:")

    def test_eval_interval_zero_density_is_exact(self, demo, capsys):
        code, out, _ = run(capsys, "eval-interval", "--structure",
                           demo["m.txt"], "sup(x, R(x))")
        assert (code, out) == (0, "1/4 1/4\n")

    def test_eval_interval_widens(self, demo, capsys):
        _, out, _ = run(capsys, "eval-interval", "--structure", demo["m.txt"],
                        "--density", "1/8", "sup(x, R(x))")
        lo, hi = out.split()
        assert F(lo) <= F(1, 4) <= F(hi)

    @pytest.mark.parametrize("command", ["eval", "eval-interval"])
    @pytest.mark.parametrize("formula", ["R(x)", "d(x,y)"])
    def test_binding_outside_the_carrier_exits_2(self, demo, capsys, command,
                                                 formula):
        code, out, err = run(capsys, command, "--structure", demo["m.txt"],
                             "--bind", "x=5", "--bind", "y=0", formula)
        assert (code, out) == (2, "")
        assert "outside the carrier" in err

    def test_delta_seq_width(self, demo, capsys):
        code, out, _ = run(capsys, "delta-seq", "--left", demo["m.txt"],
                           "--right", demo["n.txt"], "-m", "20")
        assert code == 0
        lo, hi = (F(t) for t in out.split())
        assert hi - lo == F(1, 2 ** 20)


class TestCones:
    def test_cone_diam_structure(self, demo, capsys):
        code, out, _ = run(capsys, "cone-diam", "--sig", demo["sig.txt"],
                           "--cone", demo["cone.txt"])
        assert code == 0
        sig = demo["sig_obj"]
        want = cone_diam(StructureCone.from_text("con R 0 0 1/2 cc\n", sig))
        assert out == f"{want.numerator}/{want.denominator}\n"

    def test_cone_diam_threshold(self, demo, capsys):
        code, out, _ = run(capsys, "cone-diam", "--sig", demo["sig.txt"],
                           "--cone", demo["tcone.txt"])
        assert (code, out) == (0, "5/8\n")

    def test_cone_diam_rejects_grey(self, demo, capsys):
        code, _, err = run(capsys, "cone-diam", "--sig", demo["sig.txt"],
                           "--cone", demo["g_lt.txt"])
        assert code == 2
        assert "structure-side cone" in err

    def test_cone_member_true_false(self, demo, capsys):
        assert run(capsys, "cone-member", "--structure", demo["m.txt"],
                   "--cone", demo["cone.txt"])[:2] == (0, "true\n")
        assert run(capsys, "cone-member", "--structure", demo["m.txt"],
                   "--cone", demo["tight.txt"])[:2] == (1, "false\n")

    def test_cone_subset_structure_route(self, demo, capsys):
        narrow = demo["dir"] / "narrow.txt"
        narrow.write_text("con R 0 0 1/4 cc\n")
        base = ["cone-subset", "--sig", demo["sig.txt"],
                "--space", demo["space2.txt"]]
        code, out, _ = run(capsys, *base, "--left", str(narrow),
                           "--right", demo["cone.txt"])
        assert (code, out) == (0, "true\n")
        code, out, _ = run(capsys, *base, "--left", demo["cone.txt"],
                           "--right", str(narrow))
        assert (code, out) == (1, "false\n")

    @pytest.mark.parametrize("left, right, want", [
        ("cone.txt", "tcone.txt", (1, "false\n")),
        ("tcone.txt", "cone.txt", (0, "true\n")),
    ])
    def test_cone_subset_reads_each_file_once(self, demo, capsys, monkeypatch,
                                              left, right, want):
        reads = []
        read = cli._read
        monkeypatch.setattr(cli, "_read", lambda path: reads.append(path) or read(path))
        code, out, _ = run(capsys, "cone-subset", "--sig", demo["sig.txt"],
                           "--space", demo["space2.txt"],
                           "--left", demo[left], "--right", demo[right])
        assert (code, out) == want
        assert sorted(reads) == sorted([demo["sig.txt"], demo["space2.txt"],
                                        demo[left], demo[right]])

    def test_cone_subset_grey_counterexample(self, demo, capsys):
        code, out, _ = run(capsys, "cone-subset", "--sig", demo["sig.txt"],
                           "--space", demo["prefix.txt"],
                           "--left", demo["g_lt.txt"],
                           "--right", demo["g_ge.txt"])
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "false"
        assert any(line.startswith("labels ") for line in lines)
        assert any(line.startswith("image ") for line in lines)

    def test_cone_subset_grey_deterministic(self, demo, capsys):
        argv = ("cone-subset", "--sig", demo["sig.txt"],
                "--space", demo["prefix.txt"], "--left", demo["g_lt.txt"],
                "--right", demo["g_ge.txt"])
        assert run(capsys, *argv) == run(capsys, *argv)

    def test_formal_incl_threshold(self, demo, capsys):
        base = ["formal-incl", "--sig", demo["sig.txt"],
                "--space", demo["space2.txt"]]
        assert run(capsys, *base, "--left", demo["tcone_small.txt"],
                   "--right", demo["tcone.txt"])[:2] == (0, "true\n")
        assert run(capsys, *base, "--left", demo["tcone.txt"],
                   "--right", demo["tcone_small.txt"])[:2] == (1, "false\n")

    def test_cone_subset_empty_file_is_whole_space(self, demo, capsys):
        empty = demo["dir"] / "empty.txt"
        empty.write_text("# no constraints\n\n")
        base = ["cone-subset", "--sig", demo["sig.txt"],
                "--space", demo["space2.txt"]]
        code, out, _ = run(capsys, *base, "--left", str(empty),
                           "--right", demo["cone.txt"])
        assert (code, out) == (1, "false\n")
        code, out, _ = run(capsys, *base, "--left", demo["cone.txt"],
                           "--right", str(empty))
        assert (code, out) == (0, "true\n")
        code, out, _ = run(capsys, *base, "--left", str(empty),
                           "--right", str(empty))
        assert (code, out) == (0, "true\n")

    def test_empty_cone_round_trips_through_cone_diam(self, demo, capsys):
        text = StructureCone(demo["sig_obj"], []).to_text()
        assert text == ""
        empty = demo["dir"] / "whole.txt"
        empty.write_text(text)
        code, out, _ = run(capsys, "cone-diam", "--sig", demo["sig.txt"],
                           "--cone", str(empty))
        assert (code, out) == (0, "1\n")
        code, out, _ = run(capsys, "cone-member", "--structure", demo["m.txt"],
                           "--cone", str(empty))
        assert (code, out) == (0, "true\n")

    def test_formal_incl_rejects_empty_cone_file(self, demo, capsys):
        empty = demo["dir"] / "empty.txt"
        empty.write_text("")
        code, _, err = run(capsys, "formal-incl", "--sig", demo["sig.txt"],
                           "--space", demo["space2.txt"],
                           "--left", str(empty),
                           "--right", demo["tcone.txt"])
        assert code == 2
        assert "tcone or gcone" in err

    def test_formal_incl_rejects_structure_cones(self, demo, capsys):
        code, _, err = run(capsys, "formal-incl", "--sig", demo["sig.txt"],
                           "--space", demo["space2.txt"],
                           "--left", demo["cone.txt"],
                           "--right", demo["cone.txt"])
        assert code == 2
        assert "tcone or gcone" in err


class TestGroupSide:
    def test_rho_width(self, demo, capsys):
        code, out, _ = run(capsys, "rho", "--space", demo["prefix.txt"],
                           "--left", demo["id.txt"],
                           "--right", demo["swap.txt"], "-N", "2")
        assert code == 0
        lo, hi = (F(t) for t in out.split())
        assert hi - lo == F(1, 4)
        assert lo > 0

    def test_rho_depth_beyond_carrier(self, demo, capsys):
        code, _, err = run(capsys, "rho", "--space", demo["prefix.txt"],
                           "--left", demo["id.txt"],
                           "--right", demo["swap.txt"], "-N", "10")
        assert code == 3
        assert err.startswith("precondition")

    def test_extend_iso_reuses_existing_point(self, demo, capsys):
        code, out, _ = run(capsys, "extend-iso", "--prefix",
                           demo["prefix.txt"], "--map", demo["id.txt"], "2")
        assert (code, out) == (0, "pair 0 0\npair 1 1\npair 2 2\n")

    def test_extend_iso_growth_written(self, demo, capsys, tmp_path):
        grown = tmp_path / "grown.txt"
        code, out, _ = run(capsys, "extend-iso", "--prefix",
                           demo["prefix.txt"], "--map", demo["swap.txt"],
                           "-o", str(grown), "2")
        assert code == 0
        assert "pair 2 3" in out
        p = QUPrefix.from_text(grown.read_text())
        assert p.space.n == 4
        assert p.space.d(3, 1) == F(1, 3)
        assert p.space.d(3, 0) == F(7, 12)

    @pytest.mark.parametrize("side", ["--left", "--right"])
    def test_rho_unknown_point_is_usage_error(self, demo, capsys, tmp_path,
                                              side):
        bad = tmp_path / "bad.txt"
        bad.write_text("pair 0 99\n")
        maps = {"--left": demo["id.txt"], "--right": demo["swap.txt"]}
        maps[side] = str(bad)
        code, out, err = run(capsys, "rho", "--space", demo["prefix.txt"],
                             "--left", maps["--left"],
                             "--right", maps["--right"], "-N", "2")
        assert (code, out) == (2, "")
        assert "unknown point 99" in err

    @pytest.mark.parametrize("pair", ["pair 0 99", "pair 99 0"])
    def test_extend_iso_unknown_point_is_usage_error(self, demo, capsys,
                                                     tmp_path, pair):
        bad = tmp_path / "bad.txt"
        bad.write_text(pair + "\n")
        code, out, err = run(capsys, "extend-iso", "--prefix",
                             demo["prefix.txt"], "--map", str(bad), "1")
        assert (code, out) == (2, "")
        assert "unknown point 99" in err

    def test_sat_true_false(self, demo, capsys):
        base = ["sat", "--structure", demo["m.txt"],
                "--prefix", demo["prefix.txt"]]
        assert run(capsys, *base, "--cone",
                   demo["cone.txt"])[:2] == (0, "true\n")
        assert run(capsys, *base, "--cone",
                   demo["tight.txt"])[:2] == (1, "false\n")

    def test_kappa_deterministic_cone(self, demo, capsys):
        argv = ("kappa", "--structure", demo["m.txt"],
                "--prefix", demo["prefix.txt"], "-n", "2")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        cone = StructureCone.from_text(out, demo["sig_obj"])
        assert cone_diam(cone) <= F(1, 4)
        assert run(capsys, *argv)[1] == out

    def test_inv_check_sound(self, demo, capsys):
        code, out, _ = run(capsys, "inv-check", "--prefix",
                           demo["prefix.txt"], "--sig", demo["sig.txt"],
                           "--scale", "2", "--tbar", "0",
                           "--cone", demo["cone.txt"])
        assert code == 0
        assert out.splitlines()[0] == "verdict Sound"

    def test_inv_check_falsified_ships_pair(self, demo, capsys):
        code, out, _ = run(capsys, "inv-check", "--prefix",
                           demo["prefix.txt"], "--sig", demo["sig.txt"],
                           "--scale", "2", "--tbar", "",
                           "--cone", demo["cone.txt"])
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "verdict Falsified"
        assert "gamma" in lines
        assert "witness" in lines
        gi, wi = lines.index("gamma"), lines.index("witness")
        assert any(line.startswith("pair ") for line in lines[gi + 1:wi])
        assert any(line.startswith("val R ") for line in lines[wi + 1:])

    def test_inv_check_unknown(self, demo, capsys):
        code, out, _ = run(capsys, "inv-check", "--prefix",
                           demo["prefix.txt"], "--sig", demo["sig.txt"],
                           "--scale", "1/64", "--tbar", "0",
                           "--cone", demo["cone.txt"])
        assert code == 1
        assert out.splitlines()[0] == "verdict Unknown"


class TestRuns:
    def test_backforth_identity(self, demo, capsys):
        code, out, _ = run(capsys, "backforth", "--prefix",
                           demo["prefix.txt"], "--left", "0,1",
                           "--right", "0,1", "--eps", "1/2", "--steps", "4")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "stage 1 side d drift 0 tol 1/32"
        assert lines[3] == "stage 4 side c drift 0 tol 1/256"
        assert lines[4] == "cbar 0,1,2,3,4,5"
        assert lines[-2] == "drift 0"
        assert lines[-1] == "bound 15/256"

    def test_backforth_diagram_mismatch(self, demo, capsys):
        code, _, err = run(capsys, "backforth", "--prefix",
                           demo["prefix.txt"], "--left", "0,1",
                           "--right", "0,2", "--eps", "1/2", "--steps", "1")
        assert code == 3
        assert "diagram" in err

    def test_backforth_overlay_gate(self, demo, capsys):
        code, _, err = run(capsys, "backforth", "--prefix",
                           demo["prefix.txt"], "--structure", demo["m.txt"],
                           "--left", "0", "--right", "1",
                           "--eps", "1/32", "--steps", "1")
        assert code == 3
        assert "atom R(0)" in err

    def test_backforth_overlay_runs(self, demo, capsys):
        code, out, _ = run(capsys, "backforth", "--prefix",
                           demo["prefix.txt"], "--structure", demo["m.txt"],
                           "--left", "0", "--right", "0",
                           "--eps", "1/2", "--steps", "1")
        assert code == 0
        assert out.splitlines()[0] == "stage 1 side d drift 0 tol 1/32"

    def test_sc_check_pass(self, demo, capsys):
        fam = demo["dir"] / "fam.txt"
        fam.write_text("cond 0 0 tsub(R(x1), R(x1))\n")
        code, out, _ = run(capsys, "sc-check", "--structure", demo["m.txt"],
                           "--family", str(fam), "-n", "1", "--eps", "1/4")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "pass"
        assert lines[1] == "cover ok on 2 tuples; extension ok on 2 cases"

    def test_sc_check_cover_failure(self, demo, capsys):
        fam = demo["dir"] / "fam.txt"
        fam.write_text("cond 0 0 R(x1)\ndelta 0 tsub(R(x1), 1)\n")
        code, out, _ = run(capsys, "sc-check", "--structure", demo["m.txt"],
                           "--family", str(fam), "-n", "1", "--eps", "1/8")
        assert code == 1
        assert out.splitlines()[0] == "fail"
        assert "(1,)" in out

    def test_sc_check_bad_delta_index(self, demo, capsys):
        fam = demo["dir"] / "fam.txt"
        fam.write_text("cond 0 0 R(x1)\ndelta 3 R(x1)\n")
        code, _, err = run(capsys, "sc-check", "--structure", demo["m.txt"],
                           "--family", str(fam), "-n", "1", "--eps", "1/8")
        assert code == 2
        assert "delta index 3" in err

    def test_sc_check_formula_error_names_its_line(self, demo, capsys):
        fam = demo["dir"] / "fam.txt"
        fam.write_text("cond 0 0 R(x1)\n\ncond 0 0 R(x1))\n")
        code, _, err = run(capsys, "sc-check", "--structure", demo["m.txt"],
                           "--family", str(fam), "-n", "1", "--eps", "1/8")
        assert code == 2
        assert f"{fam}:3: trailing input at position 5" in err

    def test_homog_test_all_singletons(self, demo, capsys):
        code, out, _ = run(capsys, "homog-test", "--prefix",
                           demo["prefix.txt"], "-n", "1", "--eps", "1/2",
                           "--denom-bound", "4")
        assert code == 0
        assert out.splitlines()[0].startswith("pairs 9 successes 9")


class TestFeas:
    def test_feasible_witness(self, demo, capsys):
        cons = demo["dir"] / "cons.txt"
        cons.write_text("point 0\npoint 1\ndist 0 1 1/4\n")
        code, out, _ = run(capsys, "feas", str(cons))
        assert (code, out) == (0, "feasible\ndist 0 1 1/4\n")

    def test_infeasible_certificate(self, demo, capsys):
        cons = demo["dir"] / "cons.txt"
        cons.write_text("point 0\npoint 1\npoint 2\n"
                        "dist 0 1 1/4\nlower 0 2 3/4\nupper 1 2 1/3\n")
        code, out, _ = run(capsys, "feas", str(cons))
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "infeasible kind lower pair 0 2 bound 3/4"
        assert lines[1] == "chain 0 1 2"
        assert lines[2] == "link 0 1 1/4 exact"
        assert lines[3] == "link 1 2 1/3 upper"


class TestManifest:
    def test_supplies_prefix_and_sig(self, demo, capsys):
        code, out, _ = run(capsys, "dist", "--manifest",
                           demo["manifest.txt"], "0", "1")
        assert (code, out) == (0, "1/4\n")
        code, out, _ = run(capsys, "modulus", "--manifest",
                           demo["manifest.txt"], "d(x,y)")
        assert (code, out) == (0, "2\n")

    def test_explicit_flag_wins(self, demo, capsys):
        other = demo["dir"] / "sig2.txt"
        other.write_text("rel S 2 mod 2\n")
        code, out, _ = run(capsys, "parse", "--manifest",
                           demo["manifest.txt"], "--sig", str(other),
                           "S(x, y)")
        assert (code, out) == (0, "S(x, y)\n")

    def test_stage_mismatch(self, demo, capsys):
        bad = demo["dir"] / "bad.txt"
        bad.write_text("prefix prefix.txt\nstage 2\n")
        code, _, err = run(capsys, "dist", "--manifest", str(bad), "0", "1")
        assert code == 2
        assert "stage" in err

    def test_sig_structure_mismatch(self, demo, capsys):
        other = demo["dir"] / "man2.txt"
        other.write_text("sig wide.txt\n")
        (demo["dir"] / "wide.txt").write_text("rel R 2 mod 2\n")
        code, _, err = run(capsys, "eval", "--manifest", str(other),
                           "--structure", demo["m.txt"], "sup(x, R(x))")
        assert code == 3
        assert "signature" in err

    def test_unknown_manifest_line(self, demo, capsys):
        bad = demo["dir"] / "bad.txt"
        bad.write_text("buildroot /tmp\n")
        code, _, err = run(capsys, "dist", "--manifest", str(bad), "0", "1")
        assert code == 2
        assert "manifest" in err


class TestParserEdges:
    def test_unknown_subcommand_exits_2(self, demo, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_missing_required_flag_exits_2(self, demo, capsys):
        assert run(capsys, "qu-build")[0] == 2

    def test_parser_built_once_and_reused(self, demo, capsys, monkeypatch):
        """A run of main calls in one process, an argparse error among
        them, prints what a freshly built parser prints for each call, and
        no --bind list carries over to the next call."""
        m = demo["m.txt"]
        calls = [("eval", "--structure", m, "--bind", "x=1", "R(x)"),
                 ("eval", "--structure", m, "--bogus", "R(x)"),
                 ("eval", "--structure", m, "R(x)"),
                 ("eval-interval", "--structure", m, "--bind", "x=0",
                  "--density", "1/8", "tadd(R(x), sup(y, R(y)))"),
                 ("eval", "--structure", m, "--bind", "y=1", "R(x)"),
                 ("modulus", "--sig", demo["sig.txt"], "d(x,y)")]
        fresh = []
        for argv in calls:
            cli._parser.cache_clear()
            fresh.append(run(capsys, *argv))
        assert [c[0] for c in fresh] == [0, 2, 2, 0, 2, 0]
        builds = []
        real = cli.build_parser
        monkeypatch.setattr(cli, "build_parser",
                            lambda: builds.append(1) or real())
        cli._parser.cache_clear()
        assert [run(capsys, *argv) for argv in calls] == fresh
        assert len(builds) == 1

    def test_import_builds_no_parser(self):
        res = subprocess.run(
            [sys.executable, "-c", "import urybench.cli as c; "
             "print(c._parser.cache_info().currsize)"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(
                Path(urybench.__file__).resolve().parent.parent)})
        assert (res.returncode, res.stdout) == (0, "0\n")

    def test_console_script(self, demo):
        res = subprocess.run(
            ["urybench", "modulus", "--sig", demo["sig.txt"],
             "tadd(d(x,y), d(y,z))"],
            capture_output=True, text=True)
        assert res.returncode == 0
        assert res.stdout == "4\n"

    def test_console_script_negative_exit(self, demo):
        res = subprocess.run(
            ["urybench", "cone-member", "--structure", demo["m.txt"],
             "--cone", demo["tight.txt"]],
            capture_output=True, text=True)
        assert res.returncode == 1
        assert res.stdout == "false\n"

    def test_python_dash_m(self, demo):
        src = str(Path(urybench.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        res = subprocess.run(
            [sys.executable, "-m", "urybench", "parse", "d(x,y)",
             "--sig", demo["sig.txt"]],
            capture_output=True, text=True, env=env)
        assert res.returncode == 0
        assert res.stdout == "d(x, y)\n"


# '\u00b2' (superscript two) passes str.isdigit but not int(): every id
# reader must turn it into a usage error, never a traceback.
SUP2 = "\u00b2"
UNARY = Signature([RelSpec("R", 1, F(1))])


def _from_file(reader, text):
    def call(tmp_path):
        path = tmp_path / "in.txt"
        path.write_text(text, encoding="utf-8")
        return reader(str(path))
    return call


ID_READERS = {
    "parse_ids": lambda tmp: cli.parse_ids(f"0,{SUP2}"),
    "binds": lambda tmp: cli._binds([f"x={SUP2}"]),
    "manifest_stage": _from_file(cli.read_manifest, f"stage {SUP2}\n"),
    "family_delta": _from_file(
        lambda path: cli._read_family(path, UNARY, 1),
        f"cond 0 0 R(x1)\ndelta {SUP2} R(x1)\n"),
    "sig_arity": _from_file(cli.read_sig, f"rel R {SUP2} mod 1\n"),
    "gcone": lambda tmp: GreyCosetCode.from_text(
        f"gcone q=1 s=0 s'={SUP2} thr=1/2 op=lt\n"),
    "structure_cone": lambda tmp: StructureCone.from_text(
        f"con R {SUP2} 0 1/2 cc\n", UNARY),
    "threshold_cone": lambda tmp: ThresholdCone.from_text(
        f"tcone r=1/4\nterm R {SUP2} 0\n", UNARY),
    "structure_rel": lambda tmp: FinStructure.from_text(
        f"point 0\nrel R {SUP2} mod 1\n"),
    "structure_val": lambda tmp: FinStructure.from_text(
        f"point 0\nrel R 1 mod 1\nval R {SUP2} 0\n"),
    "metric_point": lambda tmp: FinMetric.from_text(f"point {SUP2}\n"),
}


@pytest.mark.parametrize("reader", sorted(ID_READERS))
def test_non_ascii_digit_id_is_usage_error(reader, tmp_path):
    with pytest.raises(UsageError):
        ID_READERS[reader](tmp_path)


# Rationals and formula integers take ASCII digits only; int() would also
# read other scripts' digits, signs and underscores.
@pytest.mark.parametrize("eps", ["\u0663/4", "1/\u0664", "+1/2", "1_0/20",
                                 " +1_0/20 "])
def test_non_ascii_rational_exits_2(demo, capsys, eps):
    code, out, err = run(capsys, "backforth", "--prefix", demo["prefix.txt"],
                         "--left", "0", "--right", "0", "--eps", eps,
                         "--steps", "1")
    assert (code, out) == (2, "")
    assert err.startswith("error: bad rational")


@pytest.mark.parametrize("formula", ["R(\u0663)", "tsub(R(x), \u0663/4)",
                                     "tsub(R(x), 1/\u0664)"])
def test_non_ascii_formula_digit_exits_2(demo, capsys, formula):
    code, out, err = run(capsys, "parse", "--sig", demo["sig.txt"], formula)
    assert (code, out) == (2, "")
    assert err.startswith("error:")


def test_non_ascii_digit_id_exits_2(demo, capsys):
    code, _, err = run(capsys, "backforth", "--prefix", demo["prefix.txt"],
                       "--left", SUP2, "--right", "0", "--eps", "1/2",
                       "--steps", "1")
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["qu-build", "--steps", "\u0663"],
    ["dist", "--space", "{prefix}", "\u0661", "2"],
    ["extend-iso", "--prefix", "{prefix}", "--map", "{map}", "\u0663"],
    ["homog-test", "--prefix", "{prefix}", "-n", "\u0662", "--eps", "1/2",
     "--denom-bound", "2"],
])
def test_non_ascii_integer_option_exits_2(demo, capsys, argv):
    argv = [a.format(prefix=demo["prefix.txt"], map=demo["id.txt"])
            for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "bad integer" in err
