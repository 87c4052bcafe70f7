"""Each benchmark checker accepts the program's real output and rejects a
corrupted copy of it.

    PYTHONPATH=src python -m pytest -q bench
"""

import json
import random
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks as C  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402

URY = run.import_urybench()


@pytest.fixture()
def decide(tmp_path):
    return W.Decide(URY, 11, tmp_path)


def query(wl, kind, index=0):
    argv, _, data = [q for q in wl.queries if q[1] == kind][index]
    code, out, err = wl._main(argv)
    assert not err
    return data, code, out


def replace_line(text, index, new):
    lines = text.splitlines()
    lines[index] = new
    return "\n".join(lines) + "\n"


def test_witness_raised_by_1_64_is_rejected(decide):
    inst, code, out = query(decide, "feasible", 2)
    C.check_feasible_output(inst, code, out)
    tag, a, b, v = out.splitlines()[1].split()
    bad = replace_line(out, 1, f"{tag} {a} {b} {C.fmt(C.rat(v) + F(1, 64))}")
    with pytest.raises(C.CheckFailed):
        C.check_feasible_output(inst, code, bad)


def test_certificate_with_a_link_dropped_is_rejected(decide):
    for i in range(6):
        inst, code, out = query(decide, "infeasible", i)
        C.check_infeasible_output(inst, code, out)
        lines = out.splitlines()
        for drop in range(2, len(lines)):
            with pytest.raises(C.CheckFailed):
                C.check_infeasible_output(inst, code, "\n".join(
                    lines[:drop] + lines[drop + 1:]) + "\n")


def test_grid_instances_agree_with_grid_search(decide):
    for i in range(W.GRID_INSTANCES):
        inst, code, out = query(decide, "grid", i)
        assert (code == 0) == C.grid_feasible(inst, 8)


def test_counterexample_with_an_image_moved_is_rejected(decide):
    c1, c2 = [q for q in decide.queries if q[1] == "separated"][0][2]
    _, code, out = query(decide, "separated")
    C.check_counterexample(decide.d3, 3, c1, c2, code, out)
    labels, images, _ = C.parse_counterexample(out)
    lines = out.splitlines()
    i = next(k for k, line in enumerate(lines) if line.startswith("image "))
    _, src, img = lines[i].split()
    for other in labels:
        if other != int(img):
            with pytest.raises(C.CheckFailed):
                C.check_counterexample(decide.d3, 3, c1, c2, code,
                                       replace_line(out, i, f"image {src} {other}"))


def test_counterexample_with_a_prefix_distance_altered_is_rejected(decide):
    c1, c2 = [q for q in decide.queries if q[1] == "separated"][0][2]
    _, code, out = query(decide, "separated")
    lines = out.splitlines()
    i = next(k for k, line in enumerate(lines)
             if line.startswith("d ") and int(line.split()[2]) < 3)
    _, a, b, v = lines[i].split()
    bad = replace_line(out, i, f"d {a} {b} {C.fmt(C.rat(v) - F(1, 64))}")
    with pytest.raises(C.CheckFailed):
        C.check_counterexample(decide.d3, 3, c1, c2, code, bad)


def test_one_parameter_oracle_agrees_with_the_program(decide):
    rng = random.Random(5)
    space = URY.metric.QUPrefix.from_text(C.Schedule(4).to_text()).space
    for _ in range(300):
        c1, c2 = [(F(rng.randint(1, 2)), (rng.randrange(3),), (rng.randrange(3),),
                   F(rng.randint(0, 4), 4), rng.choice(C.STAR_OPS)) for _ in range(2)]
        codes = [URY.grey.GreyCosetCode(*c) for c in (c1, c2)]
        assert (URY.grey.gcone_subset(*codes, space)
                == (C.one_param_counterexample(decide.d3, c1, c2) is None))


def test_cone_checks_reject_swapped_answers(decide):
    for kind in ("nested", "sep_in", "sep_out"):
        rng = random.Random(kind)
        left, right, values = W.cone_pair(rng, decide.d7, 7, 8, kind)
        if values is None:
            C.check_cone_nesting(left, right, 0, "true\n")
            with pytest.raises(C.CheckFailed):
                C.check_cone_nesting(left, right, 1, "false\n")
        else:
            C.check_cone_separation(decide.d7, W.COEFFS, values, left, right, 1, "false\n")
            with pytest.raises(C.CheckFailed):
                C.check_cone_separation(decide.d7, W.COEFFS, values, left, right,
                                        0, "true\n")


def test_prefix_with_one_distance_altered_is_rejected():
    text = URY.metric.qu_extend(URY.metric.QUPrefix(), 40).to_text()
    C.check_prefix_text(text, 40)
    lines = text.splitlines()
    i = next(k for k, line in enumerate(lines) if line.startswith("dist 3 9 "))
    _, a, b, v = lines[i].split()
    with pytest.raises(C.CheckFailed, match="line"):
        C.check_prefix_text(replace_line(text, i, f"dist {a} {b} {C.fmt(C.rat(v) / 2)}"), 40)


def test_stage_audit_rejects_a_missing_type():
    s = C.Schedule(4424)
    assert C.check_stage_complete(s.dist, 7, s.n, 3, 4) == 4423
    with pytest.raises(C.CheckFailed):
        C.check_stage_complete(s.dist, 7, s.n - 1, 3, 4)


def test_formula_value_off_by_1_64_is_rejected(tmp_path):
    wl = W.Evaluate(URY, 3, tmp_path)
    ev, iv = URY.logic.eval_formula, URY.logic.eval_interval
    for n, tables, M, f, pf, asgs, r in wl.cases[:10]:
        vs = [ev(M, pf, a) for a in asgs]
        k = URY.logic.modulus(pf, M.sig)
        args = (f, n, wl.canon.dist, tables, W.COEFFS, asgs)
        ivs = (iv(M, pf, asgs[0], F(0)), iv(M, pf, asgs[0], r))
        C.check_formula(*args, vs, k, *ivs)
        with pytest.raises(C.CheckFailed):
            C.check_formula(*args, [vs[0], vs[1] + F(1, 64)], k, *ivs)
        with pytest.raises(C.CheckFailed):
            C.check_formula(*args, vs, k, (vs[0], vs[0] + F(1, 64)), ivs[1])


def test_homog_report_with_an_extra_pair_is_rejected():
    s = C.Schedule(17)
    rep = URY.homog.approx_homog_test(URY.metric.qu_extend(URY.metric.QUPrefix(), 17),
                                      2, F(1, 2), 4)
    args = (s.dist, s.n, 2, 4)
    C.check_homog_report(*args, rep.total, rep.successes, rep.failures, rep.max_drift)
    with pytest.raises(C.CheckFailed):
        C.check_homog_report(*args, rep.total + 1, rep.total + 1, (), rep.max_drift)


def test_game_with_a_moved_pair_is_rejected(tmp_path):
    wl = W.Audit(URY, 4, tmp_path)
    abar, bbar, tables, M, path = wl.games[0]
    state, cert = URY.homog.back_and_forth(wl.p22, abar, bbar, W.AUDIT_EPS, W.GAME_STEPS, M)
    d = state.prefix.space.d
    args = (abar, bbar, state.cbar, state.dbar, cert.per_coord, tables,
            W.COEFFS, W.ARITY, W.AUDIT_EPS)
    C.check_game(d, state.alpha.pairs, *args)
    assert (state.cbar, state.dbar, state.prefix.space.n) == path
    pairs = list(state.alpha.pairs)
    s, t = pairs[-1]
    spare = next(p for p in range(state.prefix.space.n) if p not in dict(pairs).values())
    with pytest.raises(C.CheckFailed):
        C.check_game(d, pairs[:-1] + [(s, spare)], *args)


def test_kappa_check_rejects_a_wide_interval():
    def fill_at(rel, tup):
        return F(1, 2)

    cone = [("R", (i,), F(1, 2) - F(1, 16), F(1, 2) + F(1, 16)) for i in range(3)]
    C.check_kappa(cone, 2, fill_at, True, F(1, 4))
    cone[1] = ("R", (1,), F(1, 4), F(3, 4))
    with pytest.raises(C.CheckFailed):
        C.check_kappa(cone, 2, fill_at, True, F(1, 4))


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _, _ in tracing.PER_LAYER]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {n: u for n, u, _ in tracing.PER_LAYER}
    assert {m["name"] for m in spec["end_to_end"]} == \
        {"setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb"}
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)


def test_tail_is_the_nearest_rank_percentile():
    assert run.tail(list(range(40, 0, -1)), 75) == 30
    assert run.tail(list(range(1, 1001)), 99) == 990
    assert 1000 - run.tail_rank(99, 1000) == 10
