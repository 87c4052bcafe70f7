"""Batch command-line front end over all modules.

Every subcommand reads plain line-oriented text files in the formats the
modules define, invokes exactly one operation, and writes deterministic
output.  Exit codes: 0 success, 1 negative decision, 2 usage error,
3 precondition violation.
"""

import argparse
import functools
import os
import sys
from dataclasses import dataclass

from .errors import PreconditionError, UsageError
from .grey import (GreyCosetCode, OraclePoint, ThresholdCone,
                   formal_inclusion, gcone_counterexample, inv_check, kappa,
                   rho_S, sat)
from .homog import Stuck, approx_homog_test, back_and_forth, sc_check
from .logic import (FinStructure, Signature, eval_formula, eval_interval,
                    format_formula, modulus, parse, parse_rel)
from .metric import (Feasible, FinMetric, PartialConstraintSet,
                     PartialIsometry, QUPrefix, _lines, _read_points,
                     extend_partial_isometry, feasible, parse_id, qu_extend)
from .rat import format_rat, parse_rat, parse_rat01
from .space import StructureCone, cone_diam, cone_member, cone_subset, delta_seq


# --- file helpers ------------------------------------------------------------


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}") from exc


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from exc


def read_sig(path: str) -> Signature:
    """Signature file: `rel <name> <arity> mod <coeff>` lines."""
    return Signature([parse_rel(parts, f"{path}:{ln}: ")
                      for ln, parts in _lines(_read(path))])


def read_space(path: str) -> FinMetric:
    """A metric space file, or a prefix file (one with a cursor line)."""
    space, extra = _read_points(_read(path), allow_extra=True)
    if any(parts[0] == "cursor" for _, parts in extra):
        return QUPrefix.from_points(space, extra).space
    if extra:
        ln, parts = extra[0]
        raise UsageError(f"line {ln}: unknown directive {parts[0]!r}")
    return space


def _cone_kind(text: str, path: str) -> str:
    """gcone, tcone or con by the one of those heads the lines use; a file
    with no lines at all (after comments) is the structure cone with no
    constraints, which to_text writes as ""."""
    kinds, lines = set(), 0
    for ln, parts in _lines(text):
        lines += 1
        if parts[0] in ("gcone", "tcone", "con"):
            kinds.add(parts[0])
            if len(kinds) > 1:
                raise UsageError(f"{path}:{ln}: cannot tell the cone kind apart")
    if len(kinds) == 1:
        return kinds.pop()
    if not lines:
        return "con"
    raise UsageError(f"{path}: cannot tell the cone kind apart")


def parse_ids(text: str, where: str = "") -> tuple:
    if not text.strip():
        return ()
    return tuple(parse_id(tok.strip(), where=where) for tok in text.split(","))


def _binds(pairs) -> dict:
    asg = {}
    for item in pairs or ():
        name, eq, val = item.partition("=")
        if not eq or not name:
            raise UsageError(f"bad binding {item!r} (want name=id)")
        asg[name] = parse_id(val, where=f"binding {item!r}: ")
    return asg


# --- manifest ----------------------------------------------------------------


@dataclass
class Manifest:
    sig_path: str = None
    prefix_path: str = None
    stage: int = None


def read_manifest(path: str) -> Manifest:
    base = os.path.dirname(os.path.abspath(path))
    m = Manifest()
    for ln, parts in _lines(_read(path)):
        if parts[0] == "sig" and len(parts) == 2:
            m.sig_path = os.path.join(base, parts[1])
        elif parts[0] == "prefix" and len(parts) == 2:
            m.prefix_path = os.path.join(base, parts[1])
        elif parts[0] == "stage" and len(parts) == 2:
            m.stage = parse_id(parts[1], "stage", f"{path}:{ln}: ")
        else:
            raise UsageError(f"{path}:{ln}: unknown manifest line")
    return m


def _manifest(args) -> Manifest:
    path = getattr(args, "manifest", None)
    return read_manifest(path) if path else Manifest()


def resolve_sig(args, man: Manifest) -> Signature:
    path = getattr(args, "sig", None) or man.sig_path
    if path is None:
        raise UsageError("a signature file is required (--sig or manifest)")
    return read_sig(path)


def resolve_prefix(args, man: Manifest) -> QUPrefix:
    path = getattr(args, "prefix", None) or man.prefix_path
    if path is None:
        raise UsageError("a prefix file is required (--prefix or manifest)")
    p = QUPrefix.from_text(_read(path))
    if man.stage is not None and p.stage != man.stage:
        raise UsageError(f"manifest stage {man.stage} but prefix cursor "
                         f"at stage {p.stage}")
    return p


def resolve_space(args, man: Manifest) -> FinMetric:
    path = getattr(args, "space", None)
    if path:
        return read_space(path)
    if man.prefix_path:
        return resolve_prefix(args, man).space
    raise UsageError("a space file is required (--space or manifest)")


def load_structure(path: str, man: Manifest) -> FinStructure:
    M = FinStructure.from_text(_read(path))
    if man.sig_path and M.sig != read_sig(man.sig_path):
        raise PreconditionError(
            f"{path}: signature differs from the manifest signature")
    return M


# --- output ------------------------------------------------------------------


def emit(*lines) -> None:
    sys.stdout.write("".join(f"{line}\n" for line in lines))


def _bool_exit(flag: bool) -> int:
    emit("true" if flag else "false")
    return 0 if flag else 1


# --- subcommands -------------------------------------------------------------


def cmd_qu_build(args) -> int:
    prefix = qu_extend(QUPrefix(), args.steps)
    text = prefix.to_text()
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_dist(args) -> int:
    space = resolve_space(args, _manifest(args))
    for p in (args.a, args.b):
        if p not in space.points:
            raise UsageError(f"unknown point {p}")
    emit(format_rat(space.d(args.a, args.b)))
    return 0


def cmd_extend_iso(args) -> int:
    man = _manifest(args)
    prefix = resolve_prefix(args, man)
    gamma = PartialIsometry.from_text(_read(args.map))
    grown, extended = extend_partial_isometry(prefix, gamma, args.sources)
    sys.stdout.write(extended.to_text())
    if args.out:
        _write(args.out, grown.to_text())
    return 0


def cmd_parse(args) -> int:
    sig = resolve_sig(args, _manifest(args))
    emit(format_formula(parse(args.formula, sig)))
    return 0


def cmd_modulus(args) -> int:
    sig = resolve_sig(args, _manifest(args))
    emit(format_rat(modulus(parse(args.formula, sig), sig)))
    return 0


def cmd_eval(args) -> int:
    man = _manifest(args)
    M = load_structure(args.structure, man)
    f = parse(args.formula, M.sig)
    emit(format_rat(eval_formula(M, f, _binds(args.bind))))
    return 0


def cmd_eval_interval(args) -> int:
    man = _manifest(args)
    M = load_structure(args.structure, man)
    f = parse(args.formula, M.sig)
    lo, hi = eval_interval(M, f, _binds(args.bind),
                           parse_rat01(args.density))
    emit(f"{format_rat(lo)} {format_rat(hi)}")
    return 0


def cmd_delta_seq(args) -> int:
    man = _manifest(args)
    M = load_structure(args.left, man)
    N = load_structure(args.right, man)
    lo, hi = delta_seq(M, N, args.m)
    emit(f"{format_rat(lo)} {format_rat(hi)}")
    return 0


def _read_structure_cone(path: str, sig: Signature) -> StructureCone:
    text = _read(path)
    return _structure_cone(text, _cone_kind(text, path), path, sig)


def _structure_cone(text: str, kind: str, path: str, sig: Signature) -> StructureCone:
    if kind == "con":
        return StructureCone.from_text(text, sig)
    if kind == "tcone":
        return ThresholdCone.from_text(text, sig).materialize()
    raise UsageError(f"{path}: expected a structure-side cone")


def cmd_cone_diam(args) -> int:
    sig = resolve_sig(args, _manifest(args))
    emit(format_rat(cone_diam(_read_structure_cone(args.cone, sig))))
    return 0


def cmd_cone_member(args) -> int:
    man = _manifest(args)
    M = load_structure(args.structure, man)
    cone = _read_structure_cone(args.cone, M.sig)
    return _bool_exit(cone_member(M, cone))


def cmd_cone_subset(args) -> int:
    man = _manifest(args)
    sig = resolve_sig(args, man)
    space = resolve_space(args, man)
    left_text, right_text = _read(args.left), _read(args.right)
    kinds = (_cone_kind(left_text, args.left),
             _cone_kind(right_text, args.right))
    if kinds == ("gcone", "gcone"):
        c1 = GreyCosetCode.from_text(left_text)
        c2 = GreyCosetCode.from_text(right_text)
        wit = gcone_counterexample(c1, c2, space)
        if wit is None:
            emit("true")
            return 0
        lines = ["false"]
        lines.append("labels " + ",".join(str(x) for x in wit.labels))
        for s in sorted(wit.images):
            lines.append(f"image {s} {wit.images[s]}")
        for a, b in sorted(wit.dists):
            lines.append(f"d {a} {b} {format_rat(wit.dists[(a, b)])}")
        emit(*lines)
        return 1
    c1, c2 = (_structure_cone(text, kind, path, sig) for text, kind, path in
              zip((left_text, right_text), kinds, (args.left, args.right)))
    return _bool_exit(cone_subset(c1, c2, space))


def cmd_inv_check(args) -> int:
    man = _manifest(args)
    sig = resolve_sig(args, man)
    prefix = resolve_prefix(args, man)
    U = _read_structure_cone(args.cone, sig)
    res = inv_check(prefix, parse_rat(args.scale), parse_ids(args.tbar), U)
    lines = [f"verdict {res.verdict}"]
    if res.detail:
        lines.append(f"detail {res.detail}")
    if res.gamma is not None:
        lines.append("gamma")
        lines.extend(res.gamma.to_text().rstrip("\n").splitlines())
    if res.witness is not None:
        lines.append("witness")
        lines.extend(res.witness.to_text().rstrip("\n").splitlines())
    emit(*lines)
    return 0 if res.verdict == "Sound" else 1


def cmd_rho(args) -> int:
    man = _manifest(args)
    space = resolve_space(args, man)
    g = PartialIsometry.from_text(_read(args.left))
    h = PartialIsometry.from_text(_read(args.right))
    g.validate(space)
    h.validate(space)
    lo, hi = rho_S(space, g, h, args.depth)
    emit(f"{format_rat(lo)} {format_rat(hi)}")
    return 0


def cmd_sat(args) -> int:
    man = _manifest(args)
    seed = load_structure(args.structure, man)
    prefix = resolve_prefix(args, man)
    cone = _read_structure_cone(args.cone, seed.sig)
    return _bool_exit(sat(OraclePoint(seed, prefix), cone))


def cmd_kappa(args) -> int:
    man = _manifest(args)
    seed = load_structure(args.structure, man)
    prefix = resolve_prefix(args, man)
    sys.stdout.write(kappa(OraclePoint(seed, prefix), args.n).to_text())
    return 0


def cmd_formal_incl(args) -> int:
    man = _manifest(args)
    space = resolve_space(args, man)
    left_text, right_text = _read(args.left), _read(args.right)
    kinds = (_cone_kind(left_text, args.left),
             _cone_kind(right_text, args.right))
    if "con" in kinds:
        raise UsageError("formal inclusion needs tcone or gcone files")

    def load(text, kind):
        if kind == "gcone":
            return GreyCosetCode.from_text(text)
        return ThresholdCone.from_text(text, resolve_sig(args, man))

    c1 = load(left_text, kinds[0])
    c2 = load(right_text, kinds[1])
    return _bool_exit(formal_inclusion(c1, c2, space))


def cmd_backforth(args) -> int:
    man = _manifest(args)
    prefix = resolve_prefix(args, man)
    M = load_structure(args.structure, man) if args.structure else None
    abar = parse_ids(args.left)
    bbar = parse_ids(args.right)
    try:
        state, cert = back_and_forth(prefix, abar, bbar,
                                     parse_rat01(args.eps), args.steps, M=M)
    except Stuck as s:
        emit(f"stuck stage {s.stage}: {s.obstruction}")
        return 1
    lines = list(cert.lines)
    lines.append("cbar " + ",".join(str(x) for x in state.cbar))
    lines.append("dbar " + ",".join(str(x) for x in state.dbar))
    worst = max(cert.per_coord, default=None)
    lines.append(f"drift {format_rat(worst) if worst is not None else '0'}")
    lines.append(f"bound {format_rat(cert.bound)}")
    emit(*lines)
    return 0


def _read_family(path: str, sig: Signature, n: int):
    """Family file: `cond <thr> <ids> <formula>` and `delta <i> <formula>`
    lines; conditions are indexed 0.. in order of appearance."""
    family = []
    raw_deltas = []
    for ln, parts in _lines(_read(path)):
        where = f"{path}:{ln}: "
        if parts[0] == "cond":
            if len(parts) < 4:
                raise UsageError(f"{where}expected 'cond <thr> <ids> <formula>'")
            ids = parse_ids(parts[2], where)
            if len(ids) != n:
                raise UsageError(f"{where}witness tuple has {len(ids)} ids, "
                                 f"want {n}")
            family.append((ids, parse(" ".join(parts[3:]), sig, where),
                           parse_rat(parts[1], where)))
        elif parts[0] == "delta":
            if len(parts) < 3:
                raise UsageError(f"{where}expected 'delta <i> <formula>'")
            raw_deltas.append((ln, parse_id(parts[1], "delta index", where),
                               parse(" ".join(parts[2:]), sig, where)))
        else:
            raise UsageError(f"{where}unknown family line")
    deltas = {}
    for ln, i, f in raw_deltas:
        if i >= len(family):
            raise UsageError(f"{path}:{ln}: delta index {i} has no condition")
        deltas.setdefault(i, []).append(f)
    return family, deltas


def cmd_sc_check(args) -> int:
    man = _manifest(args)
    M = load_structure(args.structure, man)
    family, deltas = _read_family(args.family, M.sig, args.n)
    rep = sc_check(M, args.n, parse_rat01(args.eps), family, deltas)
    emit("pass" if rep.ok else "fail", *rep.lines)
    return 0 if rep.ok else 1


def cmd_homog_test(args) -> int:
    man = _manifest(args)
    prefix = resolve_prefix(args, man)
    rep = approx_homog_test(prefix, args.n, parse_rat01(args.eps),
                            args.denom_bound)
    emit(*rep.lines)
    return 0 if rep.ok else 1


def cmd_feas(args) -> int:
    cons = PartialConstraintSet.from_text(_read(args.constraints))
    res = feasible(cons)
    if isinstance(res, Feasible):
        lines = ["feasible"]
        for (a, b), v in sorted(res.witness.items()):
            lines.append(f"dist {a} {b} {format_rat(v)}")
        emit(*lines)
        return 0
    strict = " strict" if res.bound_strict else ""
    lines = [f"infeasible kind {res.kind} pair {res.pair[0]} {res.pair[1]} "
             f"bound {format_rat(res.bound)}{strict}"]
    lines.append("chain " + " ".join(str(p) for p in res.chain))
    for (a, b), (v, st, tag) in zip(zip(res.chain, res.chain[1:]),
                                    res.chain_bounds):
        lines.append(f"link {a} {b} {format_rat(v)}"
                     f"{' strict' if st else ''} {tag}")
    emit(*lines)
    return 1


# --- parser ------------------------------------------------------------------


def _ascii_int(tok: str) -> int:
    """Type of the integer options: ASCII digits only, as in every reader."""
    try:
        return parse_id(tok, "integer")
    except UsageError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="urybench",
        description="Exact-rational workbench for metric structures on a "
                    "universal rational space")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--manifest", metavar="FILE",
                        help="workspace manifest with sig/prefix defaults")
    sub = top.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def add(name, func, help_text, **kwargs):
        p = sub.add_parser(name, parents=[common], help=help_text, **kwargs)
        p.set_defaults(func=func)
        return p

    p = add("qu-build", cmd_qu_build, "build a canonical space prefix")
    p.add_argument("--steps", type=_ascii_int, required=True)
    p.add_argument("-o", "--out", metavar="FILE")

    p = add("dist", cmd_dist, "distance between two prefix points")
    p.add_argument("--space", metavar="FILE")
    p.add_argument("a", type=_ascii_int)
    p.add_argument("b", type=_ascii_int)

    p = add("extend-iso", cmd_extend_iso,
            "extend a partial isometry over new sources")
    p.add_argument("--prefix", metavar="FILE")
    p.add_argument("--map", required=True, metavar="FILE")
    p.add_argument("-o", "--out", metavar="FILE",
                   help="write the grown prefix here")
    p.add_argument("sources", type=_ascii_int, nargs="+")

    p = add("parse", cmd_parse, "parse a formula and print it canonically")
    p.add_argument("--sig", metavar="FILE")
    p.add_argument("formula")

    p = add("modulus", cmd_modulus, "uniform continuity modulus of a formula")
    p.add_argument("--sig", metavar="FILE")
    p.add_argument("formula")

    p = add("eval", cmd_eval, "exact formula value on a structure")
    p.add_argument("--structure", required=True, metavar="FILE")
    p.add_argument("--bind", action="append", metavar="NAME=ID")
    p.add_argument("formula")

    p = add("eval-interval", cmd_eval_interval,
            "certified value bounds over r-dense superspaces")
    p.add_argument("--structure", required=True, metavar="FILE")
    p.add_argument("--bind", action="append", metavar="NAME=ID")
    p.add_argument("--density", default="0", metavar="RAT")
    p.add_argument("formula")

    p = add("delta-seq", cmd_delta_seq,
            "sequence-metric bounds between two structures")
    p.add_argument("--left", required=True, metavar="FILE")
    p.add_argument("--right", required=True, metavar="FILE")
    p.add_argument("-m", type=_ascii_int, required=True)

    p = add("cone-diam", cmd_cone_diam, "exact cone diameter")
    p.add_argument("--sig", metavar="FILE")
    p.add_argument("--cone", required=True, metavar="FILE")

    p = add("cone-member", cmd_cone_member, "structure membership in a cone")
    p.add_argument("--structure", required=True, metavar="FILE")
    p.add_argument("--cone", required=True, metavar="FILE")

    p = add("cone-subset", cmd_cone_subset,
            "decide inclusion between two cones")
    p.add_argument("--sig", metavar="FILE")
    p.add_argument("--space", metavar="FILE")
    p.add_argument("--left", required=True, metavar="FILE")
    p.add_argument("--right", required=True, metavar="FILE")

    p = add("inv-check", cmd_inv_check,
            "three-valued invariance check of a cone against a group code")
    p.add_argument("--sig", metavar="FILE")
    p.add_argument("--prefix", metavar="FILE")
    p.add_argument("--scale", required=True, metavar="RAT")
    p.add_argument("--tbar", default="", metavar="IDS")
    p.add_argument("--cone", required=True, metavar="FILE")

    p = add("rho", cmd_rho, "truncated distance between two isometries")
    p.add_argument("--space", metavar="FILE")
    p.add_argument("--left", required=True, metavar="FILE")
    p.add_argument("--right", required=True, metavar="FILE")
    p.add_argument("-N", dest="depth", type=_ascii_int, required=True)

    p = add("sat", cmd_sat, "does the oracle point satisfy the cone")
    p.add_argument("--structure", required=True, metavar="FILE")
    p.add_argument("--prefix", metavar="FILE")
    p.add_argument("--cone", required=True, metavar="FILE")

    p = add("kappa", cmd_kappa, "canonical shrinking cone of an oracle point")
    p.add_argument("--structure", required=True, metavar="FILE")
    p.add_argument("--prefix", metavar="FILE")
    p.add_argument("-n", type=_ascii_int, required=True)

    p = add("formal-incl", cmd_formal_incl,
            "syntactic inclusion certificate between radius cones")
    p.add_argument("--sig", metavar="FILE")
    p.add_argument("--space", metavar="FILE")
    p.add_argument("--left", required=True, metavar="FILE")
    p.add_argument("--right", required=True, metavar="FILE")

    p = add("backforth", cmd_backforth, "alternating tuple extension run")
    p.add_argument("--prefix", metavar="FILE")
    p.add_argument("--structure", metavar="FILE")
    p.add_argument("--left", required=True, metavar="IDS")
    p.add_argument("--right", required=True, metavar="IDS")
    p.add_argument("--eps", required=True, metavar="RAT")
    p.add_argument("--steps", type=_ascii_int, required=True)

    p = add("sc-check", cmd_sc_check,
            "covering/extension check for a condition family")
    p.add_argument("--structure", required=True, metavar="FILE")
    p.add_argument("--family", required=True, metavar="FILE")
    p.add_argument("-n", type=_ascii_int, required=True)
    p.add_argument("--eps", required=True, metavar="RAT")

    p = add("homog-test", cmd_homog_test,
            "near-homogeneity audit over small tuples")
    p.add_argument("--prefix", metavar="FILE")
    p.add_argument("-n", type=_ascii_int, required=True)
    p.add_argument("--eps", required=True, metavar="RAT")
    p.add_argument("--denom-bound", type=_ascii_int, required=True)

    p = add("feas", cmd_feas, "decide a partial distance constraint set")
    p.add_argument("constraints", metavar="FILE")

    return top


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser() once per process, on the first main call."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
