#!/usr/bin/env python3
"""The urybench benchmark: one seeded workload per process, single-threaded.

    python3 bench/run.py --workload decide --seed 1 --seconds 10 --trace 0

runs set-up five times (import urybench from ./src, generate and write the
inputs) and reports the median as setup_s, then repeats whole rounds of
the workload's operations until --seconds have passed, checks every output
of the first round against checks.py and every later round against the
first, and prints the end-to-end metrics (ops_per_s over the median
round).  With --trace 1 it runs one
untraced round, one traced round (per-layer spans, see tracing.py) and one
profiled round (Fraction counts), and prints the per-layer metrics.
`--workload all` runs each workload in its own process, one after another.
A timed phase also runs on until op_tail_ms, the workload's fixed
percentile, has at least ten samples above it.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; results and span files are also
written under .bench_out/ at the repository root.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 7


class OpFailed:
    """Stands in for the output of an operation that raised."""

    def __init__(self, label, exc):
        self.text = f"{label}: {type(exc).__name__}: {exc}"

    def __repr__(self):
        return self.text


class Timer:
    """Times each operation; in the traced run each one is also a root
    span named `op`, so layer spans have a parent per operation."""

    def __init__(self, rec=None):
        self.lat_ns: list = []
        self.failed = 0
        self.rec = rec

    def __call__(self, label, fn, *args):
        start = time.perf_counter_ns()
        try:
            out = self.rec.call("op", fn, args) if self.rec else fn(*args)
        except Exception as exc:  # an operation that fails is counted, not fatal
            self.failed += 1
            out = OpFailed(label, exc)
        self.lat_ns.append(time.perf_counter_ns() - start)
        return out


def import_urybench():
    """Import urybench afresh from ./src; refuse any other copy."""
    for name in [m for m in sys.modules if m == "urybench" or m.startswith("urybench.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("urybench")
    if Path(pkg.__file__).resolve().parent != SRC / "urybench":
        raise ImportError(f"urybench imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"urybench.{m}")
                              for m in tracing.MODULES})


def set_up(cls, seed: int):
    """SETUP_REPEATS fresh imports and input generations; returns the
    median time and the last workload."""
    times, wl = [], None
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        ury = import_urybench()
        wl = cls(ury, seed, OUT / f"work-{cls.name}-{seed}")
        times.append(time.perf_counter() - start)
    return statistics.median(times), wl


def tail_rank(pct: float, n: int) -> int:
    """Nearest rank of the pct-th percentile among n samples."""
    return math.ceil(pct / 100 * n)


def tail(lat_ms: list, pct: float) -> float:
    return sorted(lat_ms)[tail_rank(pct, len(lat_ms)) - 1]


def check_round(wl, out, reference=None):
    """None when the round is correct, else the reason."""
    try:
        if reference is None:
            wl.check(out)
        else:
            checks.require(wl.fingerprint(out) == reference,
                           "a later round's outputs differ from the first round's")
    except checks.CheckFailed as exc:
        return str(exc)
    except Exception:  # a checker that trips over a malformed output rejects it
        return traceback.format_exc()
    return None


def run_timed(wl, seconds: float) -> dict:
    timer = Timer()
    first = reference = problem = None
    walls = []
    while True:
        start = time.perf_counter()
        out = wl.round(timer)
        walls.append(time.perf_counter() - start)
        if first is None:
            first = out
        else:
            if reference is None:
                reference = wl.fingerprint(first)
            problem = problem or check_round(wl, out, reference)
        del out
        n = len(timer.lat_ns)
        if sum(walls) >= seconds and n - tail_rank(wl.tail_pct, n) >= 10:
            break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problem = problem or check_round(wl, first)
    lat_ms = [t / 1e6 for t in timer.lat_ns]
    print(f"{wl.name}: {len(walls)} round(s), {n} operations in {sum(walls):.3f} s; "
          f"op_tail_ms is p{wl.tail_pct:g} of {n} samples")
    return {
        "problem": problem, "attempted": n, "failed": timer.failed,
        "metrics": {
            # a round's operations over the median round's wall time, so a
            # burst of machine noise in one round does not move the figure
            "ops_per_s": n / len(walls) / statistics.median(walls),
            "op_p50_ms": statistics.median(lat_ms),
            "op_tail_ms": tail(lat_ms, wl.tail_pct),
            "peak_rss_mb": peak_mb,
        },
    }


def run_traced(wl, label: str, seconds: float) -> dict:
    """Untraced and traced rounds in turn until --seconds have passed (one
    pair at least), then one profiled pass.  Per-layer metrics come from
    the first traced round; the tracing overhead compares the medians."""
    timer, traced_timer = Timer(), Timer()
    untraced, traced = [], []
    problem = reference = rec = None
    while True:
        start = time.perf_counter()
        out = wl.round(timer)
        untraced.append(time.perf_counter() - start)
        if reference is None:
            problem = check_round(wl, out)
            reference = wl.fingerprint(out) if problem is None else ()
        del out
        round_rec = tracing.Recorder()
        traced_timer.rec = round_rec
        with tracing.Installed(wl.ury, round_rec):
            start = time.perf_counter()
            out = wl.round(traced_timer)
            traced.append(time.perf_counter() - start)
        rec = rec or round_rec
        if problem is None:
            problem = check_round(wl, out, reference)
        del out
        if sum(untraced) + sum(traced) >= seconds:
            break

    profile_timer = Timer()
    calls, own, profiled = tracing.profile_fractions(lambda: wl.profile_round(profile_timer))
    layer_s = rec.layer_self_s()
    # the first pair pays the cold start of the process; leave it out
    # of the overhead when there are more
    skip = 1 if len(traced) > 1 else 0
    u, t = statistics.median(untraced[skip:]), statistics.median(traced[skip:])
    print(f"{wl.name} traced run: {len(traced)} untraced/traced round pair(s); median of "
          f"{len(traced) - skip}: "
          f"round {u:.3f} s untraced, {t:.3f} s traced (tracing overhead "
          f"{100 * (t / u - 1):+.1f}%, {len(rec.spans)} spans per round); layer self "
          f"time {layer_s:.3f} s of {traced[0]:.3f} s traced; profiled pass {profiled:.3f} s")
    if layer_s > traced[0]:
        problem = problem or "layer self times exceed the traced wall time"
    spans_path = OUT / f"spans-{label}.json"
    spans_path.write_text(json.dumps({
        "fields": ["name", "parent", "start_ns", "end_ns"], "spans": rec.spans}))
    values = rec.metrics()
    values["rat.fraction.calls"] = calls
    values["rat.fraction.self_s"] = own
    return {
        "problem": problem,
        "attempted": len(timer.lat_ns) + len(traced_timer.lat_ns) + len(profile_timer.lat_ns),
        "failed": timer.failed + traced_timer.failed + profile_timer.failed,
        "metrics": values,
    }


def run_all(args) -> int:
    """Each workload in its own process, in turn."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    for name, res in results.items():
        for metric, m in res["metrics"].items():
            print(f"{name:9s} {metric:44s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        import_urybench()
    except ImportError as exc:
        print(f"error: cannot import urybench from {SRC}: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    cls = WORKLOADS[args.workload]
    setup_s, wl = set_up(cls, args.seed)
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        res = run_traced(wl, label, args.seconds)
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    else:
        res = run_timed(wl, args.seconds)
        res["metrics"]["setup_s"] = setup_s
        units = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
                 "op_tail_ms": "ms", "peak_rss_mb": "MB"}
    if res["problem"]:
        print(f"CHECK FAILED ({args.workload}, seed {args.seed}): {res['problem']}",
              file=sys.stderr)
    result = {
        "correct": res["problem"] is None,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": res["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }
    line = json.dumps(result)
    (OUT / f"result-{label}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
