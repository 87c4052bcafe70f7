"""Per-layer spans and counters for the traced run.

The traced run replaces each public function named in TARGETS, on every
urybench module attribute that holds it, by a wrapper that records a span
(name, parent, start, end) in memory and bumps the target's counters.
Internal calls go through module attributes too, so nested calls are
timed without editing the program.  Untraced runs install nothing.

A span's self time is its duration minus the durations of its direct
children; spans nest strictly because the benchmark is single-threaded.
Fraction counts come from a separate cProfile pass (profile_fractions).
"""

from __future__ import annotations

import cProfile
import pstats
import time

MODULES = ("cli", "metric", "logic", "space", "grey", "homog")


def _feasible(counts, args, out):
    counts["metric.feasible.points"] += len(args[0].points)


def _qu_extend(counts, args, out):
    counts["metric.qu_extend.items"] += args[1]
    counts["metric.qu_extend.appended"] += out.space.n - args[0].space.n


def _extend_iso(counts, args, out):
    prefix, gamma, sources = args
    new = {c for c in sources if not gamma.defined_on(c)}
    counts["metric.extend_partial_isometry.reused"] += \
        len(new) - (out[0].space.n - prefix.space.n)


def _cone_subset(counts, args, out):
    c1, c2 = args[0], args[1]
    counts["space.cone_subset.slots"] += len(
        {(c.rel, c.tup) for c in c1.constraints + c2.constraints})


def _lipschitz(counts, args, out):
    counts["logic.lipschitz_extend.tuples"] += sum(len(t) for t in out.tables.values())


def _approx_homog(counts, args, out):
    counts["homog.approx_homog_test.pairs"] += out.total


# (span name, module defining the function, attribute, counter hook)
TARGETS = (
    ("cli.main", "cli", "main", None),
    ("metric.feasible", "metric", "feasible", _feasible),
    ("metric.qu_extend", "metric", "qu_extend", _qu_extend),
    ("metric.extend_partial_isometry", "metric", "extend_partial_isometry", _extend_iso),
    ("space.cone_subset", "space", "cone_subset", _cone_subset),
    ("grey.gcone_counterexample", "grey", "gcone_counterexample", None),
    ("grey.kappa", "grey", "kappa", None),
    ("grey.sat", "grey", "sat", None),
    ("logic.eval_formula", "logic", "eval_formula", None),
    ("logic.eval_interval", "logic", "eval_interval", None),
    ("logic.lipschitz_extend", "logic", "lipschitz_extend", _lipschitz),
    ("homog.approx_homog_test", "homog", "approx_homog_test", _approx_homog),
    ("homog.back_and_forth", "homog", "back_and_forth", None),
)

# name, unit, better: the traced run prints exactly these
PER_LAYER = (
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("rat.fraction.calls", "count", "lower"),
    ("rat.fraction.self_s", "s", "lower"),
    ("metric.feasible.calls", "count", "lower"),
    ("metric.feasible.self_s", "s", "lower"),
    ("metric.feasible.points", "count", "lower"),
    ("metric.qu_extend.calls", "count", "lower"),
    ("metric.qu_extend.self_s", "s", "lower"),
    ("metric.qu_extend.items", "count", "lower"),
    ("metric.qu_extend.appended", "count", "lower"),
    ("metric.extend_partial_isometry.calls", "count", "lower"),
    ("metric.extend_partial_isometry.self_s", "s", "lower"),
    ("metric.extend_partial_isometry.reused", "count", "higher"),
    ("metric.text.write_s", "s", "lower"),
    ("metric.text.read_s", "s", "lower"),
    ("metric.text.bytes", "bytes", "lower"),
    ("space.cone_subset.calls", "count", "lower"),
    ("space.cone_subset.self_s", "s", "lower"),
    ("space.cone_subset.slots", "count", "lower"),
    ("grey.gcone_counterexample.calls", "count", "lower"),
    ("grey.gcone_counterexample.self_s", "s", "lower"),
    ("grey.gcone_counterexample.feasible_calls", "count", "lower"),
    ("grey.kappa.self_s", "s", "lower"),
    ("grey.sat.self_s", "s", "lower"),
    ("grey.OraclePoint.fill_rebuilds", "count", "lower"),
    ("logic.eval_formula.calls", "count", "lower"),
    ("logic.eval_formula.self_s", "s", "lower"),
    ("logic.eval_interval.calls", "count", "lower"),
    ("logic.eval_interval.self_s", "s", "lower"),
    ("logic.lipschitz_extend.calls", "count", "lower"),
    ("logic.lipschitz_extend.self_s", "s", "lower"),
    ("logic.lipschitz_extend.tuples", "count", "lower"),
    ("homog.approx_homog_test.calls", "count", "lower"),
    ("homog.approx_homog_test.self_s", "s", "lower"),
    ("homog.approx_homog_test.pairs", "count", "lower"),
    ("homog.back_and_forth.calls", "count", "lower"),
    ("homog.back_and_forth.self_s", "s", "lower"),
)


class Recorder:
    """Spans as [name, parent index, start ns, end ns], kept in memory."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.counts: dict = {name: 0 for name, unit, _ in PER_LAYER if unit != "s"}

    def call(self, name, fn, args, kwargs=None, hook=None):
        rec = [name, self.stack[-1] if self.stack else -1, time.perf_counter_ns(), 0]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            out = fn(*args, **(kwargs or {}))
        finally:
            rec[3] = time.perf_counter_ns()
            self.stack.pop()
        if hook is not None:
            hook(self.counts, args, out)
        return out

    def self_times(self) -> list:
        own = [end - start for _, _, start, end in self.spans]
        for _, parent, start, end in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def metrics(self) -> dict:
        own = self.self_times()
        calls: dict = {}
        self_ns: dict = {}
        for (name, _, _, _), t in zip(self.spans, own):
            calls[name] = calls.get(name, 0) + 1
            self_ns[name] = self_ns.get(name, 0) + t
        values = dict(self.counts)
        for name, unit, _ in PER_LAYER:
            layer, _, stat = name.rpartition(".")
            if stat == "calls" and layer != "rat.fraction":
                values[name] = calls.get(layer, 0)
            elif stat == "self_s" and layer != "rat.fraction":
                values[name] = self_ns.get(layer, 0) / 1e9
        values["metric.text.write_s"] = self_ns.get("metric.text.write", 0) / 1e9
        values["metric.text.read_s"] = self_ns.get("metric.text.read", 0) / 1e9
        gcone = calls.get("grey.gcone_counterexample", 0)
        values["grey.gcone_counterexample.feasible_calls"] = \
            self._nested_count("metric.feasible", "grey.gcone_counterexample") / gcone \
            if gcone else 0
        return values

    def _nested_count(self, inner: str, outer: str) -> int:
        count = 0
        for name, parent, _, _ in self.spans:
            if name != inner:
                continue
            while parent >= 0 and self.spans[parent][0] != outer:
                parent = self.spans[parent][1]
            count += parent >= 0
        return count

    def layer_self_s(self) -> float:
        """Self time of every layer span, without the benchmark's own
        per-operation root spans."""
        return sum(t for (name, _, _, _), t in zip(self.spans, self.self_times())
                   if name != "op") / 1e9


class Installed:
    """Context manager: wrap every target on every module attribute that
    holds it, plus QUPrefix text I/O on the class; restore on exit."""

    def __init__(self, ury, rec: Recorder):
        self.ury, self.rec = ury, rec
        self.saved: list = []

    def _wrap(self, name, fn, hook, extra=None):
        rec = self.rec

        def wrapper(*args, **kwargs):
            if extra:
                rec.counts[extra] += 1
            return rec.call(name, fn, args, kwargs, hook)
        return wrapper

    def __enter__(self):
        mods = {m: getattr(self.ury, m) for m in MODULES}
        for name, home, attr, hook in TARGETS:
            fn = getattr(mods[home], attr)
            for mname, mod in mods.items():
                for key, obj in list(vars(mod).items()):
                    if obj is fn:
                        # OraclePoint reaches the fill only through grey's name
                        extra = ("grey.OraclePoint.fill_rebuilds"
                                 if (mname, key) == ("grey", "lipschitz_extend") else None)
                        self.saved.append((mod, key, obj))
                        setattr(mod, key, self._wrap(name, fn, hook, extra))
        cls = self.ury.metric.QUPrefix
        to_text, from_text = cls.__dict__["to_text"], cls.__dict__["from_text"]
        self.saved += [(cls, "to_text", to_text), (cls, "from_text", from_text)]
        rec = self.rec

        def write(prefix):
            text = rec.call("metric.text.write", to_text, (prefix,))
            rec.counts["metric.text.bytes"] += len(text)
            return text

        def read(klass, text):
            rec.counts["metric.text.bytes"] += len(text)
            return rec.call("metric.text.read", from_text.__func__, (klass, text))

        cls.to_text = write
        cls.from_text = classmethod(read)
        return self

    def __exit__(self, *exc):
        for owner, key, obj in reversed(self.saved):
            setattr(owner, key, obj)
        self.saved.clear()
        return False


def profile_fractions(run) -> tuple:
    """Run `run()` under cProfile; return (calls, total own seconds) of
    every function defined in the stdlib fractions module, and the wall
    time of the profiled run."""
    prof = cProfile.Profile()
    start = time.perf_counter()
    prof.enable()
    try:
        run()
    finally:
        prof.disable()
    wall = time.perf_counter() - start
    calls, own = 0, 0.0
    for (path, _, _), (_, ncalls, tottime, _, _) in pstats.Stats(prof).stats.items():
        if path.endswith("fractions.py"):
            calls += ncalls
            own += tottime
    return calls, own, wall
