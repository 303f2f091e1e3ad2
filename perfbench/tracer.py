"""Run one urnlab workload with per-module spans, recorded from outside.

    python3 perfbench/tracer.py TRACE_JSON cli ARGS...     # urnlab.cli.main(ARGS)
    python3 perfbench/tracer.py TRACE_JSON oracle ARGS...  # oracle_caps.main(ARGS)

Before the target runs, each public function a module calls is replaced by a
timing wrapper under the name the caller imported it as (for example
`urnlab.verify.simulate_many`), so every call between modules opens a span.
A name that no longer exists is reported as a missing layer with zero
calls, not an error.  Spans are kept in memory and summarised into
TRACE_JSON when the target returns.  The exit code is the target's.

Generators returned by `urnlab.core.trajectory_rng` are wrapped in a proxy
that times `random` and forwards every argument.  Construction and `random`
calls are aggregated per name instead of kept one by one, because a run
makes tens of thousands of them.
"""
from __future__ import annotations

import importlib
import inspect
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

# (module, attribute, span): every cross-module call path the workloads take.
LAYERS = (
    ("urnlab.cli", "new_spec", "core.new_spec"),
    ("urnlab.core", "new_spec", "core.new_spec"),
    ("urnlab.cli", "classify", "spectral.classify"),
    ("urnlab.spectral", "classify", "spectral.classify"),
    ("urnlab.cli", "predict", "laws.predict"),
    ("urnlab.verify", "predict", "laws.predict"),
    ("urnlab.oracle", "predict", "laws.predict"),
    ("urnlab.laws", "predict", "laws.predict"),
    ("urnlab.cli", "exact_mean_linear", "oracle.mean_linear"),
    ("urnlab.oracle", "exact_mean_linear", "oracle.mean_linear"),
    ("urnlab.cli", "exact_conditional_variance_check", "oracle.conditional_variance"),
    ("urnlab.oracle", "exact_conditional_variance_check", "oracle.conditional_variance"),
    ("urnlab.cli", "compensated_martingale_check", "oracle.compensated"),
    ("urnlab.oracle", "compensated_martingale_check", "oracle.compensated"),
    ("urnlab.oracle", "exact_distribution", "oracle.exact_distribution"),
    ("urnlab.cli", "run_ensemble", "verify.run_ensemble"),
    ("urnlab.cli", "evaluate_report", "verify.evaluate"),
    ("urnlab.verify", "simulate_many", "core.simulate_many"),
    ("urnlab.core", "trajectory_rng", "core.rng"),
)
# oracle.atoms counts the atoms returned by enumerations at this depth.
ATOMS_AT_N = 12


class Tracer:
    """Nested spans in one thread; self time is duration minus child spans."""

    def __init__(self):
        self.spans = []  # [name, parent index, start, end]
        self.child_s = []  # time covered by children, per span
        self.stack = []
        self.leaves = {}  # name -> [calls, seconds]; spans not kept one by one
        self.counters = {
            "draws": 0,
            "uniform_block_bytes": 0,
            "simulate_rss_kb": 0,
            "atoms_n12": 0,
        }
        self.missing = []
        self.refill_bytes = []  # bytes returned per refill, current simulate_many

    def call(self, name, fn, args, kwargs):
        parent = self.stack[-1] if self.stack else -1
        index = len(self.spans)
        span = [name, parent, perf_counter(), 0.0]
        self.spans.append(span)
        self.child_s.append(0.0)
        self.stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span[3] = perf_counter()
            self.stack.pop()
            if parent >= 0:
                self.child_s[parent] += span[3] - span[2]

    def leaf(self, name, fn, args, kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            seconds = perf_counter() - start
            agg = self.leaves.setdefault(name, [0, 0.0])
            agg[0] += 1
            agg[1] += seconds
            if self.stack:
                self.child_s[self.stack[-1]] += seconds

    def summary(self) -> dict:
        layers = {}
        for (name, _, start, end), child in zip(self.spans, self.child_s):
            agg = layers.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - child
        for name, (calls, seconds) in self.leaves.items():
            layers[name] = {"calls": calls, "total_s": seconds, "self_s": seconds}
        for name in self.missing:
            layers.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        return {
            "layers": layers,
            "counters": self.counters,
            "missing": sorted(set(self.missing)),
            "spans": [
                [name, parent, round(start - self.spans[0][2], 9), round(end - start, 9)]
                for name, parent, start, end in self.spans
            ],
        }


class TimedGenerator:
    """Forwards to a numpy Generator; times `random` and notes block sizes."""

    def __init__(self, gen, tracer: Tracer):
        self._gen = gen
        self._tracer = tracer
        self._refills = 0

    def random(self, *args, **kwargs):
        out = self._tracer.leaf("core.rng", self._gen.random, args, kwargs)
        refills = self._tracer.refill_bytes
        while len(refills) <= self._refills:
            refills.append(0)
        refills[self._refills] += getattr(out, "nbytes", 8)
        self._refills += 1
        return out

    def __getattr__(self, name):
        return getattr(self._gen, name)


def _argument(fn, args, kwargs, name):
    try:
        return inspect.signature(fn).bind(*args, **kwargs).arguments.get(name)
    except (TypeError, ValueError):
        return None


def _wrapper(tracer: Tracer, span: str, fn):
    if span == "core.rng":
        def traced(*args, **kwargs):
            gen = tracer.leaf(span, fn, args, kwargs)
            return TimedGenerator(gen, tracer)
    elif span == "core.simulate_many":
        def traced(*args, **kwargs):
            tracer.refill_bytes = []
            result = tracer.call(span, fn, args, kwargs)
            c = tracer.counters
            c["simulate_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            c["uniform_block_bytes"] = max([c["uniform_block_bytes"], *tracer.refill_bytes])
            horizon = _argument(fn, args, kwargs, "horizon")
            streams = _argument(fn, args, kwargs, "streams")
            if horizon is not None and streams is not None:
                count = streams if isinstance(streams, int) else len(streams)
                c["draws"] += int(horizon) * int(count)
            return result
    elif span == "oracle.exact_distribution":
        def traced(*args, **kwargs):
            atoms = tracer.call(span, fn, args, kwargs)
            if _argument(fn, args, kwargs, "n") == ATOMS_AT_N:
                tracer.counters["atoms_n12"] += len(atoms)
            return atoms
    else:
        def traced(*args, **kwargs):
            return tracer.call(span, fn, args, kwargs)
    traced.__wrapped__ = fn
    return traced


def install(tracer: Tracer, layers=LAYERS) -> None:
    """Replace each (module, attribute) by a traced wrapper, in place."""
    for module_name, attr, span in layers:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        fn = getattr(module, attr, None)
        if fn is None:
            print(
                f"perfbench: warning: {module_name}.{attr} not found; "
                f"layer {span} reports zero calls",
                file=sys.stderr,
            )
            tracer.missing.append(span)
            continue
        setattr(module, attr, _wrapper(tracer, span, fn))


def _target(kind: str):
    if kind == "cli":
        from urnlab.cli import main

        return "cli.main", main
    if kind == "oracle":
        from oracle_caps import main

        return "oracle_caps.main", main
    raise SystemExit(f"unknown target {kind!r}; expected cli or oracle")


def main(argv) -> int:
    if len(argv) < 2:
        raise SystemExit(__doc__)
    out, kind, rest = Path(argv[0]), argv[1], argv[2:]
    span, entry = _target(kind)
    tracer = Tracer()
    install(tracer)
    try:
        code = tracer.call(span, entry, (rest,), {})
    finally:
        out.write_text(json.dumps(tracer.summary()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
