#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes (well under a minute).

    python3 perfbench/selftest.py

Checks that
- the untraced and the traced result of both workload kinds print every
  metric named in BENCHMARK.json with its unit, and fail_frac;
- failures have teeth: a CLI run whose predicted variances are doubled
  (variance_scale 2 on a copy of configs/two_color.json, which fails
  ks-normal at horizon 1000 and ensemble 1000) and an oracle run whose Jordan
  basis is perturbed both count as failed runs;
- a traced name that no longer exists becomes a zero-count layer, and the
  generator proxy forwards `out=`.
Exit code 0 when every check holds.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import sys

import run as bench
import tracer

TINY_CLI = ("--horizon", "1000", "--ensemble", "1000")
TINY_ORACLE = ("--n-enum", "6", "--n-tree", "5")


def check(condition: bool, message: str, failures: list[str]) -> None:
    print(f"{'ok  ' if condition else 'FAIL'} {message}")
    if not condition:
        failures.append(message)


def measured(workload: bench.Workload, trace: bool) -> tuple[dict, dict, str]:
    """One run of each kind (seconds=0), with the printed report."""
    record = bench.measure(workload, seed=1, seconds=0, trace=trace)
    result = bench.result_line(record)
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        bench.report(record, result)
        print(json.dumps(result))
    return record, result, text.getvalue()


def check_metrics(workload, failures) -> None:
    spec = bench.benchmark_spec()
    for trace, wanted in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
        record, result, text = measured(workload, trace)
        label = f"{workload.name} trace {int(trace)}"
        check(result["correct"] and result["failed"] == 0,
              f"{label}: every run passes ({record['attempted']} runs)", failures)
        check(list(result["metrics"]) == [m["name"] for m in wanted],
              f"{label}: JSON carries exactly the BENCHMARK.json metrics", failures)
        lines = text.splitlines()
        for m in wanted:
            entry = result["metrics"].get(m["name"], {})
            printed = any(line.split()[:1] == [m["name"]] and line.endswith(" " + m["unit"])
                          for line in lines)
            check(entry.get("unit") == m["unit"] and printed
                  and isinstance(entry.get("value"), (int, float))
                  and math.isfinite(entry["value"]),
                  f"{label}: {m['name']} printed in {m['unit']}", failures)
        check(any(line.split()[:1] == ["fail_frac"] for line in lines),
              f"{label}: fail_frac printed", failures)


def check_teeth(tmp, failures) -> None:
    cfg = json.loads((bench.ROOT / "configs" / "two_color.json").read_text())
    scaled = tmp / "two_color_variance_scale_2.json"
    scaled.write_text(json.dumps(dict(cfg, variance_scale=2.0)))
    cases = (
        bench.Workload("scaled_k2", "cli", ("all", "--config", str(scaled), *TINY_CLI)),
        bench.Workload("perturbed_basis", "oracle", (*TINY_ORACLE, "--basis-scale", "1.01")),
    )
    for workload in cases:
        record = bench.measure(workload, seed=1, seconds=0, trace=False)
        workload_runs = [r for r in record["runs"] if r["role"] in ("plain", "traced")]
        check(workload_runs and all(r["problems"] for r in workload_runs)
              and not bench.result_line(record)["correct"],
              f"{workload.name}: counted as failed "
              f"({record['failed']}/{record['attempted']} runs failed)", failures)


def check_tracer(failures) -> None:
    sys.path.insert(0, str(bench.ROOT / "src"))
    import numpy as np

    t = tracer.Tracer()
    tracer.install(t, (("urnlab.cli", "no_such_function", "gone.layer"),
                       ("urnlab.no_such_module", "f", "gone.module")))
    layers = t.summary()["layers"]
    check(all(layers.get(n, {}).get("calls") == 0 for n in ("gone.layer", "gone.module")),
          "missing names become zero-count layers", failures)
    out = np.empty(4)
    proxy = tracer.TimedGenerator(np.random.default_rng(3), t)
    returned = proxy.random(4, out=out)
    check(returned is out and np.array_equal(out, np.random.default_rng(3).random(4)),
          "generator proxy forwards out=", failures)


def main() -> int:
    if not (bench.ROOT / "src" / "urnlab" / "cli.py").is_file():
        print("selftest: no urnlab sources in this checkout", file=sys.stderr)
        return 2
    tmp = bench.WORK / "selftest"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    failures: list[str] = []
    try:
        check_metrics(bench.Workload(
            "tiny_k2", "cli", ("all", "--config", "configs/two_color.json", *TINY_CLI)), failures)
        check_metrics(bench.Workload("tiny_oracle", "oracle", TINY_ORACLE), failures)
        check_teeth(tmp, failures)
        # Last: importing numpy here raises this process's peak RSS above
        # the children's, which would void their RSS readings.
        check_tracer(failures)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
