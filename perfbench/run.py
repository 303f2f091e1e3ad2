#!/usr/bin/env python3
"""urnlab benchmark: end-to-end metrics per workload, per-module metrics traced.

    python3 perfbench/run.py --workload deep_k4 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --seed 1        # every workload, untraced and traced

Run from anywhere inside a source checkout; the package is imported from
src/ and nothing is installed.  Each workload run is a fresh child process
with one BLAS/OpenMP thread, started only after the previous one ended: a
closed loop with one client.  Runs repeat until --seconds is used up and the
medians are reported.  Before the first run and after each one, a fresh
process runs perfbench/reference.py, a fixed computation whose wall time
tracks how fast the shared host is at that moment; run time is reported as
wall time over the mean of the two reference times around the run
(`wall_ref`).

--trace 0 reports the `end_to_end` metrics of BENCHMARK.json from untraced
runs; set-up time is the median of several fresh processes that stop before
the first unit of work.  --trace 1 alternates untraced runs with runs under
perfbench/tracer.py and reports the `per_layer` metrics.

Every run is checked: exit code 0, an OVERALL PASS line, oracle residuals
within tolerance with the negative control failing, and one sha256 digest of
the artifacts shared by every run of the seed, traced or not, and a child
peak RSS above this process's own (below it the reading is void).  A run that
fails any check counts in `failed`.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  Full records
go to .perfbench-work/results/.  Exit code 0 when every run passed, 1 when
one failed, 2 when the checkout holds no urnlab sources.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import oracle_caps

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench-work"
# An invocation must end within 180 s; stop starting children well before.
DEADLINE_S = 165.0
# Share of an untraced window spent on timing fresh set-up processes.
SETUP_SHARE = 0.1
# Wall time of one perfbench/reference.py process on an unloaded 2.1 GHz
# Xeon vCPU.  setup_s is set-up time in reference units scaled by this, so
# that it reads in seconds yet moves no more than wall_ref with the host.
REFERENCE_S = 0.6


@dataclass(frozen=True)
class Workload:
    """One urnlab command line (kind "cli") or the oracle script ("oracle")."""

    name: str
    kind: str
    args: tuple[str, ...]

    def argv(self, seed: int, out: Path, trace_file: Path | None = None) -> list[str]:
        args = [*self.args, "--seed", str(seed), "--out", str(out)]
        if trace_file is not None:
            return [sys.executable, str(BENCH / "tracer.py"), str(trace_file), self.kind, *args]
        target = ["-m", "urnlab.cli"] if self.kind == "cli" else [str(BENCH / "oracle_caps.py")]
        return [sys.executable, *target, *args]

    def setup_argv(self, seed: int) -> list[str]:
        """Everything before the first unit of work, in a fresh process."""
        if self.kind == "cli":
            return [sys.executable, "-m", "urnlab.cli", "predict", *self.args[1:],
                    "--seed", str(seed)]
        return [sys.executable, str(BENCH / "oracle_caps.py"), "--setup-only"]

    @property
    def setup_marker(self) -> str:
        return "predicted limit laws:" if self.kind == "cli" else "setup ok"

    def sizes(self) -> dict:
        if self.kind == "oracle":
            opts = dict(zip(self.args[::2], self.args[1::2]))
            return {"configs": list(oracle_caps.CONFIGS),
                    "jordan_matrix": oracle_caps.JORDAN_MATRIX,
                    "n_enum": int(opts.get("--n-enum", 12)),
                    "n_tree": int(opts.get("--n-tree", 9)),
                    "control_n": oracle_caps.CONTROL_STEPS}
        opts = dict(zip(self.args[1::2], self.args[2::2]))
        cfg = json.loads((ROOT / opts["--config"]).read_text())
        horizon = int(opts.get("--horizon", cfg.get("horizon", 100_000)))
        ensemble = int(opts.get("--ensemble", cfg.get("ensemble", 10_000)))
        return {"command": self.args[0], "config": opts["--config"],
                "horizon": horizon, "ensemble": ensemble,
                "draws": horizon * ensemble, "colors": len(cfg["replacement_matrix"])}


WORKLOADS = {
    w.name: w
    for w in (
        Workload("deep_k4", "cli", ("all", "--config", "configs/four_color_jordan.json")),
        # At horizon 1000 x ensemble 20000 the fluct KS verdict sits on its
        # threshold (finite-horizon bias) and fails on some seeds.
        Workload("wide_k2", "cli", ("all", "--config", "configs/two_color.json",
                                    "--horizon", "2000", "--ensemble", "10000")),
        # Literal depths: the enumeration caps are constants of urnlab.oracle
        # that later changes may rename or remove.  The tree walk runs one
        # step below its cap of 10: at 10 a run takes 4-7 s, too few fit in
        # a window to outvote a shared host's drift.
        Workload("oracle_caps", "oracle", ("--n-enum", "12", "--n-tree", "9")),
    )
}


@dataclass
class Run:
    role: str  # "warmup", "setup", "plain" or "traced"
    wall_s: float
    rss_mb: float
    code: int
    digest: str | None = None
    bytes_written: int = 0
    trace: dict | None = None
    problems: list[str] = field(default_factory=list)
    # Reference timings in seconds, taken just before and just after the run.
    ref_before: float = 0.0
    ref_after: float = 0.0

    @property
    def wall_ref(self) -> float:
        """Wall time in units of the reference computation around the run."""
        return self.wall_s / ((self.ref_before + self.ref_after) / 2)


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(argv: list[str], log: Path, deadline: float) -> tuple[float, float, int, str]:
    """Run argv to completion; (wall s, the child's peak RSS in MB, code, output).

    The child's ru_maxrss starts from this process's peak, which the kernel
    carries across fork and exec, so it is a true reading only when larger.
    """
    with log.open("wb") as fh:
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=fh,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(max(deadline - start, 1.0), os.kill,
                                (proc.pid, signal.SIGKILL))
        timer.start()
        status = None
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            if status is None:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
        wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss * 1024 / 1e6, proc.returncode, log.read_text(errors="replace")


def artifact_digest(out: Path) -> tuple[str, int]:
    """sha256 over (relative name, bytes) of every file, in sorted order."""
    h = hashlib.sha256()
    total = 0
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        size = path.stat().st_size
        total += size
        h.update(path.relative_to(out).as_posix().encode() + b"\0")
        h.update(size.to_bytes(8, "little"))
        with path.open("rb") as fh:
            # In chunks: this process must stay smaller than any child, see spawn().
            while chunk := fh.read(1 << 20):
                h.update(chunk)
    return h.hexdigest(), total


def layer_metrics(trace: dict, wall_s: float, bytes_written: int) -> dict:
    """Per-layer metrics of one traced run (times inclusive unless named self)."""
    layers, counters = trace["layers"], trace["counters"]

    def get(name, key):
        return layers.get(name, {}).get(key, 0.0)

    kernel_s = get("core.simulate_many", "self_s")
    cli_self = get("cli.main", "self_s")
    written = bytes_written if get("cli.main", "calls") else 0
    return {
        "core.simulate_many_s": get("core.simulate_many", "total_s"),
        "core.kernel_s": kernel_s,
        "core.kernel_draws_per_s": counters.get("draws", 0) / kernel_s if kernel_s else 0.0,
        "core.rng_s": get("core.rng", "total_s"),
        "core.rng_calls": get("core.rng", "calls"),
        "core.uniform_block_mb": counters.get("uniform_block_bytes", 0) / 1e6,
        "core.rss_mb": counters.get("simulate_rss_kb", 0) * 1024 / 1e6,
        "cli.self_s": cli_self,
        "cli.bytes_written": written,
        "cli.write_mb_per_s": written / 1e6 / cli_self if cli_self else 0.0,
        "verify.run_ensemble_self_s": get("verify.run_ensemble", "self_s"),
        "verify.evaluate_s": get("verify.evaluate", "total_s"),
        "spectral.classify_s": get("spectral.classify", "total_s"),
        "spectral.classify_calls": get("spectral.classify", "calls"),
        "laws.predict_s": get("laws.predict", "total_s"),
        "laws.predict_calls": get("laws.predict", "calls"),
        "oracle.exact_distribution_s": get("oracle.exact_distribution", "total_s"),
        "oracle.conditional_variance_s": get("oracle.conditional_variance", "total_s"),
        "oracle.mean_linear_s": get("oracle.mean_linear", "total_s"),
        "oracle.compensated_s": get("oracle.compensated", "total_s"),
        "oracle.atoms": counters.get("atoms_n12", 0),
        "trace.coverage": sum(v["self_s"] for v in layers.values()) / wall_s,
    }


class Session:
    """All child runs of one benchmark invocation, with their checks."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.dir = WORK / f"{workload.name}-{os.getpid()}"
        self.deadline = perf_counter() + DEADLINE_S
        self.runs: list[Run] = []
        # The latest reference time, while no other child has run since.
        self.fresh_ref: float | None = None
        self.last_ref = 0.0

    def __enter__(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.dir, ignore_errors=True)

    def reference(self) -> float:
        """Wall time of one perfbench/reference.py process."""
        if self.fresh_ref is None:
            argv = [sys.executable, str(BENCH / "reference.py")]
            wall, _, code, output = spawn(argv, self.dir / "reference.log", self.deadline)
            if code != 0 or "reference ok" not in output:
                raise RuntimeError(f"reference run failed with code {code}: {output[-300:]}")
            self.fresh_ref = self.last_ref = wall
        return self.fresh_ref

    def setup(self, role: str = "setup") -> Run:
        log = self.dir / f"setup-{len(self.runs)}.log"
        self.fresh_ref = None
        wall, rss, code, output = spawn(self.workload.setup_argv(self.seed), log, self.deadline)
        # Set-up runs follow a workload run, so the latest reference is close by.
        run = Run(role, wall, rss, code, ref_before=self.last_ref, ref_after=self.last_ref)
        if code != 0:
            run.problems.append(f"exit code {code}")
        elif self.workload.setup_marker not in output:
            run.problems.append(f"no {self.workload.setup_marker!r} in output")
        self.runs.append(run)
        return run

    def run(self, traced: bool) -> Run:
        index = len(self.runs)
        out = self.dir / f"out-{index}"
        trace_file = self.dir / f"trace-{index}.json" if traced else None
        argv = self.workload.argv(self.seed, out, trace_file)
        ref_before = self.reference()
        self.fresh_ref = None
        wall, rss, code, output = spawn(argv, self.dir / f"run-{index}.log", self.deadline)
        run = Run("traced" if traced else "plain", wall, rss, code,
                  ref_before=ref_before, ref_after=self.reference())
        if code != 0:
            run.problems.append(f"exit code {code}")
        if rss <= resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6:
            run.problems.append("peak RSS not above the benchmark's own; not measured")
        if "OVERALL PASS" not in output.splitlines():
            run.problems.append("no OVERALL PASS line")
        if out.is_dir():
            run.digest, run.bytes_written = artifact_digest(out)
            if self.workload.kind == "oracle":
                oracle_json = out / "oracle.json"
                if oracle_json.is_file():
                    run.problems += oracle_caps.failures(json.loads(oracle_json.read_text()))
                else:
                    run.problems.append("no oracle.json")
            shutil.rmtree(out)
        else:
            run.problems.append("no artifacts")
        if traced:
            if trace_file.is_file():
                run.trace = json.loads(trace_file.read_text())
            else:
                run.problems.append("no trace written")
        self.runs.append(run)
        return run

    def seconds(self, role: str) -> float:
        return sum(r.wall_s for r in self.runs if r.role == role)

    def time_left(self) -> float:
        return self.deadline - perf_counter()

    def check_digests(self) -> str | None:
        """Flag every run whose digest differs from the untraced majority."""
        plain = [r.digest for r in self.runs if r.role == "plain" and r.digest]
        if not plain:
            return None
        reference = max(plain, key=plain.count)
        for run in self.runs:
            if run.digest and run.digest != reference:
                run.problems.append(f"{run.role} artifact digest {run.digest[:12]} "
                                    f"differs from {reference[:12]}")
        return reference


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload for about `seconds`; return a full record."""
    with Session(workload, seed) as session:
        session.setup(role="warmup")  # byte-compiles the sources, fills the file cache
        start = perf_counter()
        while True:
            step_start = perf_counter()
            session.run(traced=False)
            if trace:
                session.run(traced=True)
            step = perf_counter() - step_start
            if not trace:
                # Set-up runs are spread over the window, so that a slow
                # minute on a shared machine does not land on all of them.
                while session.seconds("setup") <= SETUP_SHARE * (perf_counter() - start):
                    session.setup()
            # Start another run when it should end within half a run of the
            # window, so that the mean window matches --seconds.
            elapsed = perf_counter() - start
            if elapsed + step / 2 > seconds or session.time_left() < 2 * step:
                break
        digest = session.check_digests()
        runs = session.runs

    def median(role, attr):
        values = [getattr(r, attr) for r in runs if r.role == role]
        return statistics.median(values) if values else 0.0

    if trace:
        # A run that wrote no trace has failed already; it reports zeros.
        per_run = [layer_metrics(r.trace or {"layers": {}, "counters": {}}, r.wall_s,
                                 r.bytes_written)
                   for r in runs if r.role == "traced"]
        metrics = {k: statistics.median(m[k] for m in per_run) for k in per_run[0]}
        metrics["trace.overhead_frac"] = (median("traced", "wall_ref")
                                          / median("plain", "wall_ref") - 1)
    else:
        metrics = {
            "wall_ref": median("plain", "wall_ref"),
            "setup_s": median("setup", "wall_ref") * REFERENCE_S,
            "peak_rss_mb": median("plain", "rss_mb"),
        }
    failed = sum(1 for r in runs if r.problems)
    missing = sorted({m for r in runs if r.trace for m in r.trace["missing"]})
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "env": {
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
        },
        "sizes": workload.sizes(),
        "why": workload_whys().get(workload.name, ""),
        "digest": digest,
        "attempted": len(runs),
        "failed": failed,
        "fail_frac": failed / len(runs),
        "wall_s": median("plain", "wall_s"),
        "setup_wall_s": median("setup", "wall_s"),
        "reference_s": statistics.median(r.ref_before for r in runs if r.ref_before),
        "missing_layers": missing,
        "metrics": metrics,
        "runs": [
            {"role": r.role, "wall_s": r.wall_s, "rss_mb": r.rss_mb, "code": r.code,
             "digest": r.digest, "problems": r.problems,
             "ref_before": r.ref_before, "ref_after": r.ref_after}
            for r in runs
        ],
        "first_trace": next((r.trace for r in runs if r.trace), None),
    }


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def workload_whys() -> dict:
    return {w["name"]: w["why"] for w in benchmark_spec()["workloads"]}


def result_line(record: dict) -> dict:
    """The result line: every metric of the traced or untraced list, with units."""
    spec = benchmark_spec()
    wanted = spec["per_layer"] if record["trace"] else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in record["metrics"]:
            raise KeyError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": record["metrics"][m["name"]], "unit": m["unit"]}
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def report(record: dict, result: dict) -> None:
    """Human-readable block: environment, digest, fail_frac and every metric."""
    name, seed = record["workload"], record["seed"]
    print(f"== {name}  seed {seed}  trace {record['trace']}  "
          f"runs {record['attempted']}  failed {record['failed']}")
    print(f"   why: {record['why']}")
    print(f"   env: {json.dumps(record['env'], sort_keys=True)}")
    print(f"   sizes: {json.dumps(record['sizes'], sort_keys=True)}")
    print(f"   digest {name} seed {seed}: sha256 {record['digest']}")
    for layer in record["missing_layers"]:
        print(f"   warning: layer {layer} not found; reported as zero")
    for run in record["runs"]:
        for problem in run["problems"]:
            print(f"   FAILED {run['role']} run: {problem}")
    # Not in the JSON, which may not carry a metric that is 0 when all is
    # well; the result line carries it as failed/attempted.
    print(f"   {'fail_frac':32s} {record['fail_frac']:.6g} frac")
    if not record["trace"]:
        # Raw times: they move with the load on the host, wall_ref much less.
        print(f"   {'wall_s':32s} {record['wall_s']:.6g} s")
        print(f"   {'setup_wall_s':32s} {record['setup_wall_s']:.6g} s")
        print(f"   {'reference_s':32s} {record['reference_s']:.6g} s")
    for metric, entry in result["metrics"].items():
        print(f"   {metric:32s} {entry['value']:.6g} {entry['unit']}")


def save(record: dict) -> None:
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    if not (ROOT / "src" / "urnlab" / "cli.py").is_file():
        print(f"perfbench: no urnlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # SIGTERM unwinds like an exception, so the running child is stopped too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # One CPU for this process, the reference runs and every child: the
    # vCPUs of a shared host slow down independently, so the reference must
    # be timed on the CPU the workload runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    spec = benchmark_spec()
    parser = argparse.ArgumentParser(description="urnlab benchmark")
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    traces = [bool(args.trace)] if args.trace is not None else [False, True]
    results = {}
    for name in names:
        for trace in traces:
            record = measure(WORKLOADS[name], args.seed, args.seconds, trace)
            save(record)
            result = result_line(record)
            report(record, result)
            results[f"{name}/trace{int(trace)}"] = result
    if len(results) == 1:
        (result,) = results.values()
        print(json.dumps(result))
    else:
        print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
