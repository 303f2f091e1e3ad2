"""Command line front end.

Subcommands take a JSON config describing the urn and run the pipeline at
the requested depth:

    classify      structure class only
    predict       structure class plus the predicted limit laws
    oracle-check  exact small-n identity checks against the predictions
    simulate      ensemble run with sample artifacts, no verdicts
    verify        ensemble run plus pass/fail verdicts
    all           oracle-check followed by verify

Exit codes: 0 success, 1 a verification or oracle check failed,
2 the replacement structure is outside the supported families,
3 bad config or usage.

Config schema (JSON object; unknown keys are rejected):

    replacement_matrix    required, K x K rows
    initial_composition   required, length K
    horizon               draws per trajectory (default 100000)
    ensemble              number of trajectories (default 10000)
    seed                  RNG seed (default 12345)
    checkpoints           "geometric" or an increasing list ending at horizon
    predictions           "all" or a list of distinct track labels
    output_dir            artifact directory (default "urnlab-out")
    max_draws             resource cap on horizon * ensemble (default 4e9)
    variance_scale        multiplies predicted variances; a positive finite
                          number, diagnostic only

Artifacts are deterministic: the same config writes byte-identical files
(no timestamps or runtimes).
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .core import (
    DEFAULT_MAX_DRAWS,
    ReplacementSpec,
    _checked_scale,
    _validated_checkpoints,
    new_spec,
)
from .laws import LawPrediction, LimitKind, Normalization, pi_n, predict
from .spectral import StructureClass, classify

if TYPE_CHECKING:
    from .verify import EnsembleReport, PredictionOutcome, ReportVerdict

# The names taken from the layers only some commands run.  _load binds them
# into this module's globals on first use, so classify and predict never
# import oracle or verify.  Calls still go through the module globals: a
# wrapper set beforehand (perfbench's tracer, a test's monkeypatch) is kept.
_LAZY = {
    "oracle": (
        "compensated_martingale_check",
        "exact_conditional_variance_check",
        "exact_mean_linear",
    ),
    "verify": ("evaluate_report", "run_ensemble"),
}

_CONFIG_DEFAULTS = {
    "replacement_matrix": None,
    "initial_composition": None,
    "horizon": 100_000,
    "ensemble": 10_000,
    "seed": 12345,
    "checkpoints": "geometric",
    "predictions": "all",
    "output_dir": "urnlab-out",
    "max_draws": DEFAULT_MAX_DRAWS,
    "variance_scale": 1.0,
}

_ORACLE_TOL = 1e-9
_ORACLE_MEAN_STEPS = 8
_ORACLE_VARIANCE_STEPS = 6
# Sample-CSV lines (trajectories x checkpoints) per joined block of text;
# a block always holds at least one trajectory.
_CSV_LINES = 4096


def _load(layer: str) -> None:
    # __import__ at level 1, as `from . import oracle` does, so that
    # `python -X importtime` still reports the module.
    module = __import__(layer, globals(), None, (), 1)
    for name in _LAZY[layer]:
        globals().setdefault(name, getattr(module, name))


def __getattr__(name):
    for layer, names in _LAZY.items():
        if name in names:
            _load(layer)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class ConfigError(Exception):
    """Bad config file or command line usage (exit code 3)."""


class UnsupportedStructure(Exception):
    """Replacement structure outside the covered families (exit code 2)."""


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    for key in raw:
        if key not in _CONFIG_DEFAULTS:
            raise ConfigError(f"config.{key}: unknown field")
    cfg = dict(_CONFIG_DEFAULTS)
    cfg.update(raw)
    for key in ("replacement_matrix", "initial_composition"):
        if cfg[key] is None:
            raise ConfigError(f"config.{key}: required field is missing")
    for key in ("horizon", "ensemble", "max_draws"):
        if not isinstance(cfg[key], int) or isinstance(cfg[key], bool) or cfg[key] <= 0:
            raise ConfigError(f"config.{key}: must be a positive integer")
    if not isinstance(cfg["seed"], int) or isinstance(cfg["seed"], bool) or cfg["seed"] < 0:
        raise ConfigError("config.seed: must be a nonnegative integer")
    try:
        _checked_scale(cfg["variance_scale"])
    except ValueError as exc:
        raise ConfigError(f"config.{exc}") from exc
    cps = cfg["checkpoints"]
    if cps != "geometric":
        if not isinstance(cps, list) or not cps or any(
            not isinstance(v, int) or isinstance(v, bool) for v in cps
        ):
            raise ConfigError(
                'config.checkpoints: must be "geometric" or a list of integers'
            )
    preds = cfg["predictions"]
    if preds != "all" and (
        not isinstance(preds, list) or any(not isinstance(v, str) for v in preds)
    ):
        raise ConfigError('config.predictions: must be "all" or a list of labels')
    if not isinstance(cfg["output_dir"], str):
        raise ConfigError("config.output_dir: must be a string path")
    return cfg


def _build_spec(cfg: dict) -> ReplacementSpec:
    try:
        return new_spec(cfg["replacement_matrix"], cfg["initial_composition"])
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


def _classify(spec: ReplacementSpec) -> StructureClass:
    try:
        klass = classify(spec)
    except ValueError as exc:
        raise UnsupportedStructure(str(exc)) from exc
    if not klass.supported:
        reasons = "; ".join(klass.warnings) or "no matching family"
        raise UnsupportedStructure(reasons)
    return klass


def _fmt(x) -> str:
    if x is None:
        return "-"
    if isinstance(x, float):
        return f"{x:.10g}"
    return str(x)


def _classification_lines(klass: StructureClass) -> list[str]:
    lines = [f"family: {klass.family.value}"]
    lines.append(f"colors: {klass.spec.colors}")
    lines.append(f"permutation (canonical -> original): {klass.permutation}")
    if klass.scale is not None:
        lines.append(f"sub-block row mass s = {_fmt(klass.scale)}")
    if klass.lam is not None:
        lines.append(f"sub-block secondary eigenvalue = {_fmt(klass.lam)}")
    if klass.beta is not None:
        lines.append(f"dominant-track eigenvalue = {_fmt(klass.beta)}")
    if klass.stationary_whole is not None:
        lines.append(f"stationary (whole matrix): {np.round(klass.stationary_whole, 12).tolist()}")
    if klass.stationary_sub is not None:
        lines.append(f"stationary (sub-block): {np.round(klass.stationary_sub, 12).tolist()}")
    if klass.stationary_dom is not None:
        lines.append(f"stationary (dominant block): {np.round(klass.stationary_dom, 12).tolist()}")
    for label, vec, eig in klass.vectors:
        eig_text = f" (eigenvalue {_fmt(eig)})" if eig is not None else ""
        lines.append(f"track {label}: {np.round(vec, 12).tolist()}{eig_text}")
    for w in klass.warnings:
        lines.append(f"warning: {w}")
    return lines


def _prediction_lines(rows: tuple[LawPrediction, ...]) -> list[str]:
    lines = ["predicted limit laws:"]
    for i, row in enumerate(rows):
        parts = [f"[{i}] {row.label}: {row.limit_kind.value}",
                 f"normalization {row.normalization}"]
        if row.variance is not None:
            parts.append(f"variance {_fmt(row.variance)}")
        if row.mixture_coefficient is not None:
            parts.append(
                f"coefficient {_fmt(row.mixture_coefficient)} x {row.mixing_label}"
            )
        if row.martingale_eigenvalue is not None:
            parts.append(f"mean eigenvalue {_fmt(row.martingale_eigenvalue)}")
        if row.limit_mean is not None:
            parts.append(f"limit mean {_fmt(row.limit_mean)}")
        if row.limit_variance is not None:
            parts.append(f"limit variance {_fmt(row.limit_variance)}")
        if row.positive_limit:
            parts.append("positive limit")
        if row.co_limit_label is not None:
            parts.append(f"shares its limit with {row.co_limit_label}")
        lines.append("  " + ", ".join(parts))
        if row.notes:
            lines.append(f"      note: {row.notes}")
    return lines


def _run_oracle_checks(
    spec: ReplacementSpec, klass: StructureClass, rows: list[LawPrediction]
) -> tuple[list[str], bool]:
    """Small-n exact identity checks on klass's prediction rows.

    Each residual is held to _ORACLE_TOL relative to its track's size: a
    mean-identity line compares the means of v / max|v|, as
    spectral._pair_residual scales, and exact_conditional_variance_check
    divides by max|v|**2.  classify's eigen vectors have max|v| = 1, where
    nothing is rescaled.  Returns (lines, all_passed).
    """
    _load("oracle")
    lines = []
    ok = True
    n_mean = _ORACLE_MEAN_STEPS
    for row in rows:
        a = row.martingale_eigenvalue
        if a is None:
            continue
        size = float(np.abs(row.vector).max())
        exact = exact_mean_linear(spec, row.vector, a, n_mean) / size
        predicted = pi_n(a, n_mean) * row.initial_value / size
        gap = abs(exact - predicted)
        passed = gap <= _ORACLE_TOL
        ok &= passed
        lines.append(
            f"{'PASS' if passed else 'FAIL'} mean-identity {row.label}: "
            f"|{exact:.12g} - {predicted:.12g}| = {gap:.3g} at n = {n_mean}"
        )
    n_var = _ORACLE_VARIANCE_STEPS
    try:
        gap = exact_conditional_variance_check(spec, klass, n_var)
        passed = gap <= _ORACLE_TOL
        ok &= passed
        lines.append(
            f"{'PASS' if passed else 'FAIL'} conditional-variance: "
            f"max residual {gap:.3g} over levels 0..{n_var - 1}"
        )
    except ValueError as exc:
        lines.append(f"SKIP conditional-variance: {exc}")
    if klass.jordan_form is not None:
        gap = compensated_martingale_check(spec, klass, n_var)
        passed = gap <= _ORACLE_TOL
        ok &= passed
        lines.append(
            f"{'PASS' if passed else 'FAIL'} compensated-martingale: "
            f"max residual {gap:.3g} over levels 0..{n_var - 1}"
        )
    return lines, ok


def _csv_name(index: int, label: str) -> str:
    safe = "".join(c if c.isalnum() else "-" for c in label)
    return f"samples_{index}_{safe}.csv"


def _float_cells(values) -> np.ndarray:
    """repr(float(x)) for every x of a float64 array, as an object array of
    the same shape.

    repr runs once per distinct bit pattern: np.unique works on the int64
    view, so -0.0 stays apart from 0.0, and NaNs and infinities keep their
    own cells.
    """
    values = np.asarray(values, dtype=np.float64)
    patterns, inverse = np.unique(values.view(np.int64), return_inverse=True)
    strings = np.array(list(map(repr, patterns.view(np.float64).tolist())), dtype=object)
    return strings[inverse.reshape(values.shape)]


def _write_sample_csvs(report: EnsembleReport, out: Path) -> list[str]:
    """One CSV per prediction row: a line per (trajectory, checkpoint).

    Float cells hold repr of the Python float, formatted by _float_cells;
    normalized_value is empty where the normalization is not finite, and
    z_value (empty when not finite) and U_hat are filled on the terminal
    checkpoint line only.  Cells and lines are built by _sample_chunks, at
    most max(_CSV_LINES, C) lines at a time for C checkpoints, the lines
    joined in C, so of the text and cells only one chunk's, each checkpoint
    column's distinct strings, an index per (trajectory, checkpoint) and the
    per-trajectory z_value and U_hat cells are held, whatever the grid.
    """
    written = []
    for i, outcome in enumerate(report.outcomes):
        name = _csv_name(i, outcome.prediction.label)
        with (out / name).open("w") as fh:
            fh.write("trajectory_id,checkpoint_n,raw_value,normalized_value,z_value,U_hat\n")
            fh.writelines(_sample_chunks(report, outcome))
        written.append(name)
    return written


def _sample_chunks(report: EnsembleReport, outcome):
    """Yield one prediction row's CSV lines in chunks of whole trajectories.

    A chunk holds max(1, _CSV_LINES // C) trajectories for C checkpoints,
    so at most max(_CSV_LINES, C) lines.  Each checkpoint column is
    formatted once, one raw and one normalized string per distinct bit
    pattern, and a cell is an index into those strings, so no whole column
    of cells is ever held.  A chunk is one join of a flat array of its
    first trajectory id and each line's checkpoint, raw, normalized and
    tail cells; a tail ends its line and, but for the chunk's last, carries
    the next line's trajectory id.
    """
    row = outcome.prediction
    cps = report.checkpoints
    raw = report.track_values[:, :, report.track_labels.index(row.label)]
    cp_cells = np.array([str(int(n)) for n in cps], dtype=object)
    # Cell (t, j) is entry index[t, j] of raw_strings and norm_strings,
    # which hold column 0's strings, then column 1's, and so on.
    index = np.empty(raw.shape, dtype=np.intp)
    raw_strings, norm_strings, offset = [], [], 0
    with np.errstate(invalid="ignore", divide="ignore"):
        for j, scale in enumerate(row.normalization.at(cps)):
            patterns, inverse = np.unique(raw[:, j].view(np.int64), return_inverse=True)
            index[:, j] = inverse + offset
            offset += patterns.size
            distinct = patterns.view(np.float64)
            raw_strings.append(_float_cells(distinct))
            norm_strings.append(
                _float_cells(distinct / scale) if np.isfinite(scale)
                else np.full(patterns.size, "", dtype=object)
            )
    raw_strings, norm_strings = np.concatenate(raw_strings), np.concatenate(norm_strings)
    z_cells = np.full(report.ensemble, "", dtype=object)
    if outcome.z_sample is not None:
        z_cells = _float_cells(outcome.z_sample)
        z_cells[~np.isfinite(outcome.z_sample)] = ""
    u_cells = np.full(report.ensemble, "", dtype=object)
    if row.limit_kind is LimitKind.NORMAL_MIXTURE and report.u_hats is not None:
        u_cells = _float_cells(report.u_hats)
    ends = z_cells + "," + u_cells + "\n"
    chunk = max(1, _CSV_LINES // cps.size)
    for lo in range(0, report.ensemble, chunk):
        hi = min(lo + chunk, report.ensemble)
        ids = np.array(list(map(str, range(lo, hi + 1))), dtype=object)
        flat = np.empty(1 + (hi - lo) * cps.size * 4, dtype=object)
        flat[0] = ids[0]
        cells = flat[1:].reshape(hi - lo, cps.size, 4)
        cells[:, :, 0] = cp_cells
        cells[:, :, 1] = raw_strings[index[lo:hi]]
        cells[:, :, 2] = norm_strings[index[lo:hi]]
        cells[:, :-1, 3] = (",\n" + ids[:-1])[:, None]
        cells[:, -1, 3] = ends[lo:hi] + ids[1:]
        cells[-1, -1, 3] = ends[hi - 1]
        yield ",".join(flat.tolist())


def _outcome_lines(report: EnsembleReport) -> list[str]:
    lines = [
        f"ensemble: {report.ensemble} trajectories, horizon {report.horizon}, "
        f"seed {report.seed}",
        f"checkpoints: {report.checkpoints.tolist()}",
        f"max mass drift: {report.max_mass_drift:.3g}",
    ]
    if report.variance_scale != 1.0:
        lines.append(
            f"variance scale (diagnostic): {_fmt(report.variance_scale)}"
        )
    for outcome in report.outcomes:
        row = outcome.prediction
        lines.append(f"track {row.label}:")
        lines.append(
            f"  terminal sample mean {_fmt(outcome.sample_mean)}"
            + (
                f", expected {_fmt(outcome.expected_mean)}"
                if outcome.expected_mean is not None
                else ""
            )
        )
        lines.append(f"  terminal sample variance {_fmt(outcome.sample_variance)}")
        if outcome.ks_stat is not None:
            lines.append(
                f"  KS vs standard normal: D = {outcome.ks_stat:.5f}, "
                f"p = {outcome.ks_pvalue:.4g}"
                + (f", dropped {outcome.dropped}" if outcome.dropped else "")
            )
        if outcome.median_tail_fluctuation is not None:
            lines.append(
                f"  median tail fluctuation {_fmt(outcome.median_tail_fluctuation)}"
                f" (median |terminal| {_fmt(outcome.median_terminal_abs)})"
            )
        if outcome.all_positive is not None:
            lines.append(f"  all terminal values positive: {outcome.all_positive}")
        if outcome.constant_deviation is not None:
            lines.append(f"  max deviation from constant: {outcome.constant_deviation:.3g}")
        if outcome.colimit_gap_medians is not None:
            finite = np.isfinite(outcome.colimit_gap_medians)
            pairs = ", ".join(
                f"n={int(n)}: {g:.4g}"
                for n, g in zip(
                    report.checkpoints[finite], outcome.colimit_gap_medians[finite]
                )
            )
            lines.append(f"  median gap to shared limit: {pairs}")
    return lines


def _verdict_lines(verdict: ReportVerdict) -> list[str]:
    lines = []
    for row in verdict.rows:
        for check in row.checks:
            status = "PASS" if check.passed else "FAIL"
            lines.append(f"{status} {row.label} {check.name}: {check.detail}")
    return lines


def _record(obj: LawPrediction | PredictionOutcome) -> dict:
    """A prediction or outcome as a summary record, a key per dataclass field.

    The limit kind gives its value and the normalization its name.  A
    prediction's vector is rounded to 12 places; an outcome names its
    prediction by label and leaves out its arrays: the sample CSVs hold the
    samples, report.txt the co-limit gap medians.
    """
    record = {}
    for field in dataclasses.fields(obj):
        value = getattr(obj, field.name)
        if isinstance(value, LawPrediction):
            record["label"] = value.label
        elif isinstance(value, LimitKind):
            record[field.name] = value.value
        elif isinstance(value, Normalization):
            record[field.name] = str(value)
        elif isinstance(obj, LawPrediction) and isinstance(value, np.ndarray):
            record[field.name] = np.round(value, 12).tolist()
        elif "ndarray" not in str(field.type):
            record[field.name] = value
    return record


def _summary_payload(
    klass: StructureClass,
    rows: tuple[LawPrediction, ...],
    report: EnsembleReport | None,
    verdict: ReportVerdict | None,
    oracle_lines: list[str] | None,
    oracle_ok: bool | None,
    samples: list[str] | None,
) -> dict:
    payload: dict = {
        "family": klass.family.value,
        "colors": klass.spec.colors,
        "permutation": list(klass.permutation),
        "scale": klass.scale,
        "secondary_eigenvalue": klass.lam,
        "dominant_eigenvalue": klass.beta,
        "warnings": list(klass.warnings),
        "predictions": [_record(row) for row in rows],
    }
    if report is not None:
        payload["ensemble"] = {
            "horizon": report.horizon,
            "trajectories": report.ensemble,
            "seed": report.seed,
            "variance_scale": report.variance_scale,
            "checkpoints": report.checkpoints.tolist(),
            "max_mass_drift": report.max_mass_drift,
            "outcomes": [_record(o) for o in report.outcomes],
        }
    if verdict is not None:
        payload["verdicts"] = {
            "overall": verdict.passed,
            "rows": [dataclasses.asdict(row) for row in verdict.rows],
        }
    if oracle_lines is not None:
        payload["oracle"] = {"passed": oracle_ok, "checks": oracle_lines}
    if samples is not None:
        payload["samples"] = samples
    return payload


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="urnlab",
        description="classify, predict, and verify multicolor urn limit laws",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("classify", "print the structure class"),
        ("predict", "print the structure class and predicted limit laws"),
        ("oracle-check", "run exact small-n identity checks"),
        ("simulate", "run an ensemble and write sample artifacts"),
        ("verify", "run an ensemble and write verdicts"),
        ("all", "oracle-check plus verify"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", help="override config.output_dir")
        p.add_argument("--seed", type=int, help="override config.seed")
        p.add_argument("--horizon", type=int, help="override config.horizon")
        p.add_argument("--ensemble", type=int, help="override config.ensemble")
        p.add_argument("--cap", type=int, help="override config.max_draws")
    return parser.parse_args(argv)


def _apply_overrides(cfg: dict, args) -> dict:
    if args.out is not None:
        cfg["output_dir"] = args.out
    for attr, key in (
        ("seed", "seed"),
        ("horizon", "horizon"),
        ("ensemble", "ensemble"),
        ("cap", "max_draws"),
    ):
        value = getattr(args, attr)
        if value is not None:
            if value <= 0 and key != "seed":
                raise ConfigError(f"--{attr} must be positive")
            if value < 0:
                raise ConfigError(f"--{attr} must be nonnegative")
            cfg[key] = value
    return cfg


def _checkpoints(cfg: dict) -> list[int] | None:
    """The effective config's checkpoint list, None for the geometric grid."""
    cps = cfg["checkpoints"]
    if cps == "geometric":
        return None
    try:
        _validated_checkpoints(cps, cfg["horizon"])
    except ValueError as exc:
        raise ConfigError(f"config.checkpoints: {exc}") from exc
    if cps[-1] != cfg["horizon"]:
        raise ConfigError("config.checkpoints: last entry must equal the horizon")
    return cps


def _ensure_out(cfg: dict) -> Path:
    out = Path(cfg["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_text(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n")


def _json_default(o):
    if isinstance(o, np.bool_):
        return bool(o)
    if isinstance(o, np.integer):
        return int(o)
    if isinstance(o, np.floating):
        return float(o)
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not JSON serializable: {type(o).__name__}")


def _write_summary(path: Path, payload: dict) -> None:
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True, default=_json_default) + "\n"
    )


def _dispatch(args) -> int:
    cfg = _apply_overrides(_load_config(args.config), args)
    checkpoints = _checkpoints(cfg)
    spec = _build_spec(cfg)
    if args.command == "classify":
        try:
            klass = classify(spec)
        except ValueError as exc:
            raise UnsupportedStructure(str(exc)) from exc
        for line in _classification_lines(klass):
            print(line)
        return 2 if not klass.supported else 0
    klass = _classify(spec)
    rows = predict(klass)
    if args.command == "predict":
        for line in _classification_lines(klass) + _prediction_lines(rows):
            print(line)
        return 0
    if args.command == "oracle-check":
        lines, ok = _run_oracle_checks(spec, klass, rows)
        for line in lines:
            print(line)
        print(f"OVERALL {'PASS' if ok else 'FAIL'}")
        return 0 if ok else 1

    oracle_lines = None
    oracle_ok = None
    if args.command == "all":
        oracle_lines, oracle_ok = _run_oracle_checks(spec, klass, rows)

    _load("verify")
    try:
        report = run_ensemble(
            spec,
            rows,
            predictions=None if cfg["predictions"] == "all" else cfg["predictions"],
            horizon=cfg["horizon"],
            ensemble=cfg["ensemble"],
            seed=cfg["seed"],
            checkpoints=checkpoints,
            max_draws=cfg["max_draws"],
            variance_scale=cfg["variance_scale"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    verdict = None
    if args.command in ("verify", "all"):
        verdict = evaluate_report(report)

    out = _ensure_out(cfg)
    report_lines = _classification_lines(klass) + [""] + _prediction_lines(rows)
    report_lines += [""] + _outcome_lines(report)
    if oracle_lines is not None:
        report_lines += ["", "exact small-n checks:"] + oracle_lines
    _write_text(out / "report.txt", report_lines)
    samples = _write_sample_csvs(report, out)
    passed = True
    if verdict is not None:
        passed = verdict.passed and oracle_ok is not False
        verdict_lines = (oracle_lines or []) + _verdict_lines(verdict)
        verdict_lines.append(f"OVERALL {'PASS' if passed else 'FAIL'}")
        _write_text(out / "verdicts.txt", verdict_lines)
        for line in verdict_lines:
            print(line)
    payload = _summary_payload(
        klass, rows, report, verdict, oracle_lines, oracle_ok, samples
    )
    _write_summary(out / "summary.json", payload)
    print(f"artifacts written to {out}")
    return 0 if passed else 1


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        return 3 if exc.code not in (0, None) else 0
    try:
        return _dispatch(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except UnsupportedStructure as exc:
        print(f"unsupported structure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
