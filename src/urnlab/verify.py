"""Monte Carlo verification of predicted limit laws.

run_ensemble simulates a trajectory ensemble, evaluates every predicted
track at the checkpoint grid, and packages per-track statistics:
studentized terminal samples with a Kolmogorov-Smirnov comparison against
the standard normal for (mixture-)normal tracks, settling diagnostics for
almost-sure tracks, and exact-constancy/mass checks for degenerate ones.
evaluate_report turns a report into pass/fail verdicts under the fixed
thresholds below, so every verdict is reproducible from the sampled data.

Mixture tracks are studentized per trajectory: the variance of such a
track is coefficient * U with U the random limit of the mixing track, so
each terminal value is divided by sqrt(coefficient * U_hat) using that
trajectory's own terminal estimate U_hat.  Studentizing by a pooled mean
of U_hat instead is wrong whenever U genuinely varies; tests exploit that
as a negative control.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_MAX_DRAWS,
    ReplacementSpec,
    _checked_scale,
    _integer,
    _validated_checkpoints,
    simulate_many,
)
from .laws import LawPrediction, LimitKind, pi_n

__all__ = [
    "DEFAULT_MAX_DRAWS",
    "MIN_HORIZON",
    "MIN_ENSEMBLE",
    "U_FLOOR",
    "PredictionOutcome",
    "EnsembleReport",
    "CheckResult",
    "RowVerdict",
    "ReportVerdict",
    "ks_standard_normal",
    "studentize",
    "run_ensemble",
    "evaluate_report",
]

MIN_HORIZON = 1_000
MIN_ENSEMBLE = 100
# Trajectories whose mixing estimate falls below this are dropped from
# studentization (the variance estimate would be garbage).
U_FLOOR = 1e-12
# Verdict thresholds.  KS thresholds are coeff * 1.36 / sqrt(m): the
# coefficient inflates the 5% two-sided KS quantile to leave room for
# finite-horizon bias, wider for mixtures whose studentization itself is
# estimated.  The tail envelope for almost-sure tracks was calibrated at
# horizon 1e6 and is relaxed by (reference/N)^exponent for shorter runs.
# Co-limit gap medians must decrease across checkpoints near the given
# fractions of the horizon.
KS_NORMAL_COEFF = 2.2
KS_MIXTURE_COEFF = 3.7
TAIL_RATIO = 0.05
TAIL_REFERENCE_HORIZON = 1e6
TAIL_SCALING_EXPONENT = 0.25
CONSTANT_TOL = 1e-12
MASS_TOL = 1e-9
MEAN_SE_FACTOR = 4.0
NONDEGENERACY_REL = 1e-6
VARIANCE_RTOL = 0.05
COLIMIT_FRACTIONS = (0.01, 0.1, 1.0)

_SQRT2 = math.sqrt(2.0)


def ks_standard_normal(sample) -> tuple[float, float]:
    """Kolmogorov-Smirnov statistic and p-value against N(0, 1).

    The p-value uses the asymptotic Kolmogorov series, adequate at the
    sample sizes the ensemble layer produces (hundreds and up; fewer than
    50 points is refused).
    """
    z = np.asarray(sample, dtype=float)
    nan = np.flatnonzero(np.isnan(z))
    if nan.size:
        raise ValueError(
            f"NaN in the sample: {nan.size} of {z.size} values, the first at "
            f"index {nan[0]}"
        )
    z = np.sort(z)
    m = z.size
    if m < 50:
        raise ValueError(f"need at least 50 points for a stable KS value, got {m}")
    cdf = 0.5 * (1.0 + np.array([math.erf(v / _SQRT2) for v in z]))
    i = np.arange(1, m + 1)
    d = float(max((i / m - cdf).max(), (cdf - (i - 1) / m).max(), 0.0))
    y = math.sqrt(m) * d
    if y < 1e-3:
        return d, 1.0
    total = 0.0
    for k in range(1, 201):
        term = 2.0 * (-1.0) ** (k - 1) * math.exp(-2.0 * k * k * y * y)
        total += term
        if abs(term) < 1e-12:
            break
    return d, float(min(1.0, max(0.0, total)))


def studentize(
    sample,
    prediction: LawPrediction,
    u_hats=None,
    variance_scale: float = 1.0,
) -> tuple[np.ndarray, int]:
    """Scale normalized terminal values to unit predicted variance.

    Returns (z, dropped), z aligned with the sample.  Normal tracks divide
    by the predicted standard deviation; mixture tracks divide per
    trajectory by sqrt(coefficient * u_hat) and drop trajectories with u_hat
    below U_FLOOR, whose z is NaN.  variance_scale, a positive finite number,
    multiplies the predicted variance and exists so callers can show that a
    wrong variance is caught; leave it at 1.
    """
    x = np.asarray(sample, dtype=float)
    variance_scale = _checked_scale(variance_scale)
    if prediction.limit_kind is LimitKind.NORMAL:
        var = (prediction.variance or 0.0) * variance_scale
        if var <= 0.0:
            raise ValueError(
                f"track {prediction.label!r} has no positive predicted variance"
            )
        return x / math.sqrt(var), 0
    if prediction.limit_kind is LimitKind.NORMAL_MIXTURE:
        if u_hats is None:
            raise ValueError("mixture studentization needs per-trajectory u_hats")
        u = np.asarray(u_hats, dtype=float)
        if u.shape != x.shape:
            raise ValueError("u_hats must align with the sample")
        coef = (prediction.mixture_coefficient or 0.0) * variance_scale
        if coef <= 0.0:
            raise ValueError(
                f"track {prediction.label!r} has no positive mixture coefficient"
            )
        keep = u >= U_FLOOR
        z = np.full(x.shape, np.nan)
        z[keep] = x[keep] / np.sqrt(coef * u[keep])
        return z, int(x.size - keep.sum())
    raise ValueError(
        f"track {prediction.label!r} is not a (mixture-)normal track"
    )


@dataclass(frozen=True, eq=False)
class PredictionOutcome:
    """Everything measured for one predicted track."""

    prediction: LawPrediction
    raw_terminal: np.ndarray
    normalized_terminal: np.ndarray
    sample_mean: float
    sample_variance: float
    expected_mean: float | None
    mean_se: float
    # Studentized terminal values by trajectory id, NaN where dropped.
    z_sample: np.ndarray | None = None
    dropped: int = 0
    ks_stat: float | None = None
    ks_pvalue: float | None = None
    median_tail_fluctuation: float | None = None
    median_terminal_abs: float | None = None
    all_positive: bool | None = None
    constant_deviation: float | None = None
    colimit_gap_medians: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class EnsembleReport:
    """Deterministic record of one verification ensemble.

    track_values holds the raw linear-track values for every predicted
    row (ensemble, checkpoint, row), in predict() order, so artifact
    writers can reproduce any per-checkpoint view without re-simulating.
    """

    horizon: int
    ensemble: int
    seed: int
    variance_scale: float
    checkpoints: np.ndarray
    u_hats: np.ndarray | None
    max_mass_drift: float
    outcomes: tuple[PredictionOutcome, ...]
    track_values: np.ndarray | None = None
    track_labels: tuple[str, ...] = ()


def _row_labels(predictions, all_rows) -> list[str]:
    if predictions is None:
        return [r.label for r in all_rows]
    labels = []
    known = {r.label for r in all_rows}
    for label in predictions:
        if not isinstance(label, str) or label not in known:
            raise ValueError(
                f"unknown prediction label {label!r}; available: {sorted(known)}"
            )
        if label in labels:
            raise ValueError(f"prediction label {label!r} is selected twice")
        labels.append(label)
    if not labels:
        raise ValueError("no predictions selected")
    return labels


def run_ensemble(
    spec: ReplacementSpec,
    rows: list[LawPrediction],
    predictions=None,
    horizon: int = 100_000,
    ensemble: int = 10_000,
    seed: int = 12345,
    *,
    checkpoints=None,
    max_draws: int = DEFAULT_MAX_DRAWS,
    variance_scale: float = 1.0,
) -> EnsembleReport:
    """Simulate an ensemble and measure every selected predicted track.

    rows is spec's prediction table, predict(classify(spec)).  predictions
    selects tracks by label, each at most once; None takes all.  All K
    tracks are recorded regardless, because mixture studentization and
    co-limit gaps read sibling tracks.  Identical inputs give an identical
    report.
    """
    horizon = _integer(horizon, "horizon")
    ensemble = _integer(ensemble, "ensemble")
    if horizon < MIN_HORIZON:
        raise ValueError(f"horizon must be at least {MIN_HORIZON}, got {horizon}")
    if ensemble < MIN_ENSEMBLE:
        raise ValueError(f"ensemble must be at least {MIN_ENSEMBLE}, got {ensemble}")
    max_draws = _integer(max_draws, "max_draws")
    if max_draws < 1:
        raise ValueError(f"max_draws must be at least 1, got {max_draws}")
    if horizon * ensemble > max_draws:
        raise ValueError(
            f"resource cap: horizon * ensemble = {horizon * ensemble} exceeds "
            f"max_draws = {max_draws}"
        )
    cps = _validated_checkpoints(checkpoints, horizon)
    if cps[-1] != horizon:
        raise ValueError("checkpoint grid must end at the horizon")
    labels = _row_labels(predictions, rows)
    variance_scale = _checked_scale(variance_scale)
    paths = simulate_many(
        spec,
        horizon,
        seed,
        ensemble,
        checkpoints=cps,
        track_vectors=[r.vector for r in rows],
    )
    cps = paths.checkpoints

    index = {r.label: i for i, r in enumerate(rows)}
    u_hats = None
    for row in rows:
        if row.limit_kind is LimitKind.NORMAL_MIXTURE:
            mix = rows[index[row.mixing_label]]
            u_hats = (
                paths.tracks[:, -1, index[mix.label]]
                / mix.normalization.at(int(cps[-1]))
            )
            break

    outcomes = []
    for label in labels:
        idx = index[label]
        row = rows[idx]
        raw_terminal = paths.tracks[:, -1, idx].copy()
        norm_terminal = row.normalization.at(int(cps[-1]))
        normalized = raw_terminal / norm_terminal
        sample_mean = float(normalized.mean())
        sample_variance = (
            float(normalized.var(ddof=1)) if normalized.size > 1 else 0.0
        )
        mean_se = math.sqrt(max(sample_variance, 0.0) / normalized.size)
        a = row.martingale_eigenvalue
        expected_mean = (
            pi_n(a, horizon) * row.initial_value / norm_terminal
            if a is not None
            else None
        )
        fields: dict = {}
        if row.limit_kind in (LimitKind.NORMAL, LimitKind.NORMAL_MIXTURE):
            z, dropped = studentize(normalized, row, u_hats, variance_scale)
            fields["z_sample"] = z
            fields["dropped"] = dropped
            kept = z[~np.isnan(z)]
            if kept.size >= 50:
                d, p = ks_standard_normal(kept)
                fields["ks_stat"] = d
                fields["ks_pvalue"] = p
        if row.limit_kind is LimitKind.AS_RANDOM_VARIABLE:
            with np.errstate(invalid="ignore", divide="ignore"):
                norm_grid = row.normalization.at(cps)
                tracks_norm = paths.tracks[:, :, idx] / norm_grid[None, :]
            # Settling: per-trajectory max |x(n) - x(N)| over checkpoints in
            # [N/4, N); a grid with no checkpoint there yields None.
            terminal = tracks_norm[:, -1]
            region = (cps >= horizon / 4) & (cps < horizon)
            if region.any():
                fluct = np.abs(tracks_norm[:, region] - terminal[:, None]).max(axis=1)
                fields["median_tail_fluctuation"] = float(np.median(fluct))
            fields["median_terminal_abs"] = float(np.median(np.abs(terminal)))
            if row.positive_limit:
                fields["all_positive"] = bool((raw_terminal > 0.0).all())
            if row.co_limit_label is not None:
                co = rows[index[row.co_limit_label]]
                with np.errstate(invalid="ignore", divide="ignore"):
                    co_norm = co.normalization.at(cps)
                    co_tracks = (
                        paths.tracks[:, :, index[co.label]] / co_norm[None, :]
                    )
                gaps = np.abs(tracks_norm - co_tracks)
                valid = np.isfinite(norm_grid) & np.isfinite(co_norm)
                medians = np.full(cps.size, np.nan)
                if valid.any():
                    medians[valid] = np.median(gaps[:, valid], axis=0)
                fields["colimit_gap_medians"] = medians
        if row.limit_kind is LimitKind.EXACTLY_CONSTANT_TRACK:
            fields["constant_deviation"] = float(
                np.abs(paths.tracks[:, :, idx] - row.initial_value).max()
            )
        if row.limit_kind is LimitKind.DETERMINISTIC_CONSTANT:
            # One (M, C) array, reused in place: the same elementwise
            # operations as out of place, so the same bits and any NaN.
            with np.errstate(invalid="ignore", divide="ignore"):
                deviation = paths.tracks[:, :, idx] / row.normalization.at(cps)
            np.subtract(deviation, row.limit_mean or 1.0, out=deviation)
            fields["constant_deviation"] = float(
                np.abs(deviation, out=deviation).max()
            )
        outcomes.append(
            PredictionOutcome(
                prediction=row,
                raw_terminal=raw_terminal,
                normalized_terminal=normalized,
                sample_mean=sample_mean,
                sample_variance=sample_variance,
                expected_mean=expected_mean,
                mean_se=mean_se,
                **fields,
            )
        )
    return EnsembleReport(
        horizon=horizon,
        ensemble=ensemble,
        seed=seed,
        variance_scale=variance_scale,
        checkpoints=cps,
        u_hats=u_hats,
        max_mass_drift=paths.max_mass_drift,
        outcomes=tuple(outcomes),
        track_values=paths.tracks,
        track_labels=tuple(r.label for r in rows),
    )


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class RowVerdict:
    label: str
    passed: bool
    checks: tuple[CheckResult, ...]


@dataclass(frozen=True)
class ReportVerdict:
    passed: bool
    rows: tuple[RowVerdict, ...]


def _mean_check(outcome: PredictionOutcome, report: EnsembleReport):
    if outcome.expected_mean is None:
        return None
    tol = MEAN_SE_FACTOR * outcome.mean_se + MASS_TOL
    gap = abs(outcome.sample_mean - outcome.expected_mean)
    return CheckResult(
        "mean",
        gap <= tol,
        f"|{outcome.sample_mean:.6g} - {outcome.expected_mean:.6g}| = "
        f"{gap:.3g} vs {tol:.3g}",
    )


def _ks_check(outcome: PredictionOutcome, coeff: float, name: str) -> CheckResult:
    if outcome.ks_stat is None:
        return CheckResult(name, False, "sample too small for a KS comparison")
    m = outcome.z_sample.size - outcome.dropped
    threshold = coeff * 1.36 / math.sqrt(m)
    extra = f", dropped {outcome.dropped}" if outcome.dropped else ""
    return CheckResult(
        name,
        outcome.ks_stat < threshold,
        f"D = {outcome.ks_stat:.4f} vs {threshold:.4f} "
        f"(m = {m}, p = {outcome.ks_pvalue:.3g}{extra})",
    )


def _ks_normal_check(outcome: PredictionOutcome, report: EnsembleReport):
    notes = outcome.prediction.notes
    if "unverified" in notes:
        return CheckResult("ks-normal", True, "skipped: " + notes)
    return _ks_check(outcome, KS_NORMAL_COEFF, "ks-normal")


# Tracks normalized by n^a log n approach their limit at a 1/log n rate, so
# settling and strict positivity of the terminal sample are out of reach at
# any practical horizon; those tracks are judged by the shared-limit trend.
def _slow(outcome: PredictionOutcome) -> bool:
    return outcome.prediction.normalization.kind == "power_log"


def _terminal_floor(outcome: PredictionOutcome) -> float:
    return max(outcome.median_terminal_abs or 0.0, 1e-12)


def _tail_check(outcome: PredictionOutcome, report: EnsembleReport):
    fluct = outcome.median_tail_fluctuation
    if _slow(outcome):
        return CheckResult(
            "tail-settle",
            True,
            "skipped: logarithmic normalization settles too slowly for a "
            "windowed check",
        )
    if fluct is None:
        return CheckResult("tail-settle", True, "no checkpoints inside the tail window")
    scale = (TAIL_REFERENCE_HORIZON / report.horizon) ** TAIL_SCALING_EXPONENT
    threshold = TAIL_RATIO * scale * _terminal_floor(outcome)
    return CheckResult(
        "tail-settle", fluct <= threshold, f"median fluct {fluct:.4g} vs {threshold:.4g}"
    )


def _nondegenerate_check(outcome: PredictionOutcome, report: EnsembleReport):
    floor = _terminal_floor(outcome)
    nondeg = NONDEGENERACY_REL * max(floor * floor, 1e-12)
    return CheckResult(
        "non-degenerate",
        outcome.sample_variance > nondeg,
        f"terminal variance {outcome.sample_variance:.4g} vs {nondeg:.3g}",
    )


def _positive_check(outcome: PredictionOutcome, report: EnsembleReport):
    if not outcome.prediction.positive_limit or _slow(outcome):
        return None
    if outcome.all_positive:
        return CheckResult("positive", True, "all terminal values positive")
    return CheckResult("positive", False, "some terminal values are not positive")


def _colimit_check(outcome: PredictionOutcome, report: EnsembleReport):
    medians, checkpoints = outcome.colimit_gap_medians, report.checkpoints
    if medians is None:
        return None
    finite = np.flatnonzero(np.isfinite(medians))
    nearest = (
        int(finite[np.argmin(np.abs(checkpoints[finite] - frac * report.horizon))])
        for frac in COLIMIT_FRACTIONS
    )
    picked = list(dict.fromkeys(nearest)) if finite.size else []
    if len(picked) < 3:
        return CheckResult(
            "colimit-trend", True, "checkpoint grid too narrow for a trend check"
        )
    values = [float(medians[i]) for i in picked]
    decreasing = all(earlier > later for earlier, later in zip(values, values[1:]))
    pairs = ", ".join(
        f"n={int(checkpoints[i])}: {float(medians[i]):.4g}" for i in picked
    )
    return CheckResult("colimit-trend", decreasing, pairs)


def _limit_variance_check(outcome: PredictionOutcome, report: EnsembleReport):
    expected, variance = outcome.prediction.limit_variance, outcome.sample_variance
    if expected is None:
        return None
    gap, tol = abs(variance - expected), VARIANCE_RTOL * expected
    return CheckResult(
        "limit-variance",
        gap <= tol,
        f"|{variance:.5g} - {expected:g}| = {gap:.3g} vs {tol:.3g}",
    )


# The checks of each limit kind, in print order; _mean_check closes every
# row.  A builder takes (outcome, report) and returns a CheckResult, or None
# where its check does not apply to the row.
_CHECKS = {
    LimitKind.DETERMINISTIC_CONSTANT: (
        lambda o, r: CheckResult(
            "mass-law",
            o.constant_deviation <= MASS_TOL,
            f"max |normalized - {o.prediction.limit_mean:g}| = "
            f"{o.constant_deviation:.3g}",
        ),
    ),
    LimitKind.EXACTLY_CONSTANT_TRACK: (
        lambda o, r: CheckResult(
            "constant-track",
            o.constant_deviation <= CONSTANT_TOL,
            f"max |track - {o.prediction.initial_value:g}| = "
            f"{o.constant_deviation:.3g}",
        ),
    ),
    LimitKind.NORMAL: (_ks_normal_check,),
    LimitKind.NORMAL_MIXTURE: (
        lambda o, r: _ks_check(o, KS_MIXTURE_COEFF, "ks-mixture"),
    ),
    LimitKind.AS_RANDOM_VARIABLE: (
        _tail_check,
        _nondegenerate_check,
        _positive_check,
        _colimit_check,
        _limit_variance_check,
    ),
}


def evaluate_report(report: EnsembleReport) -> ReportVerdict:
    """Apply the verdict thresholds to every measured track."""
    rows = []
    for outcome in report.outcomes:
        builders = (*_CHECKS[outcome.prediction.limit_kind], _mean_check)
        checks = tuple(filter(None, (build(outcome, report) for build in builders)))
        rows.append(
            RowVerdict(outcome.prediction.label, all(c.passed for c in checks), checks)
        )
    return ReportVerdict(passed=all(r.passed for r in rows), rows=tuple(rows))
