"""Monte Carlo verification of predicted limit laws.

run_ensemble simulates a trajectory ensemble, evaluates every predicted
track at the checkpoint grid, and packages per-track statistics:
studentized terminal samples with a Kolmogorov-Smirnov comparison against
the standard normal for (mixture-)normal tracks, settling diagnostics for
almost-sure tracks, and exact-constancy/mass checks for degenerate ones.
evaluate_report turns a report into pass/fail verdicts under an explicit
threshold policy, so every verdict is reproducible from the sampled data.

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

from .core import ReplacementSpec, _integer, _validated_checkpoints, simulate_many
from .laws import LawPrediction, LimitKind, pi_n

__all__ = [
    "DEFAULT_MAX_DRAWS",
    "MIN_HORIZON",
    "MIN_ENSEMBLE",
    "U_FLOOR",
    "PredictionOutcome",
    "EnsembleReport",
    "VerdictPolicy",
    "CheckResult",
    "RowVerdict",
    "ReportVerdict",
    "ks_standard_normal",
    "studentize",
    "run_ensemble",
    "evaluate_report",
]

DEFAULT_MAX_DRAWS = 4_000_000_000
MIN_HORIZON = 1_000
MIN_ENSEMBLE = 100
# Trajectories whose mixing estimate falls below this are dropped from
# studentization (the variance estimate would be garbage).
U_FLOOR = 1e-12

_SQRT2 = math.sqrt(2.0)


def ks_standard_normal(sample) -> tuple[float, float]:
    """Kolmogorov-Smirnov statistic and p-value against N(0, 1).

    The p-value uses the asymptotic Kolmogorov series, adequate at the
    sample sizes the ensemble layer produces (hundreds and up; fewer than
    50 points is refused).
    """
    z = np.sort(np.asarray(sample, dtype=float))
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
    below U_FLOOR, whose z is NaN.  variance_scale multiplies the predicted
    variance and exists so callers can show that a wrong variance is caught;
    leave it at 1.
    """
    x = np.asarray(sample, dtype=float)
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
    for item in predictions:
        label = item if isinstance(item, str) else item.label
        if label not in known:
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
    selects tracks by label (or LawPrediction), each at most once; None
    takes all.  All K tracks are recorded regardless, because mixture
    studentization and co-limit gaps read sibling tracks.  Identical inputs
    give an identical report.
    """
    horizon = _integer(horizon, "horizon")
    ensemble = _integer(ensemble, "ensemble")
    if horizon < MIN_HORIZON:
        raise ValueError(f"horizon must be at least {MIN_HORIZON}, got {horizon}")
    if ensemble < MIN_ENSEMBLE:
        raise ValueError(f"ensemble must be at least {MIN_ENSEMBLE}, got {ensemble}")
    if horizon * ensemble > max_draws:
        raise ValueError(
            f"resource cap: horizon * ensemble = {horizon * ensemble} exceeds "
            f"max_draws = {max_draws}"
        )
    cps = _validated_checkpoints(checkpoints, horizon)
    if cps[-1] != horizon:
        raise ValueError("checkpoint grid must end at the horizon")
    labels = _row_labels(predictions, rows)
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
            with np.errstate(invalid="ignore", divide="ignore"):
                norm_grid = row.normalization.at(cps)
                tracks_norm = paths.tracks[:, :, idx] / norm_grid[None, :]
            fields["constant_deviation"] = float(
                np.abs(tracks_norm - (row.limit_mean or 1.0)).max()
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
        variance_scale=float(variance_scale),
        checkpoints=cps,
        u_hats=u_hats,
        max_mass_drift=paths.max_mass_drift,
        outcomes=tuple(outcomes),
        track_values=paths.tracks,
        track_labels=tuple(r.label for r in rows),
    )


@dataclass(frozen=True)
class VerdictPolicy:
    """Thresholds used to turn measurements into pass/fail verdicts.

    KS thresholds are coeff * 1.36 / sqrt(m): the coefficient inflates the
    5% two-sided KS quantile to leave room for finite-horizon bias, wider
    for mixtures whose studentization itself is estimated.  The tail
    envelope for almost-sure tracks was calibrated at horizon 1e6 and is
    relaxed by (reference/N)^exponent for shorter runs.  Co-limit gap
    medians must decrease across checkpoints near the given fractions of
    the horizon.
    """

    ks_normal_coeff: float = 2.2
    ks_mixture_coeff: float = 3.7
    tail_ratio: float = 0.05
    tail_reference_horizon: float = 1e6
    tail_scaling_exponent: float = 0.25
    constant_tol: float = 1e-12
    mass_tol: float = 1e-9
    mean_se_factor: float = 4.0
    nondegeneracy_rel: float = 1e-6
    variance_rtol: float = 0.05
    colimit_fractions: tuple[float, ...] = (0.01, 0.1, 1.0)


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


def _mean_check(outcome: PredictionOutcome, policy: VerdictPolicy) -> CheckResult | None:
    if outcome.expected_mean is None:
        return None
    tol = policy.mean_se_factor * outcome.mean_se + policy.mass_tol
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


def _colimit_check(
    outcome: PredictionOutcome, checkpoints: np.ndarray, policy: VerdictPolicy
) -> CheckResult:
    medians = outcome.colimit_gap_medians
    horizon = int(checkpoints[-1])
    picked: list[int] = []
    for frac in policy.colimit_fractions:
        target = frac * horizon
        candidates = np.where(np.isfinite(medians))[0]
        if candidates.size == 0:
            break
        best = int(candidates[np.argmin(np.abs(checkpoints[candidates] - target))])
        if best not in picked:
            picked.append(best)
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


def evaluate_report(
    report: EnsembleReport, policy: VerdictPolicy | None = None
) -> ReportVerdict:
    """Apply the threshold policy to every measured track."""
    policy = policy or VerdictPolicy()
    rows = []
    for outcome in report.outcomes:
        row = outcome.prediction
        checks: list[CheckResult] = []
        unverified = "unverified" in row.notes
        kind = row.limit_kind
        if kind is LimitKind.DETERMINISTIC_CONSTANT:
            checks.append(
                CheckResult(
                    "mass-law",
                    outcome.constant_deviation <= policy.mass_tol,
                    f"max |normalized - {row.limit_mean:g}| = "
                    f"{outcome.constant_deviation:.3g}",
                )
            )
        elif kind is LimitKind.EXACTLY_CONSTANT_TRACK:
            checks.append(
                CheckResult(
                    "constant-track",
                    outcome.constant_deviation <= policy.constant_tol,
                    f"max |track - {row.initial_value:g}| = "
                    f"{outcome.constant_deviation:.3g}",
                )
            )
        elif kind is LimitKind.NORMAL:
            if unverified:
                checks.append(
                    CheckResult("ks-normal", True, "skipped: " + row.notes)
                )
            else:
                checks.append(_ks_check(outcome, policy.ks_normal_coeff, "ks-normal"))
        elif kind is LimitKind.NORMAL_MIXTURE:
            checks.append(_ks_check(outcome, policy.ks_mixture_coeff, "ks-mixture"))
        elif kind is LimitKind.AS_RANDOM_VARIABLE:
            # Tracks normalized by n^a log n approach their limit at a
            # 1/log n rate, so settling and strict positivity of the
            # terminal sample are out of reach at any practical horizon;
            # those tracks are judged by the shared-limit trend instead.
            slow = row.normalization.kind == "power_log"
            floor = max(outcome.median_terminal_abs or 0.0, 1e-12)
            if slow:
                checks.append(
                    CheckResult(
                        "tail-settle",
                        True,
                        "skipped: logarithmic normalization settles too "
                        "slowly for a windowed check",
                    )
                )
            elif outcome.median_tail_fluctuation is None:
                checks.append(
                    CheckResult(
                        "tail-settle", True, "no checkpoints inside the tail window"
                    )
                )
            else:
                scale = (
                    policy.tail_reference_horizon / report.horizon
                ) ** policy.tail_scaling_exponent
                threshold = policy.tail_ratio * scale * floor
                checks.append(
                    CheckResult(
                        "tail-settle",
                        outcome.median_tail_fluctuation <= threshold,
                        f"median fluct {outcome.median_tail_fluctuation:.4g} vs "
                        f"{threshold:.4g}",
                    )
                )
            nondeg = policy.nondegeneracy_rel * max(floor * floor, 1e-12)
            checks.append(
                CheckResult(
                    "non-degenerate",
                    outcome.sample_variance > nondeg,
                    f"terminal variance {outcome.sample_variance:.4g} vs {nondeg:.3g}",
                )
            )
            if row.positive_limit and not slow:
                checks.append(
                    CheckResult(
                        "positive",
                        bool(outcome.all_positive),
                        "all terminal values positive"
                        if outcome.all_positive
                        else "some terminal values are not positive",
                    )
                )
            if outcome.colimit_gap_medians is not None:
                checks.append(_colimit_check(outcome, report.checkpoints, policy))
            if row.limit_variance is not None:
                gap = abs(outcome.sample_variance - row.limit_variance)
                tol = policy.variance_rtol * row.limit_variance
                checks.append(
                    CheckResult(
                        "limit-variance",
                        gap <= tol,
                        f"|{outcome.sample_variance:.5g} - {row.limit_variance:g}| "
                        f"= {gap:.3g} vs {tol:.3g}",
                    )
                )
        mean_check = _mean_check(outcome, policy)
        if mean_check is not None:
            checks.append(mean_check)
        rows.append(
            RowVerdict(
                label=row.label,
                passed=all(c.passed for c in checks),
                checks=tuple(checks),
            )
        )
    return ReportVerdict(passed=all(r.passed for r in rows), rows=tuple(rows))
