import numpy as np
import pytest
import scipy.stats

from urnlab import (
    EnsembleReport,
    LimitKind,
    Normalization,
    PredictionOutcome,
    classify,
    core,
    evaluate_report,
    ks_standard_normal,
    new_spec,
    predict,
    run_ensemble,
    studentize,
    verify,
)
from urnlab.laws import LawPrediction

TWO = new_spec([[0.7, 0.3], [0.4, 0.6]], [4 / 7, 3 / 7])
MIX = new_spec(
    [[0.3125, 0.1875, 0.5], [0.1875, 0.3125, 0.5], [0.0, 0.0, 1.0]],
    [0.25, 0.25, 0.5],
)


def test_ks_agrees_with_scipy_on_normal_and_shifted_samples():
    # the p-value intentionally uses the asymptotic Kolmogorov series
    rng = np.random.default_rng(2024)
    for sample in (rng.standard_normal(500), rng.standard_normal(500) + 0.4):
        d, p = ks_standard_normal(sample)
        ref = scipy.stats.kstest(sample, "norm", mode="asymp")
        assert d == pytest.approx(ref.statistic, abs=1e-12)
        assert p == pytest.approx(ref.pvalue, abs=1e-9)


def test_ks_degenerate_sample_statistic():
    d, p = ks_standard_normal(np.zeros(100))
    assert d == pytest.approx(0.5)
    assert p < 1e-12


def test_ks_needs_fifty_points():
    with pytest.raises(ValueError, match="50"):
        ks_standard_normal(np.zeros(49))


def test_studentize_normal_track():
    k = classify(TWO)
    fluct = [r for r in predict(k) if r.limit_kind is LimitKind.NORMAL][0]
    z, dropped = studentize(np.array([0.4, -0.4]), fluct)
    assert dropped == 0
    np.testing.assert_allclose(z, [0.4, -0.4] / np.sqrt(fluct.variance))


def test_studentize_mixture_drops_collapsed_trajectories():
    k = classify(MIX)
    sub = [r for r in predict(k) if r.limit_kind is LimitKind.NORMAL_MIXTURE][0]
    x = np.array([1.0, 1.0, 1.0])
    u = np.array([4.0, 1.0, 0.0])
    z, dropped = studentize(x, sub, u_hats=u)
    assert dropped == 1
    c = sub.mixture_coefficient
    # z stays aligned with the sample; the dropped trajectory reads NaN
    np.testing.assert_allclose(z, [1 / np.sqrt(4 * c), 1 / np.sqrt(c), np.nan])
    with pytest.raises(ValueError, match="u_hats"):
        studentize(x, sub)


def test_studentize_rejects_constant_tracks():
    k = classify(TWO)
    mass = predict(k)[0]
    with pytest.raises(ValueError):
        studentize(np.array([1.0]), mass)


def test_estimate_u_positive_and_matches_track():
    rep = run_ensemble(MIX, predict(classify(MIX)), horizon=2000, ensemble=100, seed=3)
    sub_total = rep.track_values[:, -1, rep.track_labels.index("sub_total")]
    assert rep.u_hats == pytest.approx(sub_total / 2000**0.5)
    assert (rep.u_hats > 0).all()
    two = run_ensemble(TWO, predict(classify(TWO)), horizon=1000, ensemble=100, seed=1)
    assert two.u_hats is None


def test_run_ensemble_is_deterministic():
    k = classify(TWO)
    a = run_ensemble(TWO, predict(k), horizon=1000, ensemble=100, seed=5)
    b = run_ensemble(TWO, predict(k), horizon=1000, ensemble=100, seed=5)
    assert a.outcomes[1].raw_terminal.tolist() == b.outcomes[1].raw_terminal.tolist()
    assert a.outcomes[1].ks_stat == b.outcomes[1].ks_stat
    c = run_ensemble(TWO, predict(k), horizon=1000, ensemble=100, seed=6)
    assert a.outcomes[1].raw_terminal.tolist() != c.outcomes[1].raw_terminal.tolist()


def test_run_ensemble_guards():
    k = classify(TWO)
    with pytest.raises(ValueError, match="horizon"):
        run_ensemble(TWO, predict(k), horizon=10, ensemble=100)
    with pytest.raises(ValueError, match="horizon is not an integer: 1000.9"):
        run_ensemble(TWO, predict(k), horizon=1000.9, ensemble=100)
    with pytest.raises(ValueError, match="ensemble"):
        run_ensemble(TWO, predict(k), horizon=1000, ensemble=5)
    with pytest.raises(ValueError, match="ensemble is not an integer: 100.5"):
        run_ensemble(TWO, predict(k), horizon=1000, ensemble=100.5)
    with pytest.raises(ValueError, match="resource cap"):
        run_ensemble(TWO, predict(k), horizon=10**6, ensemble=10**6)
    with pytest.raises(ValueError, match="end at the horizon"):
        run_ensemble(TWO, predict(k), horizon=1000, ensemble=100, checkpoints=[0, 500])
    with pytest.raises(ValueError, match="unknown prediction"):
        run_ensemble(TWO, predict(k), predictions=["nope"], horizon=1000, ensemble=100)
    with pytest.raises(ValueError, match=r"available: \['fluct', 'mass'\]"):
        run_ensemble(TWO, predict(k), predictions=["nope"], horizon=1000, ensemble=100)
    with pytest.raises(ValueError, match="'fluct' is selected twice"):
        run_ensemble(TWO, predict(k), predictions=["fluct", "fluct"], horizon=1000,
                     ensemble=100)
    # Rows are selected by label only.
    with pytest.raises(ValueError, match="unknown prediction label LawPrediction"):
        run_ensemble(TWO, predict(k), predictions=predict(k)[1:], horizon=1000,
                     ensemble=100)


def test_run_ensemble_refuses_a_string_of_predictions_before_any_draw(monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("simulated before refusing the selection")

    monkeypatch.setattr(verify, "simulate_many", no_draws)
    rows = predict(classify(TWO))
    for bad in ("fluct", "all", ""):
        with pytest.raises(
            ValueError,
            match=f"predictions must be None or a sequence of labels, not the string {bad!r}",
        ):
            run_ensemble(TWO, rows, predictions=bad, horizon=1000, ensemble=100)


def test_run_ensemble_rejects_bad_checkpoint_grids():
    k = classify(TWO)
    for bad in ([], 5, [[0, 1000]]):
        with pytest.raises(ValueError, match="checkpoints"):
            run_ensemble(TWO, predict(k), horizon=1000, ensemble=100, checkpoints=bad)
    # Non-integral entries are named, not truncated.
    for bad in ([0, 2.5, 1000], [0, True, 1000], np.array([0, 3.9, 1000])):
        with pytest.raises(ValueError, match=r"checkpoints\[1\] is not an integer"):
            run_ensemble(TWO, predict(k), horizon=1000, ensemble=100, checkpoints=bad)


def test_run_ensemble_refuses_a_horizon_beyond_int64():
    k = classify(TWO)
    with pytest.raises(ValueError, match=r"horizon must be below 2\*\*63"):
        run_ensemble(TWO, predict(k), horizon=2**64, ensemble=100, max_draws=2**80)
    with pytest.raises(ValueError, match=r"checkpoints\[1\] does not fit in int64"):
        run_ensemble(TWO, predict(k), horizon=2**64, ensemble=100, max_draws=2**80,
                     checkpoints=[0, 2**64])


def test_run_ensemble_selection_by_label():
    k = classify(TWO)
    rep = run_ensemble(TWO, predict(k), predictions=["fluct"], horizon=1000, ensemble=100,
                       seed=2)
    assert [o.prediction.label for o in rep.outcomes] == ["fluct"]
    # sibling tracks are still recorded for studentization and gap checks
    assert rep.track_labels == ("mass", "fluct")


def test_evaluate_report_passes_well_specified_model():
    k = classify(TWO)
    rep = run_ensemble(TWO, predict(k), horizon=4000, ensemble=600, seed=8)
    verdict = evaluate_report(rep)
    assert verdict.passed
    names = {c.name for row in verdict.rows for c in row.checks}
    assert {"mass-law", "ks-normal", "mean"} <= names


def test_evaluate_report_rejects_wrong_variance():
    k = classify(TWO)
    rep = run_ensemble(TWO, predict(k), horizon=4000, ensemble=600, seed=8,
                       variance_scale=4.0)
    verdict = evaluate_report(rep)
    assert not verdict.passed
    fluct = [r for r in verdict.rows if r.label == "fluct"][0]
    ks = [c for c in fluct.checks if c.name == "ks-normal"][0]
    assert not ks.passed


@pytest.mark.parametrize("scale, passes", [(1.0, True), (4.0, False)])
def test_ks_mixture_rejects_wrong_mixture_variance(scale, passes):
    # configs/three_color_mixture.json (MIX, seed 42) at horizon 3000.  The
    # threshold is 3.7 * 1.36 / sqrt(m), and a 4x variance error gives D of
    # about 0.19, so below about 700 trajectories this check cannot see it
    # (ensemble 300 passes with D = 0.193 against 0.291).  At 1000 it fails.
    rep = run_ensemble(MIX, predict(classify(MIX)), horizon=3000, ensemble=1000,
                       seed=42, variance_scale=scale)
    verdict = evaluate_report(rep)
    sub = [r for r in verdict.rows if r.label == "sub_fluct"][0]
    ks = [c for c in sub.checks if c.name == "ks-mixture"][0]
    assert ks.passed is passes
    assert verdict.passed is passes


def test_evaluate_report_rejects_pooled_mixture_studentization():
    # dividing by the ensemble-mean U instead of each trajectory's own
    # estimate must fail whenever U genuinely varies
    k = classify(MIX)
    rep = run_ensemble(MIX, predict(k), horizon=4000, ensemble=600, seed=8)
    sub = [o for o in rep.outcomes if o.prediction.label == "sub_fluct"][0]
    pooled = sub.normalized_terminal / np.sqrt(
        sub.prediction.mixture_coefficient * rep.u_hats.mean()
    )
    d_pooled, p_pooled = ks_standard_normal(pooled)
    d_per, _ = ks_standard_normal(sub.z_sample)
    assert d_per < d_pooled
    assert p_pooled < 0.01


def test_policy_thresholds_shape_verdicts(monkeypatch):
    k = classify(TWO)
    rep = run_ensemble(TWO, predict(k), horizon=4000, ensemble=600, seed=8)
    assert evaluate_report(rep).passed
    monkeypatch.setattr(verify, "KS_NORMAL_COEFF", 0.001)
    assert not evaluate_report(rep).passed


# Synthetic outcomes, no simulation: each case pins the exact checks
# evaluate_report renders for one row, in order.  The shared grid reaches
# 1%, 10% and 100% of the horizon, which the colimit-trend check picks.
_HORIZON = 10_000
_GRID = np.array([0, 10, 100, 1_000, 10_000])
_PERIODIC = "dominant block is periodic; this normal claim is unverified"


def _outcome(kind, normalization=Normalization("power", 0.5), row=None, **fields):
    prediction = LawPrediction(
        label="x", vector=np.ones(2), normalization=normalization,
        limit_kind=kind, **(row or {}),
    )
    measured = dict(
        raw_terminal=np.ones(3), normalized_terminal=np.ones(3), sample_mean=0.0,
        sample_variance=1.0, expected_mean=None, mean_se=0.0,
    )
    measured.update(fields)
    return PredictionOutcome(prediction=prediction, **measured)


def _settled(**fields):
    # An almost-sure row with a measured tail; its threshold at this horizon
    # is 0.05 * (1e6 / 1e4)**0.25 * 2 = 0.3162.
    measured = dict(median_tail_fluctuation=0.1, median_terminal_abs=2.0)
    measured.update(fields)
    return _outcome(LimitKind.AS_RANDOM_VARIABLE, **measured)


_NONDEG = ("non-degenerate", True, "terminal variance 1 vs 4e-06")
_SETTLED = ("tail-settle", True, "median fluct 0.1 vs 0.3162")
_VERDICT_CASES = {
    "mass-law": (
        _outcome(LimitKind.DETERMINISTIC_CONSTANT, Normalization("mass"),
                 row=dict(limit_mean=1.0), constant_deviation=2e-10,
                 sample_mean=1.0, expected_mean=1.0),
        [("mass-law", True, "max |normalized - 1| = 2e-10"),
         ("mean", True, "|1 - 1| = 0 vs 1e-09")],
    ),
    "mass-law-fail": (
        _outcome(LimitKind.DETERMINISTIC_CONSTANT, Normalization("mass"),
                 row=dict(limit_mean=1.0), constant_deviation=1e-8),
        [("mass-law", False, "max |normalized - 1| = 1e-08")],
    ),
    "constant-track": (
        _outcome(LimitKind.EXACTLY_CONSTANT_TRACK, row=dict(initial_value=0.25),
                 constant_deviation=0.0),
        [("constant-track", True, "max |track - 0.25| = 0")],
    ),
    "ks-normal-pass": (
        _outcome(LimitKind.NORMAL, z_sample=np.zeros(100), ks_stat=0.1, ks_pvalue=0.3,
                 sample_mean=0.5, expected_mean=0.25, mean_se=0.125),
        [("ks-normal", True, "D = 0.1000 vs 0.2992 (m = 100, p = 0.3)"),
         ("mean", True, "|0.5 - 0.25| = 0.25 vs 0.5")],
    ),
    "ks-normal-fail": (
        _outcome(LimitKind.NORMAL, z_sample=np.zeros(100), ks_stat=0.5,
                 ks_pvalue=1e-20, sample_mean=0.5, expected_mean=0.0, mean_se=0.0),
        [("ks-normal", False, "D = 0.5000 vs 0.2992 (m = 100, p = 1e-20)"),
         ("mean", False, "|0.5 - 0| = 0.5 vs 1e-09")],
    ),
    "ks-normal-unverified": (
        _outcome(LimitKind.NORMAL, row=dict(notes=_PERIODIC), z_sample=np.zeros(100),
                 ks_stat=0.9, ks_pvalue=0.0),
        [("ks-normal", True, "skipped: " + _PERIODIC)],
    ),
    "ks-normal-too-small": (
        _outcome(LimitKind.NORMAL, z_sample=np.zeros(40)),
        [("ks-normal", False, "sample too small for a KS comparison")],
    ),
    "ks-mixture-dropped": (
        _outcome(LimitKind.NORMAL_MIXTURE, z_sample=np.zeros(400), dropped=4,
                 ks_stat=0.1, ks_pvalue=0.5),
        [("ks-mixture", True, "D = 0.1000 vs 0.2529 (m = 396, p = 0.5, dropped 4)")],
    ),
    "tail-power-log": (
        _settled(normalization=Normalization("power_log", 1.0),
                 row=dict(positive_limit=True), median_tail_fluctuation=9.0,
                 all_positive=False),
        [("tail-settle", True, "skipped: logarithmic normalization settles too "
          "slowly for a windowed check"), _NONDEG],
    ),
    "tail-no-window": (
        _settled(median_tail_fluctuation=None),
        [("tail-settle", True, "no checkpoints inside the tail window"), _NONDEG],
    ),
    "tail-fail-degenerate": (
        _settled(median_tail_fluctuation=0.5, sample_variance=0.0),
        [("tail-settle", False, "median fluct 0.5 vs 0.3162"),
         ("non-degenerate", False, "terminal variance 0 vs 4e-06")],
    ),
    "positive": (
        _settled(row=dict(positive_limit=True), all_positive=True),
        [_SETTLED, _NONDEG, ("positive", True, "all terminal values positive")],
    ),
    "not-positive": (
        _settled(row=dict(positive_limit=True), all_positive=False),
        [_SETTLED, _NONDEG,
         ("positive", False, "some terminal values are not positive")],
    ),
    "colimit-too-narrow": (
        _settled(colimit_gap_medians=np.array([np.nan, np.nan, np.nan, np.nan, 1.0])),
        [_SETTLED, _NONDEG,
         ("colimit-trend", True, "checkpoint grid too narrow for a trend check")],
    ),
    "colimit-decreasing": (
        _settled(colimit_gap_medians=np.array([np.nan, 5.0, 3.0, 2.0, 1.0])),
        [_SETTLED, _NONDEG,
         ("colimit-trend", True, "n=100: 3, n=1000: 2, n=10000: 1")],
    ),
    "colimit-not-decreasing": (
        _settled(colimit_gap_medians=np.array([np.nan, 5.0, 3.0, 3.0, 1.0])),
        [_SETTLED, _NONDEG,
         ("colimit-trend", False, "n=100: 3, n=1000: 3, n=10000: 1")],
    ),
    "every-almost-sure-check": (
        _settled(row=dict(positive_limit=True, limit_variance=2.0), all_positive=True,
                 colimit_gap_medians=np.array([np.nan, 5.0, 3.0, 2.0, 1.0]),
                 sample_variance=2.05, sample_mean=1.0, expected_mean=1.0),
        [_SETTLED, ("non-degenerate", True, "terminal variance 2.05 vs 4e-06"),
         ("positive", True, "all terminal values positive"),
         ("colimit-trend", True, "n=100: 3, n=1000: 2, n=10000: 1"),
         ("limit-variance", True, "|2.05 - 2| = 0.05 vs 0.1"),
         ("mean", True, "|1 - 1| = 0 vs 1e-09")],
    ),
    "limit-variance-pass": (
        _settled(row=dict(limit_variance=2.0), sample_variance=2.05),
        [_SETTLED, ("non-degenerate", True, "terminal variance 2.05 vs 4e-06"),
         ("limit-variance", True, "|2.05 - 2| = 0.05 vs 0.1")],
    ),
    "limit-variance-fail": (
        _settled(row=dict(limit_variance=2.0), sample_variance=2.5,
                 sample_mean=1.0, expected_mean=1.0, mean_se=0.25),
        [_SETTLED, ("non-degenerate", True, "terminal variance 2.5 vs 4e-06"),
         ("limit-variance", False, "|2.5 - 2| = 0.5 vs 0.1"),
         ("mean", True, "|1 - 1| = 0 vs 1")],
    ),
}


@pytest.mark.parametrize("case", list(_VERDICT_CASES))
def test_evaluate_report_renders_every_check_branch(case):
    outcome, expected = _VERDICT_CASES[case]
    report = EnsembleReport(
        horizon=_HORIZON, ensemble=3, seed=0, variance_scale=1.0, checkpoints=_GRID,
        u_hats=None, max_mass_drift=0.0, outcomes=(outcome,),
    )
    (row,) = evaluate_report(report).rows
    assert [(c.name, c.passed, c.detail) for c in row.checks] == expected
    assert row.passed is all(passed for _, passed, _ in expected)


def test_verdict_cases_cover_every_limit_kind():
    kinds = {outcome.prediction.limit_kind for outcome, _ in _VERDICT_CASES.values()}
    assert kinds == set(LimitKind)


@pytest.mark.parametrize("scale", [np.nan, np.inf, -np.inf, 0.0, -1.0])
def test_bad_variance_scale_is_refused_before_any_draw(monkeypatch, scale):
    def no_draws(*args, **kwargs):
        raise AssertionError("simulate_many was called")

    monkeypatch.setattr(verify, "simulate_many", no_draws)
    k = classify(TWO)
    message = "variance_scale: must be a positive finite number"
    with pytest.raises(ValueError, match=message):
        run_ensemble(TWO, predict(k), horizon=1000, ensemble=100, variance_scale=scale)
    fluct = [r for r in predict(k) if r.limit_kind is LimitKind.NORMAL][0]
    with pytest.raises(ValueError, match=message):
        studentize(np.array([0.4, -0.4]), fluct, variance_scale=scale)


@pytest.mark.parametrize("cap, message", [
    (np.nan, "max_draws is not an integer"),
    (np.inf, "max_draws is not an integer"),
    (True, "max_draws is not an integer"),
    ("4e9", "max_draws is not an integer"),
    (10**6 + 0.5, "max_draws is not an integer"),
    (0, "max_draws must be at least 1"),
    (-1, "max_draws must be at least 1"),
])
def test_bad_max_draws_is_refused_before_any_draw(monkeypatch, cap, message):
    def no_draws(*args, **kwargs):
        raise AssertionError("simulate_many was called")

    monkeypatch.setattr(verify, "simulate_many", no_draws)
    with pytest.raises(ValueError, match=message):
        run_ensemble(TWO, predict(classify(TWO)), horizon=1000, ensemble=100,
                     max_draws=cap)


def _doctored_mass_row(monkeypatch, spec, edit=None):
    """The mass row's outcome and check of run_ensemble(spec), with
    edit(mass_track, checkpoints) applied to the simulated paths first."""
    def doctored(*args, **kwargs):
        paths = core.simulate_many(*args, **kwargs)
        if edit is not None:
            edit(paths.tracks[:, :, 0], paths.checkpoints)
        return paths

    monkeypatch.setattr(verify, "simulate_many", doctored)
    report = run_ensemble(spec, predict(classify(spec)), horizon=1000, ensemble=100,
                          seed=5)
    outcome, row = report.outcomes[0], evaluate_report(report).rows[0]
    assert outcome.prediction.label == row.label == "mass"
    mass_law = next(c for c in row.checks if c.name == "mass-law")
    return report, outcome, mass_law


def _set_nan(track, cps):
    track[17, 3] = np.nan


def _move_one(track, cps):
    track[42, -2] -= 1e-8 * (cps[-2] + 1)


@pytest.mark.parametrize("edit", [_set_nan, _move_one])
@pytest.mark.parametrize("spec", [TWO, MIX], ids=["general-step", "exact-step"])
def test_mass_law_fails_on_doctored_mass_track(monkeypatch, spec, edit):
    _, _, clean = _doctored_mass_row(monkeypatch, spec)
    assert clean.passed
    _, _, doctored = _doctored_mass_row(monkeypatch, spec, edit)
    assert not doctored.passed


@pytest.mark.parametrize("spec", [TWO, MIX], ids=["general-step", "exact-step"])
def test_mass_deviation_matches_out_of_place_expression(monkeypatch, spec):
    report, outcome, _ = _doctored_mass_row(monkeypatch, spec)
    row = outcome.prediction
    cps = report.checkpoints
    tracks_norm = report.track_values[:, :, 0] / row.normalization.at(cps)[None, :]
    expected = float(np.abs(tracks_norm - (row.limit_mean or 1.0)).max())
    assert outcome.constant_deviation.hex() == expected.hex()


def test_ks_refuses_nan_and_accepts_infinities():
    sample = np.linspace(-2.0, 2.0, 100)
    sample[[7, 30, 31]] = np.nan
    with pytest.raises(ValueError, match="3 of 100 values, the first at index 7"):
        ks_standard_normal(sample)
    sample[[7, 30, 31]] = [np.inf, -np.inf, np.inf]
    d, p = ks_standard_normal(sample)
    assert 0.0 < d < 1.0 and 0.0 <= p <= 1.0
