import numpy as np
import pytest
import scipy.stats

from urnlab import (
    LimitKind,
    VerdictPolicy,
    classify,
    evaluate_report,
    ks_standard_normal,
    new_spec,
    predict,
    run_ensemble,
    studentize,
)

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


def test_run_ensemble_rejects_bad_checkpoint_grids():
    k = classify(TWO)
    for bad in ([], 5, [[0, 1000]]):
        with pytest.raises(ValueError, match="checkpoints"):
            run_ensemble(TWO, predict(k), horizon=1000, ensemble=100, checkpoints=bad)
    # Non-integral entries are named, not truncated.
    for bad in ([0, 2.5, 1000], [0, True, 1000], np.array([0, 3.9, 1000])):
        with pytest.raises(ValueError, match=r"checkpoints\[1\] is not an integer"):
            run_ensemble(TWO, predict(k), horizon=1000, ensemble=100, checkpoints=bad)


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


def test_policy_thresholds_shape_verdicts():
    k = classify(TWO)
    rep = run_ensemble(TWO, predict(k), horizon=4000, ensemble=600, seed=8)
    tight = VerdictPolicy(ks_normal_coeff=0.001)
    assert not evaluate_report(rep, tight).passed
