"""Full-scale acceptance checks, one test per numbered criterion.

Each test prints a single ``ACCEPTANCE nn PASS/FAIL`` line with the measured
quantities next to their bounds (visible with ``pytest -s``, or in captured
output on failure).  Scales are the ones the statistical verdicts were
designed for, so the whole module takes a few minutes; every run is
deterministic because all seeds are frozen.
"""

from collections import Counter

import numpy as np
import pytest

import urnlab as ul
from urnlab import ks_standard_normal

pytestmark = pytest.mark.slow

# One dyadic spec per supported family, shared by the exact-identity and
# simulator-agreement checks.  Dyadic entries keep the enumeration exact.
FAMILY_SPECS = {
    "identity": ([[1.0, 0.0], [0.0, 1.0]], [0.25, 0.75]),
    "two_irreducible": ([[0.75, 0.25], [0.5, 0.5]], [0.5, 0.5]),
    "two_triangular": ([[0.5, 0.5], [0.0, 1.0]], [0.5, 0.5]),
    "three_one_dominant": (
        [[0.375, 0.125, 0.5], [0.125, 0.375, 0.5], [0.0, 0.0, 1.0]],
        [0.25, 0.25, 0.5],
    ),
    "three_two_dominant_diag": (
        [[0.5, 0.25, 0.25], [0.0, 0.75, 0.25], [0.0, 0.25, 0.75]],
        [0.5, 0.25, 0.25],
    ),
    "three_two_dominant_jordan": (
        [[0.5, 0.375, 0.125], [0.0, 0.75, 0.25], [0.0, 0.25, 0.75]],
        [0.5, 0.25, 0.25],
    ),
    "four_block_diag": (
        [
            [0.375, 0.125, 0.25, 0.25],
            [0.125, 0.375, 0.25, 0.25],
            [0.0, 0.0, 0.5, 0.5],
            [0.0, 0.0, 0.5, 0.5],
        ],
        [0.25, 0.25, 0.375, 0.125],
    ),
    "four_block_jordan": (
        [
            [0.25, 0.25, 0.375, 0.125],
            [0.25, 0.25, 0.125, 0.375],
            [0.0, 0.0, 0.5, 0.5],
            [0.0, 0.0, 0.5, 0.5],
        ],
        [0.25, 0.25, 0.25, 0.25],
    ),
}

# Non-diagonalizable three-color reference: coupling row (0.45, 0.05) picks
# out the generalized-eigenvector track with a nonzero drift coefficient.
JORDAN_REFERENCE = (
    [[0.5, 0.45, 0.05], [0.0, 0.75, 0.25], [0.0, 0.25, 0.75]],
    [0.25, 0.75, 0.0],
)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _outcome(report, label):
    for o in report.outcomes:
        if o.prediction.label == label:
            return o
    raise AssertionError(f"no prediction row labeled {label!r}")


def test_criterion_01_martingale_mean_identities():
    """Tree-enumerated E[C_n . v] matches pi_n(a) * C_0 . v on eigen rows."""
    worst = 0.0
    rows_checked = 0
    for name, (matrix, initial) in FAMILY_SPECS.items():
        spec = ul.new_spec(matrix, initial)
        klass = ul.classify(spec)
        eigen_rows = [
            row for row in ul.predict(klass) if row.martingale_eigenvalue is not None
        ]
        assert eigen_rows, name
        for row in eigen_rows:
            a = row.martingale_eigenvalue
            base = float(spec.initial @ row.vector)
            for n in range(1, 11):
                lhs = ul.exact_mean_linear(spec, row.vector, a, n)
                err = abs(lhs - ul.pi_n(a, n) * base)
                worst = max(worst, err)
            rows_checked += 1
    _report(
        1,
        worst < 1e-10,
        f"max |E[C_n.v] - pi_n(a) C_0.v| = {worst:.3e} < 1e-10 "
        f"({rows_checked} eigen rows, 8 families, n <= 10)",
    )


def test_criterion_02_compensated_jordan_track():
    """Exact one-step check of the compensated generalized-eigenvector track."""
    spec = ul.new_spec(*JORDAN_REFERENCE)
    klass = ul.classify(spec)
    err = ul.compensated_martingale_check(spec, klass, 6)
    wrong = klass.jordan_basis_matrix.copy()
    wrong[:, 1] *= 1.01
    err_perturbed = ul.compensated_martingale_check(spec, klass, 6, basis_matrix=wrong)
    _report(
        2,
        err < 1e-10 and err_perturbed > 1e-5,
        f"compensated deviation {err:.3e} < 1e-10, "
        f"perturbed-basis control {err_perturbed:.3e} > 1e-5",
    )


def test_criterion_03_product_gamma_ratio():
    """pi_n(a) Gamma(a+1) / n^a is within 1e-3 of 1 at n = 10^6."""
    worst = max(abs(ul.euler_ratio(a, 10**6) - 1.0) for a in (-0.5, 0.3, 0.5, 0.9))
    _report(3, worst < 1e-3, f"max |ratio - 1| = {worst:.3e} < 1e-3 at n=1e6")


def test_criterion_04_two_color_clt():
    """Two-color fluctuation track is standard normal after sqrt(n) scaling."""
    spec = ul.new_spec([[0.7, 0.3], [0.4, 0.6]], [4 / 7, 3 / 7])
    klass = ul.classify(spec)
    report = ul.run_ensemble(spec, ul.predict(klass), horizon=10**5, ensemble=10**4, seed=20240902)
    fluct = _outcome(report, "fluct")
    assert abs(fluct.prediction.variance - 0.16875) < 1e-12
    d, _ = fluct.ks_stat, fluct.ks_pvalue
    _report(4, d < 0.03, f"KS D = {d:.4f} < 0.03 (variance 0.16875, M=1e4, N=1e5)")


def test_criterion_05_mixture_studentization():
    """Per-trajectory studentization is normal; pooled studentization is not."""
    spec = ul.new_spec(
        [[0.325, 0.175, 0.5], [0.175, 0.325, 0.5], [0.0, 0.0, 1.0]],
        [0.175, 0.175, 0.65],
    )
    klass = ul.classify(spec)
    report = ul.run_ensemble(spec, ul.predict(klass), horizon=10**5, ensemble=10**4, seed=20240905)
    sub = _outcome(report, "sub_fluct")
    d_per = sub.ks_stat
    cv = report.u_hats.std(ddof=1) / report.u_hats.mean()
    pooled = sub.normalized_terminal / np.sqrt(
        sub.prediction.mixture_coefficient * report.u_hats.mean()
    )
    d_pooled, _ = ks_standard_normal(pooled)
    _report(
        5,
        d_per < 0.05 and d_pooled > 0.05 and cv > 0.3,
        f"per-trajectory KS D = {d_per:.4f} < 0.05, pooled-variance control "
        f"D = {d_pooled:.4f} > 0.05, CV(U-hat) = {cv:.3f} > 0.3",
    )


def test_criterion_06_four_color_jordan_mixture():
    """Four-color generalized track studentizes to standard normal."""
    spec = ul.new_spec(*FAMILY_SPECS["four_block_jordan"])
    klass = ul.classify(spec)
    report = ul.run_ensemble(spec, ul.predict(klass), horizon=10**5, ensemble=10**4, seed=20240906)
    dom = _outcome(report, "dom_fluct")
    assert abs(dom.prediction.mixture_coefficient - 2.0) < 1e-9
    d = dom.ks_stat
    _report(6, d < 0.05, f"studentized KS D = {d:.4f} < 0.05 (coefficient 2.0)")


def test_criterion_07_almost_sure_limits():
    """Power-law tracks settle: small tail wobble, positive limits, spread."""
    cases = [
        ("two_triangular s=0.6", [[0.6, 0.4], [0.0, 1.0]], [0.5, 0.5], 20240907),
        (
            "three_one_dominant lam=0.75",
            [[0.7875, 0.1125, 0.1], [0.1125, 0.7875, 0.1], [0.0, 0.0, 1.0]],
            [0.5, 0.0, 0.5],
            20240908,
        ),
    ]
    lines = []
    ok = True
    for name, matrix, initial, seed in cases:
        spec = ul.new_spec(matrix, initial)
        klass = ul.classify(spec)
        report = ul.run_ensemble(spec, ul.predict(klass), horizon=10**6, ensemble=10**3, seed=seed)
        measured = 0
        for o in report.outcomes:
            if o.median_tail_fluctuation is None:
                continue
            measured += 1
            ratio = o.median_tail_fluctuation / max(o.median_terminal_abs, 1e-12)
            spread = o.normalized_terminal.var(ddof=1)
            good = ratio < 0.05 and spread > 0.0
            if o.prediction.positive_limit:
                good = good and bool(np.all(o.normalized_terminal > 0.0))
            ok = ok and good
            lines.append(f"{name}/{o.prediction.label} tail={ratio:.4f}")
        ok = ok and measured > 0
    _report(7, ok, "; ".join(lines) + " (all < 0.05, positive, var > 0)")


def test_criterion_08_exactly_constant_tracks():
    """Zero-eigenvalue combinations never move, to 1e-12, on every path."""
    cases = [
        ([[0.5, 0.5], [0.5, 0.5]], [0.25, 0.75]),
        ([[0.25, 0.25, 0.5], [0.25, 0.25, 0.5], [0.0, 0.0, 1.0]], [0.5, 0.25, 0.25]),
        ([[0.5, 0.375, 0.125], [0.0, 0.5, 0.5], [0.0, 0.5, 0.5]], [0.5, 0.25, 0.25]),
        FAMILY_SPECS["four_block_diag"],
        (FAMILY_SPECS["four_block_jordan"][0], [0.375, 0.125, 0.25, 0.25]),
    ]
    worst = 0.0
    rows = 0
    for i, (matrix, initial) in enumerate(cases):
        spec = ul.new_spec(matrix, initial)
        klass = ul.classify(spec)
        report = ul.run_ensemble(
            spec, ul.predict(klass), horizon=1000, ensemble=100, seed=20240912 + i
        )
        devs = [
            o.constant_deviation
            for o in report.outcomes
            if o.constant_deviation is not None
        ]
        assert devs, f"case {i} has no exactly-constant track"
        worst = max(worst, max(devs))
        rows += len(devs)
    _report(
        8,
        worst <= 1e-12,
        f"max deviation over {rows} constant tracks x 100 paths = {worst:.3e} <= 1e-12",
    )


def test_criterion_09_identity_limit_moments():
    """Identity replacement: share of color 0 has the arcsine-law moments."""
    spec = ul.new_spec([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5])
    klass = ul.classify(spec)
    report = ul.run_ensemble(spec, ul.predict(klass), horizon=10**5, ensemble=10**4, seed=20240909)
    share = _outcome(report, "share_0").normalized_terminal
    se = share.std(ddof=1) / np.sqrt(share.size)
    mean_err = abs(share.mean() - 0.5)
    var_err = abs(share.var(ddof=1) - 0.125)
    _report(
        9,
        mean_err < 3 * se and var_err < 0.05 * 0.125,
        f"|mean - 0.5| = {mean_err:.5f} < 3 s.e. = {3 * se:.5f}, "
        f"|var - 0.125| = {var_err:.5f} < 0.00625",
    )


def test_criterion_10_jordan_colimit_trend():
    """Gap between the log-scaled track and its co-limit shrinks with n."""
    spec = ul.new_spec(*JORDAN_REFERENCE)
    klass = ul.classify(spec)
    report = ul.run_ensemble(
        spec,
        ul.predict(klass),
        horizon=10**6,
        ensemble=1024,
        seed=20240910,
        checkpoints=[0, 10**4, 10**5, 10**6],
    )
    dom = _outcome(report, "dom_fluct")
    gaps = [float(g) for g in dom.colimit_gap_medians if np.isfinite(g)]
    assert len(gaps) == 3
    decreasing = gaps[0] > gaps[1] > gaps[2]
    _report(
        10,
        decreasing,
        "median gaps at n=1e4/1e5/1e6 = "
        + "/".join(f"{g:.4f}" for g in gaps)
        + " strictly decreasing",
    )


def test_criterion_11_simulator_enumeration_agreement():
    """Simulated n=8 composition law matches the enumerated one in TV."""
    worst = ("", 0.0)
    for name, (matrix, initial) in FAMILY_SPECS.items():
        spec = ul.new_spec(matrix, initial)
        exact = {
            tuple(np.round(np.asarray(a.counts), 12)): a.probability
            for a in ul.exact_distribution(spec, 8)
        }
        paths = ul.simulate_many(spec, 8, 20240911, 10**5, checkpoints=[0, 8])
        terminal = paths.states[:, -1, :]
        counts = Counter(tuple(np.round(row, 12)) for row in terminal)
        m = terminal.shape[0]
        tv = 0.5 * sum(
            abs(counts.get(k, 0) / m - exact.get(k, 0.0))
            for k in set(counts) | set(exact)
        )
        if tv > worst[1]:
            worst = (name, tv)
    _report(
        11,
        worst[1] < 0.02,
        f"max TV over 8 families = {worst[1]:.5f} ({worst[0]}) < 0.02 "
        "(n=8, 1e5 trajectories)",
    )
