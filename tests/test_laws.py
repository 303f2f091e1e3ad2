import dataclasses
import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urnlab import (
    Family,
    LimitKind,
    Normalization,
    classify,
    euler_ratio,
    new_spec,
    pi_n,
    predict,
)

TWO = [[0.7, 0.3], [0.4, 0.6]]


def rows_by_label(klass):
    return {r.label: r for r in predict(klass)}


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_pi_n_frozen_values():
    assert pi_n(0.5, 2) == 1.875
    assert pi_n(0.0, 17) == 1.0
    for n in (1, 2, 10, 100):
        assert pi_n(1.0, n) == pytest.approx(n + 1, rel=1e-15)
    assert pi_n(0.3, 0) == 1.0
    # a = -1: the first factor is 0, on both the product and the log path
    assert [pi_n(-1.0, n) for n in (0, 1, 5, 5000)] == [1.0, 0.0, 0.0, 0.0]
    with pytest.raises(ValueError):
        pi_n(-1.0 - 1e-12, 5)
    with pytest.raises(ValueError, match="eigenvalue > -1"):
        euler_ratio(-1.0, 5)


def test_pi_n_refuses_a_fractional_n_and_a_nan_eigenvalue():
    for bad in (3.5, True):
        with pytest.raises(ValueError, match=f"n is not an integer: {bad!r}"):
            pi_n(0.5, bad)
        with pytest.raises(ValueError, match=f"n is not an integer: {bad!r}"):
            euler_ratio(0.5, bad)
    # Integral floats and numpy integers count as integers.
    assert pi_n(0.5, 3.0) == pi_n(0.5, np.int64(3)) == pi_n(0.5, 3)
    assert euler_ratio(0.5, 3.0) == euler_ratio(0.5, 3)
    with pytest.raises(ValueError, match="eigenvalue >= -1, got nan"):
        pi_n(math.nan, 4)
    with pytest.raises(ValueError, match="eigenvalue > -1, got nan"):
        euler_ratio(math.nan, 4)


@given(a=st.floats(-0.99, 3.0), n=st.integers(1, 999))
def test_pi_n_satisfies_its_recurrence_bitwise(a, n):
    # within the exact-product range the recurrence holds with no rounding slack
    assert pi_n(a, n) == pi_n(a, n - 1) * (1.0 + a / n)


def test_pi_n_product_and_log_paths_agree():
    for a in (-0.5, 0.25, 0.9):
        lo = pi_n(a, 1000)
        hi = pi_n(a, 1001)
        assert hi == pytest.approx(lo * (1.0 + a / 1001), rel=1e-12)


def test_pi_n_log_path_memory_stays_bounded():
    # A whole-length log1p sum held about 229 MiB at n = 10**7; blocks of
    # 2**20 terms hold two blocks at most.
    n, a = 10**7, 0.5
    tracemalloc.start()
    try:
        value = pi_n(a, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    exact = math.exp(math.lgamma(n + 1 + a) - math.lgamma(n + 1) - math.lgamma(1 + a))
    assert value == pytest.approx(exact, rel=1e-6)


def test_euler_ratio_approaches_one():
    for a in (-0.5, 0.3, 0.5, 0.9):
        assert abs(euler_ratio(a, 10**6) - 1.0) < 1e-3
    # convergence is monotone-ish in n: further out is closer
    assert abs(euler_ratio(0.9, 10**6) - 1.0) < abs(euler_ratio(0.9, 10**3) - 1.0)


def test_normalization_values_and_labels():
    n = 10**4
    assert Normalization("mass").at(n) == n + 1
    assert Normalization("power", 0.5).at(n) == pytest.approx(100.0)
    assert Normalization("sqrt_n_log_n").at(n) == pytest.approx(
        math.sqrt(n * math.log(n))
    )
    assert Normalization("power_sqrt_log", 0.5).at(n) == pytest.approx(
        math.sqrt(100.0 * math.log(n))
    )
    assert Normalization("power_log", 0.5).at(n) == pytest.approx(100.0 * math.log(n))
    assert str(Normalization("mass")) == "n+1"
    assert str(Normalization("power", 0.5)) == "n^0.5"
    # undefined points come back as nan, vectorized
    vals = Normalization("power_log", 0.5).at(np.array([0, 1, 4]))
    assert np.isnan(vals[:2]).all() and np.isfinite(vals[2])


def test_every_kind_evaluates_an_array_of_any_shape():
    n = np.array([[0, 1], [4, 10]])
    for kind in ("mass", "power", "sqrt_n_log_n", "power_sqrt_log", "power_log",
                 "exact_product"):
        norm = Normalization(kind, 0.5)
        vals = norm.at(n)
        assert vals.shape == (2, 2), kind
        assert vals[1, 1] == norm.at(10) and vals[1, 0] == norm.at(4), kind


def test_unknown_normalization_kind_is_refused_when_built():
    kinds = ["mass", "power", "sqrt_n_log_n", "power_sqrt_log", "power_log",
             "exact_product"]
    with pytest.raises(ValueError, match=re.escape(
        "unknown normalization kind 'bogus'; known kinds: " + ", ".join(kinds)
    )):
        Normalization("bogus")
    for kind in kinds:
        norm = Normalization(kind, 0.5)
        assert str(norm) and np.isfinite(norm.at(10))


@pytest.mark.parametrize("kind", ["mass", "sqrt_n_log_n"])
def test_exponent_free_kinds_ignore_a_given_exponent(kind):
    # Both kinds ignore an exponent, so one given must not tell two equal
    # sequences apart.
    plain = Normalization(kind)
    for exponent in (0.5, math.nan, "x"):
        given_one = Normalization(kind, exponent)
        assert given_one == plain and hash(given_one) == hash(plain)
        assert given_one.exponent is None


@pytest.mark.parametrize(
    "kind", ["power", "power_sqrt_log", "power_log", "exact_product"]
)
@pytest.mark.parametrize("exponent", [None, math.nan, math.inf, True])
def test_exponent_kinds_refuse_a_missing_exponent_when_built(kind, exponent):
    with pytest.raises(ValueError, match=re.escape(
        f"normalization kind {kind!r} needs a finite exponent, got {exponent!r}"
    )):
        Normalization(kind, exponent)


def test_two_color_prediction_frozen():
    rows = rows_by_label(classify(new_spec(TWO, [4 / 7, 3 / 7])))
    fluct = rows["fluct"]
    assert fluct.limit_kind is LimitKind.NORMAL
    # a^2 pi.xi^2 / (1 - 2a) with a = 0.3, pi = (4/7, 3/7), xi = (0.75, -1)
    assert fluct.variance == pytest.approx(0.16875)
    assert fluct.initial_value == pytest.approx(0.0, abs=1e-12)
    assert fluct.martingale_eigenvalue == pytest.approx(0.3)
    assert rows["mass"].limit_kind is LimitKind.DETERMINISTIC_CONSTANT


def test_two_color_boundary_and_as_regimes():
    half = rows_by_label(classify(new_spec([[0.75, 0.25], [0.25, 0.75]], [0.5, 0.5])))
    assert half["fluct"].normalization.kind == "sqrt_n_log_n"
    assert half["fluct"].variance == pytest.approx(0.25 * 1.0)
    strong = rows_by_label(classify(new_spec([[0.9, 0.1], [0.1, 0.9]], [0.5, 0.5])))
    assert strong["fluct"].limit_kind is LimitKind.AS_RANDOM_VARIABLE
    assert strong["fluct"].normalization.exponent == pytest.approx(0.8)
    assert not strong["fluct"].positive_limit


def test_zero_eigenvalue_track_is_exactly_constant():
    rows = rows_by_label(classify(new_spec([[0.5, 0.5], [0.5, 0.5]], [0.25, 0.75])))
    fluct = rows["fluct"]
    assert fluct.limit_kind is LimitKind.EXACTLY_CONSTANT_TRACK
    assert fluct.initial_value == pytest.approx(-0.5)
    assert fluct.martingale_eigenvalue == 0.0


def test_triangular_minor_prediction():
    rows = rows_by_label(classify(new_spec([[0.5, 0.5], [0, 1]], [0.5, 0.5])))
    minor = rows["minor"]
    assert minor.limit_kind is LimitKind.AS_RANDOM_VARIABLE
    assert minor.positive_limit
    assert minor.normalization.exponent == pytest.approx(0.5)
    assert minor.martingale_eigenvalue == pytest.approx(0.5)


def test_one_dominant_mixture_coefficients():
    # lam < 1/2: s lam^2 / (1 - 2 lam) * pi_Q.xi^2, here s=0.5 lam=0.25
    m = [[0.3125, 0.1875, 0.5], [0.1875, 0.3125, 0.5], [0.0, 0.0, 1.0]]
    rows = rows_by_label(classify(new_spec(m, [0.25, 0.25, 0.5])))
    sub = rows["sub_fluct"]
    assert sub.limit_kind is LimitKind.NORMAL_MIXTURE
    assert sub.mixing_label == "sub_total"
    assert sub.mixture_coefficient == pytest.approx(0.5 * 0.0625 / 0.5 * 1.0)
    assert sub.normalization.exponent == pytest.approx(0.25)
    # boundary lam = 1/2: s^2 lam^2 pi_Q.xi^2 at sqrt(n^s log n)
    m2 = [[0.375, 0.125, 0.5], [0.125, 0.375, 0.5], [0.0, 0.0, 1.0]]
    rows2 = rows_by_label(classify(new_spec(m2, [0.25, 0.25, 0.5])))
    sub2 = rows2["sub_fluct"]
    assert sub2.mixture_coefficient == pytest.approx(0.0625)
    assert sub2.normalization.kind == "power_sqrt_log"
    # lam > 1/2: almost sure at n^(s lam); here lam = 0.8 so the exponent is 0.4
    m3 = [[0.45, 0.05, 0.5], [0.05, 0.45, 0.5], [0.0, 0.0, 1.0]]
    rows3 = rows_by_label(classify(new_spec(m3, [0.25, 0.25, 0.5])))
    assert rows3["sub_fluct"].limit_kind is LimitKind.AS_RANDOM_VARIABLE
    assert rows3["sub_fluct"].normalization.exponent == pytest.approx(0.4)
    assert not rows3["sub_fluct"].positive_limit


def test_two_dominant_diag_boundary_variance():
    rows = rows_by_label(
        classify(new_spec([[0.5, 0.25, 0.25], [0, 0.75, 0.25], [0, 0.25, 0.75]],
                          [0.5, 0.25, 0.25]))
    )
    dom = rows["dom_fluct"]
    assert dom.limit_kind is LimitKind.NORMAL
    assert dom.normalization.kind == "sqrt_n_log_n"
    assert dom.variance == pytest.approx(0.25)


def test_three_jordan_regimes():
    # s = 0.5 >= 1/2: almost-sure at n^s log n, shares the minor limit
    m = [[0.5, 0.45, 0.05], [0, 0.75, 0.25], [0, 0.25, 0.75]]
    rows = rows_by_label(classify(new_spec(m, [0.5, 0.25, 0.25])))
    dom = rows["dom_fluct"]
    assert dom.limit_kind is LimitKind.AS_RANDOM_VARIABLE
    assert dom.normalization.kind == "power_log"
    assert dom.co_limit_label == "minor"
    assert dom.positive_limit
    # s < 1/2: plain CLT at sqrt(n), variance from the pinned lower half
    m2 = [[0.4, 0.54, 0.06], [0, 0.7, 0.3], [0, 0.3, 0.7]]
    rows2 = rows_by_label(classify(new_spec(m2, [0.5, 0.25, 0.25])))
    dom2 = rows2["dom_fluct"]
    assert dom2.limit_kind is LimitKind.NORMAL
    assert dom2.normalization.exponent == pytest.approx(0.5)
    # kappa = (1-s) p.xi = 0.6 * 0.8, t2 = (0, xi/kappa), var = s^2/(1-2s) pi.t2^2
    kappa = 0.6 * 0.8
    expected = 0.4**2 / (1 - 0.8) * (0.5 * (1 / kappa) ** 2 + 0.5 * (1 / kappa) ** 2)
    assert dom2.variance == pytest.approx(expected)


def test_four_jordan_zero_beta_mixture():
    m = [
        [0.25, 0.25, 0.375, 0.125],
        [0.25, 0.25, 0.125, 0.375],
        [0.0, 0.0, 0.5, 0.5],
        [0.0, 0.0, 0.5, 0.5],
    ]
    rows = rows_by_label(classify(new_spec(m, [0.25] * 4)))
    dom = rows["dom_fluct"]
    assert dom.limit_kind is LimitKind.NORMAL_MIXTURE
    assert dom.mixture_coefficient == pytest.approx(2.0)
    assert dom.mixing_label == "sub_total"
    assert dom.normalization.exponent == pytest.approx(0.25)
    assert rows["sub_fluct"].limit_kind is LimitKind.EXACTLY_CONSTANT_TRACK


def test_four_diag_zero_beta_constant():
    m = [
        [0.375, 0.125, 0.25, 0.25],
        [0.125, 0.375, 0.25, 0.25],
        [0.0, 0.0, 0.5, 0.5],
        [0.0, 0.0, 0.5, 0.5],
    ]
    rows = rows_by_label(classify(new_spec(m, [0.25, 0.25, 0.375, 0.125])))
    dom = rows["dom_fluct"]
    assert dom.limit_kind is LimitKind.EXACTLY_CONSTANT_TRACK
    assert dom.initial_value == pytest.approx(0.25)


def test_identity_predictions():
    rows = predict(classify(new_spec([[1, 0], [0, 1]], [0.25, 0.75])))
    assert len(rows) == 2
    share = rows[1]
    assert share.label == "share_0"
    assert share.limit_kind is LimitKind.AS_RANDOM_VARIABLE
    assert share.limit_mean == pytest.approx(0.25)
    # Dirichlet-style limit: variance p(1-p)/(m0+1) with unit starting mass
    assert share.limit_variance == pytest.approx(0.25 * 0.75 / 2)
    zero = predict(classify(new_spec([[1, 0], [0, 1]], [0.0, 1.0])))[1]
    assert zero.limit_kind is LimitKind.EXACTLY_CONSTANT_TRACK
    assert zero.martingale_eigenvalue == 1.0


def test_prediction_count_and_span():
    cases = [
        ([[1, 0], [0, 1]], [0.25, 0.75]),
        (TWO, [0.5, 0.5]),
        ([[0.5, 0.5], [0, 1]], [0.5, 0.5]),
        ([[0.375, 0.125, 0.5], [0.125, 0.375, 0.5], [0, 0, 1]], [0.25, 0.25, 0.5]),
        ([[0.5, 0.45, 0.05], [0, 0.75, 0.25], [0, 0.25, 0.75]], [0.5, 0.25, 0.25]),
        (
            [
                [0.25, 0.25, 0.375, 0.125],
                [0.25, 0.25, 0.125, 0.375],
                [0, 0, 0.5, 0.5],
                [0, 0, 0.5, 0.5],
            ],
            [0.25] * 4,
        ),
    ]
    for matrix, initial in cases:
        spec = new_spec(matrix, initial)
        rows = predict(classify(spec))
        assert len(rows) == spec.colors
        span = np.stack([r.vector for r in rows])
        assert abs(np.linalg.det(span)) > 1e-10
        labels = [r.label for r in rows]
        assert len(set(labels)) == len(labels)


def test_predict_refuses_unsupported():
    k = classify(new_spec([[0.2, 0.8, 0.0], [0.3, 0.2, 0.5], [0.1, 0.2, 0.7]],
                          [1 / 3] * 3))
    assert k.family is Family.UNSUPPORTED
    with pytest.raises(ValueError):
        predict(k)


@settings(max_examples=30, deadline=None)
@given(lam=st.floats(0.02, 0.97))
def test_jordan_variance_continuous_in_regime_interior(lam):
    # the dispatch on s vs 1/2 must use the same pinned vector either side
    s = 0.5 * lam + 0.2
    if abs(s - 0.5) < 0.02:
        return
    p = (0.75, 0.25)
    m = np.zeros((3, 3))
    m[0, 0] = s
    m[0, 1:] = (1 - s) * np.array(p)
    # symmetric dominant block with secondary eigenvalue exactly s
    m[1, 1] = m[2, 2] = (1 + s) / 2
    m[1, 2] = m[2, 1] = 1 - (1 + s) / 2
    k = classify(new_spec(m, [0.5, 0.25, 0.25]))
    assert k.family is Family.THREE_TWO_DOMINANT_JORDAN
    dom = {r.label: r for r in predict(k)}["dom_fluct"]
    if s < 0.5:
        assert dom.limit_kind is LimitKind.NORMAL
        assert dom.variance > 0
    else:
        assert dom.limit_kind is LimitKind.AS_RANDOM_VARIABLE
        assert dom.co_limit_label == "minor"


# One spec per branch of predict(): each family, and each eigenvalue regime
# (zero, negative, below, at and above 1/2, periodic) that family can reach.
# Every row pins label, limit kind, normalization, notes and the variance,
# mixture coefficient or limit variance, whichever the row carries.
K = LimitKind
MASS_ROW = (
    "mass", K.DETERMINISTIC_CONSTANT, "n+1",
    "total mass equals n+1 exactly on every path", None,
)
FROZEN = (
    "every replacement row is orthogonal to this combination; "
    "the track never moves"
)
SIGN_FREE = (
    "power-normalized martingale track; the limit is non-degenerate "
    "but its sign is not pinned"
)
MIXED = "normal with variance proportional to the sub-block mass limit"
GENERALIZED = (
    "generalized-eigenvector track at the repeated eigenvalue, "
    "still normal below the 1/2 threshold"
)
PERIODIC = "dominant block is periodic; this normal claim is unverified"
MINOR = (
    "the minor color's count divided by n^{} settles to a strictly "
    "positive random level"
)
SUB_MASS = (
    "the non-dominant block's mass divided by n^{} settles to a strictly "
    "positive random level"
)
U4 = [0.25] * 4
BRANCHES = {
    "identity": (
        np.eye(3), [0.25, 0.0, 0.75], Family.IDENTITY, [
            MASS_ROW,
            ("share_0", K.AS_RANDOM_VARIABLE, "n+1",
             "share settles to a random level whose mean is the starting share",
             0.09375),
            ("share_1", K.EXACTLY_CONSTANT_TRACK, "n+1",
             "no starting mass and no inflow from other colors; the count stays "
             "at zero", None),
        ],
    ),
    "two_zero": (
        [[0.5, 0.5], [0.5, 0.5]], [0.25, 0.75], Family.TWO_IRREDUCIBLE, [
            MASS_ROW,
            ("fluct", K.EXACTLY_CONSTANT_TRACK, "Pi_n(0)", FROZEN, None),
        ],
    ),
    "two_below": (
        TWO, [4 / 7, 3 / 7], Family.TWO_IRREDUCIBLE, [
            MASS_ROW,
            ("fluct", K.NORMAL, "n^0.5", "", 0.16874999999999968),
        ],
    ),
    "two_negative": (
        [[0.2, 0.8], [0.6, 0.4]], [0.5, 0.5], Family.TWO_IRREDUCIBLE, [
            MASS_ROW,
            ("fluct", K.NORMAL, "n^0.5", "", 0.06666666666666664),
        ],
    ),
    "two_half": (
        [[0.75, 0.25], [0.25, 0.75]], [0.5, 0.5], Family.TWO_IRREDUCIBLE, [
            MASS_ROW,
            ("fluct", K.NORMAL, "sqrt(n log n)", "", 0.25),
        ],
    ),
    "two_above": (
        [[0.9, 0.1], [0.1, 0.9]], [0.5, 0.5], Family.TWO_IRREDUCIBLE, [
            MASS_ROW,
            ("fluct", K.AS_RANDOM_VARIABLE, "n^0.8", SIGN_FREE, None),
        ],
    ),
    "two_triangular": (
        [[0.5, 0.5], [0, 1]], [0.5, 0.5], Family.TWO_TRIANGULAR, [
            MASS_ROW,
            ("minor", K.AS_RANDOM_VARIABLE, "n^0.5", MINOR.format("0.5"), None),
        ],
    ),
    "one_dom_zero": (
        [[0.25, 0.25, 0.5], [0.25, 0.25, 0.5], [0, 0, 1]], [0.25, 0.25, 0.5],
        Family.THREE_ONE_DOMINANT, [
            MASS_ROW,
            ("sub_total", K.AS_RANDOM_VARIABLE, "n^0.5", SUB_MASS.format("0.5"), None),
            ("sub_fluct", K.EXACTLY_CONSTANT_TRACK, "Pi_n(0)", FROZEN, None),
        ],
    ),
    "one_dom_below": (
        [[0.3125, 0.1875, 0.5], [0.1875, 0.3125, 0.5], [0, 0, 1]], [0.25, 0.25, 0.5],
        Family.THREE_ONE_DOMINANT, [
            MASS_ROW,
            ("sub_total", K.AS_RANDOM_VARIABLE, "n^0.5", SUB_MASS.format("0.5"), None),
            ("sub_fluct", K.NORMAL_MIXTURE, "n^0.25", MIXED, 0.0625),
        ],
    ),
    "one_dom_half": (
        [[0.375, 0.125, 0.5], [0.125, 0.375, 0.5], [0, 0, 1]], [0.25, 0.25, 0.5],
        Family.THREE_ONE_DOMINANT, [
            MASS_ROW,
            ("sub_total", K.AS_RANDOM_VARIABLE, "n^0.5", SUB_MASS.format("0.5"), None),
            ("sub_fluct", K.NORMAL_MIXTURE, "sqrt(n^0.5 log n)", MIXED, 0.0625),
        ],
    ),
    "one_dom_above": (
        [[0.45, 0.05, 0.5], [0.05, 0.45, 0.5], [0, 0, 1]], [0.25, 0.25, 0.5],
        Family.THREE_ONE_DOMINANT, [
            MASS_ROW,
            ("sub_total", K.AS_RANDOM_VARIABLE, "n^0.5", SUB_MASS.format("0.5"), None),
            ("sub_fluct", K.AS_RANDOM_VARIABLE, "n^0.4", SIGN_FREE, None),
        ],
    ),
    "two_dom_zero": (
        [[0.5, 0.25, 0.25], [0, 0.5, 0.5], [0, 0.5, 0.5]], [0.5, 0.25, 0.25],
        Family.THREE_TWO_DOMINANT_DIAG, [
            MASS_ROW,
            ("minor", K.AS_RANDOM_VARIABLE, "n^0.5", MINOR.format("0.5"), None),
            ("dom_fluct", K.EXACTLY_CONSTANT_TRACK, "Pi_n(0)", FROZEN, None),
        ],
    ),
    "two_dom_below": (
        [[0.5, 0.25, 0.25], [0, 0.625, 0.375], [0, 0.375, 0.625]], [0.5, 0.25, 0.25],
        Family.THREE_TWO_DOMINANT_DIAG, [
            MASS_ROW,
            ("minor", K.AS_RANDOM_VARIABLE, "n^0.5", MINOR.format("0.5"), None),
            ("dom_fluct", K.NORMAL, "n^0.5", "", 0.125),
        ],
    ),
    "two_dom_negative": (
        [[0.5, 0.25, 0.25], [0, 0.25, 0.75], [0, 0.75, 0.25]], [0.5, 0.25, 0.25],
        Family.THREE_TWO_DOMINANT_DIAG, [
            MASS_ROW,
            ("minor", K.AS_RANDOM_VARIABLE, "n^0.5", MINOR.format("0.5"), None),
            ("dom_fluct", K.NORMAL, "n^0.5", "", 0.125),
        ],
    ),
    "two_dom_half": (
        [[0.5, 0.25, 0.25], [0, 0.75, 0.25], [0, 0.25, 0.75]], [0.5, 0.25, 0.25],
        Family.THREE_TWO_DOMINANT_DIAG, [
            MASS_ROW,
            ("minor", K.AS_RANDOM_VARIABLE, "n^0.5", MINOR.format("0.5"), None),
            ("dom_fluct", K.NORMAL, "sqrt(n log n)", "", 0.25),
        ],
    ),
    "two_dom_above": (
        [[0.5, 0.25, 0.25], [0, 0.875, 0.125], [0, 0.125, 0.875]], [0.5, 0.25, 0.25],
        Family.THREE_TWO_DOMINANT_DIAG, [
            MASS_ROW,
            ("minor", K.AS_RANDOM_VARIABLE, "n^0.5", MINOR.format("0.5"), None),
            ("dom_fluct", K.AS_RANDOM_VARIABLE, "n^0.75", SIGN_FREE, None),
        ],
    ),
    "two_dom_periodic": (
        [[0.5, 0.25, 0.25], [0, 0, 1], [0, 1, 0]], [0.5, 0.25, 0.25],
        Family.THREE_TWO_DOMINANT_DIAG, [
            MASS_ROW,
            ("minor", K.AS_RANDOM_VARIABLE, "n^0.5", MINOR.format("0.5"), None),
            ("dom_fluct", K.NORMAL, "n^0.5", PERIODIC, 0.3333333333333333),
        ],
    ),
    "three_jordan_below": (
        [[0.4, 0.54, 0.06], [0, 0.7, 0.3], [0, 0.3, 0.7]], [0.5, 0.25, 0.25],
        Family.THREE_TWO_DOMINANT_JORDAN, [
            MASS_ROW,
            ("minor", K.AS_RANDOM_VARIABLE, "n^0.4", MINOR.format("0.4"), None),
            ("dom_fluct", K.NORMAL, "n^0.5", GENERALIZED, 3.472222222222223),
        ],
    ),
    # The branch above with its colors relabeled: the variance must not
    # change, and the dominant coordinates are read through the permutation.
    "three_jordan_below_relabeled": (
        [[0.7, 0, 0.3], [0.06, 0.4, 0.54], [0.3, 0, 0.7]], [0.25, 0.5, 0.25],
        Family.THREE_TWO_DOMINANT_JORDAN, [
            MASS_ROW,
            ("minor", K.AS_RANDOM_VARIABLE, "n^0.4", MINOR.format("0.4"), None),
            ("dom_fluct", K.NORMAL, "n^0.5", GENERALIZED, 3.472222222222223),
        ],
    ),
    "three_jordan_above": (
        [[0.5, 0.45, 0.05], [0, 0.75, 0.25], [0, 0.25, 0.75]], [0.5, 0.25, 0.25],
        Family.THREE_TWO_DOMINANT_JORDAN, [
            MASS_ROW,
            ("minor", K.AS_RANDOM_VARIABLE, "n^0.5", MINOR.format("0.5"), None),
            ("dom_fluct", K.AS_RANDOM_VARIABLE, "n^0.5 log n",
             "log-slowed track sharing the minor track's limit; the gap between "
             "the two closes like 1/log n", None),
        ],
    ),
    "four_diag_zero": (
        [[0.375, 0.125, 0.25, 0.25], [0.125, 0.375, 0.25, 0.25],
         [0, 0, 0.5, 0.5], [0, 0, 0.5, 0.5]],
        [0.25, 0.25, 0.375, 0.125], Family.FOUR_BLOCK_DIAG, [
            MASS_ROW,
            ("sub_total", K.AS_RANDOM_VARIABLE, "n^0.5", SUB_MASS.format("0.5"), None),
            ("sub_fluct", K.NORMAL_MIXTURE, "sqrt(n^0.5 log n)", MIXED, 0.0625),
            ("dom_fluct", K.EXACTLY_CONSTANT_TRACK, "Pi_n(0)", FROZEN, None),
        ],
    ),
    "four_diag_below": (
        [[0.3125, 0.1875, 0.25, 0.25], [0.1875, 0.3125, 0.25, 0.25],
         [0, 0, 0.625, 0.375], [0, 0, 0.375, 0.625]],
        U4, Family.FOUR_BLOCK_DIAG, [
            MASS_ROW,
            ("sub_total", K.AS_RANDOM_VARIABLE, "n^0.5", SUB_MASS.format("0.5"), None),
            ("sub_fluct", K.NORMAL_MIXTURE, "n^0.25", MIXED, 0.0625),
            ("dom_fluct", K.NORMAL, "n^0.5", "", 0.125),
        ],
    ),
    "four_diag_half": (
        [[0.3, 0.1, 0.3, 0.3], [0.1, 0.3, 0.3, 0.3],
         [0, 0, 0.75, 0.25], [0, 0, 0.25, 0.75]],
        U4, Family.FOUR_BLOCK_DIAG, [
            MASS_ROW,
            ("sub_total", K.AS_RANDOM_VARIABLE, "n^0.4", SUB_MASS.format("0.4"), None),
            ("sub_fluct", K.NORMAL_MIXTURE, "sqrt(n^0.4 log n)", MIXED,
             0.039999999999999966),
            ("dom_fluct", K.NORMAL, "sqrt(n log n)", "", 0.25),
        ],
    ),
    "four_diag_above": (
        [[0.4375, 0.0625, 0.25, 0.25], [0.0625, 0.4375, 0.25, 0.25],
         [0, 0, 0.875, 0.125], [0, 0, 0.125, 0.875]],
        U4, Family.FOUR_BLOCK_DIAG, [
            MASS_ROW,
            ("sub_total", K.AS_RANDOM_VARIABLE, "n^0.5", SUB_MASS.format("0.5"), None),
            ("sub_fluct", K.AS_RANDOM_VARIABLE, "n^0.375", SIGN_FREE, None),
            ("dom_fluct", K.AS_RANDOM_VARIABLE, "n^0.75", SIGN_FREE, None),
        ],
    ),
    "four_diag_periodic": (
        [[0.375, 0.125, 0.25, 0.25], [0.125, 0.375, 0.25, 0.25],
         [0, 0, 0, 1], [0, 0, 1, 0]],
        U4, Family.FOUR_BLOCK_DIAG, [
            MASS_ROW,
            ("sub_total", K.AS_RANDOM_VARIABLE, "n^0.5", SUB_MASS.format("0.5"), None),
            ("sub_fluct", K.NORMAL_MIXTURE, "sqrt(n^0.5 log n)", MIXED, 0.0625),
            ("dom_fluct", K.NORMAL, "n^0.5", PERIODIC, 0.3333333333333333),
        ],
    ),
    "four_jordan_zero": (
        [[0.25, 0.25, 0.375, 0.125], [0.25, 0.25, 0.125, 0.375],
         [0, 0, 0.5, 0.5], [0, 0, 0.5, 0.5]],
        U4, Family.FOUR_BLOCK_JORDAN, [
            MASS_ROW,
            ("sub_total", K.AS_RANDOM_VARIABLE, "n^0.5", SUB_MASS.format("0.5"), None),
            ("sub_fluct", K.EXACTLY_CONSTANT_TRACK, "Pi_n(0)", FROZEN, None),
            ("dom_fluct", K.NORMAL_MIXTURE, "n^0.25",
             "replacement maps this track's vector onto the sub-block fluctuation "
             "vector; normal with variance proportional to the sub-block mass "
             "limit", 2.0),
        ],
    ),
    "four_jordan_below": (
        [[0.3, 0.1, 0.5, 0.1], [0.1, 0.3, 0.3, 0.3],
         [0, 0, 0.7, 0.3], [0, 0, 0.3, 0.7]],
        U4, Family.FOUR_BLOCK_JORDAN, [
            MASS_ROW,
            ("sub_total", K.AS_RANDOM_VARIABLE, "n^0.4", SUB_MASS.format("0.4"), None),
            ("sub_fluct", K.NORMAL_MIXTURE, "sqrt(n^0.4 log n)", MIXED,
             0.039999999999999966),
            ("dom_fluct", K.NORMAL, "n^0.5", GENERALIZED, 19.99999999999997),
        ],
    ),
    "four_jordan_below_relabeled": (
        [[0.7, 0.3, 0, 0], [0.3, 0.7, 0, 0],
         [0.5, 0.1, 0.3, 0.1], [0.3, 0.3, 0.1, 0.3]],
        U4, Family.FOUR_BLOCK_JORDAN, [
            MASS_ROW,
            ("sub_total", K.AS_RANDOM_VARIABLE, "n^0.4", SUB_MASS.format("0.4"), None),
            ("sub_fluct", K.NORMAL_MIXTURE, "sqrt(n^0.4 log n)", MIXED,
             0.039999999999999966),
            ("dom_fluct", K.NORMAL, "n^0.5", GENERALIZED, 19.99999999999997),
        ],
    ),
    "four_jordan_sub_total": (
        [[0.375, 0.125, 0.4, 0.1], [0.125, 0.375, 0.3, 0.2],
         [0, 0, 0.75, 0.25], [0, 0, 0.25, 0.75]],
        U4, Family.FOUR_BLOCK_JORDAN, [
            MASS_ROW,
            ("sub_total", K.AS_RANDOM_VARIABLE, "n^0.5", SUB_MASS.format("0.5"), None),
            ("sub_fluct", K.NORMAL_MIXTURE, "sqrt(n^0.5 log n)", MIXED, 0.0625),
            ("dom_fluct", K.AS_RANDOM_VARIABLE, "n^0.5 log n",
             "log-slowed track sharing the sub_total track's limit", None),
        ],
    ),
    "four_jordan_sub_fluct": (
        [[0.7, 0.1, 0.1, 0.1], [0.1, 0.7, 0.05, 0.15],
         [0, 0, 0.8, 0.2], [0, 0, 0.2, 0.8]],
        U4, Family.FOUR_BLOCK_JORDAN, [
            MASS_ROW,
            ("sub_total", K.AS_RANDOM_VARIABLE, "n^0.8", SUB_MASS.format("0.8"), None),
            ("sub_fluct", K.AS_RANDOM_VARIABLE, "n^0.6", SIGN_FREE, None),
            ("dom_fluct", K.AS_RANDOM_VARIABLE, "n^0.6 log n",
             "log-slowed track sharing the sub_fluct track's limit", None),
        ],
    ),
}


# The remaining fields of every row above, which reach summary.json. Per row:
# (vector, initial_value, martingale_eigenvalue, positive_limit,
#  co_limit_label, mixing_label, limit_mean).
PINNED_FIELDS = (
    "vector", "initial_value", "martingale_eigenvalue", "positive_limit",
    "co_limit_label", "mixing_label", "limit_mean",
)
PINNED = {
    "identity": [
        ([1.0, 1.0, 1.0], 1.0, 1.0, True, None, None, 1.0),
        ([1.0, 0.0, 0.0], 0.25, 1.0, True, None, None, 0.25),
        ([0.0, 1.0, 0.0], 0.0, 1.0, False, None, None, 0.0),
    ],
    "two_zero": [
        ([1.0, 1.0], 1.0, 1.0, True, None, None, 1.0),
        ([1.0, -1.0], -0.5, 0.0, False, None, None, -0.5),
    ],
    "two_below": [
        ([1.0, 1.0], 1.0, 1.0, True, None, None, 1.0),
        ([0.7499999999999999, -1.0],
         -5.551115123125783e-17, 0.2999999999999998, False, None, None, None),
    ],
    "two_negative": [
        ([1.0, 1.0], 1.0, 1.0, True, None, None, 1.0),
        ([1.0, -0.7499999999999999],
         0.12500000000000006, -0.3999999999999999, False, None, None, None),
    ],
    "two_half": [
        ([1.0, 1.0], 1.0, 1.0, True, None, None, 1.0),
        ([1.0, -1.0], 0.0, 0.5, False, None, None, None),
    ],
    "two_above": [
        ([1.0, 1.0], 1.0, 1.0, True, None, None, 1.0),
        ([1.0, -1.0], 0.0, 0.8, False, None, None, None),
    ],
    "two_triangular": [
        ([1.0, 1.0], 1.0, 1.0, True, None, None, 1.0),
        ([1.0, 0.0], 0.5, 0.5, True, None, None, None),
    ],
    "one_dom_zero": [
        ([1.0, 1.0, 1.0], 1.0, 1.0, True, None, None, 1.0),
        ([1.0, 1.0, 0.0], 0.5, 0.5, True, None, None, None),
        ([1.0, -1.0, 0.0], 0.0, 0.0, False, None, None, 0.0),
    ],
    "one_dom_below": [
        ([1.0, 1.0, 1.0], 1.0, 1.0, True, None, None, 1.0),
        ([1.0, 1.0, 0.0], 0.5, 0.5, True, None, None, None),
        ([1.0, -1.0, 0.0], 0.0, 0.125, False, None, "sub_total", None),
    ],
    "one_dom_half": [
        ([1.0, 1.0, 1.0], 1.0, 1.0, True, None, None, 1.0),
        ([1.0, 1.0, 0.0], 0.5, 0.5, True, None, None, None),
        ([1.0, -1.0, 0.0], 0.0, 0.25, False, None, "sub_total", None),
    ],
    "one_dom_above": [
        ([1.0, 1.0, 1.0], 1.0, 1.0, True, None, None, 1.0),
        ([1.0, 1.0, 0.0], 0.5, 0.5, True, None, None, None),
        ([1.0, -1.0, 0.0], 0.0, 0.4, False, None, None, None),
    ],
    "two_dom_zero": [
        ([1.0, 1.0, 1.0], 1.0, 1.0, True, None, None, 1.0),
        ([1.0, 0.0, 0.0], 0.5, 0.5, True, None, None, None),
        ([-0.0, 1.0, -1.0], 0.0, 0.0, False, None, None, 0.0),
    ],
    "two_dom_below": [
        ([1.0, 1.0, 1.0], 1.0, 1.0, True, None, None, 1.0),
        ([1.0, 0.0, 0.0], 0.5, 0.5, True, None, None, None),
        ([-0.0, 1.0, -1.0], 0.0, 0.25, False, None, None, None),
    ],
    "two_dom_negative": [
        ([1.0, 1.0, 1.0], 1.0, 1.0, True, None, None, 1.0),
        ([1.0, 0.0, 0.0], 0.5, 0.5, True, None, None, None),
        ([-0.0, 1.0, -1.0], 0.0, -0.5, False, None, None, None),
    ],
    "two_dom_half": [
        ([1.0, 1.0, 1.0], 1.0, 1.0, True, None, None, 1.0),
        ([1.0, 0.0, 0.0], 0.5, 0.5, True, None, None, None),
        ([0.0, 1.0, -1.0], 0.0, 0.5, False, None, None, None),
    ],
    "two_dom_above": [
        ([1.0, 1.0, 1.0], 1.0, 1.0, True, None, None, 1.0),
        ([1.0, 0.0, 0.0], 0.5, 0.5, True, None, None, None),
        ([0.0, 1.0, -1.0], 0.0, 0.75, False, None, None, None),
    ],
    "two_dom_periodic": [
        ([1.0, 1.0, 1.0], 1.0, 1.0, True, None, None, 1.0),
        ([1.0, 0.0, 0.0], 0.5, 0.5, True, None, None, None),
        ([-0.0, 1.0, -1.0], 0.0, -1.0, False, None, None, None),
    ],
    "three_jordan_below": [
        ([1.0, 1.0, 1.0], 1.0, 1.0, True, None, None, 1.0),
        ([1.0, 0.0, 0.0], 0.5, 0.4, True, None, None, None),
        ([0.0, 2.083333333333333, -2.083333333333333],
         0.0, None, False, None, None, None),
    ],
    "three_jordan_below_relabeled": [
        ([1.0, 1.0, 1.0], 1.0, 1.0, True, None, None, 1.0),
        ([0.0, 1.0, 0.0], 0.5, 0.4, True, None, None, None),
        ([-2.083333333333333, 0.0, 2.083333333333333],
         0.0, None, False, None, None, None),
    ],
    "three_jordan_above": [
        ([1.0, 1.0, 1.0], 1.0, 1.0, True, None, None, 1.0),
        ([1.0, 0.0, 0.0], 0.5, 0.5, True, None, None, None),
        ([0.0, 2.5, -2.5], 0.0, None, True, "minor", None, None),
    ],
    "four_diag_zero": [
        ([1.0, 1.0, 1.0, 1.0], 1.0, 1.0, True, None, None, 1.0),
        ([1.0, 1.0, 0.0, 0.0], 0.5, 0.5, True, None, None, None),
        ([1.0, -1.0, 0.0, 0.0], 0.0, 0.25, False, None, "sub_total", None),
        ([-0.0, -0.0, 1.0, -1.0], 0.25, 0.0, False, None, None, 0.25),
    ],
    "four_diag_below": [
        ([1.0, 1.0, 1.0, 1.0], 1.0, 1.0, True, None, None, 1.0),
        ([1.0, 1.0, 0.0, 0.0], 0.5, 0.5, True, None, None, None),
        ([1.0, -1.0, 0.0, 0.0], 0.0, 0.125, False, None, "sub_total", None),
        ([-0.0, -0.0, 1.0, -1.0], 0.0, 0.25, False, None, None, None),
    ],
    "four_diag_half": [
        ([1.0, 1.0, 1.0, 1.0], 1.0, 1.0, True, None, None, 1.0),
        ([1.0, 1.0, 0.0, 0.0], 0.5, 0.4, True, None, None, None),
        ([1.0, -1.0, 0.0, 0.0],
         0.0, 0.19999999999999993, False, None, "sub_total", None),
        ([0.0, 0.0, 1.0, -1.0], 0.0, 0.5, False, None, None, None),
    ],
    "four_diag_above": [
        ([1.0, 1.0, 1.0, 1.0], 1.0, 1.0, True, None, None, 1.0),
        ([1.0, 1.0, 0.0, 0.0], 0.5, 0.5, True, None, None, None),
        ([1.0, -1.0, 0.0, 0.0], 0.0, 0.375, False, None, None, None),
        ([0.0, 0.0, 1.0, -1.0], 0.0, 0.75, False, None, None, None),
    ],
    "four_diag_periodic": [
        ([1.0, 1.0, 1.0, 1.0], 1.0, 1.0, True, None, None, 1.0),
        ([1.0, 1.0, 0.0, 0.0], 0.5, 0.5, True, None, None, None),
        ([1.0, -1.0, 0.0, 0.0], 0.0, 0.25, False, None, "sub_total", None),
        ([-0.0, -0.0, 1.0, -1.0], 0.0, -1.0, False, None, None, None),
    ],
    "four_jordan_zero": [
        ([1.0, 1.0, 1.0, 1.0], 1.0, 1.0, True, None, None, 1.0),
        ([1.0, 1.0, 0.0, 0.0], 0.5, 0.5, True, None, None, None),
        ([1.0, -1.0, 0.0, 0.0], 0.0, 0.0, False, None, None, 0.0),
        ([-0.0, -0.0, 4.0, -4.0], 0.0, None, False, None, "sub_total", None),
    ],
    "four_jordan_below": [
        ([1.0, 1.0, 1.0, 1.0], 1.0, 1.0, True, None, None, 1.0),
        ([1.0, 1.0, 0.0, 0.0], 0.5, 0.4, True, None, None, None),
        ([1.0, -1.0, 0.0, 0.0],
         0.0, 0.19999999999999993, False, None, "sub_total", None),
        ([4.999999999999997, -4.999999999999997, 5.0, -5.0],
         0.0, None, False, None, None, None),
    ],
    "four_jordan_below_relabeled": [
        ([1.0, 1.0, 1.0, 1.0], 1.0, 1.0, True, None, None, 1.0),
        ([0.0, 0.0, 1.0, 1.0], 0.5, 0.4, True, None, None, None),
        ([0.0, 0.0, 1.0, -1.0], 0.0, 0.19999999999999993, False, None, "sub_total", None),
        ([5.0, -5.0, 4.999999999999997, -4.999999999999997],
         0.0, None, False, None, None, None),
    ],
    "four_jordan_sub_total": [
        ([1.0, 1.0, 1.0, 1.0], 1.0, 1.0, True, None, None, 1.0),
        ([1.0, 1.0, 0.0, 0.0], 0.5, 0.5, True, None, None, None),
        ([1.0, -1.0, 0.0, 0.0], 0.0, 0.25, False, None, "sub_total", None),
        ([2.0000000000000004, -2.0000000000000004, 5.0, -5.0],
         0.0, None, True, "sub_total", None, None),
    ],
    "four_jordan_sub_fluct": [
        ([1.0, 1.0, 1.0, 1.0], 1.0, 1.0, True, None, None, 1.0),
        ([1.0, 1.0, 0.0, 0.0], 0.5, 0.7999999999999999, True, None, None, None),
        ([1.0, -1.0, 0.0, 0.0], 0.0, 0.6, False, None, None, None),
        ([5.0, 5.0, 20.0, -20.0], 2.5, None, False, "sub_fluct", None, None),
    ],
}


@pytest.mark.parametrize("name", list(BRANCHES))
def test_predict_pins_every_branch(name):
    matrix, initial, family, expected = BRANCHES[name]
    klass = classify(new_spec(matrix, initial))
    assert klass.family is family
    rows = predict(klass)
    got = []
    for r in rows:
        value = next(
            (v for v in (r.variance, r.mixture_coefficient, r.limit_variance)
             if v is not None),
            None,
        )
        got.append((r.label, r.limit_kind, str(r.normalization), r.notes, value))
    assert [g[:4] for g in got] == [e[:4] for e in expected]
    for (label, *_, value), (*_, want) in zip(got, expected):
        if want is None:
            assert value is None, label
        else:
            assert value == pytest.approx(want, rel=1e-12), label
    assert len(rows) == len(PINNED[name])
    for r, pinned in zip(rows, PINNED[name]):
        for field, want in zip(PINNED_FIELDS, pinned):
            value = getattr(r, field)
            if field == "vector":
                value = value.tolist()
            if isinstance(want, (float, list)):
                assert value == pytest.approx(want, rel=1e-12), (r.label, field)
            else:
                assert value == want, (r.label, field)


def _exact(value):
    """A field as exact text: floats by float.hex, the normalization as
    (kind, exponent, str), each scalar with its type."""
    if isinstance(value, Normalization):
        return (_exact(value.kind), _exact(value.exponent), str(value))
    if isinstance(value, np.ndarray):
        return (str(value.dtype), value.shape, [v.hex() for v in value.tolist()])
    text = value.hex() if isinstance(value, float) else repr(value)
    return (type(value).__name__, text)


def _predict_digest(matrix, initial) -> str:
    rows = predict(classify(new_spec(matrix, initial)))
    text = repr([
        [(f.name, _exact(getattr(r, f.name))) for f in dataclasses.fields(r)]
        for r in rows
    ])
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of every LawPrediction field of every row per branch, exactly.
PREDICT_DIGESTS = {
    "identity": "172105c44740a50e15190aafb63931fd6c6224241faedd4cbba93240753fadb9",
    "two_zero": "8bca04a87a88f865f765b0c72a53b00b2885c870ee6d6258c625d701b7113f04",
    "two_below": "e0515409b1289d2af32cc48434069eb0763487e3069aa1cb4de852c3831223ca",
    "two_negative": "509a636aeae5cc7a208738212ed93f0280c013b694682ecdb85261b6db574aa1",
    "two_half": "820f4362abded51eaa78e6b7b2a35f631d816195ad0fc1e1f5966f9c8b26bf90",
    "two_above": "fb7a665cb5767c8f745bbef98156b1ce5a87615974e5a042c71c71830c9faf91",
    "two_triangular": "cf31fa989d47262e1448a695b3db49eb4ffa1b4a3b88f719955b199ff410079a",
    "one_dom_zero": "771e222e5e356167e53d4e728863d92924f44b3f6b47ab84509d676fa0a6101a",
    "one_dom_below": "c7252d73e0ac90f79250eedb9df37230e261d542353deaa00b2e019d6c49fd5b",
    "one_dom_half": "3a6afa44940de003cfaab08e64ffc088569800fbd66888e99c8112d48be04375",
    "one_dom_above": "14af08ab35f3407d386b169b9e4b8a1156a930e8dd36f0ee3c5a699079498232",
    "two_dom_zero": "51fc4cc2060a2bd6c095783f783846ad2b1e65e108c65fd1f42de7f2c41a6243",
    "two_dom_below": "d2ba805b7f7607e13c8713511b235adcb8c2e97ee63886c899b15320e46638dc",
    "two_dom_negative": "6ff640e13045cba55746d5cebbf36ad8be22e47ebd7798b0bf9b19f427869f5c",
    "two_dom_half": "e44750a6f35c76c435e7d4dcfefcfec3fafe78dd7ca842aa9d27812f3c3263e5",
    "two_dom_above": "34f8309a37a2a76039acdc166ad00736610802604c1299e92b8fed2386840da5",
    "two_dom_periodic": "8a564c60c4be3966a7cb042024deef66f66ce99d48051df501fdee0b58e7ee93",
    "three_jordan_below": "8da12f72d89efbb95ded6b4fad7c15ce28e6f16a6f899d57bc34caab60ddebf6",
    "three_jordan_below_relabeled": "2519d0d7965a3a4876ae0755c4d8a9dbaa4e22b4133c3c29d9b5466e99e9e152",
    "three_jordan_above": "8d926c823a1b6b6f1549ae315875d8e17af6135c2ac9d30edc0b2d9fbd22530a",
    "four_diag_zero": "708324afd62578bd2e55a2a254a25f9c2304f72adfe92b23d49a3e2a4e5375aa",
    "four_diag_below": "887dbed749de1e4e399bb58b4a3c546c487f38554c524b774159e6a40701edc2",
    "four_diag_half": "48c5e8486184bc60b3936236344506c51994830190f7376d1f6c5b714242be9e",
    "four_diag_above": "46d24a8bb6f88ded6781afc30dabec7d7ed03169274a3d680ec13fb1b6ba372c",
    "four_diag_periodic": "24cf7fe859071275e5bd1c673e7d8727513455577d1cf6bfb7b466abd23c8e1c",
    "four_jordan_zero": "c7f9f106a311a2116d6819b8f01704b05e554d49dcc28828b5bfd382b79b8d4c",
    "four_jordan_below": "d730890c2f0b32f4bf0394e45d4b06eb436f579d6e06b131b2be1789e4d5b812",
    "four_jordan_below_relabeled": "75315af242a98966bf0e2025a5c6071d4a60b8fc21b101e63181380ac11b8c06",
    "four_jordan_sub_total": "8f6559952c07e9f293cb739aae7954b5fb9a5154bf5dc3ddb0b298f8c2fef37d",
    "four_jordan_sub_fluct": "839ddd12b91a1fab3f0c42932a17c637fdcfeaa6de19b084c8853ff18a363ec2",
}


def test_predict_field_digests_pin_every_branch():
    got = {
        name: _predict_digest(matrix, initial)
        for name, (matrix, initial, _, _) in BRANCHES.items()
    }
    assert got == PREDICT_DIGESTS
