import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urnlab import (
    classify,
    compensated_martingale_check,
    exact_conditional_variance_check,
    exact_distribution,
    exact_mean_linear,
    exact_mean_vector,
    new_spec,
    pi_n,
    predict,
)

TRI = new_spec([[0.5, 0.5], [0.0, 1.0]], [0.5, 0.5])
J3 = new_spec([[0.5, 0.45, 0.05], [0, 0.75, 0.25], [0, 0.25, 0.75]],
              [0.5, 0.25, 0.25])
# The shipped four-colour Jordan config: beta = 0, so sub_fluct is 0.
J4_BETA0 = new_spec(
    [
        [0.25, 0.25, 0.375, 0.125],
        [0.25, 0.25, 0.125, 0.375],
        [0, 0, 0.5, 0.5],
        [0, 0, 0.5, 0.5],
    ],
    [0.25] * 4,
)
# Non-degenerate four-colour Jordan example: s = lambda = beta = 1/2.
J4_BETA_HALF = new_spec(
    [
        [0.375, 0.125, 0.4, 0.1],
        [0.125, 0.375, 0.3, 0.2],
        [0, 0, 0.75, 0.25],
        [0, 0, 0.25, 0.75],
    ],
    [0.25] * 4,
)


def test_exact_distribution_one_step_atoms():
    atoms = {a.counts: a.probability for a in exact_distribution(TRI, 1)}
    assert atoms == {(1.0, 1.0): 0.5, (0.5, 1.5): 0.5}


def test_exact_distribution_merges_identical_compositions():
    spec = new_spec([[0.5, 0.5], [0.5, 0.5]], [0.5, 0.5])
    atoms = exact_distribution(spec, 3)
    assert len(atoms) == 1
    assert atoms[0].counts == (2.0, 2.0)
    assert atoms[0].probability == pytest.approx(1.0)


def test_exact_distribution_identity_absorbs():
    spec = new_spec([[1, 0], [0, 1]], [1.0, 0.0])
    atoms = exact_distribution(spec, 2)
    assert {a.counts: a.probability for a in atoms} == {(3.0, 0.0): 1.0}


def test_exact_mean_vector_minor_track_frozen():
    # E W_1 = 0.75, E W_2 = 0.9375 for the half-and-half triangular start
    assert exact_mean_vector(TRI, 1)[0] == pytest.approx(0.75)
    assert exact_mean_vector(TRI, 2)[0] == pytest.approx(0.9375)


def test_exact_mean_vector_total_mass():
    for n in (1, 5, 9):
        assert exact_mean_vector(TRI, n).sum() == pytest.approx(n + 1)


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(1, 6),
    x=st.floats(0.1, 0.9),
)
def test_exact_distribution_probabilities_sum_to_one(n, x):
    spec = new_spec([[x, 1 - x], [1 - x, x]], [0.5, 0.5])
    atoms = exact_distribution(spec, n)
    assert sum(a.probability for a in atoms) == pytest.approx(1.0, abs=1e-12)
    # enumeration means agree with the direct recursion
    mean_enum = np.zeros(2)
    for a in atoms:
        mean_enum += np.array(a.counts) * a.probability
    np.testing.assert_allclose(mean_enum, exact_mean_vector(spec, n), atol=1e-12)


def test_exact_mean_linear_matches_product_formula():
    spec = new_spec([[0.7, 0.3], [0.4, 0.6]], [0.5, 0.5])
    k = classify(spec)
    for row in predict(k):
        if row.martingale_eigenvalue is None:
            continue
        for n in (1, 4, 9):
            exact = exact_mean_linear(spec, row.vector, row.martingale_eigenvalue, n)
            assert exact == pytest.approx(
                pi_n(row.martingale_eigenvalue, n) * row.initial_value, abs=1e-12
            )


def test_exact_mean_linear_rejects_non_eigenvectors():
    spec = new_spec([[0.7, 0.3], [0.4, 0.6]], [0.5, 0.5])
    with pytest.raises(ValueError, match="eigen"):
        exact_mean_linear(spec, np.array([1.0, 0.0]), 0.3, 3)


def test_conditional_variance_identity_across_families():
    cases = [
        ([[0.7, 0.3], [0.4, 0.6]], [0.5, 0.5]),
        ([[0.5, 0.5], [0.0, 1.0]], [0.5, 0.5]),
        ([[0.45, 0.05, 0.5], [0.05, 0.45, 0.5], [0, 0, 1]], [0.25, 0.25, 0.5]),
        ([[0.5, 0.25, 0.25], [0, 0.75, 0.25], [0, 0.25, 0.75]], [0.5, 0.25, 0.25]),
    ]
    for matrix, initial in cases:
        spec = new_spec(matrix, initial)
        gap = exact_conditional_variance_check(spec, classify(spec), 5)
        assert gap < 1e-12


def test_compensated_martingale_identity_for_jordan_families():
    j3 = new_spec([[0.5, 0.45, 0.05], [0, 0.75, 0.25], [0, 0.25, 0.75]],
                  [0.5, 0.25, 0.25])
    assert compensated_martingale_check(j3, classify(j3), 5) < 1e-12
    j4 = new_spec(
        [
            [0.25, 0.25, 0.375, 0.125],
            [0.25, 0.25, 0.125, 0.375],
            [0, 0, 0.5, 0.5],
            [0, 0, 0.5, 0.5],
        ],
        [0.25] * 4,
    )
    assert compensated_martingale_check(j4, classify(j4), 4) < 1e-12


def test_compensated_martingale_check_catches_wrong_basis():
    spec = new_spec([[0.5, 0.45, 0.05], [0, 0.75, 0.25], [0, 0.25, 0.75]],
                    [0.5, 0.25, 0.25])
    klass = classify(spec)
    from urnlab import jordan_basis

    t, _ = jordan_basis(spec, klass)
    wrong = t.copy()
    wrong[:, 1] = wrong[:, 1] * 1.01
    gap = compensated_martingale_check(spec, klass, 4, basis_matrix=wrong)
    assert gap > 1e-4


def test_compensated_martingale_refused_for_diagonalizable():
    spec = new_spec([[0.7, 0.3], [0.4, 0.6]], [0.5, 0.5])
    with pytest.raises(ValueError):
        compensated_martingale_check(spec, classify(spec), 3)


def test_enumeration_step_guards():
    assert {a.counts: a.probability for a in exact_distribution(TRI, 0)} == {
        (0.5, 0.5): 1.0
    }
    with pytest.raises(ValueError, match="capped"):
        exact_distribution(TRI, 13)
    with pytest.raises(ValueError, match="generalized"):
        compensated_martingale_check(TRI, classify(TRI), 5)
    j3 = new_spec([[0.5, 0.45, 0.05], [0, 0.75, 0.25], [0, 0.25, 0.75]],
                  [0.5, 0.25, 0.25])
    with pytest.raises(ValueError, match="capped"):
        compensated_martingale_check(j3, classify(j3), 13)


def _scaled_generalized_basis(klass, factor):
    """Jordan basis with the generalized-eigenvector column scaled."""
    j = klass.jordan_form
    (top,) = [i for i in range(j.shape[0] - 1) if j[i, i + 1] == 1.0]
    basis = klass.jordan_basis_matrix.copy()
    basis[:, top + 1] *= factor
    return basis


def _tree_walk_residual(spec, klass, n, basis):
    """Reference: max |E[X_{m+1} | path] - X_m| over every draw sequence."""
    j = klass.jordan_form
    (top,) = [i for i in range(spec.colors - 1) if j[i, i + 1] == 1.0]
    t_gen, t_top, a = basis[:, top + 1], basis[:, top], j[top + 1, top + 1]
    pis = [pi_n(a, k) for k in range(n + 1)]
    worst = 0.0
    stack = [(spec.initial.copy(), 0, 0.0)]
    while stack:
        counts, m, comp = stack.pop()
        if m == n:
            continue
        total = counts.sum()
        x_now = counts @ t_gen / pis[m] - comp
        comp_child = comp + (counts @ t_top) / ((m + 1.0) * pis[m + 1])
        expect = 0.0
        for color in range(spec.colors):
            if counts[color] <= 0.0:
                continue
            child = counts + spec.matrix[color]
            expect += counts[color] / total * (child @ t_gen / pis[m + 1] - comp_child)
            stack.append((child, m + 1, comp_child))
        worst = max(worst, abs(expect - x_now))
    return worst


@pytest.mark.parametrize(
    "spec", [J3, J4_BETA0, J4_BETA_HALF], ids=["j3", "j4_beta0", "j4_beta_half"]
)
@pytest.mark.parametrize("factor", [1.0, 1.01])
def test_compensated_check_matches_tree_walk(spec, factor):
    klass = classify(spec)
    basis = _scaled_generalized_basis(klass, factor)
    for n in range(1, 8):
        pooled = compensated_martingale_check(spec, klass, n, basis_matrix=basis)
        tree = _tree_walk_residual(spec, klass, n, basis)
        assert pooled == pytest.approx(tree, rel=1e-12, abs=1e-13)


def test_compensated_check_has_teeth_on_non_degenerate_jordan_at_cap():
    klass = classify(J4_BETA_HALF)
    assert compensated_martingale_check(J4_BETA_HALF, klass, 12) < 1e-12
    wrong = _scaled_generalized_basis(klass, 1.01)
    gap = compensated_martingale_check(J4_BETA_HALF, klass, 12, basis_matrix=wrong)
    assert gap > 1e-4


@pytest.mark.parametrize(
    "basis",
    [np.eye(3), np.eye(4)[:, :3], np.full((4, 4), np.nan), np.diag([1.0, 1.0, 1.0, np.inf])],
)
def test_compensated_check_rejects_bad_basis_matrix(basis):
    with pytest.raises(ValueError, match=r"basis_matrix must be a finite \(4, 4\)"):
        compensated_martingale_check(J4_BETA0, classify(J4_BETA0), 3, basis_matrix=basis)
