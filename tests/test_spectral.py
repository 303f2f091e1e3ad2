import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urnlab import Family, classify, jordan_basis, new_spec
from urnlab.spectral import eigenpair_2x2, normalize_eigvec, stationary_2x2

TWO = [[0.7, 0.3], [0.4, 0.6]]
TRI = [[0.5, 0.5], [0.0, 1.0]]
ONE_DOM = [[0.375, 0.125, 0.5], [0.125, 0.375, 0.5], [0.0, 0.0, 1.0]]
TWO_DOM_DIAG = [[0.5, 0.25, 0.25], [0.0, 0.75, 0.25], [0.0, 0.25, 0.75]]
TWO_DOM_JORDAN = [[0.5, 0.45, 0.05], [0.0, 0.75, 0.25], [0.0, 0.25, 0.75]]
FOUR_DIAG = [
    [0.375, 0.125, 0.25, 0.25],
    [0.125, 0.375, 0.25, 0.25],
    [0.0, 0.0, 0.5, 0.5],
    [0.0, 0.0, 0.5, 0.5],
]
FOUR_JORDAN = [
    [0.25, 0.25, 0.375, 0.125],
    [0.25, 0.25, 0.125, 0.375],
    [0.0, 0.0, 0.5, 0.5],
    [0.0, 0.0, 0.5, 0.5],
]


def uniform(k):
    return [1.0 / k] * k


def test_normalize_eigvec_frozen_cases():
    assert normalize_eigvec(np.array([3.0, -4.0])).tolist() == [0.75, -1.0]
    assert normalize_eigvec(np.array([-2.0, 2.0])).tolist() == [1.0, -1.0]
    assert normalize_eigvec(np.array([0.0, -0.5])).tolist() == [0.0, 1.0]
    with pytest.raises(ValueError):
        normalize_eigvec(np.zeros(2))


def test_eigenpair_2x2_frozen():
    lam, xi = eigenpair_2x2(np.array(TWO))
    assert lam == pytest.approx(0.3)
    assert xi.tolist() == pytest.approx([0.75, -1.0])
    # the pair really is an eigenpair of the row action
    np.testing.assert_allclose(np.array(TWO) @ xi, lam * xi, atol=1e-14)


def test_eigenpair_2x2_rejects_identity():
    with pytest.raises(ValueError):
        eigenpair_2x2(np.eye(2))


def test_stationary_2x2_frozen():
    pi, aperiodic = stationary_2x2(np.array(TWO))
    assert pi.tolist() == pytest.approx([4 / 7, 3 / 7])
    assert aperiodic
    pi2, aperiodic2 = stationary_2x2(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert pi2.tolist() == pytest.approx([0.5, 0.5])
    assert not aperiodic2
    with pytest.raises(ValueError):
        stationary_2x2(np.array(TRI))


@given(
    a=st.floats(0.01, 0.99),
    b=st.floats(0.01, 0.99),
)
def test_eigenpair_2x2_closed_form(a, b):
    m = np.array([[1.0 - a, a], [b, 1.0 - b]])
    lam, xi = eigenpair_2x2(m)
    assert lam == pytest.approx(1.0 - a - b, abs=1e-12)
    np.testing.assert_allclose(m @ xi, lam * xi, atol=1e-12)


def test_classify_identity():
    k = classify(new_spec([[1, 0], [0, 1]], [0.25, 0.75]))
    assert k.family is Family.IDENTITY
    assert k.supported


def test_classify_two_irreducible():
    k = classify(new_spec(TWO, uniform(2)))
    assert k.family is Family.TWO_IRREDUCIBLE
    assert k.lam == pytest.approx(0.3)
    np.testing.assert_allclose(k.stationary_whole, [4 / 7, 3 / 7])


def test_classify_two_triangular():
    k = classify(new_spec(TRI, uniform(2)))
    assert k.family is Family.TWO_TRIANGULAR
    assert k.scale == pytest.approx(0.5)
    # the minor color is the one whose count stays small
    assert k.permutation == (0, 1)


def test_classify_two_triangular_permuted():
    k = classify(new_spec([[1.0, 0.0], [0.5, 0.5]], uniform(2)))
    assert k.family is Family.TWO_TRIANGULAR
    assert k.permutation == (1, 0)
    assert k.vector("minor").tolist() == [0.0, 1.0]


def test_classify_three_one_dominant():
    k = classify(new_spec(ONE_DOM, [0.25, 0.25, 0.5]))
    assert k.family is Family.THREE_ONE_DOMINANT
    assert k.scale == pytest.approx(0.5)
    assert k.lam == pytest.approx(0.5)
    assert k.vector("sub_total").tolist() == [1.0, 1.0, 0.0]
    assert k.vector("sub_fluct").tolist() == [1.0, -1.0, 0.0]


def test_classify_two_dominant_diag_and_jordan():
    kd = classify(new_spec(TWO_DOM_DIAG, [0.5, 0.25, 0.25]))
    assert kd.family is Family.THREE_TWO_DOMINANT_DIAG
    assert kd.lam == pytest.approx(0.5)
    kj = classify(new_spec(TWO_DOM_JORDAN, [0.5, 0.25, 0.25]))
    assert kj.family is Family.THREE_TWO_DOMINANT_JORDAN
    # generalized vector (0, xi/kappa) with kappa = (1-s) p.xi = 0.4
    np.testing.assert_allclose(kj.vector("dom_fluct"), [0.0, 2.5, -2.5], atol=1e-12)


def test_classify_four_block_diag_vs_jordan():
    kd = classify(new_spec(FOUR_DIAG, uniform(4)))
    assert kd.family is Family.FOUR_BLOCK_DIAG
    assert kd.beta == pytest.approx(0.0)
    np.testing.assert_allclose(kd.vector("dom_fluct"), [0, 0, 1, -1], atol=1e-12)
    kj = classify(new_spec(FOUR_JORDAN, uniform(4)))
    assert kj.family is Family.FOUR_BLOCK_JORDAN
    np.testing.assert_allclose(kj.vector("dom_fluct"), [0, 0, 4, -4], atol=1e-12)


@pytest.mark.parametrize(
    "matrix, initial",
    [
        (TRI, uniform(2)),
        (ONE_DOM, [0.25, 0.25, 0.5]),
        (TWO_DOM_JORDAN, [0.5, 0.25, 0.25]),
        (FOUR_DIAG, uniform(4)),
        (FOUR_JORDAN, uniform(4)),
    ],
)
def test_classify_is_permutation_equivariant(matrix, initial):
    base = classify(new_spec(matrix, initial))
    m = np.array(matrix)
    c0 = np.array(initial)
    k = m.shape[0]
    for perm in itertools.permutations(range(k)):
        p = list(perm)
        mp = m[np.ix_(p, p)]
        permuted = classify(new_spec(mp, c0[p]))
        assert permuted.family is base.family
        # every track vector matches the transported one up to sign; the
        # sign is canonical only in canonical coordinates
        for label, vec, _ in base.vectors:
            moved = permuted.vector(label)
            err = min(
                np.abs(moved - vec[p]).max(), np.abs(moved + vec[p]).max()
            )
            assert err < 1e-9, (label, perm, moved, vec[p])


def test_classify_rejects_wrong_color_count():
    m5 = np.eye(5) * 0.5 + np.full((5, 5), 0.1)
    with pytest.raises(ValueError, match="colors"):
        classify(new_spec(m5, uniform(5)))


def test_classify_unsupported_gives_reasons():
    k = classify(new_spec([[0.2, 0.8, 0.0], [0.3, 0.2, 0.5], [0.1, 0.2, 0.7]], uniform(3)))
    assert k.family is Family.UNSUPPORTED
    assert not k.supported
    assert k.warnings


def test_degenerate_initial_mass_is_an_error():
    with pytest.raises(ValueError, match="no mass"):
        classify(new_spec(TRI, [0.0, 1.0]))
    with pytest.raises(ValueError, match="no mass"):
        classify(new_spec(ONE_DOM, [0.0, 0.0, 1.0]))


def test_periodic_sub_block_is_unsupported():
    # secondary eigenvalue -1: alternating sub-block
    m = [[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.0, 0.0, 1.0]]
    k = classify(new_spec(m, [0.25, 0.25, 0.5]))
    assert k.family is Family.UNSUPPORTED


def test_periodic_dominant_block_accepted_with_warning():
    m = [[0.5, 0.25, 0.25], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]
    k = classify(new_spec(m, [0.5, 0.25, 0.25]))
    assert k.family is Family.THREE_TWO_DOMINANT_DIAG
    assert any("alternates" in w for w in k.warnings)


def test_jordan_basis_identity_holds():
    spec = new_spec(FOUR_JORDAN, uniform(4))
    k = classify(spec)
    t, j = jordan_basis(spec, k)
    np.testing.assert_allclose(spec.matrix @ t, t @ j, atol=1e-10)
    off = np.argwhere(np.triu(j, 1) == 1.0)
    assert len(off) == 1


def test_jordan_basis_refused_for_diagonalizable_families():
    spec = new_spec(TWO, uniform(2))
    with pytest.raises(ValueError):
        jordan_basis(spec, classify(spec))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_classify_never_misidentifies_random_triangular(data):
    # random one-dominant structures must always land in the right family
    s = data.draw(st.floats(0.1, 0.9))
    q01 = data.draw(st.floats(0.05, 0.95))
    q10 = data.draw(st.floats(0.05, 0.95))
    q = np.array([[1 - q01, q01], [q10, 1 - q10]])
    m = np.zeros((3, 3))
    m[:2, :2] = s * q
    m[0, 2] = 1.0 - s
    m[1, 2] = 1.0 - s
    m[2, 2] = 1.0
    k = classify(new_spec(m, [0.25, 0.25, 0.5]))
    assert k.family is Family.THREE_ONE_DOMINANT
    assert k.scale == pytest.approx(s, abs=1e-9)
