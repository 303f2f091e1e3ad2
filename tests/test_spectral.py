import dataclasses
import hashlib
import itertools
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_laws import BRANCHES

from urnlab import Family, classify, new_spec, predict, spectral
from urnlab.cli import _run_oracle_checks
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
    pi = stationary_2x2(np.array(TWO))
    assert pi.tolist() == pytest.approx([4 / 7, 3 / 7])
    pi2 = stationary_2x2(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert pi2.tolist() == pytest.approx([0.5, 0.5])
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


# Specs new_spec accepts within about 1e-9 of a covered shape.  Each used to
# be refused or to raise: sub-block row masses 8e-10 apart at s = 1/4;
# dominant-block rows summing to 1 + 1.0002e-9; two-colour rows 8e-10, 3e-10
# and 1e-10 apart; row 0 of four_jordan_below summing to 1 + 2e-11; an
# R[0, 1] of two_dom_half 1.4e-10 high; sub-block masses 3e-10 apart on rows
# that sum to exactly 1; and a dominant-block eigenvalue 1e-11 from the
# minor scale, again on exactly stochastic rows.
NEAR_FAMILY = {
    "sub_block": (
        [[0.1, 0.15, 0.75], [0.1 + 8e-10, 0.15, 0.75 - 8e-10], [0, 0, 1]],
        [0.3, 0.3, 0.4], Family.THREE_ONE_DOMINANT,
    ),
    "dominant_block": (
        [[0.5 + (1.5e-12 - 1.0002e-9) / 2, 0.25, 0.25],
         [0.0, 0.5 + 1.0002e-9, 0.5],
         [0.0, 0.3, 0.7 + (1.5e-12 - 1.0002e-9) / 2]],
        [0.4, 0.3, 0.3], Family.THREE_TWO_DOMINANT_DIAG,
    ),
    "rows_8e-10": ([[0.7, 0.3 + 8e-10], [0.4, 0.6]], [0.5, 0.5], Family.TWO_IRREDUCIBLE),
    "rows_3e-10": ([[0.7, 0.3 + 3e-10], [0.4, 0.6]], [0.5, 0.5], Family.TWO_IRREDUCIBLE),
    "rows_1e-10": ([[0.7, 0.3 + 1e-10], [0.4, 0.6]], [0.5, 0.5], Family.TWO_IRREDUCIBLE),
    "jordan_identity": (
        [[0.3 + 2e-11, 0.1, 0.5, 0.1], [0.1, 0.3, 0.3, 0.3],
         [0, 0, 0.7, 0.3], [0, 0, 0.3, 0.7]],
        uniform(4), Family.FOUR_BLOCK_JORDAN,
    ),
    "dom_fluct": (
        [[0.5, 0.2500000001399935, 0.25], [0, 0.75, 0.25], [0, 0.25, 0.75]],
        [0.5, 0.25, 0.25], Family.THREE_TWO_DOMINANT_DIAG,
    ),
    "sub_masses_on_stochastic_rows": (
        [[0.3125 + 3e-10, 0.1875, 0.5 - 3e-10], [0.1875, 0.3125, 0.5], [0, 0, 1]],
        [0.25, 0.25, 0.5], Family.THREE_ONE_DOMINANT,
    ),
    "near_repeated_on_stochastic_rows": (
        [[0.5, 0.3, 0.2], [0, 0.75 + 5e-12, 0.25 - 5e-12],
         [0, 0.25 - 5e-12, 0.75 + 5e-12]],
        [0.5, 0.25, 0.25], Family.THREE_TWO_DOMINANT_JORDAN,
    ),
}


@pytest.mark.parametrize("name", list(NEAR_FAMILY))
def test_near_family_specs_classify_and_pass_the_oracle(name):
    matrix, initial, family = NEAR_FAMILY[name]
    spec = new_spec(matrix, initial)
    klass = classify(spec)
    assert klass.family is family
    lines, ok = _run_oracle_checks(spec, klass, list(predict(klass)))
    assert ok, lines


def _beta_half_plus(gap):
    # The s = lambda = beta = 1/2 four-colour Jordan spec, beta moved by gap.
    return [[0.375, 0.125, 0.4, 0.1], [0.125, 0.375, 0.3, 0.2],
            [0, 0, 0.75 + gap / 2, 0.25 - gap / 2],
            [0, 0, 0.25 - gap / 2, 0.75 + gap / 2]]


def _jordan_below_moved(gap, spread):
    # four_jordan_below (s = beta = 0.4) with beta moved by gap and the
    # sub-block row masses moved to 0.4 -+ spread / 2.
    return [[0.3 - spread / 2, 0.1, 0.5 + spread / 2, 0.1],
            [0.1, 0.3 + spread / 2, 0.3 - spread / 2, 0.3],
            [0, 0, 0.7 + gap / 2, 0.3 - gap / 2],
            [0, 0, 0.3 - gap / 2, 0.7 + gap / 2]]


# Within REPEAT_TOL a dominant eigenvalue near the sub-block scale stays
# Jordan; beyond it the dominant eigenvector is solved for directly.  A Jordan
# column's residual reaches the gap plus half the mass spread, so the two
# share REPEAT_TOL: a gap and a spread of 8e-10 each are solved for directly.
@pytest.mark.parametrize(
    "matrix, family",
    [(_beta_half_plus(1e-10), Family.FOUR_BLOCK_JORDAN),
     (_beta_half_plus(5e-10), Family.FOUR_BLOCK_JORDAN),
     (_beta_half_plus(2e-9), Family.FOUR_BLOCK_DIAG),
     (_beta_half_plus(1e-7), Family.FOUR_BLOCK_DIAG),
     (_jordan_below_moved(4e-10, 8e-10), Family.FOUR_BLOCK_JORDAN),
     (_jordan_below_moved(8e-10, 8e-10), Family.FOUR_BLOCK_DIAG),
     (_jordan_below_moved(-8e-10, 8e-10), Family.FOUR_BLOCK_DIAG)],
    ids=["beta_1e-10", "beta_5e-10", "beta_2e-9", "beta_1e-7",
         "gap_4e-10_spread_8e-10", "gap_8e-10_spread_8e-10",
         "gap_-8e-10_spread_8e-10"],
)
def test_near_repeated_dominant_eigenvalue_classifies(matrix, family):
    assert classify(new_spec(matrix, uniform(4))).family is family


def _refusal_shape(message):
    # A refusal names original colors, which relabeling may change.
    return re.sub(r"\d+", "#", message)


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(BRANCHES)), keep_zeros=st.booleans(),
       data=st.data())
def test_specs_near_branches_classify_or_refuse_by_name(name, keep_zeros, data):
    matrix, initial, *_ = BRANCHES[name]
    m = np.array(matrix, dtype=float)
    moves = np.reshape(data.draw(st.lists(
        st.floats(-2e-9, 2e-9), min_size=m.size, max_size=m.size
    )), m.shape)
    if keep_zeros:
        moves[m == 0.0] = 0.0
    try:
        spec = new_spec(np.maximum(m + moves, 0.0), initial)
    except ValueError:
        assume(False)
    try:
        klass = classify(spec)
    except ValueError as exc:
        shapes = {_refusal_shape(msg) for kind, msg in REFUSALS.values()}
        assert _refusal_shape(str(exc)) in shapes
        return
    assert klass.supported or klass.warnings
    assert spectral._eigen_failure(spec, klass) is None


def _moved(vec, m, size):
    """vec moved along the coordinate m acts on most, so that |m @ vec| grows
    by size * |vec|."""
    norms = np.abs(m).max(axis=0)
    j = int(np.argmax(norms))
    out = np.array(vec, dtype=float)
    out[j] += size * np.abs(vec).max() / norms[j]
    return out


@pytest.mark.parametrize("name", sorted(BRANCHES))
def test_eigen_failure_names_a_pair_or_column_moved_past_repeat_tol(name):
    matrix, initial, *_ = BRANCHES[name]
    spec = new_spec(matrix, initial)
    klass = classify(spec)
    r, tol = spec.matrix, spectral.REPEAT_TOL
    for i, (label, vec, eig) in enumerate(klass.vectors):
        if eig is None or not np.abs(r - eig * np.eye(spec.colors)).max():
            continue
        for size, caught in ((10 * tol, True), (tol / 10, False)):
            vectors = list(klass.vectors)
            vectors[i] = (label, _moved(vec, r - eig * np.eye(spec.colors), size), eig)
            failure = spectral._eigen_failure(
                spec, dataclasses.replace(klass, vectors=tuple(vectors)))
            assert (failure is not None) is caught, (label, size)
            if caught:
                assert failure.startswith(f"stored pair for {label!r} ")
    if klass.jordan_basis_matrix is None:
        return
    t, j = klass.jordan_basis_matrix, klass.jordan_form
    for col in range(t.shape[1]):
        for size, caught in ((10 * tol, True), (tol / 10, False)):
            moved = t.copy()
            moved[:, col] = _moved(t[:, col], r - j[col, col] * np.eye(spec.colors), size)
            failure = spectral._eigen_failure(
                spec, dataclasses.replace(klass, jordan_basis_matrix=moved))
            assert (failure is not None) is caught, (col, size)
            if caught:
                assert failure.startswith(f"Jordan identity column {col} ")


def test_failed_identity_on_exactly_stochastic_rows_stays_internal(monkeypatch):
    # Rows summing to exactly 1 leave a failed check no excuse.
    failure = "Jordan identity has residual 1.0"
    monkeypatch.setattr(spectral, "_eigen_failure", lambda spec, klass: failure)
    spec = new_spec(FOUR_JORDAN, uniform(4))
    assert spec.matrix.sum(axis=1).tolist() == [1.0] * 4
    with pytest.raises(RuntimeError) as raised:
        classify(spec)
    assert str(raised.value) == f"internal: {failure}"


def test_jordan_basis_identity_holds():
    spec = new_spec(FOUR_JORDAN, uniform(4))
    k = classify(spec)
    t, j = k.jordan_basis_matrix, k.jordan_form
    np.testing.assert_allclose(spec.matrix @ t, t @ j, atol=1e-10)
    off = np.argwhere(np.triu(j, 1) == 1.0)
    assert len(off) == 1


def test_jordan_basis_refused_for_diagonalizable_families():
    k = classify(new_spec(TWO, uniform(2)))
    assert k.jordan_basis_matrix is None
    assert k.jordan_form is None


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


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# One spec for every reason classify gives when it finds no supported shape.
UNSUPPORTED = {
    "dense": ([[0.2, 0.8, 0.0], [0.3, 0.2, 0.5], [0.1, 0.2, 0.7]], uniform(3)),
    "two_alternating": ([[0.0, 1.0], [1.0, 0.0]], uniform(2)),
    "two_minor_scale_zero": ([[0.0, 1.0], [0.0, 1.0]], uniform(2)),
    "periodic_sub_block": (
        [[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.0, 0.0, 1.0]], [0.25, 0.25, 0.5]
    ),
    "sub_block_mass_one": (
        [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]], [0.25, 0.25, 0.5]
    ),
    "minor_scale_zero": (
        [[0.0, 0.5, 0.5], [0.0, 0.5, 0.5], [0.0, 0.5, 0.5]], uniform(3)
    ),
    "four_full_eigenspace_repeat": (
        [
            [0.25, 0.25, 0.25, 0.25],
            [0.25, 0.25, 0.25, 0.25],
            [0.0, 0.0, 0.75, 0.25],
            [0.0, 0.0, 0.25, 0.75],
        ],
        uniform(4),
    ),
}
REFUSED = {
    "five_colors": (np.eye(5) * 0.5 + np.full((5, 5), 0.1), uniform(5)),
    "two_triangular_no_mass": (TRI, [0.0, 1.0]),
    "one_dominant_no_mass": (ONE_DOM, [0.0, 0.0, 1.0]),
    "two_dominant_no_mass": (TWO_DOM_JORDAN, [0.0, 0.5, 0.5]),
    "four_block_no_mass": (FOUR_JORDAN, [0.0, 0.0, 0.5, 0.5]),
}


def _pinned_specs():
    specs = {name: (m, c0) for name, (m, c0, *_) in BRANCHES.items()}
    for path in sorted(CONFIGS.glob("*.json")):
        cfg = json.loads(path.read_text())
        specs[path.stem] = (cfg["replacement_matrix"], cfg["initial_composition"])
    specs.update(UNSUPPORTED)
    return specs


def _class_digest(klass):
    """sha256 over every field of a StructureClass but spec, bit for bit."""
    h = hashlib.sha256()

    def put(x):
        if isinstance(x, np.ndarray):
            h.update(f"{x.dtype}{x.shape}".encode())
            h.update(np.ascontiguousarray(x).tobytes())
        else:
            h.update(repr(x).encode())
        h.update(b"|")

    for x in (klass.family.value, klass.permutation, klass.warnings,
              klass.scale, klass.lam, klass.beta, klass.stationary_whole,
              klass.stationary_sub, klass.stationary_dom, klass.eigvec_lam,
              klass.eigvec_beta, klass.jordan_basis_matrix, klass.jordan_form):
        put(x)
    for label, vec, eig in klass.vectors:
        put(label)
        put(vec)
        put(eig)
    return h.hexdigest()


# Regenerate these only for a deliberate change to the classifier's output:
# every prediction, oracle check and verdict reads it.
CLASS_DIGESTS = {
    "identity": "af073db1ac381b95692943014d3f519058a5c8172661430c371a2811ba366a8d",
    "two_zero": "7e84bc90c8d163939a9e1e7c58c6a67c0f9a5c8f8542743fedc027486eb9076f",
    "two_below": "6a9a07620222f7b5d9430922d26148305fa06264dce7db82cfbe0ba5e6bbe5ab",
    "two_negative": "9e32c00e7d948d45750c36e0dffa91d9cc2a85194d5319864bad730de5c7865f",
    "two_half": "9bccc2449e8b875191dd0a1cd0545d8ad5f70448d25a35a7bbcbbf50a341fa4f",
    "two_above": "819f911f02909c20e077ec27092626483c124941fdafe58070b33d80ea41f50a",
    "two_triangular": "bcccd9d25d07f2ae674a83dd0aef0471f9050201f5114679628efdf53f310cd0",
    "one_dom_zero": "010c15745712fa9fcac11456e4ff0d5fa3af98be33cf7e56a60a1ed397d77f51",
    "one_dom_below": "a88e4077459f4723d29280be37ab82ab887a13973cb9c3505d654ade0077b10f",
    "one_dom_half": "3f721b70297e99b486ef551bbac3b57e3f07de8e5ff1186413ddcf4cfec5718f",
    "one_dom_above": "13291121357b9d30f335872a1b01274ad67428855a1af80f368cfa4c969549cb",
    "two_dom_zero": "853ea65cfa3067f94091a6b6bb271a40d1853b96fd91e6ec01b6a3c145d3f741",
    "two_dom_below": "8575f41020a2bb155c76773b661c33d0c6a47695035f7b409604f2e754bbee2e",
    "two_dom_negative": "d847772b077e4ef1cf4a908997298c856941726c8586e53fd46dab968d569304",
    "two_dom_half": "cfed268b9ef0f49399a9c3b63303eab8c9e73e666921f606f16b08dd8120df9b",
    "two_dom_above": "46171533f1d59a5d8629bd8723a1e0773422473027b79dbeab55d21e151b8e36",
    "two_dom_periodic": "c6ff3fa3a9e86a31baa3c6bd770f1a4e24350f98dcf730a68ea73bebfe0a8b61",
    "three_jordan_below": "7086681f6fbd6b871a629e0253914a646fe2fc3d21c32904d6c9a064bcbe20f9",
    "three_jordan_below_relabeled": "277feff475912bc90db4c02ca4bd4ce49811f9df7216c326a670fd147b12db6d",
    "three_jordan_above": "e71a25df5836dc3cf541a12a6632d0d80e8d558d71bd046fc3d9b2d1766a929f",
    "four_diag_zero": "0427d5713ebc38a29cf4a98cca5cc584e554f61966211abf5929579e8bde1bfb",
    "four_diag_below": "f2bf872dc4504962501084d34da850cd8d768292ff0c1c18d8a023052bc0b986",
    "four_diag_half": "d9f01ce196d7b9a1901465efa699f5fcfd81475c1dc85b3960c50be8da23b588",
    "four_diag_above": "f544f4bc999bac0da692700696bf87673c2c5785a1a295131959dafb20df5023",
    "four_diag_periodic": "ce40160d5a705f5d18acc6d2849fc58cd289d02d58ab8642912a313c53807d02",
    "four_jordan_zero": "45754c9e9e39e8c332f7f570736a138ecd1ba5622812fb257c4b733cf9438b0a",
    "four_jordan_below": "a2540c15fd2af4dd38bafca427f786a7c62cc6f23c1e9e2d08bcd51a2e1f419b",
    "four_jordan_below_relabeled": "58479801f329a6b4ce4c6dcc9154d7888e25d70a32523297abcaa26dca55b77e",
    "four_jordan_sub_total": "3889208088e42980d003ee151fa37d33a6e5ae0fc7931f7a73e18d30e4bb9844",
    "four_jordan_sub_fluct": "7e05653226af0bb9e2499136e1caf4509bc0b99e6022b840e7ec3dfed1a89312",
    "four_color_jordan": "45754c9e9e39e8c332f7f570736a138ecd1ba5622812fb257c4b733cf9438b0a",
    "three_color_mixture": "a88e4077459f4723d29280be37ab82ab887a13973cb9c3505d654ade0077b10f",
    "two_color": "6a9a07620222f7b5d9430922d26148305fa06264dce7db82cfbe0ba5e6bbe5ab",
    "dense": "33aeb1f76908a5cb67e07fd5befb4cbd955ded1a0c29a23590da3e4d1c5b55f3",
    "two_alternating": "a14f15c60e5f57689dc501611a37655a05514602ce8a22bf40f3cd725ebb45b7",
    "two_minor_scale_zero": "a19d93a7048f2199ae5f9bb99cdc60b8a366bb97ccb3dc3e4362f8fa635baf06",
    "periodic_sub_block": "d99e1d6bf892cc50aa01a7b002762cdf128fbc157a4e82b8a0a14e7515ed2699",
    "sub_block_mass_one": "85867d66e543c3b2daaf5de4c9719908480f0ff77b4293d5f55bb235576baf3a",
    "minor_scale_zero": "80bafca80ec8549b4f71a1b1c203a5f65adb369e95887583c44e6a533a22c0fc",
    "four_full_eigenspace_repeat": "73c2f13746aa9dd3f7d0b266e0816a081fdd1738aad729ebf1671d82eee51a0d",
}
REFUSALS = {
    "five_colors": ("ValueError", "classification supports 2 to 4 colors, got 5"),
    "two_triangular_no_mass": (
        "ValueError",
        "initial composition puts no mass on the minor color "
        "(original color 0); its scaled track is degenerate",
    ),
    "one_dominant_no_mass": (
        "ValueError",
        "initial composition puts no mass on the non-dominant "
        "colors (original colors 0 and 1); their scaled tracks are "
        "degenerate",
    ),
    "two_dominant_no_mass": (
        "ValueError",
        "initial composition puts no mass on the minor color "
        "(original color 0); its scaled track is degenerate",
    ),
    "four_block_no_mass": (
        "ValueError",
        "initial composition puts no mass on the non-dominant "
        "colors (original colors 0 and 1); their scaled tracks are "
        "degenerate",
    ),
}


def test_classify_pins_every_field():
    got = {
        name: _class_digest(classify(new_spec(m, c0)))
        for name, (m, c0) in _pinned_specs().items()
    }
    assert got == CLASS_DIGESTS


@pytest.mark.parametrize("name", list(REFUSED))
def test_classify_pins_refusals(name):
    m, c0 = REFUSED[name]
    with pytest.raises(ValueError) as info:
        classify(new_spec(m, c0))
    assert (type(info.value).__name__, str(info.value)) == REFUSALS[name]
