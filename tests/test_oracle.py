import dataclasses
import hashlib
import itertools
import json
from pathlib import Path

import numpy as np
import oracle_reference as ref
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_acceptance import FAMILY_SPECS
from test_laws import BRANCHES

from urnlab import (
    Family,
    StructureClass,
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
from urnlab import oracle
from urnlab.oracle import MAX_ENUM_STEPS

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


def test_conditional_variance_residual_does_not_scale_with_the_track():
    # The identity is quadratic in v and the residual is divided by
    # max|v|**2, so scaling the tracks by a power of two keeps every bit.
    # One entry is moved off the eigenvector, so the residual is not 0.
    klass = classify(J4_BETA_HALF)

    def residual(scale):
        vectors = tuple((label, (v + np.array([0.0, 0.0, 1e-6, 0.0])) * scale, a)
                        for label, v, a in klass.vectors)
        moved = dataclasses.replace(klass, vectors=vectors)
        return _hex(exact_conditional_variance_check(J4_BETA_HALF, moved, 6))

    assert float.fromhex(residual(1.0)) > 1e-9
    assert residual(2.0**-20) == residual(1.0) == residual(2.0**30)


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
    wrong = klass.jordan_basis_matrix.copy()
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


@pytest.mark.parametrize("n", [2.7, 2.9, True, False, np.bool_(True), "3"])
def test_fractional_or_bool_n_is_rejected(n):
    klass = classify(J3)
    calls = [
        lambda: exact_distribution(J3, n),
        lambda: exact_mean_vector(J3, n),
        lambda: exact_mean_linear(J3, np.ones(3), 1.0, n),
        lambda: exact_conditional_variance_check(J3, klass, n),
        lambda: compensated_martingale_check(J3, klass, n),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="n is not an integer"):
            call()


def test_integral_n_of_any_number_type_is_accepted():
    for n in (3.0, np.int64(3), np.float64(3.0)):
        assert exact_distribution(J3, n) == exact_distribution(J3, 3)
        np.testing.assert_array_equal(exact_mean_vector(J3, n), exact_mean_vector(J3, 3))


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


@pytest.mark.parametrize("spec", [J3, J4_BETA_HALF], ids=["j3", "j4_beta_half"])
def test_compensated_check_witness_at_enumeration_cap(spec):
    klass = classify(spec)
    assert compensated_martingale_check(spec, klass, MAX_ENUM_STEPS) < 1e-12
    wrong = _scaled_generalized_basis(klass, 1.005)
    gap = compensated_martingale_check(spec, klass, MAX_ENUM_STEPS, basis_matrix=wrong)
    assert gap > 1e-9


@pytest.mark.parametrize(
    "basis",
    [np.eye(3), np.eye(4)[:, :3], np.full((4, 4), np.nan), np.diag([1.0, 1.0, 1.0, np.inf])],
)
def test_compensated_check_rejects_bad_basis_matrix(basis):
    with pytest.raises(ValueError, match=r"basis_matrix must be a finite \(4, 4\)"):
        compensated_martingale_check(J4_BETA0, classify(J4_BETA0), 3, basis_matrix=basis)


ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ("two_color", "three_color_mixture", "four_color_jordan")


def _pinned_specs():
    """(name, spec) for every predict() branch, every family and every config."""
    for name, (matrix, initial, *_) in BRANCHES.items():
        yield f"branch:{name}", new_spec(matrix, initial)
    for name, (matrix, initial) in FAMILY_SPECS.items():
        yield f"family:{name}", new_spec(matrix, initial)
    for name in CONFIGS:
        cfg = json.loads((ROOT / "configs" / f"{name}.json").read_text())
        yield f"config:{name}", new_spec(
            cfg["replacement_matrix"], cfg["initial_composition"]
        )


def _hex(value) -> str:
    return float(value).hex()


def _pinned(call) -> str:
    """float.hex of a check's result, or the name of the error it raises."""
    try:
        return _hex(call())
    except ValueError as exc:
        return type(exc).__name__


def _oracle_outputs():
    """Lines of float.hex text per public oracle output, keyed by output."""
    out = {key: [] for key in PINNED_DIGESTS}
    for name, spec in _pinned_specs():
        klass = classify(spec)
        for n in (8, MAX_ENUM_STEPS):
            out[f"atoms_{n}"].append(name + " " + " ".join(
                ",".join(map(_hex, (*atom.counts, atom.probability)))
                for atom in exact_distribution(spec, n)
            ))
        out["mean_vector"].append(
            name + " " + ",".join(map(_hex, exact_mean_vector(spec, MAX_ENUM_STEPS)))
        )
        for row in predict(klass):
            a = row.martingale_eigenvalue
            if a is not None:
                out["mean_linear"].append(f"{name} {row.label} " + _pinned(
                    lambda: exact_mean_linear(spec, row.vector, a, MAX_ENUM_STEPS)
                ))
        out["conditional_variance"].append(name + " " + _pinned(
            lambda: exact_conditional_variance_check(spec, klass, MAX_ENUM_STEPS)
        ))
        if klass.family in (Family.THREE_TWO_DOMINANT_JORDAN, Family.FOUR_BLOCK_JORDAN):
            for key, basis in (
                ("compensated", None),
                ("compensated_scaled", _scaled_generalized_basis(klass, 1.01)),
            ):
                out[key].append(name + " " + _hex(compensated_martingale_check(
                    spec, klass, MAX_ENUM_STEPS, basis_matrix=basis
                )))
    return out


# sha256 of the lines above, recorded before enumeration levels became whole
# arrays; any change in any bit of any output changes one of them.
# conditional_variance was re-pinned once, when tracks with eigenvalue -1
# (within REPEAT_TOL) were left out of that check: the two periodic branch
# specs read 0x1.2000000000000p-56 where they raised ValueError, and every
# other line kept its bits.
PINNED_DIGESTS = {
    "atoms_8": (
        "e14e74b7a75a074df1827ec0286e8971"
        "f0fc7b133a30c167598ee0cf7dd06324"
    ),
    "atoms_12": (
        "cdcc738e43023115a7f9f41b0306a489"
        "7341ba09e9e6d64f81f7cc4632de1815"
    ),
    "mean_vector": (
        "cce79554e3af10f7a4138e35efd9cc93"
        "b049d071109e83a24913f58a6c2d33d9"
    ),
    "mean_linear": (
        "bb50b9fe31ed1478bad70b8782148430"
        "02f4c187d4383cb74b1a6b5f42c91b24"
    ),
    "conditional_variance": (
        "553441911a9e746ad869ddb76fe14913"
        "217f6942928fcfd2bc83343f18fce7b8"
    ),
    "compensated": (
        "beaf12a0ce4821b6df418c41a5fbc523"
        "4e82a7b9075de89a31a52f44db52481f"
    ),
    "compensated_scaled": (
        "c63154e2e8aee5e093614aa836ed29a3"
        "d3a032fa8023e7d48c561cdfbb6e51e7"
    ),
}


def test_oracle_outputs_are_pinned_bit_for_bit():
    digests = {
        key: hashlib.sha256("\n".join(lines).encode()).hexdigest()
        for key, lines in _oracle_outputs().items()
    }
    assert digests == PINNED_DIGESTS


@st.composite
def _sparse_urns(draw):
    """A balanced K = 2..4 urn with zero entries in its rows and its start."""
    k = draw(st.integers(2, 4))
    weights = st.lists(st.integers(0, 4), min_size=k, max_size=k).filter(any)
    rows = [draw(weights) for _ in range(k)]
    start = draw(weights)
    return new_spec(
        [[w / sum(row) for w in row] for row in rows],
        [w / sum(start) for w in start],
    )


def _bits(values) -> list[str]:
    return [_hex(x) for x in values]


@settings(max_examples=40, deadline=None)
@given(spec=_sparse_urns(), n=st.integers(0, 8), seed=st.integers(0, 2**32 - 1))
def test_oracle_matches_per_atom_reference_bit_for_bit(spec, n, seed):
    k = spec.colors
    atoms = exact_distribution(spec, n)
    assert [_bits((*a.counts, a.probability)) for a in atoms] == [
        _bits((*counts, prob)) for counts, prob in ref.distribution(spec, n)
    ]
    values, vectors = np.linalg.eig(spec.matrix)
    for i in np.flatnonzero(np.abs(values.imag) < 1e-12):
        # a strided view, as eigenvectors often are
        v, a = vectors[:, i].real, float(values[i].real)
        assert _hex(exact_mean_linear(spec, v, a, n)) == _hex(ref.mean_linear(spec, v, n))
    # Random tracks and a random basis break both identities, so every
    # residual below is large and carries all of its bits.
    rng = np.random.default_rng(seed)
    basis = rng.uniform(-2.0, 2.0, (k, k))
    eigs = rng.uniform(-0.9, 1.5, k)
    top = int(rng.integers(k - 1))
    jordan = np.diag(eigs)
    jordan[top, top + 1] = 1.0
    klass = StructureClass(
        family=Family.FOUR_BLOCK_JORDAN,
        spec=spec,
        permutation=tuple(range(k)),
        jordan_basis_matrix=basis,
        jordan_form=jordan,
        vectors=tuple((f"v{i}", basis[:, i], float(eigs[i])) for i in range(k)),
    )
    tracks = [(basis[:, i], float(eigs[i])) for i in range(k)]
    assert _hex(exact_conditional_variance_check(spec, klass, n)) == _hex(
        ref.conditional_variance(spec, tracks, n)
    )
    assert _hex(compensated_martingale_check(spec, klass, n)) == _hex(
        ref.compensated(spec, basis[:, top + 1], basis[:, top], eigs[top + 1], n)
    )


@pytest.mark.parametrize(
    "x", ["0x1.e598602cea4a1p-1", "0x1.28e8d26eab98ap+1", "0x1.48d34abf950f7p+1"]
)
def test_squared_mean_rounds_as_the_reference_does(x):
    # From C_0 = (1, 0) under the identity urn the one-step gap of the track
    # v = (x, 0) is 0, so the residual is only (C_0 . v)^2 computed two ways:
    # x * x against x ** 2.  Here libm's pow rounds these x differently from
    # a multiply, and the check must round as the scalar code did.
    spec = new_spec([[1.0, 0.0], [0.0, 1.0]], [1.0, 0.0])
    v = np.array([float.fromhex(x), 0.0])
    klass = StructureClass(
        family=Family.IDENTITY, spec=spec, permutation=(0, 1), vectors=(("v", v, 1.0),)
    )
    assert _hex(exact_conditional_variance_check(spec, klass, 1)) == _hex(
        ref.conditional_variance(spec, [(v, 1.0)], 1)
    )


@pytest.mark.parametrize(
    "vector, eigenvalue, match",
    [
        ([np.nan, 1.0], 1.0, "not an eigenpair"),
        ([1.0, 1.0], np.nan, "not an eigenpair"),
        ([1.0], 1.0, r"vector must have shape \(2,\), got \(1,\)"),
    ],
    ids=["nan_vector", "nan_eigenvalue", "short_vector"],
)
def test_exact_mean_linear_refuses_nan_and_misshapen_vectors(vector, eigenvalue, match):
    cfg = json.loads((ROOT / "configs" / "two_color.json").read_text())
    spec = new_spec(cfg["replacement_matrix"], cfg["initial_composition"])
    with pytest.raises(ValueError, match=match):
        exact_mean_linear(spec, vector, eigenvalue, 3)


def _fresh_memo(monkeypatch) -> list:
    """Give the test an empty walk memo; return a list with one entry per level built."""
    monkeypatch.setattr(oracle, "_WALKS", {})
    builds = []
    pool = oracle._pool

    def counted(children, weights):
        builds.append(len(children))
        return pool(children, weights)

    monkeypatch.setattr(oracle, "_pool", counted)
    return builds


def test_oracle_caps_sequence_builds_each_level_once(monkeypatch):
    builds = _fresh_memo(monkeypatch)
    specs = [spec for name, spec in _pinned_specs() if name.startswith("config:")]
    for spec in [*specs, J4_BETA_HALF]:
        klass = classify(spec)
        before = len(builds)
        exact_distribution(spec, 12)
        for row in predict(klass):
            if row.martingale_eigenvalue is not None:
                exact_mean_linear(spec, row.vector, row.martingale_eigenvalue, 12)
        exact_conditional_variance_check(spec, klass, 12)
        if klass.jordan_form is not None:
            compensated_martingale_check(spec, klass, 9)
            compensated_martingale_check(spec, klass, 6)
        assert len(builds) - before == 12


def _outputs_at(spec, klass, n) -> list[str]:
    """float.hex of every oracle output for spec at n."""
    out = [_hex(x) for atom in exact_distribution(spec, n)
           for x in (*atom.counts, atom.probability)]
    out += [_hex(exact_mean_linear(spec, row.vector, row.martingale_eigenvalue, n))
            for row in predict(klass) if row.martingale_eigenvalue is not None]
    out.append(_hex(exact_conditional_variance_check(spec, klass, n)))
    for basis in (None, _scaled_generalized_basis(klass, 1.01)):
        out.append(_hex(
            compensated_martingale_check(spec, klass, n, basis_matrix=basis)
        ))
    return out


@pytest.mark.parametrize("order", list(itertools.permutations((6, 9, 12))))
def test_results_do_not_depend_on_the_order_n_is_asked_in(monkeypatch, order):
    _fresh_memo(monkeypatch)
    klass = classify(J4_BETA_HALF)
    got = {n: _outputs_at(J4_BETA_HALF, klass, n) for n in order}
    for n in (6, 9, 12):
        oracle._WALKS.clear()
        assert got[n] == _outputs_at(J4_BETA_HALF, klass, n)


def test_cached_walk_arrays_are_read_only(monkeypatch):
    _fresh_memo(monkeypatch)
    for n in (4, 8):
        exact_distribution(J3, n)
        (walk,) = oracle._WALKS.values()
        assert len(walk) == n + 1
        for x in (x for level in walk for x in level):
            assert not x.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                x.flat[0] = 0.0


def test_a_spec_one_ulp_away_gets_its_own_walk(monkeypatch):
    builds = _fresh_memo(monkeypatch)
    matrix, initial = np.array(J4_BETA_HALF.matrix), np.array(J4_BETA_HALF.initial)
    matrix[0, 0] = np.nextafter(matrix[0, 0], 1.0)
    initial[0] = np.nextafter(initial[0], 1.0)
    exact_distribution(J4_BETA_HALF, 5)
    for other in (new_spec(matrix, J4_BETA_HALF.initial),
                  new_spec(J4_BETA_HALF.matrix, initial)):
        assert (other.matrix.tobytes(), other.initial.tobytes()) != (
            J4_BETA_HALF.matrix.tobytes(), J4_BETA_HALF.initial.tobytes())
        before = len(builds)
        atoms = exact_distribution(other, 5)
        assert len(builds) - before == 5
        assert [_bits((*a.counts, a.probability)) for a in atoms] == [
            _bits((*counts, prob)) for counts, prob in ref.distribution(other, 5)
        ]


def test_memo_stays_within_its_bound(monkeypatch):
    _fresh_memo(monkeypatch)
    seen = set()

    @settings(max_examples=40, deadline=None)
    @given(spec=_sparse_urns(), n=st.integers(0, 4))
    def run(spec, n):
        exact_distribution(spec, n)
        seen.add((spec.matrix.tobytes(), spec.initial.tobytes()))
        assert len(oracle._WALKS) <= oracle._MEMO_SPECS

    run()
    # Otherwise the run never asked the memo to hold more than its bound.
    assert len(seen) > oracle._MEMO_SPECS
