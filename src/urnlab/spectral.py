"""Structural classification of replacement matrices.

A validated matrix is matched, up to relabeling of colors, against the
block-triangular shapes this package has closed-form limit theory for.
Classification fills in the data the scaling laws need: block scale and
eigenvalues, normalized eigenvectors, stationary distributions of the 2x2
blocks, and a Jordan basis when the matrix is not diagonalizable.

All 2x2 spectra are in closed form: for a stochastic block
[[1-a, a], [b, 1-b]] the non-principal eigenvalue is 1-a-b, its right
eigenvector is proportional to (a, -b), and the stationary distribution is
(b, a)/(a+b).  No general eigensolver is involved.

One tolerance, REPEAT_TOL, governs both what classify admits and what it
verifies.  Structure is admitted with REPEAT_TOL of slack: sub-block row
masses, eigenvalue coincidences and open-interval margins.  A four-color
Jordan column's residual is the eigenvalue gap plus the sub-block masses'
distance from their mean, so a repeat there spends both from one
REPEAT_TOL.  Each 2x2 block is divided by its own row sums before its closed
form is taken, so the closed forms never see row-sum slack.  Every stored
eigenpair (v, a) is then checked relative to its size,
|Rv - av|_inf / |v|_inf <= REPEAT_TOL, and a Jordan identity RT = TJ column
by column the same way.  A check that fails after admission is a fault in
this module, not a property of the input.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import ReplacementSpec

__all__ = [
    "ZERO_TOL",
    "REPEAT_TOL",
    "Family",
    "StructureClass",
    "normalize_eigvec",
    "eigenpair_2x2",
    "stationary_2x2",
    "classify",
]

# Entries at or below this count as structural zeros.
ZERO_TOL = 1e-12
# Structural slack (eigenvalue coincidence, equal sub-block masses,
# open-interval margins) and the relative residual every stored pair meets.
REPEAT_TOL = 1e-9


class Family(Enum):
    """Matrix shapes with known limit behavior, up to color relabeling.

    identity: no mixing at all; shares converge to a random vector.
    two-irreducible: 2 colors, both off-diagonal entries positive.
    two-triangular: 2 colors, one self-feeding minor color, one absorbing.
    three-one-dominant: 2-color sub-block feeding a single absorbing color.
    three-two-dominant-*: one minor color feeding an irreducible 2x2 block,
        split by whether the matrix is diagonalizable.
    four-block-*: 2-color sub-block feeding an irreducible 2x2 block,
        split the same way.
    """

    IDENTITY = "identity"
    TWO_IRREDUCIBLE = "two-irreducible"
    TWO_TRIANGULAR = "two-triangular"
    THREE_ONE_DOMINANT = "three-one-dominant"
    THREE_TWO_DOMINANT_DIAG = "three-two-dominant-diag"
    THREE_TWO_DOMINANT_JORDAN = "three-two-dominant-jordan"
    FOUR_BLOCK_DIAG = "four-block-diag"
    FOUR_BLOCK_JORDAN = "four-block-jordan"
    UNSUPPORTED = "unsupported"


@dataclass(frozen=True, eq=False)
class StructureClass:
    """Classification result plus the spectral data the laws consume.

    permutation maps canonical position j to the original color
    permutation[j]; canonical order puts non-dominant colors first.  A
    canonical-coordinate vector v maps back via orig[permutation[j]] = v[j].

    scale is the row mass s of the non-dominant block, lam the non-principal
    eigenvalue driving the fluctuation track (of the whole matrix for two
    colors, of the sub-block otherwise, of the dominant block for the
    three-color two-dominant shape), beta the dominant-block non-principal
    eigenvalue in the four-color shape.  Stationary vectors and eigvec_*
    are 2-vectors in canonical block order.  vectors lists (label, vector,
    eigenvalue) with vectors in original coordinates; eigenvalue is None
    for generalized-eigenvector tracks.
    """

    family: Family
    spec: ReplacementSpec
    permutation: tuple[int, ...]
    scale: float | None = None
    lam: float | None = None
    beta: float | None = None
    stationary_whole: np.ndarray | None = None
    stationary_sub: np.ndarray | None = None
    stationary_dom: np.ndarray | None = None
    eigvec_lam: np.ndarray | None = None
    eigvec_beta: np.ndarray | None = None
    jordan_basis_matrix: np.ndarray | None = None
    jordan_form: np.ndarray | None = None
    vectors: tuple[tuple[str, np.ndarray, float | None], ...] = ()
    warnings: tuple[str, ...] = ()

    @property
    def supported(self) -> bool:
        return self.family is not Family.UNSUPPORTED

    def vector(self, label: str) -> np.ndarray:
        for name, vec, _ in self.vectors:
            if name == label:
                return vec
        raise KeyError(label)


class _NoMatch(Exception):
    """One candidate relabeling failed; reason kept only when informative."""

    def __init__(self, reason: str = ""):
        super().__init__(reason)
        self.reason = reason


def normalize_eigvec(v) -> np.ndarray:
    """Scale so max|v_i| = 1 with the first nonzero coordinate positive."""
    v = np.asarray(v, dtype=float)
    peak = np.abs(v).max() if v.size else 0.0
    if peak <= 0.0:
        raise ValueError("cannot normalize a zero vector")
    out = v / peak
    lead = np.flatnonzero(np.abs(out) > ZERO_TOL)
    if lead.size and out[lead[0]] < 0:
        out = -out
    return out


def _offdiag(m: np.ndarray) -> tuple[float, float]:
    return float(m[0, 1]), float(m[1, 0])


def eigenpair_2x2(m) -> tuple[float, np.ndarray]:
    """Non-principal eigenpair of a 2x2 stochastic matrix, closed form.

    The eigenvalue is trace - 1; the eigenvector is normalize((a, -b)) for
    off-diagonals a, b.  The identity matrix has no non-principal pair.
    """
    m = np.asarray(m, dtype=float)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
    if np.abs(m.sum(axis=1) - 1.0).max() > REPEAT_TOL:
        raise ValueError("matrix rows must sum to 1")
    a, b = _offdiag(m)
    if a <= ZERO_TOL and b <= ZERO_TOL:
        raise ValueError("identity matrix has no non-principal eigenpair")
    lam = float(m[0, 0] + m[1, 1] - 1.0)
    return lam, normalize_eigvec(np.array([a, -b]))


def stationary_2x2(m) -> np.ndarray:
    """Stationary distribution (b, a)/(a+b) of an irreducible 2x2 chain.

    A chain that alternates deterministically (non-principal eigenvalue -1)
    still gets its stationary vector, but there time averages, not laws,
    converge to it.
    """
    m = np.asarray(m, dtype=float)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
    a, b = _offdiag(m)
    if a <= ZERO_TOL and b <= ZERO_TOL:
        raise ValueError("identity matrix has no unique stationary distribution")
    if a <= ZERO_TOL or b <= ZERO_TOL:
        raise ValueError("matrix is reducible; stationary distribution is degenerate")
    return np.array([b, a]) / (a + b)


def _permute(matrix: np.ndarray, perm: tuple[int, ...]) -> np.ndarray:
    idx = np.array(perm)
    return matrix[np.ix_(idx, idx)]


def _to_original(v_canonical, perm: tuple[int, ...], k: int) -> np.ndarray:
    out = np.zeros(k)
    out[list(perm)] = np.asarray(v_canonical, dtype=float)
    return out


def _pair_residual(r: np.ndarray, vec: np.ndarray, image: np.ndarray) -> float:
    """|r @ vec - image|_inf / |vec|_inf: the residual of a stored pair
    relative to its vector's size; image is eig * vec, or T J's column.
    NaN when vec is zero or anything is NaN."""
    with np.errstate(invalid="ignore", divide="ignore"):
        return float(np.abs(r @ vec - image).max() / np.abs(vec).max())


def _eigen_failure(spec: ReplacementSpec, klass: StructureClass) -> str | None:
    """The first stored eigenpair or Jordan column whose relative residual
    exceeds REPEAT_TOL, named with it, or None when all of them hold."""
    r = spec.matrix
    for label, vec, eig in klass.vectors:
        if eig is None:
            continue
        residual = _pair_residual(r, vec, eig * vec)
        if not residual <= REPEAT_TOL:
            return f"stored pair for {label!r} has relative residual {residual!r}"
    if klass.jordan_basis_matrix is not None:
        t = klass.jordan_basis_matrix
        tj = t @ klass.jordan_form
        for col in range(t.shape[1]):
            residual = _pair_residual(r, t[:, col], tj[:, col])
            if not residual <= REPEAT_TOL:
                return (f"Jordan identity column {col} has relative residual "
                        f"{residual!r}")
    return None


def _identity_class(spec: ReplacementSpec) -> StructureClass:
    k = spec.colors
    vectors = [("mass", np.ones(k), 1.0)]
    for i in range(k - 1):
        e = np.zeros(k)
        e[i] = 1.0
        vectors.append((f"share_{i}", e, 1.0))
    return StructureClass(
        family=Family.IDENTITY,
        spec=spec,
        permutation=tuple(range(k)),
        vectors=tuple(vectors),
    )


def _minor_scale(rp: np.ndarray) -> float:
    """Self-replacement s of the leading minor color, strictly inside (0, 1)."""
    s = float(rp[0, 0])
    if not (REPEAT_TOL < s < 1.0 - REPEAT_TOL):
        raise _NoMatch(
            "triangular shape found but the minor color's self-replacement "
            "is 0 or 1; scaled limits need it strictly inside (0, 1)"
        )
    return s


def _require_irreducible(block: np.ndarray) -> None:
    if block[0, 1] <= ZERO_TOL or block[1, 0] <= ZERO_TOL:
        raise _NoMatch()


def _sub_block(rp: np.ndarray) -> tuple[float, np.ndarray, float]:
    """(s, Q, lam) for the leading 2x2 block: its row masses s0 and s1,
    equal within REPEAT_TOL, their mean s, Q = the block with each row divided
    by its own mass, and Q's non-principal eigenvalue.  Q must be irreducible
    and aperiodic."""
    s0 = float(rp[0, :2].sum())
    s1 = float(rp[1, :2].sum())
    if abs(s0 - s1) > REPEAT_TOL:
        raise _NoMatch()
    s = 0.5 * (s0 + s1)
    if not (REPEAT_TOL < s < 1.0 - REPEAT_TOL):
        raise _NoMatch(
            "block-triangular shape found but the non-dominant block's row "
            "mass is 0 or 1; scaled limits need it strictly inside (0, 1)"
        )
    q = rp[:2, :2] / np.array([[s0], [s1]])
    _require_irreducible(q)
    lam = float(q[0, 0] + q[1, 1] - 1.0)
    if lam <= -1.0 + REPEAT_TOL:
        raise _NoMatch(
            "non-dominant block alternates deterministically "
            "(non-principal eigenvalue -1); its embedded chain has no limit law"
        )
    return s, q, lam


def _dominant_block(block: np.ndarray) -> tuple[np.ndarray, float, list[str]]:
    """(P, lam, warnings) for an irreducible dominant 2x2 block: P is the
    block with each row divided by its own sum, lam P's non-principal
    eigenvalue.  A periodic block is accepted with a warning."""
    p = block / block.sum(axis=1, keepdims=True)
    _require_irreducible(p)
    lam = float(p[0, 0] + p[1, 1] - 1.0)
    warnings: list[str] = []
    if lam <= -1.0 + REPEAT_TOL:
        warnings.append(
            "dominant block alternates deterministically; predictions built "
            "from its stationary distribution are unverified"
        )
    return p, lam, warnings


def _require_minor_mass(spec: ReplacementSpec, perm: tuple[int, ...]) -> None:
    if spec.initial[perm[0]] <= 0.0:
        raise ValueError(
            f"initial composition puts no mass on the minor color "
            f"(original color {perm[0]}); its scaled track is degenerate"
        )


def _require_sub_mass(spec: ReplacementSpec, perm: tuple[int, ...]) -> None:
    if spec.initial[perm[0]] + spec.initial[perm[1]] <= 0.0:
        raise ValueError(
            "initial composition puts no mass on the non-dominant colors "
            f"(original colors {perm[0]} and {perm[1]}); "
            "their scaled tracks are degenerate"
        )


def _match_two_irreducible(spec: ReplacementSpec, perm: tuple[int, ...]) -> StructureClass:
    rp = _permute(spec.matrix, perm)
    _require_irreducible(rp)
    lam = float(rp[0, 0] + rp[1, 1] - 1.0)
    if lam <= -1.0 + REPEAT_TOL:
        raise _NoMatch(
            "the two colors alternate deterministically "
            "(non-principal eigenvalue -1); scaled limit laws do not apply"
        )
    _, xi = eigenpair_2x2(rp)
    return StructureClass(
        family=Family.TWO_IRREDUCIBLE,
        spec=spec,
        permutation=perm,
        lam=lam,
        stationary_whole=stationary_2x2(rp),
        eigvec_lam=xi,
        vectors=(
            ("mass", np.ones(2), 1.0),
            ("fluct", _to_original(xi, perm, 2), lam),
        ),
    )


def _match_two_triangular(spec: ReplacementSpec, perm: tuple[int, ...]) -> StructureClass:
    rp = _permute(spec.matrix, perm)
    if rp[1, 0] > ZERO_TOL:
        raise _NoMatch()
    s = _minor_scale(rp)
    _require_minor_mass(spec, perm)
    return StructureClass(
        family=Family.TWO_TRIANGULAR,
        spec=spec,
        permutation=perm,
        scale=s,
        vectors=(
            ("mass", np.ones(2), 1.0),
            ("minor", _to_original([1.0, 0.0], perm, 2), s),
        ),
    )


def _match_one_dominant(spec: ReplacementSpec, perm: tuple[int, ...]) -> StructureClass:
    rp = _permute(spec.matrix, perm)
    if rp[2, 0] > ZERO_TOL or rp[2, 1] > ZERO_TOL:
        raise _NoMatch()
    s, q, lam = _sub_block(rp)
    _require_sub_mass(spec, perm)
    _, xi = eigenpair_2x2(q)
    return StructureClass(
        family=Family.THREE_ONE_DOMINANT,
        spec=spec,
        permutation=perm,
        scale=s,
        lam=lam,
        stationary_sub=stationary_2x2(q),
        eigvec_lam=xi,
        vectors=(
            ("mass", np.ones(3), 1.0),
            ("sub_total", _to_original([1.0, 1.0, 0.0], perm, 3), s),
            ("sub_fluct", _to_original([xi[0], xi[1], 0.0], perm, 3), s * lam),
        ),
    )


def _match_two_dominant(spec: ReplacementSpec, perm: tuple[int, ...]) -> StructureClass:
    rp = _permute(spec.matrix, perm)
    if rp[1, 0] > ZERO_TOL or rp[2, 0] > ZERO_TOL:
        raise _NoMatch()
    s = _minor_scale(rp)
    p_block, lam, warnings = _dominant_block(rp[1:, 1:])
    _require_minor_mass(spec, perm)
    _, xi = eigenpair_2x2(p_block)
    pi_p = stationary_2x2(p_block)
    coupling = rp[0, 1:] / (1.0 - s)
    minor = _to_original([1.0, 0.0, 0.0], perm, 3)
    common = dict(
        spec=spec,
        permutation=perm,
        scale=s,
        lam=lam,
        stationary_dom=pi_p,
        eigvec_lam=xi,
    )
    base_rows = (("mass", np.ones(3), 1.0), ("minor", minor, s))
    pxi = float(coupling @ xi)
    if abs(lam - s) > REPEAT_TOL:
        c = (1.0 - s) * pxi / (lam - s)
    elif abs(pxi) > REPEAT_TOL:
        # Repeated eigenvalue with a deficient eigenspace: pin the
        # generalized vector's scale so that R t2 = t1 + s t2 holds exactly.
        xi_pinned = xi / ((1.0 - s) * pxi)
        t = np.column_stack([
            minor,
            _to_original([0.0, xi_pinned[0], xi_pinned[1]], perm, 3),
            np.ones(3),
        ])
        return StructureClass(
            family=Family.THREE_TWO_DOMINANT_JORDAN,
            warnings=tuple(warnings),
            jordan_basis_matrix=t,
            jordan_form=np.array([[s, 1.0, 0.0], [0.0, s, 0.0], [0.0, 0.0, 1.0]]),
            vectors=base_rows + (("dom_fluct", t[:, 1].copy(), None),),
            **common,
        )
    else:
        # Repeated eigenvalue with a full eigenspace: the coupling row is
        # orthogonal to xi, which forces it to equal the stationary
        # distribution of the dominant block.
        if float(np.abs(coupling - pi_p).max()) > REPEAT_TOL:
            warnings.append(
                "coupling row is orthogonal to the dominant eigenvector yet "
                "differs from the stationary distribution; numerical edge"
            )
        c = 0.0
    return StructureClass(
        family=Family.THREE_TWO_DOMINANT_DIAG,
        warnings=tuple(warnings),
        vectors=base_rows + (
            ("dom_fluct", _to_original([c, xi[0], xi[1]], perm, 3), lam),
        ),
        **common,
    )


def _match_four_block(spec: ReplacementSpec, perm: tuple[int, ...]) -> StructureClass:
    rp = _permute(spec.matrix, perm)
    if float(np.abs(rp[2:, :2]).max()) > ZERO_TOL:
        raise _NoMatch()
    s, q, lam = _sub_block(rp)
    p_block, beta, warnings = _dominant_block(rp[2:, 2:])
    _require_sub_mass(spec, perm)
    _, xi = eigenpair_2x2(q)
    pi_q = stationary_2x2(q)
    _, nu_hat = eigenpair_2x2(p_block)
    pi_p = stationary_2x2(p_block)
    v1 = _to_original([1.0, 1.0, 0.0, 0.0], perm, 4)
    v2 = _to_original([xi[0], xi[1], 0.0, 0.0], perm, 4)
    # Resolve the coupling image of the dominant eigenvector in the basis
    # {ones, xi} of the sub-block plane: E nu_hat = a * ones + b * xi.
    e_nu = rp[:2, 2:] @ nu_hat
    a_coef = float(pi_q @ e_nu)
    b_coef = float((e_nu[0] - e_nu[1]) / (xi[0] - xi[1]))
    common = dict(
        spec=spec,
        permutation=perm,
        scale=s,
        lam=lam,
        beta=beta,
        stationary_sub=pi_q,
        stationary_dom=pi_p,
        eigvec_lam=xi,
        eigvec_beta=nu_hat,
        warnings=tuple(warnings),
    )
    base_rows = (
        ("mass", np.ones(4), 1.0),
        ("sub_total", v1, s),
        ("sub_fluct", v2, s * lam),
    )
    # A Jordan column's residual reaches the eigenvalue gap plus the distance
    # of the sub-block row masses from s, so the two share one REPEAT_TOL.
    slack = float(np.abs(rp[:2, :2].sum(axis=1) - s).max())
    repeated_s = abs(beta - s) + slack <= REPEAT_TOL
    if not repeated_s and abs(beta - s * lam) + slack > REPEAT_TOL:
        u = np.linalg.solve(beta * np.eye(2) - s * q, e_nu)
        v3 = _to_original([u[0], u[1], nu_hat[0], nu_hat[1]], perm, 4)
        return StructureClass(
            family=Family.FOUR_BLOCK_DIAG,
            vectors=base_rows + (("dom_fluct", v3, beta),),
            **common,
        )
    if repeated_s:
        # Generalized vector above the sub-total eigenvector: solve
        # s(Q - I)u = -(b/a) xi, so u is a multiple of xi.
        pivot, other, u_dir = a_coef, b_coef, xi
        t_cols = [v2, v1]
        alpha = s * lam
    else:
        # Generalized vector above the sub-fluct eigenvector: solve
        # s(Q - lam I)u = -(a/b) ones, so u is a multiple of ones.
        pivot, other, u_dir = b_coef, -a_coef, np.ones(2)
        t_cols = [v1, v2]
        alpha = s
    if abs(pivot) <= REPEAT_TOL:
        raise _NoMatch(
            "dominant-block eigenvalue repeats one of the non-dominant "
            "eigenvalues with a full eigenspace; no covered limit law"
        )
    nu = nu_hat / pivot
    u = (other / pivot) / (s * (1.0 - lam)) * u_dir
    t3 = _to_original([u[0], u[1], nu[0], nu[1]], perm, 4)
    t = np.column_stack([t_cols[0], t_cols[1], t3, np.ones(4)])
    j = np.array(
        [
            [alpha, 0.0, 0.0, 0.0],
            [0.0, beta, 1.0, 0.0],
            [0.0, 0.0, beta, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
    return StructureClass(
        family=Family.FOUR_BLOCK_JORDAN,
        jordan_basis_matrix=t,
        jordan_form=j,
        vectors=base_rows + (("dom_fluct", t3, None),),
        **common,
    )


def _unsupported(spec: ReplacementSpec, k: int, reasons: list[str]) -> StructureClass:
    seen: list[str] = []
    for r in reasons:
        if r and r not in seen:
            seen.append(r)
    if not seen:
        seen.append(
            "no supported block-triangular structure found under any "
            "relabeling of colors"
        )
    return StructureClass(
        family=Family.UNSUPPORTED,
        spec=spec,
        permutation=tuple(range(k)),
        warnings=tuple(seen),
    )


_MATCHERS = {
    2: (_match_two_irreducible, _match_two_triangular),
    3: (_match_one_dominant, _match_two_dominant),
    4: (_match_four_block,),
}


def _match(spec: ReplacementSpec) -> StructureClass:
    k = spec.colors
    if float(np.abs(spec.matrix - np.eye(k)).max()) <= ZERO_TOL:
        return _identity_class(spec)
    reasons: list[str] = []
    for matcher in _MATCHERS[k]:
        for perm in itertools.permutations(range(k)):
            try:
                return matcher(spec, perm)
            except _NoMatch as miss:
                if miss.reason:
                    reasons.append(miss.reason)
    return _unsupported(spec, k, reasons)


def classify(spec: ReplacementSpec) -> StructureClass:
    """Match the matrix to a supported family and compute its spectral data.

    The search tries color relabelings in lexicographic order and returns
    the first match, so the canonical permutation is deterministic.  One
    contract holds from admission to verification: structure is admitted
    with REPEAT_TOL of slack, each 2x2 block is divided by its own row sums,
    and every stored eigenpair and Jordan column of the result is then
    checked to REPEAT_TOL relative to its vector's size.  Admitted structure
    that fails that check is a fault here and raises RuntimeError("internal:
    ...").  Shapes outside the covered families are UNSUPPORTED, with
    reasons.  Raises ValueError when the matrix fits a family but the
    initial composition puts zero mass on every non-dominant color (the
    scaled tracks of such models are degenerate), and for color counts
    outside 2..4.
    """
    k = spec.colors
    if k not in _MATCHERS:
        raise ValueError(f"classification supports 2 to 4 colors, got {k}")
    klass = _match(spec)
    failure = _eigen_failure(spec, klass)
    if failure is not None:
        raise RuntimeError(f"internal: {failure}")
    return klass
