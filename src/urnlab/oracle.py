"""Exact finite-horizon checks by direct enumeration.

Everything here is computed without simulation: the outcome tree of the
first n draws is enumerated level by level, pooling paths that reach the
same composition, so expectations are exact up to float rounding.  This is the independent reference the statistical layer and the
test suite compare against.

Two martingale identities are checked.  For an eigen-combination v with
R v = a v, the scaled track Z_k = (C_k . v) / pi_k(a) satisfies

    E[(Z_{k+1} - Z_k)^2 | F_k]
        = a^2 / pi_{k+1}(a)^2 * ((C_k . v^2)/(k+1) - ((C_k . v)/(k+1))^2)

with v^2 taken coordinate-wise.  For a generalized eigenvector pair
R t_gen = t_top + a t_gen, the compensated track

    X_m = (C_m . t_gen)/pi_m(a)
          - sum_{j<m} (C_j . t_top) / ((j+1) pi_{j+1}(a))

is a martingale.  Its compensation sum depends on the whole path, but it
cancels in X_{m+1} - X_m, and the new term (C_m . t_top)/((m+1) pi_{m+1}(a))
depends on C_m alone.  So the one-step residual is a function of the current
composition, and that check runs on merged compositions too.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterator

import numpy as np

from .core import ReplacementSpec
from .laws import pi_n
from .spectral import EIG_TOL, Family, StructureClass

__all__ = [
    "MAX_ENUM_STEPS",
    "OutcomeAtom",
    "exact_distribution",
    "exact_mean_vector",
    "exact_mean_linear",
    "exact_conditional_variance_check",
    "compensated_martingale_check",
]

# Merged-composition enumeration cap; levels stay small because outcomes
# that reach the same composition are pooled.
MAX_ENUM_STEPS = 12

_MERGE_DECIMALS = 12


@dataclass(frozen=True)
class OutcomeAtom:
    """One reachable composition after n draws with its total probability."""

    counts: tuple[float, ...]
    probability: float


def _guard(spec: ReplacementSpec, n: int, cap: int) -> int:
    n = int(n)
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if n > cap:
        raise ValueError(
            f"exact enumeration is capped at n = {cap} to bound the outcome "
            f"tree, got {n}"
        )
    if spec.colors > 4:
        raise ValueError("exact enumeration supports at most 4 colors")
    return n


def _levels(spec: ReplacementSpec, n: int) -> Iterator[list[tuple[np.ndarray, float]]]:
    """Yield merged (composition, probability) atoms for levels 0..n."""
    rows = spec.matrix
    level: dict[tuple, tuple[np.ndarray, float]] = {
        tuple(np.round(spec.initial, _MERGE_DECIMALS)): (spec.initial.copy(), 1.0)
    }
    yield list(level.values())
    for _ in range(n):
        nxt: dict[tuple, tuple[np.ndarray, float]] = {}
        for counts, prob in level.values():
            total = counts.sum()
            children = counts + rows
            keys = np.round(children, _MERGE_DECIMALS).tolist()
            for color in range(spec.colors):
                if counts[color] <= 0.0:
                    continue
                key = tuple(keys[color])
                p = prob * counts[color] / total
                if key in nxt:
                    nxt[key] = (nxt[key][0], nxt[key][1] + p)
                else:
                    nxt[key] = (children[color], p)
        level = nxt
        yield list(level.values())


def exact_distribution(spec: ReplacementSpec, n: int) -> list[OutcomeAtom]:
    """All reachable compositions after n draws with exact probabilities.

    Outcomes reaching the same composition (after rounding to 12 decimals)
    are pooled, so the list stays polynomial in n even though the tree is
    exponential.  Sorted by composition for determinism.
    """
    n = _guard(spec, n, MAX_ENUM_STEPS)
    for level in _levels(spec, n):
        final = level
    atoms = [
        OutcomeAtom(tuple(float(x) for x in counts), float(prob))
        for counts, prob in final
    ]
    atoms.sort(key=lambda atom: atom.counts)
    return atoms


def exact_mean_vector(spec: ReplacementSpec, n: int) -> np.ndarray:
    """E[C_n] via the exact recursion mu_{k+1} = mu_k (I + R/(k+1)).

    Linear in n, so usable far beyond the enumeration cap.
    """
    n = int(n)
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    mu = spec.initial.copy()
    r = spec.matrix
    for k in range(n):
        mu = mu + (mu @ r) / (k + 1.0)
    return mu


def exact_mean_linear(spec: ReplacementSpec, vector, eigenvalue: float, n: int) -> float:
    """E[C_n . v] for an eigen-combination, from the enumerated outcome tree.

    The caller compares the result against pi_n(eigenvalue) * (C_0 . v);
    the two routes are independent (tree walk vs closed-form product).
    Raises ValueError when (vector, eigenvalue) is not an eigenpair of the
    replacement matrix.
    """
    v = np.asarray(vector, dtype=float)
    residual = float(np.abs(spec.matrix @ v - float(eigenvalue) * v).max())
    if residual > EIG_TOL:
        raise ValueError(
            f"(vector, eigenvalue) is not an eigenpair (residual {residual!r})"
        )
    atoms = exact_distribution(spec, n)
    return float(sum(atom.probability * (np.array(atom.counts) @ v) for atom in atoms))


def exact_conditional_variance_check(
    spec: ReplacementSpec, klass: StructureClass, n: int
) -> float:
    """Max deviation in the one-step second-moment identity, all eigen tracks.

    For every eigen-combination of klass.vectors, both sides of the
    conditional-variance identity are evaluated on every enumerated
    composition at levels 0..n-1; the largest absolute gap is returned.
    Generalized-eigenvector tracks have no such identity and are skipped
    (compensated_martingale_check covers them).
    """
    n = _guard(spec, n, MAX_ENUM_STEPS)
    tracks = [(v, a) for _, v, a in klass.vectors if a is not None]
    if not tracks:
        raise ValueError("class has no pure eigen-combination tracks")
    pis = {(a, k): pi_n(a, k) for _, a in tracks for k in range(n + 1)}
    rows = spec.matrix
    worst = 0.0
    for k, level in enumerate(islice(_levels(spec, n), n)):
        for counts, _ in level:
            total = counts.sum()
            for v, a in tracks:
                cv = counts @ v
                cv2 = counts @ (v * v)
                z_now = cv / pis[(a, k)]
                lhs = 0.0
                for color in range(spec.colors):
                    if counts[color] <= 0.0:
                        continue
                    child = counts + rows[color]
                    dz = (child @ v) / pis[(a, k + 1)] - z_now
                    lhs += counts[color] / total * dz * dz
                rhs = (
                    a
                    * a
                    / pis[(a, k + 1)] ** 2
                    * (cv2 / (k + 1.0) - (cv / (k + 1.0)) ** 2)
                )
                worst = max(worst, abs(lhs - rhs))
    return worst


def compensated_martingale_check(
    spec: ReplacementSpec,
    klass: StructureClass,
    n: int,
    basis_matrix: np.ndarray | None = None,
) -> float:
    """Max one-step martingale deviation of the compensated Jordan track.

    Returns the largest |E[X_{m+1} | F_m] - X_m| over the compositions
    reachable at levels 0..n-1: the compensation sum cancels in the
    increment and its new term depends on C_m alone, so merged compositions
    give the maximum over all paths.  basis_matrix overrides the
    classifier's Jordan basis with a finite (K, K) matrix, which lets callers
    confirm the check fails for a wrong basis.  Only Jordan families have
    such a track.  On the shipped beta = 0 four-colour example sub_fluct is
    identically 0, so there the check has no teeth.
    """
    if klass.family not in (
        Family.THREE_TWO_DOMINANT_JORDAN,
        Family.FOUR_BLOCK_JORDAN,
    ):
        raise ValueError(
            f"{klass.family.value} has no generalized-eigenvector track; "
            "eigen tracks are covered by exact_conditional_variance_check"
        )
    n = _guard(spec, n, MAX_ENUM_STEPS)
    t = klass.jordan_basis_matrix if basis_matrix is None else np.asarray(
        basis_matrix, dtype=float
    )
    if t.shape != (spec.colors, spec.colors) or not np.isfinite(t).all():
        raise ValueError(
            f"basis_matrix must be a finite ({spec.colors}, {spec.colors}) "
            f"matrix, got shape {t.shape}"
        )
    j = klass.jordan_form
    off = [i for i in range(spec.colors - 1) if j[i, i + 1] == 1.0]
    if len(off) != 1:
        raise ValueError("Jordan form does not contain exactly one 2-block")
    gen_col = off[0] + 1
    t_gen = t[:, gen_col]
    t_top = t[:, off[0]]
    a = float(j[gen_col, gen_col])
    pis = [pi_n(a, k) for k in range(n + 1)]
    rows = spec.matrix
    worst = 0.0
    for m, level in enumerate(islice(_levels(spec, n), n)):
        for counts, _ in level:
            total = counts.sum()
            x_now = counts @ t_gen / pis[m]
            inc = (counts @ t_top) / ((m + 1.0) * pis[m + 1])
            expect = 0.0
            for color in range(spec.colors):
                if counts[color] <= 0.0:
                    continue
                child = counts + rows[color]
                expect += counts[color] / total * (child @ t_gen / pis[m + 1] - inc)
            worst = max(worst, abs(expect - x_now))
    return worst
