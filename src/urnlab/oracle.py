"""Exact finite-horizon checks by direct enumeration.

Everything here is computed without simulation: the outcome tree of the
first n draws is enumerated level by level, pooling paths that reach the
same composition, so expectations are exact up to float rounding.  This is
the independent reference the statistical layer and the test suite compare
against.

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

A level is one (A, K) array of compositions and one (A,) array of
probabilities.  Its children form one (A, K, K) array and their
probabilities one product.  Children are pooled in whole-array calls: a
stable sort groups the rows rounded to 12 decimals, the groups keep the
order of their first children, and np.bincount adds their probabilities.
Each spec's tree is walked once: the levels are kept, read-only and in
level order, in a memo of a few specs keyed on the bytes of the matrix and
the initial composition.  A deeper n extends the walk and a shallower one
reads a prefix of it.  exact_distribution, exact_mean_linear and both
checks read that walk, and each check evaluates all levels 0..n-1 in one
set of numpy calls, with per-atom level and pi arrays.  Every result is
bit-equal to the one-atom-at-a-time evaluation kept in the tests, by these
rules:

- elementwise expressions keep their order of operations, such as
  (prob * counts) / total and counts / total * dz * dz;
- each composition . vector product is one BLAS dot per row (_dot); a
  matrix-vector product or einsum sums in another order;
- a scalar x ** 2, such as pi_{k+1}(a) ** 2, is libm pow, so its array
  form is np.float_power, not ** 2, which multiplies;
- sums over colours and over atoms add left to right (cumsum), with a
  dead colour adding +0.0; np.sum may add pairwise;
- np.bincount adds a pooled atom's probabilities in the order its
  children were seen;
- exact_mean_linear adds over the atoms sorted by composition, the order
  exact_distribution returns them in;
- the worst residual skips NaN, as max() does (np.fmax).
"""
from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .core import ReplacementSpec, _integer
from .laws import pi_n
from .spectral import REPEAT_TOL, StructureClass, _pair_residual

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
    n = _integer(n, "n")
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


def _dot(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """x @ v over the last axis of x, one BLAS dot per row.

    Bit-equal to the 1-D product row by row; x @ v on a 2-D x (gemv) and
    einsum sum in other orders.
    """
    return np.matmul(x[..., None, :], v[:, None])[..., 0, 0]


def _sum_in_order(terms: np.ndarray) -> np.ndarray:
    """Sum over the last axis, left to right, as a loop from 0.0 adds.

    The final + 0.0 stands in for the loop's 0.0 start; it matters only
    when every term is -0.0.
    """
    return terms.cumsum(axis=-1)[..., -1] + 0.0


def _pool(children: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pool children whose compositions agree to 12 decimals.

    A stable sort of the rounded rows puts each group's first child first.
    Each group keeps that child's composition, the groups keep the order of
    their first children, and np.bincount adds a group's weights in child
    order.
    """
    keys = np.round(children, _MERGE_DECIMALS)
    order = np.lexsort(keys.T[::-1])
    ranked = keys[order]
    starts = np.empty(order.size, dtype=bool)
    starts[0] = True
    np.any(ranked[1:] != ranked[:-1], axis=1, out=starts[1:])
    first = order[starts]
    is_first = np.zeros(order.size, dtype=bool)
    is_first[first] = True
    # A group's place is the number of first children before its own.
    place = (np.cumsum(is_first) - 1)[first]
    owner = np.empty_like(order)
    owner[order] = place[np.cumsum(starts) - 1]
    return children[is_first], np.bincount(owner, weights=weights)


def _frozen(x: np.ndarray) -> np.ndarray:
    x.flags.writeable = False
    return x


# Specs whose walks are kept, least recently used first.  A CLI run needs
# one and the oracle_caps benchmark four; a walk to MAX_ENUM_STEPS holds
# about 0.07 MB (K = 4, full-rank R).
_MEMO_SPECS = 8
_WALKS: dict[tuple[bytes, bytes], list[tuple[np.ndarray, np.ndarray]]] = {}
# Held while a walk is looked up and extended, so that two threads never
# append the same level twice.
_WALKS_LOCK = threading.Lock()


def _walk(spec: ReplacementSpec, n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The spec's merged levels 0..n at least, as read-only (counts, probs).

    A level is (A, K) compositions and (A,) probabilities.  The walk comes
    from the memo when it is there, and is extended when it is too short;
    the key is the bytes of the matrix and the initial composition, so
    specs one ulp apart get walks of their own.  A composition with a
    positive count of a colour has a child for it, and _pool pools them.
    """
    key = (spec.matrix.tobytes(), spec.initial.tobytes())
    with _WALKS_LOCK:
        levels = _WALKS.pop(key, None) or [
            (_frozen(spec.initial[None, :].copy()), _frozen(np.ones(1)))
        ]
        _WALKS[key] = levels
        if len(_WALKS) > _MEMO_SPECS:
            del _WALKS[next(iter(_WALKS))]
        while len(levels) <= n:
            counts, probs = levels[-1]
            live = counts > 0.0
            children = (counts[:, None, :] + spec.matrix)[live]
            weights = ((probs[:, None] * counts) / counts.sum(axis=1)[:, None])[live]
            levels.append(tuple(map(_frozen, _pool(children, weights))))
        return levels


def _level(spec: ReplacementSpec, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Level n's compositions and probabilities, sorted by composition."""
    counts, probs = _walk(spec, n)[n]
    order = np.lexsort(counts.T[::-1])
    return counts[order], probs[order]


def _steps(
    spec: ReplacementSpec, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(counts, live, share, children, level) of every atom at levels 0..n-1.

    The levels follow one another.  live marks the colours each
    composition can draw, share is each colour's draw probability
    counts / total, children is the (A, K, K) array of compositions after
    each draw, and level is each atom's level.
    """
    levels = _walk(spec, n)[:n]
    # The empty block keeps n = 0 valid.
    counts = np.concatenate([np.empty((0, spec.colors)), *(c for c, _ in levels)])
    share = counts / counts.sum(axis=1)[:, None]
    level = np.repeat(np.arange(n), [p.size for _, p in levels])
    return counts, counts > 0.0, share, counts[:, None, :] + spec.matrix, level


def _pis(a: float, n: int) -> np.ndarray:
    """pi_k(a) for k = 0..n, indexed by level."""
    return np.array([pi_n(a, k) for k in range(n + 1)])


def exact_distribution(spec: ReplacementSpec, n: int) -> list[OutcomeAtom]:
    """All reachable compositions after n draws with exact probabilities.

    Outcomes reaching the same composition (after rounding to 12 decimals)
    are pooled, so the list stays polynomial in n even though the tree is
    exponential.  Sorted by composition for determinism.  The levels come
    from the spec's memoized walk, which every check here shares.
    """
    n = _guard(spec, n, MAX_ENUM_STEPS)
    counts, probs = _level(spec, n)
    return list(map(OutcomeAtom, map(tuple, counts.tolist()), probs.tolist()))


def exact_mean_vector(spec: ReplacementSpec, n: int) -> np.ndarray:
    """E[C_n] via the exact recursion mu_{k+1} = mu_k (I + R/(k+1)).

    Linear in n, so usable far beyond the enumeration cap.
    """
    n = _integer(n, "n")
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
    Raises ValueError when vector is not of shape (K,), or when
    (vector, eigenvalue) is not an eigenpair of the replacement matrix to
    classify's relative REPEAT_TOL, a zero vector or a NaN in either
    included.
    """
    v = np.asarray(vector, dtype=float)
    if v.shape != (spec.colors,):
        raise ValueError(f"vector must have shape ({spec.colors},), got {v.shape}")
    residual = _pair_residual(spec.matrix, v, float(eigenvalue) * v)
    if not residual <= REPEAT_TOL:
        raise ValueError(
            f"(vector, eigenvalue) is not an eigenpair (relative residual "
            f"{residual!r})"
        )
    counts, probs = _level(spec, _guard(spec, n, MAX_ENUM_STEPS))
    return float(_sum_in_order(probs * _dot(counts, v)))


def exact_conditional_variance_check(
    spec: ReplacementSpec, klass: StructureClass, n: int
) -> float:
    """Max deviation in the one-step second-moment identity, all eigen tracks.

    For every eigen-combination of klass.vectors, both sides of the
    conditional-variance identity are evaluated on every enumerated
    composition at levels 0..n-1; the largest absolute gap is returned.
    Generalized-eigenvector tracks have no such identity and are skipped
    (compensated_martingale_check covers them), as are tracks whose
    eigenvalue classify counts as -1 (within REPEAT_TOL): Z_k = C_k . v / pi_k
    is undefined once pi_k = 0 at k = 1, and near it pi_1 = 1 + a is noise.
    """
    n = _guard(spec, n, MAX_ENUM_STEPS)
    tracks = [(v, a) for _, v, a in klass.vectors
              if a is not None and a > -1.0 + REPEAT_TOL]
    if not tracks:
        raise ValueError("class has no pure eigen-combination tracks")
    counts, live, share, children, level = _steps(spec, n)
    steps = level + 1.0
    worst = 0.0
    for v, a in tracks:
        pis = _pis(a, n)
        pi_next = pis[level + 1]
        cv = _dot(counts, v)
        cv2 = _dot(counts, v * v)
        z_now = cv / pis[level]
        dz = _dot(children, v) / pi_next[:, None] - z_now[:, None]
        lhs = _sum_in_order(np.where(live, share * dz * dz, 0.0))
        # float_power is libm pow, as the scalar ** of the per-atom
        # reference; an array ** 2 multiplies, which can differ in the
        # last bit.
        rhs = (
            a
            * a
            / np.float_power(pi_next, 2)
            * (cv2 / steps - np.float_power(cv / steps, 2))
        )
        worst = float(np.fmax.reduce(np.abs(lhs - rhs), initial=worst))
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
    if klass.jordan_form is None:
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
    pis = _pis(float(j[gen_col, gen_col]), n)
    counts, live, share, children, level = _steps(spec, n)
    pi_next = pis[level + 1]
    x_now = _dot(counts, t_gen) / pis[level]
    inc = _dot(counts, t_top) / ((level + 1.0) * pi_next)
    gain = _dot(children, t_gen) / pi_next[:, None] - inc[:, None]
    expect = _sum_in_order(np.where(live, share * gain, 0.0))
    return float(np.fmax.reduce(np.abs(expect - x_now), initial=0.0))
