"""Scaling laws: normalizing sequences and limit predictions per track.

Every classified matrix gets exactly K predictions, one per combination
vector, each naming a normalization and a limit kind with its parameters.
The split points sit at eigenvalue 1/2: below it a combination is
asymptotically normal (possibly with a random mixture variance), at it the
same normal laws pick up a log factor, above it the scaled combination
itself converges almost surely.

predict() looks its rows up in a table keyed by family.  Every family gets
the mass row, then the rows of its non-dominant part (a minor color's
count, or a 2x2 sub-block's total and fluctuation), then the rows of its
dominant block (a direct fluctuation track, or a generalized-eigenvector
track when the dominant eigenvalue repeats one of the non-dominant part's).
The two-color irreducible matrix is a dominant block alone, and the identity
matrix gets one share row per color but the last.  Each row builder
branches only on where its eigenvalue sits against 1/2.

The product pi_n(a) = prod_{j<n} (1 + a/(j+1)) is the exact mean growth
factor of any eigen-combination with eigenvalue a and doubles as the
martingale normalization; pi_n(a) * Gamma(a+1) / n^a -> 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .spectral import Family, StructureClass, ZERO_TOL, REPEAT_TOL

__all__ = [
    "pi_n",
    "euler_ratio",
    "Normalization",
    "LimitKind",
    "LawPrediction",
    "predict",
]

# Below this length the product is accumulated term by term, which keeps the
# one-step recurrence pi_{n+1} = pi_n * (1 + a/(n+1)) bit-exact; longer
# products go through a log1p sum to avoid drift.
_PRODUCT_LIMIT = 1000


def pi_n(a: float, n: int) -> float:
    """prod_{j=0}^{n-1} (1 + a/(j+1)) for a >= -1, n >= 0.

    At a = -1 the j = 0 factor is 0, so the product is exactly 0 for n >= 1:
    E[C_n . v] for R v = -v.
    """
    a = float(a)
    n = int(n)
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if a < -1.0:
        raise ValueError(f"requires eigenvalue >= -1, got {a!r}")
    if a == 0.0 or n == 0:
        return 1.0
    if a == -1.0:
        return 0.0
    if n <= _PRODUCT_LIMIT:
        out = 1.0
        for j in range(n):
            out *= 1.0 + a / (j + 1.0)
        return out
    j = np.arange(n, dtype=float)
    return float(np.exp(np.log1p(a / (j + 1.0)).sum()))


def euler_ratio(a: float, n: int) -> float:
    """pi_n(a) * Gamma(a+1) / n^a for a > -1; tends to 1 as n grows."""
    n = int(n)
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if float(a) <= -1.0:
        raise ValueError(f"requires eigenvalue > -1, got {float(a)!r}")
    return pi_n(a, n) * math.gamma(float(a) + 1.0) / float(n) ** float(a)


class LimitKind(Enum):
    """What the normalized track does in the long run."""

    DETERMINISTIC_CONSTANT = "deterministic-constant"
    AS_CONSTANT_VECTOR = "as-constant-vector"
    AS_RANDOM_VARIABLE = "as-random-variable"
    NORMAL = "normal"
    NORMAL_MIXTURE = "normal-mixture"
    EXACTLY_CONSTANT_TRACK = "exactly-constant-track"


@dataclass(frozen=True)
class Normalization:
    """A normalizing sequence; at(n) evaluates it, str() names it.

    Kinds: "mass" (n+1), "power" (n^a), "sqrt_n_log_n", "power_sqrt_log"
    (sqrt(n^a log n)), "power_log" (n^a log n), "exact_product" (pi_n(a)).
    at() returns NaN where the sequence is zero or undefined (n = 0 for
    powers, n < 2 whenever a log factor is involved).
    """

    kind: str
    exponent: float | None = None

    @classmethod
    def mass(cls) -> "Normalization":
        return cls("mass")

    @classmethod
    def power(cls, a: float) -> "Normalization":
        return cls("power", float(a))

    @classmethod
    def sqrt_n_log_n(cls) -> "Normalization":
        return cls("sqrt_n_log_n")

    @classmethod
    def power_sqrt_log(cls, a: float) -> "Normalization":
        return cls("power_sqrt_log", float(a))

    @classmethod
    def power_log(cls, a: float) -> "Normalization":
        return cls("power_log", float(a))

    @classmethod
    def exact_product(cls, a: float) -> "Normalization":
        return cls("exact_product", float(a))

    def at(self, n):
        """Evaluate at integer times n (scalar or array) as float."""
        x = np.asarray(n, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            if self.kind == "mass":
                out = x + 1.0
            elif self.kind == "power":
                out = np.where(x >= 1.0, x, np.nan) ** self.exponent
            elif self.kind == "sqrt_n_log_n":
                safe = np.where(x >= 2.0, x, np.nan)
                out = np.sqrt(safe * np.log(safe))
            elif self.kind == "power_sqrt_log":
                safe = np.where(x >= 2.0, x, np.nan)
                out = np.sqrt(safe**self.exponent * np.log(safe))
            elif self.kind == "power_log":
                safe = np.where(x >= 2.0, x, np.nan)
                out = safe**self.exponent * np.log(safe)
            elif self.kind == "exact_product":
                flat = np.array(
                    [
                        pi_n(self.exponent, int(v)) if v >= 0 else np.nan
                        for v in np.atleast_1d(x)
                    ]
                )
                out = flat.reshape(np.shape(x))
            else:
                raise ValueError(f"unknown normalization kind {self.kind!r}")
        if np.isscalar(n) or np.ndim(n) == 0:
            return float(out)
        return out

    def __str__(self) -> str:
        a = self.exponent
        return {
            "mass": "n+1",
            "power": f"n^{a:g}" if a is not None else "n^?",
            "sqrt_n_log_n": "sqrt(n log n)",
            "power_sqrt_log": f"sqrt(n^{a:g} log n)" if a is not None else "?",
            "power_log": f"n^{a:g} log n" if a is not None else "?",
            "exact_product": f"Pi_n({a:g})" if a is not None else "?",
        }[self.kind]


@dataclass(frozen=True, eq=False)
class LawPrediction:
    """One combination vector with its normalization and limit claim.

    variance: limit variance for NORMAL tracks.
    mixture_coefficient / mixing_label: for NORMAL_MIXTURE tracks the limit
        is N(0, coefficient * U) where U is the almost-sure limit of the
        track named by mixing_label.
    martingale_eigenvalue: when set, E[track at n] = pi_n(a) * initial_value
        exactly, for every n.
    co_limit_label: for generalized-eigenvector tracks above the threshold,
        the track whose almost-sure limit this one shares.
    limit_mean / limit_variance: moments of the limit distribution when
        known in closed form (identity-family shares).
    """

    label: str
    vector: np.ndarray
    normalization: Normalization
    limit_kind: LimitKind
    variance: float | None = None
    mixture_coefficient: float | None = None
    mixing_label: str | None = None
    initial_value: float = 0.0
    positive_limit: bool = False
    martingale_eigenvalue: float | None = None
    co_limit_label: str | None = None
    limit_mean: float | None = None
    limit_variance: float | None = None
    notes: str = ""


def _mass_row(spec) -> LawPrediction:
    k = spec.colors
    return LawPrediction(
        label="mass",
        vector=np.ones(k),
        normalization=Normalization.mass(),
        limit_kind=LimitKind.DETERMINISTIC_CONSTANT,
        initial_value=float(spec.initial.sum()),
        positive_limit=True,
        martingale_eigenvalue=1.0,
        limit_mean=1.0,
        notes="total mass equals n+1 exactly on every path",
    )


def _constant_row(label: str, vector: np.ndarray, initial: float) -> LawPrediction:
    return LawPrediction(
        label=label,
        vector=vector,
        normalization=Normalization.exact_product(0.0),
        limit_kind=LimitKind.EXACTLY_CONSTANT_TRACK,
        initial_value=initial,
        martingale_eigenvalue=0.0,
        limit_mean=initial,
        notes="every replacement row is orthogonal to this combination; "
        "the track never moves",
    )


def _pi_weighted_square(pi: np.ndarray, xi: np.ndarray) -> float:
    return float(pi @ (np.asarray(xi) ** 2))


def _track(klass: StructureClass, label: str) -> tuple[np.ndarray, float]:
    """The combination vector named label and its value at the start."""
    vector = klass.vector(label)
    return vector, float(klass.spec.initial @ vector)


def _sign_free_row(
    label: str, vector: np.ndarray, a: float, initial: float
) -> LawPrediction:
    """Eigen-combination with eigenvalue a above 1/2, normalized by n^a."""
    return LawPrediction(
        label=label,
        vector=vector,
        normalization=Normalization.power(a),
        limit_kind=LimitKind.AS_RANDOM_VARIABLE,
        initial_value=initial,
        martingale_eigenvalue=a,
        notes="power-normalized martingale track; the limit is non-degenerate "
        "but its sign is not pinned",
    )


def _fluct_row(
    klass: StructureClass,
    label: str,
    lam: float,
    stationary: np.ndarray,
    eigvec: np.ndarray,
) -> LawPrediction:
    """Fluctuation track of an irreducible block at overall scale sqrt(n).

    lam below 1/2 is asymptotically normal, at 1/2 normal with a log
    correction, above 1/2 the power-normalized track converges on its own.
    A block that alternates deterministically (lam = -1) has no limit law,
    so its normal claim is marked unverified.
    """
    vector, initial = _track(klass, label)
    pi2 = _pi_weighted_square(stationary, eigvec)
    if abs(lam) <= ZERO_TOL:
        return _constant_row(label, vector, initial)
    if lam < 0.5 - REPEAT_TOL:
        return LawPrediction(
            label=label,
            vector=vector,
            normalization=Normalization.power(0.5),
            limit_kind=LimitKind.NORMAL,
            variance=lam * lam / (1.0 - 2.0 * lam) * pi2,
            initial_value=initial,
            martingale_eigenvalue=lam,
            notes="dominant block is periodic; this normal claim is unverified"
            if lam <= -1.0 + REPEAT_TOL
            else "",
        )
    if abs(lam - 0.5) <= REPEAT_TOL:
        return LawPrediction(
            label=label,
            vector=vector,
            normalization=Normalization.sqrt_n_log_n(),
            limit_kind=LimitKind.NORMAL,
            variance=lam * lam * pi2,
            initial_value=initial,
            martingale_eigenvalue=lam,
        )
    return _sign_free_row(label, vector, lam, initial)


def _sub_fluct_row(klass: StructureClass) -> LawPrediction:
    """Sub-block fluctuation track; variance mixes over the sub-mass limit."""
    label = "sub_fluct"
    vector, initial = _track(klass, label)
    s, lam = klass.scale, klass.lam
    pi2 = _pi_weighted_square(klass.stationary_sub, klass.eigvec_lam)
    if abs(lam) <= ZERO_TOL:
        return _constant_row(label, vector, initial)
    if lam < 0.5 - REPEAT_TOL:
        return LawPrediction(
            label=label,
            vector=vector,
            normalization=Normalization.power(s / 2.0),
            limit_kind=LimitKind.NORMAL_MIXTURE,
            mixture_coefficient=s * lam * lam / (1.0 - 2.0 * lam) * pi2,
            mixing_label="sub_total",
            initial_value=initial,
            martingale_eigenvalue=s * lam,
            notes="normal with variance proportional to the sub-block mass limit",
        )
    if abs(lam - 0.5) <= REPEAT_TOL:
        return LawPrediction(
            label=label,
            vector=vector,
            normalization=Normalization.power_sqrt_log(s),
            limit_kind=LimitKind.NORMAL_MIXTURE,
            mixture_coefficient=s * s * lam * lam * pi2,
            mixing_label="sub_total",
            initial_value=initial,
            martingale_eigenvalue=s * lam,
            notes="normal with variance proportional to the sub-block mass limit",
        )
    return _sign_free_row(label, vector, s * lam, initial)


def _positive_row(klass: StructureClass, label: str, what: str) -> LawPrediction:
    """Mass of the non-dominant part, which grows like n^s."""
    vector, initial = _track(klass, label)
    s = klass.scale
    return LawPrediction(
        label=label,
        vector=vector,
        normalization=Normalization.power(s),
        limit_kind=LimitKind.AS_RANDOM_VARIABLE,
        initial_value=initial,
        positive_limit=True,
        martingale_eigenvalue=s,
        notes=f"{what} divided by n^{s:g} settles to a strictly positive "
        "random level",
    )


def _generalized_row(
    klass: StructureClass, earlier: list, rate: float, gap_note: str = ""
) -> LawPrediction:
    """dom_fluct on the generalized eigenvector at the repeated eigenvalue rate.

    Below 1/2 the track is still normal, its variance read off the vector's
    dominant-block coordinates.  From 1/2 up it shares, slowed by a log
    factor, the limit of the non-dominant row with the same eigenvalue.
    """
    label = "dom_fluct"
    vector, initial = _track(klass, label)
    if abs(rate) <= ZERO_TOL:
        # Only the four-color beta = 0 case: R maps the vector onto the
        # sub-block fluctuation vector.
        return LawPrediction(
            label=label,
            vector=vector,
            normalization=Normalization.power(klass.scale / 2.0),
            limit_kind=LimitKind.NORMAL_MIXTURE,
            mixture_coefficient=_pi_weighted_square(
                klass.stationary_sub, klass.eigvec_lam
            )
            / klass.scale,
            mixing_label="sub_total",
            initial_value=initial,
            notes="replacement maps this track's vector onto the "
            "sub-block fluctuation vector; normal with variance "
            "proportional to the sub-block mass limit",
        )
    if rate < 0.5 - REPEAT_TOL:
        pinned = vector[list(klass.permutation)][-2:]
        pi2 = _pi_weighted_square(klass.stationary_dom, pinned)
        return LawPrediction(
            label=label,
            vector=vector,
            normalization=Normalization.power(0.5),
            limit_kind=LimitKind.NORMAL,
            variance=rate * rate / (1.0 - 2.0 * rate) * pi2,
            initial_value=initial,
            notes="generalized-eigenvector track at the repeated "
            "eigenvalue, still normal below the 1/2 threshold",
        )
    co = next(
        row
        for row in earlier[1:]
        if row.martingale_eigenvalue is not None
        and abs(row.martingale_eigenvalue - rate) <= REPEAT_TOL
    )
    return LawPrediction(
        label=label,
        vector=vector,
        normalization=Normalization.power_log(rate),
        limit_kind=LimitKind.AS_RANDOM_VARIABLE,
        initial_value=initial,
        positive_limit=co.positive_limit,
        co_limit_label=co.label,
        notes=f"log-slowed track sharing the {co.label} track's limit{gap_note}",
    )


def _identity_rows(klass: StructureClass, earlier: list) -> list[LawPrediction]:
    spec = klass.spec
    rows = []
    for label, vector, _ in klass.vectors[1:]:
        share = float(spec.initial @ vector)
        if share <= 0.0:
            rows.append(
                LawPrediction(
                    label=label,
                    vector=vector,
                    normalization=Normalization.mass(),
                    limit_kind=LimitKind.EXACTLY_CONSTANT_TRACK,
                    initial_value=0.0,
                    martingale_eigenvalue=1.0,
                    limit_mean=0.0,
                    notes="no starting mass and no inflow from other colors; "
                    "the count stays at zero",
                )
            )
            continue
        rows.append(
            LawPrediction(
                label=label,
                vector=vector,
                normalization=Normalization.mass(),
                limit_kind=LimitKind.AS_RANDOM_VARIABLE,
                initial_value=share,
                positive_limit=True,
                martingale_eigenvalue=1.0,
                limit_mean=share,
                limit_variance=share * (1.0 - share) / 2.0,
                notes="share settles to a random level whose mean is the "
                "starting share",
            )
        )
    return rows


def _minor_rows(klass: StructureClass, earlier: list) -> list[LawPrediction]:
    return [_positive_row(klass, "minor", "the minor color's count")]


def _sub_rows(klass: StructureClass, earlier: list) -> list[LawPrediction]:
    return [
        _positive_row(klass, "sub_total", "the non-dominant block's mass"),
        _sub_fluct_row(klass),
    ]


# The rows after the mass row, per family: the non-dominant part first, then
# the dominant block.  A builder takes the class and the rows built so far.
_PARTS = {
    Family.IDENTITY: (_identity_rows,),
    Family.TWO_IRREDUCIBLE: (
        lambda k, earlier: [
            _fluct_row(k, "fluct", k.lam, k.stationary_whole, k.eigvec_lam)
        ],
    ),
    Family.TWO_TRIANGULAR: (_minor_rows,),
    Family.THREE_ONE_DOMINANT: (_sub_rows,),
    Family.THREE_TWO_DOMINANT_DIAG: (
        _minor_rows,
        lambda k, earlier: [
            _fluct_row(k, "dom_fluct", k.lam, k.stationary_dom, k.eigvec_lam)
        ],
    ),
    Family.THREE_TWO_DOMINANT_JORDAN: (
        _minor_rows,
        lambda k, earlier: [
            _generalized_row(
                k, earlier, k.scale,
                "; the gap between the two closes like 1/log n",
            )
        ],
    ),
    Family.FOUR_BLOCK_DIAG: (
        _sub_rows,
        lambda k, earlier: [
            _fluct_row(k, "dom_fluct", k.beta, k.stationary_dom, k.eigvec_beta)
        ],
    ),
    Family.FOUR_BLOCK_JORDAN: (
        _sub_rows,
        lambda k, earlier: [_generalized_row(k, earlier, k.beta)],
    ),
}


def predict(klass: StructureClass) -> list[LawPrediction]:
    """Exactly K predictions, one per combination vector, spanning R^K."""
    if klass.family is Family.UNSUPPORTED:
        raise ValueError("no predictions for an unsupported class")
    rows = [_mass_row(klass.spec)]
    for part in _PARTS[klass.family]:
        rows += part(klass, rows)
    matrix = np.column_stack([row.vector for row in rows])
    if abs(np.linalg.det(matrix)) <= 1e-10:
        raise RuntimeError("internal: prediction vectors do not span R^K")
    return rows
