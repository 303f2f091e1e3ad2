"""Urn dynamics with row-stochastic replacement.

A model is a validated pair (replacement matrix, initial composition).  The
initial composition has total mass 1 and every trial adds one unit of mass:
at trial n the urn holds total mass n, one color is drawn with probability
proportional to its current count, and the drawn color's replacement row is
added to the composition.  Counts are non-negative reals in double precision.

Trajectories are deterministic functions of (seed, stream).  Each stream is
an independent substream of a counter-based generator, so ensembles can be
simulated in any batch arrangement and still reproduce bit-identical values.

Draw rule: with u the trajectory's next uniform variate in [0, 1) and cum the
running prefix sums of the counts in colour order, colour i is drawn iff
cum[i-1] <= u * cum[K-1] < cum[i].  The batched kernel in simulate_many holds
counts colour-major, as a (K, M) array over M trajectories, and forms cum by
K-1 vector adds in colour order, so every rounding step matches
np.cumsum(counts) and color_from_uniform.  Uniform variates are generated per
trajectory in blocks of at most DEFAULT_BATCH_STEPS steps and at most
UNIFORM_BLOCK_BYTES bytes over the ensemble; neither bound changes a result.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "ReplacementSpec",
    "UrnState",
    "Trajectory",
    "EnsemblePaths",
    "new_spec",
    "initial_state",
    "color_from_uniform",
    "draw",
    "step",
    "default_checkpoints",
    "trajectory_rng",
    "simulate",
    "simulate_many",
]

# Row sums of a validated matrix (and the initial composition) vs 1.
ROW_SUM_TOL = 1e-12
# Raw input rows must agree with each other on a common sum this tightly.
ROW_AGREEMENT_TOL = 1e-9
# |total mass - (n + 1)| <= MASS_DRIFT_PER_TRIAL * max(n, 1) at checkpoints.
MASS_DRIFT_PER_TRIAL = 1e-9
# Uniform variates pre-generated per trajectory chunk in the batched runner.
DEFAULT_BATCH_STEPS = 2048
# Upper bound on the bytes of one uniforms block (M trajectories x steps x 8 B);
# large ensembles get shorter blocks, never fewer than one step.
UNIFORM_BLOCK_BYTES = 16 * 10**6


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ReplacementSpec:
    """Validated urn model.

    colors: number of colors K.
    matrix: (K, K) replacement matrix, every row sums to 1.
    initial: (K,) starting composition, sums to 1.
    """

    colors: int
    matrix: np.ndarray
    initial: np.ndarray


@dataclass(frozen=True)
class UrnState:
    """Composition after a given number of completed trials."""

    counts: np.ndarray
    trials: int


@dataclass(frozen=True)
class Trajectory:
    """One simulated path, recorded on a checkpoint grid.

    states[i] is the composition after checkpoints[i] trials and
    tracks[p, i] == states[i] . track_vectors[p].
    """

    seed: int
    stream: int
    checkpoints: np.ndarray
    states: np.ndarray
    track_vectors: np.ndarray
    tracks: np.ndarray


@dataclass(frozen=True)
class EnsemblePaths:
    """Checkpointed states and linear tracks for a batch of trajectories.

    states has shape (M, C, K); tracks has shape (M, C, P) where P is the
    number of registered track vectors.  Trajectory m uses stream streams[m].
    """

    seed: int
    streams: np.ndarray
    checkpoints: np.ndarray
    states: np.ndarray
    track_vectors: np.ndarray
    tracks: np.ndarray


def new_spec(matrix, initial) -> ReplacementSpec:
    """Validate a replacement matrix and initial composition.

    All rows must share a common sum.  A common sum c != 1 is divided out,
    since only the row direction matters to the dynamics once mass growth
    is uniform.  The initial composition must be a probability vector.
    """
    r = np.array(matrix, dtype=float)
    c0 = np.array(initial, dtype=float)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise ValueError(f"replacement matrix must be square, got shape {r.shape}")
    k = int(r.shape[0])
    if k < 2:
        raise ValueError("need at least two colors")
    if c0.shape != (k,):
        raise ValueError(
            f"initial composition has shape {c0.shape}, expected ({k},)"
        )
    if not np.all(np.isfinite(r)):
        raise ValueError("replacement matrix has non-finite entries")
    if not np.all(np.isfinite(c0)):
        raise ValueError("initial composition has non-finite entries")
    neg = np.argwhere(r < 0)
    if neg.size:
        i, j = neg[0]
        raise ValueError(
            f"replacement_matrix[{i}][{j}]: negative entry {float(r[i, j])!r}"
        )
    neg0 = np.flatnonzero(c0 < 0)
    if neg0.size:
        i = neg0[0]
        raise ValueError(
            f"initial_composition[{i}]: negative entry {float(c0[i])!r}"
        )
    sums = r.sum(axis=1)
    common = float(sums.mean())
    spread = float(np.abs(sums - common).max())
    if spread > ROW_AGREEMENT_TOL:
        raise ValueError(
            f"replacement rows must share a common sum; sums range over "
            f"[{sums.min()!r}, {sums.max()!r}]"
        )
    if common <= ROW_AGREEMENT_TOL:
        raise ValueError("replacement rows sum to zero")
    if abs(common - 1.0) > ROW_SUM_TOL:
        r = r / common
    total0 = float(c0.sum())
    if abs(total0 - 1.0) > ROW_SUM_TOL:
        raise ValueError(
            f"initial composition must sum to 1, got {total0!r}"
        )
    return ReplacementSpec(colors=k, matrix=_readonly(r), initial=_readonly(c0))


def initial_state(spec: ReplacementSpec) -> UrnState:
    return UrnState(counts=spec.initial.copy(), trials=0)


def color_from_uniform(counts: np.ndarray, u: float) -> int:
    """Map one uniform variate to a color by cumulative-sum inversion.

    Color i is selected iff cum[i-1] <= u * total < cum[i], scanning colors
    in index order.  Zero-count colors have zero-width intervals and are
    never selected.
    """
    cum = np.cumsum(counts)
    scaled = u * cum[-1]
    return int(np.count_nonzero(cum[:-1] <= scaled))


def draw(state: UrnState, rng: np.random.Generator) -> int:
    """Draw one color; consumes exactly one uniform variate from rng."""
    if float(state.counts.sum()) <= 0.0:
        raise RuntimeError("cannot draw from an empty urn")
    return color_from_uniform(state.counts, rng.random())


def step(spec: ReplacementSpec, state: UrnState, color: int) -> UrnState:
    """Add the drawn color's replacement row to the composition."""
    if not 0 <= color < spec.colors:
        raise ValueError(f"color {color} out of range for {spec.colors} colors")
    return UrnState(counts=state.counts + spec.matrix[color], trials=state.trials + 1)


def default_checkpoints(horizon: int) -> np.ndarray:
    """0, the powers of two below the horizon, and the horizon itself."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    cps = [0]
    p = 1
    while p < horizon:
        cps.append(p)
        p *= 2
    cps.append(horizon)
    return np.array(cps, dtype=np.int64)


def trajectory_rng(seed: int, stream: int) -> np.random.Generator:
    """Independent reproducible stream keyed by (seed, stream).

    Uses a counter-based bit generator under a seed sequence spawn key, so
    streams never overlap and the mapping is stable across platforms.
    """
    if seed < 0 or stream < 0:
        raise ValueError("seed and stream must be non-negative")
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream),))
    return np.random.Generator(np.random.Philox(ss))


def _validated_checkpoints(checkpoints, horizon: int) -> np.ndarray:
    if checkpoints is None:
        return default_checkpoints(horizon)
    cps = np.asarray(checkpoints, dtype=np.int64)
    if cps.ndim != 1 or cps.size == 0:
        raise ValueError("checkpoints must be a non-empty 1-d integer sequence")
    if np.any(np.diff(cps) <= 0):
        raise ValueError("checkpoints must be strictly increasing")
    if cps[0] < 0 or cps[-1] > horizon:
        raise ValueError("checkpoints must lie within [0, horizon]")
    return cps


def simulate_many(
    spec: ReplacementSpec,
    horizon: int,
    seed: int,
    streams: int | Sequence[int],
    *,
    checkpoints=None,
    track_vectors=None,
    batch_steps: int = DEFAULT_BATCH_STEPS,
) -> EnsemblePaths:
    """Simulate a batch of independent trajectories on a checkpoint grid.

    streams may be a count M (streams 0..M-1) or an explicit sequence of
    stream indices.  The result is a pure function of (spec, horizon, seed,
    streams, checkpoints, track_vectors).

    Every step draws one colour per trajectory by the module's draw rule,
    colour i iff cum[i-1] <= u * cum[K-1] < cum[i], and adds that colour's
    replacement row.  The counts are held colour-major as (K, M) and cum is
    built by K-1 vector adds in colour order, the same adds as np.cumsum.
    Uniforms come in blocks of min(batch_steps, UNIFORM_BLOCK_BYTES // (8 M))
    steps (at least one); batch_steps and the byte bound only control
    memory and never change a value.  states keeps the (M, C, K) layout and
    tracks the (M, C, P) layout.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if batch_steps < 1:
        raise ValueError("batch_steps must be >= 1")
    if isinstance(streams, (int, np.integer)):
        stream_ids = np.arange(int(streams), dtype=np.int64)
    else:
        stream_ids = np.asarray(list(streams), dtype=np.int64)
    if stream_ids.size == 0:
        raise ValueError("need at least one stream")
    m = stream_ids.size
    cps = _validated_checkpoints(checkpoints, horizon)
    if track_vectors is None:
        vt = np.zeros((0, spec.colors))
    else:
        vt = np.atleast_2d(np.asarray(track_vectors, dtype=float))
        if vt.shape[1] != spec.colors:
            raise ValueError(
                f"track vectors have length {vt.shape[1]}, expected {spec.colors}"
            )
    k = spec.colors
    n_cp = cps.size
    states = np.empty((m, n_cp, k))
    tracks = np.empty((m, n_cp, vt.shape[0]))
    cp_index = {int(n): i for i, n in enumerate(cps)}
    # Colour-major working state: counts[j] holds colour j for every trajectory.
    counts = np.repeat(spec.initial[:, None], m, axis=1)
    # Row-major (M, K) copy for checkpoints: the mass sum and the track
    # product then round exactly as they do on per-trajectory rows.
    snapshot = np.empty((m, k))

    def record(n: int) -> None:
        i = cp_index[n]
        snapshot[...] = counts.T
        total = snapshot.sum(axis=1)
        drift = np.abs(total - (n + 1.0)).max()
        if drift > MASS_DRIFT_PER_TRIAL * max(n, 1):
            raise RuntimeError(
                f"mass law violated at n={n}: max drift {drift!r}"
            )
        states[:, i, :] = snapshot
        if vt.shape[0]:
            tracks[:, i, :] = snapshot @ vt.T

    gens = [trajectory_rng(seed, int(s)) for s in stream_ids]
    if 0 in cp_index:
        record(0)
    rows_t = np.ascontiguousarray(spec.matrix.T)
    cap = max(1, UNIFORM_BLOCK_BYTES // (8 * m))
    u = np.empty((m, min(batch_steps, horizon, cap)))
    cum = np.empty((k, m))
    scaled = np.empty(m)
    below = np.empty((k - 1, m), dtype=bool)
    colors = np.empty(m, dtype=np.intp)
    add = np.empty((k, m))
    n = 0
    while n < horizon:
        block = min(u.shape[1], horizon - n)
        for i, g in enumerate(gens):
            g.random(out=u[i, :block])
        for t in range(block):
            cum[0] = counts[0]
            for j in range(1, k):
                np.add(cum[j - 1], counts[j], out=cum[j])
            np.multiply(u[:, t], cum[k - 1], out=scaled)
            np.less_equal(cum[: k - 1], scaled, out=below)
            np.add.reduce(below, axis=0, dtype=np.intp, out=colors)
            np.take(rows_t, colors, axis=1, out=add)
            counts += add
            n += 1
            if n in cp_index:
                record(n)
    return EnsemblePaths(
        seed=int(seed),
        streams=stream_ids,
        checkpoints=cps,
        states=states,
        track_vectors=vt,
        tracks=tracks,
    )


def simulate(
    spec: ReplacementSpec,
    horizon: int,
    seed: int,
    stream: int = 0,
    *,
    checkpoints=None,
    track_vectors=None,
) -> Trajectory:
    """Simulate one trajectory; deterministic given (seed, stream)."""
    paths = simulate_many(
        spec,
        horizon,
        seed,
        [stream],
        checkpoints=checkpoints,
        track_vectors=track_vectors,
    )
    return Trajectory(
        seed=int(seed),
        stream=int(stream),
        checkpoints=paths.checkpoints,
        states=paths.states[0],
        track_vectors=paths.track_vectors,
        tracks=paths.tracks[0].T.copy(),
    )
