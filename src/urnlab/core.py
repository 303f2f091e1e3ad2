"""Urn dynamics with row-stochastic replacement.

A model is a validated pair (replacement matrix, initial composition).  The
initial composition has total mass 1 and every trial adds one unit of mass:
at trial n the urn holds total mass n, one color is drawn with probability
proportional to its current count, and the drawn color's replacement row is
added to the composition.  Counts are non-negative reals in double precision.

Trajectories are deterministic functions of (seed, stream).  Each stream is
its own Philox generator, a counter-based generator fully determined by its
128-bit key, and the key is that of numpy's SeedSequence(entropy=seed,
spawn_key=(stream,)).  So a stream's states are the same bits in any batch
arrangement, alone or inside any ensemble.  Its tracks are not: they are
one BLAS product over the whole ensemble per checkpoint, and a one-row
product goes to another routine, which may round differently.  On
two_color at horizon 300, stream 3 alone differs from stream 3 of a
7-stream ensemble in 6 of 22 track values (ROADMAP item 5).
trajectory_rng(seed, stream) keys one stream through SeedSequence itself
and is the scalar reference.  simulate_many derives all M keys in one
vectorised pass (_stream_keys, SeedSequence's mixing in uint32 array
arithmetic).  The first pass hands each of its keys straight to Philox:
about 11 us a stream on a 2-vCPU Xeon VM, against about 35 us through
SeedSequence.  Every later pass re-keys those generators to its own
streams, at about 1.4 us a stream.

Draw rule: with u the trajectory's next uniform variate in [0, 1) and cum the
running prefix sums of the counts in colour order, colour i is drawn iff
cum[i-1] <= u * cum[K-1] < cum[i].  The batched kernel in simulate_many holds
its state colour-major, one column per trajectory, and takes one of two
steps, chosen once per call.  The general step holds the counts and cum in
one (2K-1, M) array, where colour 0's count is cum[0], and forms
cum[1..K-1] by K-1 vector adds in colour order, so every rounding step
matches np.cumsum(counts); the drawn colours become a one-hot (K, M)
matrix, and one matrix product with the transposed replacement matrix
yields the drawn rows.  Eight numpy calls a step at K=4, six at K=2.  The
exact step serves dyadic models, whose entries are multiples of some 2**-p
(two of the three shipped configs): while every sum stays below
2**53 * 2**-p no add rounds, so it carries cum itself, total row included,
as a (K, M) array, and adds row c of cumsum(R) to it in four calls a step.
Both give the same bits.

An ensemble runs in passes of at most PASS_STREAMS trajectories, each over
the whole horizon.  The first pass builds its W generators and every later
pass re-keys them to its own streams, so the generators held do not grow
with the ensemble and no more than W are built.  Uniform variates are
generated per trajectory in blocks of _block_steps steps, at most
UNIFORM_BLOCK_BYTES (4 MB) over a pass, a size the step loop reads back
from cache; each trajectory's refill is one call of its generator's random
into its row of the block.  No bound changes a result: a trajectory's state
is its stream key and its counts, and passes only split the ensemble's
rows.
"""
from __future__ import annotations

import functools
import numbers
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "ReplacementSpec",
    "EnsemblePaths",
    "new_spec",
    "default_checkpoints",
    "trajectory_rng",
    "simulate_many",
]

# Row sums of a validated matrix (and the initial composition) vs 1.
ROW_SUM_TOL = 1e-12
# Raw input rows must agree with each other on a common sum this tightly.
ROW_AGREEMENT_TOL = 1e-9
# |total mass - (n + 1)| <= MASS_DRIFT_PER_TRIAL * max(n, 1) at checkpoints.
MASS_DRIFT_PER_TRIAL = 1e-9
# Upper bound on the bytes of one uniforms block (pass width x steps x 8 B);
# wide passes get shorter blocks, never fewer than one step.  L2 is 2 MB a
# core on the 2-vCPU Xeon VM measured, so a 4 MB block is read back from
# L2/L3 where a 16 MB one swept memory; a sweep at M = 2000 x 5e4 steps put
# 1 MB (2.87 s) and 2 MB (2.38 s) behind 4 MB (2.15 s), their refills being
# 4x and 2x as many (medians of 8 fresh processes on one pinned CPU).
UNIFORM_BLOCK_BYTES = 4 * 10**6
# Most trajectories simulated at once: an ensemble runs in the fewest
# passes of at most this many, each holding only its own generators (about
# 1.4 KB of memory a stream).  2048 keeps an ensemble of 2000 in one pass.
PASS_STREAMS = 2048
# Stream ids must fit EnsemblePaths.streams, an int64 array.
STREAM_LIMIT = 2**63
# Default resource cap on horizon * ensemble for one Monte Carlo run.
DEFAULT_MAX_DRAWS = 4_000_000_000
# numpy.random.SeedSequence's hash constants and default pool size
# (numpy/random/bit_generator.pyx); _stream_keys reproduces its mixing.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


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
class EnsemblePaths:
    """Checkpointed states and linear tracks for a batch of trajectories.

    states has shape (M, C, K); tracks has shape (M, C, P) where P is the
    number of registered track vectors.  Trajectory m uses stream streams[m].
    max_mass_drift is the largest |total mass - (n + 1)| over them all.
    """

    seed: int
    streams: np.ndarray
    checkpoints: np.ndarray
    states: np.ndarray
    track_vectors: np.ndarray
    tracks: np.ndarray
    max_mass_drift: float


def new_spec(matrix, initial) -> ReplacementSpec:
    """Validate a replacement matrix and initial composition.

    All rows must share a common sum, to within ROW_AGREEMENT_TOL.  When any
    row misses 1 by more than ROW_SUM_TOL, each row is divided by its own
    sum, since only the row direction matters to the dynamics once mass
    growth is uniform; the stored rows then sum to 1 to rounding, which is
    the mass law classify and the closed forms assume.  The initial
    composition must be a probability vector.  Negative zeros in either are
    stored as +0.0.
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
    if np.abs(sums - 1.0).max() > ROW_SUM_TOL:
        r = r / sums[:, None]
    total0 = float(c0.sum())
    if abs(total0 - 1.0) > ROW_SUM_TOL:
        raise ValueError(
            f"initial composition must sum to 1, got {total0!r}"
        )
    # + 0.0 turns -0.0 into +0.0 and leaves every other value alone, so no
    # count or added row carries the sign of a zero.
    return ReplacementSpec(
        colors=k, matrix=_readonly(r + 0.0), initial=_readonly(c0 + 0.0)
    )


def default_checkpoints(horizon: int) -> np.ndarray:
    """0, the powers of two below the horizon, and the horizon itself.

    horizon must be an integer >= 1; an integral float such as 3.0 counts,
    a bool or a fraction raises ValueError."""
    horizon = _checked_horizon(horizon)
    cps = [0]
    p = 1
    while p < horizon:
        cps.append(p)
        p *= 2
    cps.append(horizon)
    return np.array(cps, dtype=np.int64)


def _integer(value, what: str) -> int:
    """value as an int: integral numbers such as 3 or 3.0 pass, bools and
    fractions raise ValueError naming what."""
    if type(value) is int:
        return value
    integral = isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and float(value).is_integer()
    )
    if not integral or isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{what} is not an integer: {value!r}")
    return int(value)


def _checked_horizon(horizon) -> int:
    horizon = _integer(horizon, "horizon")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    return horizon


def _checked_seed(seed) -> int:
    seed = _integer(seed, "seed")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return seed


def _checked_scale(value) -> float:
    # A bool is an int, JSON's NaN and Infinity parse as floats, and the upper
    # bound also rejects integers too large for a float.
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (real and 0 < value <= sys.float_info.max):
        raise ValueError(
            f"variance_scale: must be a positive finite number, got {value!r}"
        )
    return float(value)


def _checked_stream(stream, what: str = "stream") -> int:
    stream = _integer(stream, what)
    if not 0 <= stream < STREAM_LIMIT:
        raise ValueError(f"{what} must lie in [0, 2**63), got {stream}")
    return stream


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix on uint32 arrays, with its running constant.

    Each call xors with the constant, steps it (times mult mod 2**32),
    multiplies by the new value and folds the high half into the low half.
    """

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return r ^ (r >> np.uint32(16))


def _stream_keys(seed: int, stream_ids) -> np.ndarray:
    """Philox keys of the streams (seed, s), one (M, 2) uint64 row per id.

    Row m equals SeedSequence(entropy=seed, spawn_key=(s,)).generate_state(2,
    np.uint64) for s = stream_ids[m] < 2**64.  SeedSequence splits the seed
    into 32-bit words padded with zeros to its pool size of four, appends the
    stream's words (one below 2**32, else two), hashes them into a pool of
    four words and hashes the pool into the key.  Its running hash constants
    do not depend on the data, so every stream takes each step at once in
    uint32 array arithmetic, which wraps modulo 2**32 as SeedSequence does.
    """
    ids = np.asarray(stream_ids, dtype=np.uint64)
    seed_words = []
    while True:
        seed_words.append(seed & _MASK32)
        seed >>= 32
        if not seed:
            break
    seed_words += [0] * (_POOL_SIZE - len(seed_words))
    hashmix = _hasher(_INIT_A, _MULT_A)
    # The pool has shape (1,) while it depends on the seed alone and
    # broadcasts to (M,) when the stream words come in.
    pool = [hashmix(np.array([w], np.uint32)) for w in seed_words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    low = (ids & np.uint64(_MASK32)).astype(np.uint32)
    high = (ids >> np.uint64(32)).astype(np.uint32)
    extra = [np.array([w], np.uint32) for w in seed_words[_POOL_SIZE:]]
    for word in [*extra, low]:
        pool = [_mix(p, hashmix(word)) for p in pool]
    # Streams of one word stop here; the constants step on regardless.
    wide = high != 0
    pool = [np.where(wide, _mix(p, hashmix(high)), p) for p in pool]
    hash_out = _hasher(_INIT_B, _MULT_B)
    words = [hash_out(p).astype(np.uint64) for p in pool]
    keys = np.empty((ids.size, 2), dtype=np.uint64)
    keys[:, 0] = words[0] | (words[1] << np.uint64(32))
    keys[:, 1] = words[2] | (words[3] << np.uint64(32))
    return keys


@functools.cache
def _fixed_key_type() -> type:
    # Built on first use: importing numpy.random costs ~18 ms, and urnlab
    # predict never needs it.
    from numpy.random.bit_generator import ISeedSequence

    class FixedKey(ISeedSequence):
        """Seed sequence whose state is a given Philox key."""

        def __init__(self, key):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            return self.key

    return FixedKey


def trajectory_rng(seed: int, stream: int, *, key=None) -> np.random.Generator:
    """Independent reproducible stream keyed by (seed, stream).

    The generator is Philox, a counter-based bit generator, keyed by
    SeedSequence(entropy=seed, spawn_key=(stream,)), so streams never overlap
    and the mapping is stable across platforms.  seed must be an integer
    >= 0 and stream an integer in [0, 2**63).

    Without key the key comes from numpy's SeedSequence, and this is the
    scalar reference for simulate_many.  key, if given, must be that
    stream's key, a row of _stream_keys(seed, ...); Philox then takes it
    directly, at about a third of the cost.  simulate_many builds its
    first pass's generators here, with the keys it derived in one pass, and
    re-keys them for every later pass (_rekey).
    """
    seed = _checked_seed(seed)
    stream = _checked_stream(stream)
    if key is None:
        seq = np.random.SeedSequence(entropy=seed, spawn_key=(stream,))
    else:
        seq = _fixed_key_type()(key)
    return np.random.Generator(np.random.Philox(seq))


def _validated_checkpoints(checkpoints, horizon: int) -> np.ndarray:
    if checkpoints is None:
        return default_checkpoints(horizon)
    # Held as objects so no entry is cast to int64 before it is checked.
    raw = np.asarray(checkpoints, dtype=object)
    if raw.ndim != 1 or raw.size == 0:
        raise ValueError("checkpoints must be a non-empty 1-d integer sequence")
    for i, v in enumerate(raw):
        _integer(v, f"checkpoints[{i}]")
    cps = raw.astype(np.int64)
    if np.any(np.diff(cps) <= 0):
        raise ValueError("checkpoints must be strictly increasing")
    if cps[0] < 0 or cps[-1] > horizon:
        raise ValueError("checkpoints must lie within [0, horizon]")
    return cps


def _rekey(gens: list, keys: np.ndarray, fresh: dict) -> None:
    """Re-key gens[i] to keys[i], for each row of keys.

    fresh is the state of a generator trajectory_rng has just built:
    counter 0, an empty buffer and no cached uint32.  Each generator gets
    that state with only the key replaced, so it then draws what
    trajectory_rng(seed, s, key=keys[i]) would from its start.  The key
    held in fresh is overwritten in place.
    """
    state = fresh["state"]
    for g, key in zip(gens, keys.tolist()):
        state["key"] = key
        g.bit_generator.state = fresh


def _exact_prefix_sums(spec: ReplacementSpec, horizon: int) -> bool:
    """Whether every prefix sum of a run to horizon is exact in float64.

    True when the entries of spec.matrix and spec.initial are non-negative
    integer multiples of some 2**-p, and K * 2**p * max(mass, 2 * rows) <
    2**53, with rows the largest row sum and mass = sum(initial) + horizon
    * rows the largest total a run reaches; for a new_spec model that is
    (horizon + 1) * 2**p * K < 2**53.  Every count, prefix sum and partial
    sum the exact step forms is then a multiple of 2**-p below 2**53 * 2**-p,
    so it is a double and no add rounds.
    """
    values = np.concatenate([spec.matrix.ravel(), spec.initial])
    if not values.min() >= 0.0:
        return False
    rows = float(spec.matrix.sum(axis=1).max())
    bound = spec.colors * max(float(spec.initial.sum()) + horizon * rows, 2 * rows)
    p = 0
    while bound * 2.0**p < 2.0**53:
        scaled = values * 2.0**p
        if np.array_equal(scaled, np.floor(scaled)):
            return True
        p += 1
    return False


def _block_steps(width: int, horizon: int) -> int:
    """Steps in the uniforms block of a pass width trajectories wide.

    As many as UNIFORM_BLOCK_BYTES holds, at least one and at most horizon,
    less one when that count is a multiple of 256: the block's row stride
    is then a multiple of 2 KiB, and the step loop's strided read of one
    column maps every row to the same few cache sets (README, "Simulation
    kernel and memory": 256 steps at width 2000 ran 64% slower than 255).
    """
    steps = min(horizon, max(1, UNIFORM_BLOCK_BYTES // (8 * width)))
    return steps - 1 if steps % 256 == 0 else steps


def _simulate_pass(spec, gens, u, horizon, cp_index, states, exact) -> float:
    """Run one pass of simulate_many: the trajectories of gens, whole horizon.

    Trajectory i draws from gens[i] through row i of u, this pass's rows of
    the uniforms block, and its checkpoints go to row i of states, this
    pass's rows of the ensemble's.  Each checkpoint is checked against the
    mass law, and the largest drift is returned.  exact selects the exact
    step, which carries the prefix sums in place of the counts; the general
    step holds the counts and the prefix sums in one array (see
    simulate_many).
    """
    k, m = spec.colors, len(gens)
    worst = np.float64(0.0)
    # Bound once and called positionally in the step loops, so no keyword
    # is parsed on each step.
    add, multiply, less_equal, not_equal, matmul = (
        np.add, np.multiply, np.less_equal, np.not_equal, np.matmul
    )

    def record(n: int) -> None:
        nonlocal worst
        at_n = states[:, cp_index[n], :]
        if exact:
            # Differences of exact prefix sums, so the counts are exact.
            at_n[:, 0] = cum[0]
            np.subtract(cum[1:], cum[:-1], out=at_n[:, 1:].T)
        else:
            # counts holds colours 1..K-1, then colour 0.
            at_n[:, 0] = counts[k - 1]
            at_n[:, 1:] = counts[: k - 1].T
        drift = np.abs(at_n.sum(axis=1) - (n + 1.0)).max()
        if drift > MASS_DRIFT_PER_TRIAL * max(n, 1):
            raise RuntimeError(
                f"mass law violated at n={n}: max drift {drift!r}"
            )
        worst = np.maximum(worst, drift)

    scaled = np.empty(m)
    drawn = np.empty((k, m))
    if exact:
        cum = np.cumsum(np.repeat(spec.initial[:, None], m, axis=1), axis=0)
        # e[j] = (cum[j-1] <= scaled) for j = 1..K-1 under e[0] = 1: ones up
        # to the drawn colour c.  Column j of d_rows is row j of cumsum(R)
        # less row j-1, so d_rows @ e telescopes to row c of cumsum(R).
        e = np.ones((k, m))
        e_head = e[1:]
        d_rows = np.ascontiguousarray(
            np.diff(np.cumsum(spec.matrix, axis=1), axis=0, prepend=0.0).T
        )
    else:
        # Rows: the counts of colours 1..K-1, colour 0's, then cum[1..K-1].
        # So rows K-1.. are cum, cum[0] being colour 0's count, and no copy
        # forms it.  rows_t is R.T with its rows in the same colour order.
        order = [*range(1, k), 0]
        held = np.empty((2 * k - 1, m))
        counts, cum = held[:k], held[k - 1:]
        counts[...] = spec.initial[order, None]
        rows_t = np.ascontiguousarray(spec.matrix.T[order])
        # ext[j] = (cum[j-1] <= scaled) for j = 1..K-1, framed by ext[0] = True
        # and ext[K] = False; the one adjacent pair that differs marks the
        # drawn colour.
        ext = np.empty((k + 1, m), dtype=bool)
        ext[0] = True
        ext[k] = False
        one_hot = np.empty((k, m))
        # Views the step loop uses, built once: cum[j] = cum[j-1] + colour j.
        prefix_adds = [(cum[j - 1], counts[j - 1], cum[j]) for j in range(1, k)]
        ext_head, ext_upper, ext_lower = ext[1:k], ext[:-1], ext[1:]
    cum_head, cum_total = cum[: k - 1], cum[k - 1]
    if 0 in cp_index:
        record(0)
    n = 0
    while n < horizon:
        # Every stream refills its row of the block; each step reads a column.
        ub = u[:, : min(u.shape[1], horizon - n)]
        for g, row in zip(gens, ub):
            g.random(out=row)
        if exact:
            for column in ub.T:
                multiply(column, cum_total, scaled)
                less_equal(cum_head, scaled, e_head)
                matmul(d_rows, e, drawn)
                add(cum, drawn, cum)
                n += 1
                if n in cp_index:
                    record(n)
        else:
            for column in ub.T:
                for prev, row, out in prefix_adds:
                    add(prev, row, out)
                multiply(column, cum_total, scaled)
                less_equal(cum_head, scaled, ext_head)
                not_equal(ext_upper, ext_lower, one_hot)
                matmul(rows_t, one_hot, drawn)
                add(counts, drawn, counts)
                n += 1
                if n in cp_index:
                    record(n)
    return float(worst)


def simulate_many(
    spec: ReplacementSpec,
    horizon: int,
    seed: int,
    streams: int | Sequence[int],
    *,
    checkpoints=None,
    track_vectors=None,
) -> EnsemblePaths:
    """Simulate a batch of independent trajectories on a checkpoint grid.

    streams may be a count M (streams 0..M-1) or an explicit sequence of
    stream indices.  The result is a pure function of (spec, horizon, seed,
    streams, checkpoints, track_vectors).  The seed must be an integer >= 0
    and every stream id an integer in [0, 2**63); integral floats such as
    3.0 count as integers, bools and fractions raise ValueError, before any
    array is allocated.  horizon is checked the same way and must be >= 1.
    Trajectory m draws from trajectory_rng(seed, streams[m], key=...), with
    all M keys from one _stream_keys pass.

    Every step draws one colour per trajectory by the module's draw rule,
    colour i iff cum[i-1] <= u * cum[K-1] < cum[i], and adds that colour's
    replacement row.  Which step runs is decided once, by
    _exact_prefix_sums(spec, horizon); no argument selects it.

    The general step holds the counts and cum colour-major in one
    (2K-1, M) array: the counts of colours 1..K-1, colour 0's count, then
    cum[1..K-1].  Colour 0's count is cum[0] with no copy, and K-1 vector
    adds in colour order form the rest, the same adds as np.cumsum.  Five
    calls follow, eight in all at K=4 and six at K=2: the product
    u * cum[K-1]; the comparison cum[:K-1] <= u * cum[K-1] fills rows
    1..K-1 of a bool (K+1, M) buffer whose row 0 is True and row K False;
    adjacent rows that differ give a float one-hot (K, M) matrix;
    R.T @ one_hot is the drawn rows, with R.T's rows in the array's colour
    order; one add.
    This returns exactly the row the count of Trues selects:

    - counts are >= 0, so the float prefix sums never decrease and every
      buffer column reads True...True False...False;
    - so the one-hot column has a single 1, at the colour the draw rule
      chooses (the number of prefix sums <= u * cum[K-1]);
    - every product in the matrix product is R * 0 = +0.0 or R * 1 = R, so
      the sum is R in any summation order, with or without fused
      multiply-add;
    - the one value this could change is the sign of a zero (-0.0 + +0.0 is
      +0.0), and new_spec stores no -0.0.

    The exact step runs when every entry of R and C_0 is a non-negative
    multiple of 2**-p and (horizon + 1) * 2**p * K < 2**53 (for a new_spec
    model; _exact_prefix_sums gives the general bound).  It holds cum
    itself as (K, M), total row cum[K-1] included, and a step is four
    calls:

    - scaled = u * cum[K-1], the same product of the same values as the
      general step's;
    - cum[:K-1] <= scaled into rows 1..K-1 of a float mask e whose row 0 is
      1.0, so column m reads 1 at rows 0..c and 0 below, c the drawn colour;
    - add = D @ e, with D = diff(cumsum(R, axis=1), axis=0, prepend=0).T:
      column j of D is row j of cumsum(R) less row j-1, so the sum
      telescopes to row c of cumsum(R);
    - cum += add.

    Every count, every prefix sum and every partial sum of D @ e is then a
    multiple of 2**-p below 2**53 * 2**-p, which a double holds exactly:
    no add rounds, in any BLAS order, with or without fused multiply-add.
    No -0.0 arises: exact sums that cancel give +0.0, a sum is -0.0 only
    if all its terms are, and the term cumsum(R)[0, j] * 1 never is.
    So cum equals the np.cumsum of the general step's counts, bit for bit,
    the comparison sees the same operands, and the same colour is drawn.
    At checkpoints the counts are cum[0] and the differences of adjacent
    rows of cum, exact too, so states, tracks and max_mass_drift are those
    of the general step, and the mass-law check reads the same sums.

    The M streams run in the fewest passes of at most PASS_STREAMS, all W
    wide but the last.  The first pass builds its W generators through
    trajectory_rng; each later pass re-keys the first of them to its own
    streams, giving each the state of a generator just built with only the
    key replaced (_rekey), so it draws what a newly built one would.  A
    pass runs the whole horizon, checks the mass law and writes its rows of
    states at every checkpoint.  Uniforms come in blocks of
    _block_steps(W, horizon) steps, min(horizon, UNIFORM_BLOCK_BYTES // (8 W))
    but at least one and never a multiple of 256, in one block allocated for
    the widest pass: 4 MB, or 250 steps at W = 2000.  Each refill calls
    every generator's random(out=row) once, so each stream takes
    ceil(horizon / block) calls.  Besides the (M, C, K) states and
    (M, C, P) tracks, memory is then the uniforms block plus one pass of
    generators.  Tracks are formed after the last pass, over the whole
    ensemble, with the block released.  max_mass_drift is the largest drift
    the passes' mass-law checks found.  The two bounds only control memory
    and never change a value.
    """
    horizon = _checked_horizon(horizon)
    seed = _checked_seed(seed)
    if isinstance(streams, (numbers.Number, np.bool_)):
        stream_ids = np.arange(_integer(streams, "stream count"), dtype=np.int64)
    else:
        stream_ids = np.array(
            [_checked_stream(s, f"streams[{i}]") for i, s in enumerate(streams)],
            dtype=np.int64,
        )
    if stream_ids.size == 0:
        raise ValueError("need at least one stream")
    ids, seen = np.unique(stream_ids, return_counts=True)
    if seen.max() > 1:
        raise ValueError(f"stream {int(ids[seen > 1][0])} is listed more than once")
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
    n_cp = cps.size
    states = np.empty((m, n_cp, spec.colors))
    tracks = np.empty((m, n_cp, vt.shape[0]))
    cp_index = {int(n): i for i, n in enumerate(cps)}
    keys = _stream_keys(seed, stream_ids)
    # The fewest passes of at most PASS_STREAMS streams, all as wide as the
    # first but the last.
    passes = -(-m // PASS_STREAMS)
    width = -(-m // passes)
    # One uniforms block for the widest pass, allocated once: a block
    # reallocated per pass would come back from the heap, which glibc keeps.
    u = np.empty((width, _block_steps(width, horizon)))
    # Each pass's largest mass drift; np.max keeps a NaN, where max would not.
    drifts = []
    exact = _exact_prefix_sums(spec, horizon)
    gens = [
        trajectory_rng(seed, s, key=key)
        for s, key in zip(stream_ids[:width].tolist(), keys[:width])
    ]
    # Read before any draw, so it is the state of a generator just built.
    fresh = gens[0].bit_generator.state if passes > 1 else None
    for lo in range(0, m, width):
        hi = min(lo + width, m)
        if lo:
            _rekey(gens, keys[lo:hi], fresh)
        drifts.append(_simulate_pass(
            spec,
            gens[: hi - lo],
            u[: hi - lo],
            horizon,
            cp_index,
            states[lo:hi],
            exact,
        ))
    del u, gens
    # Tracks are formed over the whole ensemble, one contiguous (M, K)
    # checkpoint at a time, so they do not depend on the pass width: numpy
    # sends a one-row product to another BLAS routine than a wider one, and
    # the two may round differently.
    if vt.shape[0]:
        for i in range(n_cp):
            tracks[:, i, :] = np.ascontiguousarray(states[:, i, :]) @ vt.T
    return EnsemblePaths(
        seed=seed,
        streams=stream_ids,
        checkpoints=cps,
        states=states,
        track_vectors=vt,
        tracks=tracks,
        max_mass_drift=float(np.max(drifts)),
    )

