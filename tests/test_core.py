import bisect
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from urnlab import core
from urnlab import (
    default_checkpoints,
    new_spec,
    simulate_many,
    trajectory_rng,
)

TWO = ([[0.7, 0.3], [0.4, 0.6]], [0.5, 0.5])
# Non-dyadic four-colour spec: every cumulative sum rounds.
FOUR = (
    [
        [0.4, 0.3, 0.2, 0.1],
        [0.1, 0.5, 0.3, 0.1],
        [0.2, 0.2, 0.35, 0.25],
        [0.15, 0.15, 0.3, 0.4],
    ],
    [0.1, 0.2, 0.3, 0.4],
)
# Dyadic four-colour spec (configs/four_color_jordan.json): multiples of 1/8,
# so simulate_many takes the exact step.
FOUR_DYADIC = (
    [
        [0.25, 0.25, 0.375, 0.125],
        [0.25, 0.25, 0.125, 0.375],
        [0.0, 0.0, 0.5, 0.5],
        [0.0, 0.0, 0.5, 0.5],
    ],
    [0.25, 0.25, 0.25, 0.25],
)


def color_from_uniform(counts: np.ndarray, u: float) -> int:
    """Scalar reference of the draw rule: colour i is drawn iff
    cum[i-1] <= u * total < cum[i], scanning colours in index order, for
    cum = np.cumsum(counts).  Zero-count colours have zero-width intervals
    and are never drawn."""
    cum = np.cumsum(counts)
    scaled = u * cum[-1]
    return int(np.count_nonzero(cum[:-1] <= scaled))


def test_new_spec_accepts_probability_rows():
    spec = new_spec(*TWO)
    assert spec.colors == 2
    assert spec.matrix.sum(axis=1) == pytest.approx([1.0, 1.0])
    assert not spec.matrix.flags.writeable
    assert not spec.initial.flags.writeable


def test_new_spec_rescales_common_row_sum():
    spec = new_spec([[1.4, 0.6], [0.8, 1.2]], [0.5, 0.5])
    np.testing.assert_allclose(spec.matrix, [[0.7, 0.3], [0.4, 0.6]], atol=1e-15)


def test_new_spec_rescale_keeps_dyadic_entries_exact():
    # scaling by a power of two must not introduce rounding
    spec = new_spec([[1.0, 1.0], [0.5, 1.5]], [0.25, 0.75])
    assert spec.matrix.tolist() == [[0.5, 0.5], [0.25, 0.75]]


def test_new_spec_rejects_disagreeing_row_sums():
    with pytest.raises(ValueError, match="common sum"):
        new_spec([[0.7, 0.3], [0.4, 0.7]], [0.5, 0.5])


def test_new_spec_rejects_negative_cells_by_name():
    with pytest.raises(ValueError, match=r"replacement_matrix\[0\]\[1\]"):
        new_spec([[1.3, -0.3], [0.4, 0.6]], [0.5, 0.5])
    with pytest.raises(ValueError, match=r"initial_composition\[1\]"):
        new_spec(TWO[0], [1.5, -0.5])


def test_new_spec_rejects_bad_shapes_and_mass():
    with pytest.raises(ValueError, match="square"):
        new_spec([[0.5, 0.5]], [1.0])
    with pytest.raises(ValueError, match="two colors"):
        new_spec([[1.0]], [1.0])
    with pytest.raises(ValueError, match="sum to 1"):
        new_spec(TWO[0], [0.5, 0.6])
    with pytest.raises(ValueError, match="non-finite"):
        new_spec([[np.nan, 1.0], [0.5, 0.5]], [0.5, 0.5])


def test_new_spec_canonicalizes_negative_zeros():
    # -0.0 and 0.0 are the same model; no state may carry the sign of a zero.
    neg = new_spec([[1.0, -0.0], [0.5, 0.5]], [1.0, -0.0])
    pos = new_spec([[1.0, 0.0], [0.5, 0.5]], [1.0, 0.0])
    a = simulate_many(neg, 4, 0, 3, checkpoints=np.arange(5)).states
    b = simulate_many(pos, 4, 0, 3, checkpoints=np.arange(5)).states
    assert a.tobytes() == b.tobytes()
    assert not np.signbit(a).any()


def test_default_checkpoints_powers_of_two():
    assert default_checkpoints(10).tolist() == [0, 1, 2, 4, 8, 10]
    assert default_checkpoints(8).tolist() == [0, 1, 2, 4, 8]
    assert default_checkpoints(1).tolist() == [0, 1]


@given(
    counts=st.lists(st.floats(0.0, 10.0), min_size=2, max_size=5).filter(
        lambda c: sum(c) > 1e-9
    ),
    u=st.floats(0.0, 1.0, exclude_max=True),
)
def test_color_from_uniform_matches_bisect(counts, u):
    counts = np.array(counts)
    cum = np.cumsum(counts)
    expected = bisect.bisect_right(cum.tolist(), u * cum[-1])
    expected = min(expected, len(counts) - 1)
    assert color_from_uniform(counts, u) == expected


def test_color_from_uniform_skips_zero_width_intervals():
    assert color_from_uniform(np.array([0.0, 1.0, 0.0]), 0.0) == 1
    assert color_from_uniform(np.array([1.0, 0.0, 1.0]), 0.5) == 2


def test_trajectory_rng_streams_are_stable_and_disjoint():
    a = trajectory_rng(123, 0).random(4)
    b = trajectory_rng(123, 0).random(4)
    c = trajectory_rng(123, 1).random(4)
    assert a.tolist() == b.tolist()
    assert a.tolist() != c.tolist()
    with pytest.raises(ValueError):
        trajectory_rng(-1, 0)


def test_block_draws_match_sequential_draws():
    # the batched runner consumes one variate per trial in trial order
    g1 = trajectory_rng(5, 7)
    g2 = trajectory_rng(5, 7)
    block = g1.random(64)
    seq = np.array([g2.random() for _ in range(64)])
    assert block.tolist() == seq.tolist()


def test_simulate_many_batch_size_is_invisible(monkeypatch):
    # 7-step blocks at M = 4, the last one 3 steps, against one 500-step block.
    for model in (TWO, FOUR):
        spec = new_spec(*model)
        with monkeypatch.context() as patch:
            patch.setattr(core, "UNIFORM_BLOCK_BYTES", 8 * 4 * 7)
            a = simulate_many(spec, 500, 2, 4)
        b = simulate_many(spec, 500, 2, 4)
        assert a.states.tolist() == b.states.tolist()


@pytest.mark.parametrize("block_bytes", [1, 3 * 8 * 4])
def test_uniform_block_byte_bound_is_invisible(monkeypatch, block_bytes):
    # 1 byte still leaves one step per block; 96 bytes give 3 steps at M=4.
    # FOUR takes the general step and FOUR_DYADIC the exact one.
    vectors = [[0.3, -0.1, 0.7, 0.2]]
    for model in (FOUR, FOUR_DYADIC):
        spec = new_spec(*model)
        with monkeypatch.context() as patch:
            a = simulate_many(spec, 500, 2, 4, track_vectors=vectors)
            patch.setattr(core, "UNIFORM_BLOCK_BYTES", block_bytes)
            b = simulate_many(spec, 500, 2, 4, track_vectors=vectors)
        assert a.states.tolist() == b.states.tolist()
        assert a.tracks.tolist() == b.tracks.tolist()


@pytest.mark.parametrize("streams", [7, [0, 4, 2**40, 9, 5]], ids=["count", "list"])
@pytest.mark.parametrize("pass_streams", [1, 3])
def test_pass_bound_is_invisible(monkeypatch, pass_streams, streams):
    # At a bound of 3, 7 streams run as passes of 3, 3 and 1, and 5 as 3 and 2;
    # every pass is pass_streams wide but the last, and its blocks are 64
    # steps, the last one 44.  The reference runs one pass in one block.
    # FOUR takes the general step and FOUR_DYADIC the exact one.
    vectors = [[0.3, -0.1, 0.7, 0.2]]
    for model in (FOUR, FOUR_DYADIC):
        spec = new_spec(*model)
        with monkeypatch.context() as patch:
            a = simulate_many(spec, 300, 2, streams, track_vectors=vectors)
            patch.setattr(core, "PASS_STREAMS", pass_streams)
            patch.setattr(core, "UNIFORM_BLOCK_BYTES", 8 * pass_streams * 64)
            b = simulate_many(spec, 300, 2, streams, track_vectors=vectors)
        assert a.states.tolist() == b.states.tolist()
        assert a.tracks.tolist() == b.tracks.tolist()


def test_at_most_pass_bound_of_generators_alive(monkeypatch):
    spec = new_spec(*TWO)
    expected = simulate_many(spec, 40, 3, 10)
    original = core.trajectory_rng
    live = {"now": 0, "peak": 0}

    class LiveGenerator:
        def __init__(self, gen):
            self._gen = gen
            live["now"] += 1
            live["peak"] = max(live["peak"], live["now"])

        def __del__(self):
            live["now"] -= 1

        def random(self, *args, **kwargs):
            return self._gen.random(*args, **kwargs)

        def __getattr__(self, name):
            # Forwards the rest, as perfbench/tracer.py's TimedGenerator does.
            return getattr(self._gen, name)

    def live_rng(*args, **kwargs):
        return LiveGenerator(original(*args, **kwargs))

    monkeypatch.setattr(core, "trajectory_rng", live_rng)
    monkeypatch.setattr(core, "PASS_STREAMS", 3)
    # Passes of 3, 3, 3 and 1: the first builds three generators and each
    # later pass re-keys them, so three are alive at most.
    paths = simulate_many(spec, 40, 3, 10)
    assert live == {"now": 0, "peak": 3}
    assert paths.states.tobytes() == expected.states.tobytes()


@pytest.mark.parametrize(
    "horizon, streams, block_bytes, pass_streams, block",
    [
        (50, 5, 8 * 5 * 7, 2048, 7),  # 7-step blocks, last 1
        (40, 4, 8 * 4 * 16, 2048, 16),  # 16-step blocks, last 8
        (10, 4, 10**6, 2048, 10),  # horizon: one block
        (30, 7, 8 * 3 * 4, 3, 4),  # passes of 3, 3 and 1; 4-step blocks
        (600, 2, 8 * 2 * 256, 2048, 255),  # 256 steps fit: 255-step blocks, last 90
    ],
    ids=["block-7", "block-16", "horizon", "passes", "stride"],
)
def test_refill_schedule(monkeypatch, horizon, streams, block_bytes, pass_streams, block):
    # Each refill must go through the generator object's random attribute,
    # where perfbench/tracer.py's TimedGenerator hooks it.  The first pass
    # builds one generator a row and later passes re-key them, so generator
    # i refills once a block in every pass wider than i.
    spec = new_spec(*FOUR)
    expected = simulate_many(spec, horizon, 3, streams)
    original = core.trajectory_rng
    refills = []

    class RefillLog:
        def __init__(self, gen):
            self._gen = gen
            self.sizes = []
            refills.append(self.sizes)

        def random(self, *args, **kwargs):
            self.sizes.append(kwargs["out"].nbytes)
            return self._gen.random(*args, **kwargs)

        def __getattr__(self, name):
            return getattr(self._gen, name)

    monkeypatch.setattr(
        core, "trajectory_rng", lambda *a, **kw: RefillLog(original(*a, **kw))
    )
    monkeypatch.setattr(core, "UNIFORM_BLOCK_BYTES", block_bytes)
    monkeypatch.setattr(core, "PASS_STREAMS", pass_streams)
    paths = simulate_many(spec, horizon, 3, streams)
    assert paths.states.tobytes() == expected.states.tobytes()
    width = -(-streams // -(-streams // pass_streams))
    widths = [min(width, streams - lo) for lo in range(0, streams, width)]
    full, last = divmod(horizon, block)
    schedule = [8 * block] * full + ([8 * last] if last else [])
    assert len(schedule) == -(-horizon // block)
    assert refills == [schedule * sum(w > i for w in widths) for i in range(width)]
    # No out array, nor one pass's refills together, exceed the byte bound.
    assert sum(sizes[0] for sizes in refills[:width]) <= block_bytes


@pytest.mark.parametrize(
    "width, horizon, steps",
    [(2000, 10**5, 250), (1024, 10**5, 488), (1000, 10**6, 500), (100, 1000, 1000)],
)
def test_block_steps_of_acceptance_shapes(width, horizon, steps):
    assert core._block_steps(width, horizon) == steps


def test_block_steps_are_never_a_multiple_of_256():
    # 4 MB holds 256, 512 and 1024 steps at these widths, and the horizon
    # caps the last shape at 4096; each loses one step.
    assert [core._block_steps(w, h) for w, h in
            ((1953, 10**5), (976, 10**5), (488, 10**5), (100, 4096))] == [255, 511, 1023, 4095]
    for width in range(1, 2049):
        for horizon in (1, 255, 256, 257, 4096, 10**6):
            steps = core._block_steps(width, horizon)
            assert 1 <= steps <= horizon and steps % 256, (width, horizon, steps)
            assert steps == 1 or 8 * width * steps <= core.UNIFORM_BLOCK_BYTES


def test_uniforms_block_bounds_traced_memory():
    # One pass of 2000 streams whose block the byte bound shortens: 250
    # steps of 4 MB where a 16 MB bound gave 1000 steps and about 20 MB
    # traced.  The states add 0.8 MB and the generators about 3 MB.
    spec = new_spec(*FOUR)
    peak = _peak_bytes(lambda: simulate_many(spec, 1000, 3, 2000))
    assert peak < 10 * 10**6


# sha256 of simulate_many states and tracks, on non-dyadic models (the
# general step) and dyadic ones (the exact step).  They pin which uniform each
# step consumes, the colour it selects and the row added.  A change that only
# re-rounds the prefix sums (say, scaling by n + 1 instead of the float total)
# flips a draw with probability near 1e-13 per draw, so these digests cannot
# see it; the general step keeps np.cumsum's adds instead.
GOLDEN = {
    "two_color": (
        ([[0.7, 0.3], [0.4, 0.6]], [0.5714285714285714, 0.4285714285714286]),
        [[1.0, 1.0], [0.3, -0.7]],
        20240901,
        "6a85d30b08fb0173431b50449def67a2f8f4cdee7a040056f7ba209ee0c20f66",
        "62a8f51418b038c51ea001bef4cd4062b630fb041618191db69387a61d9b8daf",
    ),
    # JORDAN_REFERENCE of the acceptance suite: one colour starts at zero.
    "jordan_reference": (
        ([[0.5, 0.45, 0.05], [0.0, 0.75, 0.25], [0.0, 0.25, 0.75]], [0.25, 0.75, 0.0]),
        [[1.0, 0.0, 0.0], [0.1, 0.7, -0.3]],
        7,
        "afbe63a4df2f4597d0a65c765ce4e8337a3f1a67d07ce2fe91b0cf7e6d361d7c",
        "ba002dda3314c13ba609dc7030343787180f9289393d48dd8c2e962d529ec5f2",
    ),
    "four_nondyadic": (
        FOUR,
        [[0.3, -0.1, 0.7, 0.2]],
        11,
        "e48ae1e82b1509997a824102267d8f5c3ab19300efec700964785f79f61606a0",
        "287cf117dc4c86d5a4bee6ffd8b1e23aab430663c31855bccaca1aff008517fa",
    ),
    "two_dyadic": (
        ([[0.75, 0.25], [0.5, 0.5]], [0.5, 0.5]),
        [[1.0, 1.0], [0.25, -0.5]],
        3,
        "ed67d8f5cd844262c7b34bfedad08906d0b1e82dc466e34a2f7b938c980eb09c",
        "d020663cf37cb1a0bdb6ffb9028ea44f5af41e6cb8e00df501b2008391ebf322",
    ),
    # Dyadic with a colour that starts at zero.
    "three_dyadic_zero": (
        ([[0.5, 0.375, 0.125], [0.0, 0.75, 0.25], [0.0, 0.25, 0.75]], [0.25, 0.75, 0.0]),
        [[1.0, 0.0, 0.0], [0.1, 0.7, -0.3]],
        5,
        "9d9fc886dd93f493cbc836d6560c90159ebc1f5ef15f142b7cbe47d1bc923736",
        "e2fe1be4395de4ffce5ae8e1d4a8823cc5197706ba7959dcbed35e5516698555",
    ),
    "three_color_mixture": (
        (
            [[0.3125, 0.1875, 0.5], [0.1875, 0.3125, 0.5], [0.0, 0.0, 1.0]],
            [0.25, 0.25, 0.5],
        ),
        [[1.0, -1.0, 0.0], [0.2, 0.3, 0.5]],
        42,
        "3315fc39cb41500c7e05cc5b8e61bdcdcc66337907fdb32cf071460c744d947d",
        "4ebb1938cf40d753452c44e0181e4e3bfc911525e9b7b461f9e2cc08763ff291",
    ),
    "four_color_jordan": (
        FOUR_DYADIC,
        [[0.3, -0.1, 0.7, 0.2]],
        7,
        "e791f7ec170c558dbee10be219ab479d1606728c5c05c456b67942ef0197a97c",
        "94a8ba587e7fb7349c8d362ce7645352729d026ea778125577df5cdc5280abfc",
    ),
}


def _sha256(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype="<f8").tobytes()).hexdigest()


@pytest.mark.parametrize(
    "block_steps, pass_streams",
    [(7, None), (None, None), (7, 5), (None, 5)],
    ids=["batch7", "default", "batch7-pass5", "pass5"],
)
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_simulate_many_golden_digests(monkeypatch, name, block_steps, pass_streams):
    # 7-step blocks (the last one 6) or the default single 1000-step block,
    # in one pass of 12.  At a pass bound of 5 the 12 streams run as three
    # passes of 4, the later two on re-keyed generators, in 21-step blocks
    # (the last one 13) or again one 1000-step block.
    model, vectors, seed, states_digest, tracks_digest = GOLDEN[name]
    if block_steps is not None:
        monkeypatch.setattr(core, "UNIFORM_BLOCK_BYTES", 8 * 12 * block_steps)
    if pass_streams is not None:
        monkeypatch.setattr(core, "PASS_STREAMS", pass_streams)
    paths = simulate_many(new_spec(*model), 1000, seed, 12, track_vectors=vectors)
    assert (_sha256(paths.states), _sha256(paths.tracks)) == (
        states_digest,
        tracks_digest,
    )


@settings(max_examples=50, deadline=None)
@given(
    counts=st.lists(st.floats(0.0, 10.0), min_size=2, max_size=5).filter(
        lambda c: sum(c) > 1e-3
    ),
    seed=st.integers(0, 2**31),
)
def test_first_kernel_draw_matches_color_from_uniform(counts, seed):
    # Identity rows: the first draw adds one unit to the drawn colour only.
    c0 = np.array(counts) / sum(counts)
    spec = new_spec(np.eye(c0.size), c0)
    streams = [0, 1, 5, 9]
    paths = simulate_many(spec, 1, seed, streams)
    drawn = np.argmax(paths.states[:, 1] - paths.states[:, 0], axis=1)
    expected = [
        color_from_uniform(spec.initial, trajectory_rng(seed, s).random())
        for s in streams
    ]
    assert drawn.tolist() == expected


def _scalar_paths(spec, horizon, seed, streams):
    # Reference stepper: one trajectory at a time, one uniform per draw, the
    # draw rule of color_from_uniform and a plain add of the drawn row.
    out = np.empty((len(streams), horizon + 1, spec.colors))
    for i, s in enumerate(streams):
        rng = trajectory_rng(seed, s)
        counts = spec.initial.copy()
        out[i, 0] = counts
        for n in range(1, horizon + 1):
            counts = counts + spec.matrix[color_from_uniform(counts, rng.random())]
            out[i, n] = counts
    return out


@st.composite
def _urn_models(draw):
    # Non-dyadic rows built from small integer weights, so zero entries are
    # common; every row shares the sum `scale`, which new_spec divides out.
    k = draw(st.integers(2, 4))
    weights = st.lists(st.integers(0, 7), min_size=k, max_size=k)
    rows = [draw(weights.filter(any)) for _ in range(k)]
    scale = draw(st.sampled_from([0.3, 1.0, 1.7, 3.0]))
    matrix = [[scale * w / sum(row) for w in row] for row in rows]
    c0 = draw(weights)
    c0[draw(st.integers(0, k - 1))] = 0
    assume(any(c0))
    return matrix, [w / sum(c0) for w in c0]


@settings(max_examples=40, deadline=None)
@given(model=_urn_models(), seed=st.integers(0, 2**31))
def test_simulate_many_matches_scalar_stepper(model, seed):
    spec = new_spec(*model)
    horizon, streams = 30, [0, 3, 7]
    expected = _scalar_paths(spec, horizon, seed, streams)
    states = simulate_many(
        spec, horizon, seed, streams, checkpoints=np.arange(horizon + 1)
    ).states
    assert np.array_equal(states, expected)
    assert np.array_equal(np.signbit(states), np.signbit(expected))


def test_mass_law_exact_at_checkpoints():
    spec = new_spec([[0.5, 0.5], [0.25, 0.75]], [0.25, 0.75])
    paths = simulate_many(spec, 4096, 1, 16)
    totals = paths.states.sum(axis=2)
    expect = paths.checkpoints + 1.0
    assert np.abs(totals - expect[None, :]).max() < 1e-10


@pytest.mark.parametrize("pass_streams", [None, 1, 3], ids=["default", "bound1", "bound3"])
def test_max_mass_drift_is_that_of_the_states(monkeypatch, pass_streams):
    # The non-dyadic FOUR rows round, so the drift is not zero.  Stream 16
    # drifts furthest and comes last: at a bound of 3 the passes are 3, 3
    # and 1 streams wide, and only a maximum over every pass reaches it.
    if pass_streams is not None:
        monkeypatch.setattr(core, "PASS_STREAMS", pass_streams)
    paths = simulate_many(new_spec(*FOUR), 300, 4, [1, 6, 10, 14, 17, 0, 16])
    cps = paths.checkpoints
    expected = float(np.abs(paths.states.sum(axis=2) - (cps + 1.0)).max())
    assert expected > 0.0
    assert type(paths.max_mass_drift) is float
    assert paths.max_mass_drift.hex() == expected.hex()


@pytest.mark.parametrize("pass_streams", [None, 1], ids=["default", "bound1"])
def test_mass_law_violation_is_named(monkeypatch, pass_streams):
    # Rows summing to 1 + 1e-6 bypass new_spec; the mass then drifts by
    # 1e-6 a trial, a thousand times the allowed MASS_DRIFT_PER_TRIAL.
    matrix = np.array([[0.7, 0.3 + 1e-6], [0.4, 0.6 + 1e-6]])
    spec = core.ReplacementSpec(colors=2, matrix=matrix, initial=np.array([0.5, 0.5]))
    if pass_streams is not None:
        monkeypatch.setattr(core, "PASS_STREAMS", pass_streams)
    with pytest.raises(RuntimeError, match=r"mass law violated at n=1: max drift"):
        simulate_many(spec, 100, 3, 5)


@pytest.mark.parametrize("pass_streams", [None, 1], ids=["default", "bound1"])
def test_mass_law_violation_is_named_on_the_exact_step(monkeypatch, pass_streams):
    # Dyadic rows summing to 1 + 2**-10, built without new_spec: the exact
    # step carries the total as one float, and the check must still see
    # it drift by 2**-10 a trial.
    matrix = np.array([[0.75, 0.25 + 2**-10], [0.5, 0.5 + 2**-10]])
    spec = core.ReplacementSpec(colors=2, matrix=matrix, initial=np.array([0.5, 0.5]))
    assert core._exact_prefix_sums(spec, 100)
    if pass_streams is not None:
        monkeypatch.setattr(core, "PASS_STREAMS", pass_streams)
    with pytest.raises(RuntimeError, match=r"mass law violated at n=1: max drift"):
        simulate_many(spec, 100, 3, 5)


def test_counts_never_decrease():
    spec = new_spec(*TWO)
    paths = simulate_many(spec, 256, 9, [0])
    diffs = np.diff(paths.states[0], axis=0)
    assert diffs.min() >= -1e-12


def test_custom_checkpoints_validated():
    spec = new_spec(*TWO)
    with pytest.raises(ValueError, match="strictly increasing"):
        simulate_many(spec, 10, 0, 1, checkpoints=[0, 5, 5])
    with pytest.raises(ValueError, match="within"):
        simulate_many(spec, 10, 0, 1, checkpoints=[0, 20])
    for bad, entry in (([0, 2.5, 10], "2.5"), ([0, True, 10], "True"),
                       (np.array([0, 3.9, 10]), "3.9")):
        with pytest.raises(ValueError, match=rf"checkpoints\[1\] .*{entry}"):
            simulate_many(spec, 10, 0, 1, checkpoints=bad)
    paths = simulate_many(spec, 10, 0, 1, checkpoints=[3, 10])
    assert paths.checkpoints.tolist() == [3, 10]
    assert paths.states[0, 0].sum() == pytest.approx(4.0)
    # An integral float is a valid checkpoint.
    assert simulate_many(spec, 10, 0, 1, checkpoints=[3.0, 10]).states.tolist() == (
        paths.states.tolist()
    )


def test_checkpoints_and_horizons_beyond_int64_are_refused():
    # The checkpoint grid is an int64 array: values beyond it are refused by
    # name before any draw.
    spec = new_spec(*TWO)
    with pytest.raises(
        ValueError, match=r"checkpoints\[1\] does not fit in int64: 9223372036854775808"
    ):
        simulate_many(spec, 10, 1, 2, checkpoints=[0, 2**63])
    with pytest.raises(ValueError, match=r"checkpoints\[0\] does not fit in int64"):
        simulate_many(spec, 10, 1, 2, checkpoints=[-(2**63) - 1, 10])
    for horizon in (2**63, 2**64):
        with pytest.raises(ValueError, match=r"horizon must be below 2\*\*63"):
            default_checkpoints(horizon)
        with pytest.raises(ValueError, match=r"horizon must be below 2\*\*63"):
            simulate_many(spec, horizon, 1, 2)


def test_duplicate_streams_rejected():
    spec = new_spec(*TWO)
    with pytest.raises(ValueError, match="stream 3 is listed more than once"):
        simulate_many(spec, 8, 1, [3, 3])
    with pytest.raises(ValueError, match="stream 0"):
        simulate_many(spec, 8, 1, [0, 2, 0])


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31), scale=st.sampled_from([0.5, 2.0, 4.0]))
def test_row_rescaling_leaves_dynamics_unchanged(seed, scale):
    base = np.array(TWO[0])
    s1 = new_spec(base, [0.5, 0.5])
    s2 = new_spec(base * scale, [0.5, 0.5])
    a = simulate_many(s1, 64, seed, [0])
    b = simulate_many(s2, 64, seed, [0])
    assert a.states.tolist() == b.states.tolist()


def test_fractional_and_bool_seeds_and_streams_rejected():
    spec = new_spec(*TWO)
    for seed in (1.5, True, np.bool_(False), np.float64(2.25), float("nan")):
        with pytest.raises(ValueError, match="seed is not an integer"):
            simulate_many(spec, 5, seed, 2)
        with pytest.raises(ValueError, match="seed is not an integer"):
            trajectory_rng(seed, 0)
    for streams, name in (([1.5], r"streams\[0\]"), ([0, True], r"streams\[1\]"),
                          (np.array([0.0, 2.5]), r"streams\[1\]")):
        with pytest.raises(ValueError, match=rf"{name} is not an integer"):
            simulate_many(spec, 5, 1, streams)
    for count in (True, 2.5):
        with pytest.raises(ValueError, match="stream count is not an integer"):
            simulate_many(spec, 5, 1, count)
    with pytest.raises(ValueError, match="stream is not an integer"):
        trajectory_rng(1, 1.5)
    # Integral values of any numeric type name the same trajectories.
    paths = simulate_many(spec, 5, 1, [0, 3])
    for seed, streams in ((1.0, [0, 3]), (np.int32(1), [0.0, np.uint8(3)]),
                          (1, np.array([0, 3], dtype=np.uint64))):
        again = simulate_many(spec, 5, seed, streams)
        assert again.states.tobytes() == paths.states.tobytes()
        assert type(again.seed) is int and again.streams.tolist() == [0, 3]
    assert simulate_many(spec, 5, 1, 2.0).states.tobytes() == (
        simulate_many(spec, 5, 1, 2).states.tobytes()
    )


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak


def test_bad_seed_and_stream_rejected_before_allocation():
    spec = new_spec(*TWO)
    horizon, m = 1024, 10**6
    states_bytes = m * default_checkpoints(horizon).size * spec.colors * 8

    def negative_seed():
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            simulate_many(spec, horizon, -1, m)

    assert _peak_bytes(negative_seed) < 10**6 < states_bytes / 100
    for stream in (2**63, 2**64 + 1, -1, np.uint64(2**63)):
        with pytest.raises(ValueError, match=r"streams\[1\] must lie in \[0, 2\*\*63\)"):
            simulate_many(spec, 4, 1, [0, stream])
        with pytest.raises(ValueError, match=r"stream must lie in \[0, 2\*\*63\)"):
            trajectory_rng(1, stream)
    streams = [*range(10**5), 2**63]

    def huge_stream():
        with pytest.raises(ValueError, match=r"streams\[100000\] must lie"):
            simulate_many(spec, horizon, 1, streams)

    states_bytes = len(streams) * default_checkpoints(horizon).size * spec.colors * 8
    assert _peak_bytes(huge_stream) < states_bytes / 10


def test_fractional_and_bool_horizon_rejected():
    spec = new_spec(*TWO)
    m = 10**6
    for bad in (2.5, True):

        def rejected():
            with pytest.raises(ValueError, match="horizon is not an integer"):
                simulate_many(spec, bad, seed=1, streams=m)

        # Raised before the keys and states of 10**6 streams exist.
        assert _peak_bytes(rejected) < 10**6
        with pytest.raises(ValueError, match="horizon is not an integer"):
            default_checkpoints(bad)
    for bad in (0, -3.0):
        with pytest.raises(ValueError, match="horizon must be >= 1"):
            simulate_many(spec, bad, 1, 2)
    paths = simulate_many(spec, 3, 1, 4)
    for horizon in (3.0, np.float64(3), np.int32(3)):
        again = simulate_many(spec, horizon, 1, 4)
        assert again.states.tobytes() == paths.states.tobytes()
        assert again.checkpoints.tolist() == paths.checkpoints.tolist()
    assert default_checkpoints(8.0).tolist() == default_checkpoints(8).tolist()


_SEEDS = st.one_of(
    st.just(0),
    st.integers(1, 2**32 - 1),
    st.integers(2**32, 2**64 - 1),
    st.integers(2**64, 2**128 - 1),
    st.integers(2**128, 2**200),
)
_ONE_WORD = st.one_of(st.just(0), st.integers(1, 2**32 - 1))
_TWO_WORDS = st.integers(2**32, 2**63 - 1)


@settings(max_examples=200, deadline=None)
@given(
    seed=_SEEDS,
    narrow=_ONE_WORD,
    wide=_TWO_WORDS,
    more=st.lists(st.one_of(_ONE_WORD, _TWO_WORDS), max_size=6),
)
def test_stream_keys_match_seed_sequence(seed, narrow, wide, more):
    # One- and two-word stream ids in one call, so both word counts run.
    streams = [narrow, wide, *more]
    keys = core._stream_keys(seed, np.array(streams, dtype=np.int64))
    assert keys.shape == (len(streams), 2) and keys.dtype == np.uint64
    for s, key in zip(streams, keys):
        expected = np.random.SeedSequence(entropy=seed, spawn_key=(s,)).generate_state(
            2, np.uint64
        )
        assert key.tolist() == expected.tolist(), (seed, s)
    for s, key in zip(streams[:2], keys):
        keyed = trajectory_rng(seed, s, key=key).random(9)
        assert keyed.tolist() == trajectory_rng(seed, s).random(9).tolist()


@settings(max_examples=200, deadline=None)
@given(
    seed=_SEEDS,
    first=st.one_of(_ONE_WORD, _TWO_WORDS),
    stream=st.one_of(_ONE_WORD, _TWO_WORDS),
)
def test_rekeyed_generator_draws_as_built(seed, first, stream):
    # A generator that served a stream is left mid-buffer: 3-value refills
    # leave Philox's 4-value buffer part-used and the uint32 draw between
    # them caches the other half of its 64-bit word.  Re-keyed, it must
    # draw what a generator built with the new key draws, uint32s too.
    keys = core._stream_keys(seed, np.array([first, stream], dtype=np.int64))
    gen = trajectory_rng(seed, first, key=keys[0])
    fresh = gen.bit_generator.state
    gen.random(3)
    gen.integers(2**32, dtype=np.uint32)
    gen.random(3)
    state = gen.bit_generator.state
    assert state["buffer_pos"] == 3 and state["has_uint32"] == 1
    core._rekey([gen], keys[1:], fresh)
    built = trajectory_rng(seed, stream, key=keys[1])
    assert gen.random(9).tolist() == built.random(9).tolist(), (seed, stream)
    assert gen.integers(2**32, dtype=np.uint32) == built.integers(2**32, dtype=np.uint32)


class _CountingGenerator:
    # Forwards random() like the benchmark tracer's proxy does.
    def __init__(self, gen, calls):
        self._gen = gen
        self._calls = calls

    def random(self, *args, **kwargs):
        self._calls["random"] += 1
        return self._gen.random(*args, **kwargs)


def test_simulate_many_builds_each_generator_through_trajectory_rng(monkeypatch):
    # perfbench/tracer.py times core.rng by wrapping this module-global name.
    spec = new_spec(*FOUR)
    streams = [0, 4, 2**40, 9]
    # 128-step blocks, the last one 44: three refills a stream.
    monkeypatch.setattr(core, "UNIFORM_BLOCK_BYTES", 8 * len(streams) * 128)
    expected = simulate_many(spec, 300, 5, streams)
    calls = {"rng": 0, "random": 0}
    original = core.trajectory_rng

    def counting_rng(*args, **kwargs):
        calls["rng"] += 1
        return _CountingGenerator(original(*args, **kwargs), calls)

    monkeypatch.setattr(core, "trajectory_rng", counting_rng)
    paths = simulate_many(spec, 300, 5, streams)
    assert calls == {"rng": len(streams), "random": len(streams) * 3}
    assert paths.states.tobytes() == expected.states.tobytes()


def test_simulate_many_needs_no_seed_sequence(monkeypatch):
    spec = new_spec(*TWO)
    expected = simulate_many(spec, 50, 3, [1, 2**35])

    def no_seed_sequence(*args, **kwargs):
        raise AssertionError("SeedSequence called")

    monkeypatch.setattr(np.random, "SeedSequence", no_seed_sequence)
    with pytest.raises(AssertionError, match="SeedSequence called"):
        trajectory_rng(3, 1)
    paths = simulate_many(spec, 50, 3, [1, 2**35])
    assert paths.states.tobytes() == expected.states.tobytes()


def test_exact_prefix_sums_predicate():
    assert not core._exact_prefix_sums(new_spec(*FOUR), 1)
    # configs/two_color.json: 0.7 is no multiple of a power of two we can use.
    assert not core._exact_prefix_sums(new_spec(*GOLDEN["two_color"][0]), 1)
    # The two dyadic shipped configs at their shipped horizon.
    assert core._exact_prefix_sums(new_spec(*FOUR_DYADIC), 50000)
    assert core._exact_prefix_sums(new_spec(*GOLDEN["three_color_mixture"][0]), 50000)
    # Multiples of 2**-2 at K = 2: (horizon + 1) * 4 * 2 must stay below 2**53.
    spec = new_spec([[0.75, 0.25], [0.5, 0.5]], [0.5, 0.5])
    assert core._exact_prefix_sums(spec, 2**50 - 2)
    assert not core._exact_prefix_sums(spec, 2**50 - 1)
    # Rows summing to 2 are halved and stay dyadic; rows summing to 3 do not.
    halved = new_spec([[1.5, 0.5], [1.0, 1.0]], [0.5, 0.5])
    assert halved.matrix.tolist() == [[0.75, 0.25], [0.5, 0.5]]
    assert core._exact_prefix_sums(halved, 1000)
    thirds = new_spec([[1.5, 1.5], [1.0, 2.0]], [0.5, 0.5])
    assert not core._exact_prefix_sums(thirds, 1000)


def test_unequal_exact_row_sums_take_the_general_step():
    # Dyadic, but row 0 adds 1 - 2**-41 and row 1 adds 1, which new_spec
    # keeps: the total is not one double across trajectories.  The digest
    # is that of the step the parent took, which gives the same bits.
    spec = new_spec([[0.5, 0.5 - 2**-41], [0.5, 0.5]], [0.5, 0.5])
    assert not core._exact_prefix_sums(spec, 1000)
    paths = simulate_many(spec, 1000, 9, 5)
    assert _sha256(paths.states) == (
        "420763eaee6b253a3a5148a72550b3814e71f7064f70cc9031241b37d33fd4a0"
    )


@st.composite
def _dyadic_models(draw):
    # Rows and initial composition with entries in multiples of 2**-p that sum
    # to exactly 1; cut points that coincide give zero entries.  A row may
    # repeat the one before it, so runs of equal rows share a compare row.
    k = draw(st.integers(2, 4))
    unit = 2 ** draw(st.integers(0, 10))
    cuts = st.lists(st.integers(0, unit), min_size=k - 1, max_size=k - 1)

    def composition():
        edges = [0, *sorted(draw(cuts)), unit]
        return [(b - a) / unit for a, b in zip(edges, edges[1:])]

    rows = [composition()]
    for _ in range(k - 1):
        rows.append(rows[-1] if draw(st.booleans()) else composition())
    return rows, composition()


def _assert_exact_step_matches_general_step(model, horizon, seed, streams, pass_streams):
    # States, tracks and drift bit for bit, one-step uniforms blocks.
    spec = new_spec(*model)
    assert core._exact_prefix_sums(spec, horizon)
    vectors = [[0.3, -0.1, 0.7, 0.2][: spec.colors]]
    kwargs = {"checkpoints": np.arange(horizon + 1), "track_vectors": vectors}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "PASS_STREAMS", pass_streams)
        patch.setattr(core, "UNIFORM_BLOCK_BYTES", 1)
        exact = simulate_many(spec, horizon, seed, streams, **kwargs)
        patch.setattr(core, "_exact_prefix_sums", lambda spec, horizon: False)
        general = simulate_many(spec, horizon, seed, streams, **kwargs)
    assert exact.states.tobytes() == general.states.tobytes()
    assert exact.tracks.tobytes() == general.tracks.tobytes()
    assert exact.max_mass_drift.hex() == general.max_mass_drift.hex()


@pytest.mark.parametrize("pass_streams", [1, 3])
@settings(max_examples=40, deadline=None)
@given(
    model=_dyadic_models(),
    horizon=st.integers(1, 300),
    seed=st.integers(0, 2**31),
    streams=st.lists(st.integers(0, 2**40), min_size=1, max_size=7, unique=True),
)
def test_exact_step_matches_general_step(pass_streams, model, horizon, seed, streams):
    _assert_exact_step_matches_general_step(
        model, horizon, seed, streams, pass_streams
    )


A = [0.25, 0.25, 0.375, 0.125]
B = [0.0, 0.5, 0.25, 0.25]
C = [0.125, 0.0, 0.0, 0.875]


@pytest.mark.parametrize("pass_streams", [1, 3])
@pytest.mark.parametrize(
    "model",
    [
        ([[0.25, 0.5, 0.25]] * 3, [0.5, 0.0, 0.5]),
        ([A, A, B, C], [0.25, 0.25, 0.25, 0.25]),
        ([A, B, B, C], [0.5, 0.0, 0.25, 0.25]),
        ([[0.75, 0.25], [0.75, 0.25]], [0.5, 0.5]),
    ],
    ids=["all-equal", "run-at-start", "run-in-middle", "two-equal"],
)
def test_exact_step_merges_runs_of_equal_rows(pass_streams, model):
    # all-equal and two-equal compare no row at all; the runs leave one
    # compare row each.
    _assert_exact_step_matches_general_step(
        model, 200, 17, [0, 5, 2**33, 9, 4], pass_streams
    )
