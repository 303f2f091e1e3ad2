import bisect
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urnlab import core
from urnlab import (
    color_from_uniform,
    default_checkpoints,
    initial_state,
    new_spec,
    simulate,
    simulate_many,
    step,
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


def test_default_checkpoints_powers_of_two():
    assert default_checkpoints(10).tolist() == [0, 1, 2, 4, 8, 10]
    assert default_checkpoints(8).tolist() == [0, 1, 2, 4, 8]
    assert default_checkpoints(1).tolist() == [0, 1]


def test_step_adds_drawn_row():
    spec = new_spec(*TWO)
    state = initial_state(spec)
    after = step(spec, state, 1)
    assert after.trials == 1
    assert after.counts == pytest.approx([0.9, 1.1])
    with pytest.raises(ValueError, match="out of range"):
        step(spec, state, 2)


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


def test_simulate_matches_simulate_many_bitwise():
    spec = new_spec(*TWO)
    one = simulate(spec, 300, seed=11, stream=3, track_vectors=[[1.0, -1.0]])
    many = simulate_many(spec, 300, 11, [0, 3, 5], track_vectors=[[1.0, -1.0]])
    i = list(many.streams).index(3)
    assert one.states.tolist() == many.states[i].tolist()
    assert one.tracks[0].tolist() == many.tracks[i, :, 0].tolist()


def test_simulate_many_batch_size_is_invisible():
    for model in (TWO, FOUR):
        spec = new_spec(*model)
        a = simulate_many(spec, 500, 2, 4, batch_steps=7)
        b = simulate_many(spec, 500, 2, 4, batch_steps=2048)
        assert a.states.tolist() == b.states.tolist()
    with pytest.raises(ValueError, match="batch_steps"):
        simulate_many(spec, 500, 2, 4, batch_steps=0)


@pytest.mark.parametrize("block_bytes", [1, 3 * 8 * 4])
def test_uniform_block_byte_bound_is_invisible(monkeypatch, block_bytes):
    # 1 byte still leaves one step per block; 96 bytes give 3 steps at M=4.
    spec = new_spec(*FOUR)
    vectors = [[0.3, -0.1, 0.7, 0.2]]
    a = simulate_many(spec, 500, 2, 4, track_vectors=vectors)
    monkeypatch.setattr(core, "UNIFORM_BLOCK_BYTES", block_bytes)
    b = simulate_many(spec, 500, 2, 4, track_vectors=vectors)
    assert a.states.tolist() == b.states.tolist()
    assert a.tracks.tolist() == b.tracks.tolist()


# sha256 of simulate_many states and tracks on non-dyadic models.  They pin
# which uniform each step consumes, the colour it selects and the row added.
# A change that only re-rounds the prefix sums (say, scaling by n + 1 instead
# of the float total) flips a draw with probability near 1e-13 per draw, so
# these digests cannot see it; the kernel keeps np.cumsum's adds instead.
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
}


def _sha256(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype="<f8").tobytes()).hexdigest()


@pytest.mark.parametrize("batch_steps", [7, None], ids=["batch7", "default"])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_simulate_many_golden_digests(name, batch_steps):
    model, vectors, seed, states_digest, tracks_digest = GOLDEN[name]
    kwargs = {} if batch_steps is None else {"batch_steps": batch_steps}
    paths = simulate_many(
        new_spec(*model), 1000, seed, 12, track_vectors=vectors, **kwargs
    )
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


def test_mass_law_exact_at_checkpoints():
    spec = new_spec([[0.5, 0.5], [0.25, 0.75]], [0.25, 0.75])
    paths = simulate_many(spec, 4096, 1, 16)
    totals = paths.states.sum(axis=2)
    expect = paths.checkpoints + 1.0
    assert np.abs(totals - expect[None, :]).max() < 1e-10


def test_counts_never_decrease():
    spec = new_spec(*TWO)
    t = simulate(spec, 256, seed=9)
    diffs = np.diff(t.states, axis=0)
    assert diffs.min() >= -1e-12


def test_custom_checkpoints_validated():
    spec = new_spec(*TWO)
    with pytest.raises(ValueError, match="strictly increasing"):
        simulate(spec, 10, seed=0, checkpoints=[0, 5, 5])
    with pytest.raises(ValueError, match="within"):
        simulate(spec, 10, seed=0, checkpoints=[0, 20])
    t = simulate(spec, 10, seed=0, checkpoints=[3, 10])
    assert t.checkpoints.tolist() == [3, 10]
    assert t.states[0].sum() == pytest.approx(4.0)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31), scale=st.sampled_from([0.5, 2.0, 4.0]))
def test_row_rescaling_leaves_dynamics_unchanged(seed, scale):
    base = np.array(TWO[0])
    s1 = new_spec(base, [0.5, 0.5])
    s2 = new_spec(base * scale, [0.5, 0.5])
    a = simulate(s1, 64, seed=seed)
    b = simulate(s2, 64, seed=seed)
    assert a.states.tolist() == b.states.tolist()
