"""Attention kernel, tempered/injected/identity variants, and K/V selection."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tilevsr import attention as attention_module
from tilevsr import models
from tilevsr.attention import (
    SCORE_BLOCK_BYTES,
    SHIFT_FREE_BOUND,
    InjectedKV,
    aggregate_frame_kv,
    attend,
    extend_kv,
    scaled_scores,
    select_tap_frames,
    softmax_rows,
    subsample_spatial_kv,
)
from tilevsr.guidance import GuidanceConfig
from tilevsr.models import ToyAttentionDenoiser, ToyCodec
from tilevsr.sampler import PipelineConfig, sample_video

Q1 = np.array([[1.0, 0.0]])
I2 = np.eye(2)


def random_qkv(rng, tq=5, tk=6, d=4, dv=3):
    return (
        rng.standard_normal((tq, d)),
        rng.standard_normal((tk, d)),
        rng.standard_normal((tk, dv)),
    )


# --- plain attention --------------------------------------------------------

def test_self_attention_two_key_oracle():
    # softmax([1/sqrt(2), 0]) against identity values
    out = attend(Q1, I2, I2)
    e = math.exp(1.0 / math.sqrt(2.0))
    w = e / (1.0 + e)
    assert out.shape == (1, 2)
    assert abs(out[0, 0] - w) < 1e-12
    assert abs(out[0, 1] - (1.0 - w)) < 1e-12
    assert abs(out[0, 0] - 0.6698) < 5e-4
    assert abs(out[0, 1] - 0.3302) < 5e-4


def test_identical_keys_give_value_mean():
    rng = np.random.default_rng(0)
    q = rng.standard_normal((3, 4))
    k = np.tile(rng.standard_normal((1, 4)), (5, 1))
    v = rng.standard_normal((5, 2))
    out = attend(q, k, v)
    assert np.max(np.abs(out - v.mean(axis=0))) < 1e-12


def test_single_key_returns_that_value():
    rng = np.random.default_rng(1)
    q = rng.standard_normal((4, 3))
    k = rng.standard_normal((1, 3))
    v = rng.standard_normal((1, 2))
    out = attend(q, k, v)
    assert np.max(np.abs(out - v[0])) < 1e-12


def test_joint_kv_permutation_invariance():
    rng = np.random.default_rng(2)
    q, k, v = random_qkv(rng)
    perm = rng.permutation(k.shape[0])
    a = attend(q, k, v)
    b = attend(q, k[perm], v[perm])
    assert np.max(np.abs(a - b)) < 1e-6


def test_softmax_rows_sum_to_one_and_stability():
    rng = np.random.default_rng(3)
    scores = rng.standard_normal((4, 7)) * 500.0
    w = softmax_rows(scores)
    assert np.all(np.isfinite(w))
    assert np.max(np.abs(w.sum(axis=-1) - 1.0)) < 1e-6
    assert np.all(w >= 0.0)


# --- tempered (detail-suppressed) attention ---------------------------------

def test_tempered_scores_quarter_oracle():
    # gamma=2 with unit-magnitude q and k gives temper max(4, 1) = 4
    out = attend(Q1, I2, I2, gamma=2.0)
    arg = 1.0 / (4.0 * math.sqrt(2.0))
    e = math.exp(arg)
    w = e / (1.0 + e)
    assert abs(out[0, 0] - w) < 1e-12
    assert abs(out[0, 0] - 0.5440) < 5e-4
    assert abs(out[0, 1] - 0.4560) < 5e-4


def test_gamma_zero_is_bitwise_plain():
    rng = np.random.default_rng(4)
    q, k, v = random_qkv(rng)
    plain = attend(q, k, v)
    suppressed = attend(q, k, v, gamma=0.0)
    assert np.array_equal(plain, suppressed)
    assert np.array_equal(
        scaled_scores(q, k, 0.0), q @ k.T / math.sqrt(q.shape[-1])
    )


def test_huge_gamma_approaches_value_mean():
    rng = np.random.default_rng(5)
    q, k, v = random_qkv(rng)
    out = attend(q, k, v, gamma=1e4)
    assert np.max(np.abs(out - v.mean(axis=0))) < 1e-4


def test_temper_below_one_clamps_to_plain():
    rng = np.random.default_rng(6)
    q, k, v = random_qkv(rng)
    # tiny gamma: gamma^2 * qmax * kmax < 1, denominator clamps at 1
    a = attend(q, k, v, gamma=1e-6)
    b = attend(q, k, v)
    assert np.array_equal(a, b)


def test_row_entropy_grows_with_gamma():
    def entropy(w):
        return -(w * np.log(np.maximum(w, 1e-300))).sum(axis=-1)

    rng = np.random.default_rng(7)
    for _ in range(50):
        q, k, v = random_qkv(rng)
        qmax = np.max(np.abs(q))
        kmax = np.max(np.abs(k))
        g1 = math.sqrt(1.0 / (qmax * kmax)) * (1.0 + rng.uniform(0.0, 2.0))
        g2 = g1 * (1.0 + rng.uniform(0.1, 2.0))
        h1 = entropy(softmax_rows(scaled_scores(q, k, g1)))
        h2 = entropy(softmax_rows(scaled_scores(q, k, g2)))
        assert np.all(h2 >= h1 - 1e-12)


# --- identity-score perturbation --------------------------------------------

def test_pag_returns_values_exactly():
    # identity scores: each query attends to its own key alone, so the
    # softmax weight is exactly 1
    rng = np.random.default_rng(8)
    q = rng.standard_normal((4, 3))
    k = rng.standard_normal((4, 3))
    v = rng.standard_normal((4, 2))

    def identity_attention(q, k, v):
        return attend(q[:, None], k[:, None], v[:, None])[:, 0]

    out = identity_attention(q, k, v)
    assert np.array_equal(out, v)
    out[0, 0] = 123.0
    assert v[0, 0] != 123.0
    # idempotent and zero-preserving
    z = identity_attention(q, k, np.zeros((4, 2)))
    assert np.array_equal(z, np.zeros((4, 2)))


# --- injected keys/values ---------------------------------------------------

def test_empty_injection_matches_plain():
    rng = np.random.default_rng(10)
    q, k, v = random_qkv(rng)
    base = attend(q, k, v)
    a = attend(q, k, v, None)
    empty = InjectedKV(np.zeros((0, 4)), np.zeros((0, 3)))
    b = attend(q, k, v, empty)
    assert np.array_equal(a, base)
    assert np.array_equal(b, base)


def test_duplicate_injection_preserves_output():
    rng = np.random.default_rng(11)
    q, k, v = random_qkv(rng)
    base = attend(q, k, v)
    dup = InjectedKV(k.copy(), v.copy())
    out = attend(q, k, v, dup)
    assert np.max(np.abs(out - base)) < 1e-10


def test_far_key_injection_is_negligible():
    rng = np.random.default_rng(12)
    q, k, v = random_qkv(rng)
    q[:, 0] = np.abs(q[:, 0]) + 0.5
    base = attend(q, k, v)
    # a key anti-aligned with every query by a score gap >= 30
    far_key = np.zeros((1, 4))
    far_key[0, 0] = -1e3
    far = InjectedKV(far_key, np.full((1, 3), 1e3))
    out = attend(q, k, v, far)
    gap = np.min(scaled_scores(q, k, 0.0)) - np.max(scaled_scores(q, far.keys, 0.0))
    assert gap >= 30.0
    assert np.max(np.abs(out - base)) < 1e-6


def test_extend_kv_broadcasts_over_batch():
    rng = np.random.default_rng(13)
    k = rng.standard_normal((2, 3, 4))
    v = rng.standard_normal((2, 3, 4))
    inj = InjectedKV(rng.standard_normal((2, 4)), rng.standard_normal((2, 4)))
    k2, v2 = extend_kv(k, v, inj)
    assert k2.shape == (2, 5, 4)
    assert np.array_equal(k2[0, 3:], inj.keys)
    assert np.array_equal(k2[1, 3:], inj.keys)
    assert np.array_equal(v2[0, 3:], inj.values)


def test_attend_rejects_unequal_batch_shapes():
    rng = np.random.default_rng(14)
    q = rng.standard_normal((2, 3, 4))
    kv = rng.standard_normal((2, 5, 4))
    for k, v in ((kv[:1], kv), (kv, kv[:1]), (kv[0], kv), (kv[None], kv[None])):
        with pytest.raises(ValueError, match="batch shapes"):
            attend(q, k, v)
    assert attend(q, kv, kv).shape == (2, 3, 4)


def test_injected_kv_validation():
    for keys, values in (((2, 4), (3, 4)), ((2, 2, 4), (3, 2, 4)), ((4,), (4,)),
                         ((1, 1, 2, 4), (1, 1, 2, 4))):
        with pytest.raises(ValueError, match="must be"):
            InjectedKV(np.zeros(keys), np.zeros(values))


@pytest.mark.parametrize("lead", [(), (3,)])
def test_injected_kv_holds_read_only_views_and_their_maxima(lead):
    rng = np.random.default_rng(15)
    keys, values = rng.standard_normal(lead + (5, 4)), rng.standard_normal(lead + (5, 2)) * 7.0
    inj = InjectedKV(keys, values)
    for held, given in ((inj.keys, keys), (inj.values, values)):
        assert np.shares_memory(held, given) and np.array_equal(held, given)  # no copy
        with pytest.raises(ValueError, match="read-only"):
            held *= 2.0
        assert given.flags.writeable
    with pytest.raises(dataclasses.FrozenInstanceError):
        inj.keys = keys
    assert np.array_equal(inj.kmax, np.abs(keys).max(axis=(-2, -1)))
    assert np.array_equal(inj.vmax, np.abs(values).max(axis=(-2, -1)))
    empty = InjectedKV(np.zeros(lead + (0, 4)), np.zeros(lead + (0, 2)))
    assert np.all(empty.kmax == 0.0) and np.all(empty.vmax == 0.0)
    assert np.shape(empty.kmax) == lead


def test_injected_kv_per_tile_broadcasts_views_and_checks_the_call():
    rng = np.random.default_rng(16)
    shared = InjectedKV(rng.standard_normal((5, 4)), rng.standard_normal((5, 2)))
    keys, values, kmax, vmax = shared.per_tile(3, 4, 2)
    assert keys.shape == (3, 5, 4) and values.shape == (3, 5, 2)
    assert kmax.shape == vmax.shape == (3,)
    assert all(np.shares_memory(keys[t], shared.keys) for t in range(3))
    assert np.all(kmax == shared.kmax) and np.all(vmax == shared.vmax)
    per_tile = InjectedKV(rng.standard_normal((3, 5, 4)), rng.standard_normal((3, 5, 2)))
    keys, _, kmax, _ = per_tile.per_tile(3, 4, 2)
    assert np.shares_memory(keys, per_tile.keys) and np.array_equal(kmax, per_tile.kmax)
    q, k, v = np.zeros((2, 3, 4)), np.zeros((2, 1, 4)), np.zeros((2, 1, 2))
    for inj, dims, match in ((shared, (5, 2), "dims 4/2 do not match 5/2"),
                             (shared, (4, 3), "dims 4/2 do not match 4/3"),
                             (per_tile, (4, 2), "injected rows for 3 tiles")):
        with pytest.raises(ValueError, match=match):
            inj.per_tile(2, *dims)
    # attend and the reference check the call through the same method
    for fn in (lambda inj: attend(q[None], k[None], v[None], inj),
               lambda inj: extend_kv(k[None], v[None], inj)):
        with pytest.raises(ValueError, match="rows for 3 tiles need a call of as many tiles, got 1"):
            fn(per_tile)
    with pytest.raises(ValueError, match="do not match"):
        attend(np.zeros((2, 3, 5)), np.zeros((2, 1, 5)), v, shared)
    with pytest.raises(ValueError, match="do not match"):
        extend_kv(k, np.zeros((2, 1, 3)), shared)


# --- spatial subsampling ----------------------------------------------------

def test_subsample_rate_two_on_4x4_grid():
    d = 3
    n = 2 * 4 * 4
    keys = np.arange(n * d, dtype=np.float64).reshape(n, d)
    values = keys + 1000.0
    got_k, got_v = subsample_spatial_kv(keys.reshape(1, 2, 4, 4, d), values.reshape(1, 2, 4, 4, d), 2)
    kept = [0, 2, 8, 10, 16, 18, 24, 26]
    assert got_k.shape == (1, 8, d)
    assert np.array_equal(got_k, keys[kept][None])
    assert np.array_equal(got_v, values[kept][None])


def test_subsample_rate_one_keeps_everything():
    rng = np.random.default_rng(14)
    keys = rng.standard_normal((12, 2))
    values = rng.standard_normal((12, 2))
    got_k, got_v = subsample_spatial_kv(keys.reshape(1, 3, 2, 2, 2), values.reshape(1, 3, 2, 2, 2), 1)
    assert np.array_equal(got_k, keys[None])
    assert np.array_equal(got_v, values[None])


def test_subsample_rate_beyond_extent_keeps_anchor():
    rng = np.random.default_rng(15)
    keys = rng.standard_normal((8, 2))
    values = rng.standard_normal((8, 2))
    got_k, _ = subsample_spatial_kv(keys.reshape(1, 2, 2, 2, 2), values.reshape(1, 2, 2, 2, 2), 5)
    assert got_k.shape == (1, 2, 2)
    assert np.array_equal(got_k, keys[[0, 4]][None])


def test_subsample_stack_matches_each_tiles_own_rows():
    # a stack of tiles: each tile's rows are its own brute-force selection
    rng = np.random.default_rng(22)
    for _ in range(100):
        tiles, frames, gh, gw = (int(n) for n in rng.integers(1, 5, size=4))
        d, dv, rate = int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(1, 6))
        keys = rng.standard_normal((tiles, frames, gh, gw, d))
        values = rng.standard_normal((tiles, frames, gh, gw, dv))
        got_k, got_v = subsample_spatial_kv(keys, values, rate)
        want = [(f, y, x) for f in range(frames)
                for y in range(0, gh, rate) for x in range(0, gw, rate)]
        assert got_k.shape == (tiles, len(want), d) and got_v.shape == (tiles, len(want), dv)
        for t in range(tiles):
            assert np.array_equal(got_k[t], np.array([keys[t][i] for i in want]))
            assert np.array_equal(got_v[t], np.array([values[t][i] for i in want]))


def test_subsample_grid_mismatch():
    grid = np.zeros((1, 2, 2, 2, 2))
    for keys, values in ((np.zeros((1, 8, 2)), np.zeros((1, 8, 2))),  # token-major rows
                         (grid[0], grid[0]),  # one tile's (frames, gh, gw, d), unstacked
                         (grid, grid[:, :, :1]), (grid[:, :1], grid), (grid, grid[..., None])):
        with pytest.raises(ValueError, match="equal leading shape"):
            subsample_spatial_kv(keys, values, 2)
    for rate in (0, 2.5):  # int(2.5) would quietly subsample at 2
        with pytest.raises(ValueError, match="rate"):
            subsample_spatial_kv(grid, grid, rate)
    assert subsample_spatial_kv(grid, np.zeros((1, 2, 2, 2, 5)), 2)[1].shape == (1, 2, 5)


# --- aggregation ------------------------------------------------------------

def test_aggregate_orders_rows_by_tile():
    # one group of two stacks, of 3 and 1 tiles, 2 rows each
    rows = np.arange(4 * 2 * 3, dtype=np.float64).reshape(4, 2, 3)
    a = (rows[:3], -rows[:3, :, :2])
    b = (rows[3:], -rows[3:, :, :2])
    agg = aggregate_frame_kv([a, b])
    assert agg.rows == 8
    assert np.array_equal(agg.keys, rows.reshape(8, 3))
    assert np.array_equal(agg.values, -rows[:, :, :2].reshape(8, 2))
    single = aggregate_frame_kv([b])
    assert np.array_equal(single.keys, rows[3].reshape(2, 3))


def test_aggregate_is_one_array_of_its_own():
    rng = np.random.default_rng(23)
    parts = [(rng.standard_normal((t, 5, 3)), rng.standard_normal((t, 5, 2))) for t in (2, 1, 3)]
    agg = aggregate_frame_kv(parts)
    assert agg.keys.flags.c_contiguous and agg.values.flags.c_contiguous
    assert agg.keys.shape == (30, 3) and agg.values.shape == (30, 2)
    assert agg.keys.base.shape == (6, 5, 3) and agg.values.base.shape == (6, 5, 2)
    assert not any(np.shares_memory(agg.keys, k) or np.shares_memory(agg.values, v)
                   for k, v in parts)
    assert np.array_equal(agg.keys, np.concatenate([k for k, _ in parts]).reshape(-1, 3))
    assert np.array_equal(agg.values, np.concatenate([v for _, v in parts]).reshape(-1, 2))


def test_aggregate_rejects_mismatches():
    a = (np.zeros((2, 2, 3)), np.zeros((2, 2, 2)))
    for parts in (
        [a, (np.zeros((2, 2, 4)), np.zeros((2, 2, 2)))],  # key dims differ
        [a, (np.zeros((2, 3, 3)), np.zeros((2, 3, 2)))],  # row counts differ
        [a, (np.zeros((2, 2, 3)), np.zeros((2, 2, 5)))],  # value dims differ
        [],
    ):
        with pytest.raises(ValueError):
            aggregate_frame_kv(parts)


# --- frame selection --------------------------------------------------------

def brute_force_selection(keys_by_frame, count):
    stds = [float(np.std(k)) for k in keys_by_frame]
    order = sorted(range(len(stds)), key=lambda i: (-stds[i], i))
    return sorted(order[:count])


def test_select_single_spread_frame():
    frames = np.zeros((5, 2, 1))
    frames[2] = [[-3.0], [3.0]]
    assert select_tap_frames(frames[None], 1).tolist() == [[2]]


def test_select_ties_break_to_lower_index():
    frames = np.full((6, 2, 2), 7.0)
    assert select_tap_frames(frames[None], 3).tolist() == [[0, 1, 2]]
    assert select_tap_frames(frames[None], 6).tolist() == [[0, 1, 2, 3, 4, 5]]


def test_select_matches_brute_force_on_random_instances():
    # a stack of tiles: each row is its own tile's brute-force selection
    rng = np.random.default_rng(16)
    for trial in range(100):
        n = int(rng.integers(1, 9))
        count = int(rng.integers(1, n + 1))
        tiles = int(rng.integers(1, 5))
        stack = rng.standard_normal((tiles, n, int(rng.integers(1, 5)), 3))
        if trial % 3 == 0 and n >= 2:
            # force exact ties by duplicating a frame's keys
            stack[:, n - 1] = stack[:, 0]
        got = select_tap_frames(stack, count)
        assert got.shape == (tiles, count)
        assert got.tolist() == [brute_force_selection(frames, count) for frames in stack]


def test_select_count_validation():
    frames = np.zeros((3, 1, 2, 2))  # three tiles of one frame
    with pytest.raises(ValueError):
        select_tap_frames(frames, 2)
    with pytest.raises(ValueError):
        select_tap_frames(frames, 0)
    for unstacked in (np.zeros((4, 3)), np.zeros(4)):  # one tile's (frames, d) keys, or less
        with pytest.raises(ValueError, match="must be a stack"):
            select_tap_frames(unstacked, 1)


# --- batched property -------------------------------------------------------

@settings(deadline=None, max_examples=50)
@given(st.integers(1, 4), st.integers(1, 5), st.integers(1, 5), st.integers(0, 1000))
def test_batched_weights_are_probabilities(tq, tk, d, seed):
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((2, tq, d))
    k = rng.standard_normal((2, tk, d))
    gamma = float(rng.uniform(0.0, 3.0))
    scores = scaled_scores(q, k, gamma)
    w = softmax_rows(scores)
    assert w.shape == (2, tq, tk)
    assert np.max(np.abs(w.sum(axis=-1) - 1.0)) < 1e-6
    # attend's mean weights per key, taken without the full weight tensor
    _, means = attend(q, k, k, gamma=gamma, own_key_means=True)
    assert np.max(np.abs(means - w.mean(-2))) <= reference_bound(scores)
    assert np.max(np.abs(means.sum(-1) - 1.0)) < 1e-12


# --- fused kernel against the step-by-step reference ------------------------

def reference_bound(scores, v=None):
    """How far attend may be from the reference: 4 eps (1 + max|score|),
    times max|v| for an output, a convex combination of the rows of v.
    Each score carries a rounding of about eps of its magnitude (attend
    scales Q where the reference divides the scores), which exp turns into
    that relative error of the weights; normalising after PV adds a few
    eps. Measured on 50,000 random cases of the shapes below: at most 1.17
    (outputs) and 0.49 (means) of the 4."""
    bound = 4 * np.finfo(np.float64).eps * (1.0 + float(np.max(np.abs(scores), initial=0.0)))
    return bound if v is None else bound * float(np.max(np.abs(v)))


def assert_attend_matches_reference(q, k, v, injected, gamma):
    k2, v2 = extend_kv(k, v, injected)
    scores = scaled_scores(q, k2, gamma)
    ref_weights = softmax_rows(scores)
    ref_out = ref_weights @ v2
    out, means = attend(q, k, v, injected, gamma, own_key_means=True)
    assert np.max(np.abs(out - ref_out), initial=0.0) <= reference_bound(scores, v2)
    ref_means = ref_weights[..., :k.shape[-2]].mean(-2)
    assert np.max(np.abs(means - ref_means), initial=0.0) <= reference_bound(scores)
    assert np.array_equal(attend(q, k, v, injected, gamma), out)


def random_injection(rng, rows, d, dv, tiles=None):
    """Random rows, (rows, d) shared by every tile, or with `tiles` one set
    per tile."""
    if rows is None:
        return None
    lead = () if tiles is None else (tiles,)
    return InjectedKV(rng.standard_normal(lead + (rows, d)), rng.standard_normal(lead + (rows, dv)))


@settings(deadline=None, max_examples=150)
@given(
    batch=st.sampled_from([(), (1,), (3,), (2, 3)]),
    nq=st.integers(1, 24),
    nk=st.integers(1, 24),
    d=st.integers(1, 12),
    dv=st.integers(1, 12),
    inj_rows=st.none() | st.integers(0, 40),
    per_tile=st.booleans(),
    gamma=st.just(0.0) | st.floats(0.01, 4.0),
    scale=st.sampled_from([0.1, 1.0, 5.0]),
    seed=st.integers(0, 2**32 - 1),
)
@example(batch=(3,), nq=1, nk=1, d=1, dv=1, inj_rows=3, per_tile=False, gamma=0.0, scale=0.1,
         seed=0)
@example(batch=(2, 3), nq=4, nk=5, d=3, dv=2, inj_rows=6, per_tile=True, gamma=1.5, scale=5.0,
         seed=0)
def test_attend_matches_the_reference(batch, nq, nk, d, dv, inj_rows, per_tile, gamma, scale, seed):
    # per_tile: one set of rows per tile, every leading axis but the last
    rng = np.random.default_rng(seed)
    q = rng.standard_normal(batch + (nq, d)) * scale
    k = rng.standard_normal(batch + (nk, d)) * scale
    v = rng.standard_normal(batch + (nk, dv))
    tiles = math.prod(batch[:-1]) if per_tile else None
    assert_attend_matches_reference(q, k, v, random_injection(rng, inj_rows, d, dv, tiles), gamma)


@pytest.mark.parametrize("nq", [1, 4])
@pytest.mark.parametrize("gamma", [0.0, 1.5])
def test_attend_one_own_key_per_frame(nq, gamma):
    # one own key per frame: the own-key GEMMs are (nq x d)(d x 1) and
    # (nq x 1)(1 x dv), next to the shared injected rows
    rng = np.random.default_rng(23)
    q = rng.standard_normal((3, nq, 4))
    k = rng.standard_normal((3, 1, 4))
    v = rng.standard_normal((3, 1, 2))
    assert_attend_matches_reference(q, k, v, random_injection(rng, 5, 4, 2), gamma)
    # one key and nothing injected: every query returns that key's value.
    # The score bound alone would skip the row-max shift; one key a row
    # keeps it, so the weight is exp(0) = 1 exactly
    assert score_bound(q, k, None, gamma) <= SHIFT_FREE_BOUND
    assert np.array_equal(attend(q, k, v, gamma=gamma), np.repeat(v, nq, axis=-2))


@settings(deadline=None, max_examples=8)
@given(
    nq=st.integers(8, 32),
    nk=st.integers(8, 32),
    inj_rows=st.integers(0, 64),
    extra=st.integers(1, 40),
    gamma=st.just(0.0) | st.floats(0.01, 4.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_attend_spans_several_score_blocks(nq, nk, inj_rows, extra, gamma, seed):
    per_block = SCORE_BLOCK_BYTES // (nq * (nk + inj_rows) * 8)
    frames = 2 * per_block + extra  # two full blocks and a partial one
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((frames, nq, 4))
    k = rng.standard_normal((frames, nk, 4))
    v = rng.standard_normal((frames, nk, 3))
    assert_attend_matches_reference(q, k, v, random_injection(rng, inj_rows, 4, 3), gamma)


def test_attend_frame_larger_than_block_budget():
    # one 64 x 4160 score matrix is 2.1 MB, over the budget: one frame per block
    rng = np.random.default_rng(21)
    q, k, v = (rng.standard_normal((3, 64, 16)) for _ in range(3))
    inj = random_injection(rng, 4096, 16, 16)
    assert 64 * (64 + 4096) * 8 > SCORE_BLOCK_BYTES
    for gamma in (0.0, 0.8):
        assert_attend_matches_reference(q, k, v, inj, gamma)


def peak_traced_bytes(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_own_key_means_keep_scores_to_one_block():
    # 64 frames of 64 tokens against 64 own + 1600 injected keys: the full
    # weight tensor would take 54.5 MB
    rng = np.random.default_rng(22)
    q, k, v = (rng.standard_normal((64, 64, 8)) for _ in range(3))
    inj = random_injection(rng, 1600, 8, 8)
    assert 64 * 64 * (64 + 1600) * 8 > 50e6
    (out, means), peak = peak_traced_bytes(lambda: attend(q, k, v, inj, 0.5, own_key_means=True))
    assert peak < SCORE_BLOCK_BYTES + out.nbytes + means.nbytes + 512 * 1024
    # the denoiser's attention maps (sag guidance) take the same path
    den = ToyAttentionDenoiser(seed=7, channels=1, patch_size=2, embed_dim=8, cond_dim=4)
    x = rng.standard_normal((64, 1, 16, 16))
    injected = {layer: inj for layer in den.hook_layers}
    _, peak = peak_traced_bytes(
        lambda: den.denoise(x[None], False, 1.0, injected=injected, collect_attention=True)
    )
    assert peak < 4 * SCORE_BLOCK_BYTES


# --- the row-max shift and its guard ----------------------------------------

def score_bound(q, k, injected, gamma):
    """attend's free bound on |score|: sqrt(d) * qmax * kmax / temper, the
    largest over the batched matrices (kmax over own and injected keys)."""
    axes = (-2, -1)
    qmax = np.max(np.abs(q), axis=axes)
    kmax = np.max(np.abs(k), axis=axes)
    if injected is not None and injected.rows:
        kmax = np.maximum(kmax, np.max(np.abs(injected.keys)))
    temper = np.maximum(gamma * gamma * qmax * kmax, 1.0)
    return math.sqrt(q.shape[-1]) * float(np.max(qmax * kmax / temper))


@pytest.mark.parametrize("gamma", [0.0, 0.01])
def test_scores_past_the_bound_are_shifted(gamma):
    # q and k scaled x100: scores reach thousands, where an unshifted exp
    # overflows, so only the shifted path matches the reference
    rng = np.random.default_rng(31)
    q, k, v = (rng.standard_normal((2, 5, 4)) * 100.0 for _ in range(3))
    v /= 100.0
    inj = random_injection(rng, 7, 4, 4)
    inj = InjectedKV(inj.keys * 100.0, inj.values)
    assert score_bound(q, k, inj, gamma) > SHIFT_FREE_BOUND
    k2, _ = extend_kv(k, v, inj)
    assert np.max(np.abs(scaled_scores(q, k2, gamma))) > 710.0
    assert_attend_matches_reference(q, k, v, inj, gamma)


@pytest.mark.parametrize("v_scale,sign", [(1e300, 1.0), (1e-290, -1.0)])
def test_values_out_of_range_are_shifted(v_scale, sign):
    # every score between 100 and 196 (or -196 and -100), inside the bound:
    # unshifted, e^100 * 1e300 overflows and e^-100 * 1e-290 underflows to
    # zero; shifted, the largest weight is 1 and the output is the
    # reference's, finite and nonzero
    rng = np.random.default_rng(32)
    q = rng.uniform(10.0, 14.0, (3, 4, 1))
    k = sign * rng.uniform(10.0, 14.0, (3, 6, 1))
    v = rng.uniform(-1.0, 1.0, (3, 6, 2)) * v_scale
    inj = InjectedKV(sign * rng.uniform(10.0, 14.0, (5, 1)),
                     rng.uniform(-1.0, 1.0, (5, 2)) * v_scale)
    assert score_bound(q, k, inj, 0.0) <= SHIFT_FREE_BOUND
    k2, v2 = extend_kv(k, v, inj)
    ref = softmax_rows(scaled_scores(q, k2)) @ v2
    assert np.all(np.isfinite(ref)) and np.all(ref != 0.0)
    assert_attend_matches_reference(q, k, v, inj, 0.0)


def test_denoiser_scores_stay_inside_the_shift_free_bound(monkeypatch):
    # every attend call of one 25-step SAP/TAP/dssag run on the 14x3x16x16
    # acceptance geometry is inside the bound, with values in range, so none
    # falls back to the shifted path (the largest bound is about 34)
    bounds, v_ranges = [], []
    real = models.attend

    def recording(q, k, v, injected=None, gamma=0.0, **kw):
        assert q.ndim == 4  # (tiles, frames or tokens, n, d): a stack
        for t in range(len(q)):  # one record per tile of the stack
            inj = injected
            if inj is not None and inj.keys.ndim == 3:
                inj = InjectedKV(inj.keys[t], inj.values[t])
            n_keys = k.shape[-2] + (inj.rows if inj is not None else 0)
            assert n_keys > 1
            bounds.append(score_bound(q[t], k[t], inj, gamma))
            inj_v = inj.values if inj is not None and inj.rows else np.zeros(1)
            v_ranges.append(max(np.max(np.abs(v[t])), np.max(np.abs(inj_v))))
        return real(q, k, v, injected, gamma, **kw)

    monkeypatch.setattr(models, "attend", recording)
    lr = np.random.default_rng(123).uniform(0.0, 1.0, size=(14, 3, 16, 16))
    denoiser = ToyAttentionDenoiser(seed=1234, channels=3, patch_size=4, embed_dim=16,
                                    spatial_layers=4, cond_dim=8)
    cfg = PipelineConfig(steps=25, tile_frames=14, tile_h=16, tile_w=16, sap=True, tap=True,
                         sap_rate=2, tap_frames=4, upscale_factor=4, seed=0,
                         guidance=GuidanceConfig(mode="dssag", scale=1.0, rho=0.5))
    sample_video(lr, denoiser, ToyCodec(2), cfg)
    # 4 spatial layers and the temporal block a guided forward; a gather
    # stops at the last hook layer's K/V, before its attention
    assert len(bounds) == 1350 * 5 + 351 * 3
    assert max(bounds) <= SHIFT_FREE_BOUND / 4, max(bounds)
    assert 1e-3 <= min(v_ranges) and max(v_ranges) <= 1e3


# --- stacked calls: a leading tile axis, bit for bit per tile ----------------

def assert_stacked_is_per_tile(q, k, v, injected, gamma):
    """A stacked call's output and key means equal, byte for byte, those of
    one call per tile with that tile's rows (shared rows go to every tile)."""
    out, means = attend(q, k, v, injected, gamma, own_key_means=True)
    assert np.array_equal(attend(q, k, v, injected, gamma), out)
    for t in range(len(q)):
        inj = injected
        if inj is not None and inj.keys.ndim == 3:
            inj = InjectedKV(inj.keys[t], inj.values[t])
        one, one_means = attend(q[t], k[t], v[t], inj, gamma, own_key_means=True)
        assert out[t].tobytes() == one.tobytes(), t
        assert means[t].tobytes() == one_means.tobytes(), t


def random_stack(rng, tiles, frames, nq, nk, d, dv, scale=1.0):
    return (rng.standard_normal((tiles, frames, nq, d)) * scale,
            rng.standard_normal((tiles, frames, nk, d)) * scale,
            rng.standard_normal((tiles, frames, nk, dv)))


@settings(deadline=None, max_examples=60)
@given(
    tiles=st.integers(1, 5),
    frames=st.integers(1, 6),
    nq=st.integers(1, 20),
    nk=st.integers(1, 20),
    inj=st.sampled_from(["none", "shared", "per_tile"]),
    inj_rows=st.integers(0, 40),
    gamma=st.just(0.0) | st.floats(0.01, 4.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_attend_is_per_tile_attend(tiles, frames, nq, nk, inj, inj_rows, gamma, seed):
    rng = np.random.default_rng(seed)
    q, k, v = random_stack(rng, tiles, frames, nq, nk, 6, 5)
    injected = None
    if inj == "shared":
        injected = random_injection(rng, inj_rows, 6, 5)
    elif inj == "per_tile":
        injected = InjectedKV(rng.standard_normal((tiles, inj_rows, 6)),
                              rng.standard_normal((tiles, inj_rows, 5)))
    assert_stacked_is_per_tile(q, k, v, injected, gamma)


@pytest.mark.parametrize("inj", ["shared", "per_tile"])
def test_stacked_attend_uneven_block_tails(monkeypatch, inj):
    # a 2-frame score block splits the 7-frame tiles into blocks of 2, 2, 2
    # and 1 that never span two tiles
    rng = np.random.default_rng(41)
    q, k, v = random_stack(rng, 3, 7, 16, 16, 4, 3)
    keys = (3, 24, 4) if inj == "per_tile" else (24, 4)
    injected = InjectedKV(rng.standard_normal(keys), rng.standard_normal(keys[:-1] + (3,)))
    monkeypatch.setattr(attention_module, "SCORE_BLOCK_BYTES", 2 * 16 * (16 + 24) * 8)
    assert_stacked_is_per_tile(q, k, v, injected, 0.7)


def test_stacked_attend_shifts_only_the_tiles_that_need_it():
    # tile 1's scores pass the bound and are shifted; tiles 0 and 2 are not
    rng = np.random.default_rng(42)
    q, k, v = random_stack(rng, 3, 2, 5, 6, 4, 3)
    q[1] *= 100.0
    k[1] *= 100.0
    bounds = [score_bound(q[t], k[t], None, 0.0) for t in range(3)]
    assert bounds[1] > SHIFT_FREE_BOUND >= max(bounds[0], bounds[2])
    assert_stacked_is_per_tile(q, k, v, None, 0.0)
    scale = np.array([1.0, 100.0, 1.0])[:, None, None]
    injected = InjectedKV(rng.standard_normal((3, 7, 4)) * scale, rng.standard_normal((3, 7, 3)))
    assert_stacked_is_per_tile(q, k, v, injected, 0.0)


def test_stacked_attend_rejects_mismatched_tiles():
    rng = np.random.default_rng(44)
    q, k, v = random_stack(rng, 3, 2, 4, 4, 4, 4)
    per_tile = InjectedKV(rng.standard_normal((2, 5, 4)), rng.standard_normal((2, 5, 4)))
    with pytest.raises(ValueError, match="injected rows for 2 tiles"):
        attend(q, k, v, per_tile)
    with pytest.raises(ValueError, match="injected rows for 2 tiles"):
        attend(q[0], k[0], v[0], per_tile)
    with pytest.raises(ValueError):
        InjectedKV(np.zeros((2, 5, 4)), np.zeros((3, 5, 4)))
