"""Attention kernel, tempered/injected/identity variants, and K/V selection."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tilevsr.attention import (
    SCORE_BLOCK_BYTES,
    InjectedKV,
    aggregate_frame_kv,
    attend,
    extend_kv,
    scaled_scores,
    select_tap_frames,
    softmax_rows,
    subsample_spatial_kv,
)
from tilevsr.models import ToyAttentionDenoiser

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
    assert np.max(np.abs(a - b)) < 1e-9


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
    assert np.max(np.abs(b - base)) < 1e-6


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
    with pytest.raises(ValueError):
        InjectedKV(np.zeros((2, 4)), np.zeros((3, 4)))


# --- spatial subsampling ----------------------------------------------------

def test_subsample_rate_two_on_4x4_grid():
    d = 3
    n = 2 * 4 * 4
    keys = np.arange(n * d, dtype=np.float64).reshape(n, d)
    values = keys + 1000.0
    inj = subsample_spatial_kv(keys.reshape(2, 4, 4, d), values.reshape(2, 4, 4, d), 2)
    kept = [0, 2, 8, 10, 16, 18, 24, 26]
    assert inj.rows == 8
    assert np.array_equal(inj.keys, keys[kept])
    assert np.array_equal(inj.values, values[kept])


def test_subsample_rate_one_keeps_everything():
    rng = np.random.default_rng(14)
    keys = rng.standard_normal((12, 2))
    values = rng.standard_normal((12, 2))
    inj = subsample_spatial_kv(keys.reshape(3, 2, 2, 2), values.reshape(3, 2, 2, 2), 1)
    assert np.array_equal(inj.keys, keys)
    assert np.array_equal(inj.values, values)


def test_subsample_rate_beyond_extent_keeps_anchor():
    rng = np.random.default_rng(15)
    keys = rng.standard_normal((8, 2))
    values = rng.standard_normal((8, 2))
    inj = subsample_spatial_kv(keys.reshape(2, 2, 2, 2), values.reshape(2, 2, 2, 2), 5)
    assert inj.rows == 2
    assert np.array_equal(inj.keys, keys[[0, 4]])


def test_subsample_grid_mismatch():
    grid = np.zeros((2, 2, 2, 2))
    for keys, values in ((np.zeros((8, 2)), np.zeros((8, 2))),  # token-major rows
                         (grid, grid[:, :1]), (grid[:1], grid), (grid, grid[..., None])):
        with pytest.raises(ValueError, match="equal leading shape"):
            subsample_spatial_kv(keys, values, 2)
    with pytest.raises(ValueError, match="rate"):
        subsample_spatial_kv(grid, grid, 0)
    assert subsample_spatial_kv(grid, np.zeros((2, 2, 2, 5)), 2).values.shape == (2, 5)


# --- aggregation ------------------------------------------------------------

def test_aggregate_orders_rows_by_tile():
    a = InjectedKV(np.zeros((2, 3)), np.zeros((2, 2)))
    b = InjectedKV(np.ones((3, 3)), np.ones((3, 2)))
    agg = aggregate_frame_kv([a, b])
    assert agg.rows == 5
    assert np.array_equal(agg.keys[:2], a.keys)
    assert np.array_equal(agg.keys[2:], b.keys)
    single = aggregate_frame_kv([a])
    assert np.array_equal(single.keys, a.keys)


def test_aggregate_rejects_mismatches():
    a = InjectedKV(np.zeros((2, 3)), np.zeros((2, 2)))
    bad_dim = InjectedKV(np.zeros((2, 4)), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        aggregate_frame_kv([a, bad_dim])
    with pytest.raises(ValueError):
        aggregate_frame_kv([])


# --- frame selection --------------------------------------------------------

def brute_force_selection(keys_by_frame, count):
    stds = [float(np.std(k)) for k in keys_by_frame]
    order = sorted(range(len(stds)), key=lambda i: (-stds[i], i))
    return sorted(order[:count])


def test_select_single_spread_frame():
    frames = [np.zeros((2, 1)) for _ in range(5)]
    frames[2] = np.array([[-3.0], [3.0]])
    assert select_tap_frames(frames, 1) == [2]


def test_select_ties_break_to_lower_index():
    frames = [np.ones((2, 2)) * 7.0 for _ in range(6)]
    assert select_tap_frames(frames, 3) == [0, 1, 2]
    assert select_tap_frames(frames, 6) == [0, 1, 2, 3, 4, 5]


def test_select_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(16)
    for trial in range(100):
        n = int(rng.integers(1, 9))
        count = int(rng.integers(1, n + 1))
        frames = [rng.standard_normal((int(rng.integers(1, 5)), 3)) for _ in range(n)]
        if trial % 3 == 0 and n >= 2:
            # force exact ties by duplicating a frame's keys
            frames[n - 1] = frames[0].copy()
        assert select_tap_frames(frames, count) == brute_force_selection(frames, count)


def test_select_count_validation():
    frames = [np.zeros((2, 2))]
    with pytest.raises(ValueError):
        select_tap_frames(frames, 2)
    with pytest.raises(ValueError):
        select_tap_frames(frames, 0)


# --- batched property -------------------------------------------------------

@settings(deadline=None, max_examples=50)
@given(st.integers(1, 4), st.integers(1, 5), st.integers(1, 5), st.integers(0, 1000))
def test_batched_weights_are_probabilities(tq, tk, d, seed):
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((2, tq, d))
    k = rng.standard_normal((2, tk, d))
    gamma = float(rng.uniform(0.0, 3.0))
    w = softmax_rows(scaled_scores(q, k, gamma))
    assert w.shape == (2, tq, tk)
    assert np.max(np.abs(w.sum(axis=-1) - 1.0)) < 1e-6


# --- fused kernel against the step-by-step reference ------------------------

def assert_attend_is_reference(q, k, v, injected, gamma):
    k2, v2 = extend_kv(k, v, injected)
    ref_weights = softmax_rows(scaled_scores(q, k2, gamma))
    ref_out = ref_weights @ v2
    out, means = attend(q, k, v, injected, gamma, own_key_means=True)
    assert np.array_equal(out, ref_out)
    assert np.array_equal(means, ref_weights[..., :k.shape[-2]].mean(-2))
    assert np.array_equal(attend(q, k, v, injected, gamma), ref_out)


def random_injection(rng, rows, d, dv):
    if rows is None:
        return None
    return InjectedKV(rng.standard_normal((rows, d)), rng.standard_normal((rows, dv)))


@settings(deadline=None, max_examples=150)
@given(
    batch=st.sampled_from([(), (1,), (3,), (2, 3)]),
    nq=st.integers(1, 24),
    nk=st.integers(1, 24),
    d=st.integers(1, 12),
    dv=st.integers(1, 12),
    inj_rows=st.none() | st.integers(0, 40),
    gamma=st.just(0.0) | st.floats(0.01, 4.0),
    scale=st.sampled_from([0.1, 1.0, 5.0]),
    seed=st.integers(0, 2**32 - 1),
)
# one own row per frame: the reference's [V; V_inj] has frame-interleaved rows
@example(batch=(3,), nq=1, nk=1, d=1, dv=1, inj_rows=3, gamma=0.0, scale=0.1, seed=0)
def test_attend_is_bitwise_the_reference(batch, nq, nk, d, dv, inj_rows, gamma, scale, seed):
    rng = np.random.default_rng(seed)
    q = rng.standard_normal(batch + (nq, d)) * scale
    k = rng.standard_normal(batch + (nk, d)) * scale
    v = rng.standard_normal(batch + (nk, dv))
    assert_attend_is_reference(q, k, v, random_injection(rng, inj_rows, d, dv), gamma)


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
    assert_attend_is_reference(q, k, v, random_injection(rng, inj_rows, 4, 3), gamma)


def test_attend_frame_larger_than_block_budget():
    # one 64 x 4160 score matrix is 2.1 MB, over the budget: one frame per block
    rng = np.random.default_rng(21)
    q, k, v = (rng.standard_normal((3, 64, 16)) for _ in range(3))
    inj = random_injection(rng, 4096, 16, 16)
    assert 64 * (64 + 4096) * 8 > SCORE_BLOCK_BYTES
    for gamma in (0.0, 0.8):
        assert_attend_is_reference(q, k, v, inj, gamma)


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
        lambda: den.denoise(x, None, 1.0, injected=injected, collect_attention=True)
    )
    assert peak < 4 * SCORE_BLOCK_BYTES
