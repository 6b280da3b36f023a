"""Degradation pipeline, fidelity metrics, and temporal-consistency metrics."""

import numpy as np
import pytest

from tilevsr.quality import (
    DegradationConfig,
    bicubic_resize,
    block_match_flow,
    degrade,
    frame_flows,
    gaussian_blur,
    psnr,
    quantize,
    ssim,
    tlp,
    tof,
    warp_frame,
    warping_error,
)


def grid_video(rng, frames=3, channels=1, h=16, w=16, levels=256):
    """Random video whose samples already sit on the quantizer grid."""
    raw = rng.integers(0, levels, size=(frames, channels, h, w))
    return raw.astype(np.float64) / (levels - 1)


# --- blur -------------------------------------------------------------------

def test_blur_sigma_zero_is_identity():
    x = np.random.default_rng(0).standard_normal((2, 1, 8, 8))
    out = gaussian_blur(x, 0.0)
    assert np.array_equal(out, x)


def test_blur_preserves_constants():
    x = np.full((1, 1, 9, 9), 0.6)
    out = gaussian_blur(x, 2.0)
    assert np.max(np.abs(out - 0.6)) < 1e-12


def test_blur_spreads_an_impulse_symmetrically():
    x = np.zeros((1, 1, 9, 9))
    x[0, 0, 4, 4] = 1.0
    out = gaussian_blur(x, 1.0)
    assert out[0, 0, 4, 4] < 1.0
    assert np.array_equal(out[0, 0], out[0, 0, ::-1, :])
    assert np.array_equal(out[0, 0], out[0, 0, :, ::-1])
    # clamped-edge normalization keeps total mass for an interior impulse
    assert abs(out.sum() - 1.0) < 1e-12


# --- bicubic resize ---------------------------------------------------------

def test_bicubic_scale_one_is_identity():
    x = np.random.default_rng(1).standard_normal((2, 1, 7, 5))
    assert np.array_equal(bicubic_resize(x, 1.0), x)


def test_bicubic_shapes():
    x = np.zeros((2, 3, 8, 6))
    assert bicubic_resize(x, 2.0).shape == (2, 3, 16, 12)
    assert bicubic_resize(x, 0.5).shape == (2, 3, 4, 3)


def test_bicubic_reproduces_linear_ramps_in_the_interior():
    h = w = 12
    ramp = np.add.outer(np.arange(h, dtype=np.float64) * 0.3,
                        np.arange(w, dtype=np.float64) * 0.1)
    x = ramp[None, None]
    up = bicubic_resize(x, 2.0)[0, 0]
    yy = (np.arange(2 * h) + 0.5) / 2.0 - 0.5
    xx = (np.arange(2 * w) + 0.5) / 2.0 - 0.5
    expected = np.add.outer(yy * 0.3, xx * 0.1)
    # edge-clamped taps break linearity in a three-sample ring at scale 2
    inner = (slice(3, -3), slice(3, -3))
    assert np.max(np.abs(up[inner] - expected[inner])) < 1e-12


def test_bicubic_constant_invariance():
    x = np.full((1, 1, 6, 6), 0.42)
    up = bicubic_resize(x, 3.0)
    assert np.max(np.abs(up - 0.42)) < 1e-12


# --- quantization and degradation -------------------------------------------

def test_quantize_rounds_half_away_from_zero():
    assert quantize(np.array([0.5]), 2)[0] == 1.0
    assert quantize(np.array([0.49]), 2)[0] == 0.0
    levels = 256
    x = np.array([(10 + 0.5) / (levels - 1)])
    assert quantize(x, levels)[0] == 11.0 / (levels - 1)


def test_quantize_rejects_a_fractional_level_count():
    # 2.5 levels would put 0.6 and 1.0 on 0.667 and 1.333, off the grid and
    # outside [0, 1]
    with pytest.raises(ValueError, match="quant_levels must be an integer"):
        quantize(np.array([0.3, 0.6, 1.0]), 2.5)
    assert np.array_equal(quantize(np.array([0.3, 0.6, 1.0]), 2.0), [0.0, 1.0, 1.0])


def test_quantize_is_idempotent_on_grid_values():
    rng = np.random.default_rng(2)
    x = grid_video(rng)
    assert np.array_equal(quantize(x, 256), x)


def test_degrade_identity_config_roundtrips_grid_videos():
    rng = np.random.default_rng(3)
    video = grid_video(rng)
    cfg = DegradationConfig(blur_sigma=0.0, down_factor=1, noise_sigma=0.0)
    out = degrade(video, cfg, 0)
    assert np.array_equal(out, video)


def test_degrade_shapes_and_range():
    rng = np.random.default_rng(4)
    video = rng.uniform(0.0, 1.0, size=(3, 3, 16, 16))
    out = degrade(video, DegradationConfig(), 0)
    assert out.shape == (3, 3, 4, 4)
    assert out.min() >= 0.0 and out.max() <= 1.0


def test_degrade_seeded_noise_is_reproducible():
    rng = np.random.default_rng(5)
    video = rng.uniform(0.0, 1.0, size=(2, 1, 8, 8))
    cfg = DegradationConfig(down_factor=2)
    a = degrade(video, cfg, 11)
    b = degrade(video, cfg, 11)
    c = degrade(video, cfg, 12)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    for bad in (-1, 1.5):
        with pytest.raises(ValueError, match="seed"):
            degrade(video, cfg, bad)


def test_degradation_config_validation():
    with pytest.raises(ValueError):
        DegradationConfig(down_factor=0)
    with pytest.raises(ValueError):
        DegradationConfig(quant_levels=1)
    with pytest.raises(ValueError):
        DegradationConfig(blur_sigma=-1.0)
    with pytest.raises(ValueError):
        DegradationConfig(noise_sigma=-0.1)


# --- fidelity metrics -------------------------------------------------------

def test_psnr_identical_is_capped():
    x = np.random.default_rng(6).uniform(0.0, 1.0, size=(2, 1, 8, 8))
    assert psnr(x, x.copy()) == 99.0


def test_psnr_forced_arithmetic():
    a = np.zeros((1, 1, 4, 4))
    b = np.full((1, 1, 4, 4), 0.1)
    assert abs(psnr(a, b) - 20.0) < 1e-9


def test_psnr_returns_a_python_float_below_and_at_the_cap():
    x = np.zeros((1, 1, 4, 4))
    below, capped = psnr(x, np.full(x.shape, 0.1)), psnr(x, x.copy())
    assert (below, capped) == (pytest.approx(20.0), 99.0)
    assert type(below) is float and type(capped) is float


def test_psnr_shape_mismatch():
    with pytest.raises(ValueError):
        psnr(np.zeros((1, 1, 4, 4)), np.zeros((1, 1, 4, 5)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_psnr_rejects_non_finite_inputs(bad):
    # min(99.0, nan) would keep the identical-input cap
    a = np.zeros((2, 1, 4, 4))
    b = a.copy()
    b[1, 0, 2, 3] = bad
    for x, y in ((a, b), (b, a), (b, b)):
        with pytest.raises(ValueError, match="non-finite"):
            psnr(x, y)
    assert abs(psnr(np.zeros(3), np.full(3, 0.1)) - 20.0) < 1e-9  # any shape still works


def test_ssim_identical_is_one():
    x = np.random.default_rng(7).uniform(0.0, 1.0, size=(2, 1, 12, 12))
    assert ssim(x, x.copy()) == 1.0


def test_ssim_decreases_with_noise():
    rng = np.random.default_rng(8)
    x = rng.uniform(0.2, 0.8, size=(1, 1, 16, 16))
    light = np.clip(x + 0.01 * rng.standard_normal(x.shape), 0, 1)
    heavy = np.clip(x + 0.2 * rng.standard_normal(x.shape), 0, 1)
    s_light, s_heavy = ssim(x, light), ssim(x, heavy)
    assert s_heavy < s_light < 1.0
    assert -1.0 <= s_heavy <= 1.0


# --- block-matching flow ----------------------------------------------------

def test_flow_static_frame_is_exactly_zero():
    frame = np.random.default_rng(9).uniform(0.0, 1.0, size=(24, 24))
    flow = block_match_flow(frame, frame.copy(), block=8, radius=4)
    assert flow.shape == (2, 24, 24)
    assert flow.dtype == np.int64
    assert np.count_nonzero(flow) == 0


def test_flow_recovers_integer_translation_in_the_interior():
    rng = np.random.default_rng(10)
    f1 = rng.uniform(0.0, 1.0, size=(24, 24))
    dy, dx = 2, -3
    f2 = np.roll(f1, (dy, dx), axis=(0, 1))
    flow = block_match_flow(f1, f2, block=8, radius=4)
    # interior block away from the wrapped rows/cols
    assert np.all(flow[0, 8:16, 8:16] == dy)
    assert np.all(flow[1, 8:16, 8:16] == dx)


def test_flow_many_random_translations_interior_exact():
    rng = np.random.default_rng(11)
    f1 = rng.uniform(0.0, 1.0, size=(32, 32))
    for _ in range(50):
        dy = int(rng.integers(-3, 4))
        dx = int(rng.integers(-3, 4))
        f2 = np.roll(f1, (dy, dx), axis=(0, 1))
        flow = block_match_flow(f1, f2, block=8, radius=4)
        assert np.all(flow[0, 8:24, 8:24] == dy)
        assert np.all(flow[1, 8:24, 8:24] == dx)


def test_flow_prefers_smaller_displacement_on_ties():
    # period-2 checkerboard: rolling by 2 is invisible, zero flow must win
    base = np.indices((16, 16)).sum(axis=0) % 2
    f2 = np.roll(base.astype(np.float64), (0, 2), axis=(0, 1))
    flow = block_match_flow(base.astype(np.float64), f2, block=8, radius=4)
    assert np.count_nonzero(flow) == 0


def test_flow_accepts_channel_frames():
    rng = np.random.default_rng(12)
    f1 = rng.uniform(0.0, 1.0, size=(3, 16, 16))
    flow = block_match_flow(f1, f1.copy(), block=8, radius=2)
    assert flow.shape == (2, 16, 16)
    assert np.count_nonzero(flow) == 0


# --- warping ----------------------------------------------------------------

def test_warp_zero_flow_is_identity():
    frame = np.random.default_rng(13).uniform(0.0, 1.0, size=(8, 8))
    flow = np.zeros((2, 8, 8), dtype=np.int64)
    assert np.array_equal(warp_frame(frame, flow)[0], frame)


def test_warp_integer_translation_reconstructs_the_successor():
    rng = np.random.default_rng(14)
    f1 = rng.uniform(0.0, 1.0, size=(16, 16))
    dy, dx = 1, 2
    f2 = np.roll(f1, (dy, dx), axis=(0, 1))
    flow = np.zeros((2, 16, 16), dtype=np.int64)
    flow[0] = dy
    flow[1] = dx
    # warping the current frame along its forward flow rebuilds the successor
    warped = warp_frame(f1, flow)[0]
    assert np.max(np.abs(warped[2:14, 3:13] - f2[2:14, 3:13])) < 1e-12


def test_warp_fractional_flow_shifts_a_ramp():
    h = w = 10
    ramp = np.tile(np.arange(w, dtype=np.float64), (h, 1))
    flow = np.zeros((2, h, w))
    flow[1] = 0.5
    warped = warp_frame(ramp, flow)[0]
    assert np.max(np.abs(warped[:, 1:-1] - (ramp[:, 1:-1] - 0.5))) < 1e-12


# --- temporal consistency ---------------------------------------------------

def constant_flow(dy, dx, h=4, w=4):
    flow = np.zeros((2, h, w))
    flow[0], flow[1] = dy, dx
    return flow


def flows_of(video):
    return frame_flows(video, block_match_flow)


def test_tof_hand_arithmetic_with_stub_flows():
    gt_flows = [constant_flow(1, 0), constant_flow(1, 0)]
    restored_flows = [constant_flow(0, -1), constant_flow(2, 1)]
    got = tof(gt_flows, restored_flows)
    # per pair |dy_r - dy_g| + |dx_r - dx_g| = (1 + 1) and (1 + 1)
    assert abs(got - 2.0) < 1e-6


def test_tof_identical_videos_is_zero():
    rng = np.random.default_rng(15)
    video = rng.uniform(0.0, 1.0, size=(3, 1, 16, 16))
    assert tof(flows_of(video), flows_of(video.copy())) == 0.0


def test_tof_rejects_flow_lists_of_unequal_length_or_pair_shape():
    flows = [constant_flow(0, 1), constant_flow(1, 0)]
    with pytest.raises(ValueError, match="flows"):
        tof(flows, flows[:1])
    with pytest.raises(ValueError, match="flows"):
        tof([], [])
    # (2, 1, 4) would broadcast against (2, 4, 4) into a gap of 2.0
    with pytest.raises(ValueError, match="shape"):
        tof([np.zeros((2, 4, 4))], [np.ones((2, 1, 4))])


def test_tlp_hand_arithmetic():
    # gt frame diffs: 0.1, 0.3; restored diffs: 0.2, 0.1
    gt = np.stack([
        np.full((1, 4, 4), 0.0),
        np.full((1, 4, 4), 0.1),
        np.full((1, 4, 4), 0.4),
    ])
    restored = np.stack([
        np.full((1, 4, 4), 0.0),
        np.full((1, 4, 4), 0.2),
        np.full((1, 4, 4), 0.3),
    ])
    got = tlp(gt, restored)
    assert abs(got - 0.15) < 1e-9


def test_tlp_identical_videos_is_zero():
    rng = np.random.default_rng(16)
    video = rng.uniform(0.0, 1.0, size=(4, 1, 8, 8))
    assert tlp(video, video.copy()) == 0.0


def test_warping_error_static_video_is_zero():
    frame = np.random.default_rng(17).uniform(0.0, 1.0, size=(1, 16, 16))
    video = np.stack([frame] * 4)
    assert warping_error(video, flows_of(video)) == 0.0


def test_warping_error_translation_interior_residual_is_zero():
    rng = np.random.default_rng(18)
    f1 = rng.uniform(0.0, 1.0, size=(24, 24))
    dy, dx = 1, 2
    f2 = np.roll(f1, (dy, dx), axis=(0, 1))
    flow = block_match_flow(f1, f2, block=8, radius=4)
    # warp the current frame onto its successor; in the interior the
    # estimated flow is exact and the residual vanishes
    warped = warp_frame(f1, flow)[0]
    residual = np.abs(warped - f2)[8:16, 8:16]
    assert np.max(residual) == 0.0


def test_warping_error_positive_for_uncorrelated_frames():
    rng = np.random.default_rng(19)
    video = rng.uniform(0.0, 1.0, size=(3, 1, 16, 16))
    assert warping_error(video, flows_of(video)) > 0.0


def test_metric_pairs_need_two_frames_and_matching_shapes():
    one = np.zeros((1, 1, 8, 8))
    with pytest.raises(ValueError):
        tof(flows_of(one), flows_of(one))
    with pytest.raises(ValueError):
        tlp(one, one)
    with pytest.raises(ValueError):
        warping_error(one, flows_of(one))
    a = np.zeros((3, 1, 8, 8))
    b = np.zeros((3, 1, 8, 9))
    with pytest.raises(ValueError):
        tof(flows_of(a), flows_of(b))
