"""The vectorised block matching and SSIM against their per-block and
per-window reference forms, the per-plane resampling against its
whole-array tap gather, and the blur against a tap-by-tap clamped
correlation: outputs must match bit for bit.

SSIM's window means are separable sums that follow the order of NumPy's
add reduction over each window of a window view: every window row is a
pairwise sum of its columns (one by one below 8 columns, otherwise 8 lanes
and then the tail), and the rows are added in order starting from +0.0. A
window as wide as the frame is one contiguous run, which NumPy sums as a
single pairwise sum; that case keeps the window view."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from tilevsr.quality import (
    SSIM_STRIP_ROWS, _catmull_rom_weights, _ssim_frame, bicubic_resize, block_match_flow,
    frame_flows, gaussian_blur, ssim, tof, warping_error,
)


def loop_block_match_flow(f1, f2, block=8, radius=4):
    """Reference: one block at a time, one candidate at a time."""
    f1 = np.asarray(f1, dtype=np.float64)
    f2 = np.asarray(f2, dtype=np.float64)
    if f1.ndim == 2:
        f1, f2 = f1[None], f2[None]
    _, h, w = f1.shape
    candidates = sorted(
        ((dy, dx) for dy in range(-radius, radius + 1) for dx in range(-radius, radius + 1)),
        key=lambda d: (d[0] * d[0] + d[1] * d[1], d[0], d[1]),
    )
    starts_y = list(range(0, h - block + 1, block))
    if starts_y[-1] != h - block:
        starts_y.append(h - block)
    starts_x = list(range(0, w - block + 1, block))
    if starts_x[-1] != w - block:
        starts_x.append(w - block)
    flow = np.zeros((2, h, w), dtype=np.int64)
    for by in starts_y:
        for bx in starts_x:
            ref = f1[:, by:by + block, bx:bx + block]
            best = None
            best_sad = np.inf
            for dy, dx in candidates:
                y0, x0 = by + dy, bx + dx
                if y0 < 0 or x0 < 0 or y0 + block > h or x0 + block > w:
                    continue
                sad = float(np.abs(ref - f2[:, y0:y0 + block, x0:x0 + block]).sum())
                if sad < best_sad:
                    best_sad = sad
                    best = (dy, dx)
            flow[0, by:by + block, bx:bx + block] = best[0]
            flow[1, by:by + block, bx:bx + block] = best[1]
    return flow


def window_copy_ssim_frame(a, b, window, c1, c2):
    """Reference: window statistics from products of the window copies."""
    win = min(window, a.shape[0], a.shape[1])
    wa = sliding_window_view(a, (win, win))
    wb = sliding_window_view(b, (win, win))
    mu_a = wa.mean(axis=(-2, -1))
    mu_b = wb.mean(axis=(-2, -1))
    var_a = (wa * wa).mean(axis=(-2, -1)) - mu_a * mu_a
    var_b = (wb * wb).mean(axis=(-2, -1)) - mu_b * mu_b
    cov = (wa * wb).mean(axis=(-2, -1)) - mu_a * mu_b
    num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
    den = (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    return float(np.mean(num / den))


def frame_pair(rng, kind, channels, h, w):
    """Two frames whose SADs tie often ('quantised', 'checker') or rarely."""
    shape = (channels, h, w)
    if kind == "uniform":
        return rng.uniform(0.0, 1.0, shape), rng.uniform(0.0, 1.0, shape)
    if kind == "quantised":
        return rng.integers(0, 3, shape) / 2.0, rng.integers(0, 3, shape) / 2.0
    if kind == "shifted":
        f1 = rng.uniform(0.0, 1.0, shape)
        dy, dx = (int(v) for v in rng.integers(-3, 4, 2))
        return f1, np.roll(f1, (dy, dx), axis=(1, 2)) + rng.normal(0.0, 0.01, shape)
    checker = (np.indices((h, w)).sum(axis=0) % 2).astype(np.float64)
    f1 = np.broadcast_to(checker, shape).copy()
    return f1, np.roll(f1, (1, 2), axis=(1, 2))


@settings(deadline=None, max_examples=150)
@given(
    channels=st.integers(1, 3),
    block=st.integers(1, 9),
    radius=st.integers(0, 5),
    extra_h=st.integers(0, 20),
    extra_w=st.integers(0, 20),
    kind=st.sampled_from(["uniform", "quantised", "shifted", "checker"]),
    seed=st.integers(0, 10_000),
)
@example(channels=3, block=8, radius=4, extra_h=0, extra_w=0, kind="checker", seed=0)
@example(channels=1, block=5, radius=0, extra_h=7, extra_w=3, kind="uniform", seed=1)
def test_block_match_flow_is_bit_equal_to_the_block_loop(channels, block, radius, extra_h, extra_w,
                                                         kind, seed):
    rng = np.random.default_rng(seed)
    f1, f2 = frame_pair(rng, kind, channels, block + extra_h, block + extra_w)
    got = block_match_flow(f1, f2, block=block, radius=radius)
    want = loop_block_match_flow(f1, f2, block=block, radius=radius)
    assert got.dtype == want.dtype == np.int64
    assert np.array_equal(got, want)


@pytest.mark.parametrize("h, w", [(8, 8), (8, 21), (21, 8), (12, 12)])
@pytest.mark.parametrize("radius", [0, 3])
def test_block_match_flow_edge_geometries(h, w, radius):
    """Block equal to the frame height or width, ragged trailing blocks, radius 0."""
    rng = np.random.default_rng(h * 100 + w + radius)
    f1, f2 = frame_pair(rng, "quantised", 2, h, w)
    got = block_match_flow(f1, f2, block=8, radius=radius)
    assert np.array_equal(got, loop_block_match_flow(f1, f2, block=8, radius=radius))
    if radius == 0:
        assert np.count_nonzero(got) == 0


def test_block_match_flow_trailing_block_overwrites_its_overlap():
    # 12 rows, block 8: blocks start at rows 0 and 4. Only the second block
    # can move up (dy = -1 matches it exactly); its flow wins on rows 4..7.
    rng = np.random.default_rng(3)
    f1 = rng.uniform(0.0, 1.0, (12, 8))
    f2 = np.roll(f1, -1, axis=0)
    flow = block_match_flow(f1, f2, block=8, radius=2)
    assert np.array_equal(flow, loop_block_match_flow(f1, f2, block=8, radius=2))
    assert np.all(flow[0, 4:] == -1)
    assert np.all(flow[0, :4] >= 0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("which", [0, 1])
def test_block_match_flow_rejects_non_finite_frames(bad, which):
    frames = [np.zeros((16, 16)), np.zeros((16, 16))]
    frames[which][5, 9] = bad
    with pytest.raises(ValueError, match="non-finite"):
        block_match_flow(*frames, block=8, radius=2)


@settings(deadline=None, max_examples=150)
@given(
    h=st.integers(1, 40),
    w=st.integers(1, 40),
    quantised=st.booleans(),
    seed=st.integers(0, 10_000),
)
@example(h=3, w=5, quantised=False, seed=0)  # frame smaller than the window
@example(h=1, w=1, quantised=True, seed=0)
# frame as wide as the window: each window is one contiguous run
@example(h=8, w=8, quantised=False, seed=0)
@example(h=40, w=8, quantised=False, seed=1)
# one column wider than the window: two windows per row, separable sums
@example(h=12, w=9, quantised=False, seed=2)
def test_ssim_frame_is_bit_equal_to_window_copies(h, w, quantised, seed):
    """Frames of 1 to 40 pixels a side reach every window edge from 1 to 8."""
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(0.0, 1.0, (2, h, w))
    if quantised:
        a, b = np.round(a * 4) / 4, np.round(b * 4) / 4
    c1, c2 = 0.01 ** 2, 0.03 ** 2
    assert _ssim_frame(a, b) == window_copy_ssim_frame(a, b, 8, c1, c2)


@pytest.mark.parametrize("h, w", [(3 * SSIM_STRIP_ROWS + 20, 8),
                                  (2 * SSIM_STRIP_ROWS + 7, 9),
                                  (SSIM_STRIP_ROWS + 8, 37)],
                         ids=["window-wide", "two-full-strips", "tail-strip-of-one-row"])
def test_ssim_frame_in_several_strips_is_bit_equal_to_window_copies(h, w):
    """Planes taller than one strip of output rows: the strips' statistics
    fill one map whose mean has the bits of the whole-plane computation."""
    a, b = np.random.default_rng(h + w).uniform(0.0, 1.0, (2, h, w))
    c1, c2 = 0.01 ** 2, 0.03 ** 2
    assert _ssim_frame(a, b) == window_copy_ssim_frame(a, b, 8, c1, c2)


def test_ssim_on_frames_smaller_than_the_window_uses_one_frame_sized_window():
    rng = np.random.default_rng(5)
    a = rng.uniform(0.0, 1.0, (2, 1, 4, 6))
    b = rng.uniform(0.0, 1.0, (2, 1, 4, 6))
    c1, c2 = 0.01 ** 2, 0.03 ** 2
    want = np.mean([window_copy_ssim_frame(a[f, 0], b[f, 0], 8, c1, c2) for f in range(2)])
    assert ssim(a, b) == float(want)


def pipeline_pair():
    """A ground truth and a noisy restoration in the pipeline geometry (8×3×128²)."""
    rng = np.random.default_rng(7)
    gt = rng.uniform(0.0, 1.0, (8, 3, 128, 128))
    return gt, np.clip(gt + rng.normal(0.0, 0.05, gt.shape), 0.0, 1.0)


def test_ssim_on_the_pipeline_geometry_is_bit_equal_to_window_copies():
    gt, restored = pipeline_pair()
    c1, c2 = 0.01 ** 2, 0.03 ** 2
    want = np.mean([
        window_copy_ssim_frame(gt[f, c], restored[f, c], 8, c1, c2)
        for f in range(gt.shape[0])
        for c in range(gt.shape[1])
    ])
    assert ssim(gt, restored) == float(want)


def test_ssim_is_exactly_symmetric():
    gt, restored = pipeline_pair()
    assert ssim(gt, restored) == ssim(restored, gt)


def test_precomputed_flows_give_the_same_tof_and_warping_error():
    rng = np.random.default_rng(6)
    gt = rng.uniform(0.0, 1.0, (4, 2, 16, 16))
    restored = np.roll(gt, (0, 1), axis=(2, 3)) + rng.normal(0.0, 0.02, gt.shape)
    gt_flows = frame_flows(gt, block_match_flow)
    flows = frame_flows(restored, block_match_flow)
    assert len(flows) == 3 and all(f.dtype == np.float64 for f in flows)
    # the same values from the per-block reference flows
    ref_flows = frame_flows(restored, loop_block_match_flow)
    assert tof(gt_flows, flows) == tof(frame_flows(gt, loop_block_match_flow), ref_flows)
    assert warping_error(restored, flows) == warping_error(restored, ref_flows)
    with pytest.raises(ValueError, match="flows"):
        warping_error(restored, flows[:2])
    with pytest.raises(ValueError, match="flows"):
        tof(gt_flows[:2], flows)


def gather_resample_axis(arr, out_n, scale, axis):
    """Reference: gather all four taps of every sample, weight them, sum."""
    moved = np.moveaxis(arr, axis, -1)
    n = moved.shape[-1]
    src = (np.arange(out_n, dtype=np.float64) + 0.5) / scale - 0.5
    base = np.floor(src).astype(np.int64)
    weights = _catmull_rom_weights(src - base)
    taps = np.clip(base[:, None] + np.array([-1, 0, 1, 2]), 0, n - 1)
    gathered = moved[..., taps]  # (..., out_n, 4)
    out = (gathered * weights).sum(axis=-1)
    return np.moveaxis(out, -1, axis)


def gather_bicubic_resize(arr, scale):
    out_h = max(1, int(round(arr.shape[-2] * scale)))
    out_w = max(1, int(round(arr.shape[-1] * scale)))
    return gather_resample_axis(gather_resample_axis(arr, out_w, scale, -1), out_h, scale, -2)


def filter_input(rng, lead, h, w, kind):
    """Random planes; 'signed_zeros' mixes in rows of 0.0 and columns of -0.0,
    'negative_zeros' is all -0.0."""
    x = rng.standard_normal(lead + (h, w))
    if kind == "unit":
        x = rng.uniform(0.0, 1.0, x.shape)
    elif kind == "signed_zeros":
        x[..., ::2, :] = 0.0
        x[..., 1::3] = -0.0
    elif kind == "negative_zeros":
        x[...] = -0.0
    return x


@settings(deadline=None, max_examples=150)
@given(
    lead=st.sampled_from([(), (1,), (3,), (2, 3), (2, 1, 2)]),
    h=st.integers(1, 24),
    w=st.integers(1, 24),
    scale=st.sampled_from([0.1, 0.25, 1 / 3, 0.5, 1.0, 1.7, 2.0, 3.0, 4.0]),
    kind=st.sampled_from(["normal", "unit", "signed_zeros"]),
    transposed=st.booleans(),
    seed=st.integers(0, 10_000),
)
@example(lead=(8, 3), h=32, w=32, scale=4.0, kind="unit", transposed=False, seed=0)
@example(lead=(14, 3), h=16, w=16, scale=4.0, kind="unit", transposed=False, seed=0)
# all-(-0.0) tap products: the sum starts from +0.0, so the sample is +0.0
@example(lead=(), h=6, w=2, scale=3.0, kind="signed_zeros", transposed=True, seed=0)
def test_bicubic_resize_is_bit_equal_to_the_tap_gather(lead, h, w, scale, kind, transposed, seed):
    x = filter_input(np.random.default_rng(seed), lead, h, w, kind)
    if transposed:
        x = np.swapaxes(x, -1, -2)
    got = bicubic_resize(x, scale)
    want = gather_bicubic_resize(x, scale)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def correlate_clamped(arr, kernel, axis):
    """Reference: correlate along one axis with edge-clamped sampling, adding
    each whole weighted tap w * take(arr) to a +0.0 start in tap order."""
    n = arr.shape[axis]
    radius = len(kernel) // 2
    idx = np.arange(n)
    out = np.zeros_like(arr, dtype=np.float64)
    for j, w in enumerate(kernel):
        src = np.clip(idx + (j - radius), 0, n - 1)
        out += w * np.take(arr, src, axis=axis)
    return out


def correlate_gaussian_blur(arr, sigma):
    radius = max(1, int(np.ceil(3.0 * sigma)))
    t = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-(t * t) / (2.0 * sigma * sigma))
    kernel /= kernel.sum()
    return correlate_clamped(correlate_clamped(arr, kernel, -1), kernel, -2)


@settings(deadline=None, max_examples=150)
@given(
    lead=st.sampled_from([(), (1,), (3,), (2, 3)]),
    h=st.integers(1, 24),
    w=st.integers(1, 24),
    sigma=st.one_of(st.sampled_from([0.1, 0.5, 1.0, 1.5, 3.0, 10.0]),
                    st.floats(0.01, 10.0, allow_nan=False)),
    kind=st.sampled_from(["normal", "unit", "signed_zeros", "negative_zeros"]),
    magnitude=st.sampled_from([1.0, 1e-300, 1e-310, 1e200]),  # 1e-310: subnormal values
    transposed=st.booleans(),
    seed=st.integers(0, 10_000),
)
@example(lead=(3,), h=128, w=128, sigma=1.5, kind="unit", magnitude=1.0, transposed=False, seed=0)
# all-(-0.0) taps: the sum starts from +0.0, so the sample is +0.0
@example(lead=(2,), h=5, w=3, sigma=0.5, kind="negative_zeros", magnitude=1.0, transposed=False,
         seed=0)
def test_gaussian_blur_is_bit_equal_to_the_clamped_correlation(lead, h, w, sigma, kind, magnitude,
                                                               transposed, seed):
    x = filter_input(np.random.default_rng(seed), lead, h, w, kind) * magnitude
    if transposed:
        x = np.swapaxes(x, -1, -2)
    got = gaussian_blur(x, sigma)
    want = correlate_gaussian_blur(x, sigma)
    assert got.shape == want.shape == x.shape
    assert got.tobytes() == want.tobytes()
