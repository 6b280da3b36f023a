"""Synthetic degradation and restoration-quality metrics.

Filters operate on the last two axes, so the same code serves frames
(C, h, w) and whole videos (frames, C, h, w). Values are treated as
intensities in [0, 1] where a range matters (PSNR, SSIM, quantization).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tiles import in_range, validate_video


# ---------------------------------------------------------------------------
# filters

def _conv1d_clamped(arr: np.ndarray, kernel: np.ndarray, axis: int) -> np.ndarray:
    """Correlate along one axis with edge-clamped sampling."""
    n = arr.shape[axis]
    radius = len(kernel) // 2
    idx = np.arange(n)
    out = np.zeros_like(arr, dtype=np.float64)
    for j, w in enumerate(kernel):
        src = np.clip(idx + (j - radius), 0, n - 1)
        out += w * np.take(arr, src, axis=axis)
    return out


def gaussian_blur(arr: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian blur of the last two axes. sigma = 0 is the identity."""
    in_range("sigma", sigma, ge=0)
    arr = np.asarray(arr, dtype=np.float64)
    if sigma == 0:
        return arr.copy()
    radius = max(1, int(np.ceil(3.0 * sigma)))
    t = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-(t * t) / (2.0 * sigma * sigma))
    kernel /= kernel.sum()
    out = _conv1d_clamped(arr, kernel, axis=-1)
    return _conv1d_clamped(out, kernel, axis=-2)


def _catmull_rom_weights(t: np.ndarray) -> np.ndarray:
    """Weights for taps at offsets (-1, 0, 1, 2) around the base sample."""
    w = np.empty(t.shape + (4,), dtype=np.float64)
    for i, s in enumerate((-1.0, 0.0, 1.0, 2.0)):
        u = np.abs(t - s)
        near = (1.5 * u - 2.5) * u * u + 1.0
        far = ((-0.5 * u + 2.5) * u - 4.0) * u + 2.0
        w[..., i] = np.where(u <= 1.0, near, np.where(u < 2.0, far, 0.0))
    return w


def _resample_axis(arr: np.ndarray, out_n: int, scale: float, axis: int) -> np.ndarray:
    moved = np.moveaxis(arr, axis, -1)
    n = moved.shape[-1]
    src = (np.arange(out_n, dtype=np.float64) + 0.5) / scale - 0.5
    base = np.floor(src).astype(np.int64)
    weights = _catmull_rom_weights(src - base)
    taps = np.clip(base[:, None] + np.array([-1, 0, 1, 2]), 0, n - 1)
    gathered = moved[..., taps]  # (..., out_n, 4)
    out = (gathered * weights).sum(axis=-1)
    return np.moveaxis(out, -1, axis)


def bicubic_resize(arr: np.ndarray, scale: float) -> np.ndarray:
    """Catmull-Rom (a = -0.5) resampling of the last two axes.

    Sample positions are center-aligned, out-of-range taps clamp to the edge.
    Output extents are round(extent * scale), at least 1.
    """
    in_range("scale", scale, gt=0)
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim < 2:
        raise ValueError("need at least 2 axes to resize")
    out_h = max(1, int(round(arr.shape[-2] * scale)))
    out_w = max(1, int(round(arr.shape[-1] * scale)))
    out = _resample_axis(arr, out_w, scale, axis=-1)
    return _resample_axis(out, out_h, scale, axis=-2)


# ---------------------------------------------------------------------------
# degradation

@dataclass
class DegradationConfig:
    blur_sigma: float = 1.5
    down_factor: int = 4
    noise_sigma: float = 0.02
    quant_levels: int = 256
    seed: int = 0

    def __post_init__(self):
        in_range("blur_sigma", self.blur_sigma, ge=0)
        in_range("noise_sigma", self.noise_sigma, ge=0)
        self.down_factor = int(in_range("down_factor", self.down_factor, ge=1))
        self.quant_levels = int(in_range("quant_levels", self.quant_levels, ge=2))


def quantize(arr: np.ndarray, levels: int) -> np.ndarray:
    """Uniform quantization of [0, 1] values; halves round away from zero."""
    steps = in_range("quant_levels", levels, ge=2) - 1
    return np.floor(np.asarray(arr, dtype=np.float64) * steps + 0.5) / steps


def degrade(video: np.ndarray, cfg: DegradationConfig) -> np.ndarray:
    """Blur -> bicubic downscale -> seeded noise (clamped) -> quantize."""
    x = validate_video(video).astype(np.float64)
    if cfg.blur_sigma > 0:
        x = gaussian_blur(x, cfg.blur_sigma)
    if cfg.down_factor > 1:
        x = bicubic_resize(x, 1.0 / cfg.down_factor)
    if cfg.noise_sigma > 0:
        rng = np.random.default_rng(cfg.seed)
        x = x + rng.normal(0.0, cfg.noise_sigma, size=x.shape)
    x = np.clip(x, 0.0, 1.0)
    return quantize(x, cfg.quant_levels)


# ---------------------------------------------------------------------------
# metrics

def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """Peak signal-to-noise ratio against a unit dynamic range, capped at 99 dB."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("psnr needs finite inputs, got non-finite values")
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return 99.0
    return min(99.0, -10.0 * np.log10(mse))


def _ssim_frame(a: np.ndarray, b: np.ndarray, window: int, c1: float, c2: float) -> float:
    win = min(window, a.shape[0], a.shape[1])

    def window_mean(plane: np.ndarray) -> np.ndarray:
        return sliding_window_view(plane, (win, win)).mean(axis=(-2, -1))

    # window means of whole-plane products: the same per-window values as
    # multiplying window copies, without materialising win*win copies of the plane
    mu_a = window_mean(a)
    mu_b = window_mean(b)
    var_a = window_mean(a * a) - mu_a * mu_a
    var_b = window_mean(b * b) - mu_b * mu_b
    cov = window_mean(a * b) - mu_a * mu_b
    num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
    den = (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    return float(np.mean(num / den))


def ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Mean structural similarity over sliding uniform windows (unit range)."""
    a = validate_video(np.asarray(a, dtype=np.float64))
    b = validate_video(np.asarray(b, dtype=np.float64))
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    vals = [
        _ssim_frame(a[f, c], b[f, c], 8, 0.01 ** 2, 0.03 ** 2)
        for f in range(a.shape[0])
        for c in range(a.shape[1])
    ]
    return float(np.mean(vals))


def _as_frame(frame: np.ndarray) -> np.ndarray:
    frame = np.asarray(frame, dtype=np.float64)
    if frame.ndim == 2:
        frame = frame[None]
    if frame.ndim != 3:
        raise ValueError(f"expected (C, h, w) or (h, w) frame, got shape {frame.shape}")
    return frame


def check_flow_window(block: int, radius: int) -> None:
    """block_match_flow's block and search-radius checks."""
    if block < 1 or radius < 0:
        raise ValueError(f"bad block {block} or radius {radius}")


def _block_starts(extent: int, block: int) -> np.ndarray:
    """Block offsets along one axis: stride `block`, last block clamped to the edge."""
    starts = list(range(0, extent - block + 1, block))
    if starts[-1] != extent - block:
        starts.append(extent - block)
    return np.asarray(starts)


def block_match_flow(f1: np.ndarray, f2: np.ndarray, block: int = 8, radius: int = 4) -> np.ndarray:
    """Integer per-pixel flow (2, h, w) by exhaustive block matching.

    Every (block x block) block of f1 gets the displacement into f2 with the
    smallest sum of absolute differences; candidates keep the window in
    bounds. Ties resolve to the smallest displacement magnitude, then
    lexicographically by (dy, dx). All pixels of a block share its flow;
    where the clamped last block overlaps its neighbour, the last block's
    flow wins.

    All blocks are scored against one candidate at a time. Each block's SAD
    is the pairwise sum of its contiguous (C, block, block) differences, the
    same sum `.sum()` takes over one block, so ties break on identical bits.
    """
    f1 = _as_frame(f1)
    f2 = _as_frame(f2)
    if f1.shape != f2.shape:
        raise ValueError(f"shape mismatch: {f1.shape} vs {f2.shape}")
    check_flow_window(block, radius)
    c, h, w = f1.shape
    if h < block or w < block:
        raise ValueError(f"frame {h}x{w} smaller than block {block}")
    if not (np.all(np.isfinite(f1)) and np.all(np.isfinite(f2))):
        raise ValueError("block matching needs finite frames, got non-finite values")

    candidates = sorted(
        ((dy, dx) for dy in range(-radius, radius + 1) for dx in range(-radius, radius + 1)),
        key=lambda d: (d[0] * d[0] + d[1] * d[1], d[0], d[1]),
    )
    starts_y = _block_starts(h, block)
    starts_x = _block_starts(w, block)
    # (positions_y, positions_x, C, block, block) views of every window
    win1 = sliding_window_view(f1, (block, block), axis=(1, 2)).transpose(1, 2, 0, 3, 4)
    win2 = sliding_window_view(f2, (block, block), axis=(1, 2)).transpose(1, 2, 0, 3, 4)
    ref = win1[starts_y[:, None], starts_x[None, :]]  # contiguous (ny, nx, C, block, block)

    shape = (len(starts_y), len(starts_x))
    best_sad = np.full(shape, np.inf)
    best = np.zeros((2,) + shape, dtype=np.int64)
    for dy, dx in candidates:
        # blocks whose displaced window stays inside the frame: one row range, one column range
        ys = slice(np.searchsorted(starts_y, -dy), np.searchsorted(starts_y, h - block - dy, "right"))
        xs = slice(np.searchsorted(starts_x, -dx), np.searchsorted(starts_x, w - block - dx, "right"))
        target = win2[starts_y[ys, None] + dy, starts_x[None, xs] + dx]
        diff = np.subtract(ref[ys, xs], target, out=target)
        sad = np.abs(diff, out=diff).reshape(diff.shape[:2] + (c * block * block,)).sum(-1)
        better = sad < best_sad[ys, xs]
        best_sad[ys, xs][better] = sad[better]
        best[0, ys, xs][better] = dy
        best[1, ys, xs][better] = dx

    # each pixel takes the last block starting at or before it, which covers it
    iy = np.searchsorted(starts_y, np.arange(h), "right") - 1
    ix = np.searchsorted(starts_x, np.arange(w), "right") - 1
    return best[:, iy[:, None], ix[None, :]]


def warp_frame(frame: np.ndarray, flow: np.ndarray) -> np.ndarray:
    """Backward-sample a frame along a flow field, bilinear with edge clamp."""
    frame = _as_frame(frame)
    flow = np.asarray(flow, dtype=np.float64)
    _, h, w = frame.shape
    if flow.shape != (2, h, w):
        raise ValueError(f"flow shape {flow.shape} does not match frame ({h}, {w})")
    yy, xx = np.meshgrid(np.arange(h, dtype=np.float64), np.arange(w, dtype=np.float64), indexing="ij")
    sy = np.clip(yy - flow[0], 0.0, h - 1.0)
    sx = np.clip(xx - flow[1], 0.0, w - 1.0)
    y0 = np.floor(sy).astype(np.int64)
    x0 = np.floor(sx).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = sy - y0
    fx = sx - x0
    out = (
        frame[:, y0, x0] * (1 - fy) * (1 - fx)
        + frame[:, y1, x0] * fy * (1 - fx)
        + frame[:, y0, x1] * (1 - fy) * fx
        + frame[:, y1, x1] * fy * fx
    )
    return out


def _check_pair(gt: np.ndarray, restored: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    gt = validate_video(np.asarray(gt, dtype=np.float64), "gt")
    restored = validate_video(np.asarray(restored, dtype=np.float64), "restored")
    if gt.shape != restored.shape:
        raise ValueError(f"shape mismatch: gt {gt.shape} vs restored {restored.shape}")
    if gt.shape[0] < 2:
        raise ValueError("temporal metrics need at least 2 frames")
    return gt, restored


def frame_flows(video: np.ndarray, flow_fn=None) -> list[np.ndarray]:
    """float64 flow from each frame of a video to its successor, one flow_fn
    call per pair; entry i belongs to the pair (i, i + 1)."""
    flow_fn = flow_fn or block_match_flow
    return [
        np.asarray(flow_fn(video[i], video[i + 1]), dtype=np.float64)
        for i in range(video.shape[0] - 1)
    ]


def tof(gt: np.ndarray, restored: np.ndarray, flow_fn=None,
        gt_flows: list | None = None, restored_flows: list | None = None) -> float:
    """Temporal flow consistency: mean per-pixel L1 gap between the motion of
    consecutive restored frames and the motion of the ground truth.

    gt_flows / restored_flows take flows already computed by frame_flows;
    the ones not given are computed here with flow_fn."""
    gt, restored = _check_pair(gt, restored)
    if gt_flows is None:
        gt_flows = frame_flows(gt, flow_fn)
    if restored_flows is None:
        restored_flows = frame_flows(restored, flow_fn)
    if not len(gt_flows) == len(restored_flows) == gt.shape[0] - 1:
        raise ValueError(f"need {gt.shape[0] - 1} flows per video, got "
                         f"{len(gt_flows)} gt and {len(restored_flows)} restored")
    gaps = [
        float(np.abs(flow_r - flow_g).sum(axis=0).mean())
        for flow_r, flow_g in zip(restored_flows, gt_flows)
    ]
    return float(np.mean(gaps))


def tlp(gt: np.ndarray, restored: np.ndarray) -> float:
    """Temporal perceptual-gap consistency: the gap between the mean absolute
    difference of consecutive restored frames and of consecutive ground-truth
    frames, averaged over frame pairs."""
    gt, restored = _check_pair(gt, restored)
    gaps = []
    for i in range(1, gt.shape[0]):
        d_r = float(np.abs(restored[i - 1] - restored[i]).mean())
        d_g = float(np.abs(gt[i - 1] - gt[i]).mean())
        gaps.append(abs(d_r - d_g))
    return float(np.mean(gaps))


def warping_error(video: np.ndarray, flows: list | None = None) -> float:
    """Mean absolute residual after warping each frame onto its successor.

    flows takes the video's flows already computed by frame_flows; without
    it they are computed here with block_match_flow."""
    video = validate_video(np.asarray(video, dtype=np.float64))
    if video.shape[0] < 2:
        raise ValueError("warping error needs at least 2 frames")
    if flows is None:
        flows = frame_flows(video)
    if len(flows) != video.shape[0] - 1:
        raise ValueError(f"need {video.shape[0] - 1} flows, got {len(flows)}")
    errs = []
    for i, flow in enumerate(flows):
        warped = warp_frame(video[i], flow)
        errs.append(float(np.abs(warped - video[i + 1]).mean()))
    return float(np.mean(errs))
