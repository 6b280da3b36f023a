"""Synthetic degradation and restoration-quality metrics.

Filters operate on the last two axes, so the same code serves frames
(C, h, w) and whole videos (frames, C, h, w). Values are treated as
intensities in [0, 1] where a range matters (PSNR, SSIM, quantization).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tiles import validate_video


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
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
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
    if scale <= 0:
        raise ValueError(f"scale must be > 0, got {scale}")
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
        if self.blur_sigma < 0:
            raise ValueError(f"blur_sigma must be >= 0, got {self.blur_sigma}")
        if int(self.down_factor) < 1:
            raise ValueError(f"down_factor must be >= 1, got {self.down_factor}")
        self.down_factor = int(self.down_factor)
        if self.noise_sigma < 0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if int(self.quant_levels) < 2:
            raise ValueError(f"quant_levels must be >= 2, got {self.quant_levels}")
        self.quant_levels = int(self.quant_levels)


def quantize(arr: np.ndarray, levels: int) -> np.ndarray:
    """Uniform quantization of [0, 1] values; halves round away from zero."""
    if levels < 2:
        raise ValueError(f"quant_levels must be >= 2, got {levels}")
    steps = levels - 1
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
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return 99.0
    return min(99.0, -10.0 * np.log10(mse))


def _ssim_frame(a: np.ndarray, b: np.ndarray, window: int, c1: float, c2: float) -> float:
    from numpy.lib.stride_tricks import sliding_window_view

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


def ssim(a: np.ndarray, b: np.ndarray, window: int = 8, k1: float = 0.01, k2: float = 0.03) -> float:
    """Mean structural similarity over sliding uniform windows (unit range)."""
    a = validate_video(np.asarray(a, dtype=np.float64))
    b = validate_video(np.asarray(b, dtype=np.float64))
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    c1 = (k1 * 1.0) ** 2
    c2 = (k2 * 1.0) ** 2
    vals = [
        _ssim_frame(a[f, c], b[f, c], window, c1, c2)
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


def block_match_flow(f1: np.ndarray, f2: np.ndarray, block: int = 8, radius: int = 4) -> np.ndarray:
    """Integer per-pixel flow (2, h, w) by exhaustive block matching.

    Every (block x block) block of f1 gets the displacement into f2 with the
    smallest sum of absolute differences; candidates keep the window in
    bounds. Ties resolve to the smallest displacement magnitude, then
    lexicographically by (dy, dx). All pixels of a block share its flow.
    """
    f1 = _as_frame(f1)
    f2 = _as_frame(f2)
    if f1.shape != f2.shape:
        raise ValueError(f"shape mismatch: {f1.shape} vs {f2.shape}")
    check_flow_window(block, radius)
    _, h, w = f1.shape
    if h < block or w < block:
        raise ValueError(f"frame {h}x{w} smaller than block {block}")

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


def _default_flow(f1: np.ndarray, f2: np.ndarray) -> np.ndarray:
    return block_match_flow(f1, f2, block=8, radius=4)


def _check_pair(gt: np.ndarray, restored: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    gt = validate_video(np.asarray(gt, dtype=np.float64), "gt")
    restored = validate_video(np.asarray(restored, dtype=np.float64), "restored")
    if gt.shape != restored.shape:
        raise ValueError(f"shape mismatch: gt {gt.shape} vs restored {restored.shape}")
    if gt.shape[0] < 2:
        raise ValueError("temporal metrics need at least 2 frames")
    return gt, restored


def tof(gt: np.ndarray, restored: np.ndarray, flow_fn=None) -> float:
    """Temporal flow consistency: mean per-pixel L1 gap between the motion of
    consecutive restored frames and the motion of the ground truth."""
    gt, restored = _check_pair(gt, restored)
    flow_fn = flow_fn or _default_flow
    gaps = []
    for i in range(1, gt.shape[0]):
        flow_r = np.asarray(flow_fn(restored[i - 1], restored[i]), dtype=np.float64)
        flow_g = np.asarray(flow_fn(gt[i - 1], gt[i]), dtype=np.float64)
        gaps.append(float(np.abs(flow_r - flow_g).sum(axis=0).mean()))
    return float(np.mean(gaps))


def tlp(gt: np.ndarray, restored: np.ndarray, dist_fn=None) -> float:
    """Temporal perceptual-gap consistency with a pluggable frame distance
    (default: mean absolute difference), averaged over frame pairs."""
    gt, restored = _check_pair(gt, restored)
    if dist_fn is None:
        dist_fn = lambda a, b: float(np.abs(a - b).mean())
    gaps = []
    for i in range(1, gt.shape[0]):
        d_r = float(dist_fn(restored[i - 1], restored[i]))
        d_g = float(dist_fn(gt[i - 1], gt[i]))
        gaps.append(abs(d_r - d_g))
    return float(np.mean(gaps))


def warping_error(video: np.ndarray, flow_fn=None) -> float:
    """Mean absolute residual after warping each frame onto its successor."""
    video = validate_video(np.asarray(video, dtype=np.float64))
    if video.shape[0] < 2:
        raise ValueError("warping error needs at least 2 frames")
    flow_fn = flow_fn or _default_flow
    errs = []
    for i in range(video.shape[0] - 1):
        flow = np.asarray(flow_fn(video[i], video[i + 1]), dtype=np.float64)
        warped = warp_frame(video[i], flow)
        errs.append(float(np.abs(warped - video[i + 1]).mean()))
    return float(np.mean(errs))
