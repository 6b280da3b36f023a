"""Guidance combinators, the suppression-strength schedule, and the masked
blur that builds self-attention guidance's input.

Every combinator is the same affine update, base + (1 + s) * (target - base),
applied to different (base, target) noise-estimate pairs:

  classifier-free:     base = unconditional,        target = conditional
  self-attention:      base = on blurred input,     target = conditional
  perturbed-attention: base = identity-perturbed,   target = normal
  detail-suppressed:   base = gamma-tempered,       target = normal or cond
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .quality import gaussian_blur


class Branch(NamedTuple):
    """One denoiser pass of a guidance mode."""

    conditional: bool = False
    tempered: bool = False  # attention scores tempered by the step's gamma_t
    identity: bool = False  # identity attention in the hooked layers
    blurred: bool = False  # input blurred where branch 0 attends most (`sag_input`)


# The passes of every mode, in run order; the last is the target. The guided
# estimate is combine(b[-2], b[-1]) (b[0] alone for one branch); a row whose
# first branch is identity-perturbed (pag) adds combine(b[0], b[1]) - b[1].
# Branch 0 collects its attention map when a later branch is blurred.
GUIDANCE_BRANCHES = {
    "none": (Branch(conditional=True),),
    "cfg": (Branch(), Branch(conditional=True)),
    "sag": (Branch(), Branch(blurred=True), Branch(conditional=True)),
    "pag": (Branch(identity=True), Branch(), Branch(conditional=True)),
    "dssag": (Branch(tempered=True), Branch()),
    "cfg_dssag": (Branch(tempered=True), Branch(conditional=True)),
}
GUIDANCE_MODES = tuple(GUIDANCE_BRANCHES)


@dataclass
class GuidanceConfig:
    mode: str = "cfg_dssag"
    scale: float = 1.0
    rho: float = 0.5
    sag_blur_sigma: float = 2.0
    sag_mask_quantile: float = 0.5

    def __post_init__(self):
        if self.mode not in GUIDANCE_MODES:
            raise ValueError(f"unknown guidance mode {self.mode!r}, expected one of {GUIDANCE_MODES}")
        if not np.isfinite(self.scale):
            raise ValueError("guidance scale must be finite")
        if self.rho <= 0:
            raise ValueError(f"rho must be > 0, got {self.rho}")
        if self.sag_blur_sigma < 0:
            raise ValueError(f"sag_blur_sigma must be >= 0, got {self.sag_blur_sigma}")
        if not 0.0 < self.sag_mask_quantile <= 1.0:
            raise ValueError(
                f"sag_mask_quantile must be in (0, 1], got {self.sag_mask_quantile}"
            )


def combine(eps_base: np.ndarray, eps_target: np.ndarray, scale: float) -> np.ndarray:
    """base + (1 + scale) * (target - base). scale = -1 gives base, 0 target."""
    eps_base = np.asarray(eps_base, dtype=np.float64)
    eps_target = np.asarray(eps_target, dtype=np.float64)
    if eps_base.shape != eps_target.shape:
        raise ValueError(f"shape mismatch: {eps_base.shape} vs {eps_target.shape}")
    # limiting scales return the operand itself so callers can rely on
    # bit-exact reductions instead of base + (target - base) rounding
    if scale == -1.0:
        return eps_base.copy()
    if scale == 0.0:
        return eps_target.copy()
    return eps_base + (1.0 + scale) * (eps_target - eps_base)


def gamma_schedule(sigma_t: float, sigma_start: float, sigma_end: float, rho: float = 0.5) -> float:
    """Suppression strength ((ln s_t - ln s_end) / (ln s_start - ln s_end)) ** rho.

    1 at sigma_start, 0 at sigma_end, monotone in between; rho < 1 front-loads
    the suppression toward the high-noise end.
    """
    if rho <= 0:
        raise ValueError(f"rho must be > 0, got {rho}")
    if not (sigma_start > sigma_end > 0):
        raise ValueError(
            f"need sigma_start > sigma_end > 0, got start={sigma_start} end={sigma_end}"
        )
    if not (sigma_end <= sigma_t <= sigma_start):
        raise ValueError(
            f"sigma_t={sigma_t} outside [{sigma_end}, {sigma_start}]"
        )
    ratio = (np.log(sigma_t) - np.log(sigma_end)) / (np.log(sigma_start) - np.log(sigma_end))
    return float(ratio ** rho)


def sag_input(x_t: np.ndarray, eps: np.ndarray, attention: np.ndarray, sigma: float,
              cfg_: GuidanceConfig) -> np.ndarray:
    """Self-attention guidance's input: x_t with its denoised estimate blurred
    where the attention map is high.

    eps is the noise estimate of x_t and attention its (frames, h, w) map
    aligned with x_t. Tokens above the map's sag_mask_quantile form the mask;
    inside it the denoised estimate x0 = x_t - sigma * eps is blurred and
    re-noised. Guidance then steers from the estimate of this degraded input
    toward the target estimate.
    """
    x_t = np.asarray(x_t, dtype=np.float64)
    if sigma <= 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    eps = np.asarray(eps, dtype=np.float64)
    attention = np.asarray(attention, dtype=np.float64)
    if attention.shape != (x_t.shape[0],) + x_t.shape[2:]:
        raise ValueError(
            f"attention map shape {attention.shape} does not match frames/space of {x_t.shape}"
        )
    threshold = np.quantile(attention, cfg_.sag_mask_quantile)
    mask = (attention > threshold)[:, None, :, :]

    x0 = x_t - sigma * eps
    # x_t + mask * (blur(x0) - x0): identical to blurring x0 under the mask
    # and re-noising, but degenerate blur/mask leave x_t bit-exact
    return x_t + mask * (gaussian_blur(x0, cfg_.sag_blur_sigma) - x0)
