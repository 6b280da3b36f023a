"""Tile-based diffusion video upscaling with cross-tile attention propagation."""

from .attention import InjectedKV
from .config import RunConfig, echo_lines, resolve_config
from .guidance import (
    GUIDANCE_MODES,
    GuidanceConfig,
    combine,
    gamma_schedule,
    sag_input,
)
from .models import (
    AnalyticGaussianDenoiser,
    DenoiseResult,
    Precondition,
    ToyAttentionDenoiser,
    ToyCodec,
    precondition,
)
from .quality import (
    DegradationConfig,
    bicubic_resize,
    block_match_flow,
    degrade,
    gaussian_blur,
    psnr,
    quantize,
    ssim,
    tlp,
    tof,
    warp_frame,
    warping_error,
)
from .sampler import (
    NumericError,
    PipelineConfig,
    RunResult,
    RunStats,
    build_sigma_schedule,
    ode_step,
    sample_video,
)

__version__ = "0.1.0"

__all__ = [
    "AnalyticGaussianDenoiser",
    "DegradationConfig",
    "DenoiseResult",
    "GUIDANCE_MODES",
    "GuidanceConfig",
    "InjectedKV",
    "NumericError",
    "PipelineConfig",
    "Precondition",
    "RunConfig",
    "RunResult",
    "RunStats",
    "ToyAttentionDenoiser",
    "ToyCodec",
    "bicubic_resize",
    "block_match_flow",
    "build_sigma_schedule",
    "combine",
    "degrade",
    "echo_lines",
    "gamma_schedule",
    "gaussian_blur",
    "ode_step",
    "precondition",
    "psnr",
    "quantize",
    "resolve_config",
    "sag_input",
    "sample_video",
    "ssim",
    "tlp",
    "tof",
    "warp_frame",
    "warping_error",
]
