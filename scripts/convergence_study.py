#!/usr/bin/env python3
"""Euler-step convergence of the tile sampler against the closed-form ODE.

Runs the full tiled pipeline with an analytic Gaussian denoiser, for which
the probability-flow trajectory has an exact solution, and reports the worst
per-element trajectory error (relative to the starting noise magnitude) as
the step count grows. The error should shrink roughly like 1/T.

Example:
    python3 scripts/convergence_study.py --steps 10 25 50 100 200 400
"""
from __future__ import annotations

import argparse

import numpy as np

from tilevsr.guidance import GuidanceConfig
from tilevsr.models import AnalyticGaussianDenoiser, ToyCodec
from tilevsr.sampler import PipelineConfig, sample_video


def trajectory_error(
    steps: int,
    size: int,
    sigma_max: float,
    sigma_min: float,
    sigma_data: float,
    exponent: float,
    seed: int,
) -> tuple[float, float]:
    """(max relative error, output variance) for one step count."""
    denoiser = AnalyticGaussianDenoiser(mu=0.0, sigma_data=sigma_data)
    cfg = PipelineConfig(
        steps=steps,
        tile_frames=2,
        tile_h=max(size, 1),
        tile_w=max(size, 1),
        sap=False,
        tap=False,
        guidance=GuidanceConfig(mode="none"),
        seed=seed,
        sigma_min=sigma_min,
        sigma_max=sigma_max,
        schedule_exponent=exponent,
        upscale_factor=1,
    )
    lr = np.zeros((1, 1, size, size))
    result = sample_video(lr, denoiser, ToyCodec(1), cfg)

    x_start = np.random.default_rng(seed).standard_normal((1, 1, size, size)) * sigma_max
    closed = denoiser.closed_form(x_start, sigma_max, sigma_min)
    rel = float(np.max(np.abs(result.video - closed))) / float(np.max(np.abs(x_start)))
    return rel, float(result.video.var())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, nargs="+",
                        default=[5, 10, 25, 50, 100, 200, 400])
    parser.add_argument("--size", type=int, default=100, help="latent edge length")
    parser.add_argument("--sigma-max", type=float, default=15.0)
    parser.add_argument("--sigma-min", type=float, default=0.0625)
    parser.add_argument("--sigma-data", type=float, default=0.5)
    parser.add_argument("--exponent", type=float, default=9.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    print(f"# closed-form tracking, sigma {args.sigma_max} -> {args.sigma_min}, "
          f"exponent {args.exponent}, {args.size}x{args.size} samples")
    print(f"{'steps':>6}  {'max rel err':>12}  {'err * steps':>12}  {'variance':>10}")
    previous = None
    for steps in args.steps:
        rel, variance = trajectory_error(
            steps, args.size, args.sigma_max, args.sigma_min,
            args.sigma_data, args.exponent, args.seed,
        )
        note = ""
        if previous is not None and rel > 0:
            note = f"  (x{previous / rel:.2f} better)"
        print(f"{steps:>6}  {rel:>12.3e}  {rel * steps:>12.3e}  {variance:>10.5f}{note}")
        previous = rel
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
