"""Command-line front end.

Verbs: upscale | degrade | metrics | ablate | fixture.  Every command echoes
the fully resolved configuration (defaults included) to stdout before doing
any work, so a run log always pins down what actually ran.

Exit codes: 0 success, 2 usage or config or I/O error or out of memory,
3 numeric failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import io as tio
from .config import RunConfig, echo_lines, parse_config_text, resolve_config
from .quality import (
    block_match_flow, degrade, frame_flows, psnr, ssim, tlp, tof, warping_error,
)
from .sampler import NumericError, sample_video

GUIDANCE_TOGGLES = ("dssag", "sag", "pag")
ABLATE_TOGGLES = ("sap", "tap") + GUIDANCE_TOGGLES
FIXTURE_KINDS = ("constant", "translate", "texture")


# ---------------------------------------------------------------------------
# synthetic fixtures

def synthetic_video(
    kind: str,
    frames: int,
    channels: int,
    height: int,
    width: int,
    shift: tuple[int, int] = (1, 2),
    value: float = 0.5,
    seed: int = 0,
) -> np.ndarray:
    """Seeded test video in [0, 1), shape (frames, channels, height, width).

    constant: every sample equals `value`.
    texture: one seeded random plane repeated across frames (zero motion).
    translate: the same plane cyclically shifted by `shift` per frame, so the
    frame-to-frame displacement field is exactly `shift` away from the wrap.
    """
    if min(frames, channels, height, width) < 1:
        raise ValueError("fixture dims must all be >= 1")
    if kind == "constant":
        return np.full((frames, channels, height, width), float(value))
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.0, 1.0, size=(channels, height, width))
    if kind == "texture":
        return np.stack([base] * frames)
    if kind == "translate":
        dy, dx = int(shift[0]), int(shift[1])
        return np.stack(
            [np.roll(base, (i * dy, i * dx), axis=(1, 2)) for i in range(frames)]
        )
    raise ValueError(f"unknown fixture kind {kind!r}, expected one of {FIXTURE_KINDS}")


def parse_size(value: str) -> tuple[int, int]:
    parts = value.lower().replace("×", "x").split("x")
    if len(parts) != 2:
        raise ValueError(f"size must look like HxW, got {value!r}")
    h, w = int(parts[0]), int(parts[1])
    if h < 1 or w < 1:
        raise ValueError(f"size extents must be >= 1, got {value!r}")
    return h, w


def parse_shift(value: str) -> tuple[int, int]:
    parts = value.split(",")
    if len(parts) != 2:
        raise ValueError(f"shift must look like DY,DX, got {value!r}")
    return int(parts[0]), int(parts[1])


# ---------------------------------------------------------------------------
# shared plumbing

def _common_overrides(args: argparse.Namespace) -> dict:
    return {
        "seed": args.seed,
        "steps": args.steps,
        "tile": args.tile,
        "guidance": args.guidance,
        "scale": args.scale,
        "rho": args.rho,
        "sap_rate": args.sap_rate,
        "tap_l": args.tap_l,
    }


def _write_lines(path: str, lines: list[str]) -> None:
    tio.atomic_write_bytes(path, ("\n".join(lines) + "\n").encode("ascii"))


def _write_video(out: str, video: np.ndarray, pfm: bool) -> None:
    """Container if `out` names a .dcvt file, otherwise a frame directory
    (8-bit PPM plus a lossless .dcvt alongside, PFM on request)."""
    if out.endswith(".dcvt"):
        tio.write_tensor(out, video)
        return
    os.makedirs(out, exist_ok=True)
    tio.save_frames(out, np.clip(video, 0.0, 1.0), fmt="ppm")
    if pfm:
        tio.save_frames(out, video, fmt="pfm")
    tio.write_tensor(os.path.join(out, "video.dcvt"), video)


def _print_stats(stats) -> None:
    print(f"eps_calls={stats.eps_calls}")
    print(f"gather_calls={stats.gather_calls}")
    print(f"tile_units={stats.tile_units}")
    print(f"ff_per_iter={stats.ff_per_iter:.6g}")


# ---------------------------------------------------------------------------
# commands

def cmd_upscale(args: argparse.Namespace, cfg: RunConfig) -> int:
    video = tio.load_video(args.input)
    denoiser = cfg.build_denoiser(channels=video.shape[1])
    result = sample_video(video, denoiser, cfg.codec, cfg.pipeline)
    _write_video(args.out, result.video, args.pfm)
    trace_path = args.trace
    if trace_path is None:
        trace_path = (args.out[: -len(".dcvt")] + ".trace" if args.out.endswith(".dcvt")
                      else os.path.join(args.out, "trace.log"))
    _write_lines(trace_path, result.trace)
    _print_stats(result.stats)
    print(f"trace={trace_path}")
    return 0


def cmd_degrade(args: argparse.Namespace, cfg: RunConfig) -> int:
    video = tio.load_video(args.input)
    lr = degrade(video, cfg.degradation)
    _write_video(args.out, lr, args.pfm)
    print(f"frames={lr.shape[0]} height={lr.shape[2]} width={lr.shape[3]}")
    return 0


def _flow_fn(cfg: RunConfig):
    """block_match_flow with the config's block and radius. The name is
    looked up in this module at call time, so a wrapper installed on
    `tilevsr.cli.block_match_flow` sees every call."""
    def flow(a, b):
        return block_match_flow(a, b, block=cfg.flow_block, radius=cfg.flow_radius)

    return flow


def _metric_rows(cfg: RunConfig, restored: np.ndarray, gt: np.ndarray | None,
                 gt_flows: list[np.ndarray] | None = None) -> dict:
    """Metric rows. tof and we share the restored video's flows; gt_flows
    (from frame_flows) spares recomputing the ground truth's."""
    flow = _flow_fn(cfg)
    multi = restored.shape[0] >= 2
    flows = frame_flows(restored, flow) if multi else None
    rows: dict = {}
    if gt is not None:
        rows["psnr"] = psnr(gt, restored)
        rows["ssim"] = ssim(gt, restored)
        rows["tof"] = tof(gt, restored, flow, gt_flows=gt_flows, restored_flows=flows) if multi else "n/a"
        rows["tlp"] = tlp(gt, restored) if multi else "n/a"
    rows["we"] = warping_error(restored, flows=flows) if multi else "n/a"
    return rows


def _format_value(value) -> str:
    return value if isinstance(value, str) else f"{value:.6g}"


def cmd_metrics(args: argparse.Namespace, cfg: RunConfig) -> int:
    gt = tio.load_video(args.gt)
    restored = tio.load_video(args.restored)
    if gt.shape != restored.shape:
        raise ValueError(f"shape mismatch: gt {gt.shape} vs restored {restored.shape}")
    for key, value in _metric_rows(cfg, restored, gt).items():
        print(f"{key}={_format_value(value)}")
    return 0


def parse_variant(spec: str) -> tuple[str, dict]:
    """One ablation variant: '+'-joined toggles, or 'none' for everything off.

    Returns (canonical name, config key overrides).  At most one guidance
    toggle may appear; sap/tap toggles switch the propagation schemes.
    """
    name = spec.strip()
    toggles = [] if name in ("", "none") else name.split("+")
    seen: list[str] = []
    for toggle in toggles:
        if toggle not in ABLATE_TOGGLES:
            raise ValueError(f"unknown ablation toggle {toggle!r}, expected among {ABLATE_TOGGLES}")
        if toggle in seen:
            raise ValueError(f"duplicate ablation toggle {toggle!r} in {spec!r}")
        seen.append(toggle)
    modes = [t for t in seen if t in GUIDANCE_TOGGLES]
    if len(modes) > 1:
        raise ValueError(f"conflicting guidance toggles in {spec!r}: {'+'.join(modes)}")
    overrides = {
        "sap": "sap" in seen,
        "tap": "tap" in seen,
        "guidance": modes[0] if modes else "none",
    }
    return (name or "none"), overrides


def cmd_ablate(args: argparse.Namespace, cfg: RunConfig) -> int:
    video = tio.load_video(args.input)
    gt = tio.load_video(args.gt) if args.gt else None
    # the shape sample_video returns, checked before any variant samples
    f, c, h, w = video.shape
    out_shape = (f, c, h * cfg.pipeline.upscale_factor, w * cfg.pipeline.upscale_factor)
    if gt is not None and gt.shape != out_shape:
        raise ValueError(f"gt shape {gt.shape} does not match output {out_shape}")
    denoiser = cfg.build_denoiser(channels=video.shape[1])
    variants = [v for v in (s.strip() for s in args.variants.split(",")) if v]
    if not variants:
        raise ValueError("no ablation variants given")
    # the ground truth's flows serve every variant
    gt_flows = frame_flows(gt, _flow_fn(cfg)) if gt is not None and gt.shape[0] >= 2 else None
    for spec in variants:
        name, toggles = parse_variant(spec)
        guidance = dataclasses.replace(cfg.pipeline.guidance, mode=toggles["guidance"])
        pipeline = dataclasses.replace(cfg.pipeline, sap=toggles["sap"], tap=toggles["tap"],
                                       guidance=guidance)
        result = sample_video(video, denoiser, cfg.codec, pipeline)
        if args.trace:
            _write_lines(f"{args.trace}.{name}", result.trace)
        stats = result.stats
        cells = [
            f"variant={name}",
            f"eps_calls={stats.eps_calls}",
            f"gather_calls={stats.gather_calls}",
            f"ff_per_iter={stats.ff_per_iter:.6g}",
        ]
        rows = _metric_rows(cfg, result.video, gt, gt_flows)
        cells += [f"{k}={_format_value(v)}" for k, v in rows.items()]
        print(" ".join(cells))
    return 0


# fixture spec key -> parser of its file value; each key is also a CLI flag
_FIXTURE_PARSERS = {
    "kind": str,
    "size": parse_size,
    "frames": int,
    "channels": int,
    "shift": parse_shift,
    "value": float,
}


def cmd_fixture(args: argparse.Namespace, cfg: RunConfig) -> int:
    spec = {
        "kind": "translate",
        "size": (32, 32),
        "frames": 8,
        "channels": 3,
        "shift": (1, 2),
        "value": 0.5,
    }
    raw: dict = {}
    if args.spec:
        with open(args.spec, "r", encoding="ascii") as fh:
            raw = parse_config_text(fh.read(), source=args.spec, allowed=set(_FIXTURE_PARSERS))
    for key, parse in _FIXTURE_PARSERS.items():
        if key in raw:
            spec[key] = parse(raw[key])
        if getattr(args, key) is not None:
            spec[key] = getattr(args, key)

    height, width = spec["size"]
    hr = synthetic_video(
        spec["kind"], spec["frames"], spec["channels"], height, width,
        shift=spec["shift"], value=spec["value"], seed=cfg.degradation.seed,
    )
    lr = degrade(hr, cfg.degradation)
    os.makedirs(args.out, exist_ok=True)
    tio.write_tensor(os.path.join(args.out, "hr.dcvt"), hr)
    tio.write_tensor(os.path.join(args.out, "lr.dcvt"), lr)
    for sub, vid in (("hr", hr), ("lr", lr)):
        frame_dir = os.path.join(args.out, sub)
        os.makedirs(frame_dir, exist_ok=True)
        tio.save_frames(frame_dir, np.clip(vid, 0.0, 1.0), fmt="ppm")
        if args.pfm:
            tio.save_frames(frame_dir, vid, fmt="pfm")
    spec_lines = [
        f"kind={spec['kind']}",
        f"size={height}x{width}",
        f"frames={spec['frames']}",
        f"channels={spec['channels']}",
        f"shift={spec['shift'][0]},{spec['shift'][1]}",
        f"value={spec['value']}",
    ]
    _write_lines(os.path.join(args.out, "fixture.cfg"), spec_lines)
    _write_lines(os.path.join(args.out, "run.cfg"), echo_lines(cfg))
    print(f"hr={os.path.join(args.out, 'hr.dcvt')}")
    print(f"lr={os.path.join(args.out, 'lr.dcvt')}")
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", metavar="PATH", help="key=value config file")
    sub.add_argument("--seed", type=int, metavar="N")
    sub.add_argument("--steps", type=int, metavar="N")
    sub.add_argument("--tile", metavar="HxWxF", help="tile extents, e.g. 64x64x14")
    sub.add_argument("--guidance", metavar="MODE", help="none|cfg|sag|pag|dssag|cfg_dssag")
    sub.add_argument("--scale", type=float, metavar="S", help="guidance scale")
    sub.add_argument("--rho", type=float, metavar="R", help="suppression schedule exponent")
    sub.add_argument("--sap-rate", dest="sap_rate", type=int, metavar="N")
    sub.add_argument("--tap-l", dest="tap_l", type=int, metavar="N")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tilevsr", description="Tile-based diffusion video upscaler and toolkit."
    )
    commands = parser.add_subparsers(dest="command", required=True)

    upscale = commands.add_parser("upscale", help="upscale a low-res video")
    upscale.add_argument("input", help="frame directory or .dcvt container")
    upscale.add_argument("--out", required=True, help="output directory or .dcvt path")
    upscale.add_argument("--pfm", action="store_true", help="also write float PFM frames")
    upscale.add_argument("--trace", metavar="PATH", help="step-trace path (default: beside --out)")
    _add_common(upscale)
    upscale.set_defaults(func=cmd_upscale)

    degrade_p = commands.add_parser("degrade", help="apply the degradation pipeline")
    degrade_p.add_argument("input", help="frame directory or .dcvt container")
    degrade_p.add_argument("--out", required=True, help="output directory or .dcvt path")
    degrade_p.add_argument("--pfm", action="store_true", help="also write float PFM frames")
    _add_common(degrade_p)
    degrade_p.set_defaults(func=cmd_degrade)

    metrics_p = commands.add_parser("metrics", help="compare restored video against ground truth")
    metrics_p.add_argument("gt", help="ground-truth frames or container")
    metrics_p.add_argument("restored", help="restored frames or container")
    _add_common(metrics_p)
    metrics_p.set_defaults(func=cmd_metrics)

    ablate = commands.add_parser("ablate", help="run toggle variants and report metrics")
    ablate.add_argument("input", help="low-res frames or container")
    ablate.add_argument("--gt", metavar="PATH", help="ground truth for fidelity metrics")
    ablate.add_argument(
        "--variants",
        default="sap+tap+dssag,sap+tap,none",
        metavar="CSV",
        help="comma-separated '+'-joined toggles among sap,tap,dssag,sag,pag; 'none' = all off",
    )
    ablate.add_argument("--trace", metavar="PREFIX", help="write step traces to PREFIX.<variant>")
    _add_common(ablate)
    ablate.set_defaults(func=cmd_ablate)

    fixture = commands.add_parser("fixture", help="generate synthetic test videos")
    fixture.add_argument("--out", required=True, help="output directory")
    fixture.add_argument("--spec", metavar="PATH", help="fixture spec file (key=value)")
    fixture.add_argument("--kind", choices=FIXTURE_KINDS)
    fixture.add_argument("--size", type=parse_size, metavar="HxW")
    fixture.add_argument("--frames", type=int, metavar="N")
    fixture.add_argument("--channels", type=int, metavar="N")
    fixture.add_argument("--shift", type=parse_shift, metavar="DY,DX")
    fixture.add_argument("--value", type=float, metavar="V")
    fixture.add_argument("--pfm", action="store_true", help="also write float PFM frames")
    _add_common(fixture)
    fixture.set_defaults(func=cmd_fixture)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the usage message
        return int(exc.code or 0)
    try:
        # every verb echoes the resolved config before doing any work
        cfg = resolve_config(args.config, _common_overrides(args))
        print("\n".join(["# resolved config", *echo_lines(cfg)]))
        return args.func(args, cfg)
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
