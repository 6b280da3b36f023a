"""Deterministic ODE sampler over spatio-temporal tiles.

The schedule, preconditioning, and Euler step follow the variance-exploding
ODE convention: a denoiser D(x; sigma) induces the probability-flow step
x_next = x + (sigma_next - sigma_cur) * (x - D) / sigma_cur.

The video pipeline interleaves the noisy latent with the encoded low-res
latent frame by frame, splits the result into overlapping tiles, and runs
one of two cross-tile attention schemes per step: spatial propagation on
even steps (global subsampled key/value aggregation across all tiles of a
temporal index) and temporal propagation on odd steps (neighbor tiles hand
selected frames' key/values along the time axis, direction alternating).
Per-tile noise estimates are guidance-combined, merged with a Gaussian
blend mask, and advanced with one Euler step.
"""
from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .attention import InjectedKV, aggregate_frame_kv, select_tap_frames, subsample_spatial_kv
from .guidance import GUIDANCE_BRANCHES, GuidanceConfig, combine, gamma_schedule, sag_input
from .quality import bicubic_resize
from .tiles import (
    Tile, deinterleave, gaussian_mask, in_range, interleave, merge, plan_tiles, split, validate_video,
)


class NumericError(RuntimeError):
    """Non-finite values showed up where the math promises finite ones."""


# ---------------------------------------------------------------------------
# schedule / preconditioning / ODE step

@dataclass(frozen=True)
class SigmaSchedule:
    """T+1 strictly descending positive noise levels."""

    sigmas: np.ndarray
    exponent: float

    def __post_init__(self):
        object.__setattr__(self, "sigmas", np.asarray(self.sigmas, dtype=np.float64))
        if self.sigmas.ndim != 1 or len(self.sigmas) < 2:
            raise ValueError("schedule needs at least 2 sigmas")
        if not np.all(self.sigmas > 0):
            raise ValueError("all sigmas must be positive")
        if not np.all(np.diff(self.sigmas) < 0):
            raise ValueError("sigmas must be strictly descending")

    @property
    def steps(self) -> int:
        return len(self.sigmas) - 1

    @property
    def sigma_max(self) -> float:
        return float(self.sigmas[0])

    @property
    def sigma_min(self) -> float:
        return float(self.sigmas[-1])


def build_sigma_schedule(
    steps: int,
    sigma_min: float = 0.002,
    sigma_max: float = 700.0,
    exponent: float = 7.0,
) -> SigmaSchedule:
    """sigma_i = (max^(1/e) + (i/T) * (min^(1/e) - max^(1/e)))^e, endpoints exact."""
    steps = int(in_range("steps", steps, ge=1))
    in_range("sigma_min", sigma_min, gt=0)
    in_range("sigma_max", sigma_max, gt=sigma_min)
    in_range("exponent", exponent, gt=0)
    ramp = np.linspace(0.0, 1.0, steps + 1)
    inv_max = sigma_max ** (1.0 / exponent)
    inv_min = sigma_min ** (1.0 / exponent)
    sigmas = (inv_max + ramp * (inv_min - inv_max)) ** exponent
    sigmas[0] = sigma_max
    sigmas[-1] = sigma_min
    return SigmaSchedule(sigmas=sigmas, exponent=float(exponent))


@dataclass(frozen=True)
class Precondition:
    c_skip: float
    c_out: float
    c_in: float
    c_noise: float


def precondition(sigma: float, sigma_data: float = 0.5) -> Precondition:
    """Scaling coefficients tying the raw network to the denoiser output."""
    in_range("sigma", sigma, gt=0)
    in_range("sigma_data", sigma_data, gt=0)
    s2 = sigma * sigma
    d2 = sigma_data * sigma_data
    return Precondition(
        c_skip=d2 / (s2 + d2),
        c_out=sigma * sigma_data / np.sqrt(s2 + d2),
        c_in=1.0 / np.sqrt(s2 + d2),
        c_noise=float(np.log(sigma)) / 4.0,
    )


def ode_step(x: np.ndarray, denoised: np.ndarray, sigma_cur: float, sigma_next: float) -> np.ndarray:
    """One Euler step of dx/dsigma = (x - D) / sigma, from sigma_cur to sigma_next."""
    x = np.asarray(x, dtype=np.float64)
    denoised = np.asarray(denoised, dtype=np.float64)
    if x.shape != denoised.shape:
        raise ValueError(f"shape mismatch: x {x.shape} vs denoised {denoised.shape}")
    in_range("sigma_cur", sigma_cur, gt=0)
    in_range("sigma_next", sigma_next, ge=0, le=sigma_cur)
    if sigma_next == sigma_cur:
        return x.copy()
    return x + (sigma_next - sigma_cur) * (x - denoised) / sigma_cur


# ---------------------------------------------------------------------------
# pipeline configuration and bookkeeping

@dataclass
class PipelineConfig:
    steps: int = 25
    tile_frames: int = 14  # counted on the interleaved frame axis
    tile_h: int = 64
    tile_w: int = 64
    sap: bool = True
    tap: bool = True
    sap_rate: int = 2
    tap_frames: int = 4  # key/value frames handed to the neighbor tile
    guidance: GuidanceConfig = field(default_factory=GuidanceConfig)
    seed: int = 0
    sigma_min: float = 0.002
    sigma_max: float = 700.0
    schedule_exponent: float = 7.0
    sigma_data: float = 0.5
    upscale_factor: int = 4
    mask_sigma_fraction: float = 0.25
    workers: int = 1
    tile_schedule: str = "ascending"

    def __post_init__(self):
        for name in ("steps", "tile_frames", "tile_h", "tile_w", "sap_rate", "tap_frames",
                     "upscale_factor", "workers"):
            setattr(self, name, int(in_range(name, getattr(self, name), ge=1)))
        for name in ("sigma_min", "schedule_exponent", "sigma_data", "mask_sigma_fraction"):
            in_range(name, getattr(self, name), gt=0)
        in_range("sigma_max", self.sigma_max, gt=self.sigma_min)
        if not isinstance(self.guidance, GuidanceConfig):
            raise ValueError("guidance must be a GuidanceConfig")
        if self.tile_schedule not in ("ascending", "descending"):
            raise ValueError(f"tile_schedule must be ascending or descending, got {self.tile_schedule!r}")


@dataclass
class RunStats:
    eps_calls: int = 0
    gather_calls: int = 0
    tile_units: int = 0  # one per tile per step
    _lock: threading.Lock = field(default_factory=threading.Lock, init=False, repr=False, compare=False)

    def increment(self, counter: str) -> None:
        """Add one to a pass counter; tile workers share one RunStats."""
        with self._lock:
            setattr(self, counter, getattr(self, counter) + 1)

    @property
    def ff_per_iter(self) -> float:
        return self.eps_calls / self.tile_units if self.tile_units else 0.0


@dataclass
class RunResult:
    video: np.ndarray
    trace: list[str]
    stats: RunStats


# ---------------------------------------------------------------------------
# the pass engine: guided noise estimates over chains of tiles

def _forward(denoiser, sigma: float, stats: RunStats, where: str, x, *, conditional=True,
             injections=None, gamma=0.0, identity=False, collect_kv=False,
             collect_attention=False, counter="eps_calls"):
    """One denoiser pass over x. Returns (noise estimate, DenoiseResult).

    `where` names the step and tile in a NumericError.
    """
    cond = denoiser.cond_vector if conditional else None
    result = denoiser.denoise(
        x, cond, sigma, injected=injections, gamma=gamma, identity=identity,
        collect_kv=collect_kv, collect_attention=collect_attention,
    )
    stats.increment(counter)
    eps = (x - result.denoised) / sigma
    if not np.all(np.isfinite(eps)):
        raise NumericError(f"non-finite noise estimate at {where}, sigma={sigma:g}")
    return eps, result


def _guided_eps(tile: Tile, injections, collect_kv: bool, denoiser, cfg: PipelineConfig,
                sigma: float, gamma_t: float, stats: RunStats, step: int):
    """Guided noise estimate of one tile, and its target branch's result.

    The branches of the mode's GUIDANCE_BRANCHES row run in order; a blurred
    branch's input is built from branch 0's estimate and attention map.
    """
    stats.increment("tile_units")
    g = cfg.guidance
    where = f"step {step}, tile {(tile.n, tile.m)}"
    branches = GUIDANCE_BRANCHES[g.mode]
    needs_map = any(branch.blurred for branch in branches)
    eps = []
    for i, branch in enumerate(branches):
        x = sag_input(tile.data, eps[0], attention, sigma, g) if branch.blurred else tile.data
        e, result = _forward(
            denoiser, sigma, stats, where, x, conditional=branch.conditional,
            injections=injections, gamma=gamma_t if branch.tempered else 0.0,
            identity=branch.identity, collect_kv=collect_kv and i == len(branches) - 1,
            collect_attention=needs_map and i == 0,
        )
        if i == 0:
            attention = result.attention
        eps.append(e)
    if len(eps) == 1:
        return eps[0], result
    guided = combine(eps[-2], eps[-1], g.scale)
    if branches[0].identity:  # pag: also guide away from the identity-perturbed branch
        guided = guided + (combine(eps[0], eps[1], g.scale) - eps[1])
    return guided, result


def _map_tiles(items: list, fn, workers: int, schedule: str) -> list:
    """fn over items in the configured order, optionally threaded.

    Results come back in item order regardless of execution order, so the
    schedule cannot change the merged output.
    """
    ordered = items[::-1] if schedule == "descending" else items
    if workers > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(fn, ordered))
    else:
        done = [fn(item) for item in ordered]
    return done[::-1] if schedule == "descending" else done


def _run_pass(chains: list[list[Tile]], inject, denoiser, cfg: PipelineConfig, sigma: float,
              gamma_t: float, stats: RunStats, step: int) -> list[Tile]:
    """Guided noise estimates of every tile of every chain, in (n, m) order.

    Chains run independently through _map_tiles; the tiles of a chain run in
    order, each with the per-layer K/V inject(tile, result) gives it, where
    result is its predecessor's target-branch DenoiseResult (None for a
    chain's first tile). A tile with a successor keeps its K/V for it.
    """
    def run_chain(chain: list[Tile]) -> list[Tile]:
        out, prev = [], None
        for i, tile in enumerate(chain, 1):
            eps, prev = _guided_eps(
                tile, inject(tile, prev), i < len(chain), denoiser, cfg, sigma, gamma_t, stats, step,
            )
            out.append(Tile(n=tile.n, m=tile.m, data=eps))
        return out

    done = _map_tiles(chains, run_chain, cfg.workers, cfg.tile_schedule)
    return sorted((tile for chain in done for tile in chain), key=lambda t: (t.n, t.m))


def _require_hooks(denoiser, scheme: str):
    if not denoiser.hook_layers:
        raise ValueError(f"{scheme} propagation needs a denoiser with hook layers")


def denoise_pass_sap(tiles: list[Tile], denoiser, cfg: PipelineConfig, sigma: float,
                     gamma_t: float, stats: RunStats, step: int = 0) -> list[Tile]:
    """Two-phase spatial propagation over every temporal group.

    Phase 1 runs each tile once to tap per-layer key/values, subsampled on a
    stride grid and aggregated over all tiles of the group (own tile
    included). Phase 2 starts only after every gather has: each tile is rerun
    with its group's aggregate injected into its hooked layers.
    """
    _require_hooks(denoiser, "spatial")
    layers = denoiser.hook_layers
    tiles = sorted(tiles, key=lambda t: (t.n, t.m))

    def gather(tile: Tile) -> dict[int, InjectedKV]:
        # only the subsampled rows outlive the task, not the full result
        _, result = _forward(
            denoiser, sigma, stats, f"step {step}, tile {(tile.n, tile.m)}", tile.data,
            collect_kv=True, counter="gather_calls",
        )
        return {
            layer: subsample_spatial_kv(result.keys[layer], result.values[layer], cfg.sap_rate)
            for layer in layers
        }

    by_n: dict[int, list[dict[int, InjectedKV]]] = {}
    for tile, parts in zip(tiles, _map_tiles(tiles, gather, cfg.workers, cfg.tile_schedule)):
        by_n.setdefault(tile.n, []).append(parts)  # ascending m
    aggregate = {
        n: {layer: aggregate_frame_kv([p[layer] for p in parts]) for layer in layers}
        for n, parts in by_n.items()
    }
    return _run_pass([[t] for t in tiles], lambda tile, _prev: aggregate[tile.n],
                     denoiser, cfg, sigma, gamma_t, stats, step)


def _tap_injections(result, l_frames: int, hook_layers) -> dict[int, InjectedKV]:
    """Per-layer K/V of the frames with the largest key spread in a neighbor tile."""
    injections = {}
    for layer in hook_layers:
        keys, values = result.keys[layer], result.values[layer]
        chosen = select_tap_frames(keys, min(l_frames, len(keys)))
        injections[layer] = InjectedKV(keys=keys[chosen].reshape(-1, keys.shape[-1]),
                                       values=values[chosen].reshape(-1, values.shape[-1]))
    return injections


def denoise_pass_tap(tiles: list[Tile], denoiser, cfg: PipelineConfig, sigma: float,
                     gamma_t: float, direction: str, stats: RunStats, step: int = 0) -> list[Tile]:
    """Sequential temporal propagation along each spatial tile column.

    Tiles are visited in temporal order (reversed when direction is
    backward); each receives the selected key/value frames tapped from its
    immediate predecessor's target-branch pass.
    """
    if direction not in ("forward", "backward"):
        raise ValueError(f"direction must be forward or backward, got {direction!r}")
    _require_hooks(denoiser, "temporal")
    columns: dict[int, list[Tile]] = {}
    for tile in sorted(tiles, key=lambda t: (t.n, t.m)):
        columns.setdefault(tile.m, []).append(tile)  # ascending n
    chains = [columns[m] if direction == "forward" else columns[m][::-1] for m in sorted(columns)]

    def inject(_tile: Tile, prev):
        if prev is None:
            return None
        return _tap_injections(prev, cfg.tap_frames, denoiser.hook_layers)

    return _run_pass(chains, inject, denoiser, cfg, sigma, gamma_t, stats, step)


def denoise_pass_plain(tiles: list[Tile], denoiser, cfg: PipelineConfig, sigma: float,
                       gamma_t: float, stats: RunStats, step: int = 0) -> list[Tile]:
    """No cross-tile propagation; guidance branches still run per tile."""
    return _run_pass([[t] for t in tiles], lambda _tile, _prev: None,
                     denoiser, cfg, sigma, gamma_t, stats, step)


# ---------------------------------------------------------------------------
# full sampling loop

def sample_video(lr_video: np.ndarray, denoiser, codec, cfg: PipelineConfig) -> RunResult:
    """Upscale a low-res video by sampling the diffusion ODE over tiles.

    Steps: bicubic-upsample the input, encode it to the conditioning latent,
    then run cfg.steps Euler steps from seeded noise. Every step interleaves
    the noisy and conditioning latents frame by frame, splits into
    half-overlapping tiles, applies the step's propagation scheme (spatial on
    even steps, temporal on odd, when enabled), guidance-combines the
    per-tile noise estimates, merges them with a Gaussian blend, and steps
    the noisy latent. The final latent is decoded at sigma_min.
    """
    lr = validate_video(lr_video, "lr_video").astype(np.float64)
    upsampled = bicubic_resize(lr, float(cfg.upscale_factor)) if cfg.upscale_factor != 1 else lr.copy()
    l = codec.encode(upsampled)
    n_frames, channels, lat_h, lat_w = l.shape

    eff_tile = (
        min(cfg.tile_frames, 2 * n_frames),
        min(cfg.tile_h, lat_h),
        min(cfg.tile_w, lat_w),
    )
    grid = plan_tiles((2 * n_frames, lat_h, lat_w), eff_tile)
    mask = gaussian_mask(eff_tile, cfg.mask_sigma_fraction)
    schedule = build_sigma_schedule(cfg.steps, cfg.sigma_min, cfg.sigma_max, cfg.schedule_exponent)

    rng = np.random.default_rng(cfg.seed)
    x = rng.standard_normal((n_frames, channels, lat_h, lat_w)) * schedule.sigma_max

    stats = RunStats()
    trace: list[str] = []
    tap_forward = True
    for step in range(cfg.steps):
        sigma = float(schedule.sigmas[step])
        sigma_next = float(schedule.sigmas[step + 1])
        gamma_t = gamma_schedule(sigma, schedule.sigma_max, schedule.sigma_min, cfg.guidance.rho)
        slot = "sap" if step % 2 == 0 else "tap"
        direction = "-"
        y = interleave(x, l)
        tiles = split(y, grid)
        if slot == "sap" and cfg.sap:
            scheme = "sap"
            eps_tiles = denoise_pass_sap(tiles, denoiser, cfg, sigma, gamma_t, stats, step)
        elif slot == "tap" and cfg.tap:
            scheme = "tap"
            direction = "forward" if tap_forward else "backward"
            eps_tiles = denoise_pass_tap(tiles, denoiser, cfg, sigma, gamma_t, direction, stats, step)
            tap_forward = not tap_forward
        else:
            scheme = "none"
            eps_tiles = denoise_pass_plain(tiles, denoiser, cfg, sigma, gamma_t, stats, step)
        eps = merge(eps_tiles, grid, mask)
        eps_x, _ = deinterleave(eps)
        denoised = x - sigma * eps_x
        x = ode_step(x, denoised, sigma, sigma_next)
        if not np.all(np.isfinite(x)):
            raise NumericError(f"non-finite latent after step {step} (sigma {sigma:g} -> {sigma_next:g})")
        trace.append(
            f"step={step:02d} sigma={sigma:.6g} gamma={gamma_t:.6f} "
            f"scheme={scheme} direction={direction} guidance={cfg.guidance.mode}"
        )
    hr = codec.decode(x)
    return RunResult(video=hr, trace=trace, stats=stats)
