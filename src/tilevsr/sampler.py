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
from .guidance import GuidanceConfig, combine, gamma_schedule, sag
from .quality import bicubic_resize
from .tiles import Tile, deinterleave, gaussian_mask, interleave, merge, plan_tiles, split, validate_video


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
    steps = int(steps)
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if not (sigma_max > sigma_min > 0):
        raise ValueError(f"need sigma_max > sigma_min > 0, got {sigma_max}, {sigma_min}")
    if exponent <= 0:
        raise ValueError(f"schedule exponent must be > 0, got {exponent}")
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
    if sigma <= 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    if sigma_data <= 0:
        raise ValueError(f"sigma_data must be > 0, got {sigma_data}")
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
    if sigma_cur <= 0:
        raise ValueError(f"sigma_cur must be > 0, got {sigma_cur}")
    if not 0 <= sigma_next <= sigma_cur:
        raise ValueError(f"need 0 <= sigma_next <= sigma_cur, got {sigma_next} vs {sigma_cur}")
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
    tap_range: int = 1
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
        if int(self.steps) < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        self.steps = int(self.steps)
        for name in ("tile_frames", "tile_h", "tile_w"):
            if int(getattr(self, name)) < 1:
                raise ValueError(f"{name} must be >= 1")
            setattr(self, name, int(getattr(self, name)))
        if int(self.sap_rate) < 1:
            raise ValueError(f"sap_rate must be >= 1, got {self.sap_rate}")
        self.sap_rate = int(self.sap_rate)
        if int(self.tap_frames) < 1:
            raise ValueError(f"tap_frames must be >= 1, got {self.tap_frames}")
        self.tap_frames = int(self.tap_frames)
        if int(self.tap_range) != 1:
            raise ValueError("only immediate-neighbor propagation (tap_range=1) is supported")
        self.tap_range = 1
        if not isinstance(self.guidance, GuidanceConfig):
            raise ValueError("guidance must be a GuidanceConfig")
        if not (self.sigma_max > self.sigma_min > 0):
            raise ValueError("need sigma_max > sigma_min > 0")
        if self.schedule_exponent <= 0:
            raise ValueError("schedule_exponent must be > 0")
        if self.sigma_data <= 0:
            raise ValueError("sigma_data must be > 0")
        if int(self.upscale_factor) < 1:
            raise ValueError("upscale_factor must be >= 1")
        self.upscale_factor = int(self.upscale_factor)
        if self.mask_sigma_fraction <= 0:
            raise ValueError("mask_sigma_fraction must be > 0")
        if int(self.workers) < 1:
            raise ValueError("workers must be >= 1")
        self.workers = int(self.workers)
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
# per-tile guided noise estimate

def _hook_layers(denoiser) -> tuple[int, ...]:
    return tuple(getattr(denoiser, "hook_layers", ()) or ())


def _build_hooks(denoiser, injections, gamma, identity):
    from .models import LayerHook  # hook container lives with the denoisers

    layers = _hook_layers(denoiser)
    if injections is None and gamma == 0.0 and not identity:
        return None
    hooks = {}
    for layer in layers:
        inj = injections.get(layer) if injections else None
        hooks[layer] = LayerHook(injected=inj, gamma=gamma, identity=identity)
    return hooks


def _upsampled_attention(result, denoiser) -> np.ndarray:
    """Mean received-attention per token across hooked layers, expanded to
    latent resolution by patch replication. Shape (frames, h, w)."""
    layers = _hook_layers(denoiser)
    if not layers:
        raise ValueError("attention-map guidance needs a denoiser with hook layers")
    maps = [result.attn_scores[layer] for layer in layers]
    mean_map = np.mean(maps, axis=0)  # (frames, gh, gw)
    patch = int(getattr(denoiser, "patch_size", 1))
    return np.repeat(np.repeat(mean_map, patch, axis=-2), patch, axis=-1)


class _TileRunner:
    """Runs guidance branches for one tile payload, sharing injected K/V."""

    def __init__(self, denoiser, sigma, gamma_t, cfg: PipelineConfig, stats: RunStats, step: int, key):
        self.denoiser = denoiser
        self.sigma = sigma
        self.gamma_t = gamma_t
        self.cfg = cfg
        self.stats = stats
        self.step = step
        self.key = key  # (n, m) for diagnostics

    def _run(self, x, *, conditional, injections=None, gamma=0.0, identity=False,
             collect_kv=False, collect_attention=False, purpose="eps"):
        hooks = _build_hooks(self.denoiser, injections, gamma, identity)
        cond = getattr(self.denoiser, "cond_vector", None) if conditional else None
        result = self.denoiser.denoise(
            x, cond, self.sigma, hooks=hooks,
            collect_kv=collect_kv, collect_attention=collect_attention,
        )
        self.stats.increment("eps_calls" if purpose == "eps" else "gather_calls")
        eps = (x - result.denoised) / self.sigma
        if not np.all(np.isfinite(eps)):
            raise NumericError(
                f"non-finite noise estimate at step {self.step}, tile {self.key}, sigma={self.sigma:g}"
            )
        return eps, result

    def gather(self, payload) -> "object":
        """Phase-1 pass: conditional, no hooks, taps only."""
        _, result = self._run(payload, conditional=True, collect_kv=True, purpose="gather")
        return result

    def guided_eps(self, payload, injections, collect_kv=False):
        """Guided noise estimate for one tile. Returns (eps, target_result)."""
        g = self.cfg.guidance
        mode = g.mode
        self.stats.increment("tile_units")
        run = self._run
        if mode == "none":
            eps, res = run(payload, conditional=True, injections=injections, collect_kv=collect_kv)
            return eps, res
        if mode == "cfg":
            base, _ = run(payload, conditional=False, injections=injections)
            target, res = run(payload, conditional=True, injections=injections, collect_kv=collect_kv)
            return combine(base, target, g.scale), res
        if mode == "dssag":
            base, _ = run(payload, conditional=False, injections=injections, gamma=self.gamma_t)
            target, res = run(payload, conditional=False, injections=injections, collect_kv=collect_kv)
            return combine(base, target, g.scale), res
        if mode == "cfg_dssag":
            base, _ = run(payload, conditional=False, injections=injections, gamma=self.gamma_t)
            target, res = run(payload, conditional=True, injections=injections, collect_kv=collect_kv)
            return combine(base, target, g.scale), res
        if mode == "pag":
            perturbed, _ = run(payload, conditional=False, injections=injections, identity=True)
            uncond, _ = run(payload, conditional=False, injections=injections)
            cond, res = run(payload, conditional=True, injections=injections, collect_kv=collect_kv)
            guided = combine(uncond, cond, g.scale) + (combine(perturbed, uncond, g.scale) - uncond)
            return guided, res
        if mode == "sag":
            recorded = {}

            def run_eps(x, collect_attention, conditional):
                eps, res = run(
                    x, conditional=conditional, injections=injections,
                    collect_kv=conditional and collect_kv,
                    collect_attention=collect_attention,
                )
                if conditional:
                    recorded["res"] = res
                if collect_attention:
                    return eps, _upsampled_attention(res, self.denoiser)
                return eps

            guided = sag(run_eps, payload, self.sigma, g, conditional=True)
            return guided, recorded["res"]
        raise ValueError(f"unhandled guidance mode {mode!r}")


def _require_hooks(denoiser, scheme: str):
    if not _hook_layers(denoiser):
        raise ValueError(f"{scheme} propagation needs a denoiser with hook layers")


def _token_grid(result) -> tuple[int, int, int]:
    return tuple(int(v) for v in result.token_grid)


def _map_tiles(items, fn, workers: int, schedule: str):
    """Apply fn over items in the configured order, optionally threaded.

    Results are returned keyed by item regardless of execution order, so the
    schedule cannot change the merged output.
    """
    ordered = list(items)
    if schedule == "descending":
        ordered = ordered[::-1]
    if workers > 1 and len(ordered) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(fn, ordered))
        return dict(zip(ordered, results))
    return {item: fn(item) for item in ordered}


def denoise_pass_sap(tiles: list[Tile], denoiser, cfg: PipelineConfig, sigma: float,
                     gamma_t: float, stats: RunStats, step: int = 0) -> list[Tile]:
    """Two-phase spatial propagation over every temporal group.

    Phase 1 runs each tile once to tap per-layer key/values, subsampled on a
    stride grid and aggregated over all tiles of the group (own tile
    included). Phase 2 completes only after every gather has: each tile is
    rerun with the group aggregate injected into its hooked layers.
    """
    _require_hooks(denoiser, "spatial")
    by_n: dict[int, list[Tile]] = {}
    for tile in tiles:
        by_n.setdefault(tile.n, []).append(tile)
    out: list[Tile] = []
    for n in sorted(by_n):
        group = sorted(by_n[n], key=lambda t: t.m)
        runner = {t.m: _TileRunner(denoiser, sigma, gamma_t, cfg, stats, step, (n, t.m)) for t in group}
        # phase 1: gather (barrier before any injection pass)
        gathered = {t.m: runner[t.m].gather(t.data) for t in group}
        parts: dict[int, list[InjectedKV]] = {}
        for t in group:  # ascending m
            res = gathered[t.m]
            grid_dims = _token_grid(res)
            for layer in _hook_layers(denoiser):
                part = subsample_spatial_kv(res.keys[layer], res.values[layer], cfg.sap_rate, grid_dims)
                parts.setdefault(layer, []).append(part)
        injections = {layer: aggregate_frame_kv(p) for layer, p in parts.items()}
        # phase 2: independent per tile
        eps_by_m = _map_tiles(
            [t.m for t in group],
            lambda m, _g={t.m: t for t in group}: runner[m].guided_eps(_g[m].data, injections)[0],
            cfg.workers,
            cfg.tile_schedule,
        )
        out.extend(Tile(n=n, m=m, data=eps_by_m[m]) for m in sorted(eps_by_m))
    return out


def _tap_injections(result, direction: str, l_frames: int, hook_layers) -> dict[int, InjectedKV]:
    """Per-layer K/V of the frames with the largest key spread in a neighbor tile."""
    tag = "tap-forward" if direction == "forward" else "tap-backward"
    frames, gh, gw = _token_grid(result)
    per_frame = gh * gw
    injections = {}
    for layer in hook_layers:
        keys = result.keys[layer]
        values = result.values[layer]
        keys_by_frame = [keys[f * per_frame:(f + 1) * per_frame] for f in range(frames)]
        chosen = select_tap_frames(keys_by_frame, min(l_frames, frames))
        rows = np.concatenate([np.arange(f * per_frame, (f + 1) * per_frame) for f in chosen])
        injections[layer] = InjectedKV(keys=keys[rows], values=values[rows], tag=tag)
    return injections


def denoise_pass_tap(tiles: list[Tile], denoiser, cfg: PipelineConfig, sigma: float,
                     gamma_t: float, direction: str, stats: RunStats, step: int = 0) -> list[Tile]:
    """Sequential temporal propagation along each spatial tile column.

    Tiles are visited in temporal order (reversed when direction is
    backward); each receives the selected key/value frames tapped from its
    predecessor's target-branch pass, range 1 (immediate neighbor only).
    """
    if direction not in ("forward", "backward"):
        raise ValueError(f"direction must be forward or backward, got {direction!r}")
    _require_hooks(denoiser, "temporal")
    by_m: dict[int, list[Tile]] = {}
    for tile in tiles:
        by_m.setdefault(tile.m, []).append(tile)
    out: list[Tile] = []

    def run_column(m: int) -> list[Tile]:
        column = sorted(by_m[m], key=lambda t: t.n)
        if direction == "backward":
            column = column[::-1]
        produced = []
        prev_result = None
        for tile in column:
            runner = _TileRunner(denoiser, sigma, gamma_t, cfg, stats, step, (tile.n, tile.m))
            injections = None
            if prev_result is not None:
                injections = _tap_injections(prev_result, direction, cfg.tap_frames, _hook_layers(denoiser))
            eps, result = runner.guided_eps(tile.data, injections, collect_kv=True)
            prev_result = result
            produced.append(Tile(n=tile.n, m=tile.m, data=eps))
        return produced

    results = _map_tiles(sorted(by_m), run_column, cfg.workers, cfg.tile_schedule)
    for m in sorted(results):
        out.extend(results[m])
    return out


def denoise_pass_plain(tiles: list[Tile], denoiser, cfg: PipelineConfig, sigma: float,
                       gamma_t: float, stats: RunStats, step: int = 0) -> list[Tile]:
    """No cross-tile propagation; guidance branches still run per tile."""
    def run_one(idx: int) -> np.ndarray:
        tile = tiles[idx]
        runner = _TileRunner(denoiser, sigma, gamma_t, cfg, stats, step, (tile.n, tile.m))
        return runner.guided_eps(tile.data, None)[0]

    eps_by_idx = _map_tiles(range(len(tiles)), run_one, cfg.workers, cfg.tile_schedule)
    return [Tile(n=tiles[i].n, m=tiles[i].m, data=eps_by_idx[i]) for i in sorted(eps_by_idx)]


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
