"""Deterministic ODE sampler over spatio-temporal tiles.

The schedule and the Euler step follow the variance-exploding ODE
convention: a denoiser D(x; sigma) induces the probability-flow step
x_next = x + (sigma_next - sigma_cur) * (x - D) / sigma_cur.

The video pipeline interleaves the noisy latent with the encoded low-res
latent frame by frame, covers the result with overlapping tiles, and runs
one of two cross-tile attention schemes per step: spatial propagation on
even steps (global subsampled key/value aggregation across all tiles of a
temporal index) and temporal propagation on odd steps (neighbor tiles hand
selected frames' key/values along the time axis, direction alternating).
Every pass walks the tile grid's rows, one per temporal index, each cut
into stacks of tiles (TileGrid.stacks), and runs them as a short list of
waves of independent stacks: one wave holding every row for a plain or SAP
pass, one wave per row for TAP. Every injection is a handoff: stack i of
the first wave runs with what the pass hands it (its row's aggregates for
SAP, nothing otherwise), and stack i of a later wave with the key/values
stack i of the wave before handed on. Each stack is split out of the
latent when it runs, and its guidance-combined noise estimate is merged
into a Gaussian blend of the noise frames as it arrives, in the order the
pass runs its stacks, so memory follows the latent, not the tile count.
The blend is advanced with one Euler step.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .attention import InjectedKV, aggregate_frame_kv, select_tap_frames, subsample_spatial_kv
from .guidance import GUIDANCE_BRANCHES, GuidanceConfig, combine, gamma_schedule, sag_input
from .quality import bicubic_resize
from .tiles import (
    Blend, TileGrid, check_mask_corner, deinterleave, gaussian_mask, in_range, int_in_range, interleave,
    merge, plan_tiles, split, validate_video,
)


class NumericError(RuntimeError):
    """Non-finite values showed up where the math promises finite ones."""


# ---------------------------------------------------------------------------
# schedule / ODE step

def build_sigma_schedule(
    steps: int,
    sigma_min: float = 0.002,
    sigma_max: float = 700.0,
    exponent: float = 7.0,
) -> np.ndarray:
    """The T+1 float64 sigmas, strictly descending:
    sigma_i = (max^(1/e) + (i/T) * (min^(1/e) - max^(1/e)))^e, endpoints exact."""
    steps = int_in_range("steps", steps, ge=1)
    in_range("sigma_min", sigma_min, gt=0)
    in_range("sigma_max", sigma_max, gt=sigma_min)
    in_range("exponent", exponent, gt=0)
    ramp = np.linspace(0.0, 1.0, steps + 1)
    inv_max = sigma_max ** (1.0 / exponent)
    inv_min = sigma_min ** (1.0 / exponent)
    sigmas = (inv_max + ramp * (inv_min - inv_max)) ** exponent
    sigmas[0] = sigma_max
    sigmas[-1] = sigma_min
    if not np.all(np.diff(sigmas) < 0):
        raise ValueError("sigmas must be strictly descending")
    return sigmas


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
    upscale_factor: int = 4
    mask_sigma_fraction: float = 0.25
    workers: int = 1

    def __post_init__(self):
        for name in ("steps", "tile_frames", "tile_h", "tile_w", "sap_rate", "tap_frames",
                     "upscale_factor", "workers"):
            setattr(self, name, int_in_range(name, getattr(self, name), ge=1))
        self.seed = int_in_range("seed", self.seed, ge=0)
        for name in ("sigma_min", "schedule_exponent", "mask_sigma_fraction"):
            in_range(name, getattr(self, name), gt=0)
        in_range("sigma_max", self.sigma_max, gt=self.sigma_min)
        check_mask_corner((self.tile_frames, self.tile_h, self.tile_w), self.mask_sigma_fraction)
        if not isinstance(self.guidance, GuidanceConfig):
            raise ValueError("guidance must be a GuidanceConfig")


@dataclass
class RunStats:
    eps_calls: int = 0  # one per tile per guided forward
    gather_calls: int = 0  # one per tile per SAP gather
    tile_units: int = 0  # one per tile per step

    @property
    def ff_per_iter(self) -> float:
        return self.eps_calls / self.tile_units if self.tile_units else 0.0


@dataclass
class RunResult:
    video: np.ndarray
    trace: list[str]
    stats: RunStats


# ---------------------------------------------------------------------------
# the pass engine: guided noise estimates over stacks of tiles. The grid cuts
# each of its rows into stacks; split copies a stack's tiles out of the
# step's interleaved latent when it runs, and merge adds its estimate into
# the step's blend, so no array of every tile exists.

# Tile input of one stacked denoiser forward (one tile when it alone is larger),
# so a forward's activations stay bounded however many tiles a pass has.
STACK_BYTES = 256 * 1024


def _stacks(y: np.ndarray, grid: TileGrid) -> list[list[slice]]:
    """The grid's rows of stacks of at most STACK_BYTES of tile input each
    (one tile a stack when a tile alone is larger)."""
    return grid.stacks(max(1, STACK_BYTES // (math.prod(grid.tile_dims) * y.shape[1] * y.itemsize)))


def _require_finite(arrays, stack: slice, n_spatial: int, step: int, what: str,
                    sigma: float) -> None:
    """NumericError naming the step and the (n, m) of the first tile of the
    stack whose slice of any array (tile axis first) is not finite."""
    if all(np.all(np.isfinite(a)) for a in arrays):
        return
    for i in range(stack.stop - stack.start):
        if not all(np.all(np.isfinite(a[i])) for a in arrays):
            raise NumericError(f"non-finite {what} at step {step}, tile "
                               f"{divmod(stack.start + i, n_spatial)}, sigma={sigma:g}")


def _guided_eps(y: np.ndarray, grid: TileGrid, stack: slice, injections, collect_kv: bool,
                denoiser, cfg: PipelineConfig, sigma: float, gamma_t: float, step: int):
    """Guided noise estimates of a stack of tiles (tile axis first), and its
    target branch's stacked result.

    The branches of the mode's GUIDANCE_BRANCHES row run in order, one
    stacked forward each, on the stack split out once; a blurred branch's
    input is built from branch 0's estimate and attention map.
    """
    x0 = split(y, grid, stack)
    g = cfg.guidance
    branches = GUIDANCE_BRANCHES[g.mode]
    needs_map = any(branch.blurred for branch in branches)
    eps = []
    for i, branch in enumerate(branches):
        x = x0
        if branch.blurred:
            x = sag_input(x0, eps[0], attention, sigma, g)
        result = denoiser.denoise(
            x, branch.conditional, sigma, injected=injections,
            gamma=gamma_t if branch.tempered else 0.0, identity=branch.identity,
            collect_kv=collect_kv and i == len(branches) - 1,
            collect_attention=needs_map and i == 0,
        )
        e = (x - result.denoised) / sigma
        _require_finite([e], stack, grid.n_spatial, step, "noise estimate", sigma)
        if i == 0:
            attention = result.attention
        eps.append(e)
    if len(eps) == 1:
        return eps[0], result
    guided = combine(eps[-2], eps[-1], g.scale)
    if branches[0].identity:  # pag: also guide away from the identity-perturbed branch
        guided = guided + (combine(eps[0], eps[1], g.scale) - eps[1])
    return guided, result


def _map_tiles(items: list | range, fn, workers: int):
    """fn over items, threaded when workers > 1; yields the results in item order."""
    if workers > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(fn, items)
    else:
        yield from map(fn, items)


def _run_pass(y: np.ndarray, blend: Blend, waves: list[list[slice]], denoiser,
              cfg: PipelineConfig, sigma: float, gamma_t: float, stats: RunStats, step: int,
              handed: list | None = None, handoff=None) -> np.ndarray:
    """The blended guided noise estimate of the noise frames of y.

    A pass is a list of waves of independent stacks: the waves run in order,
    and the stacks of a wave through _map_tiles, one forward per branch each.
    Every injection is a handoff: stack i of a wave runs with the per-layer
    K/V handed[i] and drops them once read. In the first wave, handed is the
    pass's own list, one entry per stack (None for each stack when not
    given); in a later wave, handed[i] is what stack i of the wave before
    handed on. With handoff, the stacks of every wave but the last keep
    their target branch's K/V and hand handoff(result) on. Each estimate is
    merged into the blend, and its tiles counted, on this thread as it
    arrives, so the blend sums tiles in the order the pass runs them.
    """
    num = np.zeros(blend.weights.shape[:1] + y.shape[1:2] + blend.weights.shape[2:])
    forwards = len(GUIDANCE_BRANCHES[cfg.guidance.mode])
    if handed is None:
        handed = [None] * len(waves[0])
    for w, wave in enumerate(waves):
        collect_kv = handoff is not None and w + 1 < len(waves)

        def run_stack(i: int):
            injections, handed[i] = handed[i], None  # read once: it goes with this stack's forward
            eps, result = _guided_eps(y, blend.grid, wave[i], injections, collect_kv, denoiser,
                                      cfg, sigma, gamma_t, step)
            return i, eps, handoff(result) if collect_kv else None

        for i, eps, handed_on in _map_tiles(range(len(wave)), run_stack, cfg.workers):
            merge(num, eps, blend, wave[i])
            handed[i] = handed_on
            del eps  # before the next stack's estimate exists
            tiles = wave[i].stop - wave[i].start
            stats.tile_units += tiles
            stats.eps_calls += forwards * tiles
    return num / blend.weights


def _require_hooks(denoiser, scheme: str):
    if not denoiser.hook_layers:
        raise ValueError(f"{scheme} propagation needs a denoiser with hook layers")


def denoise_pass_sap(y: np.ndarray, blend: Blend, denoiser, cfg: PipelineConfig, sigma: float,
                     gamma_t: float, stats: RunStats, step: int = 0) -> np.ndarray:
    """Two-phase spatial propagation over every temporal group.

    Phase 1 runs the grid's stacks as far as their hook layers' key/values
    (kv_only), subsampled on a stride grid and aggregated over all tiles of
    each row, a temporal group (own tile included). Phase 2 starts only
    after every gather has: the same stacks are rerun, each handed its
    row's aggregate for its hooked layers.
    """
    _require_hooks(denoiser, "spatial")
    layers = denoiser.hook_layers
    grid = blend.grid
    rows = _stacks(y, grid)
    wave = [stack for row in rows for stack in row]

    def gather(stack: slice) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        # only the subsampled rows outlive the task, not the full K/V
        result = denoiser.denoise(split(y, grid, stack), True, sigma, kv_only=True)
        _require_finite([*result.keys.values(), *result.values.values()], stack, grid.n_spatial,
                        step, "key/value rows", sigma)
        return {layer: subsample_spatial_kv(result.keys[layer], result.values[layer], cfg.sap_rate)
                for layer in layers}

    parts = list(_map_tiles(wave, gather, cfg.workers))
    stats.gather_calls += grid.n_tiles
    # phase 2 holds the rows once, in the aggregates: each layer's stack rows
    # go as soon as that layer's are concatenated
    aggregate = {layer: aggregate_frame_kv([p.pop(layer) for p in parts], grid.n_temporal)
                 for layer in layers}
    del parts
    return _run_pass(y, blend, [wave], denoiser, cfg, sigma, gamma_t, stats, step,
                     handed=[{layer: groups[n] for layer, groups in aggregate.items()}
                             for n, row in enumerate(rows) for _ in row])


def _tap_injections(result, l_frames: int, hook_layers) -> dict[int, InjectedKV]:
    """Per-layer, per-tile K/V of the frames with the largest key spread in
    each tile of a stacked neighbor result."""
    injections = {}
    for layer in hook_layers:
        keys, values = result.keys[layer], result.values[layer]  # (tiles, frames, gh, gw, d)
        chosen = select_tap_frames(keys, min(l_frames, keys.shape[1]))[:, :, None, None, None]
        injections[layer] = InjectedKV(
            keys=np.take_along_axis(keys, chosen, axis=1).reshape(len(keys), -1, keys.shape[-1]),
            values=np.take_along_axis(values, chosen, axis=1).reshape(len(keys), -1, values.shape[-1]),
        )
    return injections


def denoise_pass_tap(y: np.ndarray, blend: Blend, denoiser, cfg: PipelineConfig, sigma: float,
                     gamma_t: float, direction: str, stats: RunStats, step: int = 0) -> np.ndarray:
    """Sequential temporal propagation along each spatial tile column.

    One wave per row of the grid, in time order (reversed when direction is
    backward): stack i of a row holds the same run of columns m in every
    row, so each tile receives the selected key/value frames tapped from
    its immediate predecessor's target-branch pass.
    """
    if direction not in ("forward", "backward"):
        raise ValueError(f"direction must be forward or backward, got {direction!r}")
    _require_hooks(denoiser, "temporal")
    rows = _stacks(y, blend.grid)
    return _run_pass(y, blend, rows if direction == "forward" else rows[::-1], denoiser, cfg,
                     sigma, gamma_t, stats, step,
                     handoff=lambda result: _tap_injections(result, cfg.tap_frames,
                                                            denoiser.hook_layers))


def denoise_pass_plain(y: np.ndarray, blend: Blend, denoiser, cfg: PipelineConfig, sigma: float,
                       gamma_t: float, stats: RunStats, step: int = 0) -> np.ndarray:
    """No cross-tile propagation; guidance branches still run per stack."""
    wave = [stack for row in _stacks(y, blend.grid) for stack in row]
    return _run_pass(y, blend, [wave], denoiser, cfg, sigma, gamma_t, stats, step)


# ---------------------------------------------------------------------------
# full sampling loop

def _condition_latent(lr: np.ndarray, codec, factor: int) -> np.ndarray:
    """codec.encode(bicubic_resize(lr, factor)), built one frame at a time so
    that the full-resolution float64 video never exists."""
    l = None
    for f in range(lr.shape[0]):
        frame = lr[f:f + 1]
        z = codec.encode(bicubic_resize(frame, float(factor)) if factor != 1 else frame)
        if l is None:
            l = np.empty((lr.shape[0],) + z.shape[1:])
        l[f] = z[0]
    return l


def sample_video(lr_video: np.ndarray, denoiser, codec, cfg: PipelineConfig) -> RunResult:
    """Upscale a low-res video by sampling the diffusion ODE over tiles.

    Steps: bicubic-upsample the input and encode it to the conditioning
    latent, frame by frame, then run cfg.steps Euler steps from seeded noise.
    The noisy and conditioning latents are interleaved frame by frame once,
    and the noisy latent lives in the even frames: every step runs the step's
    propagation scheme (spatial on even steps, temporal on odd, when
    enabled) over half-overlapping tiles, stack by stack, blends the
    guidance-combined noise estimates of the noise frames with a Gaussian
    mask, and steps the noisy latent in place. The final latent is decoded at
    sigma_min.
    """
    lr = validate_video(lr_video, "lr_video").astype(np.float64)
    l = _condition_latent(lr, codec, cfg.upscale_factor)
    n_frames, channels, lat_h, lat_w = l.shape

    # the denoiser patchifies every tile: spatial extents clamp down to whole patches
    patch = getattr(denoiser, "patch_size", 1)
    eff_tile = (
        min(cfg.tile_frames, 2 * n_frames),
        min(cfg.tile_h, lat_h) // patch * patch,
        min(cfg.tile_w, lat_w) // patch * patch,
    )
    if min(eff_tile[1:]) < 1:
        raise ValueError(f"latent {lat_h}x{lat_w} is smaller than one {patch}x{patch} patch")
    blend = Blend(plan_tiles((2 * n_frames, lat_h, lat_w), eff_tile),
                  gaussian_mask(eff_tile, cfg.mask_sigma_fraction))
    sigmas = build_sigma_schedule(cfg.steps, cfg.sigma_min, cfg.sigma_max, cfg.schedule_exponent)

    rng = np.random.default_rng(cfg.seed)
    # one interleaved latent for the run: the conditioning frames never
    # change, and the noisy latent x is a view of its noise frames, which
    # each step overwrites with its Euler step
    y = interleave(rng.standard_normal((n_frames, channels, lat_h, lat_w)) * float(sigmas[0]), l)
    del l
    x = deinterleave(y)[0]
    stats = RunStats()
    trace: list[str] = []
    for step in range(cfg.steps):
        sigma = float(sigmas[step])
        sigma_next = float(sigmas[step + 1])
        gamma_t = gamma_schedule(sigma, float(sigmas[0]), float(sigmas[-1]), cfg.guidance.rho)
        # SAP on even steps, TAP on odd ones, alternating forward and backward
        scheme = "sap" if step % 2 == 0 else "tap"
        if not getattr(cfg, scheme):
            scheme = "none"
        direction = ("forward" if step // 2 % 2 == 0 else "backward") if scheme == "tap" else "-"
        if scheme == "sap":
            eps_x = denoise_pass_sap(y, blend, denoiser, cfg, sigma, gamma_t, stats, step)
        elif scheme == "tap":
            eps_x = denoise_pass_tap(y, blend, denoiser, cfg, sigma, gamma_t, direction, stats, step)
        else:
            eps_x = denoise_pass_plain(y, blend, denoiser, cfg, sigma, gamma_t, stats, step)
        x[...] = ode_step(x, x - sigma * eps_x, sigma, sigma_next)
        del eps_x  # before the next step's pass
        if not np.all(np.isfinite(x)):
            raise NumericError(f"non-finite latent after step {step} (sigma {sigma:g} -> {sigma_next:g})")
        trace.append(
            f"step={step:02d} sigma={sigma:.6g} gamma={gamma_t:.6f} "
            f"scheme={scheme} direction={direction} guidance={cfg.guidance.mode}"
        )
    x = x.copy()  # so that the decode does not keep y alive
    del y
    hr = codec.decode(x)
    return RunResult(video=hr, trace=trace, stats=stats)
