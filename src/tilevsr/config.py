"""Plain-text run configuration: `key=value` lines, `#` comments.

Unknown keys are rejected, defaults fill everything else, and the resolved
config can be echoed back in the same format (parse(echo(cfg)) == cfg).
"""
from __future__ import annotations

from dataclasses import dataclass, fields

from .guidance import GUIDANCE_MODES, GuidanceConfig
from .models import ToyAttentionDenoiser, ToyCodec
from .quality import DegradationConfig
from .sampler import PipelineConfig


def _parse_bool(value: str) -> bool:
    low = value.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


def parse_tile(value: str) -> tuple[int, int, int]:
    parts = value.lower().replace("×", "x").split("x")
    if len(parts) != 3:
        raise ValueError(f"tile must look like HxWxF, got {value!r}")
    h, w, f = (int(p) for p in parts)
    if h < 1 or w < 1 or f < 1:
        raise ValueError(f"tile extents must be >= 1, got {value!r}")
    return h, w, f


@dataclass
class RunConfig:
    # sampling
    steps: int = 25
    tile_h: int = 64
    tile_w: int = 64
    tile_frames: int = 14
    sap: bool = True
    tap: bool = True
    sap_rate: int = 2
    tap_l: int = 4
    tap_range: int = 1
    guidance: str = "cfg_dssag"
    scale: float = 1.0
    rho: float = 0.5
    sag_blur_sigma: float = 2.0
    sag_mask_quantile: float = 0.5
    seed: int = 0
    sigma_min: float = 0.002
    sigma_max: float = 700.0
    schedule_exponent: float = 7.0
    sigma_data: float = 0.5
    upscale_factor: int = 4
    codec_factor: int = 8
    mask_sigma_fraction: float = 0.25
    workers: int = 1
    tile_schedule: str = "ascending"
    # toy denoiser
    denoiser_seed: int = 1234
    patch_size: int = 4
    embed_dim: int = 32
    spatial_layers: int = 4
    cond_dim: int = 8
    # degradation
    blur_sigma: float = 1.5
    down_factor: int = 4
    noise_sigma: float = 0.02
    quant_levels: int = 256
    # metrics
    flow_block: int = 8
    flow_radius: int = 4

    def __post_init__(self):
        if self.guidance not in GUIDANCE_MODES:
            raise ValueError(
                f"unknown guidance mode {self.guidance!r}, expected one of {GUIDANCE_MODES}"
            )

    def guidance_config(self) -> GuidanceConfig:
        return GuidanceConfig(
            mode=self.guidance,
            scale=self.scale,
            rho=self.rho,
            sag_blur_sigma=self.sag_blur_sigma,
            sag_mask_quantile=self.sag_mask_quantile,
        )

    def pipeline_config(self) -> PipelineConfig:
        return PipelineConfig(
            steps=self.steps,
            tile_frames=self.tile_frames,
            tile_h=self.tile_h,
            tile_w=self.tile_w,
            sap=self.sap,
            tap=self.tap,
            sap_rate=self.sap_rate,
            tap_frames=self.tap_l,
            tap_range=self.tap_range,
            guidance=self.guidance_config(),
            seed=self.seed,
            sigma_min=self.sigma_min,
            sigma_max=self.sigma_max,
            schedule_exponent=self.schedule_exponent,
            sigma_data=self.sigma_data,
            upscale_factor=self.upscale_factor,
            mask_sigma_fraction=self.mask_sigma_fraction,
            workers=self.workers,
            tile_schedule=self.tile_schedule,
        )

    def degradation_config(self) -> DegradationConfig:
        return DegradationConfig(
            blur_sigma=self.blur_sigma,
            down_factor=self.down_factor,
            noise_sigma=self.noise_sigma,
            quant_levels=self.quant_levels,
            seed=self.seed,
        )

    def build_denoiser(self, channels: int) -> ToyAttentionDenoiser:
        return ToyAttentionDenoiser(
            seed=self.denoiser_seed,
            channels=channels,
            patch_size=self.patch_size,
            embed_dim=self.embed_dim,
            spatial_layers=self.spatial_layers,
            cond_dim=self.cond_dim,
            sigma_data=self.sigma_data,
        )

    def build_codec(self) -> ToyCodec:
        return ToyCodec(factor=self.codec_factor)


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}
# 'tile' is accepted as a composite HxWxF key covering tile_h/tile_w/tile_frames
KNOWN_KEYS = set(_FIELD_TYPES) | {"tile"}
_TILE_KEYS = ("tile_h", "tile_w", "tile_frames")  # parse_tile's order


def parse_config_text(text: str, source: str = "<config>", allowed: set | None = None) -> dict:
    known = KNOWN_KEYS if allowed is None else allowed
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{source}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in known:
            raise ValueError(f"{source}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ValueError(f"{source}:{lineno}: duplicate key {key!r}")
        values[key] = value
    return values


def _coerce(key: str, value):
    if isinstance(value, str):
        kind = _FIELD_TYPES[key]
        if kind == "bool" or kind is bool:
            return _parse_bool(value)
        if kind == "int" or kind is int:
            return int(value)
        if kind == "float" or kind is float:
            return float(value)
        return value
    return value


def _expand_tile(layer: dict, source: str) -> dict:
    """One layer's values with the composite 'tile' replaced by its extents."""
    if "tile" not in layer:
        return layer
    clash = [key for key in _TILE_KEYS if key in layer]
    if clash:
        raise ValueError(f"{source}: 'tile' and {', '.join(clash)} both set the tile size")
    expanded = dict(layer)
    tile = expanded.pop("tile")
    expanded.update(zip(_TILE_KEYS, parse_tile(tile) if isinstance(tile, str) else tile))
    return expanded


def resolve_config(path: str | None = None, overrides: dict | None = None) -> RunConfig:
    """File values (if any) with overrides applied on top, defaults elsewhere.

    Each layer expands its own 'tile' before the next is applied, so an
    override of any tile extent beats the file however either spells it.
    """
    merged: dict = {}
    if path is not None:
        with open(path, "r", encoding="ascii") as fh:
            merged.update(_expand_tile(parse_config_text(fh.read(), source=path), path))
    layer: dict = {}
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in KNOWN_KEYS:
            raise ValueError(f"unknown config key {key!r}")
        layer[key] = value
    merged.update(_expand_tile(layer, "overrides"))
    kwargs = {key: _coerce(key, value) for key, value in merged.items()}
    return RunConfig(**kwargs)


def echo_lines(cfg: RunConfig) -> list[str]:
    """The fully resolved config as sorted key=value lines."""
    lines = []
    for f in sorted(fields(RunConfig), key=lambda f: f.name):
        value = getattr(cfg, f.name)
        if isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{f.name}={value}")
    return lines
