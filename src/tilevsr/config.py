"""Plain-text run configuration: `key=value` lines, `#` comments.

Each key is a field of a component config (PipelineConfig, GuidanceConfig,
DegradationConfig, ToyCodec) or of RunConfig itself. Unknown keys are
rejected, defaults fill everything else, resolving builds the components (so
their checks run at once), and the resolved config can be echoed back in the
same format (parse(echo(cfg)) == cfg).
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields

from .guidance import GuidanceConfig
from .models import ToyAttentionDenoiser, ToyCodec, check_toy_settings
from .quality import DegradationConfig, check_flow_window
from .sampler import PipelineConfig
from .tiles import in_range, int_in_range


def _parse_bool(value: str) -> bool:
    low = value.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


def parse_extents(name: str, value: str, count: int) -> tuple[int, ...]:
    """`count` extents >= 1 joined by 'x' or '×': HxW for 2, HxWxF for 3."""
    parts = value.lower().replace("×", "x").split("x")
    if len(parts) != count:
        raise ValueError(f"{name} must look like {'x'.join('HWF'[:count])}, got {value!r}")
    extents = tuple(int(p) for p in parts)
    if min(extents) < 1:
        raise ValueError(f"{name} extents must be >= 1, got {value!r}")
    return extents


@dataclass
class RunConfig:
    """The component configs, plus the denoiser and metric settings that have
    no component config of their own. Every flat config key is exactly one
    field of one of them (see `_KEYS`).
    """

    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    degradation: DegradationConfig = field(default_factory=DegradationConfig)
    codec: ToyCodec = field(default_factory=ToyCodec)
    # toy denoiser
    denoiser_seed: int = 1234
    patch_size: int = 4
    embed_dim: int = 32
    spatial_layers: int = 4
    cond_dim: int = 8
    sigma_data: float = 0.5  # the denoiser's preconditioning
    # metrics
    flow_block: int = 8
    flow_radius: int = 4

    def __post_init__(self):
        self.patch_size, self.embed_dim, self.spatial_layers, self.cond_dim = check_toy_settings(
            self.patch_size, self.embed_dim, self.spatial_layers, self.cond_dim)
        for name in ("tile_h", "tile_w"):  # the denoiser patchifies every tile
            extent = getattr(self.pipeline, name)
            if extent % self.patch_size:
                raise ValueError(f"{name} {extent} must be a multiple of patch_size {self.patch_size}")
        self.flow_block, self.flow_radius = check_flow_window(self.flow_block, self.flow_radius)
        self.denoiser_seed = int_in_range("denoiser_seed", self.denoiser_seed, ge=0)
        in_range("sigma_data", self.sigma_data, gt=0)

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


# Where each component sits in a RunConfig. A field naming a section holds
# that component; every other field of a section is one flat config key.
_SECTIONS = {
    "run": (RunConfig, lambda cfg: cfg),
    "pipeline": (PipelineConfig, lambda cfg: cfg.pipeline),
    "guidance": (GuidanceConfig, lambda cfg: cfg.pipeline.guidance),
    "degradation": (DegradationConfig, lambda cfg: cfg.degradation),
    "codec": (ToyCodec, lambda cfg: cfg.codec),
}
# The flat keys that are not their field's name, kept for compatibility.
_RENAMED = {("guidance", "mode"): "guidance", ("pipeline", "tap_frames"): "tap_l",
            ("codec", "factor"): "codec_factor"}
# flat key -> (section, dataclass field)
_KEYS = {
    _RENAMED.get((section, f.name), f.name): (section, f)
    for section, (cls, _) in _SECTIONS.items() for f in fields(cls) if f.name not in _SECTIONS
}
# 'tile' is accepted as a composite HxWxF key covering tile_h/tile_w/tile_frames
KNOWN_KEYS = set(_KEYS) | {"tile"}
_TILE_KEYS = ("tile_h", "tile_w", "tile_frames")  # the order of HxWxF


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


# keyed by field annotation, a string: every config module defers annotations
_PARSERS = {"bool": _parse_bool, "int": int, "float": float, "str": str}


def _coerce(key: str, value):
    """A file's string value as its field's type; typed overrides pass as they are."""
    if not isinstance(value, str):
        return value
    return _PARSERS[_KEYS[key][1].type](value)


def _expand_tile(layer: dict, source: str) -> dict:
    """One layer's values with the composite 'tile' replaced by its extents."""
    if "tile" not in layer:
        return layer
    clash = [key for key in _TILE_KEYS if key in layer]
    if clash:
        raise ValueError(f"{source}: 'tile' and {', '.join(clash)} both set the tile size")
    expanded = dict(layer)
    tile = expanded.pop("tile")
    expanded.update(zip(_TILE_KEYS, parse_extents("tile", tile, 3) if isinstance(tile, str) else tile))
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
    args: dict = {section: {} for section in _SECTIONS}
    for key, value in merged.items():
        section, f = _KEYS[key]
        args[section][f.name] = _coerce(key, value)
    return RunConfig(
        pipeline=PipelineConfig(guidance=GuidanceConfig(**args["guidance"]), **args["pipeline"]),
        degradation=DegradationConfig(**args["degradation"]),
        codec=ToyCodec(**args["codec"]),
        **args["run"],
    )


def echo_lines(cfg: RunConfig) -> list[str]:
    """The fully resolved config as sorted key=value lines."""
    lines = []
    for key in sorted(_KEYS):
        section, f = _KEYS[key]
        value = getattr(_SECTIONS[section][1](cfg), f.name)
        if isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{key}={value}")
    return lines
