"""Run-config parsing, merging, echoing, the flat key schema, and the
denoiser builder."""

import dataclasses
import functools
import pathlib

import numpy as np
import pytest

from tilevsr.config import (
    KNOWN_KEYS,
    RunConfig,
    echo_lines,
    parse_config_text,
    parse_extents,
    resolve_config,
)
from tilevsr.guidance import GuidanceConfig
from tilevsr.models import ToyAttentionDenoiser, ToyCodec, ToyDenoiserConfig
from tilevsr.quality import DegradationConfig
from tilevsr.sampler import PipelineConfig

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_defaults_match_documented_values():
    cfg = resolve_config(None, None)
    p = cfg.pipeline
    assert p.steps == 25
    assert (p.tile_h, p.tile_w, p.tile_frames) == (64, 64, 14)
    assert p.sap and p.tap
    assert p.sap_rate == 2
    assert p.tap_frames == 4
    assert p.guidance.mode == "cfg_dssag"
    assert p.guidance.rho == 0.5
    assert (p.sigma_min, p.sigma_max) == (0.002, 700.0)
    assert p.upscale_factor == 4
    assert cfg.codec.factor == 8


def test_readme_key_table_is_the_default_echo():
    # README's "full key set with defaults" table holds every key=value of
    # the default config's echo, each once, grouped rather than sorted
    table = README.read_text(encoding="utf-8").split("The full key set with defaults:", 1)[1]
    rows = table.split("\n\n")[1].splitlines()
    assert rows[0] == "| group | keys |"
    cells = [cell for row in rows[2:] for cell in row.split("|")[2].strip(" `").split()]
    assert sorted(cells) == sorted(echo_lines(RunConfig()))


def test_parse_tile_formats():
    assert parse_extents("tile", "32x48x6", 3) == (32, 48, 6)
    assert parse_extents("tile", "64×64×14", 3) == (64, 64, 14)
    assert parse_extents("size", "32X48", 2) == (32, 48)
    assert parse_extents("size", "8×6", 2) == (8, 6)
    for bad in ("32x48", "axbxc", "0x4x4", "4x4x4x4", ""):
        with pytest.raises(ValueError):
            parse_extents("tile", bad, 3)
    for bad in ("32x48x6", "axb", "0x4", "4x-1", "4", ""):
        with pytest.raises(ValueError):
            parse_extents("size", bad, 2)


def test_parse_config_text_basics():
    text = """
# degradation block
blur_sigma = 2.5
down_factor=2

steps = 10  # trailing comment
sap = false
guidance = dssag
"""
    kv = parse_config_text(text)
    # the parser keeps raw strings; typing happens when the config resolves
    assert kv == {
        "blur_sigma": "2.5",
        "down_factor": "2",
        "steps": "10",
        "sap": "false",
        "guidance": "dssag",
    }


def test_parse_config_text_rejections():
    with pytest.raises(ValueError):
        parse_config_text("unknown_key = 1")
    with pytest.raises(ValueError):
        parse_config_text("steps = 5\nsteps = 6")
    with pytest.raises(ValueError):
        parse_config_text("steps")
    with pytest.raises(ValueError):
        parse_config_text("steps = 5", allowed={"seed"})


def test_coercion_failures_surface_at_resolve(tmp_path):
    bad_int = tmp_path / "a.cfg"
    bad_int.write_text("steps = abc\n")
    with pytest.raises(ValueError):
        resolve_config(str(bad_int), None)
    bad_bool = tmp_path / "b.cfg"
    bad_bool.write_text("sap = maybe\n")
    with pytest.raises(ValueError):
        resolve_config(str(bad_bool), None)


def test_bool_spellings(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("sap = YES\ntap = Off\n")
    cfg = resolve_config(str(p), None)
    assert cfg.pipeline.sap is True
    assert cfg.pipeline.tap is False


def test_resolve_config_file_then_overrides(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("steps = 10\nseed = 3\nguidance = dssag\n")
    cfg = resolve_config(str(p), {"seed": 4, "scale": None})
    assert cfg.pipeline.steps == 10
    assert cfg.pipeline.seed == 4  # override wins
    assert cfg.pipeline.guidance.mode == "dssag"
    assert cfg.pipeline.guidance.scale == 1.0  # None overrides are skipped


def test_resolve_config_tile_composite(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("tile = 16x24x4\n")
    cfg = resolve_config(str(p), None)
    assert (cfg.pipeline.tile_h, cfg.pipeline.tile_w, cfg.pipeline.tile_frames) == (16, 24, 4)
    # a file setting the composite and an extent is ambiguous: rejected
    p2 = tmp_path / "run2.cfg"
    p2.write_text("tile = 16x24x4\ntile_h = 8\n")
    with pytest.raises(ValueError, match="tile_h"):
        resolve_config(str(p2), None)


def test_tile_override_beats_file_in_either_spelling(tmp_path):
    extents = tmp_path / "extents.cfg"
    extents.write_text("tile_h = 32\ntile_w = 40\n")
    cfg = resolve_config(str(extents), {"tile": "16x16x4"}).pipeline
    assert (cfg.tile_h, cfg.tile_w, cfg.tile_frames) == (16, 16, 4)
    composite = tmp_path / "composite.cfg"
    composite.write_text("tile = 32x40x6\n")
    cfg = resolve_config(str(composite), {"tile_w": 8}).pipeline
    assert (cfg.tile_h, cfg.tile_w, cfg.tile_frames) == (32, 8, 6)
    with pytest.raises(ValueError, match="overrides"):
        resolve_config(None, {"tile": "16x16x4", "tile_frames": 2})


def test_echo_lines_roundtrip(tmp_path):
    cfg = resolve_config(None, {"steps": 7, "sap": False, "guidance": "pag",
                                "blur_sigma": 0.25})
    lines = echo_lines(cfg)
    assert all("=" in ln for ln in lines)
    assert lines == sorted(lines)
    p = tmp_path / "echo.cfg"
    p.write_text("\n".join(lines) + "\n")
    back = resolve_config(str(p), None)
    assert back == cfg


def test_echo_lines_bool_format():
    lines = echo_lines(RunConfig())
    by_key = dict(ln.split("=", 1) for ln in lines)
    assert by_key["sap"] == "true"
    assert by_key["guidance"] == "cfg_dssag"


def test_run_config_validates_guidance_mode():
    with pytest.raises(ValueError):
        resolve_config(None, {"guidance": "loud"})


def test_builders_produce_consistent_objects():
    cfg = resolve_config(None, dict(
        steps=9, tile_h=16, tile_w=24, tile_frames=4, guidance="sag", scale=2.0, rho=0.7,
        seed=5, codec_factor=2, down_factor=2, patch_size=2, embed_dim=8, cond_dim=4,
    ))
    g = cfg.pipeline.guidance
    assert g.mode == "sag" and g.scale == 2.0 and g.rho == 0.7
    p = cfg.pipeline
    assert p.steps == 9
    assert (p.tile_h, p.tile_w, p.tile_frames) == (16, 24, 4)
    assert p.guidance == g
    assert p.seed == 5
    d = cfg.degradation
    assert d.down_factor == 2
    den = cfg.build_denoiser(channels=1)
    assert den.patch_size == 2
    assert den.cond_vector.shape == (4,)
    codec = cfg.codec
    lat = codec.encode(np.ones((1, 1, 4, 4)))
    assert lat.shape == (1, 1, 2, 2)


def test_resolve_config_missing_file():
    with pytest.raises((OSError, ValueError)):
        resolve_config("/nonexistent/run.cfg", None)


def test_unknown_override_key_rejected():
    with pytest.raises(ValueError):
        resolve_config(None, {"warp_speed": 11})


def test_config_equality_is_field_based():
    a = resolve_config(None, {"steps": 12})
    b = RunConfig(pipeline=PipelineConfig(steps=12))
    assert a == b
    assert dataclasses.asdict(a)["pipeline"]["steps"] == 12


# ---------------------------------------------------------------------------
# the flat key schema

# The default echo as every verb prints it; a key, default or format change
# shows here.
DEFAULT_ECHO = """\
blur_sigma=1.5
codec_factor=8
cond_dim=8
denoiser_seed=1234
down_factor=4
embed_dim=32
flow_block=8
flow_radius=4
guidance=cfg_dssag
mask_sigma_fraction=0.25
noise_sigma=0.02
patch_size=4
quant_levels=256
rho=0.5
sag_blur_sigma=2.0
sag_mask_quantile=0.5
sap=true
sap_rate=2
scale=1.0
schedule_exponent=7.0
seed=0
sigma_data=0.5
sigma_max=700.0
sigma_min=0.002
spatial_layers=4
steps=25
tap=true
tap_l=4
tile_frames=14
tile_h=64
tile_w=64
upscale_factor=4
workers=1""".splitlines()

# key -> (a valid non-default value as a file spells it, the fields it sets)
KEY_WIRING = {
    "blur_sigma": ("0.75", ["degradation.blur_sigma"]),
    "codec_factor": ("4", ["codec.factor"]),
    "cond_dim": ("3", ["denoiser.cond_dim"]),
    "denoiser_seed": ("7", ["denoiser.seed"]),
    "down_factor": ("2", ["degradation.down_factor"]),
    "embed_dim": ("16", ["denoiser.embed_dim"]),
    "flow_block": ("4", ["flow_block"]),
    "flow_radius": ("2", ["flow_radius"]),
    "guidance": ("pag", ["pipeline.guidance.mode"]),
    "mask_sigma_fraction": ("0.5", ["pipeline.mask_sigma_fraction"]),
    "noise_sigma": ("0.0", ["degradation.noise_sigma"]),
    "patch_size": ("2", ["denoiser.patch_size"]),
    "quant_levels": ("16", ["degradation.quant_levels"]),
    "rho": ("0.25", ["pipeline.guidance.rho"]),
    "sag_blur_sigma": ("1.0", ["pipeline.guidance.sag_blur_sigma"]),
    "sag_mask_quantile": ("0.75", ["pipeline.guidance.sag_mask_quantile"]),
    "sap": ("false", ["pipeline.sap"]),
    "sap_rate": ("3", ["pipeline.sap_rate"]),
    "scale": ("2.5", ["pipeline.guidance.scale"]),
    "schedule_exponent": ("5.0", ["pipeline.schedule_exponent"]),
    "seed": ("11", ["pipeline.seed"]),
    "sigma_data": ("0.25", ["denoiser.sigma_data"]),
    "sigma_max": ("80.0", ["pipeline.sigma_max"]),
    "sigma_min": ("0.01", ["pipeline.sigma_min"]),
    "spatial_layers": ("6", ["denoiser.spatial_layers"]),
    "steps": ("9", ["pipeline.steps"]),
    "tap": ("false", ["pipeline.tap"]),
    "tap_l": ("2", ["pipeline.tap_frames"]),
    "tile_frames": ("6", ["pipeline.tile_frames"]),
    "tile_h": ("16", ["pipeline.tile_h"]),
    "tile_w": ("24", ["pipeline.tile_w"]),
    "upscale_factor": ("2", ["pipeline.upscale_factor"]),
    "workers": ("3", ["pipeline.workers"]),
}


def _changed_fields(cfg: RunConfig) -> list[str]:
    """Dotted paths of the leaf fields where cfg differs from the defaults."""
    def walk(obj, default, prefix):
        changed = []
        for f in dataclasses.fields(obj):
            value, base = getattr(obj, f.name), getattr(default, f.name)
            if dataclasses.is_dataclass(value):
                changed += walk(value, base, f"{prefix}{f.name}.")
            elif value != base:
                changed.append(prefix + f.name)
        return changed
    return walk(cfg, RunConfig(), "")


def test_default_echo_is_pinned():
    assert echo_lines(RunConfig()) == DEFAULT_ECHO
    assert echo_lines(resolve_config(None, None)) == DEFAULT_ECHO
    assert KNOWN_KEYS == {line.split("=", 1)[0] for line in DEFAULT_ECHO} | {"tile"}
    assert set(KEY_WIRING) == KNOWN_KEYS - {"tile"}


@pytest.mark.parametrize("key", sorted(KEY_WIRING))
def test_each_key_sets_its_fields_and_echoes_one_line(tmp_path, key):
    text, paths = KEY_WIRING[key]
    p = tmp_path / "one.cfg"
    p.write_text(f"{key} = {text}\n")
    cfg = resolve_config(str(p), None)
    assert sorted(_changed_fields(cfg)) == sorted(paths)
    lines = echo_lines(cfg)
    diff = [(old, new) for old, new in zip(DEFAULT_ECHO, lines) if old != new]
    assert len(lines) == len(DEFAULT_ECHO)
    assert diff == [(next(ln for ln in DEFAULT_ECHO if ln.startswith(key + "=")), f"{key}={text}")]
    echoed = tmp_path / "echo.cfg"
    echoed.write_text("\n".join(lines) + "\n")
    assert resolve_config(str(echoed), None) == cfg


def test_every_component_field_is_reached_by_exactly_one_key():
    reached: dict = {}
    for key, (_, paths) in KEY_WIRING.items():
        for path in paths:
            reached.setdefault(path, []).append(key)
    components = {
        "": RunConfig,
        "pipeline.": PipelineConfig,
        "pipeline.guidance.": GuidanceConfig,
        "degradation.": DegradationConfig,
        "codec.": ToyCodec,
        "denoiser.": ToyDenoiserConfig,
    }
    expected = {prefix + f.name for prefix, cls in components.items()
                for f in dataclasses.fields(cls)
                if f.name not in ("pipeline", "guidance", "degradation", "codec", "denoiser")}
    assert expected == set(reached)
    assert all(len(keys) == 1 for keys in reached.values())


def test_run_config_declares_no_component_field():
    own = {f.name for f in dataclasses.fields(RunConfig)} - {"pipeline", "degradation", "codec",
                                                              "denoiser"}
    for cls in (PipelineConfig, GuidanceConfig, DegradationConfig, ToyCodec, ToyDenoiserConfig):
        assert not own & {f.name for f in dataclasses.fields(cls)}, cls.__name__


@pytest.mark.parametrize("cls,name", [
    (PipelineConfig, "sigma_data"), (PipelineConfig, "tile_schedule"), (DegradationConfig, "seed"),
])
def test_settings_with_another_owner_are_not_component_fields(cls, name):
    # sigma_data belongs to the denoiser, seed to the pipeline; tile order is not a setting
    with pytest.raises(TypeError):
        cls(**{name: 1})


# every float-typed config key (the table test below keeps the list whole)
FLOAT_KEYS = ("scale", "rho", "sag_blur_sigma", "sag_mask_quantile", "sigma_min", "sigma_max",
              "schedule_exponent", "sigma_data", "mask_sigma_fraction", "blur_sigma", "noise_sigma")
# component int fields that a typed override may set to a float
COMPONENT_INT_KEYS = ("steps", "tile_frames", "tile_h", "tile_w", "sap_rate", "tap_l",
                      "upscale_factor", "workers", "down_factor", "quant_levels")


def test_float_keys_are_every_float_field():
    classes = (RunConfig, PipelineConfig, GuidanceConfig, DegradationConfig, ToyCodec,
               ToyDenoiserConfig)
    floats = {f.name for cls in classes for f in dataclasses.fields(cls) if f.type == "float"}
    assert floats == set(FLOAT_KEYS)


@pytest.mark.parametrize("overrides", [
    {"steps": 0}, {"sap_rate": 0}, {"tap_l": 0}, {"scale": float("nan")},
    {"guidance": "loud"}, {"codec_factor": 3}, {"quant_levels": 1},
    {"sigma_data": 0.0}, {"sigma_min": 800.0},
    *({key: value} for key in FLOAT_KEYS for value in (float("nan"), float("inf"))),
    *({key: value} for key in COMPONENT_INT_KEYS for value in (float("nan"), float("inf"))),
])
def test_component_checks_run_at_resolve(overrides):
    with pytest.raises(ValueError):
        resolve_config(None, overrides)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("key", ["patch_size", "embed_dim", "spatial_layers", "cond_dim",
                                 "flow_block", "flow_radius"])
def test_denoiser_and_flow_settings_reject_nan_and_inf(key, value):
    with pytest.raises(ValueError, match="must be finite"):
        resolve_config(None, {key: value})


@pytest.mark.parametrize("key", ["patch_size", "embed_dim", "spatial_layers", "cond_dim",
                                 "flow_block", "flow_radius"])
def test_denoiser_and_flow_settings_reject_non_integer_floats(key):
    with pytest.raises(ValueError, match="must be an integer"):
        resolve_config(None, {key: 4.5})
    cfg = resolve_config(None, {key: 4.0})  # an integral float is taken as its int
    value = functools.reduce(getattr, KEY_WIRING[key][1][0].split("."), cfg)
    assert type(value) is int and value == 4


def test_denoiser_seed_rejects_non_integer_floats():
    with pytest.raises(ValueError, match="^denoiser_seed must be an integer"):
        resolve_config(None, {"denoiser_seed": 1.5})


def test_built_denoiser_is_the_keyword_built_one():
    settings = dict(patch_size=2, embed_dim=8, spatial_layers=6, cond_dim=4, sigma_data=0.25)
    built = resolve_config(None, {"denoiser_seed": 7, **settings}).build_denoiser(channels=3)
    direct = ToyAttentionDenoiser(seed=7, channels=3, **settings)
    # every setting and every weight array: w_embed, layers, temporal, w_out, ...
    assert vars(built).keys() == vars(direct).keys()
    for name, value in vars(direct).items():
        assert np.array_equal(np.asarray(getattr(built, name)), np.asarray(value)), name


@pytest.mark.parametrize("key", COMPONENT_INT_KEYS + ("codec_factor", "seed"))
def test_component_int_settings_reject_non_integer_floats(key):
    with pytest.raises(ValueError, match="must be an integer"):
        resolve_config(None, {key: 2.5})
