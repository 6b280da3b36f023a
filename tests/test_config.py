"""Run-config parsing, merging, echoing, and builder helpers."""

import dataclasses

import numpy as np
import pytest

from tilevsr.config import (
    RunConfig,
    echo_lines,
    parse_config_text,
    parse_tile,
    resolve_config,
)


def test_defaults_match_documented_values():
    cfg = RunConfig()
    assert cfg.steps == 25
    assert (cfg.tile_h, cfg.tile_w, cfg.tile_frames) == (64, 64, 14)
    assert cfg.sap and cfg.tap
    assert cfg.sap_rate == 2
    assert cfg.tap_l == 4
    assert cfg.guidance == "cfg_dssag"
    assert cfg.rho == 0.5
    assert (cfg.sigma_min, cfg.sigma_max) == (0.002, 700.0)
    assert cfg.upscale_factor == 4
    assert cfg.codec_factor == 8


def test_parse_tile_formats():
    assert parse_tile("32x48x6") == (32, 48, 6)
    assert parse_tile("64×64×14") == (64, 64, 14)
    for bad in ("32x48", "axbxc", "0x4x4", "4x4x4x4", ""):
        with pytest.raises(ValueError):
            parse_tile(bad)


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
    assert cfg.sap is True
    assert cfg.tap is False


def test_resolve_config_file_then_overrides(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("steps = 10\nseed = 3\nguidance = dssag\n")
    cfg = resolve_config(str(p), {"seed": 4, "scale": None})
    assert cfg.steps == 10
    assert cfg.seed == 4  # override wins
    assert cfg.guidance == "dssag"
    assert cfg.scale == 1.0  # None overrides are skipped


def test_resolve_config_tile_composite(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("tile = 16x24x4\n")
    cfg = resolve_config(str(p), None)
    assert (cfg.tile_h, cfg.tile_w, cfg.tile_frames) == (16, 24, 4)
    # a file setting the composite and an extent is ambiguous: rejected
    p2 = tmp_path / "run2.cfg"
    p2.write_text("tile = 16x24x4\ntile_h = 8\n")
    with pytest.raises(ValueError, match="tile_h"):
        resolve_config(str(p2), None)


def test_tile_override_beats_file_in_either_spelling(tmp_path):
    extents = tmp_path / "extents.cfg"
    extents.write_text("tile_h = 32\ntile_w = 40\n")
    cfg = resolve_config(str(extents), {"tile": "16x16x4"})
    assert (cfg.tile_h, cfg.tile_w, cfg.tile_frames) == (16, 16, 4)
    composite = tmp_path / "composite.cfg"
    composite.write_text("tile = 32x40x6\n")
    cfg = resolve_config(str(composite), {"tile_w": 8})
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
        RunConfig(guidance="loud")


def test_builders_produce_consistent_objects():
    cfg = RunConfig(steps=9, tile_h=16, tile_w=24, tile_frames=4, guidance="sag",
                    scale=2.0, rho=0.7, seed=5, codec_factor=2, down_factor=2,
                    patch_size=2, embed_dim=8, cond_dim=4)
    g = cfg.guidance_config()
    assert g.mode == "sag" and g.scale == 2.0 and g.rho == 0.7
    p = cfg.pipeline_config()
    assert p.steps == 9
    assert (p.tile_h, p.tile_w, p.tile_frames) == (16, 24, 4)
    assert p.guidance == g
    assert p.seed == 5
    d = cfg.degradation_config()
    assert d.down_factor == 2
    den = cfg.build_denoiser(channels=1)
    assert den.patch_size == 2
    assert den.cond_vector.shape == (4,)
    codec = cfg.build_codec()
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
    b = RunConfig(steps=12)
    assert a == b
    assert dataclasses.asdict(a)["steps"] == 12
