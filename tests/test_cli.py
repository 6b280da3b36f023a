"""End-to-end command-line behavior, run in process via cli.main()."""

import os

import numpy as np
import pytest

from tilevsr import cli, sampler
from tilevsr import io as tio
from tilevsr.config import KNOWN_KEYS
from tilevsr.guidance import GUIDANCE_MODES
from tilevsr.models import ToyAttentionDenoiser
from tilevsr.sampler import NumericError

# small-but-real sampling setup shared by the upscale/ablate tests: a couple
# of frames, a cheap denoiser, and a codec that keeps latents at 16x16
TINY_RUN_CFG = """
steps = 3
tile = 16x16x8
codec_factor = 2
embed_dim = 8
cond_dim = 4
noise_sigma = 0
"""


@pytest.fixture
def tiny_cfg(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_RUN_CFG)
    return str(path)


@pytest.fixture
def tiny_input(tmp_path):
    rng = np.random.default_rng(11)
    video = rng.uniform(0.0, 1.0, size=(2, 1, 8, 8))
    path = tmp_path / "lr.dcvt"
    tio.write_tensor(str(path), video)
    return str(path)


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------------------
# the parser and the config


@pytest.mark.parametrize("argv", [
    ["upscale", "in", "--out", "o"], ["degrade", "in", "--out", "o"], ["metrics", "a", "b"],
    ["ablate", "in"], ["fixture", "--out", "o"],
], ids=lambda argv: argv[0])
def test_the_config_keys_among_the_parser_dests_are_the_common_flags(argv):
    # main passes every parser dest that is a config key as an override
    args = cli.build_parser().parse_args(argv)
    assert {dest for dest in vars(args) if dest in KNOWN_KEYS} == {
        "seed", "steps", "tile", "guidance", "scale", "rho", "sap_rate", "tap_l"}


# ---------------------------------------------------------------------------
# fixture generation


def test_fixture_constant_writes_expected_artifacts(tmp_path, capsys):
    out = tmp_path / "fx"
    rc, stdout, _ = run_cli(
        capsys, "fixture", "--out", str(out),
        "--kind", "constant", "--size", "8x8", "--frames", "3",
        "--channels", "1", "--value", "0.5",
    )
    assert rc == 0
    assert stdout.startswith("# resolved config")
    assert f"hr={out / 'hr.dcvt'}" in stdout
    hr = tio.read_tensor(str(out / "hr.dcvt"))
    assert hr.shape == (3, 1, 8, 8)
    assert np.all(hr == np.float32(0.5))
    lr = tio.read_tensor(str(out / "lr.dcvt"))
    assert lr.shape == (3, 1, 2, 2)  # default down_factor=4
    for sub in ("hr", "lr"):
        names = os.listdir(out / sub)
        assert sorted(names) == [f"frame_{i:04d}.ppm" for i in range(3)] + ["video.dcvt"]
    spec = (out / "fixture.cfg").read_text()
    assert "kind=constant" in spec and "size=8x8" in spec
    run = (out / "run.cfg").read_text()
    assert "steps=25" in run


def test_fixture_texture_is_static_and_translate_rolls(tmp_path, capsys):
    out_tex = tmp_path / "tex"
    rc, _, _ = run_cli(
        capsys, "fixture", "--out", str(out_tex),
        "--kind", "texture", "--size", "8x8", "--frames", "4", "--channels", "1",
    )
    assert rc == 0
    hr = tio.read_tensor(str(out_tex / "hr.dcvt"))
    for i in range(1, 4):
        assert np.array_equal(hr[i], hr[0])

    out_tr = tmp_path / "tr"
    rc, _, _ = run_cli(
        capsys, "fixture", "--out", str(out_tr),
        "--kind", "translate", "--size", "8x8", "--frames", "4",
        "--channels", "1", "--shift", "1,2",
    )
    assert rc == 0
    hr = tio.read_tensor(str(out_tr / "hr.dcvt"))
    for i in range(4):
        assert np.array_equal(hr[i], np.roll(hr[0], (i * 1, i * 2), axis=(1, 2)))


def test_fixture_spec_file_with_flag_overrides(tmp_path, capsys):
    spec = tmp_path / "fixture.cfg"
    spec.write_text("kind = constant\nsize = 4x6\nframes = 2\nchannels = 1\nvalue = 0.25\n")
    out = tmp_path / "fx"
    rc, _, _ = run_cli(
        capsys, "fixture", "--out", str(out), "--spec", str(spec), "--frames", "3",
    )
    assert rc == 0
    hr = tio.read_tensor(str(out / "hr.dcvt"))
    assert hr.shape == (3, 1, 4, 6)  # frames flag beats the spec file
    assert np.all(hr == np.float32(0.25))


def test_fixture_is_seed_reproducible(tmp_path, capsys):
    args = ["--kind", "texture", "--size", "8x8", "--frames", "2", "--channels", "3"]
    rc, _, _ = run_cli(capsys, "fixture", "--out", str(tmp_path / "a"), *args)
    assert rc == 0
    rc, _, _ = run_cli(capsys, "fixture", "--out", str(tmp_path / "b"), *args)
    assert rc == 0
    rc, _, _ = run_cli(capsys, "fixture", "--out", str(tmp_path / "c"), "--seed", "9", *args)
    assert rc == 0
    a = (tmp_path / "a" / "hr.dcvt").read_bytes()
    b = (tmp_path / "b" / "hr.dcvt").read_bytes()
    c = (tmp_path / "c" / "hr.dcvt").read_bytes()
    assert a == b
    assert a != c


def test_fixture_rejects_unknown_kind(tmp_path, capsys):
    rc, _, err = run_cli(
        capsys, "fixture", "--out", str(tmp_path / "fx"), "--kind", "plasma",
    )
    assert rc == 2
    assert "" == err or "error" in err  # argparse choices reject before main body


@pytest.mark.parametrize("flags, spec_text", [
    pytest.param(["--value", "nan"], None, id="value-nan"),
    pytest.param(["--value", "inf"], None, id="value-inf"),
    pytest.param(["--frames", "0"], None, id="frames-0"),
    pytest.param(["--channels", "0"], None, id="channels-0"),
    pytest.param(["--channels", "2"], None, id="channels-2"),  # no PPM frame holds 2
    pytest.param(["--size", "0x8"], None, id="size-0x8"),
    pytest.param([], "kind = constant\nvalue = nan\n", id="spec-value-nan"),
    pytest.param([], "kind = foo\n", id="spec-kind-foo"),
])
def test_invalid_fixture_spec_exits_2_before_the_echo(tmp_path, capsys, flags, spec_text):
    argv = ["fixture", "--out", str(tmp_path / "fv"), "--kind", "constant", "--size", "8x8",
            "--frames", "1", *flags]
    if spec_text is not None:
        spec = tmp_path / "spec.cfg"
        spec.write_text(spec_text)
        argv = ["fixture", "--out", str(tmp_path / "fv"), "--spec", str(spec)]
    rc, stdout, err = run_cli(capsys, *argv)
    assert rc == 2
    assert err.startswith("error:")
    assert stdout == ""
    assert sorted(os.listdir(tmp_path)) == ([] if spec_text is None else ["spec.cfg"])


# ---------------------------------------------------------------------------
# upscale


def test_upscale_container_out_and_default_trace(tmp_path, tiny_cfg, tiny_input, capsys):
    out = tmp_path / "video.dcvt"
    rc, stdout, _ = run_cli(
        capsys, "upscale", tiny_input, "--out", str(out), "--config", tiny_cfg,
    )
    assert rc == 0
    assert stdout.startswith("# resolved config")
    video = tio.read_tensor(str(out))
    assert video.shape == (2, 1, 32, 32)  # x4 on 8x8
    assert np.all(np.isfinite(video))
    trace = tmp_path / "video.trace"
    assert f"trace={trace}" in stdout
    lines = trace.read_text().strip().splitlines()
    assert len(lines) == 3
    assert "ff_per_iter=" in stdout and "eps_calls=" in stdout


def test_upscale_is_byte_reproducible(tmp_path, tiny_cfg, tiny_input, capsys):
    out1, out2 = tmp_path / "a.dcvt", tmp_path / "b.dcvt"
    for out in (out1, out2):
        rc, _, _ = run_cli(
            capsys, "upscale", tiny_input, "--out", str(out), "--config", tiny_cfg,
        )
        assert rc == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_upscale_directory_out_writes_frames_and_trace_log(
    tmp_path, tiny_cfg, tiny_input, capsys
):
    out = tmp_path / "restored"
    rc, stdout, _ = run_cli(
        capsys, "upscale", tiny_input, "--out", str(out), "--config", tiny_cfg,
        "--steps", "2",
    )
    assert rc == 0
    names = sorted(os.listdir(out))
    assert names == ["frame_0000.ppm", "frame_0001.ppm", "trace.log", "video.dcvt"]
    assert f"trace={out / 'trace.log'}" in stdout
    assert len((out / "trace.log").read_text().strip().splitlines()) == 2
    # the lossless container holds the unclipped result at full precision
    video = tio.read_tensor(str(out / "video.dcvt"))
    assert video.shape == (2, 1, 32, 32)


def test_upscale_explicit_trace_path(tmp_path, tiny_cfg, tiny_input, capsys):
    trace = tmp_path / "logs" / "run.trace"
    rc, stdout, _ = run_cli(
        capsys, "upscale", tiny_input, "--out", str(tmp_path / "v.dcvt"),
        "--config", tiny_cfg, "--trace", str(trace),
    )
    assert rc == 0
    assert trace.exists()
    assert f"trace={trace}" in stdout


def test_upscale_missing_input_exits_2(tmp_path, capsys):
    rc, _, err = run_cli(
        capsys, "upscale", str(tmp_path / "nope.dcvt"), "--out", str(tmp_path / "o.dcvt"),
    )
    assert rc == 2
    assert err.startswith("error:")


def test_frame_header_with_huge_dims_exits_2(tmp_path, capsys):
    frames = tmp_path / "frames"
    frames.mkdir()
    (frames / "frame_0000.ppm").write_bytes(b"P6\n99999999999 99999999999\n255\n")
    rc, _, err = run_cli(capsys, "upscale", str(frames), "--out", str(tmp_path / "o.dcvt"))
    assert rc == 2
    assert err.startswith("error:") and "truncated raster" in err


def test_upscale_clamps_a_tile_to_whole_patches_of_a_small_latent(tmp_path, capsys, monkeypatch):
    # 12x12 at x4 through codec 8 is a 6x6 latent: the 64x64 tile clamps to
    # 4x4, a multiple of the default patch size 4, not to 6x6
    src = _write_video(tmp_path / "v.dcvt", np.random.default_rng(13).uniform(0.0, 1.0, (2, 1, 12, 12)))
    tile_dims = []
    real = sampler.plan_tiles
    monkeypatch.setattr(sampler, "plan_tiles", lambda dims, tile: tile_dims.append(tile) or real(dims, tile))
    out = tmp_path / "up.dcvt"
    rc, _, err = run_cli(capsys, "upscale", src, "--out", str(out), "--steps", "2")
    assert (rc, err) == (0, "")
    assert tile_dims == [(4, 4, 4)]
    assert tio.read_tensor(str(out)).shape == (2, 1, 48, 48)


def test_upscale_of_a_latent_smaller_than_one_patch_exits_2_before_any_forward(
    tmp_path, capsys, monkeypatch
):
    # 6x6 at x4 through codec 8 is a 3x3 latent, under one 4x4 patch
    src = _write_video(tmp_path / "v.dcvt", np.random.default_rng(14).uniform(0.0, 1.0, (2, 1, 6, 6)))
    forwards = []
    real = ToyAttentionDenoiser.denoise
    monkeypatch.setattr(ToyAttentionDenoiser, "denoise",
                        lambda self, *a, **k: forwards.append(1) or real(self, *a, **k))
    out = tmp_path / "up.dcvt"
    rc, _, err = run_cli(capsys, "upscale", src, "--out", str(out))
    assert rc == 2
    assert err.splitlines() == ["error: latent 3x3 is smaller than one 4x4 patch"]
    assert (forwards, out.exists()) == ([], False)


@pytest.mark.parametrize("error, code", [(NumericError, 3), (MemoryError, 2)])
def test_upscale_numeric_failure_exits_3(
    tmp_path, tiny_cfg, tiny_input, capsys, monkeypatch, error, code
):
    # out of memory is an input the machine cannot take: exit 2, not a traceback
    def boom(*args, **kwargs):
        raise error("cannot finish step 1")

    monkeypatch.setattr(cli, "sample_video", boom)
    rc, _, err = run_cli(
        capsys, "upscale", tiny_input, "--out", str(tmp_path / "o.dcvt"),
        "--config", tiny_cfg,
    )
    assert rc == code
    assert err.startswith("error:")


@pytest.mark.parametrize("verb", ["upscale", "degrade"])
@pytest.mark.parametrize("out_name", ["frames", "v.dcvt"])
def test_two_channel_input_needs_a_container_out(
    tmp_path, tiny_cfg, capsys, monkeypatch, verb, out_name
):
    # PPM/PFM frames hold 1 or 3 channels: a frame directory --out is refused
    # before any sampling or degrading; a .dcvt takes any channel count
    src = tmp_path / "two.dcvt"
    tio.write_tensor(str(src), np.random.default_rng(12).uniform(0.0, 1.0, size=(2, 2, 8, 8)))
    work = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            work.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("sample_video", "degrade"):
        monkeypatch.setattr(cli, name, counted(getattr(cli, name)))
    out = tmp_path / out_name
    rc, _, err = run_cli(capsys, verb, str(src), "--out", str(out), "--config", tiny_cfg)
    if out_name == "frames":
        assert rc == 2
        assert err.splitlines() == [f"error: frame directory {out} holds 1 or 3 channels, "
                                    f"the input has 2; write a .dcvt instead"]
        assert (work, out.exists()) == ([], False)
    else:
        assert rc == 0
        assert work == [{"upscale": "sample_video", "degrade": "degrade"}[verb]]
        assert tio.read_tensor(str(out)).shape[:2] == (2, 2)


# ---------------------------------------------------------------------------
# degrade


def test_degrade_identity_config_roundtrips(tmp_path, capsys):
    rng = np.random.default_rng(5)
    video = np.round(rng.uniform(0.0, 1.0, size=(2, 3, 8, 8)) * 255.0) / 255.0
    src = tmp_path / "in.dcvt"
    tio.write_tensor(str(src), video)
    cfg = tmp_path / "ident.cfg"
    cfg.write_text("blur_sigma = 0\ndown_factor = 1\nnoise_sigma = 0\n")
    out = tmp_path / "out.dcvt"
    rc, stdout, _ = run_cli(
        capsys, "degrade", str(src), "--out", str(out), "--config", str(cfg),
    )
    assert rc == 0
    assert stdout.startswith("# resolved config")
    assert "frames=2 height=8 width=8" in stdout
    got = tio.read_tensor(str(out))
    assert np.array_equal(got, video.astype(np.float32))


def test_degrade_downscales_by_factor(tmp_path, capsys):
    rng = np.random.default_rng(6)
    src = tmp_path / "in.dcvt"
    tio.write_tensor(str(src), rng.uniform(0.0, 1.0, size=(2, 1, 16, 16)))
    out = tmp_path / "lr.dcvt"
    rc, stdout, _ = run_cli(capsys, "degrade", str(src), "--out", str(out))
    assert rc == 0
    assert tio.read_tensor(str(out)).shape == (2, 1, 4, 4)
    assert "frames=2 height=4 width=4" in stdout


# ---------------------------------------------------------------------------
# metrics


def _write_video(path, video):
    tio.write_tensor(str(path), video)
    return str(path)


def test_metrics_identical_static_video_hits_ideal_values(tmp_path, capsys):
    video = cli.synthetic_video("texture", 3, 1, 16, 16, seed=4)
    gt = _write_video(tmp_path / "gt.dcvt", video)
    restored = _write_video(tmp_path / "restored.dcvt", video)
    rc, stdout, _ = run_cli(capsys, "metrics", gt, restored)
    assert rc == 0
    rows = dict(
        line.split("=", 1)
        for line in stdout.splitlines()
        if "=" in line and not line.startswith("#")
    )
    assert float(rows["psnr"]) == 99.0
    assert float(rows["ssim"]) == 1.0
    assert float(rows["tof"]) == 0.0
    assert float(rows["tlp"]) == 0.0
    assert float(rows["we"]) == 0.0


def test_metrics_shape_mismatch_exits_2(tmp_path, capsys):
    gt = _write_video(tmp_path / "gt.dcvt", np.zeros((2, 1, 8, 8)))
    restored = _write_video(tmp_path / "r.dcvt", np.zeros((2, 1, 8, 10)))
    rc, _, err = run_cli(capsys, "metrics", gt, restored)
    assert rc == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("pfm", [False, True], ids=["ppm", "pfm"])
def test_fixture_frame_directories_load_as_their_containers(tmp_path, capsys, pfm):
    fx = tmp_path / "fx"
    rc, _, _ = run_cli(capsys, "fixture", "--out", str(fx), "--size", "16x16", "--frames", "3",
                       *(["--pfm"] if pfm else []))
    assert rc == 0
    for name in ("hr", "lr"):
        names = os.listdir(fx / name)
        assert ("frame_0000.pfm" in names) == pfm
        assert (fx / name / "video.dcvt").read_bytes() == (fx / f"{name}.dcvt").read_bytes()
        assert np.array_equal(tio.load_video(str(fx / name)), tio.load_video(str(fx / f"{name}.dcvt")))


def test_metrics_of_a_fixture_container_and_its_frame_directory_is_exact(tmp_path, capsys):
    # without --pfm the 8-bit frames alone would score psnr=58.9
    fx = tmp_path / "fx"
    rc, _, _ = run_cli(capsys, "fixture", "--out", str(fx), "--size", "32x32", "--frames", "2")
    assert rc == 0
    rc, stdout, _ = run_cli(capsys, "metrics", str(fx / "hr.dcvt"), str(fx / "hr"))
    assert rc == 0
    assert "psnr=99" in stdout


def test_metrics_on_an_upscale_directory_reads_its_lossless_container(
    tmp_path, tiny_cfg, tiny_input, capsys
):
    out = tmp_path / "up"
    rc, _, _ = run_cli(capsys, "upscale", tiny_input, "--out", str(out), "--config", tiny_cfg)
    assert rc == 0
    restored = tio.read_tensor(str(out / "video.dcvt"))
    assert restored.min() < 0.0 or restored.max() > 1.0  # the 8-bit frames are clipped
    gt = _write_video(tmp_path / "gt.dcvt", np.full(restored.shape, 0.5))
    rc, from_dir, _ = run_cli(capsys, "metrics", gt, str(out))
    assert rc == 0
    rc, from_container, _ = run_cli(capsys, "metrics", gt, str(out / "video.dcvt"))
    assert rc == 0
    assert from_dir == from_container


def _count_flow_calls(monkeypatch):
    calls = []
    real = cli.block_match_flow

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "block_match_flow", spy)
    return calls


def test_metrics_computes_each_frame_pair_flow_once(tmp_path, capsys, monkeypatch):
    frames = 4
    video = cli.synthetic_video("translate", frames, 1, 16, 16, seed=2)
    gt = _write_video(tmp_path / "gt.dcvt", video)
    restored = _write_video(tmp_path / "r.dcvt", np.roll(video, 1, axis=0))
    calls = _count_flow_calls(monkeypatch)
    rc, _, _ = run_cli(capsys, "metrics", gt, restored)
    assert rc == 0
    assert len(calls) == 2 * (frames - 1)  # restored pairs once for tof and we, gt pairs once


def test_ablate_computes_ground_truth_flows_once_per_sweep(tmp_path, tiny_cfg, capsys, monkeypatch):
    frames, variants = 3, ("none", "sap", "tap")
    hr = cli.synthetic_video("translate", frames, 1, 32, 32, seed=3)
    gt = _write_video(tmp_path / "hr.dcvt", hr)
    src = _write_video(tmp_path / "lr.dcvt", hr[:, :, ::4, ::4])
    calls = _count_flow_calls(monkeypatch)
    rc, stdout, _ = run_cli(
        capsys, "ablate", src, "--gt", gt, "--config", tiny_cfg,
        "--variants", ",".join(variants), "--steps", "1",
    )
    assert rc == 0
    assert sum(ln.startswith("variant=") for ln in stdout.splitlines()) == len(variants)
    assert len(calls) == (frames - 1) + len(variants) * (frames - 1)


def test_metrics_single_frame_reports_na_for_temporal_rows(tmp_path, capsys):
    video = cli.synthetic_video("texture", 1, 1, 16, 16, seed=4)
    gt = _write_video(tmp_path / "gt.dcvt", video)
    restored = _write_video(tmp_path / "r.dcvt", video)
    rc, stdout, _ = run_cli(capsys, "metrics", gt, restored)
    assert rc == 0
    assert "psnr=99" in stdout
    for key in ("tof", "tlp", "we"):
        assert f"{key}=n/a" in stdout


# ---------------------------------------------------------------------------
# ablate


def test_ablate_reports_forward_pass_budgets(tmp_path, tiny_cfg, tiny_input, capsys):
    trace_base = tmp_path / "traces" / "run"
    rc, stdout, _ = run_cli(
        capsys, "ablate", tiny_input, "--config", tiny_cfg,
        "--variants", "dssag,sag,none", "--trace", str(trace_base), "--steps", "2",
    )
    assert rc == 0
    lines = [ln for ln in stdout.splitlines() if ln.startswith("variant=")]
    assert len(lines) == 3
    budgets = {}
    for line in lines:
        cells = dict(cell.split("=", 1) for cell in line.split())
        budgets[cells["variant"]] = float(cells["ff_per_iter"])
        assert "we" in cells
    assert budgets == {"dssag": 2.0, "sag": 3.0, "none": 1.0}
    for name in ("dssag", "sag", "none"):
        assert (tmp_path / "traces" / f"run.{name}").exists()


def test_ablate_with_ground_truth_reports_fidelity(tmp_path, tiny_cfg, capsys):
    hr = cli.synthetic_video("texture", 2, 1, 32, 32, seed=3)
    lr = hr[:, :, ::4, ::4]
    gt = _write_video(tmp_path / "hr.dcvt", hr)
    src = _write_video(tmp_path / "lr.dcvt", lr)
    rc, stdout, _ = run_cli(
        capsys, "ablate", src, "--gt", gt, "--config", tiny_cfg,
        "--variants", "none", "--steps", "2",
    )
    assert rc == 0
    line = next(ln for ln in stdout.splitlines() if ln.startswith("variant="))
    for key in ("psnr", "ssim", "tof", "tlp", "we"):
        assert f"{key}=" in line


@pytest.mark.parametrize("gt_shape", [(2, 1, 16, 16), (3, 1, 32, 32), (2, 3, 32, 32)])
def test_ablate_rejects_ground_truth_of_the_wrong_shape_before_sampling(
    tmp_path, tiny_cfg, tiny_input, capsys, monkeypatch, gt_shape
):
    calls = []
    real = cli.sample_video

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "sample_video", spy)
    gt = _write_video(tmp_path / "gt.dcvt", np.zeros(gt_shape))  # output is (2, 1, 32, 32)
    rc, _, err = run_cli(
        capsys, "ablate", tiny_input, "--gt", gt, "--config", tiny_cfg,
        "--variants", "none,sap", "--steps", "1",
    )
    assert rc == 2
    assert "does not match output (2, 1, 32, 32)" in err
    assert calls == []


def test_ablate_default_variant_list():
    parser = cli.build_parser()
    args = parser.parse_args(["ablate", "whatever.dcvt"])
    assert args.variants == "sap+tap+dssag,sap+tap,none"


def test_ablate_conflicting_guidance_toggles_exit_2(tmp_path, tiny_cfg, tiny_input, capsys):
    rc, _, err = run_cli(
        capsys, "ablate", tiny_input, "--config", tiny_cfg, "--variants", "dssag+sag",
    )
    assert rc == 2
    assert "conflicting" in err


def test_ablate_duplicate_toggle_exits_2(tmp_path, tiny_cfg, tiny_input, capsys):
    rc, _, err = run_cli(
        capsys, "ablate", tiny_input, "--config", tiny_cfg, "--variants", "sap+sap",
    )
    assert rc == 2
    assert "duplicate" in err


def test_parse_variant_canonical_forms():
    assert cli.parse_variant("none") == (
        "none", {"sap": False, "tap": False, "guidance": "none"})
    assert cli.parse_variant("sap+tap+dssag") == (
        "sap+tap+dssag", {"sap": True, "tap": True, "guidance": "dssag"})
    assert cli.parse_variant("pag") == (
        "pag", {"sap": False, "tap": False, "guidance": "pag"})
    with pytest.raises(ValueError):
        cli.parse_variant("warp")


@pytest.mark.parametrize("mode", [m for m in GUIDANCE_MODES if m != "none"])
def test_parse_variant_accepts_every_guidance_mode(mode):
    assert cli.parse_variant(f"sap+{mode}") == (
        f"sap+{mode}", {"sap": True, "tap": False, "guidance": mode})


def test_ablate_runs_the_default_guidance_mode(tmp_path, tiny_cfg, tiny_input, capsys):
    rc, stdout, _ = run_cli(
        capsys, "ablate", tiny_input, "--config", tiny_cfg, "--steps", "1",
        "--variants", "sap+tap+cfg_dssag",
    )
    assert rc == 0
    assert "variant=sap+tap+cfg_dssag " in stdout


# ---------------------------------------------------------------------------
# argument plumbing


def test_every_verb_echoes_resolved_config(tmp_path, tiny_cfg, tiny_input, capsys):
    video = cli.synthetic_video("texture", 2, 1, 16, 16, seed=1)
    src = _write_video(tmp_path / "v.dcvt", video)
    for argv in (
        ["degrade", src, "--out", str(tmp_path / "d.dcvt")],
        ["metrics", src, src],
        ["fixture", "--out", str(tmp_path / "fx"), "--kind", "constant", "--size", "4x4",
         "--frames", "1", "--channels", "1"],
        ["upscale", tiny_input, "--out", str(tmp_path / "u.dcvt"), "--config", tiny_cfg,
         "--steps", "1"],
        ["ablate", tiny_input, "--config", tiny_cfg, "--steps", "1", "--variants", "none"],
    ):
        rc, stdout, _ = run_cli(capsys, *argv)
        assert rc == 0 and stdout.startswith("# resolved config")
        assert stdout.count("# resolved config") == 1


def test_cli_flag_overrides_config_file(tmp_path, tiny_cfg, tiny_input, capsys):
    out = tmp_path / "v.dcvt"
    rc, stdout, _ = run_cli(
        capsys, "upscale", tiny_input, "--out", str(out), "--config", tiny_cfg,
        "--steps", "2", "--guidance", "none",
    )
    assert rc == 0
    echoed = dict(
        line.split("=", 1) for line in stdout.splitlines()
        if "=" in line and not line.startswith("#") and " " not in line.split("=", 1)[0]
    )
    assert echoed["steps"] == "2"
    assert echoed["guidance"] == "none"
    assert len((tmp_path / "v.trace").read_text().strip().splitlines()) == 2


def test_usage_errors_exit_2(capsys):
    assert cli.main([]) == 2
    capsys.readouterr()
    assert cli.main(["transmogrify"]) == 2
    capsys.readouterr()
    assert cli.main(["upscale"]) == 2  # missing input and --out
    capsys.readouterr()


@pytest.mark.parametrize("verb, flags", [
    ("fixture", ["--steps", "0"]),
    ("metrics", ["--scale", "nan"]),
    ("degrade", ["--sap-rate", "0"]),
    ("upscale", ["--tap-l", "0"]),
    ("ablate", ["--rho", "0"]),
])
def test_invalid_config_value_exits_2_before_the_echo(tmp_path, capsys, verb, flags):
    src = _write_video(tmp_path / "v.dcvt", cli.synthetic_video("texture", 2, 1, 8, 8))
    out = tmp_path / "out"
    argv = {
        "fixture": ["fixture", "--out", str(out)],
        "metrics": ["metrics", src, src],
        "degrade": ["degrade", src, "--out", str(out)],
        "upscale": ["upscale", src, "--out", str(out), "--trace", str(tmp_path / "t")],
        "ablate": ["ablate", src, "--trace", str(tmp_path / "t")],
    }[verb]
    rc, stdout, err = run_cli(capsys, *argv, *flags)
    assert rc == 2
    assert err.startswith("error:")
    assert "# resolved config" not in stdout
    assert sorted(os.listdir(tmp_path)) == ["v.dcvt"]  # nothing written


@pytest.mark.parametrize("verb", ["degrade", "metrics", "fixture"])
def test_trace_is_a_usage_error_on_verbs_that_write_no_trace(tmp_path, capsys, verb):
    src = _write_video(tmp_path / "v.dcvt", cli.synthetic_video("texture", 2, 1, 8, 8))
    out = str(tmp_path / "out")
    argv = {
        "degrade": ["degrade", src, "--out", out],
        "metrics": ["metrics", src, src],
        "fixture": ["fixture", "--out", out],
    }[verb]
    rc, stdout, err = run_cli(capsys, *argv, "--trace", str(tmp_path / "t"))
    assert rc == 2
    assert "unrecognized arguments: --trace" in err
    assert stdout == ""
    assert sorted(os.listdir(tmp_path)) == ["v.dcvt"]


@pytest.mark.parametrize("line", [
    "embed_dim = 0", "embed_dim = 7", "patch_size = 0", "spatial_layers = 3", "cond_dim = 0",
    "flow_block = 0", "flow_radius = -1",
    "blur_sigma = nan", "noise_sigma = nan", "rho = inf", "sag_blur_sigma = nan",
    "schedule_exponent = nan", "sigma_data = nan", "sigma_max = inf", "mask_sigma_fraction = inf",
    "mask_sigma_fraction = 0.01",  # finite and > 0, but the default tile's mask underflows
    "tile = 6x6x4", "patch_size = 5",  # the tile is not a multiple of the patch size
])
def test_invalid_denoiser_or_metric_setting_exits_2_before_the_echo(tmp_path, capsys, line):
    bad = tmp_path / "bad.cfg"
    bad.write_text(line + "\n")
    out = tmp_path / "out"
    rc, stdout, err = run_cli(capsys, "fixture", "--out", str(out), "--config", str(bad))
    assert rc == 2
    assert err.startswith("error:")
    assert "# resolved config" not in stdout
    assert not (out / "run.cfg").exists()


def test_blend_mask_that_underflows_exits_2_before_the_first_step(tmp_path, tiny_input, capsys):
    # mask_sigma_fraction = 0.01 passes the range check, but the configured
    # (8, 16, 16) tile's corner weight underflows to 0 (merge would divide 0
    # by 0); the configured tile is the largest a run can use, so the config
    # is refused before the echo, although this input clamps the tile to (4, 16, 16)
    cfg = tmp_path / "narrow.cfg"
    cfg.write_text(TINY_RUN_CFG + "mask_sigma_fraction = 0.01\n")
    out = tmp_path / "o.dcvt"
    rc, stdout, err = run_cli(capsys, "upscale", tiny_input, "--out", str(out), "--config", str(cfg))
    assert rc == 2
    assert "# resolved config" not in stdout
    assert err.splitlines() == [
        "error: sigma_fraction 0.01 underflows the blend mask of tile dims (8, 16, 16): "
        "corner weight 0"
    ]
    assert not out.exists()


def test_oversized_tile_still_means_one_tile(tmp_path, tiny_cfg, tiny_input, capsys):
    # the blend-mask check reads three per-axis weights, not a mask of the
    # configured tile, so a tile far larger than any video costs nothing
    huge = "100000x100000x1000"
    rc, stdout, _ = run_cli(capsys, "metrics", tiny_input, tiny_input, "--tile", huge)
    assert rc == 0
    assert "tile_h=100000" in stdout.splitlines() and "psnr=99" in stdout.splitlines()
    out = tmp_path / "o.dcvt"
    rc, _, _ = run_cli(capsys, "upscale", tiny_input, "--out", str(out), "--config", tiny_cfg,
                       "--tile", huge)
    assert rc == 0
    assert tio.read_tensor(str(out)).shape == (2, 1, 32, 32)


def test_unknown_guidance_mode_exits_2(tmp_path, tiny_input, capsys):
    rc, _, err = run_cli(
        capsys, "upscale", tiny_input, "--out", str(tmp_path / "o.dcvt"),
        "--guidance", "shout",
    )
    assert rc == 2
    assert err.startswith("error:")
