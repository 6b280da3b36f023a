"""Sigma schedule, preconditioning, Euler stepping, and the tiled pipeline."""

import os
import sys
import threading

import numpy as np
import pytest

from tilevsr import cli
from tilevsr.attention import select_tap_frames, subsample_spatial_kv
from tilevsr.guidance import GUIDANCE_BRANCHES, GUIDANCE_MODES, GuidanceConfig
from tilevsr.io import write_tensor
from tilevsr.models import (
    AnalyticGaussianDenoiser,
    DenoiseResult,
    ToyAttentionDenoiser,
    ToyCodec,
)
from tilevsr.sampler import (
    NumericError,
    PipelineConfig,
    RunStats,
    _tap_injections,
    build_sigma_schedule,
    denoise_pass_plain,
    denoise_pass_sap,
    denoise_pass_tap,
    ode_step,
    precondition,
    sample_video,
)
from tilevsr.tiles import gaussian_mask, interleave, merge, plan_tiles, split


def small_toy(channels=1):
    return ToyAttentionDenoiser(
        seed=7, channels=channels, patch_size=2, embed_dim=8,
        spatial_layers=4, cond_dim=4,
    )


def pipe_cfg(**kw):
    defaults = dict(
        steps=4, tile_frames=4, tile_h=4, tile_w=4, sap=True, tap=True,
        sap_rate=2, tap_frames=2, guidance=GuidanceConfig(mode="none"),
        seed=0, sigma_min=0.1, sigma_max=80.0, schedule_exponent=7.0,
        upscale_factor=1,
    )
    defaults.update(kw)
    return PipelineConfig(**defaults)


# --- sigma schedule ---------------------------------------------------------

def test_schedule_endpoints_are_exact():
    sched = build_sigma_schedule(25)
    assert len(sched.sigmas) == 26
    assert sched.sigmas[0] == 700.0
    assert sched.sigmas[-1] == 0.002
    assert np.all(np.diff(sched.sigmas) < 0)


def test_schedule_linear_case():
    sched = build_sigma_schedule(2, sigma_min=1.0, sigma_max=3.0, exponent=1.0)
    assert np.allclose(sched.sigmas, [3.0, 2.0, 1.0], atol=1e-12)


def test_schedule_validation():
    with pytest.raises(ValueError):
        build_sigma_schedule(0)
    with pytest.raises(ValueError):
        build_sigma_schedule(5, sigma_min=2.0, sigma_max=1.0)
    with pytest.raises(ValueError):
        build_sigma_schedule(5, sigma_min=0.0, sigma_max=1.0)


# --- preconditioning --------------------------------------------------------

def test_precondition_unit_oracle():
    pc = precondition(1.0, 1.0)
    assert pc.c_skip == 0.5
    assert abs(pc.c_out - 2.0 ** -0.5) < 1e-15
    assert abs(pc.c_in - 2.0 ** -0.5) < 1e-15
    assert pc.c_noise == 0.0


def test_precondition_identity_and_limits():
    for sigma in (1e-6, 0.01, 0.5, 3.0, 700.0):
        pc = precondition(sigma, 0.5)
        assert abs(pc.c_in * np.sqrt(sigma * sigma + 0.25) - 1.0) < 1e-12
    tiny = precondition(1e-9, 0.5)
    assert abs(tiny.c_skip - 1.0) < 1e-12
    assert tiny.c_out < 1e-8
    with pytest.raises(ValueError):
        precondition(0.0, 0.5)
    with pytest.raises(ValueError):
        precondition(1.0, 0.0)


# --- Euler step -------------------------------------------------------------

def test_ode_step_fixed_point_and_zero_width():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 1, 3, 3))
    assert np.array_equal(ode_step(x, x.copy(), 2.0, 1.0), x)
    assert np.array_equal(ode_step(x, rng.standard_normal(x.shape), 2.0, 2.0), x)


def test_ode_step_scalar_case():
    out = ode_step(np.array([2.0]), np.array([0.0]), 2.0, 1.0)
    assert out[0] == 1.0


def test_ode_step_ordering_errors():
    x = np.zeros((2,))
    with pytest.raises(ValueError):
        ode_step(x, x, 1.0, 2.0)
    with pytest.raises(ValueError):
        ode_step(x, x, 0.0, 0.0)
    with pytest.raises(ValueError):
        ode_step(x, x, 1.0, -0.5)


# --- pipeline configuration -------------------------------------------------

def test_pipeline_config_validation(tmp_path, capsys):
    with pytest.raises(ValueError):
        pipe_cfg(steps=0)
    # TAP hands K/V to the immediate neighbour only; there is no range knob
    lr = tmp_path / "lr.dcvt"
    write_tensor(str(lr), np.full((2, 1, 8, 8), 0.5))
    config = tmp_path / "run.cfg"
    config.write_text("tap_range = 1\n")
    rc = cli.main(["upscale", str(lr), "--out", str(tmp_path / "o.dcvt"), "--config", str(config)])
    assert rc == 2
    assert "unknown key 'tap_range'" in capsys.readouterr().err
    with pytest.raises(ValueError):
        pipe_cfg(tile_schedule="zigzag")
    with pytest.raises(ValueError):
        pipe_cfg(sap_rate=0)
    with pytest.raises(ValueError):
        pipe_cfg(tap_frames=0)


# --- full pipeline ----------------------------------------------------------

def test_single_tile_matches_untiled_reference():
    rng = np.random.default_rng(1)
    lr = rng.uniform(0.1, 0.9, size=(2, 1, 8, 8))
    toy = small_toy()
    codec = ToyCodec(2)
    cfg = pipe_cfg(steps=5, sap=False, tap=False)
    got = sample_video(lr, toy, codec, cfg)

    # hand-rolled reference without any tiling machinery
    l = codec.encode(lr.astype(np.float64))
    sched = build_sigma_schedule(5, 0.1, 80.0, 7.0)
    x = np.random.default_rng(0).standard_normal(l.shape) * 80.0
    for i in range(5):
        sigma, sigma_next = float(sched.sigmas[i]), float(sched.sigmas[i + 1])
        y = interleave(x, l)
        res = toy.denoise(y, toy.cond_vector, sigma)
        eps = (y - res.denoised) / sigma
        x = ode_step(x, x - sigma * eps[0::2], sigma, sigma_next)
    ref = codec.decode(x)
    assert got.video.shape == ref.shape
    assert np.max(np.abs(got.video - ref)) <= 1e-6


def test_single_step_analytic_euler():
    den = AnalyticGaussianDenoiser(mu=0.3, sigma_data=0.5)
    lr = np.full((1, 1, 8, 8), 0.5)
    cfg = pipe_cfg(steps=1, tile_frames=2, tile_h=8, tile_w=8,
                   sap=False, tap=False, sigma_min=0.5, sigma_max=10.0)
    got = sample_video(lr, den, ToyCodec(1), cfg)
    x0 = np.random.default_rng(0).standard_normal((1, 1, 8, 8)) * 10.0
    d0 = den.denoise(x0, None, 10.0).denoised
    ref = ode_step(x0, d0, 10.0, 0.5)
    assert np.max(np.abs(got.video - ref)) <= 1e-6


def test_seeded_runs_are_bit_identical():
    rng = np.random.default_rng(2)
    lr = rng.uniform(0.0, 1.0, size=(2, 1, 8, 8))
    toy = small_toy()
    codec = ToyCodec(2)
    a = sample_video(lr, toy, codec, pipe_cfg(steps=4))
    b = sample_video(lr, toy, codec, pipe_cfg(steps=4))
    par = sample_video(lr, toy, codec, pipe_cfg(steps=4, workers=4))
    rev = sample_video(lr, toy, codec, pipe_cfg(steps=4, tile_schedule="descending"))
    assert a.video.tobytes() == b.video.tobytes()
    assert a.video.tobytes() == par.video.tobytes()
    assert a.video.tobytes() == rev.video.tobytes()
    assert a.trace == b.trace


def test_trace_alternation_and_gamma_monotone():
    rng = np.random.default_rng(3)
    lr = rng.uniform(0.0, 1.0, size=(2, 1, 8, 8))
    toy = small_toy()
    res = sample_video(lr, toy, ToyCodec(2), pipe_cfg(steps=6))
    assert len(res.trace) == 6
    fields = [dict(kv.split("=") for kv in line.split()) for line in res.trace]
    assert [f["scheme"] for f in fields] == ["sap", "tap"] * 3
    assert [f["direction"] for f in fields] == ["-", "forward", "-", "backward", "-", "forward"]
    gammas = [float(f["gamma"]) for f in fields]
    assert all(a >= b for a, b in zip(gammas, gammas[1:]))
    sigmas = [float(f["sigma"]) for f in fields]
    assert all(a > b for a, b in zip(sigmas, sigmas[1:]))


def test_trace_marks_disabled_slots_as_none():
    rng = np.random.default_rng(4)
    lr = rng.uniform(0.0, 1.0, size=(2, 1, 8, 8))
    toy = small_toy()
    res = sample_video(lr, toy, ToyCodec(2), pipe_cfg(steps=4, sap=False))
    fields = [dict(kv.split("=") for kv in line.split()) for line in res.trace]
    assert [f["scheme"] for f in fields] == ["none", "tap", "none", "tap"]


def test_feedforward_counts_per_mode():
    rng = np.random.default_rng(5)
    lr = rng.uniform(0.0, 1.0, size=(2, 1, 8, 8))
    toy = small_toy()
    codec = ToyCodec(2)
    expected = {"none": 1.0, "cfg": 2.0, "dssag": 2.0, "cfg_dssag": 2.0, "sag": 3.0, "pag": 3.0}
    for mode, ff in expected.items():
        cfg = pipe_cfg(steps=4, guidance=GuidanceConfig(mode=mode))
        res = sample_video(lr, toy, codec, cfg)
        assert res.stats.ff_per_iter == ff, mode
        assert res.stats.tile_units == 4


class ForwardSpy:
    """Records each forward's conditioning, hook settings and input."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def denoise(self, x, c=None, sigma=1.0, injected=None, gamma=0.0, identity=False,
                collect_kv=False, collect_attention=False):
        self.calls.append((np.array(x), c is not None, gamma, identity, collect_attention))
        return self.inner.denoise(
            x, c, sigma, injected=injected, gamma=gamma, identity=identity,
            collect_kv=collect_kv, collect_attention=collect_attention,
        )


@pytest.mark.parametrize("mode", GUIDANCE_MODES)
def test_forwards_follow_their_branch_row(mode):
    lr = np.random.default_rng(5).uniform(0.0, 1.0, size=(2, 1, 8, 8))
    codec = ToyCodec(2)
    cfg = pipe_cfg(steps=1, sap=False, tap=False, guidance=GuidanceConfig(mode=mode))
    spy = ForwardSpy(small_toy())
    sample_video(lr, spy, codec, cfg)
    # one tile covers the whole interleaved latent; gamma_t = 1 at step 0
    latent = codec.encode(lr)
    noise = np.random.default_rng(cfg.seed).standard_normal(latent.shape) * cfg.sigma_max
    tile_data = interleave(noise, latent)
    row = GUIDANCE_BRANCHES[mode]
    got = [(cond, gamma > 0, identity, not np.array_equal(x, tile_data), attention)
           for x, cond, gamma, identity, attention in spy.calls]
    wants_map = any(b.blurred for b in row)
    assert got == [(b.conditional, b.tempered, b.identity, b.blurred, wants_map and i == 0)
                   for i, b in enumerate(row)]


def test_sag_needs_a_denoiser_with_attention_layers():
    lr = np.full((2, 1, 8, 8), 0.5)
    cfg = pipe_cfg(steps=2, sap=False, tap=False, guidance=GuidanceConfig(mode="sag"))
    with pytest.raises(ValueError):
        sample_video(lr, AnalyticGaussianDenoiser(), ToyCodec(2), cfg)


def test_pass_counts_exact_under_thread_contention():
    # 27 tiles per step (3x3 spatial x 3 temporal), cfg = 2 passes per tile;
    # step 0 runs SAP (plus one gather per tile), step 1 TAP.
    lr = np.random.default_rng(6).uniform(0.0, 1.0, size=(2, 1, 16, 16))
    cfg = pipe_cfg(steps=2, tile_frames=2, guidance=GuidanceConfig(mode="cfg"),
                   workers=4 * (os.cpu_count() or 1))
    got = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        worker = threading.Thread(
            target=lambda: got.update(res=sample_video(lr, small_toy(), ToyCodec(2), cfg)),
            daemon=True,
        )
        worker.start()
        worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not worker.is_alive(), "sampling did not finish within 120 s"
    stats = got["res"].stats
    assert (stats.eps_calls, stats.gather_calls, stats.tile_units) == (108, 27, 54)


def test_non_finite_denoiser_output_raises():
    class BrokenDenoiser:
        hook_layers = ()
        cond_vector = None

        def denoise(self, x, c=None, sigma=1.0, injected=None, gamma=0.0, identity=False,
                    collect_kv=False, collect_attention=False):
            bad = np.full_like(np.asarray(x, dtype=np.float64), np.nan)
            return DenoiseResult(bad, None, None, None)

    lr = np.full((2, 1, 8, 8), 0.5)
    with pytest.raises(NumericError):
        sample_video(lr, BrokenDenoiser(), ToyCodec(2), pipe_cfg(steps=2, sap=False, tap=False))


# --- propagation passes -----------------------------------------------------

def test_injected_rows_match_token_major_selection():
    # hook-layer K/V are (frames, gh, gw, d); the rows SAP and TAP inject must
    # be those of the flat token-major layout, token (f, y, x) at row
    # f*gh*gw + y*gw + x, in ascending row order
    rng = np.random.default_rng(21)
    for trial in range(60):
        frames, gh, gw = (int(n) for n in rng.integers(1, 7, size=3))
        d, dv = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        keys = rng.standard_normal((frames, gh, gw, d))
        values = rng.standard_normal((frames, gh, gw, dv))
        if trial % 3 == 0 and frames >= 2:
            keys[-1] = keys[0]  # an exact spread tie
        flat_k = keys.reshape(frames * gh * gw, d)
        flat_v = values.reshape(frames * gh * gw, dv)

        rate = int(rng.integers(1, 8))
        kept = [f * gh * gw + y * gw + x
                for f in range(frames) for y in range(0, gh, rate) for x in range(0, gw, rate)]
        sap = subsample_spatial_kv(keys, values, rate)
        assert np.array_equal(sap.keys, flat_k[kept])
        assert np.array_equal(sap.values, flat_v[kept])

        l_frames = int(rng.integers(1, 9))
        per_frame = gh * gw
        chosen = select_tap_frames(
            [flat_k[f * per_frame:(f + 1) * per_frame] for f in range(frames)], min(l_frames, frames),
        )
        rows = [f * per_frame + t for f in chosen for t in range(per_frame)]
        result = DenoiseResult(None, keys={3: keys}, values={3: values})
        tap = _tap_injections(result, l_frames, (3,))[3]
        assert np.array_equal(tap.keys, flat_k[rows])
        assert np.array_equal(tap.values, flat_v[rows])


def test_spatial_rate_one_single_frame_tile_matches_plain():
    # one tile, one frame: the aggregated K/V are an exact duplicate of the
    # tile's own rows, and duplicate keys reweight without changing the output
    rng = np.random.default_rng(6)
    y = rng.standard_normal((1, 1, 8, 8))
    grid = plan_tiles((1, 8, 8), (1, 8, 8))
    tiles = split(y, grid)
    toy = small_toy()
    cfg = pipe_cfg(tile_frames=1, tile_h=8, tile_w=8, sap_rate=1)
    sap_out = denoise_pass_sap(tiles, toy, cfg, 1.0, 0.4, RunStats())
    plain_out = denoise_pass_plain(tiles, toy, cfg, 1.0, 0.4, RunStats())
    diff = np.max(np.abs(sap_out[0].data - plain_out[0].data))
    assert diff <= 1e-5


def test_spatial_pass_identical_tiles_get_identical_eps():
    rng = np.random.default_rng(7)
    base = rng.standard_normal((2, 1, 4, 2))
    y = np.tile(base, (1, 1, 1, 4))  # x-periodic: every tile sees the same data
    grid = plan_tiles((2, 4, 8), (2, 4, 4))
    tiles = split(y, grid)
    assert grid.n_spatial == 3
    toy = small_toy()
    cfg = pipe_cfg(tile_frames=2, tile_h=4, tile_w=4)
    out = denoise_pass_sap(tiles, toy, cfg, 1.0, 0.2, RunStats())
    assert np.array_equal(out[0].data, out[1].data)
    assert np.array_equal(out[0].data, out[2].data)


def test_temporal_pass_time_reversal_symmetry():
    rng = np.random.default_rng(8)
    y = rng.standard_normal((8, 1, 8, 8))
    grid = plan_tiles((8, 8, 8), (4, 8, 8))
    assert grid.offsets_t == (0, 2, 4)
    mask = gaussian_mask((4, 8, 8), 0.25)
    toy = small_toy()
    cfg = pipe_cfg(tile_frames=4, tile_h=8, tile_w=8, tap_frames=2)

    fwd = denoise_pass_tap(split(y, grid), toy, cfg, 1.0, 0.3, "forward", RunStats())
    rev_in = y[::-1].copy()
    bwd = denoise_pass_tap(split(rev_in, grid), toy, cfg, 1.0, 0.3, "backward", RunStats())

    eps_fwd = merge(fwd, grid, mask)
    eps_bwd = merge(bwd, grid, mask)
    assert np.max(np.abs(eps_fwd - eps_bwd[::-1])) <= 1e-5


def test_temporal_pass_single_tile_is_plain():
    rng = np.random.default_rng(9)
    y = rng.standard_normal((4, 1, 8, 8))
    grid = plan_tiles((4, 8, 8), (4, 8, 8))
    tiles = split(y, grid)
    toy = small_toy()
    cfg = pipe_cfg(tile_frames=4, tile_h=8, tile_w=8)
    tap_out = denoise_pass_tap(tiles, toy, cfg, 1.0, 0.3, "forward", RunStats())
    plain_out = denoise_pass_plain(tiles, toy, cfg, 1.0, 0.3, RunStats())
    assert np.array_equal(tap_out[0].data, plain_out[0].data)
