"""Sigma schedule, preconditioning, Euler stepping, and the tiled pipeline."""

import dataclasses
import gc
import os
import sys
import threading
import weakref

import numpy as np
import pytest

from tilevsr import cli, sampler
from tilevsr.attention import select_tap_frames, subsample_spatial_kv
from tilevsr.guidance import GUIDANCE_BRANCHES, GUIDANCE_MODES, GuidanceConfig
from tilevsr.io import write_tensor
from tilevsr.models import (
    AnalyticGaussianDenoiser,
    DenoiseResult,
    ToyAttentionDenoiser,
    ToyCodec,
    precondition,
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
    sample_video,
)
from tilevsr.tiles import Blend, gaussian_mask, interleave, plan_tiles, split


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
    sigmas = build_sigma_schedule(25)
    assert sigmas.dtype == np.float64
    assert len(sigmas) == 26
    assert sigmas[0] == 700.0
    assert sigmas[-1] == 0.002
    assert np.all(np.diff(sigmas) < 0)


def test_schedule_linear_case():
    sigmas = build_sigma_schedule(2, sigma_min=1.0, sigma_max=3.0, exponent=1.0)
    assert np.allclose(sigmas, [3.0, 2.0, 1.0], atol=1e-12)


def test_schedule_validation():
    with pytest.raises(ValueError):
        build_sigma_schedule(0)
    with pytest.raises(ValueError):
        build_sigma_schedule(5, sigma_min=2.0, sigma_max=1.0)
    with pytest.raises(ValueError):
        build_sigma_schedule(5, sigma_min=0.0, sigma_max=1.0)


def test_schedule_rejects_steps_too_fine_to_descend():
    # 1000 steps across a gap of 1e-12 round to repeated sigmas
    with pytest.raises(ValueError, match="strictly descending"):
        build_sigma_schedule(1000, 1.0, 1.0 + 1e-12)


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
    # TAP hands K/V to the immediate neighbour only, so there is no range
    # knob; the order tiles run in cannot change the output, so it is no setting
    lr = tmp_path / "lr.dcvt"
    write_tensor(str(lr), np.full((2, 1, 8, 8), 0.5))
    config = tmp_path / "run.cfg"
    for key in ("tap_range", "tile_schedule"):
        config.write_text(f"{key} = 1\n")
        rc = cli.main(["upscale", str(lr), "--out", str(tmp_path / "o.dcvt"), "--config", str(config)])
        assert rc == 2
        assert f"unknown key '{key}'" in capsys.readouterr().err
    with pytest.raises(ValueError):
        pipe_cfg(sap_rate=0)
    with pytest.raises(ValueError):
        pipe_cfg(tap_frames=0)


# Every sampler setting but `workers` must reach the output bytes: field ->
# (another value, the guidance mode the field acts in).
SETTING_CHANGES = {
    "steps": (3, "none"),
    "tile_frames": (2, "none"),
    "tile_h": (8, "none"),
    "tile_w": (8, "none"),
    "sap": (False, "none"),
    "tap": (False, "none"),
    "sap_rate": (1, "none"),
    "tap_frames": (1, "none"),
    "seed": (1, "none"),
    "sigma_min": (0.2, "none"),
    "sigma_max": (40.0, "none"),
    "schedule_exponent": (5.0, "none"),
    "upscale_factor": (2, "none"),
    "mask_sigma_fraction": (0.5, "none"),
    "mode": ("cfg", "none"),
    "scale": (2.0, "cfg"),
    "rho": (0.25, "dssag"),
    "sag_blur_sigma": (1.0, "sag"),
    "sag_mask_quantile": (0.75, "sag"),
}
GUIDANCE_FIELDS = {f.name for f in dataclasses.fields(GuidanceConfig)}


@pytest.mark.parametrize("name", [
    f.name for cls in (PipelineConfig, GuidanceConfig) for f in dataclasses.fields(cls)
    if f.name not in ("guidance", "workers")  # workers may not change a bit
])
def test_every_sampler_setting_changes_the_output(name):
    assert name in SETTING_CHANGES, f"no value for {name}: does sample_video read it?"
    value, mode = SETTING_CHANGES[name]
    lr = np.random.default_rng(8).uniform(0.0, 1.0, size=(4, 1, 8, 8))  # 3x3x3 tiles

    def run(**change) -> bytes:
        guidance = GuidanceConfig(**{"mode": mode, **{k: v for k, v in change.items()
                                                      if k in GUIDANCE_FIELDS}})
        # two steps: one SAP, one TAP
        cfg = pipe_cfg(**{"steps": 2, "guidance": guidance,
                          **{k: v for k, v in change.items() if k not in GUIDANCE_FIELDS}})
        return sample_video(lr, small_toy(), ToyCodec(1), cfg).video.tobytes()

    assert run() != run(**{name: value})


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
    sigmas = build_sigma_schedule(5, 0.1, 80.0, 7.0)
    x = np.random.default_rng(0).standard_normal(l.shape) * 80.0
    for i in range(5):
        sigma, sigma_next = float(sigmas[i]), float(sigmas[i + 1])
        y = interleave(x, l)
        res = toy.denoise(y[None], True, sigma)
        eps = (y - res.denoised[0]) / sigma
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
    d0 = den.denoise(x0, False, 10.0).denoised
    ref = ode_step(x0, d0, 10.0, 0.5)
    assert np.max(np.abs(got.video - ref)) <= 1e-6


def test_seeded_runs_are_bit_identical(reverse_tiles):
    # a 16x16 clip through ToyCodec(2) is an 8x8 latent: several 4x4 tiles
    # per SAP group, so the order their gathers are aggregated in shows
    rng = np.random.default_rng(2)
    lr = rng.uniform(0.0, 1.0, size=(2, 1, 16, 16))
    toy = small_toy()
    codec = ToyCodec(2)
    a = sample_video(lr, toy, codec, pipe_cfg(steps=4))
    b = sample_video(lr, toy, codec, pipe_cfg(steps=4))
    par = sample_video(lr, toy, codec, pipe_cfg(steps=4, workers=4))
    reached = reverse_tiles()
    rev = sample_video(lr, toy, codec, pipe_cfg(steps=4))
    assert set(reached) == {"gather", "run_stack"}  # the SAP gather runs reversed too
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
    """Records each forward's conditioning, hook settings and input, one
    record per tile of the stack the forward runs on."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def denoise(self, x, conditional=False, sigma=1.0, injected=None, gamma=0.0, identity=False,
                collect_kv=False, collect_attention=False):
        self.calls.extend((np.array(tile_x), conditional, gamma, identity, collect_attention)
                          for tile_x in x)
        return self.inner.denoise(
            x, conditional, sigma, injected=injected, gamma=gamma, identity=identity,
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


def test_hook_layers_and_cond_vector_are_not_constructor_options():
    # both follow from the model: the architecture fixes the hook layers and
    # the seed draws the conditioning vector
    with pytest.raises(TypeError):
        AnalyticGaussianDenoiser(hook_layers=(0,))
    with pytest.raises(TypeError):
        ToyAttentionDenoiser(cond_vector=np.zeros(8))
    lr = np.full((2, 1, 8, 8), 0.5)
    for sap, tap in ((True, False), (False, True)):
        cfg = pipe_cfg(steps=2, tile_frames=1, sap=sap, tap=tap)
        with pytest.raises(ValueError, match="propagation needs a denoiser with hook layers"):
            sample_video(lr, AnalyticGaussianDenoiser(), ToyCodec(2), cfg)


def test_pass_counts_exact_under_thread_contention():
    # 27 tiles per step (3x3 spatial x 3 temporal), cfg = 2 passes per tile;
    # step 0 runs SAP (plus one gather per tile), step 1 TAP. The threads'
    # estimates are merged and counted as they arrive, so a lost or doubled
    # merge would show in the bytes, and a lost count in the counters.
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
    serial = sample_video(lr, small_toy(), ToyCodec(2), dataclasses.replace(cfg, workers=1))
    assert got["res"].video.tobytes() == serial.video.tobytes()


def test_non_finite_denoiser_output_raises():
    class BrokenDenoiser:
        hook_layers = ()

        def denoise(self, x, conditional=False, sigma=1.0, injected=None, gamma=0.0, identity=False,
                    collect_kv=False, collect_attention=False):
            bad = np.full_like(np.asarray(x, dtype=np.float64), np.nan)
            return DenoiseResult(bad, None, None, None)

    lr = np.full((2, 1, 8, 8), 0.5)
    with pytest.raises(NumericError, match=r"noise estimate at step 0, tile \(0, 0\)"):
        sample_video(lr, BrokenDenoiser(), ToyCodec(2), pipe_cfg(steps=2, sap=False, tap=False))


def test_non_finite_conditioning_frame_estimate_raises():
    # only the noise frames are blended, but every frame of a stack's
    # estimate is checked: a NaN on a conditioning frame (frame 1 of a tile
    # that starts on frame 0) still stops the run
    class ConditioningNaN:
        hook_layers = ()

        def denoise(self, x, conditional=False, sigma=1.0, **kw):
            out = np.zeros_like(np.asarray(x, dtype=np.float64))
            out[0, 1, 0, 0, 0] = np.nan
            return DenoiseResult(out, None, None, None)

    lr = np.full((2, 1, 8, 8), 0.5)
    cfg = pipe_cfg(steps=2, sap=False, tap=False)
    with pytest.raises(NumericError, match=r"noise estimate at step 0, tile \(0, 0\)"):
        sample_video(lr, ConditioningNaN(), ToyCodec(2), cfg)


def test_non_finite_gathered_kv_names_its_tile():
    class BrokenGather:
        """Puts a NaN into the first hook layer's keys of the second tile of
        every gather stack."""

        def __init__(self, inner):
            self.inner = inner

        def __getattr__(self, name):
            return getattr(self.inner, name)

        def denoise(self, x, conditional=False, sigma=1.0, kv_only=False, **kw):
            result = self.inner.denoise(x, conditional, sigma, kv_only=kv_only, **kw)
            if kv_only:
                result.keys[self.inner.hook_layers[0]][1, 0, 0, 0, 0] = np.nan
            return result

    lr = np.random.default_rng(6).uniform(0.0, 1.0, size=(2, 1, 16, 16))
    with pytest.raises(NumericError, match=r"key/value rows at step 0, tile \(0, 1\)"):
        sample_video(lr, BrokenGather(small_toy()), ToyCodec(2), pipe_cfg(steps=2, tile_frames=2))


@pytest.mark.parametrize("scheme", ["sap", "tap"])
def test_a_threaded_pass_raises_the_error_of_its_stack(monkeypatch, scheme):
    # 27 tiles (3 temporal x 9 spatial), one a stack, on 3 workers: the
    # NumericError of one stack's forward, raised on a worker thread, still
    # names its step and tile, and the pass leaves no worker thread behind
    y = np.random.default_rng(14).standard_normal((4, 1, 16, 16))
    blend = blend_of((4, 16, 16), (2, 8, 8))
    monkeypatch.setattr(sampler, "STACK_BYTES", 1)
    bad = split(y, blend.grid, slice(13, 14))[0]  # tile (1, 4)
    threads = set()

    class PoisonsOneTile:
        def __init__(self, inner):
            self.inner = inner

        def __getattr__(self, name):
            return getattr(self.inner, name)

        def denoise(self, x, conditional=False, sigma=1.0, kv_only=False, **kw):
            threads.add(threading.get_ident())
            result = self.inner.denoise(x, conditional, sigma, kv_only=kv_only, **kw)
            if not kv_only and np.array_equal(x[0], bad):
                result.denoised[0, 0, 0, 0, 0] = np.nan
            return result

    den = PoisonsOneTile(small_toy())
    cfg = pipe_cfg(tile_frames=2, tile_h=8, tile_w=8, tap_frames=1, workers=3)
    before = threading.active_count()
    with pytest.raises(NumericError, match=r"noise estimate at step 5, tile \(1, 4\)"):
        if scheme == "sap":
            denoise_pass_sap(y, blend, den, cfg, 1.0, 0.3, RunStats(), step=5)
        else:
            denoise_pass_tap(y, blend, den, cfg, 1.0, 0.3, "backward", RunStats(), step=5)
    assert threading.get_ident() not in threads  # every forward ran on a worker
    assert threading.active_count() == before


@pytest.mark.parametrize("mode", ["sag", "pag", "cfg_dssag"])
def test_stack_size_changes_no_bit(monkeypatch, mode):
    # 27 tiles of 256 bytes a step (9 per SAP group and 9 TAP columns of 3):
    # one tile a stack, two (every pass ends in an uneven stack) and all of
    # them give the same bytes and the same pass counts, threaded or not
    lr = np.random.default_rng(6).uniform(0.0, 1.0, size=(2, 1, 16, 16))
    runs = []
    for stack_bytes, workers in ((256, 1), (512, 1), (512, 3), (1 << 20, 1)):
        monkeypatch.setattr(sampler, "STACK_BYTES", stack_bytes)
        cfg = pipe_cfg(steps=4, tile_frames=2, guidance=GuidanceConfig(mode=mode), workers=workers)
        runs.append(sample_video(lr, small_toy(), ToyCodec(2), cfg))
    for res in runs[1:]:
        assert res.video.tobytes() == runs[0].video.tobytes()
        assert res.stats == runs[0].stats
    assert (runs[0].stats.gather_calls, runs[0].stats.tile_units) == (54, 108)


def blend_of(grid: tuple, tile: tuple) -> Blend:
    return Blend(plan_tiles(grid, tile), gaussian_mask(tile, 0.25))


def merge_spy(monkeypatch) -> list:
    """(stack, estimates) of every merge the sampler makes, in call order."""
    merged = []
    real = sampler.merge

    def spy(num, estimates, blend, stack):
        merged.append((stack, np.array(estimates)))
        return real(num, estimates, blend, stack)

    monkeypatch.setattr(sampler, "merge", spy)
    return merged


@pytest.mark.parametrize("per_stack", [1, 2, 27])
def test_each_stack_is_split_when_it_runs(monkeypatch, per_stack):
    # 27 tiles (3 temporal x 9 spatial); under sag every forward but the
    # blurred branch's (the one after the attention-map forward) reads the
    # array split copied out for its stack, and split copies no more than
    # the largest stack
    y = np.random.default_rng(10).standard_normal((4, 1, 16, 16))
    blend = blend_of((4, 16, 16), (2, 8, 8))
    assert (blend.grid.n_temporal, blend.grid.n_spatial) == (3, 9)
    monkeypatch.setattr(sampler, "STACK_BYTES", per_stack * split(y, blend.grid, slice(0, 1)).nbytes)
    calls, splits, split_stacks = [], [], []
    real = ToyAttentionDenoiser.denoise
    real_split = sampler.split

    def spy(self, x, *args, **kw):
        calls.append((x, kw.get("collect_attention", False), kw.get("kv_only", False)))
        return real(self, x, *args, **kw)

    def split_spy(video, grid, stack):
        assert video is y
        split_stacks.append(stack)
        splits.append(real_split(video, grid, stack))
        return splits[-1]

    monkeypatch.setattr(ToyAttentionDenoiser, "denoise", spy)
    monkeypatch.setattr(sampler, "split", split_spy)
    merged = merge_spy(monkeypatch)
    toy = small_toy()
    cfg = pipe_cfg(tile_frames=2, tile_h=8, tile_w=8, guidance=GuidanceConfig(mode="sag"))
    passes = {
        "plain": lambda: denoise_pass_plain(y, blend, toy, cfg, 1.0, 0.3, RunStats()),
        "sap": lambda: denoise_pass_sap(y, blend, toy, cfg, 1.0, 0.3, RunStats()),
        "tap forward": lambda: denoise_pass_tap(y, blend, toy, cfg, 1.0, 0.3, "forward", RunStats()),
        "tap backward": lambda: denoise_pass_tap(y, blend, toy, cfg, 1.0, 0.3, "backward", RunStats()),
    }
    for name, run in passes.items():
        calls.clear()
        splits.clear()
        split_stacks.clear()
        merged.clear()
        run()
        sizes: dict[str, list[int]] = {}
        blurred = False
        for x, collect_attention, kv_only in calls:
            kind = "gather" if kv_only else name
            if blurred:
                assert not any(np.shares_memory(x, part) for part in splits), kind
            else:
                assert any(x is part for part in splits), kind
                sizes.setdefault(kind, []).append(len(x))
            blurred = collect_attention
        for kind, got in sizes.items():
            # the largest stack is one row of the grid: a temporal index's 9 tiles
            assert max(got) == min(per_stack, 9), (kind, got)
            # every tile once per gather and once per unblurred sag branch
            assert sum(got) == 27 * (1 if kind == "gather" else 2), (kind, got)
        assert set(sizes) == ({"gather", "sap"} if name == "sap" else {name})
        # one split a stack (the gather's and phase 2's for SAP), each merged once
        assert sum(map(len, splits)) == 27 * (2 if name == "sap" else 1)
        # no stack crosses a row
        assert all(stack.start // 9 == (stack.stop - 1) // 9 for stack in split_stacks)
        assert sum(len(e) for _, e in merged) == 27
        # each stack is merged as it finishes, so tiles merge in run order:
        # ascending flat order, but a backward TAP pass walks its temporal
        # indices down (columns still ascending)
        assert split_stacks[-len(merged):] == [stack for stack, _ in merged]
        starts = [stack.start for stack, _ in merged]
        run_order = (lambda start: (-(start // 9), start)) if name == "tap backward" else None
        assert starts == sorted(starts, key=run_order)
        if name == "tap backward" and per_stack < 9:
            assert starts != sorted(starts)


def test_a_pass_frees_its_numerator_on_return(monkeypatch):
    # the pass's numerator sits in no reference cycle: with the cycle
    # collector off, it is gone once its pass returns, so no step's
    # numerator waits for the collector
    y = np.random.default_rng(11).standard_normal((4, 1, 16, 16))
    blend = blend_of((4, 16, 16), (2, 8, 8))
    cfg = pipe_cfg(tile_frames=2, tile_h=8, tile_w=8, tap_frames=1, workers=2)
    monkeypatch.setattr(sampler, "STACK_BYTES", 1)  # one tile a stack: threaded waves
    numerators = []
    real = sampler.merge

    def spy(num, estimates, blend, stack):
        numerators.append(weakref.ref(num))
        return real(num, estimates, blend, stack)

    monkeypatch.setattr(sampler, "merge", spy)
    gc.collect()
    gc.disable()
    try:
        for run in (lambda: denoise_pass_plain(y, blend, small_toy(), cfg, 1.0, 0.3, RunStats()),
                    lambda: denoise_pass_sap(y, blend, small_toy(), cfg, 1.0, 0.3, RunStats()),
                    lambda: denoise_pass_tap(y, blend, small_toy(), cfg, 1.0, 0.3, "backward",
                                             RunStats())):
            numerators.clear()
            run()
            assert len(numerators) == blend.grid.n_tiles
            assert all(ref() is None for ref in numerators)
    finally:
        gc.enable()


def test_blend_weights_are_built_once_per_run(monkeypatch):
    built = []
    real = sampler.Blend

    def counting(grid, mask):
        built.append(grid)
        return real(grid, mask)

    monkeypatch.setattr(sampler, "Blend", counting)
    lr = np.random.default_rng(6).uniform(0.0, 1.0, size=(2, 1, 16, 16))
    res = sample_video(lr, small_toy(), ToyCodec(2), pipe_cfg(steps=3))
    assert len(built) == 1 and len(res.trace) == 3


# --- propagation passes -----------------------------------------------------

@pytest.mark.parametrize("per_stack", [1, 4, 27])
def test_sap_subsamples_once_per_hook_layer_per_gather_stack(monkeypatch, per_stack):
    # 27 tiles (3 temporal x 9 spatial) in gather stacks of per_stack tiles
    # within a row: each stack's K/V are subsampled whole, layer by layer,
    # never tile by tile
    y = np.random.default_rng(12).standard_normal((4, 1, 16, 16))
    blend = blend_of((4, 16, 16), (2, 8, 8))
    monkeypatch.setattr(sampler, "STACK_BYTES", per_stack * split(y, blend.grid, slice(0, 1)).nbytes)
    calls = []
    real = sampler.subsample_spatial_kv

    def spy(keys, values, rate):
        calls.append(len(keys))
        return real(keys, values, rate)

    monkeypatch.setattr(sampler, "subsample_spatial_kv", spy)
    toy = small_toy()
    cfg = pipe_cfg(tile_frames=2, tile_h=8, tile_w=8)
    denoise_pass_sap(y, blend, toy, cfg, 1.0, 0.3, RunStats())
    stacks = 3 * -(-9 // per_stack)
    assert len(calls) == len(toy.hook_layers) * stacks
    assert sum(calls) == len(toy.hook_layers) * 27


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
        # a stack of two tiles: each tile's rows are its own
        sap_k, sap_v = subsample_spatial_kv(np.stack([keys, keys + 1.0]),
                                            np.stack([values, values - 1.0]), rate)
        assert np.array_equal(sap_k, np.stack([flat_k[kept], flat_k[kept] + 1.0]))
        assert np.array_equal(sap_v, np.stack([flat_v[kept], flat_v[kept] - 1.0]))

        l_frames = int(rng.integers(1, 9))
        per_frame = gh * gw
        chosen = select_tap_frames(flat_k.reshape(1, frames, per_frame, d), min(l_frames, frames))
        rows = [f * per_frame + t for f in chosen[0] for t in range(per_frame)]
        # a stack of two tiles: the rows are chosen per tile
        result = DenoiseResult(None, keys={3: np.stack([keys, keys + 1.0])},
                               values={3: np.stack([values, values - 1.0])})
        tap = _tap_injections(result, l_frames, (3,))[3]
        assert np.array_equal(tap.keys, np.stack([flat_k[rows], flat_k[rows] + 1.0]))
        assert np.array_equal(tap.values, np.stack([flat_v[rows], flat_v[rows] - 1.0]))


def test_spatial_rate_one_single_frame_tile_matches_plain():
    # one tile, one frame: the aggregated K/V are an exact duplicate of the
    # tile's own rows, and duplicate keys reweight without changing the output
    rng = np.random.default_rng(6)
    y = rng.standard_normal((1, 1, 8, 8))
    blend = blend_of((1, 8, 8), (1, 8, 8))
    toy = small_toy()
    cfg = pipe_cfg(tile_frames=1, tile_h=8, tile_w=8, sap_rate=1)
    sap_out = denoise_pass_sap(y, blend, toy, cfg, 1.0, 0.4, RunStats())
    plain_out = denoise_pass_plain(y, blend, toy, cfg, 1.0, 0.4, RunStats())
    assert sap_out.shape == (1, 1, 8, 8)
    diff = np.max(np.abs(sap_out - plain_out))
    assert diff <= 1e-5


def test_spatial_pass_identical_tiles_get_identical_eps(monkeypatch):
    rng = np.random.default_rng(7)
    base = rng.standard_normal((2, 1, 4, 2))
    y = np.tile(base, (1, 1, 1, 4))  # x-periodic: every tile sees the same data
    blend = blend_of((2, 4, 8), (2, 4, 4))
    assert blend.grid.n_spatial == 3
    merged = merge_spy(monkeypatch)
    toy = small_toy()
    cfg = pipe_cfg(tile_frames=2, tile_h=4, tile_w=4)
    denoise_pass_sap(y, blend, toy, cfg, 1.0, 0.2, RunStats())
    out = np.concatenate([e for _, e in merged])
    assert len(out) == 3
    assert np.array_equal(out[0], out[1])
    assert np.array_equal(out[0], out[2])


def test_temporal_pass_time_reversal_symmetry():
    # 9 frames in tiles of 5 start at 0, 2 and 4, so reversing time maps the
    # tiles onto each other and the noise (even) frames onto noise frames
    rng = np.random.default_rng(8)
    y = rng.standard_normal((9, 1, 8, 8))
    blend = blend_of((9, 8, 8), (5, 8, 8))
    assert blend.grid.offsets_t == (0, 2, 4)
    toy = small_toy()
    cfg = pipe_cfg(tile_frames=5, tile_h=8, tile_w=8, tap_frames=2)

    eps_fwd = denoise_pass_tap(y, blend, toy, cfg, 1.0, 0.3, "forward", RunStats())
    rev_in = y[::-1].copy()
    eps_bwd = denoise_pass_tap(rev_in, blend, toy, cfg, 1.0, 0.3, "backward", RunStats())
    assert eps_fwd.shape == (5, 1, 8, 8)
    assert np.max(np.abs(eps_fwd - eps_bwd[::-1])) <= 1e-5


def test_temporal_pass_single_tile_is_plain():
    rng = np.random.default_rng(9)
    y = rng.standard_normal((4, 1, 8, 8))
    blend = blend_of((4, 8, 8), (4, 8, 8))
    toy = small_toy()
    cfg = pipe_cfg(tile_frames=4, tile_h=8, tile_w=8)
    tap_out = denoise_pass_tap(y, blend, toy, cfg, 1.0, 0.3, "forward", RunStats())
    plain_out = denoise_pass_plain(y, blend, toy, cfg, 1.0, 0.3, RunStats())
    assert np.array_equal(tap_out, plain_out)
