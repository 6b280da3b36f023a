"""Full-system acceptance checks.

Each test here is one externally stated contract, verified end to end at its
stated tolerance; `pytest -v` prints exactly one pass/fail line per contract.
The frozen oracle constants (schedules, seeds, hand-computed values) must not
be touched: they pin observable behavior, not implementation detail.
"""

import math
import time

import numpy as np
import pytest

from tilevsr.attention import (
    InjectedKV,
    attend,
    scaled_scores,
    select_tap_frames,
    softmax_rows,
)
from tilevsr.guidance import GuidanceConfig, combine, gamma_schedule
from tilevsr.models import AnalyticGaussianDenoiser, ToyAttentionDenoiser, ToyCodec
from tilevsr.quality import (
    block_match_flow,
    frame_flows,
    psnr,
    ssim,
    tlp,
    tof,
    warp_frame,
    warping_error,
)
from tilevsr.sampler import PipelineConfig, sample_video
from tilevsr.tiles import Blend, gaussian_mask, merge, plan_tiles, split


def small_toy(channels=1, cond_dim=4, embed_dim=8, seed=7):
    return ToyAttentionDenoiser(
        seed=seed,
        channels=channels,
        patch_size=2,
        embed_dim=embed_dim,
        spatial_layers=4,
        cond_dim=cond_dim,
    )


def small_pipeline(**kwargs) -> PipelineConfig:
    base = dict(
        steps=4,
        tile_frames=4,
        tile_h=8,
        tile_w=8,
        sap=True,
        tap=True,
        sap_rate=2,
        tap_frames=2,
        guidance=GuidanceConfig(mode="none"),
        seed=0,
        sigma_min=0.1,
        sigma_max=80.0,
        schedule_exponent=7.0,
        upscale_factor=1,
    )
    base.update(kwargs)
    return PipelineConfig(**base)


# ---------------------------------------------------------------------------


def test_01_tiling_roundtrip_and_partition_on_randomized_geometries():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_roundtrip = 0.0
    worst_partition = 0.0
    for _ in range(200):
        frames = int(rng.integers(1, 13))
        height = int(rng.integers(1, 41))
        width = int(rng.integers(1, 41))
        channels = int(rng.choice([1, 3]))
        tile = (
            int(rng.integers(1, frames + 1)),
            int(rng.integers(1, height + 1)),
            int(rng.integers(1, width + 1)),
        )
        grid = plan_tiles((frames, height, width), tile)
        blend = Blend(grid, gaussian_mask(tile, float(rng.uniform(0.1, 1.0))))
        video = rng.standard_normal((frames, channels, height, width))
        # split and merge a stack at a time, as the sampler does; merge
        # blends the noise (even) frames
        num, ones = (np.zeros(blend.weights.shape[:1] + (channels,) + blend.weights.shape[2:])
                     for _ in range(2))
        for start in range(0, grid.n_tiles, 3):
            stack = slice(start, min(start + 3, grid.n_tiles))
            tiles = split(video, grid, stack)
            merge(num, tiles, blend, stack)
            merge(ones, np.ones_like(tiles), blend, stack)
        merged = num / blend.weights
        worst_roundtrip = max(worst_roundtrip, float(np.max(np.abs(merged - video[0::2]))))
        blended = ones / blend.weights
        worst_partition = max(worst_partition, float(np.max(np.abs(blended - 1.0))))
    elapsed = time.perf_counter() - started
    assert worst_roundtrip <= 1e-6
    assert worst_partition <= 1e-12
    assert elapsed < 10.0
    print(f"PASS tiling: roundtrip {worst_roundtrip:.3e}, partition {worst_partition:.3e}, "
          f"200 geometries in {elapsed:.2f}s")


def test_02_attention_reductions_to_plain_uniform_and_value_limits():
    rng = np.random.default_rng(42)
    q = rng.standard_normal((6, 4))
    k = rng.standard_normal((6, 4))
    v = rng.standard_normal((6, 3))
    plain = attend(q, k, v)

    empty = InjectedKV(np.zeros((0, 4)), np.zeros((0, 3)))
    gap_empty = float(np.max(np.abs(attend(q, k, v, empty) - plain)))
    assert gap_empty <= 1e-6
    assert np.array_equal(attend(q, k, v, None), plain)

    assert np.array_equal(attend(q, k, v, gamma=0.0), plain)
    assert np.array_equal(scaled_scores(q, k, 0.0), q @ k.T / math.sqrt(4))

    qmax = float(np.max(np.abs(q)))
    kmax = float(np.max(np.abs(k)))
    huge_gamma = math.sqrt(1e6 / (qmax * kmax))
    gap_uniform = float(np.max(np.abs(attend(q, k, v, gamma=huge_gamma) - v.mean(axis=0))))
    assert gap_uniform <= 1e-4

    # identity scores: each query attends to its own key alone
    assert np.array_equal(attend(q[:, None], k[:, None], v[:, None])[:, 0], v)
    print(f"PASS attention reductions: empty-injection {gap_empty:.3e}, "
          f"high-temper vs value mean {gap_uniform:.3e}")


def test_03_detail_suppression_entropy_never_drops_as_gamma_grows():
    def entropy(w):
        return -(w * np.log(np.maximum(w, 1e-300))).sum(axis=-1)

    rng = np.random.default_rng(31)
    violations = 0
    for _ in range(1000):
        tq = int(rng.integers(2, 9))
        tk = int(rng.integers(2, 9))
        d = int(rng.integers(2, 7))
        q = rng.standard_normal((tq, d))
        k = rng.standard_normal((tk, d))
        qmax = float(np.max(np.abs(q)))
        kmax = float(np.max(np.abs(k)))
        # stay in the active-temper regime: gamma^2 * qmax * kmax >= 1
        g1 = math.sqrt(1.0 / (qmax * kmax)) * (1.0 + float(rng.uniform(0.0, 3.0)))
        g2 = g1 * (1.0 + float(rng.uniform(0.05, 3.0)))
        h1 = entropy(softmax_rows(scaled_scores(q, k, g1)))
        h2 = entropy(softmax_rows(scaled_scores(q, k, g2)))
        violations += int(np.any(h2 < h1 - 1e-12))
    assert violations == 0
    print("PASS entropy monotonicity: 0 violations over 1000 tempered instances")


def test_04_suppression_schedule_endpoints_and_log_midpoint():
    sigma_max, sigma_min = 700.0, 0.002
    assert gamma_schedule(sigma_max, sigma_max, sigma_min, 0.5) == 1.0
    assert gamma_schedule(sigma_min, sigma_max, sigma_min, 0.5) == 0.0
    mid = math.sqrt(sigma_max * sigma_min)
    gap = abs(gamma_schedule(mid, sigma_max, sigma_min, 0.5) - math.sqrt(0.5))
    assert gap <= 1e-12
    print(f"PASS suppression schedule: endpoints exact, log-midpoint off by {gap:.3e}")


def test_05_guidance_limits_null_condition_collapse_and_pass_budgets():
    rng = np.random.default_rng(5)
    base = rng.standard_normal((3, 5)) * 1e8
    target = rng.standard_normal((3, 5))
    # the same combinator serves the classifier-free, perturbed-attention,
    # and detail-suppression modes; its limits must return operands verbatim
    assert np.array_equal(combine(base, target, -1.0), base)
    assert np.array_equal(combine(base, target, 0.0), target)

    # with an all-zero condition vector the conditional branch degenerates
    # and classifier-free + detail-suppression collapses onto detail
    # suppression alone, bit for bit
    lr = np.random.default_rng(9).uniform(0.0, 1.0, size=(2, 1, 8, 8))
    videos = {}
    for mode in ("cfg_dssag", "dssag"):
        denoiser = small_toy()
        denoiser.cond_vector = np.zeros_like(denoiser.cond_vector)
        cfg = small_pipeline(guidance=GuidanceConfig(mode=mode, scale=0.7, rho=0.5))
        videos[mode] = sample_video(lr, denoiser, ToyCodec(1), cfg).video
    assert np.array_equal(videos["cfg_dssag"], videos["dssag"])

    budgets = {}
    for mode in ("none", "cfg", "dssag", "cfg_dssag", "sag", "pag"):
        denoiser = small_toy()
        cfg = small_pipeline(guidance=GuidanceConfig(mode=mode, scale=1.0, rho=0.5))
        budgets[mode] = sample_video(lr, denoiser, ToyCodec(1), cfg).stats.ff_per_iter
    assert budgets == {
        "none": 1.0, "cfg": 2.0, "dssag": 2.0, "cfg_dssag": 2.0, "sag": 3.0, "pag": 3.0,
    }
    print("PASS guidance: limits verbatim, null-condition collapse bitwise, "
          f"pass budgets {budgets}")


def test_06_sampler_tracks_closed_form_trajectory_and_output_variance():
    started = time.perf_counter()
    sigma_max, sigma_min, sigma_data = 15.0, 0.0625, 0.5
    denoiser = AnalyticGaussianDenoiser(mu=0.0, sigma_data=sigma_data)
    cfg = PipelineConfig(
        steps=200,
        tile_frames=2,
        tile_h=128,
        tile_w=128,
        sap=False,
        tap=False,
        guidance=GuidanceConfig(mode="none"),
        seed=0,
        sigma_min=sigma_min,
        sigma_max=sigma_max,
        schedule_exponent=9.0,
        upscale_factor=1,
    )
    lr = np.zeros((1, 1, 100, 100))
    result = sample_video(lr, denoiser, ToyCodec(1), cfg)

    x_start = np.random.default_rng(0).standard_normal((1, 1, 100, 100)) * sigma_max
    closed = denoiser.closed_form(x_start, sigma_max, sigma_min)
    rel = float(np.max(np.abs(result.video - closed))) / float(np.max(np.abs(x_start)))
    assert rel <= 1e-3

    variance = float(result.video.var())  # 10000 scalar trajectories
    target = sigma_data * sigma_data
    assert abs(variance - target) <= 0.03 * target
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(f"PASS sampler oracle: trajectory error {rel:.3e} (limit 1e-3), "
          f"variance {variance:.5f} vs {target} in {elapsed:.2f}s")


def test_07_temporal_handoff_selection_rule_and_injected_token_share():
    def brute_force(keys_by_frame, count):
        stds = [float(np.std(k)) for k in keys_by_frame]
        order = sorted(range(len(stds)), key=lambda i: (-stds[i], i))
        return sorted(order[:count])

    rng = np.random.default_rng(77)
    for trial in range(100):
        n = int(rng.integers(1, 10))
        count = int(rng.integers(1, n + 1))
        frames = rng.standard_normal((n, int(rng.integers(1, 5)), 3))
        if trial % 3 == 0 and n >= 2:
            frames[-1] = frames[0]  # exact ties
        assert select_tap_frames(frames[None], count).tolist() == [brute_force(frames, count)]

    # 4 key/value frames handed over out of a 14-frame tile ~ 28% of tokens
    class InjectionCounter:
        def __init__(self, inner):
            self.inner = inner
            self.rows = []

        def __getattr__(self, name):
            return getattr(self.inner, name)

        def denoise(self, x, conditional=False, sigma=1.0, injected=None, gamma=0.0,
                    identity=False, collect_kv=False, collect_attention=False):
            # x is a stack of tiles; TAP injects one set of rows per tile
            patch = self.inner.patch_size
            tiles, frames, _, h, w = x.shape
            own = frames * (h // patch) * (w // patch)
            for inj in (injected or {}).values():  # sap=False: every injection is TAP
                assert inj.keys.shape[0] == tiles
                self.rows.extend((int(inj.keys.shape[1]), own) for _ in range(tiles))
            return self.inner.denoise(
                x, conditional, sigma, injected=injected, gamma=gamma, identity=identity,
                collect_kv=collect_kv, collect_attention=collect_attention,
            )

    spy = InjectionCounter(small_toy())
    lr = np.random.default_rng(3).uniform(0.0, 1.0, size=(10, 1, 8, 8))
    cfg = small_pipeline(steps=2, tile_frames=14, sap=False, tap_frames=4)
    sample_video(lr, spy, ToyCodec(1), cfg)  # 20 interleaved frames -> 2 temporal tiles
    assert spy.rows, "no temporal injection was recorded"
    tokens_per_frame = (8 // 2) * (8 // 2)
    assert all(inj == 4 * tokens_per_frame for inj, _ in spy.rows)
    assert all(own == 14 * tokens_per_frame for _, own in spy.rows)
    share = spy.rows[0][0] / spy.rows[0][1]
    assert 0.25 < share < 0.30
    print(f"PASS temporal handoff: selection matches brute force on 100 instances, "
          f"injected share {share:.4f} (4 of 14 frames)")


def test_08_consistency_metrics_hit_ideal_exact_and_hand_computed_values():
    rng = np.random.default_rng(8)
    static = np.stack([rng.uniform(0.0, 1.0, size=(1, 16, 16))] * 3)
    assert psnr(static, static.copy()) == 99.0
    assert ssim(static, static.copy()) == 1.0
    static_flows = frame_flows(static, block_match_flow)
    assert tof(static_flows, frame_flows(static.copy(), block_match_flow)) == 0.0
    assert tlp(static, static.copy()) == 0.0
    assert warping_error(static, static_flows) == 0.0

    f1 = rng.uniform(0.0, 1.0, size=(24, 24))
    dy, dx = 1, 2
    f2 = np.roll(f1, (dy, dx), axis=(0, 1))
    flow = block_match_flow(f1, f2, block=8, radius=4)
    interior = (slice(8, 16), slice(8, 16))
    assert np.all(flow[0][interior] == dy)
    assert np.all(flow[1][interior] == dx)
    residual = np.abs(warp_frame(f1, flow)[0] - f2)[interior]
    assert np.max(residual) == 0.0

    def constant_flow(dy_, dx_):
        out = np.zeros((2, 4, 4), dtype=np.int64)
        out[0] = dy_
        out[1] = dx_
        return out

    gt_flows = [constant_flow(1, 0), constant_flow(1, 0)]
    restored_flows = [constant_flow(0, -1), constant_flow(2, 1)]
    flow_gap = abs(tof(gt_flows, restored_flows) - 2.0)
    assert flow_gap <= 1e-6

    levels = [0.0, 0.1, 0.4]
    levels_r = [0.0, 0.2, 0.3]
    gt_v = np.stack([np.full((1, 4, 4), v) for v in levels])
    re_v = np.stack([np.full((1, 4, 4), v) for v in levels_r])
    perceptual_gap = abs(tlp(gt_v, re_v) - 0.15)
    assert perceptual_gap <= 1e-6
    print(f"PASS consistency metrics: ideals exact, flow-metric gap {flow_gap:.2e}, "
          f"perceptual gap {perceptual_gap:.2e}")


def test_09_end_to_end_upscale_is_deterministic_across_runs_and_scheduling(reverse_tiles):
    started = time.perf_counter()
    lr = np.random.default_rng(123).uniform(0.0, 1.0, size=(14, 3, 16, 16))

    def run(workers=1):
        denoiser = ToyAttentionDenoiser(
            seed=1234, channels=3, patch_size=4, embed_dim=16,
            spatial_layers=4, cond_dim=8,
        )
        cfg = PipelineConfig(
            steps=25,
            tile_frames=14,
            tile_h=16,
            tile_w=16,
            sap=True,
            tap=True,
            sap_rate=2,
            tap_frames=4,
            guidance=GuidanceConfig(mode="dssag", scale=1.0, rho=0.5),
            seed=0,
            upscale_factor=4,
            workers=workers,
        )
        return sample_video(lr, denoiser, ToyCodec(2), cfg)

    first = run()
    assert first.video.shape == (14, 3, 64, 64)
    assert np.all(np.isfinite(first.video))
    repeat = run()
    threaded = run(workers=4)
    reverse_tiles()
    reversed_order = run()
    assert first.video.tobytes() == repeat.video.tobytes()
    assert first.video.tobytes() == threaded.video.tobytes()
    assert first.video.tobytes() == reversed_order.video.tobytes()
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    print(f"PASS end-to-end: 14x3x64x64 finite, byte-identical across rerun, "
          f"4 workers, and reversed tile order; 4 runs in {elapsed:.1f}s")


def test_10_step_trace_alternates_schemes_and_flips_temporal_direction():
    lr = np.random.default_rng(6).uniform(0.0, 1.0, size=(2, 1, 8, 8))
    cfg = small_pipeline(steps=25)
    result = sample_video(lr, small_toy(), ToyCodec(1), cfg)
    trace = result.trace
    assert len(trace) == 25

    rows = []
    for line in trace:
        cells = dict(cell.split("=", 1) for cell in line.split())
        rows.append(cells)
    schemes = [r["scheme"] for r in rows]
    assert schemes == ["sap" if i % 2 == 0 else "tap" for i in range(25)]
    assert schemes.count("sap") == 13 and schemes.count("tap") == 12

    directions = [r["direction"] for r in rows if r["scheme"] == "tap"]
    assert directions == ["forward" if i % 2 == 0 else "backward" for i in range(12)]
    assert all(r["direction"] == "-" for r in rows if r["scheme"] == "sap")

    gammas = [float(r["gamma"]) for r in rows]
    sigmas = [float(r["sigma"]) for r in rows]
    assert all(b <= a for a, b in zip(gammas, gammas[1:]))
    assert all(b < a for a, b in zip(sigmas, sigmas[1:]))
    print("PASS step trace: 13 spatial / 12 temporal steps strictly alternating, "
          "temporal direction flipping, suppression schedule non-increasing")
