"""Memory bounds of the front end, of attention and of SSIM.

Resampling works one leading plane at a time, the blur holds two passes'
outputs and one tap, `degrade` blurs one frame at a time, the conditioning
latent is built one frame at a time, and `attend` reuses a per-thread
workspace for its score buffer and never copies the injected rows. A pass runs its tiles in stacks of bounded bytes, each split
out of the latent when it runs and merged into the blend as it finishes, so
its working memory does not grow with the tile count. The translate fixture
is filled one frame at a time. SSIM works one plane at
a time and, within a plane, one strip of output rows at a time. Container
writes and reads hold the file once, `metrics` holds one frame pair's flows
at a time, and `warp_frame` works one strip of output rows at a time.
Peaks are measured with tracemalloc, which sees NumPy's array allocations;
page faults with `resource.getrusage`.
"""

import os
import subprocess
import sys
import textwrap
import threading
import tracemalloc

import numpy as np
import pytest

from tilevsr import attention, cli, quality, sampler
from tilevsr.attention import SCORE_BLOCK_BYTES, InjectedKV, attend
from tilevsr.guidance import GuidanceConfig
from tilevsr.io import load_video, read_tensor, save_frames, write_tensor
from tilevsr.models import ToyAttentionDenoiser, ToyCodec
from tilevsr.quality import (
    SSIM_STRIP_ROWS, DegradationConfig, _ssim_frame, bicubic_resize, degrade, gaussian_blur,
)
from tilevsr.sampler import (
    STACK_BYTES, PipelineConfig, RunStats, _condition_latent, denoise_pass_sap, denoise_pass_tap,
    sample_video,
)
from tilevsr.tiles import Blend, gaussian_mask, plan_tiles

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def traced_peak(fn):
    """(result, peak bytes that NumPy and Python allocated while fn ran)."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def in_fresh_thread(fn):
    """fn() run on a new thread, which starts with an empty attention workspace."""
    box = []
    t = threading.Thread(target=lambda: box.append(fn()))
    t.start()
    t.join(timeout=120)
    assert box, "the thread failed or timed out"
    return box[0]


def test_bicubic_resize_peaks_at_three_outputs():
    x = np.random.default_rng(0).standard_normal((8, 3, 32, 32))
    out, peak = traced_peak(lambda: bicubic_resize(x, 4.0))
    assert out.shape == (8, 3, 128, 128)
    assert peak <= 3 * out.nbytes


@pytest.mark.parametrize("sigma", [0.5, 1.5, 3.0])
def test_gaussian_blur_peaks_at_three_inputs(sigma):
    """The first pass's output, the second's, and one tap; the slack covers
    the tap indices."""
    x = np.random.default_rng(2).uniform(0.0, 1.0, (3, 128, 128))
    out, peak = traced_peak(lambda: gaussian_blur(x, sigma))
    assert out.shape == x.shape
    assert peak <= 3 * x.nbytes + 2 ** 15


def test_ssim_frame_holds_its_map_and_a_few_strips():
    """The window statistics and their separable sums live one strip of
    SSIM_STRIP_ROWS output rows at a time; only the SSIM map, kept whole for
    its mean, is plane-sized. Measured on 512x512: 4.17 MiB, a 1.95 MiB map
    and 8.9 strips of 0.25 MiB; the whole-plane statistics took 15.8 MiB."""
    a, b = np.random.default_rng(2).uniform(0.0, 1.0, (2, 512, 512))
    map_bytes = 505 * 505 * 8
    strip_bytes = SSIM_STRIP_ROWS * 512 * 8
    assert 512 > 4 * SSIM_STRIP_ROWS  # several strips
    _, peak = traced_peak(lambda: _ssim_frame(a, b))
    assert peak <= map_bytes + 10 * strip_bytes < 3 * a.nbytes


VIDEO_SHAPE = (8, 3, 128, 128)  # the pipeline benchmark's ground truth


def test_write_tensor_holds_the_file_once(tmp_path):
    """The header and the float32 payload are built in one file image, cast
    into place and checked for finiteness there: the image plus its bool
    mask (a quarter of the payload), beside the caller's float64 video.
    Measured: 1.25x the file; casting, serialising and prefixing the
    payload as three copies took 3x."""
    video = np.random.default_rng(0).uniform(0.0, 1.0, VIDEO_SHAPE)
    path = str(tmp_path / "v.dcvt")
    write_tensor(path, video)
    _, peak = traced_peak(lambda: write_tensor(path, video))
    assert peak <= 1.3 * os.path.getsize(path)


def test_read_tensor_holds_the_file_once(tmp_path):
    """The file is read into one buffer of its size, which the returned
    array views: no read buffer beside it and no copy of it."""
    path = str(tmp_path / "v.dcvt")
    write_tensor(path, np.random.default_rng(0).uniform(0.0, 1.0, VIDEO_SHAPE))
    read_tensor(path)
    arr, peak = traced_peak(lambda: read_tensor(path))
    assert arr.shape == VIDEO_SHAPE
    assert peak <= os.path.getsize(path) + 4096


@pytest.mark.parametrize("fmt", ["ppm", "pfm"])
def test_a_frame_directory_loads_into_one_video(tmp_path, fmt):
    """Each frame is read and copied into one preallocated float64 video,
    so beside it live only one frame's file bytes and conversions.
    Measured: 3.80 MiB (ppm) and 3.56 MiB (pfm) for a 3 MiB video; a list
    of float64 frames stacked at the end took 6.00 and 6.19."""
    video = np.random.default_rng(0).uniform(0.0, 1.0, VIDEO_SHAPE)
    save_frames(str(tmp_path), video, fmt=fmt)
    load_video(str(tmp_path))
    back, peak = traced_peak(lambda: load_video(str(tmp_path)))
    assert back.shape == VIDEO_SHAPE and back.dtype == np.float64
    assert peak <= back.nbytes + 3 * back[0].nbytes


def test_psnr_holds_one_frame_of_squared_errors():
    """psnr sums squared errors a frame at a time: beside its inputs live
    one frame's difference and the finiteness check's bool mask (a byte an
    element). Measured: 0.75 MiB on the pipeline's videos; the whole-video
    squared difference took 3.00."""
    rng = np.random.default_rng(0)
    a = rng.uniform(0.0, 1.0, VIDEO_SHAPE)
    b = np.clip(a + rng.normal(0.0, 0.05, a.shape), 0.0, 1.0)
    _, peak = traced_peak(lambda: quality.psnr(a, b))
    assert peak <= a.size + a[0].nbytes + 4096


def test_metrics_holds_two_videos_and_a_half(tmp_path, capsys):
    """metrics loads both videos in float64 and walks frame pairs, so only
    one pair's flows are alive beside them, and warp_frame and psnr build
    their temporaries a strip or a frame at a time. Loading sets the peak:
    the second file's float32 buffer sits beside its float64 copy and the
    first video. Measured: 7.70 MiB against 8.5."""
    rng = np.random.default_rng(0)
    gt = rng.uniform(0.0, 1.0, VIDEO_SHAPE)
    paths = [str(tmp_path / "gt.dcvt"), str(tmp_path / "restored.dcvt")]
    write_tensor(paths[0], gt)
    write_tensor(paths[1], np.clip(gt + rng.normal(0.0, 0.05, gt.shape), 0.0, 1.0))
    assert cli.main(["metrics", *paths]) == 0
    rc, peak = traced_peak(lambda: cli.main(["metrics", *paths]))
    assert rc == 0 and "we=" in capsys.readouterr().out
    assert peak <= 2.5 * gt.nbytes + 2 ** 20


def test_translate_fixture_holds_the_video_and_two_frames():
    """The translate fixture fills its video one frame at a time: beside the
    video live only the base plane and one rolled frame, plus the random
    generator's few KiB of state. Measured: 3.76 MiB for a 3 MiB video;
    stacking a list of rolled frames took 6.38."""
    cli.synthetic_video("translate", 2, 1, 4, 4)  # NumPy's first-call set-up
    video, peak = traced_peak(lambda: cli.synthetic_video("translate", *VIDEO_SHAPE, seed=0))
    assert video.shape == VIDEO_SHAPE
    assert peak <= video.nbytes + 2 * video[0].nbytes + 2 ** 14


@pytest.mark.parametrize("sigma", [0.5, 1.5, 3.0])
def test_degrade_blurs_in_bounded_memory(sigma):
    """Blurred frame by frame into its own copy, degrade holds that copy and
    a few frames, not the whole-video blur's two passes of temporaries."""
    x = np.random.default_rng(1).uniform(0.0, 1.0, (8, 3, 64, 64))
    cfg = DegradationConfig(blur_sigma=sigma, down_factor=4, noise_sigma=0.0)
    _, peak = traced_peak(lambda: degrade(x, cfg, 0))
    assert peak <= x.nbytes + 5 * x[0].nbytes


@pytest.mark.parametrize("sigma", [0.5, 1.5, 3.0])
def test_degrade_blur_is_the_whole_video_blur(sigma, monkeypatch):
    """With quantisation switched off (the blur of [0, 1] values needs no
    clamp), degrade returns its blur, which must be the whole-video blur's
    bits."""
    monkeypatch.setattr(quality, "quantize", lambda arr, levels: arr)
    x = np.random.default_rng(5).uniform(0.0, 1.0, (5, 2, 12, 10))
    cfg = DegradationConfig(blur_sigma=sigma, down_factor=1, noise_sigma=0.0)
    assert degrade(x, cfg, 0).tobytes() == gaussian_blur(x, sigma).tobytes()


def injected_call_inputs(seed=0):
    """The injected attend call of the sap_tap_dssag geometry: 14 frames of
    16 queries and 16 own keys (d = 16), plus 504 injected rows."""
    rng = np.random.default_rng(seed)
    q, k, v = (rng.standard_normal((14, 16, 16)) for _ in range(3))
    injected = InjectedKV(rng.standard_normal((504, 16)), rng.standard_normal((504, 16)))
    return q, k, v, injected


def test_a_repeated_attend_call_reuses_its_workspace():
    q, k, v, injected = injected_call_inputs()
    first = attend(q, k, v, injected, 0.5)
    second, peak = traced_peak(lambda: attend(q, k, v, injected, 0.5))
    score_block = 14 * 16 * (16 + 504) * 8
    assert score_block < SCORE_BLOCK_BYTES  # the whole batch is one block
    assert peak < score_block
    assert np.array_equal(first, second)


def test_injected_call_holds_one_score_block_and_own_sized_arrays():
    """On a fresh thread the call allocates its score block; beside it only
    arrays the size of one input (the output, the scaled Q, the injected
    rows' share of the output) and NumPy's 64 KiB ufunc buffer. A
    [K; K_inj] or [V; V_inj] copy would be as large as the score block."""
    q, k, v, injected = injected_call_inputs()
    score_block = 14 * 16 * (16 + 504) * 8
    bound = score_block + 3 * q.nbytes + 64 * 1024
    out, peak = traced_peak(lambda: in_fresh_thread(lambda: attend(q, k, v, injected, 0.5)))
    assert peak <= bound < score_block + 14 * (16 + 504) * 16 * 8
    assert out.shape == (14, 16, 16)


def test_stacked_attend_keeps_a_score_buffer_of_one_tiles_block():
    """Blocks never cross tiles, so a block of the sap_tap_dssag stack (3
    tiles of 14 matrices, 31 matrices a block by bytes) is one tile's 14
    matrices, and the thread keeps a buffer of that size, not 31."""
    rng = np.random.default_rng(1)
    q, k, v = (rng.standard_normal((3, 14, 16, 16)) for _ in range(3))
    injected = InjectedKV(rng.standard_normal((504, 16)), rng.standard_normal((504, 16)))
    assert SCORE_BLOCK_BYTES // (16 * 520 * 8) == 31

    def run():
        attend(q, k, v, injected, 0.5)
        return {name: buf.nbytes for name, buf in vars(attention._workspace).items()}

    assert in_fresh_thread(run) == {"weights": 14 * 16 * 520 * 8}


def test_workspace_is_per_thread_and_keeps_outputs_fresh():
    """More threads than cores, switching often, each with its own inputs:
    a workspace shared across threads would mix their scores."""
    want = {i: attend(*injected_call_inputs(seed=i), 0.5, own_key_means=True) for i in range(4)}
    got = {i: [] for i in want}

    def run(i):
        inputs = injected_call_inputs(seed=i)
        for _ in range(25):
            got[i].append(attend(*inputs, 0.5, own_key_means=True))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in want]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for i, (out, means) in want.items():
        assert len(got[i]) == 25
        for got_out, got_means in got[i]:
            assert np.array_equal(got_out, out) and np.array_equal(got_means, means)
    # returned arrays are the caller's: a later call does not write into them
    first, second = got[0][0], got[0][1]
    assert not np.shares_memory(first[0], second[0])
    assert not np.shares_memory(first[1], second[1])


FAULT_PROBE = textwrap.dedent("""
    import resource
    import sys

    sys.path.insert(0, sys.argv[1])
    import numpy as np
    from tilevsr.attention import InjectedKV, attend

    rng = np.random.default_rng(0)
    q, k, v = (rng.standard_normal((14, 16, 16)) for _ in range(3))
    injected = InjectedKV(rng.standard_normal((504, 16)), rng.standard_normal((504, 16)))
    for _ in range(3):
        attend(q, k, v, injected, 0.5)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    calls = 40
    for _ in range(calls):
        attend(q, k, v, injected, 0.5)
    print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / calls)
""")


def test_injected_attend_calls_do_not_fault_in_fresh_pages():
    """With glibc serving every block over 128 KiB by mmap, a buffer that is
    allocated per call is mapped, and faulted in page by page, on every
    call. One score block here is about 228 pages."""
    pytest.importorskip("resource")
    env = dict(os.environ, MALLOC_MMAP_THRESHOLD_="131072")
    out = subprocess.run([sys.executable, "-c", FAULT_PROBE, SRC], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    faults_per_call = float(out.stdout.strip())
    score_block_pages = 14 * 16 * 520 * 8 / 4096
    assert faults_per_call < score_block_pages / 10


def test_condition_latent_is_the_whole_video_encode():
    lr = np.random.default_rng(2).uniform(0.0, 1.0, (3, 2, 8, 12))
    for codec, factor in ((ToyCodec(2), 4), (ToyCodec(1), 3), (ToyCodec(4), 1)):
        want = codec.encode(bicubic_resize(lr, float(factor)) if factor != 1 else lr)
        got = _condition_latent(lr, codec, factor)
        assert got.tobytes() == want.tobytes()


def test_codec_encode_returns_a_new_array():
    x = np.random.default_rng(3).standard_normal((2, 1, 8, 8))
    for factor in (1, 2, 8):
        z = ToyCodec(factor).encode(x)
        assert not np.shares_memory(z, x)
    assert ToyCodec(1).encode(x).tobytes() == x.tobytes()


def test_sample_video_peaks_under_two_outputs():
    """Four frames, x4, codec 8: the upsampled video is as large as the
    output, so building it whole (plus its resampling temporaries) would
    cross the bound; one frame at a time it never exists."""
    lr = np.random.default_rng(4).uniform(0.0, 1.0, (4, 3, 32, 32))
    denoiser = ToyAttentionDenoiser(channels=3, embed_dim=16)
    cfg = PipelineConfig(steps=1, tile_h=16, tile_w=16, tile_frames=8, upscale_factor=4)
    sample_video(lr, denoiser, ToyCodec(8), cfg)  # warm caches
    # a fresh thread starts with an empty attention workspace, so its
    # buffers count against the bound too
    result, peak = traced_peak(lambda: in_fresh_thread(lambda: sample_video(lr, denoiser, ToyCodec(8), cfg)))
    assert result.video.shape == (4, 3, 128, 128)
    assert peak < 2 * result.video.nbytes


def test_workspace_keeps_no_buffer_over_one_score_block():
    """One matrix over SCORE_BLOCK_BYTES gets a fresh score buffer: after
    the call the thread keeps only the score block of an earlier call."""
    rng = np.random.default_rng(6)
    small = injected_call_inputs()
    q, k, v = (rng.standard_normal((1, 64, 16)) for _ in range(3))
    big = (q, k, v, InjectedKV(rng.standard_normal((4096, 16)), rng.standard_normal((4096, 16))))
    assert 64 * (64 + 4096) * 8 > SCORE_BLOCK_BYTES

    def run():
        attend(*small, 0.5)
        want = attend(*big, 0.5)
        kept = {name: buf.nbytes for name, buf in vars(attention._workspace).items()}
        return want, kept

    want, kept = in_fresh_thread(run)
    assert kept == {"weights": 14 * 16 * (16 + 504) * 8}  # the small call's block
    assert kept["weights"] <= SCORE_BLOCK_BYTES
    assert np.array_equal(want, attend(*big, 0.5))


SAP_WIDE_DENOISER = dict(seed=1234, channels=3, patch_size=4, embed_dim=16, cond_dim=8)
KV_ROW_BYTES = 4 * 2 * 16 * 8  # one subsampled row: keys and values of 4 hook layers, d 16


def test_wide_sap_pass_peak_grows_only_by_what_it_must_hold():
    """The sap_wide geometry (8-frame 32x32 tiles of 192 KiB, one to a stack)
    with 9 and with 25 spatial tiles. Stacks are split out of the latent
    when they run and merged as they finish, so the pass holds no input or
    estimate per tile: past one stack, its peak grows only by each tile's
    subsampled K/V, held once, and by the blend's numerator, which follows
    the latent (its noise frames), not the tile count.
    Measured: 2.47 MiB growth against 2.72 MiB allowed; with every tile's
    input or estimate held (one tile-layout array), 3 MiB more."""
    den = ToyAttentionDenoiser(**SAP_WIDE_DENOISER)
    cfg = PipelineConfig(tile_frames=8, tile_h=32, tile_w=32, sap_rate=2,
                         guidance=GuidanceConfig(mode="none"))
    tile_bytes = 8 * 3 * 32 * 32 * 8
    kv_per_tile = 8 * 4 * 4 * KV_ROW_BYTES  # 8 frames x 4x4 subsampled rows
    assert 2 * tile_bytes > STACK_BYTES  # one tile a stack

    def pass_peak(side):
        y = np.random.default_rng(side).standard_normal((8, 3, side, side))
        blend = Blend(plan_tiles((8, side, side), (8, 32, 32)), gaussian_mask((8, 32, 32), 0.25))
        denoise_pass_sap(y, blend, den, cfg, 2.0, 0.5, RunStats())  # warm the attention workspace
        eps, peak = traced_peak(lambda: denoise_pass_sap(y, blend, den, cfg, 2.0, 0.5, RunStats()))
        return blend.grid.n_tiles, eps.nbytes, peak

    (small_tiles, small_num, small_peak), (wide_tiles, wide_num, wide_peak) = pass_peak(64), pass_peak(96)
    assert (small_tiles, wide_tiles) == (9, 25)
    bound = (25 - 9) * kv_per_tile + (wide_num - small_num) + STACK_BYTES
    assert bound < (25 - 9) * (kv_per_tile + tile_bytes)
    assert wide_peak - small_peak <= bound


def test_backward_tap_pass_peak_does_not_grow_with_the_temporal_tiles():
    """A backward TAP pass over 3 and over 6 temporal tiles of the same 3x3
    spatial grid, all 9 columns in one stack. Each stack's estimate is
    merged as it arrives, so the peak grows only by the latent-sized arrays
    (the latent, the numerator and the estimate of the noise frames, the
    weights) and at most one stack. Measured: 0.013 MiB growth against
    0.071 allowed; when estimates waited to merge in ascending flat order,
    every stack but the last wave's did, and the growth read 0.092."""
    den = ToyAttentionDenoiser(**SAP_WIDE_DENOISER)
    cfg = PipelineConfig(tile_frames=2, tile_h=8, tile_w=8, tap_frames=1,
                         guidance=GuidanceConfig(mode="none"))
    stack_bytes = 9 * 2 * 3 * 8 * 8 * 8  # the 9 columns' estimates of one temporal index
    assert stack_bytes <= STACK_BYTES

    def pass_peak(frames):
        y = np.random.default_rng(frames).standard_normal((frames, 3, 16, 16))
        blend = Blend(plan_tiles((frames, 16, 16), (2, 8, 8)), gaussian_mask((2, 8, 8), 0.25))
        run = lambda: denoise_pass_tap(y, blend, den, cfg, 2.0, 0.5, "backward", RunStats())
        run()  # warm the attention workspace
        eps, peak = traced_peak(run)
        return blend.grid, y.nbytes + 2 * eps.nbytes + blend.weights.nbytes, peak

    (short, short_latent, short_peak), (long, long_latent, long_peak) = pass_peak(4), pass_peak(7)
    assert (short.n_temporal, long.n_temporal) == (3, 6)
    assert short.n_spatial == long.n_spatial == 9
    assert long_peak - short_peak <= long_latent - short_latent + stack_bytes


def test_smaller_tiles_raise_the_step_peak_by_their_extra_kv_rows():
    """One sap_wide step on a fixed 96x96 latent, in 32x32 tiles (25 of them,
    3200 SAP rows) and in 24x24 tiles (49 of them, 3528 rows). More tiles
    and more overlap cost their extra subsampled K/V rows and, at most, one
    stack; the latent's arrays stay the same size. Measured: 0.457 MiB
    growth against 0.570 MiB allowed; a tile-layout array of every tile's
    input (or estimate) would grow by 0.48 MiB."""
    lr = np.random.default_rng(0).uniform(0.0, 1.0, (4, 3, 48, 48))
    den = ToyAttentionDenoiser(**SAP_WIDE_DENOISER)

    def step_peak(tile):
        cfg = PipelineConfig(steps=1, tile_h=tile, tile_w=tile, tile_frames=8, tap=False,
                             guidance=GuidanceConfig(mode="none"))
        sample_video(lr, den, ToyCodec(2), cfg)  # warm the attention workspace
        return traced_peak(lambda: sample_video(lr, den, ToyCodec(2), cfg))[1]

    rows = {32: 25 * 8 * 4 * 4, 24: 49 * 8 * 3 * 3}  # tiles x frames x subsampled rows a frame
    assert step_peak(24) - step_peak(32) <= (rows[24] - rows[32]) * KV_ROW_BYTES + STACK_BYTES


@pytest.mark.parametrize("lr_shape, tile, guidance, tap", [
    ((4, 3, 48, 48), (32, 32, 8), "none", False),
    ((14, 3, 16, 16), (16, 16, 14), "dssag", True),
], ids=["sap_wide", "sap_tap_dssag"])
def test_the_noisy_latent_lives_only_in_the_interleaved_latent(monkeypatch, lr_shape, tile,
                                                               guidance, tap):
    """When each of 3 steps' passes starts, the run holds the interleaved
    latent, the blend's weights and mask, and a few KiB of bookkeeping: the
    noisy latent is a view of the interleaved latent's noise frames, not a
    copy beside it, and no copy of the float64 input outlives the
    conditioning latent. Measured: 4.2-11.0 KiB over those arrays; with a
    copy of the input, 216 KiB more on sap_wide and 84 KiB on sap_tap_dssag,
    and with a copy of the noisy latent, 0.84 and 0.33 MiB more."""
    lr = np.random.default_rng(0).uniform(0.0, 1.0, lr_shape)
    den = ToyAttentionDenoiser(**SAP_WIDE_DENOISER)
    cfg = PipelineConfig(steps=3, tile_h=tile[0], tile_w=tile[1], tile_frames=tile[2], tap=tap,
                         guidance=GuidanceConfig(mode=guidance))
    sample_video(lr, den, ToyCodec(2), cfg)  # warm the attention workspace
    held = []
    for name in ("denoise_pass_sap", "denoise_pass_tap", "denoise_pass_plain"):
        def spy(y, blend, *args, real=getattr(sampler, name), **kw):
            arrays = y.nbytes + blend.weights.nbytes + blend.mask.nbytes
            held.append((tracemalloc.get_traced_memory()[0], arrays))
            return real(y, blend, *args, **kw)
        monkeypatch.setattr(sampler, name, spy)
    traced_peak(lambda: sample_video(lr, den, ToyCodec(2), cfg))  # counts from 0 at the call
    assert len(held) == 3
    for current, arrays in held:
        assert current <= arrays + 2 ** 15


@pytest.mark.parametrize("lr_shape, tile, guidance, tap", [
    ((4, 3, 48, 48), (32, 32, 8), "none", False),
    ((14, 3, 16, 16), (16, 16, 14), "dssag", True),
], ids=["sap_wide", "sap_tap_dssag"])
def test_a_sampling_step_holds_no_array_of_the_step_before(lr_shape, tile, guidance, tap):
    """The two sampler benchmark geometries, 3 steps against 1: a step's
    stacks, blend and estimate are released before the next step's pass,
    and a TAP stack keeps only the injections built from its predecessor,
    not that stack's whole result. Measured: 0.001 MiB
    growth on sap_wide and 0.004 on sap_tap_dssag; holding the step before
    through the next pass read 3.88 and 4.06 when tiles were one array."""
    lr = np.random.default_rng(0).uniform(0.0, 1.0, lr_shape)
    den = ToyAttentionDenoiser(seed=1234, channels=3, patch_size=4, embed_dim=16, cond_dim=8)

    def peak(steps):
        cfg = PipelineConfig(steps=steps, tile_h=tile[0], tile_w=tile[1], tile_frames=tile[2],
                             tap=tap, guidance=GuidanceConfig(mode=guidance))
        return traced_peak(lambda: sample_video(lr, den, ToyCodec(2), cfg))[1]

    peak(1)  # warm the attention workspace
    assert peak(3) <= peak(1) + 0.5 * 2 ** 20
