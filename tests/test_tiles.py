"""Tile planning, splitting, Gaussian-weighted merging, and frame interleaving."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilevsr.attention import attend, scaled_scores
from tilevsr.guidance import GuidanceConfig, gamma_schedule, sag_input
from tilevsr.models import AnalyticGaussianDenoiser, ToyAttentionDenoiser, precondition
from tilevsr.quality import bicubic_resize, block_match_flow, gaussian_blur, quantize
from tilevsr.sampler import build_sigma_schedule, ode_step
from tilevsr.tiles import (
    axis_offsets,
    check_mask_corner,
    deinterleave,
    gaussian_mask,
    in_range,
    Blend,
    interleave,
    merge,
    plan_tiles,
    split,
    validate_video,
)


def make_video(rng, frames, channels, h, w):
    return rng.standard_normal((frames, channels, h, w))


def blended(tiles, blend):
    """Every tile of split's order merged in one slice, over the blend's weights."""
    num = np.zeros(blend.weights.shape[:1] + tiles.shape[2:3] + blend.weights.shape[2:])
    merge(num, tiles, blend, slice(None))
    return num / blend.weights


def round_trip(video, grid, mask):
    """split then merge of every tile: the blend of video's noise (even) frames."""
    return blended(split(video, grid, slice(None)), Blend(grid, mask))


# --- axis offsets -----------------------------------------------------------

def test_axis_offsets_enumerated_cases():
    assert axis_offsets(128, 64) == (0, 32, 64)
    assert axis_offsets(64, 64) == (0,)
    assert axis_offsets(21, 14) == (0, 7)
    assert axis_offsets(28, 14) == (0, 7, 14)
    assert axis_offsets(32, 16) == (0, 8, 16)
    # last offset clamps so the final tile ends exactly at the extent
    assert axis_offsets(10, 4) == (0, 2, 4, 6)
    assert axis_offsets(7, 4) == (0, 2, 3)


def test_axis_offsets_validation():
    with pytest.raises(ValueError):
        axis_offsets(4, 8)
    with pytest.raises(ValueError):
        axis_offsets(4, 0)
    with pytest.raises(ValueError):
        axis_offsets(0, 1)


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 200), st.integers(1, 200))
def test_axis_offsets_cover_extent(extent, tile):
    if tile > extent:
        tile = extent
    offs = axis_offsets(extent, tile)
    assert offs[0] == 0
    assert offs[-1] + tile == extent
    assert list(offs) == sorted(set(offs))
    # consecutive tiles overlap or abut, never leave a gap
    for a, b in zip(offs, offs[1:]):
        assert b <= a + tile


# --- grid planning ----------------------------------------------------------

def test_plan_tiles_counts_and_indexing():
    grid = plan_tiles((28, 128, 128), (14, 64, 64))
    assert grid.offsets_t == (0, 7, 14)
    assert grid.offsets_y == (0, 32, 64)
    assert grid.offsets_x == (0, 32, 64)
    assert grid.n_temporal == 3
    assert grid.n_spatial == 9
    assert grid.n_spatial * grid.n_temporal == 27
    # spatial index m walks the y/x grid row-major
    assert grid.spatial_offset(0) == (0, 0)
    assert grid.spatial_offset(1) == (0, 32)
    assert grid.spatial_offset(3) == (32, 0)
    assert grid.spatial_offset(8) == (64, 64)
    sl_t, sl_y, sl_x = grid.slices(1, 5)
    assert (sl_t.start, sl_t.stop) == (7, 21)
    assert (sl_y.start, sl_y.stop) == (32, 96)
    assert (sl_x.start, sl_x.stop) == (64, 128)


def test_plan_tiles_rejects_oversized_tile():
    with pytest.raises(ValueError):
        plan_tiles((4, 8, 8), (8, 8, 8))


def test_split_order_and_copies():
    rng = np.random.default_rng(0)
    video = make_video(rng, 6, 2, 8, 8)
    grid = plan_tiles((6, 8, 8), (4, 4, 4))
    tiles = split(video, grid, slice(None))
    assert grid.n_tiles == grid.n_temporal * grid.n_spatial
    assert tiles.shape == (grid.n_tiles, 4, 2, 4, 4)
    for n in range(grid.n_temporal):
        for m in range(grid.n_spatial):
            sl = grid.slices(n, m)
            assert np.array_equal(tiles[n * grid.n_spatial + m], video[sl[0], :, sl[1], sl[2]])
    # a stack is a run of the flat index (n * n_spatial + m), copied alone
    assert np.array_equal(split(video, grid, slice(5, 12)), tiles[5:12])
    assert split(video, grid, slice(3, 3)).shape == (0, 4, 2, 4, 4)
    # tiles are private copies
    tiles[0] = 0.0
    assert not np.allclose(video[0:4, :, 0:4, 0:4], 0.0)
    with pytest.raises(ValueError, match="does not match grid"):
        split(video[:, :, :7], grid, slice(None))


# --- gaussian mask ----------------------------------------------------------

def test_gaussian_mask_peak_and_symmetry():
    mask = gaussian_mask((5, 7, 9), 0.25)
    assert mask.shape == (5, 7, 9)
    assert mask[2, 3, 4] == 1.0
    assert np.array_equal(mask, mask[::-1, :, :])
    assert np.array_equal(mask, mask[:, ::-1, :])
    assert np.array_equal(mask, mask[:, :, ::-1])
    assert np.all(mask > 0.0)


def test_gaussian_mask_corner_ratio():
    # 4x4 extent, sigma = half the extent: corner/center = exp(-0.5) per the
    # separable profile exp(-(i - 1.5)^2 / (2 * 2^2)) evaluated at i in {0, 1}
    mask = gaussian_mask((1, 4, 4), 0.5)
    expected = np.exp(-0.5)
    ratio = mask[0, 0, 0] / mask[0, 1, 1]
    assert abs(ratio - expected) < 1e-12


def test_gaussian_mask_validation():
    with pytest.raises(ValueError):
        gaussian_mask((0, 4, 4), 0.25)
    with pytest.raises(ValueError):
        gaussian_mask((1, 4, 4), 0.0)


def test_gaussian_mask_rejects_an_underflowing_corner():
    # at 0.01 of a 14x16x16 tile the corner weight is exp(-3275) = 0, so merge
    # would divide 0 by 0 where the corner alone covers the video; at 0.0065
    # of (1, 1, 2) it is exp(-740), subnormal, and (w * v) / w loses v there
    with pytest.raises(ValueError, match=r"sigma_fraction 0.01 underflows .* \(14, 16, 16\)"):
        gaussian_mask((14, 16, 16), 0.01)
    with pytest.raises(ValueError, match="sigma_fraction 0.0065 underflows"):
        gaussian_mask((1, 1, 2), 0.0065)
    grid = plan_tiles((16, 32, 32), (14, 16, 16))
    video = make_video(np.random.default_rng(2), 16, 1, 32, 32)
    for fraction in (0.1, 0.25, 1.0):
        out = round_trip(video, grid, gaussian_mask((14, 16, 16), fraction))
        assert np.max(np.abs(out - video[0::2])) <= 1e-12


def test_check_mask_corner_needs_no_mask():
    # a (1000, 100000, 100000) mask would be 8e13 float64 entries; the check
    # multiplies three per-axis end weights, exp(-2) each at 0.25
    check_mask_corner((1000, 100000, 100000), 0.25)
    with pytest.raises(ValueError, match=r"sigma_fraction 0.01 underflows .* \(1000, 100000, 100000\)"):
        check_mask_corner((1000, 100000, 100000), 0.01)
    with pytest.raises(ValueError, match="tile dims must be positive"):
        check_mask_corner((0, 4, 4), 0.25)


# --- merge ------------------------------------------------------------------

def test_merge_partition_of_unity_on_ones():
    grid = plan_tiles((6, 12, 10), (4, 6, 4))
    mask = gaussian_mask((4, 6, 4), 0.25)
    video = np.ones((6, 3, 12, 10))
    out = round_trip(video, grid, mask)
    assert out.shape == (3, 3, 12, 10)
    assert np.max(np.abs(out - 1.0)) <= 1e-12


def test_merge_roundtrip_random():
    rng = np.random.default_rng(7)
    video = make_video(rng, 5, 2, 9, 11)
    grid = plan_tiles((5, 9, 11), (3, 4, 5))
    mask = gaussian_mask((3, 4, 5), 0.25)
    out = round_trip(video, grid, mask)
    assert out.shape == (3, 2, 9, 11)  # the noise frames of 5
    assert np.max(np.abs(out - video[0::2])) <= 1e-12


def test_merge_two_tile_overlap_is_weighted_average():
    # extent 3, tile 2 -> offsets (0, 1); center voxel is shared by both tiles
    grid = plan_tiles((1, 1, 3), (1, 1, 2))
    mask = gaussian_mask((1, 1, 2), 0.25)
    a, b = 2.0, 5.0
    tiles = np.stack([np.full((1, 1, 1, 2), a), np.full((1, 1, 1, 2), b)])
    out = blended(tiles, Blend(grid, mask))
    # symmetric mask weights cancel in the shared voxel
    assert abs(out[0, 0, 0, 0] - a) < 1e-12
    assert abs(out[0, 0, 0, 1] - (a + b) / 2.0) < 1e-12
    assert abs(out[0, 0, 0, 2] - b) < 1e-12


def test_merge_rejects_bad_tile_sets():
    # a stack's estimates must be its tiles, in the grid's tile dims; the
    # numerator must be the noise frames' shape with the estimates' channels
    rng = np.random.default_rng(1)
    video = make_video(rng, 4, 1, 8, 8)
    grid = plan_tiles((4, 8, 8), (2, 4, 4))
    blend = Blend(grid, gaussian_mask((2, 4, 4), 0.25))
    assert blend.weights.shape == (2, 1, 8, 8)
    tiles = split(video, grid, slice(None))
    assert tiles.shape == (27, 2, 1, 4, 4)
    num = np.zeros((2, 1, 8, 8))
    for bad, stack in ((tiles[:-1], slice(None)), (tiles, slice(0, 26)), (tiles[:, :1], slice(None)),
                       (tiles[..., :3], slice(None)), (tiles[..., :3, :], slice(None)),
                       (tiles[0], slice(0, 1)), (tiles[None], slice(None))):
        with pytest.raises(ValueError, match="estimates have shape"):
            merge(num, bad, blend, stack)
    for bad_num in (np.zeros((4, 1, 8, 8)), np.zeros((2, 2, 8, 8)), np.zeros((2, 1, 8, 7))):
        with pytest.raises(ValueError, match="numerator shape"):
            merge(bad_num, tiles, blend, slice(None))
    assert not num.any()
    with pytest.raises(ValueError, match="mask shape"):
        Blend(grid, gaussian_mask((2, 4, 5), 0.25))


def test_merge_adds_only_the_noise_frames_of_each_tile():
    # 7 frames in tiles of 3 start at 0, 2 and 4: each tile's noise frames
    # are its even ones, the video's 0, 2, 4 and 6; a tile at an odd start
    # (tile of 2 over 5 frames: 0, 1, 2, 3) holds them in its odd half
    rng = np.random.default_rng(3)
    for frames, tf in ((7, 3), (5, 2), (6, 1), (4, 4)):
        grid = plan_tiles((frames, 4, 4), (tf, 4, 4))
        blend = Blend(grid, gaussian_mask((tf, 4, 4), 0.5))
        video = make_video(rng, frames, 2, 4, 4)
        tiles = split(video, grid, slice(None))
        poisoned = tiles.copy()
        for i, t0 in enumerate(grid.offsets_t):
            poisoned[i, 1 - t0 % 2::2] = np.nan  # every frame of the conditioning half
        assert np.array_equal(blended(poisoned, blend), blended(tiles, blend))
        assert np.max(np.abs(blended(tiles, blend) - video[0::2])) <= 1e-12


def test_blend_weights_are_the_summed_masks_on_the_noise_frames():
    grid = plan_tiles((6, 12, 10), (3, 6, 4))
    mask = gaussian_mask((3, 6, 4), 0.25)
    want = np.zeros((6, 1, 12, 10))
    for n in range(grid.n_temporal):
        for m in range(grid.n_spatial):
            st, sy, sx = grid.slices(n, m)
            want[st, :, sy, sx] += mask[:, None]
    blend = Blend(grid, mask)
    assert blend.weights.tobytes() == want[0::2].tobytes()
    assert blend.mask.dtype == np.float64


@settings(deadline=None, max_examples=60)
@given(
    st.integers(1, 6), st.integers(1, 3), st.integers(1, 16), st.integers(1, 16),
    st.integers(1, 6), st.integers(1, 16), st.integers(1, 16),
    st.floats(0.1, 1.0),
)
def test_merge_reconstructs_any_geometry(frames, ch, h, w, tf, th, tw, sigma_f):
    tf, th, tw = min(tf, frames), min(th, h), min(tw, w)
    rng = np.random.default_rng(frames * 1000 + h * 10 + w)
    video = make_video(rng, frames, ch, h, w)
    grid = plan_tiles((frames, h, w), (tf, th, tw))
    mask = gaussian_mask((tf, th, tw), sigma_f)
    out = round_trip(video, grid, mask)
    assert np.max(np.abs(out - video[0::2])) <= 1e-6


# --- interleave -------------------------------------------------------------

def test_interleave_pattern_and_roundtrip():
    rng = np.random.default_rng(5)
    x = make_video(rng, 3, 2, 4, 4)
    l = make_video(rng, 3, 2, 4, 4)
    y = interleave(x, l)
    assert y.shape == (6, 2, 4, 4)
    assert np.array_equal(y[0::2], x)
    assert np.array_equal(y[1::2], l)
    back_x, back_l = deinterleave(y)
    assert np.array_equal(back_x, x)
    assert np.array_equal(back_l, l)
    assert np.shares_memory(back_x, y) and np.shares_memory(back_l, y)  # views, no copies


def test_interleave_validation():
    x = np.zeros((2, 1, 4, 4))
    with pytest.raises(ValueError):
        interleave(x, np.zeros((3, 1, 4, 4)))
    with pytest.raises(ValueError):
        deinterleave(np.zeros((6, 4, 4)))
    # an odd count, as in a tile that starts or ends inside a pair: the even
    # half is one frame longer
    even, odd = deinterleave(np.arange(3.0).reshape(3, 1, 1, 1))
    assert even.ravel().tolist() == [0.0, 2.0] and odd.ravel().tolist() == [1.0]


def test_validate_video_rejects_bad_arrays():
    with pytest.raises(ValueError):
        validate_video(np.zeros((2, 4, 4)))
    with pytest.raises(ValueError):
        validate_video(np.full((1, 1, 2, 2), np.nan))
    with pytest.raises(ValueError):
        validate_video(np.zeros((0, 1, 2, 2)))


# --- in_range: the one range rule for numeric settings ----------------------

NAN = float("nan")
INF = float("inf")


def test_in_range_returns_the_value_inside_every_bound():
    assert in_range("x", 0.5, gt=0, le=1) == 0.5
    assert in_range("x", 1, gt=0, le=1) == 1
    assert in_range("x", 0.0, ge=0) == 0.0
    assert in_range("x", -3.0) == -3.0
    assert in_range("x", 2, ge=2) == 2 and isinstance(in_range("x", 2, ge=2), int)
    assert in_range("x", np.float64(0.25), gt=0) == 0.25


@pytest.mark.parametrize("value, bounds", [
    (0.0, {"gt": 0}), (-1e-300, {"ge": 0}), (1.0 + 1e-12, {"le": 1}), (1, {"ge": 2}),
    (0.5, {"gt": 0.5}), (2.0, {"gt": 0, "le": 1}),
])
def test_in_range_rejects_values_outside_a_bound(value, bounds):
    with pytest.raises(ValueError, match="must be finite"):
        in_range("x", value, **bounds)


@pytest.mark.parametrize("value", [NAN, INF, -INF, np.float64(NAN), 10 ** 400, -(10 ** 400)])
@pytest.mark.parametrize("bounds", [{}, {"gt": 0}, {"ge": 0}, {"le": 1}, {"gt": -INF, "le": INF}])
def test_in_range_rejects_non_finite_values_whatever_the_bounds(value, bounds):
    # ints too large for a float raise ValueError too, not OverflowError
    with pytest.raises(ValueError):
        in_range("x", value, **bounds)


def test_in_range_message_names_the_setting_and_its_range():
    with pytest.raises(ValueError, match=r"^rho must be finite, > 0, got nan$"):
        in_range("rho", NAN, gt=0)
    with pytest.raises(ValueError, match=r"^q must be finite, > 0, <= 1, got inf$"):
        in_range("q", INF, gt=0, le=1)
    with pytest.raises(ValueError, match=r"^scale must be finite, got -inf$"):
        in_range("scale", -INF)


_X = np.zeros((2, 1, 4, 4))
_Q = np.ones((2, 3, 4))
_TOY = ToyAttentionDenoiser(channels=1, embed_dim=8, cond_dim=4)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: build_sigma_schedule(NAN), id="build_sigma_schedule-steps"),
    pytest.param(lambda: build_sigma_schedule(3, sigma_min=NAN), id="build_sigma_schedule-sigma_min"),
    pytest.param(lambda: build_sigma_schedule(3, sigma_max=NAN), id="build_sigma_schedule-sigma_max"),
    pytest.param(lambda: build_sigma_schedule(3, exponent=NAN), id="build_sigma_schedule-exponent"),
    pytest.param(lambda: precondition(NAN), id="precondition-sigma"),
    pytest.param(lambda: precondition(1.0, NAN), id="precondition-sigma_data"),
    pytest.param(lambda: ode_step(_X, _X, NAN, 0.5), id="ode_step-sigma_cur"),
    pytest.param(lambda: ode_step(_X, _X, 1.0, NAN), id="ode_step-sigma_next"),
    pytest.param(lambda: gamma_schedule(NAN, 10.0, 1.0), id="gamma_schedule-sigma_t"),
    pytest.param(lambda: gamma_schedule(5.0, NAN, 1.0), id="gamma_schedule-sigma_start"),
    pytest.param(lambda: gamma_schedule(5.0, 10.0, NAN), id="gamma_schedule-sigma_end"),
    pytest.param(lambda: gamma_schedule(5.0, 10.0, 1.0, NAN), id="gamma_schedule-rho"),
    pytest.param(lambda: sag_input(_X, _X, np.zeros((2, 4, 4)), NAN, GuidanceConfig()),
                 id="sag_input-sigma"),
    pytest.param(lambda: gaussian_blur(_X, NAN), id="gaussian_blur-sigma"),
    pytest.param(lambda: bicubic_resize(_X, NAN), id="bicubic_resize-scale"),
    pytest.param(lambda: quantize(_X, NAN), id="quantize-levels"),
    pytest.param(lambda: gaussian_mask((2, 4, 4), NAN), id="gaussian_mask-sigma_fraction"),
    pytest.param(lambda: scaled_scores(_Q, _Q, NAN), id="scaled_scores-gamma"),
    pytest.param(lambda: attend(_Q, _Q, _Q, gamma=NAN), id="attend-gamma"),
    pytest.param(lambda: AnalyticGaussianDenoiser(sigma_data=NAN), id="analytic-sigma_data"),
    pytest.param(lambda: AnalyticGaussianDenoiser().denoise(_X, sigma=NAN), id="analytic-sigma"),
    pytest.param(lambda: AnalyticGaussianDenoiser().denoise(_X, gamma=NAN), id="analytic-gamma"),
    pytest.param(lambda: ToyAttentionDenoiser(channels=1, sigma_data=NAN), id="toy-sigma_data"),
    pytest.param(lambda: _TOY.denoise(_X[None], sigma=NAN), id="toy-sigma"),
    pytest.param(lambda: _TOY.denoise(_X[None], gamma=NAN), id="toy-gamma"),
])
def test_public_functions_reject_nan_settings(call):
    with pytest.raises(ValueError, match="must be finite"):
        call()


_F = np.zeros((1, 8, 8))


@pytest.mark.parametrize("value", [NAN, INF])
@pytest.mark.parametrize("call", [
    pytest.param(lambda v: ToyAttentionDenoiser(channels=1, patch_size=v), id="toy-patch_size"),
    pytest.param(lambda v: ToyAttentionDenoiser(channels=1, embed_dim=v), id="toy-embed_dim"),
    pytest.param(lambda v: ToyAttentionDenoiser(channels=1, spatial_layers=v), id="toy-spatial_layers"),
    pytest.param(lambda v: ToyAttentionDenoiser(channels=1, cond_dim=v), id="toy-cond_dim"),
    pytest.param(lambda v: block_match_flow(_F, _F, block=v), id="block_match_flow-block"),
    pytest.param(lambda v: block_match_flow(_F, _F, radius=v), id="block_match_flow-radius"),
])
def test_architecture_and_flow_window_reject_nan_and_inf(call, value):
    with pytest.raises(ValueError, match="must be finite"):
        call(value)
