"""Guidance combinators, the suppression schedule, the branch table, and the
masked blur of self-attention guidance."""

import math

import numpy as np
import pytest

from tilevsr.guidance import (
    GUIDANCE_BRANCHES,
    GUIDANCE_MODES,
    GuidanceConfig,
    combine,
    gamma_schedule,
    sag_input,
)


def arrays(seed=0, shape=(2, 3, 4, 4)):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape), rng.standard_normal(shape)


# --- combinators ------------------------------------------------------------

def test_scale_minus_one_returns_base_exactly():
    base, target = arrays(0)
    out = combine(base, target, -1.0)
    assert np.array_equal(out, base)


def test_scale_zero_returns_target_exactly():
    base, target = arrays(1)
    # magnitudes chosen so a naive base + (target - base) would round
    base = base * 1e16
    out = combine(base, target, 0.0)
    assert np.array_equal(out, target)


def test_equal_inputs_fixed_point_for_any_scale():
    base, _ = arrays(2)
    for s in (-3.0, -1.0, 0.0, 0.7, 1.0, 5.0):
        out = combine(base, base.copy(), s)
        assert np.all(out == base)


def test_forced_arithmetic_cases():
    z = np.zeros((2, 2))
    o = np.ones((2, 2))
    assert np.allclose(combine(z, o, 1.0), 2.0)
    out = combine(np.full((1,), 1.0), np.full((1,), 3.0), 0.5)
    assert abs(out[0] - 4.0) < 1e-12


def test_combine_is_affine_in_scale():
    base, target = arrays(3)
    s1, s2 = 0.25, 1.75
    mid = combine(base, target, (s1 + s2) / 2.0)
    avg = 0.5 * (combine(base, target, s1) + combine(base, target, s2))
    assert np.max(np.abs(mid - avg)) < 1e-12


def test_combine_shape_mismatch():
    with pytest.raises(ValueError):
        combine(np.zeros((2, 2)), np.zeros((2, 3)), 1.0)


# --- suppression schedule ---------------------------------------------------

def test_gamma_schedule_endpoints_exact():
    assert gamma_schedule(700.0, 700.0, 0.002) == 1.0
    assert gamma_schedule(0.002, 700.0, 0.002) == 0.0


def test_gamma_schedule_log_midpoint():
    a, b = 700.0, 0.002
    mid = math.sqrt(a * b)
    got = gamma_schedule(mid, a, b, rho=0.5)
    assert abs(got - math.sqrt(0.5)) < 1e-12


def test_gamma_schedule_monotone_and_bounded():
    sigmas = np.geomspace(700.0, 0.002, 40)
    gammas = [gamma_schedule(float(s), 700.0, 0.002) for s in sigmas]
    assert all(0.0 <= g <= 1.0 for g in gammas)
    assert all(a >= b for a, b in zip(gammas, gammas[1:]))


def test_gamma_schedule_rho_bends_the_curve():
    mid = math.sqrt(700.0 * 0.002)
    g_half = gamma_schedule(mid, 700.0, 0.002, rho=0.5)
    g_two = gamma_schedule(mid, 700.0, 0.002, rho=2.0)
    assert abs(g_half - 0.5 ** 0.5) < 1e-12
    assert abs(g_two - 0.25) < 1e-12


def test_gamma_schedule_validation():
    with pytest.raises(ValueError):
        gamma_schedule(800.0, 700.0, 0.002)
    with pytest.raises(ValueError):
        gamma_schedule(0.001, 700.0, 0.002)
    with pytest.raises(ValueError):
        gamma_schedule(1.0, 0.002, 700.0)


# --- config validation ------------------------------------------------------

def test_guidance_config_validation():
    GuidanceConfig(mode="none")
    GuidanceConfig(mode="sag", sag_mask_quantile=1.0)
    with pytest.raises(ValueError):
        GuidanceConfig(mode="super")
    with pytest.raises(ValueError):
        GuidanceConfig(rho=0.0)
    with pytest.raises(ValueError):
        GuidanceConfig(sag_mask_quantile=0.0)
    with pytest.raises(ValueError):
        GuidanceConfig(sag_mask_quantile=1.5)


# --- branch table -----------------------------------------------------------

def test_every_mode_is_a_row_in_the_configured_order():
    assert GUIDANCE_MODES == ("none", "cfg", "sag", "pag", "dssag", "cfg_dssag")
    assert tuple(GUIDANCE_BRANCHES) == GUIDANCE_MODES
    # only sag blurs, and only after its first branch has run
    for mode, row in GUIDANCE_BRANCHES.items():
        assert not row[0].blurred
        assert any(b.blurred for b in row) == (mode == "sag")


# --- blur-based guidance ----------------------------------------------------

def eps_of(x):
    """Deterministic stand-in noise estimate, eps(x) = 0.1 * x."""
    return 0.1 * x


def uniform_map(x):
    f, _, h, w = x.shape
    return np.full((f, h, w), 1.0 / (h * w))


def sag_guided(x, sigma, conf):
    """sag's row by hand: estimate, blurred input, then combine its estimate
    (base) with the target's; also returns the blurred input."""
    blurred = sag_input(x, eps_of(x), uniform_map(x), sigma, conf)
    return combine(eps_of(blurred), eps_of(x), conf.scale), blurred


def test_sag_blur_zero_reduces_to_plain_eps():
    rng = np.random.default_rng(20)
    x = rng.standard_normal((2, 1, 8, 8))
    conf = GuidanceConfig(mode="sag", scale=2.0, sag_blur_sigma=0.0)
    out, blurred = sag_guided(x, 1.5, conf)
    assert np.all(out == 0.1 * x)
    # perturbed input equals the original when blur is disabled
    assert np.array_equal(blurred, x)


def test_sag_quantile_one_gives_empty_mask():
    rng = np.random.default_rng(21)
    x = rng.standard_normal((2, 1, 8, 8))
    conf = GuidanceConfig(mode="sag", scale=1.0, sag_blur_sigma=3.0, sag_mask_quantile=1.0)
    out, blurred = sag_guided(x, 1.0, conf)
    # strict threshold at the max leaves no token masked, so b(x) == x
    assert np.array_equal(blurred, x)
    assert np.all(out == 0.1 * x)


def test_sag_constant_signal_blur_is_identity():
    x = np.full((1, 1, 6, 6), 3.0)
    conf = GuidanceConfig(mode="sag", scale=1.0, sag_blur_sigma=2.0, sag_mask_quantile=0.5)
    out, _ = sag_guided(x, 2.0, conf)
    # x0 = x - sigma * 0.1x is constant, so blurring changes nothing
    assert np.max(np.abs(out - 0.1 * x)) < 1e-12


def test_sag_perturbs_masked_regions_only():
    # one bright block attracts the attention mass; everything else is flat
    f, h, w = 1, 8, 8
    x = np.zeros((f, 1, h, w))
    x[0, 0, 2:4, 2:4] = 50.0

    hot = np.zeros((f, h, w))
    hot[0, 2:4, 2:4] = 1.0

    conf = GuidanceConfig(mode="sag", scale=1.0, sag_blur_sigma=1.0, sag_mask_quantile=0.9)
    perturbed = sag_input(x, np.zeros_like(x), hot, 1.0, conf)
    changed = np.abs(perturbed - x)[0, 0]
    assert changed[2:4, 2:4].max() > 0.0
    untouched = changed.copy()
    untouched[2:4, 2:4] = 0.0
    assert untouched.max() == 0.0


def test_sag_input_rejects_a_misaligned_map_and_bad_sigma():
    x = np.zeros((2, 1, 8, 8))
    conf = GuidanceConfig(mode="sag")
    with pytest.raises(ValueError):
        sag_input(x, x, np.zeros((2, 4, 4)), 1.0, conf)  # token, not pixel, resolution
    with pytest.raises(ValueError):
        sag_input(x, x, None, 1.0, conf)
    with pytest.raises(ValueError):
        sag_input(x, x, uniform_map(x), 0.0, conf)


@pytest.mark.parametrize("quantile", [0.3, 0.5, 0.9])
def test_sag_input_on_a_stack_is_sag_input_per_tile(quantile):
    # each tile's mask comes from its own map's quantile: the tiles' maps sit
    # on different levels, so one quantile over the whole stack would mask
    # the hot tiles everywhere and the cold ones nowhere
    rng = np.random.default_rng(22)
    x = rng.standard_normal((4, 3, 2, 8, 8))
    eps = rng.standard_normal(x.shape)
    attention = rng.uniform(0.0, 1.0, (4, 3, 8, 8)) + np.arange(4)[:, None, None, None]
    conf = GuidanceConfig(mode="sag", sag_blur_sigma=1.0, sag_mask_quantile=quantile)
    stacked = sag_input(x, eps, attention, 0.7, conf)
    assert stacked.shape == x.shape
    for t in range(len(x)):
        assert stacked[t].tobytes() == sag_input(x[t], eps[t], attention[t], 0.7, conf).tobytes()
    with pytest.raises(ValueError):
        sag_input(x, eps, attention[:3], 0.7, conf)  # one map short
