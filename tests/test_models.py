"""Analytic Gaussian denoiser, toy attention denoiser, and the toy codec."""

import numpy as np
import pytest

from tilevsr.attention import InjectedKV
from tilevsr.models import (
    AnalyticGaussianDenoiser,
    ToyAttentionDenoiser,
    ToyCodec,
)


def toy(**kw):
    defaults = dict(seed=7, channels=1, patch_size=2, embed_dim=8,
                    spatial_layers=4, cond_dim=4)
    defaults.update(kw)
    return ToyAttentionDenoiser(**defaults)


# --- analytic denoiser ------------------------------------------------------

def test_analytic_posterior_mean_hand_case():
    den = AnalyticGaussianDenoiser(mu=0.3, sigma_data=0.5)
    x = np.full((1, 1, 2, 2), 1.0)
    out = den.denoise(x, None, 1.0).denoised
    # (0.25 * 1 + 1 * 0.3) / (0.25 + 1)
    assert np.max(np.abs(out - 0.44)) < 1e-15


def test_analytic_sigma_zero_is_identity_copy():
    den = AnalyticGaussianDenoiser()
    x = np.random.default_rng(0).standard_normal((2, 1, 3, 3))
    out = den.denoise(x, None, 0.0).denoised
    assert np.array_equal(out, x)
    out[0, 0, 0, 0] = 99.0
    assert x[0, 0, 0, 0] != 99.0


def test_analytic_large_sigma_approaches_prior_mean():
    den = AnalyticGaussianDenoiser(mu=-1.5, sigma_data=0.5)
    x = np.random.default_rng(1).standard_normal((1, 1, 4, 4))
    out = den.denoise(x, None, 1e6).denoised
    assert np.max(np.abs(out - (-1.5))) < 1e-6


def test_analytic_rejects_hooks():
    den = AnalyticGaussianDenoiser()
    x = np.zeros((1, 1, 2, 2))
    rows = np.ones((2, 4))
    with pytest.raises(ValueError):
        den.denoise(x, None, 1.0, injected={0: InjectedKV(rows, rows)})
    with pytest.raises(ValueError):
        den.denoise(x, None, 1.0, gamma=-1.0)
    with pytest.raises(ValueError):
        den.denoise(x, None, 1.0, collect_attention=True)  # no attention map to read
    # gamma and identity act on the hook layers, and it has none
    plain = den.denoise(x + 1.0, None, 1.0).denoised
    assert np.array_equal(den.denoise(x + 1.0, None, 1.0, gamma=0.5, identity=True).denoised, plain)


def test_analytic_closed_form_contraction():
    den = AnalyticGaussianDenoiser(mu=0.0, sigma_data=0.5)
    x = np.random.default_rng(2).standard_normal((8,)) * 10.0
    same = den.closed_form(x, 10.0, 10.0)
    assert np.max(np.abs(same - x)) < 1e-12
    end = den.closed_form(x, 10.0, 0.0)
    factor = 0.5 / np.sqrt(10.0 ** 2 + 0.25)
    assert np.max(np.abs(end - x * factor)) < 1e-12


def test_analytic_tweedie_residual_is_centered():
    # eps = (x - D)/sigma over x ~ N(mu, sigma_d^2 + sigma^2) has zero mean
    mu, sigma_d, sigma = 0.7, 0.5, 2.0
    den = AnalyticGaussianDenoiser(mu=mu, sigma_data=sigma_d)
    rng = np.random.default_rng(3)
    n = 10_000
    x = mu + np.sqrt(sigma_d ** 2 + sigma ** 2) * rng.standard_normal((n, 1, 1, 1))
    d = den.denoise(x, None, sigma).denoised
    eps = ((x - d) / sigma).ravel()
    stderr = eps.std(ddof=1) / np.sqrt(n)
    assert abs(eps.mean()) <= 3.0 * stderr


# --- toy attention denoiser -------------------------------------------------

def test_toy_output_shape_and_determinism():
    den = toy()
    x = np.random.default_rng(4).standard_normal((3, 1, 8, 8))
    a = den.denoise(x, den.cond_vector, 1.0).denoised
    b = den.denoise(x, den.cond_vector, 1.0).denoised
    assert a.shape == x.shape
    assert np.array_equal(a, b)
    other = toy(seed=8).denoise(x, None, 1.0).denoised
    assert not np.allclose(a, other)


def test_toy_same_seed_same_weights():
    a, b = toy(), toy()
    x = np.random.default_rng(5).standard_normal((2, 1, 8, 8))
    assert np.array_equal(a.denoise(x, None, 2.0).denoised,
                          b.denoise(x, None, 2.0).denoised)
    assert np.array_equal(a.cond_vector, b.cond_vector)


def test_toy_null_condition_is_bitwise_unconditional():
    den = toy()
    x = np.random.default_rng(6).standard_normal((2, 1, 8, 8))
    uncond = den.denoise(x, None, 1.0).denoised
    null = den.denoise(x, np.zeros(4), 1.0).denoised
    cond = den.denoise(x, den.cond_vector, 1.0).denoised
    assert np.array_equal(uncond, null)
    assert not np.allclose(uncond, cond)


def test_toy_frame_permutation_equivariance():
    den = toy()
    x = np.random.default_rng(7).standard_normal((5, 1, 8, 8))
    perm = np.array([3, 0, 4, 1, 2])
    direct = den.denoise(x[perm], None, 1.0).denoised
    permuted = den.denoise(x, None, 1.0).denoised[perm]
    assert np.max(np.abs(direct - permuted)) < 1e-12


def test_toy_validation_errors():
    den = toy()
    with pytest.raises(ValueError):
        den.denoise(np.zeros((2, 2, 8, 8)), None, 1.0)  # wrong channels
    with pytest.raises(ValueError):
        den.denoise(np.zeros((2, 1, 7, 8)), None, 1.0)  # not a patch multiple
    with pytest.raises(ValueError):
        den.denoise(np.zeros((2, 1, 8)), None, 1.0)
    with pytest.raises(ValueError):
        den.denoise(np.full((1, 1, 8, 8), np.nan), None, 1.0)
    with pytest.raises(ValueError):
        den.denoise(np.zeros((1, 1, 8, 8)), np.zeros(3), 1.0)  # cond dim
    rows = np.ones((2, 8))
    with pytest.raises(ValueError):
        den.denoise(np.zeros((1, 1, 8, 8)), None, 1.0, injected={9: InjectedKV(rows, rows)})
    with pytest.raises(ValueError):  # a real layer, but not a hook layer
        toy(spatial_layers=6).denoise(
            np.zeros((1, 1, 8, 8)), None, 1.0, injected={2: InjectedKV(rows, rows)},
        )
    with pytest.raises(ValueError):
        den.denoise(np.zeros((1, 1, 8, 8)), None, 1.0, gamma=-0.5)
    with pytest.raises(ValueError):
        ToyAttentionDenoiser(spatial_layers=3)


def test_toy_hook_layers_are_first_two_and_last_two():
    assert toy().hook_layers == (0, 1, 2, 3)
    assert toy(spatial_layers=6).hook_layers == (0, 1, 4, 5)


def test_toy_noop_hook_is_bitwise_transparent():
    den = toy()
    x = np.random.default_rng(8).standard_normal((2, 1, 8, 8))
    plain = den.denoise(x, None, 1.0).denoised
    empty = InjectedKV(np.zeros((0, 8)), np.zeros((0, 8)))
    hooked = den.denoise(x, None, 1.0, injected={0: empty}, gamma=0.0, identity=False).denoised
    assert np.array_equal(plain, hooked)


def test_toy_identity_hook_changes_output_and_uniform_map():
    den = toy()
    x = np.random.default_rng(9).standard_normal((2, 1, 8, 8))
    plain = den.denoise(x, None, 1.0)
    res = den.denoise(x, None, 1.0, identity=True, collect_attention=True)
    assert not np.allclose(res.denoised, plain.denoised)
    assert res.attention.shape == (2, 8, 8)  # pixel resolution
    assert np.max(np.abs(res.attention - 1.0 / 16.0)) < 1e-12


def test_toy_injection_changes_output():
    den = toy()
    x = np.random.default_rng(10).standard_normal((2, 1, 8, 8))
    plain = den.denoise(x, None, 1.0).denoised
    rows = np.random.default_rng(11).standard_normal((4, 8)) * 3.0
    inj = InjectedKV(rows, rows.copy())
    hooked = den.denoise(x, None, 1.0, injected={0: inj}).denoised
    assert not np.allclose(plain, hooked)


def test_toy_collect_kv_shapes():
    den = toy()
    x = np.random.default_rng(12).standard_normal((3, 1, 8, 8))
    res = den.denoise(x, None, 1.0, collect_kv=True)
    assert sorted(res.keys) == [0, 1, 2, 3]
    for layer in res.keys:
        assert res.keys[layer].shape == (3, 4, 4, 8)
        assert res.values[layer].shape == (3, 4, 4, 8)


def test_toy_collect_kv_keeps_hook_layers_only():
    den = toy(spatial_layers=6)
    x = np.random.default_rng(12).standard_normal((1, 1, 8, 8))
    res = den.denoise(x, None, 1.0, collect_kv=True)
    assert tuple(res.keys) == tuple(res.values) == den.hook_layers == (0, 1, 4, 5)
    assert np.array_equal(res.denoised, den.denoise(x, None, 1.0).denoised)


def test_toy_attention_map_is_patch_replicated_token_means():
    den = toy()
    x = np.random.default_rng(14).standard_normal((2, 1, 8, 8))
    res = den.denoise(x, None, 1.0, collect_attention=True)
    assert res.attention.shape == (2, 8, 8)
    assert np.array_equal(res.attention[:, ::2, ::2], res.attention[:, 1::2, 1::2])
    # with no injected keys each query's weights sum to one over the 16 tokens
    assert np.allclose(res.attention.mean(axis=(1, 2)), 1.0 / 16.0, rtol=0, atol=1e-15)
    assert np.array_equal(res.denoised, den.denoise(x, None, 1.0).denoised)
    assert den.denoise(x, None, 1.0).attention is None


def test_toy_gamma_hook_tempered_towards_uniform():
    den = toy()
    x = np.random.default_rng(13).standard_normal((1, 1, 8, 8))
    res = den.denoise(x, None, 1.0, gamma=1e6, collect_attention=True)
    assert np.max(np.abs(res.attention - 1.0 / 16.0)) < 1e-6


# --- toy codec --------------------------------------------------------------

def test_codec_factor_validation():
    ToyCodec(1)
    ToyCodec(8)
    for bad in (0, 3, 6, -2):
        with pytest.raises(ValueError):
            ToyCodec(bad)


def test_codec_constant_videos_are_fixed_points():
    codec = ToyCodec(4)
    video = np.full((2, 3, 16, 16), 0.37)
    lat = codec.encode(video)
    assert lat.shape == (2, 3, 4, 4)
    assert np.array_equal(lat, np.full((2, 3, 4, 4), 0.37))
    back = codec.decode(lat)
    assert np.array_equal(back, video)


def test_codec_impulse_energy():
    codec = ToyCodec(4)
    video = np.zeros((1, 1, 8, 8))
    video[0, 0, 0, 0] = 1.0
    lat = codec.encode(video)
    assert lat[0, 0, 0, 0] == 1.0 / 16.0
    assert np.count_nonzero(lat) == 1


def test_codec_roundtrip_is_blockwise_mean():
    rng = np.random.default_rng(14)
    video = rng.standard_normal((2, 2, 8, 8))
    codec = ToyCodec(2)
    lat = codec.encode(video)
    ref = video.reshape(2, 2, 4, 2, 4, 2).mean(axis=(3, 5))
    assert np.max(np.abs(lat - ref)) < 1e-12
    up = codec.decode(lat)
    assert up.shape == video.shape
    assert np.array_equal(up, np.repeat(np.repeat(lat, 2, axis=2), 2, axis=3))
    # encode of a decoded latent returns the latent exactly
    assert np.array_equal(codec.encode(up), lat)


def test_codec_factor_one_is_identity():
    codec = ToyCodec(1)
    video = np.random.default_rng(15).standard_normal((1, 1, 4, 4))
    assert np.array_equal(codec.encode(video), video)
    assert np.array_equal(codec.decode(video), video)


def test_codec_rejects_indivisible_dims():
    codec = ToyCodec(4)
    with pytest.raises(ValueError):
        codec.encode(np.zeros((1, 1, 6, 8)))
