"""Deterministic stand-in models: an analytic Gaussian denoiser with a
closed-form ODE solution, a small attention denoiser with hookable layers,
and a linear low-pass codec. All weights come from seeded generators, so the
same construction arguments always give the same forward pass.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .attention import attend
# The step-by-step reference kernels stay importable from this module: the
# benchmark's outside-in tracer (perfbench/tracer.py) wraps these names here.
from .attention import extend_kv, scaled_scores, softmax_rows  # noqa: F401
from .tiles import in_range, int_in_range


@dataclass(frozen=True)
class Precondition:
    c_skip: float
    c_out: float
    c_in: float
    c_noise: float


def precondition(sigma: float, sigma_data: float = 0.5) -> Precondition:
    """Scaling coefficients tying the raw network to the denoiser output."""
    in_range("sigma", sigma, gt=0)
    in_range("sigma_data", sigma_data, gt=0)
    s2 = sigma * sigma
    d2 = sigma_data * sigma_data
    return Precondition(
        c_skip=d2 / (s2 + d2),
        c_out=sigma * sigma_data / np.sqrt(s2 + d2),
        c_in=1.0 / np.sqrt(s2 + d2),
        c_noise=float(np.log(sigma)) / 4.0,
    )


@dataclass
class DenoiseResult:
    """A stacked forward's outputs, each with the leading tile axis."""

    denoised: np.ndarray | None  # (tiles, frames, c, h, w); None after a kv_only forward
    keys: dict = field(default_factory=dict)     # hook layer -> (tiles, frames, gh, gw, d)
    values: dict = field(default_factory=dict)   # hook layer -> (tiles, frames, gh, gw, d)
    attention: np.ndarray | None = None  # (tiles, frames, h, w), mean over hook layers


@dataclass
class AnalyticGaussianDenoiser:
    """Exact posterior mean under an isotropic Gaussian data prior N(mu, sd^2).

    D(x; sigma) = (sd^2 * x + sigma^2 * mu) / (sd^2 + sigma^2). Along the
    probability-flow ODE this gives the closed-form trajectory
    x(s_b) = mu + (x(s_a) - mu) * sqrt((s_b^2 + sd^2) / (s_a^2 + sd^2)).
    """

    mu: float = 0.0
    sigma_data: float = 0.5

    hook_layers = ()

    def __post_init__(self):
        in_range("sigma_data", self.sigma_data, gt=0)

    def denoise(self, x, conditional: bool = False, sigma: float = 1.0, injected=None,
                gamma: float = 0.0, identity: bool = False, collect_kv: bool = False,
                collect_attention: bool = False) -> DenoiseResult:
        """Elementwise, on any shape. conditional, gamma and identity act on
        nothing: the model has no conditioning and no hook layers."""
        x = np.asarray(x, dtype=np.float64)
        if injected:
            raise ValueError("analytic denoiser has no hookable layers")
        in_range("gamma", gamma, ge=0)
        if collect_attention:
            raise ValueError("analytic denoiser has no attention map to collect")
        in_range("sigma", sigma, ge=0)
        if sigma == 0:
            return DenoiseResult(denoised=x.copy())
        d2 = self.sigma_data * self.sigma_data
        s2 = sigma * sigma
        return DenoiseResult(denoised=(d2 * x + s2 * self.mu) / (d2 + s2))

    def closed_form(self, x_start, sigma_start: float, sigma_end: float):
        """Exact ODE solution from sigma_start down to sigma_end."""
        x_start = np.asarray(x_start, dtype=np.float64)
        d2 = self.sigma_data * self.sigma_data
        ratio = np.sqrt((sigma_end * sigma_end + d2) / (sigma_start * sigma_start + d2))
        return self.mu + (x_start - self.mu) * ratio


def _sinusoid(n_pos: int, dims: int) -> np.ndarray:
    pos = np.arange(n_pos, dtype=np.float64)[:, None]
    i = np.arange(dims, dtype=np.float64)[None, :]
    freq = 1.0 / (100.0 ** (np.floor(i / 2.0) * 2.0 / max(dims, 1)))
    ang = pos * freq
    return np.where(np.arange(dims)[None, :] % 2 == 0, np.sin(ang), np.cos(ang))


@functools.lru_cache(maxsize=64)
def _positions(gh: int, gw: int, embed_dim: int) -> np.ndarray:
    """Read-only (gh * gw, embed_dim) table: row then column sinusoids.

    It depends only on the token grid, so every forward on one grid shares it.
    """
    half = embed_dim // 2
    rows = _sinusoid(gh, half)
    cols = _sinusoid(gw, embed_dim - half)
    table = np.concatenate([np.repeat(rows, gw, axis=0), np.tile(cols, (gh, 1))], axis=1)
    table.flags.writeable = False
    return table


@dataclass(kw_only=True)
class ToyDenoiserConfig:
    """ToyAttentionDenoiser's settings: the run config's `denoiser` section."""

    seed: int = 1234
    patch_size: int = 4
    embed_dim: int = 32
    spatial_layers: int = 4
    cond_dim: int = 8
    sigma_data: float = 0.5  # the preconditioning's data scale

    def __post_init__(self):
        # the hook layers are the first two and the last two
        self.spatial_layers = int_in_range("spatial_layers", self.spatial_layers, ge=4)
        self.patch_size = int_in_range("patch_size", self.patch_size, ge=1)
        self.cond_dim = int_in_range("cond_dim", self.cond_dim, ge=1)
        self.embed_dim = int_in_range("embed_dim", self.embed_dim, ge=2)
        if self.embed_dim % 2 != 0:
            raise ValueError(f"embed_dim must be even, got {self.embed_dim}")
        self.sigma_data = float(in_range("sigma_data", self.sigma_data, gt=0))
        # named by its config key, which tells it from the sampler's seed
        self.seed = int_in_range("denoiser_seed", self.seed, ge=0)


@dataclass(kw_only=True, eq=False)
class ToyAttentionDenoiser(ToyDenoiserConfig):
    """Patch-token denoiser with hookable per-frame spatial attention.

    Layout: patch embedding with sinusoidal spatial position features, then
    `spatial_layers` self-attention blocks over each frame's tokens (these
    are the hookable ones), one attention block mixing tokens across frames,
    and a linear patch decoder. The network output feeds the standard
    skip/out preconditioning, so the object behaves as a denoiser D(x; sigma).

    Frames carry no positional encoding and the temporal block is plain
    attention, so the model is equivariant to frame permutations. Residual
    updates pass through tanh, keeping outputs bounded on bounded inputs.
    """

    channels: int = 3

    # a model is itself, not its settings: it compares and hashes by identity
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __post_init__(self):
        super().__post_init__()
        self.channels = int_in_range("channels", self.channels, ge=1)

        rng = np.random.default_rng(self.seed)
        d = self.embed_dim
        patch_dim = self.channels * self.patch_size * self.patch_size
        self.w_embed = rng.normal(0.0, 0.5 / np.sqrt(patch_dim), (patch_dim, d))
        self.v_noise = rng.normal(0.0, 0.1, (d,))
        self.w_cond = rng.normal(0.0, 0.1, (self.cond_dim, d))
        scale = 1.0 / np.sqrt(d)
        self.layers = [
            tuple(rng.normal(0.0, scale, (d, d)) for _ in range(4))  # wq, wk, wv, wo
            for _ in range(self.spatial_layers)
        ]
        self.temporal = tuple(rng.normal(0.0, scale, (d, d)) for _ in range(4))
        self.w_out = rng.normal(0.0, 0.5 / np.sqrt(d), (d, patch_dim))
        self.cond_vector = rng.normal(0.0, 1.0, (self.cond_dim,))

        first_last = [0, 1, self.spatial_layers - 2, self.spatial_layers - 1]
        self.hook_layers = tuple(sorted(set(first_last)))

    def _patchify(self, x: np.ndarray) -> np.ndarray:
        n, f, c, h, w = x.shape
        p = self.patch_size
        gh, gw = h // p, w // p
        return (
            x.reshape(n, f, c, gh, p, gw, p)
            .transpose(0, 1, 3, 5, 2, 4, 6)
            .reshape(n, f, gh * gw, c * p * p)
        )

    def _unpatchify(self, tokens: np.ndarray, gh: int, gw: int) -> np.ndarray:
        n, f = tokens.shape[:2]
        p = self.patch_size
        c = self.channels
        return (
            tokens.reshape(n, f, gh, gw, c, p, p)
            .transpose(0, 1, 4, 2, 5, 3, 6)
            .reshape(n, f, c, gh * p, gw * p)
        )

    def denoise(self, x, conditional: bool = False, sigma: float = 1.0, injected=None,
                gamma: float = 0.0, identity: bool = False, collect_kv: bool = False,
                collect_attention: bool = False, kv_only: bool = False) -> DenoiseResult:
        """D(x; sigma) on a stack of same-shape tiles (tiles, frames, channels,
        h, w), conditioned on the model's own cond_vector when `conditional`.
        Every output carries the tile axis, and each tile's bits are those of
        a stack of it alone. The spatial layers run on (tiles, frames, tokens,
        d) and the temporal block on (tiles, tokens, frames, d), one attend
        call each.

        The hook settings act on the hook layers only: `injected` maps a hook
        layer to the read-only InjectedKV rows that extend its keys and values
        (shared by the stack or one set per tile), gamma > 0 tempers their
        score denominators, and identity replaces their attention by the value
        rows (ignoring injections: it needs the tile's own rows). collect_kv
        keeps each hook layer's K/V on the token grid, (tiles, frames, gh, gw,
        d); collect_attention returns the weight each token receives, averaged
        over the queries and the hook layers and repeated to pixel resolution
        (tiles, frames, h, w). kv_only stops once the last hook layer's K/V
        exist and returns those K/V alone (denoised is None).
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 5:
            raise ValueError(f"expected a stack (tiles, frames, channels, h, w), got shape {x.shape}")
        n, f, ch, h, w = x.shape
        if ch != self.channels:
            raise ValueError(f"denoiser built for {self.channels} channels, got {ch}")
        p = self.patch_size
        if h % p != 0 or w % p != 0 or h < p or w < p:
            raise ValueError(f"spatial dims {h}x{w} must be positive multiples of patch size {p}")
        if not np.all(np.isfinite(x)):
            raise ValueError("input contains non-finite values")
        injected = injected or {}
        for layer in injected:
            if layer not in self.hook_layers:
                raise ValueError(f"injection into layer {layer}; the hook layers are {self.hook_layers}")
        in_range("gamma", gamma, ge=0)

        pre = precondition(sigma, self.sigma_data)
        gh, gw = h // p, w // p
        tok = self._patchify(pre.c_in * x) @ self.w_embed  # (tiles, frames, tokens, d)
        tok = tok + 0.1 * _positions(gh, gw, self.embed_dim)
        tok = tok + pre.c_noise * self.v_noise
        if conditional:
            tok = tok + self.cond_vector @ self.w_cond

        keys_out: dict = {}
        values_out: dict = {}
        maps = []
        for idx, (wq, wk, wv, wo) in enumerate(self.layers):
            k = tok @ wk
            v = tok @ wv
            hooked = idx in self.hook_layers
            if (collect_kv or kv_only) and hooked:  # attend never writes to k or v
                keys_out[idx] = k.reshape(n, f, gh, gw, -1)
                values_out[idx] = v.reshape(n, f, gh, gw, -1)
                if kv_only and idx == self.hook_layers[-1]:
                    return DenoiseResult(denoised=None, keys=keys_out, values=values_out)
            means = collect_attention and hooked
            if identity and hooked:
                out = v
                if means:
                    maps.append(np.full((n, f, gh, gw), 1.0 / (gh * gw)))
            else:
                # no injection and gamma 0 are plain attention, bit for bit
                out = attend(tok @ wq, k, v, injected.get(idx), gamma if hooked else 0.0,
                             own_key_means=means)
                if means:  # the mean weight each of the tile's own tokens receives
                    out, received = out
                    maps.append(received.reshape(n, f, gh, gw))
            tok = tok + np.tanh(out @ wo) * 0.5

        twq, twk, twv, two = self.temporal
        tt = tok.transpose(0, 2, 1, 3)  # (tiles, tokens, frames, d)
        out_t = attend(tt @ twq, tt @ twk, tt @ twv)
        tok = tok + np.tanh(out_t @ two).transpose(0, 2, 1, 3) * 0.5

        raw = self._unpatchify(tok @ self.w_out, gh, gw)
        attention = None
        if collect_attention:
            attention = np.repeat(np.repeat(np.mean(maps, axis=0), p, axis=-2), p, axis=-1)
        return DenoiseResult(denoised=pre.c_skip * x + pre.c_out * raw, keys=keys_out,
                             values=values_out, attention=attention)


@dataclass
class ToyCodec:
    """Linear spatial codec: power-of-two box low-pass down, nearest up.

    encode halves each spatial axis log2(factor) times by averaging adjacent
    pairs ((a + b) / 2 taps), which keeps constants exact; decode replicates
    each latent pixel factor x factor. factor = 1 is the identity.
    """

    factor: int = 8

    def __post_init__(self):
        f = int_in_range("codec_factor", self.factor, ge=1)
        if f & (f - 1) != 0:
            raise ValueError(f"codec factor must be a power of two >= 1, got {self.factor}")
        self.factor = f

    def encode(self, video: np.ndarray) -> np.ndarray:
        x = np.asarray(video, dtype=np.float64)
        if x.ndim != 4:
            raise ValueError(f"expected (frames, channels, h, w), got shape {x.shape}")
        f = self.factor
        if x.shape[-2] % f != 0 or x.shape[-1] % f != 0:
            raise ValueError(f"spatial dims {x.shape[-2]}x{x.shape[-1]} not divisible by factor {f}")
        if f == 1:
            return x.copy()
        out = x  # the first halving allocates
        for _ in range(int(np.log2(f))):
            out = (out[..., 0::2, :] + out[..., 1::2, :]) * 0.5
            out = (out[..., :, 0::2] + out[..., :, 1::2]) * 0.5
        return out

    def decode(self, latent: np.ndarray) -> np.ndarray:
        z = np.asarray(latent, dtype=np.float64)
        if z.ndim != 4:
            raise ValueError(f"expected (frames, channels, h, w), got shape {z.shape}")
        f = self.factor
        if f == 1:
            return z.copy()
        return np.repeat(np.repeat(z, f, axis=-2), f, axis=-1)
