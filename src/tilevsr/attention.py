"""Attention kernels and cross-tile key/value plumbing.

All kernels accept matrices of shape (..., tokens, d); leading axes are
batched (the video denoiser batches over frames). `attend` is the one kernel
the denoiser calls: plain, detail-suppressed and injected-K/V attention are
all its arguments, so gamma = 0 reproduces plain attention bit for bit.
`scaled_scores`, `softmax_rows` and `extend_kv` compute the same values step
by step and serve as its reference.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tiles import in_range


# Live score memory of one `attend` block: whole (queries x keys) matrices
# are scored together up to this many bytes (one matrix when it alone is
# larger), so memory stays bounded however many injected rows arrive.
SCORE_BLOCK_BYTES = 2 * 1024 * 1024


def scaled_scores(q: np.ndarray, k: np.ndarray, gamma: float = 0.0) -> np.ndarray:
    """Q K^T / (max(gamma^2 * qmax * kmax, 1) * sqrt(d)).

    qmax/kmax are the largest absolute entries of Q and K (per batched
    matrix). gamma = 0 leaves the temper factor at exactly 1.
    """
    in_range("gamma", gamma, ge=0)
    d = q.shape[-1]
    raw = q @ np.swapaxes(k, -1, -2)
    qmax = np.max(np.abs(q), axis=(-2, -1), keepdims=True)
    kmax = np.max(np.abs(k), axis=(-2, -1), keepdims=True)
    temper = np.maximum(gamma * gamma * qmax * kmax, 1.0)
    return raw / (temper * np.sqrt(d))


def softmax_rows(scores: np.ndarray) -> np.ndarray:
    """Row-wise softmax, stabilized by subtracting the row maximum."""
    shifted = scores - scores.max(axis=-1, keepdims=True)
    w = np.exp(shifted)
    return w / w.sum(axis=-1, keepdims=True)


def attend(q: np.ndarray, k: np.ndarray, v: np.ndarray, injected: InjectedKV | None = None,
           gamma: float = 0.0, own_key_means: bool = False):
    """softmax(Q [K; K_inj]^T / (max(gamma^2 * qmax * kmax, 1) * sqrt(d))) [V; V_inj].

    Bit for bit the values of softmax_rows(scaled_scores(q, k2, gamma)) @ v2
    with k2, v2 = extend_kv(k, v, injected), in float64, but without the
    batch-wide k2, v2 or score tensor. Leading axes are walked in blocks of
    whole (queries x keys) matrices holding at most SCORE_BLOCK_BYTES of
    scores. The buffers are reused from block to block: [K; K_inj] and
    [V; V_inj] get the injected rows, shared by every matrix, written once.
    The temper takes kmax over own and injected keys apart (max is exact);
    division, max shift, exp and row normalisation run in place. Every GEMM
    keeps the reference's per-matrix shape, (nq x d)(d x keys) and
    (nq x keys)(keys x dv): BLAS rounds a product differently when its query
    rows or key columns are split.

    With own_key_means, returns (output, means) where means (..., own keys)
    is the weight each own key receives, averaged over the queries: bit for
    bit softmax_rows(scaled_scores(q, k2, gamma))[..., :nk].mean(-2), taken
    block by block. q, k and v must share their batch shape (a ValueError
    otherwise); their values are trusted: the caller validates them.
    """
    in_range("gamma", gamma, ge=0)
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    n_inj = 0
    if injected is not None and injected.rows > 0:
        _check_injected_dims(injected, k, v)
        n_inj = injected.rows
    batch = q.shape[:-2]
    if k.shape[:-2] != batch or v.shape[:-2] != batch:
        raise ValueError(
            f"q, k and v need equal batch shapes, got {batch}, {k.shape[:-2]} and {v.shape[:-2]}"
        )
    (nq, d), nk, dv = q.shape[-2:], k.shape[-2], v.shape[-1]
    n_keys = nk + n_inj
    qs = q.reshape(-1, nq, d)
    ks = k.reshape(-1, nk, d)
    vs = v.reshape(-1, nk, dv)
    n_mat = qs.shape[0]
    per_block = max(1, SCORE_BLOCK_BYTES // max(1, nq * n_keys * 8))
    block = min(per_block, n_mat)

    weights = np.empty((block, nq, n_keys))
    out = np.empty((n_mat, nq, dv))
    means = np.empty((n_mat, nk)) if own_key_means else None
    root_d = np.sqrt(d)
    if n_inj:
        inj_kmax = np.max(np.abs(injected.keys))
        k_ext = np.empty((block, n_keys, d))
        k_ext[:, nk:] = injected.keys
        if nk == 1:
            # With one own row per matrix, np.concatenate interleaves the
            # matrices' rows, and BLAS rounds a one-query product by that row
            # stride: take the reference's own [V; V_inj] to keep its bits.
            v_all = extend_kv(ks, vs, injected)[1]
        else:
            v_ext = np.empty((block, n_keys, dv))
            v_ext[:, nk:] = injected.values
    for start in range(0, n_mat, per_block):
        stop = min(start + per_block, n_mat)
        qb, kb, vb = qs[start:stop], ks[start:stop], vs[start:stop]
        qmax = np.max(np.abs(qb), axis=(-2, -1), keepdims=True, initial=0.0)
        kmax = np.max(np.abs(kb), axis=(-2, -1), keepdims=True, initial=0.0)
        if n_inj:
            kmax = np.maximum(kmax, inj_kmax)
            k_ext[:stop - start, :nk] = kb
            kb = k_ext[:stop - start]
            if nk == 1:
                vb = v_all[start:stop]
            else:
                v_ext[:stop - start, :nk] = vb
                vb = v_ext[:stop - start]
        s = weights[:stop - start]
        np.matmul(qb, np.swapaxes(kb, -1, -2), out=s)
        temper = np.maximum(gamma * gamma * qmax * kmax, 1.0)
        np.divide(s, temper * root_d, out=s)
        np.subtract(s, s.max(axis=-1, keepdims=True), out=s)
        np.exp(s, out=s)
        np.divide(s, s.sum(axis=-1, keepdims=True), out=s)
        if own_key_means:
            means[start:stop] = s[..., :nk].mean(axis=-2)
        np.matmul(s, vb, out=out[start:stop])
    out = out.reshape(batch + (nq, dv))
    if own_key_means:
        return out, means.reshape(batch + (nk,))
    return out


@dataclass
class InjectedKV:
    """Key/value rows gathered from other tiles."""

    keys: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.keys = np.asarray(self.keys, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.keys.ndim != 2 or self.values.ndim != 2:
            raise ValueError("injected keys/values must be 2-D")
        if self.keys.shape[0] != self.values.shape[0]:
            raise ValueError(
                f"injected keys have {self.keys.shape[0]} rows, values {self.values.shape[0]}"
            )

    @property
    def rows(self) -> int:
        return self.keys.shape[0]


def _check_injected_dims(injected: InjectedKV, k: np.ndarray, v: np.ndarray) -> None:
    if injected.keys.shape[1] != k.shape[-1]:
        raise ValueError(
            f"injected key dim {injected.keys.shape[1]} does not match {k.shape[-1]}"
        )
    if injected.values.shape[1] != v.shape[-1]:
        raise ValueError(
            f"injected value dim {injected.values.shape[1]} does not match {v.shape[-1]}"
        )


def extend_kv(k: np.ndarray, v: np.ndarray, injected: InjectedKV | None) -> tuple[np.ndarray, np.ndarray]:
    """Append injected rows to k and v, broadcasting over batch axes."""
    if injected is None or injected.rows == 0:
        return k, v
    _check_injected_dims(injected, k, v)
    batch = k.shape[:-2]
    inj_k = np.broadcast_to(injected.keys, batch + injected.keys.shape)
    inj_v = np.broadcast_to(injected.values, batch + injected.values.shape)
    return np.concatenate([k, inj_k], axis=-2), np.concatenate([v, inj_v], axis=-2)


def subsample_spatial_kv(keys: np.ndarray, values: np.ndarray, rate: int) -> InjectedKV:
    """Keep tokens on a stride-`rate` grid in both spatial axes of every frame.

    keys/values are (frames, grid_h, grid_w, d); the kept rows come out
    frame-major in ascending token order. The (0, 0) corner anchors the
    stride grid.
    """
    rate = int(rate)
    if rate < 1:
        raise ValueError(f"subsample rate must be >= 1, got {rate}")
    keys = np.asarray(keys, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if keys.ndim != 4 or values.ndim != 4 or keys.shape[:3] != values.shape[:3]:
        raise ValueError(
            f"keys/values must be (frames, grid_h, grid_w, d) with equal leading shape, "
            f"got {keys.shape} and {values.shape}"
        )
    return InjectedKV(keys=keys[:, ::rate, ::rate].reshape(-1, keys.shape[-1]),
                      values=values[:, ::rate, ::rate].reshape(-1, values.shape[-1]))


def aggregate_frame_kv(parts: list[InjectedKV]) -> InjectedKV:
    """Concatenate per-tile contributions, in the order given (ascending m)."""
    if not parts:
        raise ValueError("nothing to aggregate")
    d_k = parts[0].keys.shape[1]
    d_v = parts[0].values.shape[1]
    for p in parts:
        if p.keys.shape[1] != d_k or p.values.shape[1] != d_v:
            raise ValueError("aggregated parts disagree on feature dims")
    return InjectedKV(
        keys=np.concatenate([p.keys for p in parts], axis=0),
        values=np.concatenate([p.values for p in parts], axis=0),
    )


def select_tap_frames(keys_by_frame, count: int) -> list[int]:
    """Indices of the `count` frames whose keys have the largest standard
    deviation (population std over all entries). keys_by_frame is a list of
    per-frame key arrays or one array indexed by frame. Ties go to the lower
    frame index; the result is ascending."""
    count = int(count)
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if count > len(keys_by_frame):
        raise ValueError(f"count {count} exceeds frame count {len(keys_by_frame)}")
    stds = np.array([float(np.std(np.asarray(k, dtype=np.float64))) for k in keys_by_frame])
    if not np.all(np.isfinite(stds)):
        raise ValueError("non-finite key statistics")
    # stable sort on descending std keeps lower indices first among ties
    order = np.argsort(-stds, kind="stable")[:count]
    return sorted(int(i) for i in order)
