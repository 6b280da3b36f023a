"""Attention kernels and cross-tile key/value plumbing (SAP's subsampling
and per-row group aggregates, TAP's frame selection).

All kernels accept matrices of shape (..., tokens, d); leading axes are
batched (the video denoiser batches over frames). `attend` is the one kernel
the denoiser calls: plain, detail-suppressed and injected-K/V attention are
all its arguments, so gamma = 0 reproduces plain attention bit for bit.
`scaled_scores`, `softmax_rows` and `extend_kv` compute the same values step
by step, in the textbook order; they are the reference `attend` is held to
within a bound of a few eps (see `attend`). Where the reference shifts every
row by its maximum, `attend` skips the shift for a block whose scores are
provably within +-SHIFT_FREE_BOUND (from qmax, kmax and the temper, see
`attend`) and whose values are in range: the shift cancels in the softmax
and only keeps exp finite.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .tiles import in_range, int_in_range


# Live score memory of one `attend` block: whole (queries x keys) matrices
# are scored together up to this many bytes (one matrix when it alone is
# larger), so memory stays bounded however many injected rows arrive.
SCORE_BLOCK_BYTES = 2 * 1024 * 1024

# attend skips the row-max shift of a block whose scores provably lie within
# +-SHIFT_FREE_BOUND and whose values are in range (see attend): e^256 is
# finite and normal with a wide margin (exp overflows past 709.78), and the
# benchmark geometries' scores stay below about 41.
SHIFT_FREE_BOUND = 256.0
_SHIFT_FREE_WEIGHT = math.exp(SHIFT_FREE_BOUND)
_SHIFT_FREE_V_CEIL = float(np.finfo(np.float64).max) / (4.0 * _SHIFT_FREE_WEIGHT)
_SHIFT_FREE_V_FLOOR = float(np.finfo(np.float64).tiny) * _SHIFT_FREE_WEIGHT

# attend's score buffer, kept per thread (stacks may run on worker threads).
# Allocated per call, a buffer of a megabyte or so is mapped and faulted in
# afresh whenever the C allocator serves it by mmap, which it does unless
# earlier large frees happened to raise its threshold. A buffer larger than
# SCORE_BLOCK_BYTES (one matrix too large to share a block) is allocated per
# call and not kept, so a thread keeps at most SCORE_BLOCK_BYTES between calls.
_workspace = threading.local()


def _scratch(shape: tuple) -> np.ndarray:
    """This thread's float64 score buffer, viewed as a C-contiguous `shape`.

    The kept buffer only grows, up to SCORE_BLOCK_BYTES; a larger request
    gets a fresh array. Contents are whatever the last call left: write
    before reading.
    """
    size = math.prod(shape)
    if size * 8 > SCORE_BLOCK_BYTES:
        return np.empty(shape)
    buf = getattr(_workspace, "weights", None)
    if buf is None or buf.size < size:
        buf = _workspace.weights = np.empty(size)
    return buf[:size].reshape(shape)


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

    The values of softmax_rows(scaled_scores(q, k2, gamma)) @ v2 with
    k2, v2 = extend_kv(k, v, injected), in float64, to within
    4 * eps * (1 + max|score|) * max|v2| (a score's rounding reaches its
    weight through exp; the output is a convex combination of the rows of
    v2), but without k2, v2 or a batch-wide score tensor. Leading axes are
    walked in blocks of whole (queries x keys) matrices holding at most
    SCORE_BLOCK_BYTES of scores, in a per-thread buffer reused from block to
    block and from call to call.
    The temper (kmax over own and injected keys) and sqrt(d) divide Q, a
    per-matrix scalar. Own keys are scored one GEMM per matrix, the tile's
    injected rows for the whole block in one (block * nq x d)(d x n_inj)
    GEMM into the same buffer. exp runs in place, the unnormalised weights
    meet V as S_own V + S_inj V_inj, and the row sums, one GEMV of the
    block's weights with a ones vector, divide that output.
    gamma = 0, or a temper clamped to 1, gives plain attention bit for bit.

    Every leading axis but the last indexes tiles (a stack of tiles, see
    ToyAttentionDenoiser.denoise), and each tile gets the bits a call of
    its own would give: its blocks, temper, shift decisions, injected GEMMs
    and row-sum GEMVs are that call's. A call with at most one leading axis
    is one tile. `injected.per_tile` gives each tile its rows and their
    maxima, taken once per InjectedKV; those of q, k and v once per call.

    The row-max shift cancels in the quotient; it exists only to keep exp
    finite, and is decided block by block. Every score obeys
    |s| <= sqrt(d) * qmax * kmax / temper =: B (d products, each at most
    qmax * kmax, over temper * sqrt(d)), with qmax, kmax and temper per
    matrix. A block skips the shift when its rows have more than one key,
    its largest B is at most SHIFT_FREE_BOUND (256), and its values obey
    n_keys * e^256 * tiny <= max|V| and n_keys * e^256 * max|V| <= max/4
    (V own and injected; tiny and max the smallest normal and the largest
    float64). Then every weight is in [e^-256, e^256], normal and finite;
    a row sum is between e^-256 and n_keys * e^256; each partial sum of
    S V is at most n_keys * e^256 * max|V|, finite; and the n_keys
    weight-value products of a row, each off by at most 2^-1075 where it
    rounds to a subnormal, over a row sum >= e^-256, move the output by
    at most eps/2 * max|V|.
    Otherwise, or with one key a row (so one key returns its value bit
    for bit, exp(0) = 1), each row is shifted by its maximum first.

    With own_key_means, returns (output, means) where means (..., own keys)
    is the weight each own key receives, averaged over the queries, taken
    block by block. q, k and v must share their batch shape (a ValueError
    otherwise); their values are trusted: the caller validates them.
    """
    in_range("gamma", gamma, ge=0)
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    batch = q.shape[:-2]
    if k.shape[:-2] != batch or v.shape[:-2] != batch:
        raise ValueError(
            f"q, k and v need equal batch shapes, got {batch}, {k.shape[:-2]} and {v.shape[:-2]}"
        )
    tiles = math.prod(batch[:-1])
    (nq, d), nk, dv = q.shape[-2:], k.shape[-2], v.shape[-1]
    n_inj = injected.rows if injected is not None else 0
    inj_kmax = inj_vmax = np.zeros(tiles)
    if n_inj:
        inj_keys, inj_values, inj_kmax, inj_vmax = injected.per_tile(tiles, d, dv)
    n_keys = nk + n_inj
    qs = q.reshape(-1, nq, d)
    ks = k.reshape(-1, nk, d)
    vs = v.reshape(-1, nk, dv)
    n_mat = qs.shape[0]
    out = np.empty((n_mat, nq, dv))
    means = np.empty((n_mat, nk)) if own_key_means else None
    if n_mat:
        per_tile = n_mat // tiles
        per_block = max(1, SCORE_BLOCK_BYTES // max(1, nq * n_keys * 8))
        # per-matrix maxima, temper and score bound, once per call
        qmax = np.abs(qs).max(axis=(1, 2), initial=0.0)
        kmax = np.maximum(np.abs(ks).max(axis=(1, 2), initial=0.0).reshape(tiles, -1),
                          inj_kmax[:, None]).reshape(-1)
        vmax = np.abs(vs).max(axis=(1, 2), initial=0.0)
        temper = np.maximum(gamma * gamma * qmax * kmax, 1.0)
        root_d = np.sqrt(d)
        q_scale = (temper * root_d)[:, None, None]
        bound = qmax * kmax / temper
        weights = _scratch((min(per_block, per_tile), nq, n_keys))  # a block never crosses tiles
        ones = np.ones(n_keys)
        for t in range(tiles):
            # blocks: runs of per_block matrices, never across tiles
            for start in range(t * per_tile, (t + 1) * per_tile, per_block):
                stop = min(start + per_block, (t + 1) * per_tile)
                qb = qs[start:stop] / q_scale[start:stop]
                block_vmax = np.maximum(vmax[start:stop].max(), inj_vmax[t])
                shift_free = (n_keys > 1 and root_d * bound[start:stop].max() <= SHIFT_FREE_BOUND
                              and n_keys * _SHIFT_FREE_V_FLOOR <= block_vmax
                              and n_keys * block_vmax <= _SHIFT_FREE_V_CEIL)
                s = weights[:stop - start]
                flat = s.reshape(-1, n_keys)  # a view: the buffer is C-contiguous
                np.matmul(qb, np.swapaxes(ks[start:stop], -1, -2), out=s[..., :nk])
                if n_inj:
                    np.matmul(qb.reshape(-1, d), inj_keys[t].T, out=flat[:, nk:])
                if not shift_free:
                    np.subtract(s, s.max(axis=-1, keepdims=True), out=s)
                np.exp(s, out=s)
                total = (flat @ ones).reshape(s.shape[:-1] + (1,))
                ob = out[start:stop]
                np.matmul(s[..., :nk], vs[start:stop], out=ob)
                if n_inj:
                    ob += (flat[:, nk:] @ inj_values[t]).reshape(ob.shape)
                np.divide(ob, total, out=ob)
                if own_key_means:
                    means[start:stop] = (s[..., :nk] / total).mean(axis=-2)
    out = out.reshape(batch + (nq, dv))
    if own_key_means:
        return out, means.reshape(batch + (nk,))
    return out


@dataclass(frozen=True, eq=False)
class InjectedKV:
    """Key/value rows gathered from other tiles: (rows, d) shared by every
    tile of an attend call, or (tiles, rows, d) one set per tile. keys and
    values are read-only views of the arrays given, which their owner must
    not write to afterwards: kmax/vmax, each row set's largest |key| and
    |value| (0 for no rows), are taken once, here."""

    keys: np.ndarray
    values: np.ndarray
    kmax: np.ndarray = field(init=False, repr=False)
    vmax: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        keys, values = (np.asarray(a, dtype=np.float64).view() for a in (self.keys, self.values))
        if keys.ndim not in (2, 3) or keys.shape[:-1] != values.shape[:-1]:
            raise ValueError(f"injected keys {keys.shape} and values {values.shape} must be "
                             "(rows, d) or (tiles, rows, d) with equal rows")
        keys.flags.writeable = values.flags.writeable = False  # the given arrays stay writable
        for name, value in (("keys", keys), ("values", values),
                            ("kmax", np.abs(keys).max(axis=(-2, -1), initial=0.0)),
                            ("vmax", np.abs(values).max(axis=(-2, -1), initial=0.0))):
            object.__setattr__(self, name, value)

    @property
    def rows(self) -> int:
        return self.keys.shape[-2]

    def per_tile(self, tiles: int, d: int, dv: int):
        """Views of keys (tiles, rows, d), values (tiles, rows, dv), kmax and
        vmax (tiles,) for a call of `tiles` tiles, key dim d and value dim
        dv (a ValueError where they do not match)."""
        if (self.keys.shape[-1], self.values.shape[-1]) != (d, dv):
            raise ValueError(f"injected key/value dims {self.keys.shape[-1]}/"
                             f"{self.values.shape[-1]} do not match {d}/{dv}")
        if self.keys.shape[:-2] not in ((), (tiles,)):
            raise ValueError(f"injected rows for {self.keys.shape[0]} tiles need a call "
                             f"of as many tiles, got {tiles}")
        return (np.broadcast_to(self.keys, (tiles,) + self.keys.shape[-2:]),
                np.broadcast_to(self.values, (tiles,) + self.values.shape[-2:]),
                np.broadcast_to(self.kmax, (tiles,)), np.broadcast_to(self.vmax, (tiles,)))


def extend_kv(k: np.ndarray, v: np.ndarray, injected: InjectedKV | None) -> tuple[np.ndarray, np.ndarray]:
    """Append to each matrix of k and v its tile's injected rows (every
    leading axis but the last indexes tiles, see attend)."""
    if injected is None or injected.rows == 0:
        return k, v
    batch = k.shape[:-2]
    mats = (math.prod(batch[:-1]), batch[-1] if batch else 1)  # (tiles, matrices a tile)
    inj_k, inj_v, _, _ = injected.per_tile(mats[0], k.shape[-1], v.shape[-1])
    k2, v2 = (np.concatenate([own.reshape(mats + own.shape[-2:]),
                              np.broadcast_to(rows[:, None], mats + rows.shape[1:])], axis=-2)
              for own, rows in ((k, inj_k), (v, inj_v)))
    return k2.reshape(batch + k2.shape[-2:]), v2.reshape(batch + v2.shape[-2:])


def subsample_spatial_kv(keys: np.ndarray, values: np.ndarray,
                         rate: int) -> tuple[np.ndarray, np.ndarray]:
    """Keep tokens on a stride-`rate` grid in both spatial axes of every frame.

    keys/values are stacks (tiles, frames, grid_h, grid_w, d); the kept key
    and value rows come out (tiles, rows, d), each tile's frame-major in
    ascending token order. The (0, 0) corner anchors the stride grid.
    """
    rate = int_in_range("rate", rate, ge=1)
    keys = np.asarray(keys, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if keys.ndim != 5 or values.ndim != 5 or keys.shape[:4] != values.shape[:4]:
        raise ValueError(
            f"keys/values must be stacks (tiles, frames, grid_h, grid_w, d) with equal leading "
            f"shape, got {keys.shape} and {values.shape}"
        )
    tiles = len(keys)
    return (keys[:, :, ::rate, ::rate].reshape(tiles, -1, keys.shape[-1]),
            values[:, :, ::rate, ::rate].reshape(tiles, -1, values.shape[-1]))


def aggregate_frame_kv(parts: list[tuple[np.ndarray, np.ndarray]]) -> InjectedKV:
    """One group's shared (rows, d) aggregate: its stacks' (tiles, rows, d)
    key and value rows, (keys, values) a stack in tile order, concatenated
    into one new array each (np.concatenate raises ValueError for no parts
    or mismatched shapes)."""
    keys = np.concatenate([k for k, _ in parts])
    values = np.concatenate([v for _, v in parts])
    return InjectedKV(keys.reshape(-1, keys.shape[-1]), values.reshape(-1, values.shape[-1]))


def select_tap_frames(keys: np.ndarray, count: int) -> np.ndarray:
    """Per tile, the indices of the `count` frames whose keys have the
    largest standard deviation (population std over all entries of a
    frame). keys is a stack (tiles, frames, ...); the result is
    (tiles, count), each row ascending. Ties go to the lower frame index."""
    count = int(count)
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    keys = np.asarray(keys, dtype=np.float64)
    if keys.ndim < 3:
        raise ValueError(f"keys must be a stack (tiles, frames, ...), got shape {keys.shape}")
    if count > keys.shape[1]:
        raise ValueError(f"count {count} exceeds frame count {keys.shape[1]}")
    stds = keys.reshape(keys.shape[:2] + (-1,)).std(axis=2)
    if not np.all(np.isfinite(stds)):
        raise ValueError("non-finite key statistics")
    # stable sort on descending std keeps lower indices first among ties
    return np.sort(np.argsort(-stds, axis=1, kind="stable")[:, :count], axis=1)
