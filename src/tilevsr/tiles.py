"""Spatio-temporal tile planning, splitting, and Gaussian alpha-blend merging.

Videos are numpy arrays of shape (frames, channels, height, width) with finite
values. Tiles overlap by half their extent along every tiled axis. A TileGrid
owns tile addressing: tile n * n_spatial + m (n temporal, m spatial) is a
flat index that only the grid decodes, and the grid's rows, one per temporal
index, cut into stacks of at most a given number of tiles, are the stack
layout every pass walks. `split` copies out one stack, a slice of the flat
index, at a time, and `merge` adds a stack's estimates into the blend of the
video's noise frames, the even frames of an interleaved video, with a
separable Gaussian weight mask. So overlapping regions blend smoothly, no
array of every tile need exist, and a full round trip (split, then merge
every tile) reproduces the noise frames.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


def validate_video(arr: np.ndarray, name: str = "video") -> np.ndarray:
    arr = np.asarray(arr)
    if arr.ndim != 4:
        raise ValueError(f"{name} must be 4-D (frames, channels, h, w), got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} has a zero-length axis: {arr.shape}")
    if not np.issubdtype(arr.dtype, np.floating):
        raise ValueError(f"{name} must be float typed, got {arr.dtype}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


def in_range(name: str, value, *, gt=None, ge=None, le=None):
    """value, if it is finite and value > gt, value >= ge and value <= le
    for every bound given; otherwise a ValueError naming the range.

    Every bound is a positive comparison, so NaN and inf fail every range,
    and so does an int too large for a float.
    """
    try:
        ok = (math.isfinite(value) and (gt is None or value > gt)
              and (ge is None or value >= ge) and (le is None or value <= le))
    except OverflowError:  # an int too large for a float
        ok = False
    if ok:
        return value
    bounds = [f"{op} {b}" for op, b in ((">", gt), (">=", ge), ("<=", le)) if b is not None]
    raise ValueError(f"{name} must be {', '.join(['finite', *bounds])}, got {value}")


def int_in_range(name: str, value, *, gt=None, ge=None, le=None) -> int:
    """in_range for an integer setting: the value as an int, if it also has
    no fractional part (so 4.0 passes and 4.5 fails)."""
    in_range(name, value, gt=gt, ge=ge, le=le)
    if int(value) != value:
        raise ValueError(f"{name} must be an integer, got {value}")
    return int(value)


def axis_offsets(extent: int, tile_extent: int) -> tuple[int, ...]:
    """Tile start offsets along one axis: stride tile_extent//2, last clamped."""
    if tile_extent < 1:
        raise ValueError(f"tile extent must be >= 1, got {tile_extent}")
    if extent < tile_extent:
        raise ValueError(f"axis extent {extent} smaller than tile extent {tile_extent}")
    stride = max(1, tile_extent // 2)
    return tuple(range(0, extent - tile_extent, stride)) + (extent - tile_extent,)


@dataclass(frozen=True)
class TileGrid:
    """Tile layout over (frames, h, w). m indexes space row-major, n time,
    and the grid's methods address tile (n, m) by its flat index
    n * n_spatial + m."""

    video_dims: tuple[int, int, int]
    tile_dims: tuple[int, int, int]
    offsets_t: tuple[int, ...]
    offsets_y: tuple[int, ...]
    offsets_x: tuple[int, ...]

    @property
    def n_spatial(self) -> int:
        return len(self.offsets_y) * len(self.offsets_x)

    @property
    def n_temporal(self) -> int:
        return len(self.offsets_t)

    @property
    def n_tiles(self) -> int:
        return self.n_temporal * self.n_spatial

    def slices(self, flat: int) -> tuple[slice, slice, slice]:
        """The frame, row and column slices of tile `flat`, the flat index
        n * n_spatial + m of temporal index n and spatial index m."""
        if not 0 <= flat < self.n_tiles:
            raise ValueError(f"tile index {flat} out of range for "
                             f"{self.n_temporal}x{self.n_spatial} tiles")
        n, m = divmod(flat, self.n_spatial)
        nx = len(self.offsets_x)
        t0, y0, x0 = self.offsets_t[n], self.offsets_y[m // nx], self.offsets_x[m % nx]
        tf, th, tw = self.tile_dims
        return slice(t0, t0 + tf), slice(y0, y0 + th), slice(x0, x0 + tw)

    def stacks(self, size: int) -> list[list[slice]]:
        """Row n is temporal index n's flat indices, in ascending m, cut into
        slices of at most `size` tiles; no slice crosses a row."""
        size = int_in_range("stack size", size, ge=1)
        s = self.n_spatial
        return [[slice(n * s + m, n * s + min(m + size, s)) for m in range(0, s, size)]
                for n in range(self.n_temporal)]


def plan_tiles(video_dims: tuple[int, int, int], tile_dims: tuple[int, int, int]) -> TileGrid:
    video_dims = tuple(int(d) for d in video_dims)
    tile_dims = tuple(int(d) for d in tile_dims)
    if len(video_dims) != 3 or len(tile_dims) != 3:
        raise ValueError("video_dims and tile_dims must be (frames, h, w) triples")
    return TileGrid(
        video_dims=video_dims,
        tile_dims=tile_dims,
        offsets_t=axis_offsets(video_dims[0], tile_dims[0]),
        offsets_y=axis_offsets(video_dims[1], tile_dims[1]),
        offsets_x=axis_offsets(video_dims[2], tile_dims[2]),
    )


def split(video: np.ndarray, grid: TileGrid, stack: slice) -> np.ndarray:
    """Copy out the tiles of `stack`, a slice of the flat tile index, into one
    (tiles, frames, channels, h, w) array in index order. Only the video's
    shape is checked: its caller validates its values once (interleave does),
    not once a stack."""
    video = np.asarray(video)
    if video.ndim != 4 or (video.shape[0], *video.shape[2:]) != grid.video_dims:
        raise ValueError(f"video shape {video.shape} does not match grid {grid.video_dims}")
    index = range(grid.n_tiles)[stack]
    tf, th, tw = grid.tile_dims
    tiles = np.empty((len(index), tf, video.shape[1], th, tw), video.dtype)
    for i, flat in enumerate(index):
        st, sy, sx = grid.slices(flat)
        tiles[i] = video[st, :, sy, sx]
    return tiles


def _axis_weights(idx: np.ndarray, e: int, sigma_fraction: float) -> np.ndarray:
    sigma = sigma_fraction * e
    return np.exp(-((idx - (e - 1) / 2.0) ** 2) / (2.0 * sigma * sigma))


def check_mask_corner(tile_dims: tuple[int, ...], sigma_fraction: float) -> None:
    """ValueError unless gaussian_mask(tile_dims, sigma_fraction) is usable:
    sigma_fraction > 0, positive dims, and a corner weight (the mask's least,
    the product of each axis's end weight, so it falls as any extent grows)
    that is neither 0 nor subnormal, since the blend divides by it."""
    in_range("sigma_fraction", sigma_fraction, gt=0)
    if any(int(e) < 1 for e in tile_dims):
        raise ValueError(f"tile dims must be positive, got {tile_dims}")
    corner = math.prod(_axis_weights(np.zeros(1), int(e), sigma_fraction)[0] for e in tile_dims)
    if corner < np.finfo(np.float64).tiny:
        raise ValueError(f"sigma_fraction {sigma_fraction} underflows the blend mask of tile dims "
                         f"{tuple(int(e) for e in tile_dims)}: corner weight {corner:g}")


def gaussian_mask(tile_dims: tuple[int, ...], sigma_fraction: float) -> np.ndarray:
    """Separable Gaussian blend weights over a tile, checked by check_mask_corner.

    Per axis of extent e the weight at index i is
    exp(-(i - c)^2 / (2 * (sigma_fraction * e)^2)) with c = (e - 1) / 2,
    so the mask is symmetric and peaks at the tile center.
    """
    check_mask_corner(tile_dims, sigma_fraction)
    mask = np.ones((), dtype=np.float64)
    for e in map(int, tile_dims):
        mask = mask[..., None] * _axis_weights(np.arange(e, dtype=np.float64), e, sigma_fraction)
    return mask


def _noise_half(grid: TileGrid, flat: int) -> tuple[tuple[slice, ...], int]:
    """Where tile `flat`'s noise frames (the even frames of the video) sit
    among the video's noise frames, and which half of deinterleave(tile)
    holds them: the even one when the tile starts on an even frame."""
    st, sy, sx = grid.slices(flat)
    return (slice((st.start + 1) // 2, (st.stop + 1) // 2), slice(None), sy, sx), st.start % 2


@dataclass(frozen=True, eq=False)
class Blend:
    """A grid's Gaussian blend over the noise frames of an interleaved video.

    weights, (ceil(frames / 2), 1, h, w), is the mask summed over every tile
    on those frames, in ascending flat order. Neither grid nor mask changes
    during a run, so a run builds its Blend once: each step's estimate is
    num / weights, where merge has added every tile into num.
    """

    grid: TileGrid
    mask: np.ndarray
    weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mask = np.asarray(self.mask, dtype=np.float64)
        if mask.shape != self.grid.tile_dims:
            raise ValueError(f"mask shape {mask.shape} does not match tile dims {self.grid.tile_dims}")
        frames, height, width = self.grid.video_dims
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "weights", np.zeros(((frames + 1) // 2, 1, height, width)))
        # the weights are the blend of an estimate of ones on every tile
        tf, th, tw = self.grid.tile_dims
        merge(self.weights, np.broadcast_to(1.0, (self.grid.n_tiles, tf, 1, th, tw)), self, slice(None))


def merge(num: np.ndarray, estimates: np.ndarray, blend: Blend, stack: slice) -> None:
    """Add mask * estimate over the noise frames of the tiles of `stack` (a
    slice of the flat tile index, in split's order) into num, the blend's
    numerator of shape (ceil(frames / 2), C, h, w). Each tile's noise half is
    chosen with deinterleave. Each pixel sums its tiles in the order their
    slices are merged."""
    grid = blend.grid
    index = range(grid.n_tiles)[stack]
    estimates = np.asarray(estimates, dtype=np.float64)
    tf, th, tw = grid.tile_dims
    if estimates.ndim != 5 or estimates.shape[:2] + estimates.shape[3:] != (len(index), tf, th, tw):
        raise ValueError("estimates have shape %s, expected (%d, %d, C, %d, %d)"
                         % (estimates.shape, len(index), tf, th, tw))
    if num.shape != blend.weights.shape[:1] + estimates.shape[2:3] + blend.weights.shape[2:]:
        raise ValueError(f"numerator shape {num.shape} does not fit weights {blend.weights.shape} "
                         f"and {estimates.shape[2]} channels")
    halves = deinterleave(blend.mask[:, None])
    for flat, tile in zip(index, estimates):
        region, half = _noise_half(grid, flat)
        num[region] += halves[half] * deinterleave(tile)[half]


def interleave(x: np.ndarray, l: np.ndarray) -> np.ndarray:
    """Alternate frames of two equally shaped videos: [x0, l0, x1, l1, ...]."""
    x = validate_video(x, "x")
    l = validate_video(l, "l")
    if x.shape != l.shape:
        raise ValueError(f"shape mismatch: x {x.shape} vs l {l.shape}")
    out = np.empty((2 * x.shape[0],) + x.shape[1:], dtype=np.float64)
    out[0::2] = x
    out[1::2] = l
    return out


def deinterleave(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of interleave: even frames and odd frames, views of y. An odd
    frame count (a tile that starts or ends inside a pair) leaves the even
    half one frame longer."""
    y = np.asarray(y)
    if y.ndim != 4:
        raise ValueError(f"expected 4-D video, got shape {y.shape}")
    return y[0::2], y[1::2]
