"""Spatio-temporal tile planning, splitting, and Gaussian alpha-blend merging.

Videos are numpy arrays of shape (frames, channels, height, width) with finite
values. Tiles overlap by half their extent along every tiled axis and are
merged with a separable Gaussian weight mask, so overlapping regions blend
smoothly and a full round trip (split then merge) reproduces the input.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

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


def axis_offsets(extent: int, tile_extent: int) -> tuple[int, ...]:
    """Tile start offsets along one axis: stride tile_extent//2, last clamped."""
    if tile_extent < 1:
        raise ValueError(f"tile extent must be >= 1, got {tile_extent}")
    if extent < tile_extent:
        raise ValueError(f"axis extent {extent} smaller than tile extent {tile_extent}")
    stride = max(1, tile_extent // 2)
    offsets = []
    pos = 0
    while pos + tile_extent < extent:
        offsets.append(pos)
        pos += stride
    last = extent - tile_extent
    if not offsets or offsets[-1] != last:
        offsets.append(last)
    return tuple(offsets)


@dataclass(frozen=True)
class TileGrid:
    """Tile layout over (frames, h, w). m indexes space row-major, n time."""

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
        return self.n_spatial * self.n_temporal

    def spatial_offset(self, m: int) -> tuple[int, int]:
        ny, nx = len(self.offsets_y), len(self.offsets_x)
        if not 0 <= m < ny * nx:
            raise ValueError(f"spatial index {m} out of range for {ny}x{nx} grid")
        return self.offsets_y[m // nx], self.offsets_x[m % nx]

    def slices(self, n: int, m: int) -> tuple[slice, slice, slice]:
        t0 = self.offsets_t[n]
        y0, x0 = self.spatial_offset(m)
        tf, th, tw = self.tile_dims
        return slice(t0, t0 + tf), slice(y0, y0 + th), slice(x0, x0 + tw)


@dataclass
class Tile:
    n: int  # temporal index
    m: int  # spatial index, row-major over (offsets_y, offsets_x)
    data: np.ndarray


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


def split(video: np.ndarray, grid: TileGrid) -> list[Tile]:
    """Copy out every tile, ordered by ascending (n, m)."""
    video = validate_video(video)
    dims = (video.shape[0], video.shape[2], video.shape[3])
    if dims != grid.video_dims:
        raise ValueError(f"video dims {dims} do not match grid {grid.video_dims}")
    tiles = []
    for n in range(grid.n_temporal):
        for m in range(grid.n_spatial):
            st, sy, sx = grid.slices(n, m)
            tiles.append(Tile(n=n, m=m, data=video[st, :, sy, sx].copy()))
    return tiles


def gaussian_mask(tile_dims: tuple[int, ...], sigma_fraction: float) -> np.ndarray:
    """Separable Gaussian blend weights over a tile.

    Per axis of extent e the weight at index i is
    exp(-(i - c)^2 / (2 * (sigma_fraction * e)^2)) with c = (e - 1) / 2,
    so the mask is symmetric and peaks at the tile center.
    """
    in_range("sigma_fraction", sigma_fraction, gt=0)
    if any(int(e) < 1 for e in tile_dims):
        raise ValueError(f"tile dims must be positive, got {tile_dims}")
    mask = np.ones((), dtype=np.float64)
    for e in tile_dims:
        e = int(e)
        idx = np.arange(e, dtype=np.float64)
        center = (e - 1) / 2.0
        sigma = sigma_fraction * e
        axis = np.exp(-((idx - center) ** 2) / (2.0 * sigma * sigma))
        mask = mask[..., None] * axis
    return mask


def merge(tiles: list[Tile], grid: TileGrid, mask: np.ndarray) -> np.ndarray:
    """Weighted-average recomposition: sum(mask * tile) / sum(mask).

    Accumulation runs in fixed ascending (n, m) order regardless of the order
    tiles arrive in, so the result is independent of tile scheduling.
    """
    mask = np.asarray(mask, dtype=np.float64)
    if mask.shape != grid.tile_dims:
        raise ValueError(f"mask shape {mask.shape} does not match tile dims {grid.tile_dims}")
    seen = {}
    for tile in tiles:
        key = (tile.n, tile.m)
        if key in seen:
            raise ValueError(f"duplicate tile {key}")
        seen[key] = tile
    expected = {(n, m) for n in range(grid.n_temporal) for m in range(grid.n_spatial)}
    if set(seen) != expected:
        missing = sorted(expected - set(seen))
        extra = sorted(set(seen) - expected)
        raise ValueError(f"tile coverage mismatch: missing {missing}, extra {extra}")

    tf, th, tw = grid.tile_dims
    channels = None
    frames, height, width = grid.video_dims
    mask4 = mask[:, None, :, :]
    num = None
    den = np.zeros((frames, 1, height, width), dtype=np.float64)
    for key in sorted(seen):
        tile = seen[key]
        data = np.asarray(tile.data, dtype=np.float64)
        if data.ndim != 4 or data.shape[0] != tf or data.shape[2:] != (th, tw):
            raise ValueError(f"tile {key} has shape {data.shape}, expected ({tf}, C, {th}, {tw})")
        if channels is None:
            channels = data.shape[1]
            num = np.zeros((frames, channels, height, width), dtype=np.float64)
        elif data.shape[1] != channels:
            raise ValueError(f"tile {key} channel count {data.shape[1]} != {channels}")
        st, sy, sx = grid.slices(*key)
        num[st, :, sy, sx] += mask4 * data
        den[st, :, sy, sx] += mask4
    return num / den


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
    """Inverse of interleave: even frames and odd frames."""
    y = np.asarray(y)
    if y.ndim != 4:
        raise ValueError(f"expected 4-D video, got shape {y.shape}")
    if y.shape[0] % 2 != 0:
        raise ValueError(f"frame count {y.shape[0]} is not even")
    return y[0::2].copy(), y[1::2].copy()
