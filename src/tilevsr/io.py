"""File formats: a small binary tensor container, 8-bit PPM, and 32-bit PFM.

Container layout: magic "DCVT", u16 version (currently 1), u16 rank, rank
u32 dims, then the float32 little-endian payload in row-major order. All
writers go through an atomic temp-file replace so readers never observe a
half-written file.
"""
from __future__ import annotations

import os
import struct
import tempfile

import numpy as np

MAGIC = b"DCVT"
VERSION = 1
_MAX_RANK = 8


def atomic_write_bytes(path: str, data: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_tensor(path: str, arr: np.ndarray) -> None:
    arr = np.asarray(arr)
    if arr.ndim < 1 or arr.ndim > _MAX_RANK:
        raise ValueError(f"rank must be in [1, {_MAX_RANK}], got {arr.ndim}")
    with np.errstate(over="ignore"):  # values beyond float32 range become inf, refused below
        payload = arr.astype("<f4")
    if not np.all(np.isfinite(payload)):
        raise ValueError("refusing to store non-finite values")
    header = MAGIC + struct.pack("<HH", VERSION, arr.ndim)
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    atomic_write_bytes(path, header + payload.tobytes())


def read_tensor(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 8:
        raise ValueError(f"{path}: truncated container header")
    if data[:4] != MAGIC:
        raise ValueError(f"{path}: bad magic {data[:4]!r}")
    version, rank = struct.unpack("<HH", data[4:8])
    if version != VERSION:
        raise ValueError(f"{path}: unsupported container version {version}")
    if not 1 <= rank <= _MAX_RANK:
        raise ValueError(f"{path}: bad rank {rank}")
    dims_end = 8 + 4 * rank
    if len(data) < dims_end:
        raise ValueError(f"{path}: truncated dims")
    dims = struct.unpack(f"<{rank}I", data[8:dims_end])
    if any(d == 0 for d in dims):
        raise ValueError(f"{path}: zero-length dim in {dims}")
    count = int(np.prod(dims))
    expected = dims_end + 4 * count
    if len(data) != expected:
        raise ValueError(f"{path}: payload length {len(data) - dims_end}, expected {4 * count}")
    flat = np.frombuffer(data, dtype="<f4", count=count, offset=dims_end)
    return flat.reshape(dims).copy()


# ---------------------------------------------------------------------------
# PPM (8-bit) and PFM (float32) frames. Frames are (channels, h, w).

def _quantize_u8(frame: np.ndarray) -> np.ndarray:
    # round half away from zero; values clamp to [0, 1] first
    v = np.clip(np.asarray(frame, dtype=np.float64), 0.0, 1.0)
    return np.floor(v * 255.0 + 0.5).astype(np.uint8)


def write_ppm(path: str, frame: np.ndarray) -> None:
    frame = np.asarray(frame)
    if frame.ndim != 3 or frame.shape[0] not in (1, 3):
        raise ValueError(f"expected (1|3, h, w) frame, got shape {frame.shape}")
    c, h, w = frame.shape
    tag = b"P6" if c == 3 else b"P5"
    raster = _quantize_u8(frame).transpose(1, 2, 0)  # (h, w, c)
    header = tag + f"\n{w} {h}\n255\n".encode("ascii")
    atomic_write_bytes(path, header + raster.tobytes())


def _read_ppm_tokens(data: bytes, count: int) -> tuple[list[bytes], int]:
    """First `count` whitespace-separated header tokens, skipping # comments."""
    tokens: list[bytes] = []
    i = 0
    while len(tokens) < count:
        if i >= len(data):
            raise ValueError("truncated image header")
        ch = data[i:i + 1]
        if ch == b"#":
            while i < len(data) and data[i:i + 1] != b"\n":
                i += 1
        elif ch.isspace():
            i += 1
        else:
            j = i
            while j < len(data) and not data[j:j + 1].isspace() and data[j:j + 1] != b"#":
                j += 1
            tokens.append(data[i:j])
            i = j
    return tokens, i + 1  # single whitespace byte ends the header


def read_ppm(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    tokens, offset = _read_ppm_tokens(data, 4)
    tag, w_s, h_s, maxval_s = tokens
    if tag not in (b"P6", b"P5"):
        raise ValueError(f"{path}: unsupported image tag {tag!r}")
    w, h, maxval = int(w_s), int(h_s), int(maxval_s)
    if maxval != 255:
        raise ValueError(f"{path}: only maxval 255 supported, got {maxval}")
    channels = 3 if tag == b"P6" else 1
    count = w * h * channels
    raster = np.frombuffer(data, dtype=np.uint8, count=count, offset=offset)
    if raster.size != count:
        raise ValueError(f"{path}: truncated raster")
    frame = raster.reshape(h, w, channels).transpose(2, 0, 1)
    return frame.astype(np.float64) / 255.0


def write_pfm(path: str, frame: np.ndarray) -> None:
    frame = np.asarray(frame, dtype="<f4")
    if frame.ndim != 3 or frame.shape[0] not in (1, 3):
        raise ValueError(f"expected (1|3, h, w) frame, got shape {frame.shape}")
    c, h, w = frame.shape
    tag = b"PF" if c == 3 else b"Pf"
    # PFM stores scanlines bottom to top; negative scale marks little-endian
    raster = frame.transpose(1, 2, 0)[::-1]
    header = tag + f"\n{w} {h}\n-1.0\n".encode("ascii")
    atomic_write_bytes(path, header + np.ascontiguousarray(raster).tobytes())


def read_pfm(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    tokens, offset = _read_ppm_tokens(data, 4)
    tag, w_s, h_s, scale_s = tokens
    if tag not in (b"PF", b"Pf"):
        raise ValueError(f"{path}: unsupported float-image tag {tag!r}")
    w, h = int(w_s), int(h_s)
    scale = float(scale_s)
    if scale == 0:
        raise ValueError(f"{path}: zero scale")
    dtype = "<f4" if scale < 0 else ">f4"
    channels = 3 if tag == b"PF" else 1
    count = w * h * channels
    raster = np.frombuffer(data, dtype=dtype, count=count, offset=offset)
    if raster.size != count:
        raise ValueError(f"{path}: truncated raster")
    frame = raster.reshape(h, w, channels)[::-1].transpose(2, 0, 1)
    return np.ascontiguousarray(frame).astype("<f4")


# ---------------------------------------------------------------------------
# whole-video helpers

def save_frames(directory: str, video: np.ndarray, fmt: str = "ppm", prefix: str = "frame") -> list[str]:
    if fmt not in ("ppm", "pfm"):
        raise ValueError(f"fmt must be ppm or pfm, got {fmt!r}")
    os.makedirs(directory, exist_ok=True)
    writer = write_ppm if fmt == "ppm" else write_pfm
    paths = []
    for i, frame in enumerate(np.asarray(video)):
        path = os.path.join(directory, f"{prefix}_{i:04d}.{fmt}")
        writer(path, frame)
        paths.append(path)
    return paths


def load_video(path: str) -> np.ndarray:
    """Load a video from a rank-4 container file or a directory of frames.

    A directory holding .pfm frames loads only those (the lossless copy of
    the 8-bit frames written beside them); otherwise its .ppm/.pgm frames.
    """
    if os.path.isfile(path):
        arr = read_tensor(path)
        if arr.ndim != 4:
            raise ValueError(f"{path}: expected a rank-4 tensor, got rank {arr.ndim}")
        return arr.astype(np.float64)
    if not os.path.isdir(path):
        raise ValueError(f"{path}: no such file or directory")
    names = sorted(n for n in os.listdir(path) if n.lower().endswith(".pfm"))
    if not names:
        names = sorted(n for n in os.listdir(path) if n.lower().endswith((".ppm", ".pgm")))
    if not names:
        raise ValueError(f"{path}: no frame files (.ppm/.pfm) found")
    frames = []
    for name in names:
        full = os.path.join(path, name)
        frame = read_pfm(full) if name.lower().endswith(".pfm") else read_ppm(full)
        frames.append(np.asarray(frame, dtype=np.float64))
    shapes = {f.shape for f in frames}
    if len(shapes) != 1:
        raise ValueError(f"{path}: frames disagree on shape: {sorted(shapes)}")
    return np.stack(frames)
