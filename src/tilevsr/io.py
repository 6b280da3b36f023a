"""File formats: a small binary tensor container, 8-bit PPM, and 32-bit PFM.

Container layout: magic "DCVT", u16 version (currently 1), u16 rank, rank
u32 dims, then the float32 little-endian payload in row-major order. All
writers go through an atomic temp-file replace so readers never observe a
half-written file.

Memory: every writer builds its file image once, a bytearray of header and
payload into which the payload is cast through a NumPy view (a container's
finiteness check runs on that view), so a write holds the file once plus its
input. A container read fills one bytearray of the file's size and returns
the float32 array that views it: the file is held once, never copied. A
frame directory loads into one preallocated video, a frame at a time.
"""
from __future__ import annotations

import math
import os
import re
import struct
import tempfile

import numpy as np

MAGIC = b"DCVT"
VERSION = 1
_MAX_RANK = 8


def atomic_write_bytes(path: str, data: bytes | bytearray) -> None:
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


def _file_image(header: bytes, dtype: str, shape: tuple) -> tuple[bytearray, np.ndarray]:
    """A zeroed file image of `header` and a payload, and the payload viewed
    as a C-contiguous `dtype` array of `shape` to be filled in place."""
    count = math.prod(shape)
    image = bytearray(len(header) + np.dtype(dtype).itemsize * count)
    image[:len(header)] = header
    return image, np.frombuffer(image, dtype, count=count, offset=len(header)).reshape(shape)


def write_tensor(path: str, arr: np.ndarray) -> None:
    arr = np.asarray(arr)
    if arr.ndim < 1 or arr.ndim > _MAX_RANK:
        raise ValueError(f"rank must be in [1, {_MAX_RANK}], got {arr.ndim}")
    header = MAGIC + struct.pack(f"<HH{arr.ndim}I", VERSION, arr.ndim, *arr.shape)
    image, payload = _file_image(header, "<f4", arr.shape)
    with np.errstate(over="ignore"):  # values beyond float32 range become inf, refused below
        np.copyto(payload, arr, casting="unsafe")
    if not np.all(np.isfinite(payload)):
        raise ValueError("refusing to store non-finite values")
    atomic_write_bytes(path, image)


def read_tensor(path: str) -> np.ndarray:
    """The container's float32 array, a view of the one buffer it was read into."""
    with open(path, "rb", buffering=0) as fh:  # unbuffered: no read buffer beside `data`
        data = bytearray(os.fstat(fh.fileno()).st_size)
        got = 0
        with memoryview(data) as view:
            while got < len(data) and (n := fh.readinto(view[got:])):
                got += n
        if got != len(data) or fh.read(1):
            raise ValueError(f"{path}: file changed size while being read")
    if len(data) < 8:
        raise ValueError(f"{path}: truncated container header")
    if data[:4] != MAGIC:
        raise ValueError(f"{path}: bad magic {bytes(data[:4])!r}")
    version, rank = struct.unpack_from("<HH", data, 4)
    if version != VERSION:
        raise ValueError(f"{path}: unsupported container version {version}")
    if not 1 <= rank <= _MAX_RANK:
        raise ValueError(f"{path}: bad rank {rank}")
    dims_end = 8 + 4 * rank
    if len(data) < dims_end:
        raise ValueError(f"{path}: truncated dims")
    dims = struct.unpack_from(f"<{rank}I", data, 8)
    if any(d == 0 for d in dims):
        raise ValueError(f"{path}: zero-length dim in {dims}")
    count = math.prod(dims)
    expected = dims_end + 4 * count
    if len(data) != expected:
        raise ValueError(f"{path}: payload length {len(data) - dims_end}, expected {4 * count}")
    return np.frombuffer(data, dtype="<f4", count=count, offset=dims_end).reshape(dims)


# ---------------------------------------------------------------------------
# PPM (8-bit) and PFM (float32) frames. Frames are (channels, h, w).

FRAME_CHANNELS = (1, 3)  # the channel counts a PPM/PGM or PFM frame holds


def _quantize_u8(frame: np.ndarray) -> np.ndarray:
    # round half away from zero; values clamp to [0, 1] first
    v = np.clip(np.asarray(frame, dtype=np.float64), 0.0, 1.0)
    return np.floor(v * 255.0 + 0.5).astype(np.uint8)


def write_ppm(path: str, frame: np.ndarray) -> None:
    frame = np.asarray(frame)
    if frame.ndim != 3 or frame.shape[0] not in FRAME_CHANNELS:
        raise ValueError(f"expected (1|3, h, w) frame, got shape {frame.shape}")
    c, h, w = frame.shape
    tag = b"P6" if c == 3 else b"P5"
    image, raster = _file_image(tag + f"\n{w} {h}\n255\n".encode("ascii"), "u1", (h, w, c))
    raster[...] = _quantize_u8(frame).transpose(1, 2, 0)
    atomic_write_bytes(path, image)


# The four header tokens of a PPM or PFM file: each is the bytes up to a
# whitespace byte or "#", after any whitespace and any "#" comment. A comment
# runs to its newline or the end of the data, so it cannot end early and
# leave a token behind; a token is whole, so none splits into two.
_IMAGE_HEADER = re.compile(rb"(?:\s|#[^\n]*(?:\n|\Z))*([^\s#]+)(?![^\s#])" * 4)


def _read_image_header(path: str, data: bytes, channels_by_tag: dict, itemsize: int,
                       parse_last: type) -> tuple[int, int, int, int | float, int]:
    """(channels, h, w, the header's last token read by parse_last, raster
    offset) of a PPM or PFM file. The dims must be positive and the data
    must hold the whole raster, so no size beyond the file reaches NumPy."""
    header = _IMAGE_HEADER.match(data)
    if header is None:
        raise ValueError(f"{path}: truncated image header")
    tag, w_s, h_s, last_s = header.groups()
    if tag not in channels_by_tag:
        raise ValueError(f"{path}: unsupported image tag {tag!r}")
    try:
        w, h, last = int(w_s), int(h_s), parse_last(last_s)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if w < 1 or h < 1:
        raise ValueError(f"{path}: image dims must be positive, got {w}x{h}")
    channels = channels_by_tag[tag]
    offset = header.end() + 1  # one whitespace byte ends the header
    if w * h * channels * itemsize > len(data) - offset:
        raise ValueError(f"{path}: truncated raster for a {w}x{h} image")
    return channels, h, w, last, offset


def read_ppm(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    channels, h, w, maxval, offset = _read_image_header(path, data, {b"P6": 3, b"P5": 1}, 1, int)
    if maxval != 255:
        raise ValueError(f"{path}: only maxval 255 supported, got {maxval}")
    raster = np.frombuffer(data, dtype=np.uint8, count=w * h * channels, offset=offset)
    frame = raster.reshape(h, w, channels).transpose(2, 0, 1)
    return frame.astype(np.float64) / 255.0


def write_pfm(path: str, frame: np.ndarray) -> None:
    frame = np.asarray(frame)
    if frame.ndim != 3 or frame.shape[0] not in FRAME_CHANNELS:
        raise ValueError(f"expected (1|3, h, w) frame, got shape {frame.shape}")
    c, h, w = frame.shape
    tag = b"PF" if c == 3 else b"Pf"
    # PFM stores scanlines bottom to top; negative scale marks little-endian
    image, raster = _file_image(tag + f"\n{w} {h}\n-1.0\n".encode("ascii"), "<f4", (h, w, c))
    np.copyto(raster, frame.transpose(1, 2, 0)[::-1], casting="unsafe")
    atomic_write_bytes(path, image)


def read_pfm(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    channels, h, w, scale, offset = _read_image_header(path, data, {b"PF": 3, b"Pf": 1}, 4, float)
    if scale == 0:
        raise ValueError(f"{path}: zero scale")
    if not math.isfinite(scale):  # its sign picks the byte order: nan < 0 is false
        raise ValueError(f"{path}: non-finite scale {scale}")
    dtype = "<f4" if scale < 0 else ">f4"
    raster = np.frombuffer(data, dtype=dtype, count=w * h * channels, offset=offset)
    frame = raster.reshape(h, w, channels)[::-1].transpose(2, 0, 1)
    return frame.astype("<f4", order="C")


# ---------------------------------------------------------------------------
# whole-video helpers

VIDEO_NAME = "video.dcvt"  # the lossless container inside a frame directory


def save_frames(directory: str, video: np.ndarray, fmt: str = "ppm") -> list[str]:
    if fmt not in ("ppm", "pfm"):
        raise ValueError(f"fmt must be ppm or pfm, got {fmt!r}")
    os.makedirs(directory, exist_ok=True)
    writer = write_ppm if fmt == "ppm" else write_pfm
    paths = []
    for i, frame in enumerate(np.asarray(video)):
        path = os.path.join(directory, f"frame_{i:04d}.{fmt}")
        writer(path, frame)
        paths.append(path)
    return paths


def check_frame_channels(out: str, channels: int) -> None:
    """Refuse, before any work, a video that the frame directory `out`
    cannot hold; a .dcvt container holds any channel count."""
    if not out.endswith(".dcvt") and channels not in FRAME_CHANNELS:
        raise ValueError(f"frame directory {out} holds 1 or 3 channels, the input has {channels}; "
                         f"write a .dcvt instead")


def save_video(out: str, video: np.ndarray, pfm: bool = False) -> None:
    """A container if `out` names a .dcvt file, otherwise a frame directory:
    8-bit PPM frames (clipped to [0, 1]), float PFM frames with `pfm`, and
    the lossless VIDEO_NAME container."""
    if out.endswith(".dcvt"):
        write_tensor(out, video)
        return
    save_frames(out, video, fmt="ppm")
    if pfm:
        save_frames(out, video, fmt="pfm")
    write_tensor(os.path.join(out, VIDEO_NAME), video)


def load_video(path: str) -> np.ndarray:
    """Load a video from a rank-4 container file or a directory of frames.

    A directory holding a VIDEO_NAME container (as save_video writes) loads
    that lossless copy. Otherwise a directory holding .pfm frames loads only
    those (the lossless copy of the 8-bit frames written beside them);
    otherwise its .ppm/.pgm frames.
    """
    if os.path.isdir(path) and os.path.isfile(os.path.join(path, VIDEO_NAME)):
        path = os.path.join(path, VIDEO_NAME)
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
    video = None
    for i, name in enumerate(names):
        full = os.path.join(path, name)
        frame = read_pfm(full) if name.lower().endswith(".pfm") else read_ppm(full)
        if video is None:
            video = np.empty((len(names),) + frame.shape)
        elif frame.shape != video.shape[1:]:
            raise ValueError(f"{path}: frames disagree on shape: {names[0]} is {video.shape[1:]}, "
                             f"{name} is {frame.shape}")
        video[i] = frame
    return video
