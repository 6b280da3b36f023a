"""Tensor container, PPM/PGM/PFM frame formats, and video directory loading."""

import os
import struct
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilevsr import io as tio
from tilevsr.io import (
    VIDEO_NAME,
    atomic_write_bytes,
    check_frame_channels,
    load_video,
    read_pfm,
    read_ppm,
    read_tensor,
    save_frames,
    save_video,
    write_pfm,
    write_ppm,
    write_tensor,
)


# --- tensor container -------------------------------------------------------

def test_container_roundtrip_is_byte_exact(tmp_path):
    rng = np.random.default_rng(0)
    for trial in range(20):
        rank = int(rng.integers(1, 9))
        dims = tuple(int(rng.integers(1, 5)) for _ in range(rank))
        arr = rng.standard_normal(dims).astype(np.float32)
        path = str(tmp_path / f"t{trial}.dcvt")
        write_tensor(path, arr)
        back = read_tensor(path)
        assert back.dtype == np.float32
        assert back.shape == arr.shape
        assert np.array_equal(back, arr)
        # writing the readback reproduces identical bytes
        path2 = str(tmp_path / f"t{trial}b.dcvt")
        write_tensor(path2, back)
        assert Path(path).read_bytes() == Path(path2).read_bytes()


def test_container_header_layout(tmp_path):
    arr = np.arange(6, dtype=np.float32).reshape(2, 3)
    path = str(tmp_path / "h.dcvt")
    write_tensor(path, arr)
    blob = Path(path).read_bytes()
    assert blob[:4] == b"DCVT"
    version, rank = struct.unpack("<HH", blob[4:8])
    assert (version, rank) == (1, 2)
    assert struct.unpack("<2I", blob[8:16]) == (2, 3)
    payload = np.frombuffer(blob[16:], dtype="<f4").reshape(2, 3)
    assert np.array_equal(payload, arr)


def test_container_rejects_corrupt_files(tmp_path):
    arr = np.zeros((2, 2), dtype=np.float32)
    good = str(tmp_path / "good.dcvt")
    write_tensor(good, arr)
    blob = Path(good).read_bytes()

    cases = {
        "magic": b"XXXX" + blob[4:],
        "version": blob[:4] + struct.pack("<HH", 2, 2) + blob[8:],
        "rank": blob[:4] + struct.pack("<HH", 1, 0) + blob[8:],
        "short_payload": blob[:-4],
        "long_payload": blob + b"\x00\x00\x00\x00",
        "truncated_header": blob[:6],
    }
    for name, data in cases.items():
        bad = str(tmp_path / f"{name}.dcvt")
        Path(bad).write_bytes(data)
        with pytest.raises(ValueError):
            read_tensor(bad)


def test_container_refuses_non_finite_and_bad_rank(tmp_path):
    path = str(tmp_path / "x.dcvt")
    with pytest.raises(ValueError):
        write_tensor(path, np.array([np.nan], dtype=np.float32))
    with pytest.raises(ValueError):
        write_tensor(path, np.float32(3.0))  # rank 0
    with pytest.raises(ValueError):
        write_tensor(path, np.zeros((1,) * 9, dtype=np.float32))


def test_container_refuses_values_beyond_float32(tmp_path):
    path = tmp_path / "big.dcvt"
    # finite in float64, inf once cast to the float32 payload
    with pytest.raises(ValueError, match="non-finite"):
        write_tensor(str(path), np.full((1, 1, 2, 2), 1e39))
    assert not path.exists()


def test_read_tensor_returns_a_view_of_the_buffer_it_read(tmp_path):
    path = str(tmp_path / "v.dcvt")
    write_tensor(path, np.arange(24.0).reshape(2, 3, 4))
    arr = read_tensor(path)
    base = arr
    while isinstance(base, np.ndarray):
        base = base.base
    buf = base.obj if isinstance(base, memoryview) else base
    assert isinstance(buf, bytearray) and len(buf) == os.path.getsize(path)
    assert np.shares_memory(arr, np.frombuffer(buf, dtype=np.uint8))
    assert arr.flags.aligned and np.array_equal(arr, np.arange(24.0).reshape(2, 3, 4))


@pytest.mark.parametrize("delta", [1, -1], ids=["short-read", "longer-file"])
def test_read_tensor_refuses_a_file_that_changes_size(tmp_path, monkeypatch, delta):
    """The buffer is sized from fstat; a file that ends early, or goes on
    past that size, is an error, not a truncated or partial read."""
    path = str(tmp_path / "v.dcvt")
    write_tensor(path, np.zeros((2, 2)))
    real = os.fstat
    monkeypatch.setattr(os, "fstat", lambda fd: SimpleNamespace(st_size=real(fd).st_size + delta))
    with pytest.raises(ValueError, match="changed size"):
        read_tensor(path)


@pytest.mark.parametrize("write, name", [(write_tensor, "v.dcvt"), (write_ppm, "f.ppm"),
                                         (write_pfm, "f.pfm")], ids=["container", "ppm", "pfm"])
def test_writers_pass_the_whole_file_image_to_the_atomic_write(tmp_path, monkeypatch, write, name):
    """Each writer hands atomic_write_bytes one image of the whole file, so
    len(data) is the file's byte count."""
    sizes = []
    real = tio.atomic_write_bytes

    def spy(path, data):
        sizes.append(len(data))
        real(path, data)

    monkeypatch.setattr(tio, "atomic_write_bytes", spy)
    path = str(tmp_path / name)
    write(path, np.random.default_rng(0).uniform(0.0, 1.0, (3, 5, 7)))
    assert sizes == [os.path.getsize(path)]


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 4), st.integers(0, 10_000))
def test_container_roundtrip_property(tmp_path_factory, rank, seed):
    rng = np.random.default_rng(seed)
    dims = tuple(int(rng.integers(1, 6)) for _ in range(rank))
    arr = (rng.standard_normal(dims) * 10.0 ** float(rng.integers(-3, 4))).astype(np.float32)
    path = str(tmp_path_factory.mktemp("hyp") / "t.dcvt")
    write_tensor(path, arr)
    assert np.array_equal(read_tensor(path), arr)


# --- PPM / PGM --------------------------------------------------------------

def test_ppm_roundtrip_on_quantized_values(tmp_path):
    rng = np.random.default_rng(1)
    frame = rng.integers(0, 256, size=(3, 5, 4)).astype(np.float64) / 255.0
    path = str(tmp_path / "f.ppm")
    write_ppm(path, frame)
    back = read_ppm(path)
    assert back.shape == (3, 5, 4)
    assert np.array_equal(back, frame)


def test_pgm_single_channel_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    frame = rng.integers(0, 256, size=(1, 4, 6)).astype(np.float64) / 255.0
    path = str(tmp_path / "f.pgm")
    write_ppm(path, frame)
    blob = Path(path).read_bytes()
    assert blob.startswith(b"P5")
    assert np.array_equal(read_ppm(path), frame)


def test_ppm_quantization_rounds_half_away(tmp_path):
    frame = np.array([[[0.5 / 255.0, 1.49 / 255.0]]])
    path = str(tmp_path / "q.ppm")
    write_ppm(path, frame)
    back = read_ppm(path)
    assert back[0, 0, 0] == 1.0 / 255.0
    assert back[0, 0, 1] == 1.0 / 255.0


def test_ppm_header_comments_are_skipped(tmp_path):
    path = str(tmp_path / "c.ppm")
    body = bytes([10, 20, 30, 40, 50, 60])
    Path(path).write_bytes(b"P6\n# a comment line\n2 1\n# another\n255\n" + body)
    frame = read_ppm(path)
    assert frame.shape == (3, 1, 2)
    assert np.array_equal(np.round(frame * 255.0), [[[10.0, 40.0]], [[20.0, 50.0]], [[30.0, 60.0]]])


def test_ppm_rejects_bad_headers(tmp_path):
    cases = {
        "magic": b"P4\n2 1\n255\n" + bytes(6),
        "maxval": b"P6\n2 1\n65535\n" + bytes(12),
        "short": b"P6\n2 2\n255\n" + bytes(6),
    }
    for name, blob in cases.items():
        path = str(tmp_path / f"{name}.ppm")
        Path(path).write_bytes(blob)
        with pytest.raises(ValueError):
            read_ppm(path)


def loop_read_header_tokens(data, count):
    """Reference: the first `count` header tokens and the raster offset, one
    byte at a time. Whitespace is bytes.isspace, a "#" comment runs to its
    newline, and one byte after the last token ends the header."""
    tokens = []
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
    return tokens, i + 1


HEADER_PIECES = [b" ", b"\t", b"\n", b"\r", b"\v", b"\f", b"\x1c", b"#", b"#c", b"# a b\n",
                 b"\n# only a comment", b"P6", b"P5", b"PF", b"Pf", b"0", b"7", b"255", b"-",
                 b"-1.0", b"x"]


@settings(deadline=None, max_examples=500)
@given(st.lists(st.sampled_from(HEADER_PIECES), max_size=16).map(b"".join))
def test_image_header_grammar_matches_the_byte_loop(data):
    try:
        want = loop_read_header_tokens(data, 4)
    except ValueError:
        want = None
    header = tio._IMAGE_HEADER.match(data)
    got = None if header is None else (list(header.groups()), header.end() + 1)
    assert got == want


@pytest.mark.parametrize("read,tag,last", [(read_ppm, b"P6", b"255"), (read_pfm, b"PF", b"-1.0")])
@pytest.mark.parametrize("header,message", [
    (b"TAG\n2 abc\nLAST\n", "abc"),
    (b"TAG\nx1 1\nLAST\n", "x1"),
    (b"TAG\n2 1\nxyz\n", "xyz"),
    (b"TAG\n2 1\n# only a comment", "truncated image header"),
])
def test_image_header_errors_name_the_file(tmp_path, read, tag, last, header, message):
    path = tmp_path / "frame_0001.img"
    path.write_bytes(header.replace(b"TAG", tag).replace(b"LAST", last) + bytes(24))
    with pytest.raises(ValueError, match=message) as err:
        read(str(path))
    assert str(err.value).startswith(f"{path}: ")


# headers whose dims are not positive, or whose raster outgrows any file
BAD_DIMS = ["0 2", "2 0", "-1 2", "99999999999 99999999999"]


@pytest.mark.parametrize("dims", BAD_DIMS)
@pytest.mark.parametrize("tag,read", [(b"P6", read_ppm), (b"P5", read_ppm),
                                      (b"PF", read_pfm), (b"Pf", read_pfm)])
def test_image_headers_need_positive_dims_that_fit(tmp_path, dims, tag, read):
    last = b"255" if read is read_ppm else b"-1.0"
    path = tmp_path / "bad.img"
    path.write_bytes(tag + b"\n" + dims.encode() + b"\n" + last + b"\n" + bytes(64))
    with pytest.raises(ValueError, match="dims must be positive|truncated raster"):
        read(str(path))


def test_ppm_clips_out_of_range(tmp_path):
    frame = np.array([[[-0.5, 2.0]]])
    path = str(tmp_path / "r.ppm")
    write_ppm(path, frame)
    back = read_ppm(path)
    assert back[0, 0, 0] == 0.0
    assert back[0, 0, 1] == 1.0


# --- PFM --------------------------------------------------------------------

def test_pfm_roundtrip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    frame = (rng.standard_normal((3, 6, 5)) * 100).astype(np.float32).astype(np.float64)
    path = str(tmp_path / "f.pfm")
    write_pfm(path, frame)
    back = read_pfm(path)
    assert np.array_equal(back.astype(np.float32), frame.astype(np.float32))


def test_pfm_single_channel_and_header(tmp_path):
    frame = np.array([[[0.5, -1.25], [3.0, 65504.0]]])
    path = str(tmp_path / "g.pfm")
    write_pfm(path, frame)
    blob = Path(path).read_bytes()
    assert blob.startswith(b"Pf\n2 2\n-1.0\n")
    assert np.array_equal(read_pfm(path), frame)


def test_pfm_rows_are_stored_bottom_up(tmp_path):
    frame = np.zeros((1, 2, 1))
    frame[0, 0, 0] = 1.0  # top row
    frame[0, 1, 0] = 2.0  # bottom row
    path = str(tmp_path / "b.pfm")
    write_pfm(path, frame)
    blob = Path(path).read_bytes()
    header_len = len(b"Pf\n1 2\n-1.0\n")
    first, second = struct.unpack("<2f", blob[header_len:header_len + 8])
    assert (first, second) == (2.0, 1.0)


def test_pfm_rejects_malformed(tmp_path):
    path = str(tmp_path / "m.pfm")
    Path(path).write_bytes(b"PX\n1 1\n-1.0\n" + bytes(4))
    with pytest.raises(ValueError):
        read_pfm(path)
    Path(path).write_bytes(b"Pf\n2 2\n-1.0\n" + bytes(4))
    with pytest.raises(ValueError):
        read_pfm(path)


@pytest.mark.parametrize("scale", [b"nan", b"-nan", b"inf", b"-inf", b"0", b"-0.0"])
def test_pfm_rejects_a_non_finite_or_zero_scale(tmp_path, scale):
    # a NaN scale once passed as "not negative" and read the little-endian
    # bytes of 1.0 big-endian, as 4.6e-41
    path = tmp_path / "s.pfm"
    path.write_bytes(b"Pf\n1 1\n" + scale + b"\n" + struct.pack("<f", 1.0))
    with pytest.raises(ValueError, match="scale"):
        read_pfm(str(path))
    path.write_bytes(b"Pf\n1 1\n-1.0\n" + struct.pack("<f", 1.0))
    assert read_pfm(str(path))[0, 0, 0] == 1.0


# --- frame directories and video loading ------------------------------------

def test_save_frames_and_load_video_ppm(tmp_path):
    rng = np.random.default_rng(4)
    video = rng.integers(0, 256, size=(3, 3, 4, 4)).astype(np.float64) / 255.0
    d = str(tmp_path / "frames")
    paths = save_frames(d, video)
    assert [os.path.basename(p) for p in paths] == [
        "frame_0000.ppm", "frame_0001.ppm", "frame_0002.ppm",
    ]
    back = load_video(d)
    assert np.array_equal(back, video)


def test_save_frames_pfm_is_exact_for_float_data(tmp_path):
    rng = np.random.default_rng(5)
    video = (rng.standard_normal((2, 1, 4, 4))).astype(np.float32).astype(np.float64)
    d = str(tmp_path / "pfm_frames")
    save_frames(d, video, fmt="pfm")
    back = load_video(d)
    assert np.array_equal(back.astype(np.float32), video.astype(np.float32))


def test_load_video_reads_only_pfm_when_both_formats_are_present(tmp_path):
    rng = np.random.default_rng(7)
    video = rng.uniform(0.0, 1.0, size=(3, 3, 4, 4)).astype(np.float32).astype(np.float64)
    d = str(tmp_path / "both")
    save_frames(d, video)
    save_frames(d, video, fmt="pfm")
    back = load_video(d)
    assert back.shape == video.shape
    assert np.array_equal(back, video)  # the lossless copy, not the 8-bit frames


def test_load_video_prefers_a_directory_container_over_its_frames(tmp_path):
    rng = np.random.default_rng(8)
    video = rng.uniform(-0.5, 1.5, size=(2, 3, 4, 4)).astype(np.float32).astype(np.float64)
    d = str(tmp_path / "out")
    save_frames(d, np.clip(video, 0.0, 1.0))  # 8-bit frames lose the out-of-range values
    write_tensor(os.path.join(d, "video.dcvt"), video)
    assert np.array_equal(load_video(d), video)


def test_load_video_from_container(tmp_path):
    rng = np.random.default_rng(6)
    video = rng.uniform(0, 1, size=(2, 3, 4, 4)).astype(np.float32)
    path = str(tmp_path / "v.dcvt")
    write_tensor(path, video)
    back = load_video(path)
    assert back.shape == video.shape
    assert np.array_equal(back.astype(np.float32), video)


def test_load_video_errors(tmp_path):
    with pytest.raises((OSError, ValueError)):
        load_video(str(tmp_path / "missing.dcvt"))
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(ValueError):
        load_video(str(empty))
    mixed = tmp_path / "mixed"
    mixed.mkdir()
    write_ppm(str(mixed / "a.ppm"), np.zeros((3, 4, 4)))
    write_ppm(str(mixed / "b.ppm"), np.zeros((3, 5, 4)))
    with pytest.raises(ValueError, match=r"frames disagree on shape: a\.ppm is \(3, 4, 4\), "
                                         r"b\.ppm is \(3, 5, 4\)"):
        load_video(str(mixed))
    write_ppm(str(mixed / "b.ppm"), np.zeros((1, 4, 4)))  # same dims, other channels
    with pytest.raises(ValueError, match="frames disagree on shape"):
        load_video(str(mixed))


@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("out, pfm", [("v.dcvt", False), ("frames", False), ("frames", True)],
                         ids=["container", "ppm-dir", "pfm-dir"])
def test_save_video_roundtrips_through_load_video(tmp_path, out, pfm, channels):
    # values outside [0, 1] show whether the 8-bit frames' clip leaks into the load
    video = np.random.default_rng(9).uniform(-0.5, 1.5, size=(3, channels, 4, 5))
    path = str(tmp_path / out)
    save_video(path, video, pfm=pfm)
    assert np.array_equal(load_video(path), video.astype(np.float32).astype(np.float64))
    if out == "frames":
        exts = ("ppm", "pfm") if pfm else ("ppm",)
        assert sorted(os.listdir(path)) == sorted(
            [f"frame_{i:04d}.{ext}" for ext in exts for i in range(3)] + [VIDEO_NAME])


def test_check_frame_channels_refuses_only_what_a_frame_directory_cannot_hold(tmp_path):
    for channels in (1, 3):
        check_frame_channels(str(tmp_path / "frames"), channels)
    for channels in (1, 2, 4):
        check_frame_channels(str(tmp_path / "v.dcvt"), channels)
    for channels in (2, 4):
        with pytest.raises(ValueError, match="holds 1 or 3 channels"):
            check_frame_channels(str(tmp_path / "frames"), channels)
    assert os.listdir(tmp_path) == []


def test_container_dims_whose_product_overflows_are_rejected(tmp_path):
    # 2**16 ** 4 is 0 in int64 arithmetic, which an empty payload would match
    path = tmp_path / "huge.dcvt"
    path.write_bytes(b"DCVT" + struct.pack("<HH", 1, 4) + struct.pack("<4I", *[2**16] * 4))
    with pytest.raises(ValueError, match="payload length"):
        read_tensor(str(path))


def test_load_video_rejects_wrong_rank_container(tmp_path):
    path = str(tmp_path / "r2.dcvt")
    write_tensor(path, np.zeros((3, 3), dtype=np.float32))
    with pytest.raises(ValueError):
        load_video(path)


# --- atomicity --------------------------------------------------------------

def test_atomic_write_replaces_and_leaves_no_temp(tmp_path):
    path = str(tmp_path / "out.bin")
    atomic_write_bytes(path, b"first")
    atomic_write_bytes(path, b"second")
    assert Path(path).read_bytes() == b"second"
    assert os.listdir(tmp_path) == ["out.bin"]
