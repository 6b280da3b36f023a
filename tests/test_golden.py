"""End-to-end output lock: SHA-256 of `sample_video` bytes for a small
matrix of 2-step configs (every guidance mode with both propagation schemes
on, plus each scheme alone and neither) and one 4-step config, whose step 3
is a backward TAP step. Every digest also holds with threaded tiles run in
reverse order.

A change that is meant to keep outputs byte-identical must leave every
digest as it is. A change that alters output bits says so, bounds the drift,
and re-records the digests, which running this file as a script prints:

    PYTHONPATH=src python tests/test_golden.py

`golden_outputs.npz` is the drift anchor and stays as it is: a change that
alters bits is held to it at RTOL, so drift cannot pile up unseen from change
to change. `--floats` also rewrites it, for a change that means to move
the outputs beyond that bound.

The digests hold for the platform they were recorded on, `RECORDED_PLATFORM`:
the OpenBLAS core that runs (what `scipy_openblas_get_corename64_` reports,
not the build's listing), the NumPy version and the SIMD targets NumPy
dispatches to. Another BLAS kernel or another NumPy SIMD path rounds some
GEMMs, exp or tanh calls differently, and then every digest differs. The
float64 outputs stored beside this file are checked on every platform, to a
bound relative to each output's largest magnitude.
"""

import ctypes
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tilevsr.guidance import GuidanceConfig
from tilevsr.models import ToyAttentionDenoiser, ToyCodec
from tilevsr.sampler import PipelineConfig, sample_video

try:
    from numpy._core import _multiarray_umath as _umath
except ImportError:  # NumPy 1.x
    from numpy.core import _multiarray_umath as _umath

HERE = Path(__file__).resolve().parent
OUTPUTS = HERE / "golden_outputs.npz"

# the platform the digests below were recorded on (see platform_key)
RECORDED_PLATFORM = "openblas=SkylakeX numpy=2.4.6 simd=X86_V3,X86_V4,AVX512_ICL,AVX512_SPR"

# (guidance mode, sap, tap) -> sha256 of the output video's bytes
GOLDEN = {
    ("none", True, True):
        "8405e146b759e9d797d6eeaaa3d0b0a359a0fbeb9c550f564d0b247612f77d94",
    ("cfg", True, True):
        "7eaff2b3810b308ad1b5b09fd5ee9314984ab94d7e5796bfcd317471cd8b09e7",
    ("sag", True, True):
        "4bb02baae279090e54b85c97515f3242f7d9ce66610f17fa5141b4f29fc9da6e",
    ("pag", True, True):
        "89d9c04a4d2042a5b1d96e1fd8b638aff38618b00b345b8615317ab3f7f07c96",
    ("dssag", True, True):
        "e38c36e37349f7252f56e1021b441412d151006fa41a312cf9b2f09ee94748e2",
    ("cfg_dssag", True, True):
        "25eaac716d552f5febefead146093682fc5043028bfcc820ab4f56d21f9b6c69",
    ("cfg_dssag", True, False):
        "5ff6df46059680900720d4125ce70cce6944e2860e6dddf4fe6394c53ee44fd2",
    ("cfg_dssag", False, True):
        "ecb695c784b7c528b6147ff5f48e98cb78cb04053d7c448c2b80657dcd0d9f55",
    ("cfg_dssag", False, False):
        "18170c403cb4413cc8ed57582df106b0428612a00242a50ca074ec5ee0621f72",
}

# (guidance mode, sap, tap) of the 4-step case, and its digest: steps 0-2 run
# SAP, forward TAP and SAP, and step 3 the backward TAP step that 2 steps
# never reach
BACKWARD_CASE = ("dssag", True, True)
BACKWARD_DIGEST = "97fbe0dbabb8146f7bb33e37f078f56cbfacb9d3aaf6e34dc09fed101fbd65e3"
BACKWARD_STEPS = 4

# (mode, sap, tap, steps) of every stored output
STORED = [(*key, 2) for key in sorted(GOLDEN)] + [(*BACKWARD_CASE, BACKWARD_STEPS)]

# Other BLAS kernels and SIMD paths move the outputs by at most about 1e-14
# of their largest magnitude; the stored outputs are held to 1e-12.
RTOL = 1e-12


def openblas_core() -> str | None:
    """The OpenBLAS core running now, or None when NumPy's BLAS is not
    the scipy-openblas build."""
    try:
        corename = ctypes.CDLL(_umath.__file__).scipy_openblas_get_corename64_
    except (OSError, AttributeError):
        return None
    corename.restype = ctypes.c_char_p
    return corename().decode()


def dispatched_simd() -> list[str]:
    return [name for name in _umath.__cpu_dispatch__ if _umath.__cpu_features__.get(name)]


def platform_key() -> str:
    return (f"openblas={openblas_core() or 'unknown'} numpy={np.__version__} "
            f"simd={','.join(dispatched_simd())}")


def output_name(mode: str, sap: bool, tap: bool, steps: int = 2) -> str:
    return f"{mode}-{sap}-{tap}" + ("" if steps == 2 else f"-{steps}steps")


def run_video(mode: str, sap: bool, tap: bool, workers: int = 1, steps: int = 2) -> np.ndarray:
    # 2 latent frames interleave to 4; 12x12 latent with 8x8x2 tiles gives
    # 2x2 spatial x 3 temporal tiles, 16 tokens per frame, so SAP injects
    # 32 rows and TAP hands over 2 frames; step 0 runs SAP, step 1 TAP
    # forward (and, with 4 steps, step 2 SAP and step 3 TAP backward).
    lr = np.random.default_rng(11).uniform(0.0, 1.0, size=(2, 1, 12, 12))
    denoiser = ToyAttentionDenoiser(
        seed=7, channels=1, patch_size=2, embed_dim=8, spatial_layers=4, cond_dim=4,
    )
    cfg = PipelineConfig(
        steps=steps, tile_frames=2, tile_h=8, tile_w=8, sap=sap, tap=tap,
        sap_rate=2, tap_frames=2, guidance=GuidanceConfig(mode=mode, scale=1.5),
        seed=3, sigma_min=0.1, sigma_max=80.0, upscale_factor=1, workers=workers,
    )
    return sample_video(lr, denoiser, ToyCodec(1), cfg).video


def digest(video: np.ndarray) -> str:
    return hashlib.sha256(video.tobytes()).hexdigest()


def check_digest(got: str, key: tuple, want: str | None = None) -> None:
    assert got == (want or GOLDEN[key]), (
        f"digest of {key} differs; recorded on {RECORDED_PLATFORM!r}, "
        f"running on {platform_key()!r}")


@pytest.mark.parametrize("mode,sap,tap", sorted(GOLDEN))
def test_output_digest_is_pinned(mode, sap, tap):
    check_digest(digest(run_video(mode, sap, tap)), (mode, sap, tap))


@pytest.mark.parametrize("mode,sap,tap", sorted(GOLDEN))
def test_output_digest_holds_threaded_and_descending(mode, sap, tap, reverse_tiles):
    reverse_tiles()
    check_digest(digest(run_video(mode, sap, tap, workers=3)), (mode, sap, tap))


def test_backward_tap_step_digest_is_pinned(reverse_tiles):
    check_digest(digest(run_video(*BACKWARD_CASE, steps=BACKWARD_STEPS)), BACKWARD_CASE,
                 BACKWARD_DIGEST)
    reverse_tiles()
    check_digest(digest(run_video(*BACKWARD_CASE, workers=3, steps=BACKWARD_STEPS)),
                 BACKWARD_CASE, BACKWARD_DIGEST)


def test_outputs_match_the_stored_floats_on_any_platform():
    print(f"platform: {platform_key()}")
    with np.load(OUTPUTS) as stored:
        assert sorted(stored.files) == sorted(output_name(*case) for case in STORED)
        for *key, steps in STORED:
            want = stored[output_name(*key, steps)]
            got = run_video(*key, steps=steps)
            assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
            drift = float(np.max(np.abs(got - want)))
            assert drift <= RTOL * float(np.max(np.abs(want))), (key, drift, platform_key())


def _has_simd(*names: str) -> bool:
    return all(_umath.__cpu_features__.get(name) for name in names)


# (environment, the platform key it gives, SIMD the forced kernels need);
# this OpenBLAS build runs its Haswell kernels when asked for Zen
OTHER_PLATFORMS = [
    pytest.param({"OPENBLAS_CORETYPE": core}, f"openblas={runs} ", ("X86_V3",), id=core)
    for core, runs in (("Haswell", "Haswell"), ("Sandybridge", "Sandybridge"), ("Zen", "Haswell"))
] + [
    pytest.param({"NPY_DISABLE_CPU_FEATURES": "AVX512_ICL AVX512_SPR X86_V4"},
                 "simd=X86_V3 ", ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"),
                 id="no-avx512"),
]


@pytest.mark.parametrize("env,key_part,needs", OTHER_PLATFORMS)
def test_stored_floats_hold_under_other_kernels(env, key_part, needs):
    if openblas_core() is None or not _has_simd(*needs):
        pytest.skip("needs the scipy-openblas build on a CPU that runs the forced kernels")
    test = f"{Path(__file__).name}::test_outputs_match_the_stored_floats_on_any_platform"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider", test],
        cwd=HERE, env={**os.environ, **env}, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    platform = next(ln for ln in proc.stdout.splitlines() if "platform: " in ln)
    assert key_part in platform + " ", platform  # the setting took effect


if __name__ == "__main__":
    videos = {case: run_video(*case[:3], steps=case[3]) for case in STORED}
    if "--floats" in sys.argv[1:]:
        np.savez(OUTPUTS, **{output_name(*case): video for case, video in videos.items()})
    print(f'RECORDED_PLATFORM = "{platform_key()}"')
    for (mode, sap, tap, steps), video in videos.items():
        if steps == 2:
            print(f'    ("{mode}", {sap}, {tap}):\n        "{digest(video)}",')
    print(f'BACKWARD_DIGEST = "{digest(videos[(*BACKWARD_CASE, BACKWARD_STEPS)])}"')
