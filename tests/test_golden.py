"""End-to-end output lock: SHA-256 of `sample_video` bytes for a small
matrix of configs (every guidance mode with both propagation schemes on,
plus each scheme alone and neither).

A change that is meant to keep outputs byte-identical must leave every
digest as it is. A change that alters output bits says so, bounds the drift,
and regenerates the table by running this file as a script:

    PYTHONPATH=src python tests/test_golden.py

The digests hold for one NumPy/BLAS build (recorded with the table in
CHANGES.md); a different BLAS kernel may round a GEMM differently.
"""

import hashlib

import numpy as np
import pytest

from tilevsr.guidance import GuidanceConfig
from tilevsr.models import ToyAttentionDenoiser, ToyCodec
from tilevsr.sampler import PipelineConfig, sample_video

# (guidance mode, sap, tap) -> sha256 of the output video's bytes
GOLDEN = {
    ("none", True, True):
        "3ae0d6ec5d9d67f5139b2808c53e6828f835f3f194ddfac910651e6749b0c572",
    ("cfg", True, True):
        "095e51a9c7b3a350ca4a18c9904892ebb03f9d667faa8c8be28390a43a307b38",
    ("sag", True, True):
        "ecd718c440e989229d25caf0e4e3d88ed29fede75b657aacb1c271ff079c3564",
    ("pag", True, True):
        "cee163f458e8aae7c97336c7524ebe8ec1015354a83ba4e0286ecf410faf29a8",
    ("dssag", True, True):
        "7ad2768cf07de7c89a63c249c50498dd53320f3334db27c54fd9520e8ae008ca",
    ("cfg_dssag", True, True):
        "3f14e5856189b23e68cc6822cb65e9e962169fd397629db1f9956003708de2e0",
    ("cfg_dssag", True, False):
        "48f66db818b10c852487594693335f95fea22d8db2b9aa01d96b42640a58ea64",
    ("cfg_dssag", False, True):
        "1614e0dc179d455a56ebd0fe035997f92f69e32b1b62d65de37f7b1bcdb4f16a",
    ("cfg_dssag", False, False):
        "dee3b4a04ba3a0f91ebb9d8bfa42729bc76dfae4bfba8ee7e58f289c762d0f0e",
}


def run_digest(mode: str, sap: bool, tap: bool) -> str:
    # 2 latent frames interleave to 4; 12x12 latent with 8x8x2 tiles gives
    # 2x2 spatial x 3 temporal tiles, 16 tokens per frame, so SAP injects
    # 32 rows and TAP hands over 2 frames; step 0 runs SAP, step 1 TAP.
    lr = np.random.default_rng(11).uniform(0.0, 1.0, size=(2, 1, 12, 12))
    denoiser = ToyAttentionDenoiser(
        seed=7, channels=1, patch_size=2, embed_dim=8, spatial_layers=4, cond_dim=4,
    )
    cfg = PipelineConfig(
        steps=2, tile_frames=2, tile_h=8, tile_w=8, sap=sap, tap=tap,
        sap_rate=2, tap_frames=2, guidance=GuidanceConfig(mode=mode, scale=1.5),
        seed=3, sigma_min=0.1, sigma_max=80.0, upscale_factor=1,
    )
    video = sample_video(lr, denoiser, ToyCodec(1), cfg).video
    return hashlib.sha256(video.tobytes()).hexdigest()


@pytest.mark.parametrize("mode,sap,tap", sorted(GOLDEN))
def test_output_digest_is_pinned(mode, sap, tap):
    assert run_digest(mode, sap, tap) == GOLDEN[(mode, sap, tap)]


if __name__ == "__main__":
    for mode, sap, tap in GOLDEN:
        print(f'    ("{mode}", {sap}, {tap}):\n        "{run_digest(mode, sap, tap)}",')
