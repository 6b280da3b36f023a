"""The benchmark's three workloads.

Each workload builds its inputs from the workload seed in ``setup`` and runs
one repetition of its unit of work in ``run_once``. ``collect`` turns the raw
result into an ``Outcome`` outside the timed region. Parameters and the
reason for each workload are in README.md next to this file.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import os
import time
from dataclasses import dataclass, field

import numpy as np

import tilevsr
import tilevsr.cli
import tilevsr.io

DENOISER = dict(seed=1234, channels=3, patch_size=4, embed_dim=16, spatial_layers=4, cond_dim=8)
CODEC_FACTOR = 2


@dataclass
class Outcome:
    error: str | None = None
    arrays: dict = field(default_factory=dict)  # name -> float64 output
    digest: str = ""  # sha256 over every output byte
    counts: dict = field(default_factory=dict)  # pass counts the program reports
    values: dict = field(default_factory=dict)  # printed scalar outputs
    times: dict = field(default_factory=dict)  # sub-steps timed around public calls


class SamplerWorkload:
    """One ``tilevsr.sample_video`` call on a seeded uniform LR clip."""

    # reference tolerance relative to |output| * |projection|: the float64
    # output may drift by 1e-12 relative without failing
    rtol = 1e-9

    def __init__(self, name, frames, size, tile, guidance, sap, tap, steps, counts):
        self.name = name
        self.params = dict(
            lr_shape=[frames, 3, size, size], upscale=4, codec_factor=CODEC_FACTOR,
            tile_hwf=list(tile), guidance=guidance, sap=sap, tap=tap, steps=steps,
            embed_dim=DENOISER["embed_dim"], workers=1,
        )
        self.expected_shape = (frames, 3, 4 * size, 4 * size)
        self.expected_counts = counts

    def setup(self, seed: int, workdir: str) -> None:
        p = self.params
        self.lr = np.random.default_rng(seed).uniform(0.0, 1.0, size=p["lr_shape"])
        self.denoiser = tilevsr.ToyAttentionDenoiser(**DENOISER)
        self.codec = tilevsr.ToyCodec(CODEC_FACTOR)
        tile_h, tile_w, tile_f = p["tile_hwf"]
        self.cfg = tilevsr.PipelineConfig(
            steps=p["steps"], tile_h=tile_h, tile_w=tile_w, tile_frames=tile_f,
            sap=p["sap"], tap=p["tap"], sap_rate=2, tap_frames=4,
            guidance=tilevsr.GuidanceConfig(mode=p["guidance"], scale=1.0, rho=0.5),
            seed=seed, upscale_factor=p["upscale"], workers=1,
        )

    def run_once(self):
        try:
            return tilevsr.sample_video(self.lr, self.denoiser, self.codec, self.cfg)
        except tilevsr.NumericError as exc:
            return exc

    def collect(self, raw) -> Outcome:
        if isinstance(raw, Exception):
            return Outcome(error=f"NumericError: {raw}")
        video = np.asarray(raw.video)
        s = raw.stats
        return Outcome(
            arrays={"video": video},
            digest=hashlib.sha256(video.tobytes()).hexdigest(),
            counts=dict(eps_calls=s.eps_calls, gather_calls=s.gather_calls, tile_units=s.tile_units),
        )


METRIC_ROWS = ("psnr", "ssim", "tof", "tlp", "we")


class PipelineWorkload:
    """The README quick-start run in-process: fixture -> upscale -> metrics."""

    name = "pipeline"
    rtol = 1e-6  # the output passes through a float32 container

    def __init__(self):
        self.params = dict(
            fixture="--kind translate --size 128x128 --frames 8 --seed <seed>",
            upscale="default config", metrics="default config",
        )
        self.expected_shape = (8, 3, 128, 128)
        self.expected_counts = dict(eps_calls=100, gather_calls=26, tile_units=50)

    def setup(self, seed: int, workdir: str) -> None:
        fx = os.path.join(workdir, "fx")
        restored = os.path.join(workdir, "restored")
        self.files = [os.path.join(fx, "hr.dcvt"), os.path.join(fx, "lr.dcvt"),
                      os.path.join(restored, "video.dcvt")]
        self.verbs = [
            ["fixture", "--out", fx, "--kind", "translate", "--size", "128x128",
             "--frames", "8", "--seed", str(seed)],
            ["upscale", self.files[1], "--out", restored],
            ["metrics", self.files[0], self.files[2]],
        ]

    def run_once(self):
        results = []
        for argv in self.verbs:
            buf = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                code = tilevsr.cli.main(argv)
            results.append((argv[0], code, buf.getvalue(), time.perf_counter() - start))
            if code != 0:
                break
        return results

    def collect(self, raw) -> Outcome:
        failed = [f"{verb} exited {code}: {text.strip().splitlines()[-1:]}"
                  for verb, code, text, _ in raw if code != 0]
        if failed:
            return Outcome(error="; ".join(failed))
        cells = {}
        for _, _, text, _ in raw:
            cells.update(line.split("=", 1) for line in text.splitlines() if "=" in line)
        sha = hashlib.sha256()
        for path in self.files:
            with open(path, "rb") as fh:
                sha.update(fh.read())
        values = {row: float(cells[row]) for row in METRIC_ROWS}
        sha.update(repr(sorted(values.items())).encode())
        return Outcome(
            arrays={"video": tilevsr.io.read_tensor(self.files[2]).astype(np.float64)},
            digest=sha.hexdigest(),
            counts={k: int(cells[k]) for k in ("eps_calls", "gather_calls", "tile_units")},
            values=values,
            times={"metrics_s": raw[2][3]},
        )


def make(name: str):
    if name == "sap_tap_dssag":
        return SamplerWorkload(
            name, frames=14, size=16, tile=(16, 16, 14), guidance="dssag", sap=True, tap=True,
            steps=25, counts=dict(eps_calls=1350, gather_calls=351, tile_units=675),
        )
    if name == "sap_wide":
        return SamplerWorkload(
            name, frames=4, size=48, tile=(32, 32, 8), guidance="none", sap=True, tap=False,
            steps=4, counts=dict(eps_calls=100, gather_calls=50, tile_units=100),
        )
    if name == "pipeline":
        return PipelineWorkload()
    raise ValueError(f"unknown workload {name!r}")
