"""The benchmark's tracer patches tilevsr functions by name (perfbench/tracer.py,
WRAPS), and its workloads build configs and CLI argv from tilevsr's names
(perfbench/workloads.py). A refactor that renames or removes one of them
would crash a benchmark run, so every tracer target must resolve to a
callable here, and every workload must set up. A refactor that stops calling
one of the sampler's targets by its traced name would silently zero its
layer, so those targets must also record spans, and so must every `cli`,
`quality` and `io` target that the pipeline workload and the frame formats
reach. The benchmark files are read, never edited.
"""

import importlib
import importlib.util
import os
import sys
from pathlib import Path

import numpy as np
import pytest

import tilevsr
from tilevsr import cli
from tilevsr import io as tio

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # @dataclass looks its module up there
    spec.loader.exec_module(module)
    return module


def load_wraps():
    return load("tracer").WRAPS


@pytest.mark.parametrize("module,path", [(w[0], w[1]) for w in load_wraps()])
def test_tracer_target_resolves_to_a_callable(module, path):
    owner = importlib.import_module(module)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


@pytest.mark.parametrize("name", ["sap_tap_dssag", "sap_wide", "pipeline"])
def test_benchmark_workload_sets_up(name, tmp_path):
    workload = load("workloads").make(name)
    workload.setup(0, str(tmp_path))
    for argv in getattr(workload, "verbs", []):
        cli.build_parser().parse_args(argv)


def tracer_with_one_span_name_per_target(monkeypatch):
    """The tracer, patched so that targets sharing a span name are told
    apart: each target's span is named "<module>:<path>"."""
    tracer = load("tracer")
    monkeypatch.setattr(tracer, "WRAPS", tuple(
        (module, path, f"{module}:{path}", counter) for module, path, _, counter in tracer.WRAPS
    ))
    return tracer


def test_sampler_tracer_targets_record_spans(monkeypatch):
    # every target on tilevsr, tilevsr.sampler and the Toy* classes; the
    # reference kernels the denoiser no longer calls are not among them
    tracer = tracer_with_one_span_name_per_target(monkeypatch)
    wanted = [f"{module}:{path}" for module, path, _, _ in tracer.WRAPS
              if module in ("tilevsr", "tilevsr.sampler") or path.startswith("Toy")]
    lr = np.random.default_rng(0).uniform(0.0, 1.0, size=(2, 3, 8, 8))
    spans = tracer.Tracer()
    with spans.installed():
        for schemes in (True, False):  # SAP and TAP, then the plain pass
            cfg = tilevsr.PipelineConfig(
                steps=2, tile_frames=2, tile_h=4, tile_w=4, sap=schemes, tap=schemes,
                guidance=tilevsr.GuidanceConfig(mode="dssag"), upscale_factor=2,
            )
            den = tilevsr.ToyAttentionDenoiser(seed=7, channels=3, patch_size=2, embed_dim=8,
                                               cond_dim=4)
            tilevsr.sample_video(lr, den, tilevsr.ToyCodec(2), cfg)
    reached = {span[0] for span in spans.spans}
    assert [name for name in wanted if name not in reached] == []


def test_pipeline_and_frame_formats_reach_every_cli_quality_and_io_target(monkeypatch, tmp_path):
    tracer = tracer_with_one_span_name_per_target(monkeypatch)
    wanted = [f"{module}:{path}" for module, path, _, _ in tracer.WRAPS
              if module in ("tilevsr.cli", "tilevsr.quality", "tilevsr.io")]
    workload = load("workloads").make("pipeline")
    workload.setup(0, str(tmp_path / "pipeline"))
    frames = tmp_path / "pfm" / "hr"
    spans = tracer.Tracer()
    with spans.installed():
        assert [code for _, code, _, _ in workload.run_once()] == [0, 0, 0]
        # the frame formats: a fixture with PFM frames, loaded from its frame
        # directory without the container, then without the PFM frames
        assert cli.main(["fixture", "--out", str(frames.parent), "--size", "8x8",
                         "--frames", "2", "--pfm"]) == 0
        os.remove(frames / tio.VIDEO_NAME)
        assert tio.load_video(str(frames)).shape == (2, 3, 8, 8)
        for name in os.listdir(frames):
            if name.endswith(".pfm"):
                os.remove(frames / name)
        assert tio.load_video(str(frames)).shape == (2, 3, 8, 8)
    reached = {span[0] for span in spans.spans}
    assert [name for name in wanted if name not in reached] == []
