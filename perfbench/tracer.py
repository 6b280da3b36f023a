"""Outside-in span tracer for the tilevsr benchmark.

The tracer records spans from the benchmark's own files: while installed it
replaces public tilevsr functions with timing wrappers, under the names their
callers look up at call time (``tilevsr.models.scaled_scores`` is what the
denoiser calls, ``tilevsr.cli.block_match_flow`` is what the ``metrics`` verb
calls, and so on). Uninstalling restores the originals.

A span is ``[name, start, end, parent]``. Spans stay in memory for the whole
run; ``dump`` writes them out at the end. Every traced repetition opens one
root span (``rep``), so a repetition's spans are contiguous in the list and
its per-layer numbers are computed from that slice alone. Self time is a
span's duration minus the durations of its direct children. The tracer
assumes one thread, which holds because every workload runs with
``workers=1``.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager


def _prod(shape) -> int:
    out = 1
    for n in shape:
        out *= int(n)
    return out


def _count_scores(c: dict, q, k, *_args, **_kw) -> None:
    """Computed cost of one score matrix: batch x q x k float64 entries, plus
    4*b*q*k*d flops for Q K^T and the weights @ V product (d_v = d here)."""
    b, nq, nk, d = _prod(q.shape[:-2]), q.shape[-2], k.shape[-2], q.shape[-1]
    score_bytes = b * nq * nk * 8
    c["score_bytes"] += score_bytes
    c["score_bytes_max"] = max(c["score_bytes_max"], score_bytes)
    c["flop"] += 4 * b * nq * nk * d


def _count_extend(c: dict, k, _v, injected, *_args, **_kw) -> None:
    b = _prod(k.shape[:-2])
    rows = injected.rows if injected is not None else 0
    c["own_keys"] += b * k.shape[-2]
    c["injected_keys"] += b * rows
    c["injected_rows_max"] = max(c["injected_rows_max"], rows)


def _count_read(c: dict, path, *_args, **_kw) -> None:
    c["bytes_read"] += os.path.getsize(path)


def _count_write(c: dict, _path, data, *_args, **_kw) -> None:
    c["bytes_written"] += len(data)


# (module, attribute path on that module, span name, counter or None)
WRAPS = (
    ("tilevsr", "sample_video", "sampler.sample_video", None),
    ("tilevsr.cli", "sample_video", "sampler.sample_video", None),
    ("tilevsr.sampler", "denoise_pass_sap", "sampler.pass_sap", None),
    ("tilevsr.sampler", "denoise_pass_tap", "sampler.pass_tap", None),
    ("tilevsr.sampler", "denoise_pass_plain", "sampler.pass_plain", None),
    ("tilevsr.sampler", "ode_step", "sampler.ode_step", None),
    ("tilevsr.sampler", "combine", "guidance.combine", None),
    ("tilevsr.sampler", "split", "tiles.split", None),
    ("tilevsr.sampler", "merge", "tiles.merge", None),
    ("tilevsr.sampler", "interleave", "tiles.interleave", None),
    ("tilevsr.sampler", "deinterleave", "tiles.interleave", None),
    ("tilevsr.sampler", "select_tap_frames", "attention.select_tap_frames", None),
    ("tilevsr.sampler", "subsample_spatial_kv", "attention.subsample", None),
    ("tilevsr.sampler", "aggregate_frame_kv", "attention.subsample", None),
    ("tilevsr.sampler", "bicubic_resize", "quality.bicubic", None),
    ("tilevsr.models", "ToyAttentionDenoiser.denoise", "models.denoise", None),
    ("tilevsr.models", "ToyCodec.encode", "models.codec", None),
    ("tilevsr.models", "ToyCodec.decode", "models.codec", None),
    ("tilevsr.models", "scaled_scores", "attention.scores", _count_scores),
    ("tilevsr.models", "softmax_rows", "attention.softmax", None),
    ("tilevsr.models", "extend_kv", "attention.extend_kv", _count_extend),
    ("tilevsr.cli", "main", "cli.main", None),
    ("tilevsr.cli", "cmd_fixture", "cli.fixture", None),
    ("tilevsr.cli", "cmd_upscale", "cli.upscale", None),
    ("tilevsr.cli", "cmd_metrics", "cli.metrics", None),
    ("tilevsr.cli", "degrade", "quality.degrade", None),
    ("tilevsr.cli", "block_match_flow", "quality.block_match", None),
    ("tilevsr.cli", "ssim", "quality.ssim", None),
    ("tilevsr.cli", "psnr", "quality.other", None),
    ("tilevsr.cli", "tof", "quality.other", None),
    ("tilevsr.cli", "tlp", "quality.other", None),
    ("tilevsr.cli", "warping_error", "quality.other", None),
    ("tilevsr.quality", "warp_frame", "quality.warp", None),
    ("tilevsr.quality", "bicubic_resize", "quality.bicubic", None),
    ("tilevsr.io", "load_video", "io.read", None),
    ("tilevsr.io", "read_tensor", "io.read", _count_read),
    ("tilevsr.io", "read_ppm", "io.read", _count_read),
    ("tilevsr.io", "read_pfm", "io.read", _count_read),
    ("tilevsr.io", "write_tensor", "io.write", None),
    ("tilevsr.io", "save_frames", "io.write", None),
    ("tilevsr.io", "write_ppm", "io.write", None),
    ("tilevsr.io", "write_pfm", "io.write", None),
    ("tilevsr.io", "atomic_write_bytes", "io.write", _count_write),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.reps: list[tuple[int, dict]] = []  # (root span index, counters)
        self._stack: list[int] = []
        self._counters: dict = defaultdict(float)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        self._counters["calls." + name] += 1
        return idx

    def _close(self, idx: int, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[idx][1] = start
        self.spans[idx][2] = end

    def _wrap(self, name: str, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                counter(self._counters, *args, **kwargs)
            idx = self._open(name)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, start)

        return traced

    @contextmanager
    def installed(self):
        """Patch every WRAPS target; restore the originals on exit."""
        saved = []
        try:
            for module, path, name, counter in WRAPS:
                *owner_path, attr = path.split(".")
                owner = importlib.import_module(module)
                for part in owner_path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, counter))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    @contextmanager
    def rep(self):
        """Root span of one traced repetition, with its own counters."""
        self._counters = defaultdict(float)
        idx = self._open("rep")
        self.reps.append((idx, self._counters))
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, start)

    def rep_metrics(self, i: int) -> dict:
        """Per-layer numbers of traced repetition i (see README for each)."""
        root, c = self.reps[i]
        stop = self.reps[i + 1][0] if i + 1 < len(self.reps) else len(self.spans)
        spans = self.spans[root:stop]
        dur = [end - start for _, start, end, _ in spans]
        own = list(dur)
        for j, (_, _, _, parent) in enumerate(spans):
            if parent >= root:
                own[parent - root] -= dur[j]
        self_s: dict = defaultdict(float)
        incl_s: dict = defaultdict(float)  # only read for names that never nest in themselves
        for j, span in enumerate(spans):
            self_s[span[0]] += own[j]
            incl_s[span[0]] += dur[j]
        wall = dur[0]
        all_keys = c["own_keys"] + c["injected_keys"]
        return {
            "attention.scores_s": self_s["attention.scores"],
            "attention.softmax_s": self_s["attention.softmax"],
            "attention.extend_kv_s": self_s["attention.extend_kv"],
            "attention.kernel_calls": c["calls.attention.scores"],
            "attention.injected_rows": c["injected_rows_max"],
            "attention.injected_key_share": c["injected_keys"] / all_keys if all_keys else 0.0,
            "attention.score_mb": c["score_bytes"] / 1e6,
            "attention.score_mb_max": c["score_bytes_max"] / 1e6,
            "attention.gflop": c["flop"] / 1e9,
            "attention.select_tap_frames_s": self_s["attention.select_tap_frames"],
            "attention.subsample_s": self_s["attention.subsample"],
            "models.denoise_calls": c["calls.models.denoise"],
            "models.denoise_s": incl_s["models.denoise"],
            "models.denoise_self_s": self_s["models.denoise"],
            "models.codec_s": self_s["models.codec"],
            "sampler.pass_sap_s": incl_s["sampler.pass_sap"],
            "sampler.pass_tap_s": incl_s["sampler.pass_tap"],
            "sampler.pass_plain_s": incl_s["sampler.pass_plain"],
            "sampler.ode_step_s": self_s["sampler.ode_step"],
            "sampler.self_s": sum(
                self_s[n] for n in ("sampler.sample_video", "sampler.pass_sap",
                                    "sampler.pass_tap", "sampler.pass_plain")
            ),
            "guidance.combine_s": self_s["guidance.combine"],
            "guidance.combine_calls": c["calls.guidance.combine"],
            "tiles.split_s": self_s["tiles.split"],
            "tiles.merge_s": self_s["tiles.merge"],
            "tiles.interleave_s": self_s["tiles.interleave"],
            "quality.block_match_s": self_s["quality.block_match"],
            "quality.block_match_calls": c["calls.quality.block_match"],
            "quality.ssim_s": self_s["quality.ssim"],
            "quality.warp_s": self_s["quality.warp"],
            "quality.degrade_s": self_s["quality.degrade"],
            "quality.bicubic_s": self_s["quality.bicubic"],
            "quality.other_s": self_s["quality.other"],
            "io.read_s": self_s["io.read"],
            "io.write_s": self_s["io.write"],
            "io.bytes_read": c["bytes_read"],
            "io.bytes_written": c["bytes_written"],
            "cli.fixture_s": incl_s["cli.fixture"],
            "cli.upscale_s": incl_s["cli.upscale"],
            "cli.metrics_s": incl_s["cli.metrics"],
            "cli.self_s": sum(
                self_s[n] for n in ("cli.main", "cli.fixture", "cli.upscale", "cli.metrics")
            ),
            "trace.wall_s": wall,
            "trace.spans": len(spans) - 1,
            "trace.self_coverage": (wall - own[0]) / wall,
        }

    def dump(self, path: str) -> None:
        """Write every span as [name, start, end, parent] to a JSON file."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)
