"""tilevsr benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, one table

Run from the root of a checkout. Each workload runs in its own worker
process (worker.py), so its peak RSS belongs to it alone; set-up is timed in
that worker and in a fresh process after each repetition, and reported as
the median.
The last line of stdout is one JSON object: {"correct", "attempted",
"failed", "metrics"}. With --trace 0 the metrics are BENCHMARK.json's
end-to-end metrics, with --trace 1 its per-layer metrics. The lines before
it record the environment, sample counts and any failed checks.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("sap_tap_dssag", "sap_wide", "pipeline")
WORKER_TIMEOUT_S = 150


class BenchError(RuntimeError):
    pass


def worker(workload: str, seed: int, out: Path, *extra: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    with open(out, encoding="ascii") as fh:
        return json.load(fh)


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """Returns (metric values, worker result)."""
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{workload}-seed{seed}-trace{trace}"
    result = worker(workload, seed, stem.with_suffix(".json"),
                    "--seconds", str(seconds), "--trace", str(trace))
    if trace:
        return result["layers"], result
    walls = [r["wall_s"] for r in result["reps"] if not r["traced"]]
    return {
        "setup_s": statistics.median(result["setup_samples"]),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": result["peak_rss_mb"],
    }, result


def summary(workload: str, result: dict) -> list[str]:
    reps = result["reps"]
    walls = [r["wall_s"] for r in reps if not r["traced"]]
    failed = sum(1 for r in reps if r["problems"])
    lines = [
        f"# {workload} seed={result['seed']} params={json.dumps(result['params'], sort_keys=True)}",
        f"#   setup_s      {statistics.median(result['setup_samples']):.4f} s"
        f"   median of {len(result['setup_samples'])} processes",
        f"#   wall_s       {statistics.median(walls):.4f} s   median of {len(walls)}"
        f" (min {min(walls):.4f}, max {max(walls):.4f})",
        f"#   peak_rss_mb  {result['peak_rss_mb']:.1f} MB  1 process",
        f"#   failed_share {failed}/{len(reps)} = {failed / len(reps):.3g}"
        f"   reference {'checked' if result['reference_checked'] else 'absent for this seed'}",
    ]
    metric_walls = [r["metrics_s"] for r in reps if "metrics_s" in r and not r["traced"]]
    if metric_walls:
        lines.append(f"#   metrics_s    {statistics.median(metric_walls):.4f} s"
                     f"   median of {len(metric_walls)}")
    for i, r in enumerate(reps):
        lines += [f"# problem: rep {i}: {p}" for p in r["problems"]]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="tilevsr benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "tilevsr" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: run from a tilevsr checkout; no sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    with open(spec_path, encoding="ascii") as fh:
        spec = json.load(fh)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed, env = {}, 0, 0, None
    try:
        for workload in names:
            values, result = run_workload(workload, args.seed, seconds, args.trace)
            if set(values) != set(units):
                raise BenchError(f"metric names differ from BENCHMARK.json: "
                                 f"{sorted(set(values) ^ set(units))}")
            if env is None:
                env = result["env"]
                print("# env " + json.dumps(env, sort_keys=True))
            print("\n".join(summary(workload, result)))
            prefix = f"{workload}." if len(names) > 1 else ""
            for name in units:
                metrics[prefix + name] = {"value": values[name], "unit": units[name]}
            attempted += len(result["reps"])
            failed += sum(1 for r in result["reps"] if r["problems"])
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
