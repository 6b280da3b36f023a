"""One benchmark workload in its own process.

    python3 perfbench/worker.py --workload NAME --seed N --out PATH
        [--setup-only] [--seconds S] [--trace 0|1] [--min-reps K] [--no-reference]

Times set-up (importing tilevsr, building the denoiser and codec, making the
inputs), then repeats the workload's unit of work for about --seconds, checks
every repetition and writes a JSON result to --out. After each untraced
repetition it times set-up once more in a fresh --setup-only process. run.py
drives it; it prints nothing on success.

With --trace 1 the first half of the time runs untraced and the second half
runs with the outside-in tracer installed; spans are written next to --out.
"""
import time

SETUP_START = time.perf_counter()

import os  # noqa: E402

# one BLAS thread, set before NumPy is imported
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE = HERE / "reference.json"

# Printed metric values carry 6 significant digits.
RTOL_PRINTED = 2e-5
PROJECTIONS = 4
PROJECTION_SEED = 20250205


def fingerprint(arr) -> dict:
    """Shape, L2 norm and seeded Gaussian projections of a float64 array."""
    import numpy as np

    flat = np.asarray(arr, dtype=np.float64).ravel()
    rng = np.random.default_rng(PROJECTION_SEED)
    proj, rnorm = [], []
    for _ in range(PROJECTIONS):
        r = rng.standard_normal(flat.size)
        proj.append(float(r @ flat))
        rnorm.append(float(np.linalg.norm(r)))
    return {"shape": list(arr.shape), "norm": float(np.linalg.norm(flat)),
            "proj": proj, "rnorm": rnorm}


def reference_problems(fp: dict, ref: dict, rtol: float) -> list[str]:
    if fp["shape"] != ref["shape"]:
        return [f"shape {fp['shape']} != reference {ref['shape']}"]
    out = []
    if abs(fp["norm"] - ref["norm"]) > rtol * ref["norm"]:
        out.append(f"norm {fp['norm']!r} vs reference {ref['norm']!r}")
    for i, (p, q) in enumerate(zip(fp["proj"], ref["proj"])):
        if abs(p - q) > rtol * ref["norm"] * fp["rnorm"][i]:
            out.append(f"projection {i} {p!r} vs reference {q!r}")
    return out


def check(workload, outcome, first_digest, ref) -> list[str]:
    """Problems of one repetition; an empty list means it passed."""
    import numpy as np

    if outcome.error:
        return [outcome.error]
    problems = []
    for name, arr in outcome.arrays.items():
        if arr.shape != workload.expected_shape:
            problems.append(f"{name} shape {arr.shape} != {workload.expected_shape}")
        if not np.all(np.isfinite(arr)):
            problems.append(f"{name} has non-finite values")
    if outcome.counts != workload.expected_counts:
        problems.append(f"pass counts {outcome.counts} != {workload.expected_counts}")
    for key, value in outcome.values.items():
        if not np.isfinite(value):
            problems.append(f"{key}={value} is not finite")
    if first_digest is not None and outcome.digest != first_digest:
        problems.append("output bytes differ from the first repetition")
    if ref is not None:
        for name, arr in outcome.arrays.items():
            found = reference_problems(fingerprint(arr), ref[name], workload.rtol)
            problems += [f"{name}: {p}" for p in found]
        for key, value in outcome.values.items():
            want = ref["values"][key]
            if abs(value - want) > RTOL_PRINTED * max(abs(value), abs(want)):
                problems.append(f"{key}={value!r} vs reference {want!r}")
    return problems


def environment() -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "blas_env": {v: os.environ.get(v) for v in BLAS_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
    }


def setup_probe(args) -> float:
    """Set-up seconds of a fresh worker process that stops after set-up."""
    out = Path(args.out).with_suffix(".setup.json")
    subprocess.run([sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
                    "--out", str(out), "--setup-only"], check=True, timeout=60)
    with open(out, encoding="ascii") as fh:
        return json.load(fh)["setup_s"]


class Judge:
    """Checks each repetition as it ends, outside the timed region.

    Checking at once matters twice over: the pipeline overwrites its output
    files on the next repetition, and keeping every output until the end
    would inflate the peak RSS with the repetition count.
    """

    def __init__(self, workload, ref):
        self.workload = workload
        self.ref = ref
        self.digest = None
        self.fingerprint = None  # of the first successful repetition

    def __call__(self, outcome, wall: float, traced: bool) -> dict:
        problems = check(self.workload, outcome, self.digest, self.ref)
        if self.digest is None and not outcome.error:
            self.digest = outcome.digest
            self.fingerprint = {name: fingerprint(arr) for name, arr in outcome.arrays.items()}
            self.fingerprint["values"] = outcome.values
        return {"wall_s": wall, "traced": traced, "problems": problems,
                "counts": outcome.counts, **outcome.times}


def measure(workload, judge, seconds, min_reps, tracer=None, between=None):
    """Repeat run_once until the next repetition would overrun `seconds`.

    Returns judge's record of each repetition. `between` runs after each
    repetition, untimed.
    """
    reps = []
    start = time.perf_counter()
    while True:
        if tracer is None:
            t0 = time.perf_counter()
            raw = workload.run_once()
            wall = time.perf_counter() - t0
        else:
            with tracer.installed(), tracer.rep():
                raw = workload.run_once()
            _, t0, t1, _ = tracer.spans[tracer.reps[-1][0]]
            wall = t1 - t0
        reps.append(judge(workload.collect(raw), wall, tracer is not None))
        if between is not None:
            between()
        if len(reps) >= min_reps and time.perf_counter() - start + wall > seconds:
            return reps


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--min-reps", type=int, default=3)
    parser.add_argument("--no-reference", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "tilevsr" / "__init__.py").is_file():
        print(f"error: no tilevsr sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads  # imports numpy and tilevsr

    if Path(workloads.tilevsr.__file__).resolve().parent != SRC / "tilevsr":
        print(f"error: imported tilevsr from {workloads.tilevsr.__file__}", file=sys.stderr)
        return 2
    workdir = Path(args.out).parent / f"work-{os.getpid()}"
    workload = workloads.make(args.workload)
    workload.setup(args.seed, str(workdir))
    setup_s = time.perf_counter() - SETUP_START
    result = {"workload": args.workload, "seed": args.seed, "setup_s": setup_s}
    try:
        if not args.setup_only:
            result.update(run(workload, args, setup_s))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(args.out, "w", encoding="ascii") as fh:
        json.dump(result, fh, indent=1)
    return 0


def run(workload, args, setup_s: float) -> dict:
    ref = None
    if not args.no_reference and REFERENCE.is_file():
        with open(REFERENCE, encoding="ascii") as fh:
            ref = json.load(fh)["workloads"].get(workload.name, {}).get(str(args.seed))
    judge = Judge(workload, ref)
    tracer = None
    setups = [setup_s]
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        half = args.seconds / 2
        untraced = measure(workload, judge, half, 1)
        traced = measure(workload, judge, half, 2, tracer)
    else:
        # set-up probes spread over the run see the same mix of host load as the repetitions
        untraced = measure(workload, judge, args.seconds, args.min_reps,
                           between=lambda: setups.append(setup_probe(args)))
        traced = []
    out = {"params": workload.params, "env": environment(),
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "setup_samples": setups, "reference_checked": ref is not None,
           "reps": untraced + traced, "fingerprint": judge.fingerprint}
    if tracer is not None:
        per_rep = []
        for i, rep in enumerate(traced):
            layers = tracer.rep_metrics(i)
            counts = rep["counts"]
            passes = counts.get("eps_calls", 0) + counts.get("gather_calls", 0)
            layers.update({f"sampler.{k}": counts.get(k, 0)
                           for k in ("eps_calls", "gather_calls", "tile_units")})
            layers["sampler.gather_share"] = counts.get("gather_calls", 0) / passes if passes else 0.0
            per_rep.append(layers)
        out["layers"] = {k: statistics.median(r[k] for r in per_rep) for k in per_rep[0]}
        out["layers"]["trace_overhead_s"] = (
            statistics.median(r["trace.wall_s"] for r in per_rep)
            - statistics.median(r["wall_s"] for r in untraced)
        )
        tracer.dump(str(Path(args.out).with_suffix(".spans.json")))
    return out


if __name__ == "__main__":
    sys.exit(main())
