"""Regenerate reference.json: output fingerprints per workload and seed.

    python3 perfbench/make_reference.py [--seeds 0-9]

Runs one repetition of each workload per seed in a worker process and keeps
the fingerprint of its output (shape, L2 norm, seeded projections; printed
metric values for the pipeline). Regenerate only when a change is meant to
alter outputs, and record the measured drift with the change.
"""
from __future__ import annotations

import argparse
import json
import sys

from run import OUT, WORKLOADS, worker, HERE


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    args = parser.parse_args(argv)
    first, last = (int(x) for x in args.seeds.split("-"))
    OUT.mkdir(exist_ok=True)
    reference = {"workloads": {}}
    for workload in WORKLOADS:
        per_seed = reference["workloads"].setdefault(workload, {})
        for seed in range(first, last + 1):
            result = worker(workload, seed, OUT / f"reference-{workload}.json",
                            "--seconds", "0", "--min-reps", "1", "--no-reference")
            problems = result["reps"][0]["problems"]
            if problems:
                print(f"error: {workload} seed {seed}: {problems}", file=sys.stderr)
                return 1
            per_seed[str(seed)] = result["fingerprint"]
            print(f"{workload} seed {seed}: norm {result['fingerprint']['video']['norm']!r}")
    with open(HERE / "reference.json", "w", encoding="ascii") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
