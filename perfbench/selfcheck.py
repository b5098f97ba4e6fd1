#!/usr/bin/env python3
"""Benchmark self-check.  Run from the repository root:

    python3 perfbench/selfcheck.py --seed 1 --seconds 5

For every workload it makes two traced runs with the same seed and requires
that their work counts agree exactly, and that in each run the layer spans
cover at least ``COVERAGE_MIN`` of the traced operation time, so that work
escaping every span, or a span lost from the tracer, shows.
Exits 1 on any disagreement.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import COUNTS, COVERAGE_MIN, WORKLOADS  # noqa: E402


def traced_run(workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload}: traced run failed\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5)
    args = parser.parse_args()
    ok = True
    for workload in WORKLOADS:
        first, second = (traced_run(workload, args.seed, args.seconds) for _ in range(2))
        for key in COUNTS:
            a, b = first["metrics"][key]["value"], second["metrics"][key]["value"]
            same = a == b
            ok &= same
            print(f"{workload:18s} {key:22s} {a:>14g} {b:>14g} {'ok' if same else 'DIFFERS'}")
        for run in (first, second):
            frac = run["metrics"]["trace.covered_frac"]["value"]
            within = COVERAGE_MIN <= frac <= 1.0 and run["correct"]
            ok &= within
            print(f"{workload:18s} {'trace.covered_frac':22s} {frac:>14.6f} "
                  f"{'ok' if within else 'OUTSIDE'}")
    print("self-check", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
