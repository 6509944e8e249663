"""Steadiness study: run the benchmark on several seeds and report spreads.

    python3 bench/study.py --seeds 10 --seconds 25 tangent-dense cli-sparse

Each run is a fresh process, one after another, never in parallel.  For
every metric the study prints the median over the runs and the spread,
the distance between the first and third quartile as a share of the
median (statistics.quantiles with n=4).  The runs are also written to
bench/out/study-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="+")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    args = parser.parse_args()
    (BENCH / "out").mkdir(exist_ok=True)
    for workload in args.workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            done = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds)],
                capture_output=True, text=True, timeout=600)
            if done.returncode:
                print(done.stderr, file=sys.stderr)
                return done.returncode
            result = json.loads(done.stdout.splitlines()[-1])
            result["seed"] = seed
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        (BENCH / "out" / f"study-{workload}.json").write_text(json.dumps(runs, indent=1))
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"{workload}: failed shares {sorted(shares)}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            print(f"  {name:48s} median {statistics.median(values):12.6g} {unit:8s}"
                  f" spread {spread(values):7.2%}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
