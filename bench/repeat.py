"""Run workloads over consecutive seeds; report each metric's median, quartiles and spread.

    python3 bench/repeat.py --runs 10 --first-seed 1 --seconds 38 [--workload NAME ...]
    python3 bench/repeat.py --runs 10 --first-seed 101 --against bench/out/repeat-1.json

Runs go one at a time; the wall time of each is recorded too. Quartiles come from statistics.quantiles(n=4);
spread is (q3 - q1) / median, the figure the bounds in BENCHMARK.json
are set against. With --against, each median is also compared with the
same metric of an earlier set, as (this - earlier) / earlier. Results go
to bench/out/repeat-<first seed>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=38)
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS))
    parser.add_argument("--against", type=Path, help="an earlier repeat-*.json to compare medians with")
    args = parser.parse_args()
    earlier = json.loads(args.against.read_text()) if args.against else {}
    report = {}
    for name in args.workload or WORKLOADS:
        runs, walls = [], []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            argv = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed)]
            argv += ["--seconds", str(args.seconds), "--trace", "0"]
            begin = time.perf_counter()
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
            walls.append(time.perf_counter() - begin)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return 1
            runs.append(json.loads(proc.stdout.splitlines()[-1]))
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"{name}: correct={all(r['correct'] for r in runs)} failed shares={shares} longest run {max(walls):.1f} s")
        report[name] = {"failed_shares": shares, "run_wall_s": walls, "metrics": {}}
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            row = {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}
            line = f"  {metric:<12} median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {row['spread']:.4f}"
            before = earlier.get(name, {}).get("metrics", {}).get(metric)
            if before:
                row["shift"] = (median - before["median"]) / before["median"]
                line += f"  shift {row['shift']:+.4f}"
            print(line)
            report[name]["metrics"][metric] = row
    (BENCH / "out").mkdir(exist_ok=True)
    (BENCH / "out" / f"repeat-{args.first_seed}.json").write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
