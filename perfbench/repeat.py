#!/usr/bin/env python3
"""Run workloads of the vlacnn benchmark over several seeds and report the
run-to-run spread of every end-to-end metric against its bound.

    python3 perfbench/repeat.py --runs 10 [--first-seed 1] [--trace 0]
        [--workload NAME ...] [--out .bench_build/repeat.jsonl]

Each run's result is appended to --out as {"workload", "seed", "result"};
`python3 perfbench/stats.py compare A.jsonl B.jsonl` compares two such files.
Exits 1 when a spread is not below a third of its bound.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run
import stats


def main():
    bench = stats.load_benchmark(run.ROOT)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--out", default=str(run.build_dir() / "repeat.jsonl"))
    args = ap.parse_args()

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, str(Path(run.__file__)), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(bench["run_seconds"]), "--trace", str(args.trace)],
                cwd=run.ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}")
                return 1
            result = json.loads(lines[-1])
            with out.open("a") as f:
                f.write(json.dumps({"workload": workload, "seed": seed,
                                    "result": result}) + "\n")
            values = {k: round(v["value"], 6)
                      for k, v in result["metrics"].items()}
            print(f"{workload} seed {seed}: {values}", flush=True)
    if args.trace:
        return 0
    return stats.main(["stats.py", "spread", str(out)])


if __name__ == "__main__":
    sys.exit(main())
