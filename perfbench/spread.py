"""Run a workload over several seeds and report each metric's run-to-run spread.

    python3 perfbench/spread.py --workload train-mix --runs 10 --seconds 12

The spread is the distance between the first and third quartile of the
runs' values as a share of their median (`statistics.quantiles`, n=4);
each end-to-end metric's spread should stay well inside its bound in
BENCHMARK.json. Runs are sequential, one process each.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import quartile_spread

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args(argv)
    bounds = {}
    bench = HERE.parent / "BENCHMARK.json"
    if bench.is_file():
        with open(bench) as f:
            bounds = {m["name"]: m.get("bound") for m in json.load(f)["end_to_end"]}

    values: dict[str, list[float]] = {}
    shares = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"seed {seed}: exited with {proc.returncode}")
            return 1
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        shares.append(res["failed"] / res["attempted"])
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: correct {res['correct']} attempted {res['attempted']} failed {res['failed']} "
              + " ".join(f"{k}={m['value']:.5g}" for k, m in res["metrics"].items()), flush=True)
    print(f"failed share per run: {sorted(set(shares))}")
    for name, vals in values.items():
        spread = quartile_spread(vals) if len(vals) >= 2 else float("nan")
        bound = bounds.get(name)
        note = "" if bound is None else f"  bound {bound}  spread/bound {spread / bound:.2f}"
        print(f"{name:<24} median {statistics.median(vals):.6g}  spread {spread:.4f}{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
