"""Run one benchmark workload, check its outputs and print its metrics.

    python3 perfbench/run.py --workload decode-long --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12 --trace 0

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. `--workload all` runs
every workload, each in a process of its own, and prints a table.
Details of each run go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("train-mix", "decode-long", "prefill-batch")
# One closed-loop caller; a single BLAS thread (at most nproc) keeps runs steady.
BLAS_THREADS = 1


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def machine_facts() -> dict:
    import ctypes
    import glob

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    runtime_threads = None
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        try:
            get = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        runtime_threads = get()
    return {
        "vcpus": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_runtime": runtime_threads,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def result_line(tally, metrics: dict) -> str:
    return json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def trace_summary(tracer) -> dict:
    """Calls, total and self milliseconds per span name."""
    from stats import self_times
    from tracer import END, NAME, PARENT, START

    spans = tracer.spans
    selfs = self_times([(r[START], r[END], r[PARENT]) for r in spans])
    out: dict[str, dict] = {}
    for rec, own in zip(spans, selfs):
        row = out.setdefault(rec[NAME], {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        row["calls"] += 1
        row["total_ms"] += 1e3 * (rec[END] - rec[START])
        row["self_ms"] += 1e3 * own
    return out


def run_one(args) -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import hybridlab

    if Path(hybridlab.__file__).resolve().parent != (SRC / "hybridlab").resolve():
        print(f"perfbench: imported hybridlab from {hybridlab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from tracer import Tracer
    from workloads import WORKLOADS, layer_metrics, measure

    run_id = f"{args.workload}-seed{args.seed}-{int(time.time() * 1e3)}"
    tracer = Tracer(run_id) if args.trace else None
    wl = WORKLOADS[args.workload](args.seed, tracer)
    res = measure(wl, args.seconds)
    tally, e2e = res["tally"], res["e2e"]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "run_id": run_id,
        "machine": machine_facts(), "info": res["info"],
        "attempted": tally.attempted, "failed": tally.failed, "failures": tally.failures,
        "e2e": {k: v for k, (v, _) in e2e.items()},
    }
    print(f"{args.workload} seed {args.seed}: {res['info']['rounds']} rounds, "
          f"attempted {tally.attempted}, failed {tally.failed}")
    print("  machine " + ", ".join(f"{k} {v}" for k, v in record["machine"].items()))
    for line in tally.failures:
        print(f"  FAILED {line}")
    for key, value in res["info"].items():
        if key.endswith("_samples"):
            print(f"  {key} {value}")

    OUT.mkdir(exist_ok=True)
    if tracer is None:
        metrics = e2e
        path = OUT / f"{args.workload}-seed{args.seed}-untraced.json"
    else:
        metrics = layer_metrics(tracer, wl.models)
        untraced = {k: v for k, (v, _) in res["untraced"].items()}
        overhead = {k: record["e2e"][k] / untraced[k] - 1.0 for k in record["e2e"] if k != "setup_s"}
        record.update({
            "layer": {k: v for k, (v, _) in metrics.items()},
            "untraced_e2e": untraced,
            "overhead_vs_untraced": overhead,
            "self_time": trace_summary(tracer),
            "span_columns": ["name", "start", "end", "parent", "layout", "tag",
                             "ops_start", "ops_end", "run_id"],
            "spans": tracer.spans,
        })
        path = OUT / f"{args.workload}-seed{args.seed}-trace.json"
        for key, value in overhead.items():
            print(f"  tracing overhead {key} {100 * value:+.1f}% "
                  f"({record['e2e'][key]:.6g} traced, {untraced[key]:.6g} untraced)")
    with open(path, "w") as f:
        json.dump(record, f)
    for key, (value, unit) in (e2e if tracer is None else metrics).items():
        print(f"  {key} {value:.6g} {unit}")
    print(result_line(tally, metrics))
    return 0


def run_all(args) -> int:
    """Every workload in a process of its own; a table, then one JSON line."""
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with {proc.returncode}")
            status = 1
            continue
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(f"{'workload':<14} {'attempted':>9} {'failed':>6}  metrics")
    for name, res in results.items():
        shown = ", ".join(f"{k} {m['value']:.4g} {m['unit']}" for k, m in res["metrics"].items())
        print(f"{name:<14} {res['attempted']:>9} {res['failed']:>6}  {shown}")
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hybridlab" / "__init__.py").is_file():
        print(f"perfbench: no hybridlab source under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
