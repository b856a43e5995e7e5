"""Steadiness mode: run a workload over several seeds and report each metric's spread.

    python3 perfbench/steady.py --workload ring-wide --seeds 1-10

Runs perfbench/run.py --trace 0 once per seed for run_seconds (from
BENCHMARK.json), one run at a time, and reports per metric the median, the
quartiles (statistics.quantiles, n=4) and the quartile spread
(q3 - q1) / median. For the bounded end-to-end metrics it
also shows the bound from BENCHMARK.json; a spread under a third of the
bound is steady. The table is written to
.perfbench_runs/steady-<workload>.json with provenance.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import provenance
import run


def _seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread_table(values: dict, bounds: dict) -> dict:
    table = {}
    for name, vals in values.items():
        vals = [v for v in vals if v is not None]
        if len(vals) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        table[name] = {
            "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None,
            "bound": bounds.get(name), "values": vals,
        }
    return table


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=run.workloads.WORKLOADS)
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,3,5")
    args = ap.parse_args(argv)

    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")

    values: dict = {}
    failed = []
    for seed in _seeds(args.seeds):
        tag = f"{args.workload}-seed{seed}-trace0"
        proc = subprocess.run(
            [sys.executable, script, "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"],
            cwd=root, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        failed.append(line["failed"])
        with open(os.path.join(root, run.RESULTS_DIR, f"results-{tag}.json")) as fh:
            metrics = json.load(fh)["metrics"]
        for name, value in metrics.items():
            values.setdefault(name, []).append(value)
        print(f"seed {seed}: correct={line['correct']} attempted="
              f"{line['attempted']} failed={line['failed']}", flush=True)

    table = spread_table(values, bounds)
    for name, row in table.items():
        mark = ""
        if row["bound"] is not None and row["spread"] is not None:
            mark = "steady" if row["spread"] < row["bound"] / 3 else (
                "within bound" if row["spread"] <= row["bound"] else "UNSTEADY")
        spread = "n/a" if row["spread"] is None else f"{row['spread']:.4f}"
        print(f"  {name:44s} median {row['median']:.6g}  q1 {row['q1']:.6g}  "
              f"q3 {row['q3']:.6g}  spread {spread}  {mark}")
    out = {"workload": args.workload, "seconds": seconds,
           "seeds": _seeds(args.seeds), "failed": failed, "metrics": table,
           "provenance": provenance.collect(root, None)}
    path = os.path.join(root, run.RESULTS_DIR,
                        f"steady-{args.workload}.json")
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
