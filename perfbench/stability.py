#!/usr/bin/env python3
"""Stability record for the benchmark.

Runs each workload once per seed and reports, for every end-to-end metric,
the median and the distance between the first and third quartile as a share
of the median (statistics.quantiles(values, n=4)), beside the metric's bound
from BENCHMARK.json. Run from the root of the repository:

    python3 perfbench/stability.py --runs 10 --out perfbench/stability.json

A spread at or above a third of its bound is marked "wide".
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(workload, seed, seconds):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    start = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    wall = time.time() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    prov = json.loads(lines[-2])["provenance"]
    return json.loads(lines[-1]), prov, wall


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out", default="")
    ap.add_argument("workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    record = {"run_seconds": args.seconds, "runs": args.runs, "workloads": {}}
    for w in args.workloads:
        values, walls, failed = {}, [], 0
        for seed in range(args.first_seed, args.first_seed + args.runs):
            res, prov, wall = run_once(w, seed, args.seconds)
            record.setdefault("provenance", {k: prov[k] for k in
                                             ("go_version", "gomaxprocs", "nproc", "cpu_model")})
            walls.append(wall)
            failed += res["failed"] + (0 if res["correct"] else 1)
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        metrics = {}
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            metrics[name] = {
                "median": med, "q1": q1, "q3": q3, "spread": round(spread, 4),
                "bound": bounds.get(name),
                "wide": bool(name in bounds and spread >= bounds[name] / 3),
                "values": vs,
            }
            print(f"{w:16s} {name:18s} median {med:12.4f} spread {spread:7.2%} bound {bounds.get(name)}"
                  + ("  WIDE" if metrics[name]["wide"] else "")
                  + "  [" + " ".join(f"{v:.4g}" for v in vs) + "]", flush=True)
        record["workloads"][w] = {"failed": failed, "wall_s_max": round(max(walls), 1),
                                  "wall_s_median": round(statistics.median(walls), 1),
                                  "metrics": metrics}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
