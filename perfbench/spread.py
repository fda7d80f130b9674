#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints each end-to-end
metric's median and quartile spread (Q3 - Q1 as a share of the median),
against its bound in BENCHMARK.json.

Run from the repository root:

    python3 perfbench/spread.py --workload serve-query --seeds 1 2 3 4 5
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in args.seeds:
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", str(args.trace)]
        t0 = time.monotonic()
        out = subprocess.run(cmd, capture_output=True, text=True)
        took = time.monotonic() - t0
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}\n{out.stdout[-2000:]}")
        res = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: {took:.0f}s correct={res['correct']} attempted={res['attempted']} failed={res['failed']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())), flush=True)
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    if len(args.seeds) < 2:
        return
    for k, vs in sorted(values.items()):
        q = statistics.quantiles(vs, n=4)
        med = statistics.median(vs)
        spread = (q[2] - q[0]) / med if med else float("nan")
        bound = bounds.get(k)
        flag = "" if bound is None else ("  ok" if spread < bound / 3 else ("  WIDE" if spread < bound else "  OVER"))
        print(f"{k:32s} median={med:12.4f} spread={spread:7.3f} bound={bound}{flag}")


if __name__ == "__main__":
    main()
