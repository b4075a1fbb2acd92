#!/usr/bin/env python3
"""Steadiness check: run every workload of BENCHMARK.json repeatedly, for
its run_seconds, alternating workloads, with seeds 1..runs, and print each
end-to-end metric's median, quartiles and spread (quartile distance /
median) against its bound, plus the attempted and failed counts. Used to
set the bounds and to re-check them; run it twice to compare two sets.

    python3 perfbench/steady.py [--runs 10] [--trace]

--trace adds one traced run per workload and prints the per-layer metrics
and the tracing overhead (traced vs untraced throughput median).
Run from the repository root.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds), "--trace",
           "1" if trace else "0"]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True)
    if p.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}")
    return json.loads(p.stdout.strip().splitlines()[-1]), p.stderr


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results = {w: [] for w in workloads}
    for seed in range(1, args.runs + 1):
        for w in workloads:  # alternate, so slow host phases hit every workload
            r, _ = run(w, seed, seconds, False)
            results[w].append(r)
            print(f"  {w} seed {seed}: " +
                  " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(r["metrics"].items())),
                  file=sys.stderr, flush=True)

    for w in workloads:
        rs = results[w]
        shares = {r["failed"] / r["attempted"] for r in rs}
        print(f"\n== {w}: {len(rs)} runs, correct={all(r['correct'] for r in rs)}, "
              f"attempted {min(r['attempted'] for r in rs)}..{max(r['attempted'] for r in rs)}, "
              f"failed {min(r['failed'] for r in rs)}..{max(r['failed'] for r in rs)}, "
              f"failed share {sorted(shares)}")
        print(f"   {'metric':18} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for name in sorted(rs[0]["metrics"]):
            vals = [r["metrics"][name]["value"] for r in rs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            b = bounds.get(name, 0)
            flag = "" if spread <= b / 3 else "  <-- over bound/3"
            print(f"   {name:18} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} {b:6.3f}{flag}")

    if args.trace:
        for w in workloads:
            r, err = run(w, 1, seconds, True)
            print(f"\n== {w} traced run (per-layer metrics)")
            for name, m in sorted(r["metrics"].items()):
                if m["value"]:
                    print(f"   {name:34} {m['value']:14.6g} {m['unit']}")
            for line in err.splitlines():
                if line.startswith("traced:"):
                    traced = float(line.split()[2])
                    untraced = statistics.median(
                        x["metrics"]["throughput_per_s"]["value"] for x in results[w])
                    print(f"   tracing overhead: throughput {traced:.6g} traced vs "
                          f"{untraced:.6g} untraced median "
                          f"({(1 - traced / untraced) * 100:.1f}% lower)")


if __name__ == "__main__":
    main()
