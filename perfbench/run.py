#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload fleet_interp|fleet_aot|analyze|serve \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
perfbench/ (which compiles the ceu libraries from src/) into .bench_build/;
later runs only re-check the build. Build output goes to stderr, so the last
line on stdout is the benchmark's JSON result.

BENCHMARK.json is the one list of metric names and units. The binary reports
values by name; this script checks each name against the list, attaches its
unit, and gives a per-layer metric of a layer the workload never calls the
value 0.
"""
import fcntl
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "ceu_perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no src/CMakeLists.txt here; run from a full checkout")
    os.makedirs(BUILD, exist_ok=True)
    # One build at a time, even if several runs start together.
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", BUILD, "--target", "ceu_perfbench",
                      "-j", str(min(4, os.cpu_count() or 1))])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                sys.exit("perfbench: build failed: " + " ".join(cmd))


def complete(result, trace):
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    listed = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    unknown = sorted(set(got) - {m["name"] for m in listed})
    if unknown:
        sys.exit("perfbench: metrics not in BENCHMARK.json: " + ", ".join(unknown))
    metrics = {}
    for m in listed:
        if m["name"] not in got and not trace:
            sys.exit("perfbench: end-to-end metric not reported: " + m["name"])
        metrics[m["name"]] = {"value": got.get(m["name"], 0), "unit": m["unit"]}
    result["metrics"] = metrics
    return result


def main():
    build()
    proc = subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        sys.exit(proc.returncode or 1)
    trace = sys.argv[sys.argv.index("--trace") + 1] != "0" if "--trace" in sys.argv else False
    for line in lines[:-1]:
        print(line)
    print(json.dumps(complete(json.loads(lines[-1]), trace)))


if __name__ == "__main__":
    main()
