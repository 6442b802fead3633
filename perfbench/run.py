#!/usr/bin/env python3
"""DiverseAV campaign benchmark.

Builds the benchmark (perfbench/CMakeLists.txt, on top of ../src) into
.bench_build/ at the repository root, runs one workload and relays its
report. The last line of stdout is the JSON result:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage:
  python3 perfbench/run.py --workload golden_serial --seed 2022 \
      --seconds 30 --trace 0
  python3 perfbench/run.py --workload all        # the three, one after another
  python3 perfbench/run.py --test                # the benchmark's unit tests

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones (see
perfbench/meta.json for units, directions, the layer-to-metric mapping and
the recorded trajectory). The exit code is non-zero when the build fails,
when the workload cannot be measured, or when an output check fails.
DAV_* variables are removed from the environment of everything started here.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench_campaign")
WORKLOADS = ("golden_serial", "fi_sweep_pool", "shared_prefix_pool")
RUN_TIMEOUT_S = 170


def clean_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("DAV_")}


def jobs():
    try:
        return max(1, min(len(os.sched_getaffinity(0)), 4))
    except AttributeError:
        return 1


def check(cmd):
    # Build output goes to stderr: stdout carries only the report.
    subprocess.run(cmd, check=True, stdout=sys.stderr, env=clean_env())


def build(targets, tests=False):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no DiverseAV sources at %s/src" % ROOT)
    configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if tests:
        configure.append("-DPERFBENCH_TESTS=ON")
    if tests or not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        check(configure)
    check(["cmake", "--build", BUILD, "-j", str(jobs()), "--target"] + targets)


def run_workload(name, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout lines)."""
    cmd = [BINARY, "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", os.path.join(BUILD, "work", name)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=clean_env(), timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: %s timed out" % name, file=sys.stderr)
        return 1, []
    return proc.returncode, proc.stdout.splitlines()


def parse_result(lines):
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    return result if isinstance(result, dict) and set(result) == keys else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=2022)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--test", action="store_true",
                    help="build and run the benchmark's unit tests")
    args = ap.parse_args()

    if args.test:
        build(["perfbench_tests"], tests=True)
        return subprocess.run([os.path.join(BUILD, "perfbench_tests")],
                              env=clean_env()).returncode
    if args.workload is None:
        ap.error("--workload is required")

    try:
        build(["perfbench_campaign"])
    except (subprocess.CalledProcessError, OSError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in names:
        rc, lines = run_workload(name, args.seed, args.seconds, args.trace)
        result = parse_result(lines)
        if result is None:
            # Not measured: relay the diagnostics, print no result.
            sys.stdout.write("".join(l + "\n" for l in lines))
            print("perfbench: %s produced no result" % name, file=sys.stderr)
            return rc or 1
        body = lines if len(names) == 1 else lines[:-1]
        sys.stdout.write("".join(l + "\n" for l in body))
        code = code or rc
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][name + "." + metric] = value
    if len(names) > 1:
        print(json.dumps(combined))
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
