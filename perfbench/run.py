#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. The first run configures and builds the
libraries and the perfbench binary (Release) under .bench_build/perfbench; later
runs only rebuild what changed. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. A failed
correctness check exits nonzero without that line.
"""
import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["live-steady", "live-saturate", "sim-control"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def repo_root():
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(root):
    src = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("no repository sources under %s/src; run from a full checkout" % root)
    out = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", src, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out: " + " ".join(cmd), 1)
        if done.returncode != 0:
            fail("build failed: " + " ".join(cmd), 1)
    return out


def commit_of(root):
    try:
        done = subprocess.run(["git", "-C", root, "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if done.returncode == 0 and done.stdout.strip():
            return done.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def run_one(binary, out_dir, commit, workload, args):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--commit", commit]
    if args.trace == 1:
        trace = "trace-%s-seed%d.jsonl" % (workload, args.seed)
        cmd += ["--trace-out", os.path.join(out_dir, trace)]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (workload, RUN_TIMEOUT_S), 1)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        fail("%s failed (exit %d)" % (workload, done.returncode), done.returncode)
    lines = done.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run the harness self-tests (histogram, correctness gates)")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be 1..60")

    root = repo_root()
    out_dir = build(root)
    binary = os.path.join(out_dir, "perfbench")
    if args.self_test:
        sys.exit(subprocess.run([binary, "--self-test"], timeout=RUN_TIMEOUT_S).returncode)

    commit = commit_of(root)
    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        lines, result = run_one(binary, out_dir, commit, name, args)
        for line in lines:
            print(line if len(names) == 1 else "[%s] %s" % (name, line))
        results[name] = result
        sys.stdout.flush()

    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return
    # All workloads: one result object whose metric names carry the workload.
    merged = {"correct": all(r["correct"] for r in results.values()),
              "attempted": sum(r["attempted"] for r in results.values()),
              "failed": sum(r["failed"] for r in results.values()),
              "metrics": {}}
    for name, r in results.items():
        for metric, value in r["metrics"].items():
            merged["metrics"][name + "." + metric] = value
    print(json.dumps(merged))


if __name__ == "__main__":
    main()
