#!/usr/bin/env python3
"""Repository benchmark: builds msrp_perfbench and msrp_serve, runs one workload.

    python3 perfbench/run.py --workload build-grid --seed 1 --seconds 15 --trace 0

Run from the repository root. The first run builds the library, msrp_serve
and msrp_perfbench from source into .bench_build/ (Release); later runs
reuse that build. Every line msrp_perfbench prints is passed through; the last
line is one JSON object with the keys correct, attempted, failed and
metrics. perfbench/README.md describes the workloads and metrics.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys

WORKLOADS = ("build-grid", "build-er", "serve-point")
BUILD_DIR = ".bench_build"
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(root, jobs=4):
    """Configures and builds msrp_perfbench and msrp_serve; returns their paths."""
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        fail("no repository sources next to perfbench/ (CMakeLists.txt and src/ are required)")
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail(tool + " not found")
    out = os.path.join(root, BUILD_DIR, "perfbench")
    log = os.path.join(root, BUILD_DIR, "build.log")
    os.makedirs(out, exist_ok=True)
    # Configuring every time is cheap with a cache and keeps the build tree
    # in step with edited CMakeLists (a renamed target would not resolve).
    steps = [["cmake", "-S", os.path.join(root, "perfbench"), "-B", out,
              "-DCMAKE_BUILD_TYPE=Release", "-DMSRP_ROOT=" + root],
             ["cmake", "--build", out, "-j", str(jobs),
              "--target", "msrp_perfbench", "msrp_serve"]]
    with open(log, "a") as log_file:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log_file, stderr=subprocess.STDOUT).returncode != 0:
                fail("build failed; see " + log)
    return os.path.join(out, "msrp_perfbench"), os.path.join(out, "msrp", "msrp_serve")


def validate(result):
    """Raises ValueError unless a result has the shape README.md documents."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys are %s" % sorted(result))
    if not isinstance(result["correct"], bool):
        raise ValueError("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            raise ValueError(key + " is not a whole number")
    if result["attempted"] < 1:
        raise ValueError("nothing was attempted")
    for name, metric in result["metrics"].items():
        if not NAME_RE.match(name):
            raise ValueError("bad metric name %r" % name)
        if set(metric) != {"value", "unit"} or not UNIT_RE.match(metric["unit"]):
            raise ValueError("metric %s lacks a valid unit" % name)
        if not isinstance(metric["value"], (int, float)):
            raise ValueError("metric %s has no numeric value" % name)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    parser.add_argument("--corrupt-expected", action="store_true",
                        help="flip one expected answer, for the benchmark's own tests")
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    bench, serve = build(root)
    work = os.path.join(root, BUILD_DIR, "work")
    os.makedirs(work, exist_ok=True)
    cmd = [bench, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--serve-bin", serve, "--work-dir", work]
    if args.toy:
        cmd.append("--toy")
    if args.corrupt_expected:
        cmd.append("--corrupt-expected")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("msrp_perfbench exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write("\n".join(lines[:-1] if lines[-1].startswith("{") else lines) + "\n")
        fail("msrp_perfbench exited with %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
        validate(result)
    except ValueError as ex:
        fail("malformed result: %s" % ex)
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
