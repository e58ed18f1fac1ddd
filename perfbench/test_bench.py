#!/usr/bin/env python3
"""Tests of the benchmark itself: every workload at toy size through the
same code path, a wrong expected answer showing up as a failure, and the
metric names and units the runner prints.

    python3 perfbench/test_bench.py      # from the repository root

The first run builds msrp_perfbench like perfbench/run.py does.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("build-grid", "build-er", "serve-point")
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace=0, *extra, cwd=ROOT, runner=RUN):
    cmd = [sys.executable, runner, "--workload", workload, "--seed", "5",
           "--seconds", "1", "--trace", str(trace), "--toy", *extra]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)


def result_of(proc):
    return json.loads(proc.stdout.strip().split("\n")[-1])


class BenchmarkSpec(unittest.TestCase):
    def test_names_units_and_bounds_are_valid(self):
        s = spec()
        names = [m["name"] for m in s["end_to_end"] + s["per_layer"]]
        names += [w["name"] for w in s["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME_RE)
        for m in s["end_to_end"] + s["per_layer"]:
            self.assertRegex(m["unit"], UNIT_RE)
        for m in s["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        self.assertEqual([w["name"] for w in s["workloads"]], list(WORKLOADS))


class ToyWorkloads(unittest.TestCase):
    def check(self, workload, trace):
        proc = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        r = result_of(proc)
        self.assertTrue(r["correct"])
        self.assertEqual(r["failed"], 0)
        self.assertGreaterEqual(r["attempted"], 1)
        key = "per_layer" if trace else "end_to_end"
        declared = {m["name"]: m["unit"] for m in spec()[key]}
        self.assertEqual(set(r["metrics"]), set(declared))
        for name, m in r["metrics"].items():
            self.assertEqual(m["unit"], declared[name], name)
            self.assertIsInstance(m["value"], (int, float), name)
            if not trace:
                self.assertGreater(m["value"], 0, name)
        return r

    def test_end_to_end_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check(w, 0)

    def test_traced_run_prints_every_layer(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                m = self.check(w, 1)["metrics"]
                self.assertGreater(m["trace.overhead"]["value"], 0)
                if w.startswith("serve"):
                    self.assertGreater(m["server.cpu_ns_per_q"]["value"], 0)
                    self.assertGreater(m["net.execute_us.p50"]["value"], 0)
                    self.assertGreater(m["ftsub.kfail2_us"]["value"], 0)
                    # The local builds of the served oracle are not on the
                    # served path: no build layer reports on serve-point.
                    for name in ("core.assembly_s", "core.landmarks", "service.encode_s",
                                 "self.core_s"):
                        self.assertEqual(m[name]["value"], 0, name)
                else:
                    self.assertGreater(m["core.assembly_s"]["value"], 0)
                    self.assertEqual(m["net.execute_us.p50"]["value"], 0)


class WrongAnswers(unittest.TestCase):
    def test_wrong_expected_answer_counts_as_failure(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                proc = run(w, 0, "--corrupt-expected")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                r = result_of(proc)
                self.assertFalse(r["correct"])
                self.assertGreaterEqual(r["failed"], 1)
                self.assertIn("check failed", proc.stderr)


class StandAlone(unittest.TestCase):
    def test_fails_without_repository_sources(self):
        # BENCHMARK.json and perfbench/ alone cannot build anything: the
        # runner must exit nonzero without printing a result.
        tmp = os.path.join(ROOT, ".bench_build", "standalone-test")
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc = run("build-grid", 0, cwd=tmp, runner=os.path.join(tmp, "perfbench", "run.py"))
            self.assertNotEqual(proc.returncode, 0)
            self.assertFalse(proc.stdout.strip().startswith("{"))
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
