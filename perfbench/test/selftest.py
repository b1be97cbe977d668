#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark.

    python3 perfbench/test/selftest.py

Builds the benchmark (as perfbench/run.py does) and runs every workload at
tiny size for one second. Checks that every end-to-end metric named in
BENCHMARK.json prints with its unit and that every answer checks out; that
the traced run prints every per-layer metric; that an injected wrong answer
is counted as a failed operation (so the checks can fail); and that a bad
workload name exits non-zero without a result.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(ROOT, "perfbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)


def run(workload, *extra, trace="0"):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", trace, "--tiny"] + list(extra)
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)


def result(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SelfTest(unittest.TestCase):
    def check_metrics(self, proc, specs):
        res = result(proc)
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertEqual(list(res["metrics"]), [m["name"] for m in specs])
        for m in specs:
            got = res["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))
            # The human-readable line too: "metric <name> <value> <unit>".
            line = r"^metric %s +\S+ %s$" % (re.escape(m["name"]),
                                              re.escape(m["unit"]))
            self.assertRegex(proc.stdout, re.compile(line, re.M))
        return res

    def test_every_workload_prints_every_metric_and_checks_out(self):
        for w in BENCH["workloads"]:
            with self.subTest(workload=w["name"]):
                res = self.check_metrics(run(w["name"]), BENCH["end_to_end"])
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertGreater(res["attempted"], 0)

    def test_traced_run_prints_every_layer_metric(self):
        proc = run("wire_p2p", trace="1")
        res = self.check_metrics(proc, BENCH["per_layer"])
        self.assertTrue(res["correct"])
        self.assertIn("net.session_residual", proc.stdout)
        self.assertIn("tracing overhead", proc.stdout)

    def test_injected_wrong_answer_counts_as_failure(self):
        for w in ("build_exact", "wire_p2p"):
            with self.subTest(workload=w):
                res = result(run(w, "--inject-fault"))
                self.assertFalse(res["correct"])
                # One wrong build check plus one wrong wire answer per
                # pass through the request stream.
                self.assertGreaterEqual(res["failed"], 2)

    def test_unknown_workload_fails_without_result(self):
        proc = run("no_such_workload")
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
