#!/usr/bin/env python3
"""The benchmark's own tests, at --small size (about a minute):

    python3 perfbench/test_perfbench.py

- two runs at one seed print identical fingerprints, another seed a
  different one, on every workload;
- every metric name and unit printed matches BENCHMARK.json, untraced
  and traced;
- an undersized buffer cache is counted in "failed" instead of ending
  the run.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, seed, trace=0, *extra):
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0.1",
         "--trace", str(trace), "--small", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise AssertionError("%s exited %d:\n%s" % (workload, done.returncode,
                                                    done.stderr[-2000:]))
    lines = done.stdout.splitlines()
    prints = [l.split()[1] for l in lines if l.startswith("fingerprint ")]
    return prints[0], json.loads(lines[-1])


def units(key):
    return {m["name"]: m["unit"] for m in SPEC[key]}


class Fingerprints(unittest.TestCase):
    def test_seed_determines_fingerprint(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a, res = run(w, 1)
                b, _ = run(w, 1)
                c, _ = run(w, 2)
                self.assertEqual(a, b)
                self.assertNotEqual(a, c)
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                self.assertEqual(got, units("end_to_end"))


class MetricNames(unittest.TestCase):
    def test_traced_names_match_spec(self):
        _, res = run("crash-recovery", 1, 1)
        self.assertTrue(res["correct"])
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        self.assertEqual(got, units("per_layer"))


class Failures(unittest.TestCase):
    def test_undersized_cache_is_counted(self):
        _, res = run("tenant-churn", 1, 0, "--cache-mb", "1")
        self.assertGreater(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], res["failed"])


if __name__ == "__main__":
    unittest.main()
