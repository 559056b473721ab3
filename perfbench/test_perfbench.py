#!/usr/bin/env python3
"""Tests of the benchmark itself (not of sccpipe).

    python3 perfbench/test_perfbench.py

Builds the runner through run.py on first use, then checks that seeds make
runs repeatable, that the seed moves only what it should, that a failed
output check fails the run, and that the result line carries exactly the
metrics BENCHMARK.json declares. Takes a few minutes.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]


def bench(*args):
    p = subprocess.run(RUN + list(args), capture_output=True, text=True,
                       cwd=ROOT, timeout=600)
    return p.returncode, p.stdout


def plan(workload, seed):
    code, out = bench("--workload", workload, "--seed", str(seed),
                      "--seconds", "1", "--plan")
    assert code == 0, out
    # The first line names the machine's job count; the rest is the plan.
    return out.splitlines()[1:]


def result(out):
    return json.loads(out.strip().splitlines()[-1])


def digest(out):
    return re.search(r"^digest \S+ ([0-9a-f]{16})$", out, re.M).group(1)


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec[kind]}


class SeedTest(unittest.TestCase):
    def test_same_seed_same_op_list(self):
        for workload in ("cli_cold", "table1_grid", "chaos_grid",
                         "functional_film"):
            with self.subTest(workload=workload):
                self.assertEqual(plan(workload, 7), plan(workload, 7))

    def test_seed_moves_cli_draws_and_city_not_table1(self):
        self.assertNotEqual(plan("cli_cold", 1), plan("cli_cold", 2))
        self.assertNotEqual(plan("functional_film", 1),
                            plan("functional_film", 2))
        self.assertEqual(plan("table1_grid", 1), plan("table1_grid", 2))

    def test_same_seed_same_digest(self):
        for workload in ("table1_grid", "chaos_grid", "functional_film"):
            with self.subTest(workload=workload):
                runs = [bench("--workload", workload, "--seed", "5",
                              "--seconds", "1") for _ in range(2)]
                for code, out in runs:
                    self.assertEqual(code, 0, out)
                self.assertEqual(digest(runs[0][1]), digest(runs[1][1]))


class ResultLineTest(unittest.TestCase):
    def test_injected_check_failure_fails_the_run(self):
        code, out = bench("--workload", "table1_grid", "--seed", "1",
                          "--seconds", "1", "--inject-failure")
        self.assertNotEqual(code, 0)
        r = result(out)
        self.assertFalse(r["correct"])
        self.assertGreaterEqual(r["failed"], 1)
        self.assertIn("error_rate", out)

    def test_untraced_run_reports_every_end_to_end_metric(self):
        code, out = bench("--workload", "functional_film", "--seed", "2",
                          "--seconds", "1", "--trace", "0")
        self.assertEqual(code, 0, out)
        r = result(out)
        self.assertTrue(r["correct"])
        self.assertEqual(r["failed"], 0)
        got = {k: v["unit"] for k, v in r["metrics"].items()}
        self.assertEqual(got, declared("end_to_end"))
        for name, m in r["metrics"].items():
            self.assertGreater(m["value"], 0, name)

    def test_traced_run_reports_every_per_layer_metric(self):
        code, out = bench("--workload", "functional_film", "--seed", "2",
                          "--seconds", "2", "--trace", "1")
        self.assertEqual(code, 0, out)
        got = {k: v["unit"] for k, v in result(out)["metrics"].items()}
        self.assertEqual(got, declared("per_layer"))
        self.assertIn("per-layer self time:", out)
        span_file = re.search(r"written to (\S+)", out).group(1)
        with open(span_file) as f:
            self.assertTrue(json.load(f)["traceEvents"])


if __name__ == "__main__":
    unittest.main(verbosity=2)
