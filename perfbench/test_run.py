#!/usr/bin/env python3
"""Self-tests of the benchmark's failure accounting.

Run from the root of a checkout: `python3 perfbench/test_run.py`. Each
test spawns `perfbench/run.py` on `table1-full` with a fault injected
through the program's own `REPRO_FAULTS` knob. These runs are not
benchmark workloads. They show that `failed_ratio` is wired to the
journal.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.getcwd()
RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def bench(trace, faults="", cwd=ROOT):
    out = subprocess.run(
        [sys.executable, RUN, "--workload", "table1-full", "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--faults", faults],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return out


def result(out):
    assert out.returncode == 0, out.stderr[-2000:]
    return json.loads(out.stdout.strip().splitlines()[-1])


class FailureAccounting(unittest.TestCase):
    def test_flaky_cell_retries_and_counts_no_failure(self):
        r = result(bench(0, "flaky:table1/gcc:1"))
        self.assertTrue(r["correct"])
        self.assertEqual(r["failed"], 0)
        self.assertEqual(r["metrics"]["ok_ratio"]["value"], 1.0)
        layers = result(bench(1, "flaky:table1/gcc:1"))["metrics"]
        self.assertEqual(layers["experiments.failed_ratio"]["value"], 0.0)
        self.assertEqual(layers["experiments.retries"]["value"], 1)

    def test_panicking_cell_fails_one_of_eight(self):
        r = result(bench(0, "panic:table1/gcc"))
        self.assertFalse(r["correct"])
        self.assertEqual(r["failed"] * 8, r["attempted"])
        self.assertEqual(r["metrics"]["ok_ratio"]["value"], 1 - 1 / 8)
        layers = result(bench(1, "panic:table1/gcc"))["metrics"]
        self.assertEqual(layers["experiments.failed_ratio"]["value"], 1 / 8)

    def test_clean_run_is_correct(self):
        r = result(bench(0))
        self.assertTrue(r["correct"])
        self.assertEqual(r["failed"], 0)
        self.assertEqual(r["attempted"] % 8, 0)

    def test_without_the_workspace_exits_nonzero_and_prints_no_result(self):
        bare = os.path.join(ROOT, ".bench_work", "bare-%d" % os.getpid())
        shutil.copytree(os.path.dirname(RUN), os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("target", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "table1-full",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"correct"', out.stdout)


if __name__ == "__main__":
    unittest.main()
