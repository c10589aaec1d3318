"""Self-tests of run.py's statistics, agreement checks and metric lists.

    cd perfbench && python3 -m unittest test_run
(also run by `python3 perfbench/run.py --selftest`).
"""

import argparse
import json
import os
import shutil
import stat
import tempfile
import unittest

import run


class StatsTest(unittest.TestCase):
    def test_median(self):
        self.assertEqual(run.median([3.0]), 3.0)
        self.assertEqual(run.median([5.0, 1.0, 3.0]), 3.0)
        self.assertEqual(run.median([4.0, 1.0, 3.0, 2.0]), 2.5)

    def test_highest_percentile_needs_ten_beyond(self):
        self.assertIsNone(run.highest_percentile(19))
        self.assertEqual(run.highest_percentile(20), 50.0)
        self.assertEqual(run.highest_percentile(100), 90.0)
        self.assertEqual(run.highest_percentile(1000), 99.0)
        self.assertEqual(run.highest_percentile(10000), 99.9)

    def test_percentile_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(run.percentile(values, 50), 50)
        self.assertEqual(run.percentile(values, 90), 90)
        self.assertEqual(run.percentile(values, 100), 100)
        self.assertEqual(run.percentile([7.0], 99.9), 7.0)

    def test_summarize(self):
        s = run.summarize([3.0, 1.0, 2.0])
        self.assertEqual(s, {"n": 3, "median": 2.0, "min": 1.0, "max": 3.0})
        s = run.summarize([float(i) for i in range(20)])
        self.assertEqual(s["p50"], 9.0)


class AgreementTest(unittest.TestCase):
    def rep(self, h, loss=1.0):
        return {"hash": h, "samples": 10, "final_loss": loss, "sim_s": 2.0}

    def test_identical_reps_agree(self):
        report = {}
        self.assertEqual(run.check_agreement([self.rep("a")] * 3, report),
                         (0, True))

    def test_hash_outlier_is_a_failed_repetition(self):
        report = {}
        bad, ok = run.check_agreement(
            [self.rep("a"), self.rep("b"), self.rep("a")], report)
        self.assertEqual((bad, ok), (1, False))

    def test_value_disagreement_fails(self):
        report = {}
        _, ok = run.check_agreement([self.rep("a"), self.rep("a", 2.0)],
                                    report)
        self.assertFalse(ok)
        self.assertEqual(report["disagree"], ["final_loss"])


class LauncherTest(unittest.TestCase):
    """Failure accounting, with a shell script standing in for perfbench_run."""

    def launcher(self, body):
        tmp = tempfile.mkdtemp()
        self.addCleanup(shutil.rmtree, tmp)
        path = os.path.join(tmp, "op")
        with open(path, "w") as f:
            f.write("#!/bin/sh\n" + body)
        os.chmod(path, stat.S_IRWXU)
        scratch = os.path.join(tmp, "scratch")
        os.makedirs(scratch)
        opts = argparse.Namespace(workload="w", seed=1)
        return run.Launcher(path, opts, scratch), scratch

    def test_crash_is_one_failed_operation(self):
        # First call leaves a spill file and dies by SIGSEGV; second succeeds.
        launch, scratch = self.launcher(
            'if [ -e "$0.ran" ]; then echo \'{"ok": 1}\'; else\n'
            '  touch "$0.ran" "$9/slab.bin"; kill -SEGV $$; fi\n')
        self.assertEqual(launch.until_done("rep", 4), {"ok": 1})
        self.assertEqual((launch.attempted, launch.failed), (2, 1))
        self.assertEqual(launch.check_failures, 0)
        self.assertIn("signal 11", launch.errors[0])
        self.assertEqual(os.listdir(scratch), [])

    def test_failed_check_is_final(self):
        launch, _ = self.launcher("echo diverged >&2; exit 3\n")
        self.assertIsNone(launch.until_done("anchor", 4))
        self.assertEqual((launch.attempted, launch.failed), (1, 1))
        self.assertEqual(launch.check_failures, 1)
        self.assertIn("diverged", launch.errors[0])


class BenchmarkJsonTest(unittest.TestCase):
    """run.py's metric lists are the ones BENCHMARK.json declares."""

    def setUp(self):
        path = os.path.join(run.ROOT, "BENCHMARK.json")
        if not os.path.exists(path):
            self.skipTest("no BENCHMARK.json next to perfbench/")
        with open(path) as f:
            self.bench = json.load(f)

    def test_workloads(self):
        self.assertEqual([w["name"] for w in self.bench["workloads"]],
                         list(run.WORKLOADS))

    def test_metrics_and_units(self):
        for key, table in (("end_to_end", run.END_TO_END),
                           ("per_layer", run.PER_LAYER)):
            declared = {m["name"]: m["unit"] for m in self.bench[key]}
            self.assertEqual(declared, table)


if __name__ == "__main__":
    unittest.main()
