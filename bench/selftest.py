"""Self-test of the benchmark: ``python3 bench/selftest.py`` from the root.

Runs every workload at its tiny size through ``run.py``, checks the result
schema against ``BENCHMARK.json``, and shows that a wrong oracle value and a
missing engine are both reported.  The file name keeps it out of the
engine's own pytest collection.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run

run.use_engine_source()

import workloads  # noqa: E402  (needs the engine on the path)
from laws import LAWS  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RUN = [sys.executable, str(Path(run.__file__).resolve())]


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


class TinyRuns(unittest.TestCase):
    """Every workload at tiny size, end-to-end and traced, with seed 7."""

    def check(self, workload, trace, names):
        proc = subprocess.run(
            RUN + ["--workload", workload, "--seed", "7", "--seconds", "0",
                   "--trace", str(trace), "--size", "tiny"],
            cwd=run.ROOT, capture_output=True, text=True, timeout=300)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        res = last_json(proc.stdout)
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertIs(res["correct"], True)
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(res["failed"], 0)
        self.assertEqual(set(res["metrics"]), set(names))
        for name, m in res["metrics"].items():
            self.assertEqual(set(m), {"value", "unit"})
            self.assertIsInstance(m["value"], (int, float))
            self.assertEqual(m["unit"], names[name], name)
        return res["metrics"]

    def test_each_workload(self):
        e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        layers = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         list(workloads.WORKLOADS))
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                m = self.check(name, 0, e2e)
                self.assertEqual(m["ok_share"]["value"], 1.0)
                self.check(name, 1, layers)


class Oracles(unittest.TestCase):

    def test_wrong_oracle_value_is_a_failure(self):
        real = workloads.fib_oracle

        def wrong(n):
            vals = real(n)
            vals[3] += 1
            return vals

        workloads.fib_oracle = wrong
        try:
            with tempfile.TemporaryDirectory(dir=run.ROOT,
                                             prefix=".bench-tmp-") as tmp:
                res = run.measure(workloads.RunFib(7, True, tmp), 0)
        finally:
            workloads.fib_oracle = real
        self.assertIs(res["correct"], False)
        self.assertEqual(res["failed"], run.MIN_REPS)
        self.assertLess(res["metrics"]["ok_share"]["value"], 1.0)

    def test_urn_support(self):
        self.assertEqual(workloads.urn_walk_bad([4, 3, 2, 3, 4]), 0)
        self.assertEqual(workloads.urn_walk_bad([3, 2]), 1)
        self.assertEqual(workloads.urn_walk_bad([4, 4, 3]), 1)
        self.assertEqual(workloads.urn_walk_bad([4, 5]), 1)

    def test_ehrenfest_oracle_is_a_distribution(self):
        for dist in workloads.ehrenfest_oracle(6):
            self.assertEqual(sum(dist.values()), 1)
        self.assertEqual(workloads.ehrenfest_oracle(1)[1], {3: 1})

    def test_laws_hold_under_another_master_seed(self):
        wl = workloads.Laws(7, True, None, master=12345)
        wl.setup()
        tally = workloads.Tally()
        verdicts = wl.rep(tally)
        self.assertEqual(tally.attempted, len(LAWS))
        self.assertEqual(tally.failed, 0, verdicts)


class MissingEngine(unittest.TestCase):

    def test_exits_nonzero_without_a_result(self):
        with tempfile.TemporaryDirectory(dir=run.ROOT,
                                         prefix=".bench-tmp-") as tmp:
            bench = Path(tmp) / Path(run.__file__).parent.name
            shutil.copytree(Path(run.__file__).parent, bench,
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            proc = subprocess.run(
                [sys.executable, str(bench / "run.py"), "--workload",
                 "run-fib", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
